#include "relational/column.h"

namespace licm::rel {

void ColumnTable::Reserve(size_t rows) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (schema_.column(c).type == ValueType::kDouble) {
      cols_[c].f64.reserve(rows);
    } else {
      cols_[c].i64.reserve(rows);
    }
  }
}

ColumnTable ColumnTable::FromRows(const Relation& rows,
                                  StringDictionary* dict) {
  const std::vector<Tuple>& tuples = rows.rows();
  ColumnTable out(rows.schema());
  const size_t n = tuples.size();
  out.num_rows_ = n;
  for (size_t c = 0; c < out.cols_.size(); ++c) {
    switch (out.schema_.column(c).type) {
      case ValueType::kInt: {
        auto& v = out.cols_[c].i64;
        v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = std::get<int64_t>(tuples[i][c]);
        }
        break;
      }
      case ValueType::kDouble: {
        auto& v = out.cols_[c].f64;
        v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = std::get<double>(tuples[i][c]);
        }
        break;
      }
      case ValueType::kString: {
        LICM_CHECK(dict != nullptr);
        auto& v = out.cols_[c].i64;
        v.resize(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = dict->Intern(std::get<std::string>(tuples[i][c]));
        }
        break;
      }
    }
  }
  return out;
}

Relation ColumnTable::ToRows(const StringDictionary* dict) const {
  Relation out(schema_);
  out.Reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    Tuple t(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      switch (schema_.column(c).type) {
        case ValueType::kInt: t[c] = cols_[c].i64[i]; break;
        case ValueType::kDouble: t[c] = cols_[c].f64[i]; break;
        case ValueType::kString:
          LICM_CHECK(dict != nullptr);
          t[c] = dict->str(cols_[c].i64[i]);
          break;
      }
    }
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

}  // namespace licm::rel

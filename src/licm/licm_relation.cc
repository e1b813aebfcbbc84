#include "licm/licm_relation.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "relational/arena.h"
#include "relational/batch.h"

namespace licm {

rel::Tuple LicmRelation::tuple(size_t i) const {
  LICM_CHECK(i < size());
  const rel::Schema& s = schema();
  rel::Tuple t(s.size());
  for (size_t c = 0; c < s.size(); ++c) {
    const rel::ColumnData& col = columns_.col(c);
    switch (s.column(c).type) {
      case rel::ValueType::kInt: t[c] = col.i64[i]; break;
      case rel::ValueType::kDouble: t[c] = col.f64[i]; break;
      case rel::ValueType::kString: t[c] = dict_.str(col.i64[i]); break;
    }
  }
  return t;
}

std::vector<rel::Tuple> LicmRelation::tuples() const {
  std::vector<rel::Tuple> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(tuple(i));
  return out;
}

bool LicmRelation::RowEquals(size_t i, const rel::Tuple& t) const {
  LICM_CHECK(i < size());
  const rel::Schema& s = schema();
  if (t.size() != s.size()) return false;
  for (size_t c = 0; c < s.size(); ++c) {
    const rel::ColumnData& col = columns_.col(c);
    switch (s.column(c).type) {
      case rel::ValueType::kInt: {
        const int64_t* v = std::get_if<int64_t>(&t[c]);
        if (v == nullptr || *v != col.i64[i]) return false;
        break;
      }
      case rel::ValueType::kDouble: {
        const double* v = std::get_if<double>(&t[c]);
        if (v == nullptr || !(*v == col.f64[i])) return false;
        break;
      }
      case rel::ValueType::kString: {
        const std::string* v = std::get_if<std::string>(&t[c]);
        if (v == nullptr || dict_.Find(*v) != col.i64[i]) return false;
        break;
      }
    }
  }
  return true;
}

void LicmRelation::AppendUnchecked(const rel::Tuple& t, Ext ext) {
  const rel::Schema& s = schema();
  LICM_CHECK(t.size() == s.size());
  for (size_t c = 0; c < s.size(); ++c) {
    rel::ColumnData& col = columns_.col(c);
    switch (s.column(c).type) {
      case rel::ValueType::kInt:
        col.i64.push_back(std::get<int64_t>(t[c]));
        break;
      case rel::ValueType::kDouble:
        col.f64.push_back(std::get<double>(t[c]));
        break;
      case rel::ValueType::kString:
        col.i64.push_back(dict_.Intern(std::get<std::string>(t[c])));
        break;
    }
  }
  exts_.push_back(ext);
  columns_.set_num_rows(exts_.size());
  set_state_.value.store(kSetUnknown, std::memory_order_relaxed);
}

void LicmRelation::RemoveAt(size_t i) {
  LICM_CHECK(i < size());
  const auto at = static_cast<ptrdiff_t>(i);
  for (size_t c = 0; c < columns_.num_cols(); ++c) {
    rel::ColumnData& col = columns_.col(c);
    if (schema().column(c).type == rel::ValueType::kDouble) {
      col.f64.erase(col.f64.begin() + at);
    } else {
      col.i64.erase(col.i64.begin() + at);
    }
  }
  exts_.erase(exts_.begin() + at);
  columns_.set_num_rows(exts_.size());
  set_state_.value.store(kSetUnknown, std::memory_order_relaxed);
}

bool LicmRelation::IsSet() const {
  uint8_t state = set_state_.value.load(std::memory_order_relaxed);
  if (state == kSetUnknown) {
    // String ids come from one dictionary, so equal ids mean equal text
    // and grouping the raw columns finds exactly the duplicate tuples.
    rel::Arena scratch;
    std::vector<size_t> all(schema().size());
    std::iota(all.begin(), all.end(), size_t{0});
    const rel::Grouping g =
        rel::GroupBy(rel::TableView(columns_), all, &scratch);
    state = g.num_groups == g.n ? kSet : kNotSet;
    set_state_.value.store(state, std::memory_order_relaxed);
  }
  return state == kSet;
}

rel::Relation LicmRelation::Instantiate(
    const std::vector<uint8_t>& assignment) const {
  rel::Relation out(schema());
  for (size_t i = 0; i < size(); ++i) {
    if (exts_[i].Eval(assignment) == 1) out.AppendUnchecked(tuple(i));
  }
  out.Deduplicate();
  return out;
}

std::vector<BVar> LicmRelation::Variables() const {
  std::unordered_set<BVar> seen;
  std::vector<BVar> out;
  for (const Ext& e : exts_) {
    if (!e.certain() && seen.insert(e.var()).second) out.push_back(e.var());
  }
  return out;
}

std::string LicmRelation::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema().ToString() << " + Ext [" << size() << " tuples]\n";
  for (size_t i = 0; i < size() && i < max_rows; ++i) {
    const rel::Tuple t = tuple(i);
    os << "  (";
    for (size_t c = 0; c < t.size(); ++c) {
      if (c) os << ", ";
      os << rel::ToString(t[c]);
    }
    os << " | Ext=" << exts_[i].ToString() << ")\n";
  }
  if (size() > max_rows) os << "  ...\n";
  return os.str();
}
Status LicmDatabase::AddRelation(std::string name, LicmRelation r) {
  auto [it, inserted] = relations_.emplace(
      std::move(name), std::make_shared<LicmRelation>(std::move(r)));
  if (!inserted) {
    return Status::AlreadyExists("LICM relation '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Result<const LicmRelation*> LicmDatabase::GetRelation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no LICM relation '" + name + "'");
  }
  return it->second.get();
}

Result<LicmRelation*> LicmDatabase::GetMutableRelation(
    const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no LICM relation '" + name + "'");
  }
  std::shared_ptr<LicmRelation>& r = it->second;
  if (r.use_count() > 1) r = std::make_shared<LicmRelation>(*r);
  return r.get();
}

rel::Database LicmDatabase::Instantiate(
    const std::vector<uint8_t>& assignment) const {
  rel::Database db;
  for (const auto& [name, r] : relations_) {
    LICM_CHECK_OK(db.Add(name, r->Instantiate(assignment)));
  }
  return db;
}

}  // namespace licm

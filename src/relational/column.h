// Typed column storage and string interning for the columnar engine.
//
// A ColumnTable stores a relation as one contiguous vector per column
// instead of a std::vector<Tuple> of variant Values: int64 and
// dictionary-encoded string columns share an int64_t buffer (string cells
// hold dictionary ids), double columns a double buffer. The row
// Relation/Tuple API stays available through FromRows/ToRows conversion
// shims, so existing callers keep working while the batch operators
// (batch.h, columnar engine) work on raw typed arrays.
#ifndef LICM_RELATIONAL_COLUMN_H_
#define LICM_RELATIONAL_COLUMN_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"
#include "relational/value.h"

namespace licm::rel {

/// Append-only string interner. Ids are dense in insertion order, so equal
/// strings interned through one dictionary — across every relation touched
/// by a query — always compare equal by id. Ordered string comparisons go
/// through per-predicate lookup tables built over the dictionary (see
/// batch.h), never through the strings on the hot path.
class StringDictionary {
 public:
  /// Id of `s`, interning it on first sight.
  int64_t Intern(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    strings_.emplace_back(s);
    const int64_t id = static_cast<int64_t>(strings_.size()) - 1;
    ids_.emplace(strings_.back(), id);
    return id;
  }

  /// Id of `s`, or -1 when it was never interned.
  int64_t Find(std::string_view s) const {
    auto it = ids_.find(s);
    return it == ids_.end() ? -1 : it->second;
  }

  const std::string& str(int64_t id) const {
    LICM_CHECK(id >= 0 && static_cast<size_t>(id) < strings_.size());
    return strings_[static_cast<size_t>(id)];
  }

  size_t size() const { return strings_.size(); }

 private:
  // Heterogeneous lookup so Intern/Find take string_view without a
  // temporary std::string per probe.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  // std::deque-like stability is not needed: ids_ keys view into
  // strings_ elements, and std::string's heap buffer survives vector
  // reallocation for non-SSO strings — but SSO strings do move. Key by
  // copies instead.
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int64_t, Hash, Eq> ids_;
};

/// One typed column: i64 doubles as the buffer for kInt and kString
/// (dictionary ids), f64 for kDouble. Exactly one buffer is populated.
struct ColumnData {
  std::vector<int64_t> i64;
  std::vector<double> f64;
};

/// A relation stored column-wise. `dict` maps the ids in string columns
/// back to their text; tables that never see a string column may leave it
/// null.
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(Schema schema)
      : schema_(std::move(schema)), cols_(schema_.size()) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const ColumnData& col(size_t i) const { return cols_[i]; }
  ColumnData& col(size_t i) { return cols_[i]; }
  size_t num_cols() const { return cols_.size(); }

  void set_num_rows(size_t n) { num_rows_ = n; }
  void Reserve(size_t rows);

  /// Converts a row relation, interning strings through `dict` (required
  /// when the schema has a string column).
  static ColumnTable FromRows(const Relation& rows, StringDictionary* dict);

  /// Converts back to the row representation, in row order.
  Relation ToRows(const StringDictionary* dict) const;

 private:
  Schema schema_;
  std::vector<ColumnData> cols_;
  size_t num_rows_ = 0;
};

}  // namespace licm::rel

#endif  // LICM_RELATIONAL_COLUMN_H_

// LICM relations and databases (Definitions 2 and 3).
//
// An LICM relation is a collection of tuples over normal attributes plus
// the special Ext attribute: '1' for certain tuples, or a binary variable
// for maybe-tuples. An LICM database bundles named relations with the
// shared variable pool and constraint set; query operators grow all three.
#ifndef LICM_LICM_LICM_RELATION_H_
#define LICM_LICM_LICM_RELATION_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "licm/constraint.h"
#include "relational/column.h"
#include "relational/engine.h"
#include "relational/relation.h"

namespace licm {

/// The Ext attribute of one tuple: certain ('1') or a maybe-variable b.
class Ext {
 public:
  static Ext Certain() { return Ext(kCertainTag); }
  static Ext Maybe(BVar v) { return Ext(v); }

  bool certain() const { return value_ == kCertainTag; }
  BVar var() const {
    LICM_CHECK(!certain());
    return value_;
  }

  /// 0/1 value under an assignment (certain tuples are always 1).
  uint8_t Eval(const std::vector<uint8_t>& assignment) const {
    if (certain()) return 1;
    LICM_CHECK(value_ < assignment.size());
    return assignment[value_];
  }

  bool operator==(const Ext&) const = default;

  std::string ToString() const {
    return certain() ? "1" : "b" + std::to_string(value_);
  }

 private:
  static constexpr BVar kCertainTag = 0xffffffffu;
  explicit Ext(BVar v) : value_(v) {}
  BVar value_;
};

/// A relation of schema {A1..Ak, Ext}, stored column by column: one typed
/// vector per normal attribute (string cells hold ids into the relation's
/// own dictionary) plus the parallel `exts` array. Query scans borrow the
/// columns in place (columnar_ops.h); the row accessors build tuples from
/// the columns on demand.
class LicmRelation {
 public:
  LicmRelation() = default;
  explicit LicmRelation(rel::Schema schema) : columns_(std::move(schema)) {}

  const rel::Schema& schema() const { return columns_.schema(); }
  size_t size() const { return exts_.size(); }
  bool empty() const { return exts_.empty(); }

  /// The normal attributes; string columns hold ids into dict().
  const rel::ColumnTable& columns() const { return columns_; }
  const rel::StringDictionary& dict() const { return dict_; }
  const std::vector<Ext>& exts() const { return exts_; }
  Ext ext(size_t i) const { return exts_[i]; }

  /// Tuple `i`, built from the columns.
  rel::Tuple tuple(size_t i) const;
  /// Every tuple in row order, built from the columns.
  std::vector<rel::Tuple> tuples() const;
  /// Whether tuple `i` equals `t` (Value equality: type-strict, doubles by
  /// ==), compared in place without building tuple `i`.
  bool RowEquals(size_t i, const rel::Tuple& t) const;

  Status Append(const rel::Tuple& t, Ext ext) {
    LICM_RETURN_NOT_OK(schema().Check(t));
    AppendUnchecked(t, ext);
    return Status::OK();
  }
  /// Appends a tuple whose cell types match the schema.
  void AppendUnchecked(const rel::Tuple& t, Ext ext);

  /// Removes the tuple (and its Ext) at position `i`; later tuples shift
  /// down. Used by MutableInstance retractions.
  void RemoveAt(size_t i);

  /// Whether no two tuples are equal (set semantics already hold), so a
  /// scan can skip the OR-merge of duplicates. Computed on the first call
  /// and kept until the next Append or RemoveAt; concurrent readers may
  /// both compute it, and they store the same answer.
  bool IsSet() const;

  /// Instantiates this relation in the possible world selected by
  /// `assignment` (Section III): keeps tuples whose Ext evaluates to 1,
  /// deduplicated under set semantics.
  rel::Relation Instantiate(const std::vector<uint8_t>& assignment) const;

  /// The set of distinct binary variables appearing in Ext attributes.
  std::vector<BVar> Variables() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  enum : uint8_t { kSetUnknown, kSet, kNotSet };
  // An atomic that copies by value, so relations stay copyable (the
  // copy-on-write clone in LicmDatabase::GetMutableRelation).
  struct SetState {
    std::atomic<uint8_t> value{kSetUnknown};
    SetState() = default;
    SetState(const SetState& o)
        : value(o.value.load(std::memory_order_relaxed)) {}
    SetState& operator=(const SetState& o) {
      value.store(o.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };

  rel::ColumnTable columns_;
  rel::StringDictionary dict_;
  std::vector<Ext> exts_;
  mutable SetState set_state_;
};

/// An LICM database D = (R, C): named relations, the variable pool B and
/// the constraint set C (Definition 3).
///
/// Copies share relations: each relation sits behind a shared pointer, so
/// copying a database copies the pool, the constraint set and one pointer
/// per relation. Query evaluation only ever grows the pool and the
/// constraint set, so a per-answer copy costs what those hold, not the
/// base columns.
class LicmDatabase {
 public:
  Status AddRelation(std::string name, LicmRelation r);
  Result<const LicmRelation*> GetRelation(const std::string& name) const;
  /// Mutable lookup for the mutation layer (licm/mutable_instance.h);
  /// query evaluation only ever uses the const accessor. Copy-on-write: a
  /// relation still shared with another database copy is cloned first
  /// (its column vectors, dictionary and Ext array), so the other copies
  /// keep their tuples. The pointer stays valid, and
  /// private to this database, until the database is copied.
  Result<LicmRelation*> GetMutableRelation(const std::string& name);

  VariablePool& pool() { return pool_; }
  const VariablePool& pool() const { return pool_; }
  ConstraintSet& constraints() { return constraints_; }
  const ConstraintSet& constraints() const { return constraints_; }

  /// Instantiates every relation in the world selected by `assignment`;
  /// the assignment must be valid (satisfy all constraints) for the result
  /// to be a possible world.
  rel::Database Instantiate(const std::vector<uint8_t>& assignment) const;

 private:
  std::unordered_map<std::string, std::shared_ptr<LicmRelation>> relations_;
  VariablePool pool_;
  ConstraintSet constraints_;
};

}  // namespace licm

#endif  // LICM_LICM_LICM_RELATION_H_

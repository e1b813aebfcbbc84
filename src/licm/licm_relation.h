// LICM relations and databases (Definitions 2 and 3).
//
// An LICM relation is a collection of tuples over normal attributes plus
// the special Ext attribute: '1' for certain tuples, or a binary variable
// for maybe-tuples. An LICM database bundles named relations with the
// shared variable pool and constraint set; query operators grow all three.
#ifndef LICM_LICM_LICM_RELATION_H_
#define LICM_LICM_LICM_RELATION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "licm/constraint.h"
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

/// A relation of schema {A1..Ak, Ext}. Normal attributes live in `tuples`,
/// the parallel `exts` array holds each tuple's Ext attribute.
class LicmRelation {
 public:
  LicmRelation() = default;
  explicit LicmRelation(rel::Schema schema) : schema_(std::move(schema)) {}

  const rel::Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::vector<rel::Tuple>& tuples() const { return tuples_; }
  const std::vector<Ext>& exts() const { return exts_; }
  const rel::Tuple& tuple(size_t i) const { return tuples_[i]; }
  Ext ext(size_t i) const { return exts_[i]; }

  Status Append(rel::Tuple t, Ext ext) {
    LICM_RETURN_NOT_OK(schema_.Check(t));
    AppendUnchecked(std::move(t), ext);
    return Status::OK();
  }
  void AppendUnchecked(rel::Tuple t, Ext ext) {
    tuples_.push_back(std::move(t));
    exts_.push_back(ext);
  }

  /// Removes the tuple (and its Ext) at position `i`; later tuples shift
  /// down. Used by MutableInstance retractions.
  void RemoveAt(size_t i) {
    LICM_CHECK(i < tuples_.size());
    tuples_.erase(tuples_.begin() + static_cast<ptrdiff_t>(i));
    exts_.erase(exts_.begin() + static_cast<ptrdiff_t>(i));
  }

  /// Instantiates this relation in the possible world selected by
  /// `assignment` (Section III): keeps tuples whose Ext evaluates to 1,
  /// deduplicated under set semantics.
  rel::Relation Instantiate(const std::vector<uint8_t>& assignment) const;

  /// The set of distinct binary variables appearing in Ext attributes.
  std::vector<BVar> Variables() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  rel::Schema schema_;
  std::vector<rel::Tuple> tuples_;
  std::vector<Ext> exts_;
};

/// An LICM database D = (R, C): named relations, the variable pool B and
/// the constraint set C (Definition 3).
///
/// Copies share relations: each relation sits behind a shared pointer, so
/// copying a database copies the pool, the constraint set and one pointer
/// per relation. Query evaluation only ever grows the pool and the
/// constraint set, so a per-answer copy costs what those hold, not the
/// base tuples.
class LicmDatabase {
 public:
  Status AddRelation(std::string name, LicmRelation r);
  Result<const LicmRelation*> GetRelation(const std::string& name) const;
  /// Mutable lookup for the mutation layer (licm/mutable_instance.h);
  /// query evaluation only ever uses the const accessor. Copy-on-write: a
  /// relation still shared with another database copy is cloned first, so
  /// the other copies keep their tuples. The pointer stays valid, and
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

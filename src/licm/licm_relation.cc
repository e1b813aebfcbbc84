#include "licm/licm_relation.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace licm {

rel::Relation LicmRelation::Instantiate(
    const std::vector<uint8_t>& assignment) const {
  rel::Relation out(schema_);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (exts_[i].Eval(assignment) == 1) out.AppendUnchecked(tuples_[i]);
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
  os << schema_.ToString() << " + Ext [" << tuples_.size() << " tuples]\n";
  for (size_t i = 0; i < tuples_.size() && i < max_rows; ++i) {
    os << "  (";
    for (size_t c = 0; c < tuples_[i].size(); ++c) {
      if (c) os << ", ";
      os << rel::ToString(tuples_[i][c]);
    }
    os << " | Ext=" << exts_[i].ToString() << ")\n";
  }
  if (tuples_.size() > max_rows) os << "  ...\n";
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

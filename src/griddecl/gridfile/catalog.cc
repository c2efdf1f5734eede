#include "griddecl/gridfile/catalog.h"

namespace griddecl {

Catalog::Catalog(uint32_t num_disks) : num_disks_(num_disks) {
  GRIDDECL_CHECK(num_disks >= 1);
}

Status Catalog::AddRelation(const std::string& name, DeclusteredFile file) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (file.num_disks() != num_disks_) {
    return Status::InvalidArgument(
        "relation '" + name + "' declusters over " +
        std::to_string(file.num_disks()) + " disks; the array has " +
        std::to_string(num_disks_));
  }
  if (relations_.count(name) > 0) {
    return Status::InvalidArgument("relation '" + name +
                                   "' already registered");
  }
  relations_.emplace(name, std::move(file));
  return Status::Ok();
}

const DeclusteredFile* Catalog::Find(const std::string& name) const {
  const auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, file] : relations_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

}  // namespace griddecl

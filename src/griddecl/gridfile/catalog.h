#ifndef GRIDDECL_GRIDFILE_CATALOG_H_
#define GRIDDECL_GRIDFILE_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "griddecl/gridfile/declustered_file.h"

/// \file
/// Relation catalog: many declustered relations sharing one disk array.
///
/// The paper closes with "parallel database systems must support a number
/// of declustering methods" — which implies a host structure that records,
/// per relation, *which* method declusters it. This catalog is that
/// structure on the write side: relations register under a name, each with
/// its own grid, method, and records, and `SaveCatalogManifest`
/// (manifest.h) stores them as one generation. Queries are served from the
/// stored generation (serve/service.h), not from this in-memory catalog.

namespace griddecl {

/// Named collection of declustered relations over a common disk array.
class Catalog {
 public:
  /// All registered relations must decluster over exactly `num_disks`.
  explicit Catalog(uint32_t num_disks);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  uint32_t num_disks() const { return num_disks_; }

  /// Registers a relation. Fails on duplicate names, empty names, or a
  /// disk-count mismatch with the array.
  Status AddRelation(const std::string& name, DeclusteredFile file);

  /// Looks up a relation; nullptr when absent.
  const DeclusteredFile* Find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> RelationNames() const;

 private:
  uint32_t num_disks_;
  std::map<std::string, DeclusteredFile> relations_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_CATALOG_H_

#ifndef GRIDDECL_TESTS_SERVE_EVERY_RELATION_H_
#define GRIDDECL_TESTS_SERVE_EVERY_RELATION_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "griddecl/gridfile/manifest.h"
#include "griddecl/serve/service.h"

namespace griddecl {

/// Whether `env` holds a catalog the product read path serves whole:
/// `QueryService::Create` on it succeeds, and a full-box query on every
/// relation of the generation it loaded comes back complete, with every
/// record the relation's data file holds. Ok, or the first failure.
inline Status ServeEveryRelation(const StorageEnv& env) {
  serve::ServeOptions options;
  options.num_threads = 1;
  Result<std::unique_ptr<serve::QueryService>> service =
      serve::QueryService::Create(&env, options);
  if (!service.ok()) return service.status();
  Result<CatalogManifest> manifest =
      ReadManifest(env, service.value()->generation());
  if (!manifest.ok()) return manifest.status();
  const CatalogManifest& m = manifest.value();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    Result<std::string> data = env.ReadFile(m.DataFileName(i));
    if (!data.ok()) return data.status();
    Result<FileLayout> layout = ParseFileLayout(data.value());
    if (!layout.ok()) return layout.status();
    serve::QueryRequest request;
    request.relation = m.relations[i].name;
    request.lo.assign(layout.value().num_attrs, -kInf);
    request.hi.assign(layout.value().num_attrs, kInf);
    const serve::QueryResult result =
        service.value()->Execute(std::move(request));
    if (!result.status.ok()) return result.status;
    if (result.matches.size() != layout.value().num_records) {
      return Status::Internal(
          "relation '" + m.relations[i].name + "' served " +
          std::to_string(result.matches.size()) + " of " +
          std::to_string(layout.value().num_records) + " records");
    }
  }
  return Status::Ok();
}

}  // namespace griddecl

#endif  // GRIDDECL_TESTS_SERVE_EVERY_RELATION_H_

#ifndef GRIDDECL_GRIDFILE_MANIFEST_H_
#define GRIDDECL_GRIDFILE_MANIFEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"

/// \file
/// Atomic, generation-numbered persistence for a whole `Catalog`.
///
/// A catalog save writes every relation as a self-verifying grid file
/// (storage.h), optional redundancy sidecars (full mirror
/// copies, or XOR parity pages — the storage-level analogues of the
/// paper's replication and ECC declustering ideas), and one manifest file
/// naming them all with sizes and CRC32C checksums. The commit protocol is
/// the classic write-new-then-flip:
///
///   1. pick generation G = 1 + highest generation mentioned by any
///      existing file (never reuse names — wreckage of a crashed attempt
///      must not be overwritten);
///   2. write `rel-<G>-<i>.gd` (+ `.m<k>` mirrors / `.par` parity) for
///      every relation, then `MANIFEST-<G>`;
///   3. write `CURRENT.tmp` containing "MANIFEST-<G> <crc>" and atomically
///      rename it onto `CURRENT` — THE commit point;
///   4. garbage-collect generations <= G-2 (the immediately previous
///      generation is retained as a rollback target).
///
/// A crash at any step before (3) leaves `CURRENT` pointing at the old
/// generation; a crash after (3) — including mid-GC — leaves the new one
/// fully durable. A torn `CURRENT` is detected by its embedded CRC, and
/// recovery falls back to scanning `MANIFEST-*` files from the highest
/// generation down, accepting the first whose referenced files all verify.
/// The torture test drives this through `CrashEnv` at every single
/// operation index.

namespace griddecl {

/// Name of the commit pointer file.
inline constexpr char kCurrentFileName[] = "CURRENT";

/// Storage-level redundancy attached to one relation.
struct RelationRedundancy {
  enum class Policy : uint32_t {
    /// Single copy; corruption is detected (CRCs) but not repairable.
    kNone = 0,
    /// `copies` full copies of the data file; any page repairs from any
    /// intact copy of it.
    kMirror = 1,
    /// One XOR parity page per stripe of `group_pages` data pages; one
    /// damaged page per stripe reconstructs from the survivors (the
    /// page-level counterpart of the ECC method's distance-3 groups).
    kParity = 2,
  };

  Policy policy = Policy::kNone;
  /// Total copies under kMirror (primary included); must be >= 2.
  uint32_t copies = 2;
  /// Stripe width under kParity; must be >= 1.
  uint32_t group_pages = 8;
};

/// Human-readable policy name ("none", "mirror", "parity").
const char* RedundancyPolicyName(RelationRedundancy::Policy policy);

/// One relation as recorded in a manifest.
struct ManifestRelation {
  std::string name;
  /// Registry name (methods/registry.h) used to rebuild the method.
  std::string method;
  RelationRedundancy redundancy;
  /// Size and CRC32C of the data file (and of every mirror copy — mirrors
  /// are bit-identical).
  uint64_t data_size = 0;
  uint32_t data_crc = 0;
  /// Size and CRC32C of the parity sidecar (0/0 when absent).
  uint64_t parity_size = 0;
  uint32_t parity_crc = 0;
};

/// Replica-placement record: the policy, cluster topology and seed under
/// which the generation's mirror copies were (or are meant to be) placed
/// across nodes. Plain serialized data here; the semantics — and the
/// PlacementSpec conversions — live in cluster/placement.h. A manifest
/// without the record implies chained placement over a flat topology.
struct ManifestPlacement {
  /// cluster::PlacementPolicy value (0 chained, 1 spread, 2 zone_aware).
  uint32_t policy = 0;
  /// Tie-break seed for zone_aware placement.
  uint64_t seed = 0;
  /// node_rack[n] = rack of node n; size = number of nodes.
  std::vector<uint32_t> node_rack;
  /// rack_zone[r] = zone of rack r; size = number of racks.
  std::vector<uint32_t> rack_zone;
  /// Optional explicit (copy, disk) -> node table, flattened copy-major:
  /// entry c * table_disks + d is the node holding copy c of primary disk
  /// d. Written by repair / re-placement, whose incremental re-targeting
  /// deviates from the pure policy formula; when present it is the ground
  /// truth of where replicas physically live and overrides the policy.
  /// Empty (dimensions 0 x 0) = derive placement from the policy.
  /// `table.size() == table_copies * table_disks`.
  std::vector<uint32_t> table;
  uint32_t table_copies = 0;
  uint32_t table_disks = 0;
};

/// A parsed manifest: everything needed to serve (and scrub) a catalog.
struct CatalogManifest {
  uint64_t generation = 0;
  uint32_t num_disks = 0;
  /// Relations sorted by name (the order Catalog::RelationNames uses);
  /// index in this vector is the index in file names.
  std::vector<ManifestRelation> relations;
  /// Replica placement record. Absent = chained placement over a flat
  /// topology.
  std::optional<ManifestPlacement> placement;

  /// `rel-<gen>-<index>.gd`
  std::string DataFileName(size_t index) const;
  /// `rel-<gen>-<index>.m<copy>` — mirror copies, copy in [1, copies).
  std::string MirrorFileName(size_t index, uint32_t copy) const;
  /// `rel-<gen>-<index>.par`
  std::string ParityFileName(size_t index) const;
};

/// `MANIFEST-<generation, zero-padded>`.
std::string ManifestFileName(uint64_t generation);

/// First unused generation number in `env`: one past the highest
/// generation any existing file (committed or wreckage) mentions.
/// Exposed for migrators that stage file-for-file copies of an existing
/// generation rather than re-serializing a Catalog.
Result<uint64_t> NextManifestGeneration(const StorageEnv& env);

/// Serializes / parses the manifest byte format (binary "GDMF" + CRC
/// trailer). Exposed for tests; normal callers use the Save/Load API.
std::string SerializeManifest(const CatalogManifest& manifest);
Result<CatalogManifest> ParseManifest(std::string_view bytes);

struct ManifestSaveOptions {
  /// Redundancy for relations not listed in `per_relation`.
  RelationRedundancy default_redundancy;
  /// Per-relation overrides, keyed by relation name.
  std::map<std::string, RelationRedundancy> per_relation;
  /// Page size to write every relation's data file with. Each data file
  /// records it in its own header, so the manifest does not.
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  /// Replica placement record to persist with the generation (absent =
  /// chained).
  std::optional<ManifestPlacement> placement;
  /// Optional observability sink (non-owning). A committed save records
  /// `manifest.generations_committed`, `manifest.files_written` and
  /// `manifest.bytes_written` (data files, sidecars, manifest and CURRENT
  /// pointer included). A save that fails before the commit point records
  /// nothing. The bytes laid down are identical either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Saves `catalog` into `env` as a new generation and commits it
/// atomically. Returns the committed generation number. On failure
/// (including an injected crash) the previously committed generation is
/// untouched. Equivalent to Stage + Commit + GC below.
Result<uint64_t> SaveCatalogManifest(const Catalog& catalog, StorageEnv* env,
                                     const ManifestSaveOptions& options = {});

/// Stages `catalog` into `env` as a new generation WITHOUT flipping
/// `CURRENT` — steps (1) and (2) of the commit protocol only. The staged
/// generation is durable but uncommitted: `ReadCurrentManifest` keeps
/// resolving the old one (staged files look exactly like the wreckage of a
/// crashed save, which the recovery scan already skips). This is the
/// migrator's copy phase: new-layout files land while the old generation
/// keeps serving. Commit with `CommitStagedManifest`, discard with
/// `DropStagedManifest`. Returns the staged generation number.
Result<uint64_t> StageCatalogManifest(const Catalog& catalog, StorageEnv* env,
                                      const ManifestSaveOptions& options = {});

/// Step (3) for a previously staged generation: atomically flips `CURRENT`
/// onto `MANIFEST-<generation>`. Generation fence: refuses with
/// kFailedPrecondition when `CURRENT` already names a *newer* generation —
/// a racing commit won, and flipping back would silently roll the catalog
/// back. Committing the already-current generation is an idempotent no-op.
/// Never garbage-collects; callers decide when old generations die
/// (`GarbageCollectManifests`).
Status CommitStagedManifest(StorageEnv* env, uint64_t generation);

/// Removes every file of an *uncommitted* staged generation
/// (`rel-<generation>-*` and `MANIFEST-<generation>`). Refuses with
/// kFailedPrecondition when `CURRENT` resolves to `generation` — committed
/// generations are retired by GC, never by abort. This is the migrator's
/// rollback: after a drop the env serves exactly the files it served
/// before the stage.
Status DropStagedManifest(StorageEnv* env, uint64_t generation);

/// Re-points `CURRENT` at an older, still-present generation whose
/// manifest and referenced files all verify. The explicit rollback
/// primitive for a cutover that must be undone after a partial commit —
/// unlike `CommitStagedManifest` it deliberately bypasses the
/// newer-generation fence.
Status RollbackToGeneration(StorageEnv* env, uint64_t generation);

/// Best-effort sweep of generation-numbered files older than
/// `committed_generation - 1` (the immediate predecessor survives as a
/// rollback target) — exactly the GC `SaveCatalogManifest` runs after its
/// commit point, exposed for migrators that commit staged generations.
void GarbageCollectManifests(StorageEnv* env, uint64_t committed_generation);

/// Reads and parses `MANIFEST-<generation>`.
Result<CatalogManifest> ReadManifest(const StorageEnv& env,
                                     uint64_t generation);

/// Resolves the committed manifest: follows a valid `CURRENT`, otherwise
/// scans manifests from the highest generation down for one whose
/// referenced files all exist with matching size and CRC. kNotFound when
/// the env holds no usable catalog.
Result<CatalogManifest> ReadCurrentManifest(const StorageEnv& env);

/// How many times `LoadAtCommittedGeneration` re-resolves a moved CURRENT
/// before it gives up.
inline constexpr uint32_t kConsistentLoadMaxRetries = 3;

/// Runs `load` on the committed manifest, hardened against concurrent
/// commits. A reader that resolves generation G can fail mid-load when a
/// committer flips CURRENT to G+1 and GC sweeps G's files out from under
/// it; per-file checksums guarantee such a race surfaces as an error,
/// never as silently mixed generations. After a failed `load` this
/// re-resolves CURRENT and, if the committed generation moved, runs `load`
/// again on the new one (up to `kConsistentLoadMaxRetries` times) — so a
/// load under concurrent commits either succeeds on one consistent
/// generation or returns the underlying error.
Status LoadAtCommittedGeneration(
    const StorageEnv& env,
    const std::function<Status(const CatalogManifest&)>& load);

/// Checks `bytes`, the contents of file `name`, against the size and
/// whole-file CRC32C a manifest records for it: kInvalidArgument when
/// either differs.
Status CheckBytesAgainstManifest(const std::string& name,
                                 std::string_view bytes, uint64_t size,
                                 uint32_t crc);

/// Reads file `name` from `env` and checks it like
/// `CheckBytesAgainstManifest`.
Status CheckFileAgainstManifest(const StorageEnv& env,
                                const std::string& name, uint64_t size,
                                uint32_t crc);

/// Verifies that every file `manifest` references exists in `env` with the
/// recorded size and whole-file CRC32C (mirrors included).
Status VerifyManifestFiles(const StorageEnv& env,
                           const CatalogManifest& manifest);

/// Builds the parity sidecar bytes for a serialized grid file: one
/// page-size XOR page per stripe of `group_pages` data pages. Empty when
/// the file has no pages. Exposed for scrub (reconstruction) and tests.
Result<std::string> BuildParityBytes(std::string_view data,
                                     uint32_t group_pages);

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_MANIFEST_H_

#include "griddecl/gridfile/manifest.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "griddecl/common/bytes.h"
#include "griddecl/common/crc32c.h"

namespace griddecl {

namespace {

constexpr char kManifestMagic[4] = {'G', 'D', 'M', 'F'};
/// The one manifest layout: [magic][u32 version][u64 generation]
/// [u32 num_disks][u32 num_relations][relations...][u32 has_placement]
/// [placement record: policy, seed, topology, then the table's
/// (copies, disks) — (0, 0) when there is no table — and its entries]
/// [u32 crc]. Any other version word is rejected.
constexpr uint32_t kManifestVersion = 5;
constexpr char kCurrentTmpName[] = "CURRENT.tmp";
constexpr char kManifestPrefix[] = "MANIFEST-";
constexpr size_t kManifestPrefixLen = 9;

constexpr uint32_t kMaxRelations = 1u << 20;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxMethodLen = 256;
constexpr uint32_t kMaxMirrorCopies = 64;
constexpr uint32_t kMaxGroupPages = 1u << 20;
constexpr uint32_t kMaxNumDisks = 1u << 20;
constexpr uint32_t kMaxTopologyNodes = 1u << 20;
constexpr uint32_t kMaxPlacementPolicy = 2;  // cluster::PlacementPolicy max.

std::string FormatGen(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string U32ToHex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Generation referenced by a file name (`MANIFEST-<gen>` or
/// `rel-<gen>-...`); nullopt for anything else (e.g. CURRENT).
std::optional<uint64_t> GenerationOfFileName(std::string_view name) {
  std::string_view digits;
  if (name.substr(0, kManifestPrefixLen) == kManifestPrefix) {
    digits = name.substr(kManifestPrefixLen);
  } else if (name.substr(0, 4) == "rel-") {
    const size_t dash = name.find('-', 4);
    if (dash == std::string_view::npos) return std::nullopt;
    digits = name.substr(4, dash - 4);
  } else {
    return std::nullopt;
  }
  if (digits.empty() || digits.size() > 19) return std::nullopt;
  uint64_t gen = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  return gen;
}

/// First unused generation number: one past the highest generation any
/// existing file (committed or wreckage) mentions — names are never
/// reused, so a crashed attempt can never be half-overwritten.
Result<uint64_t> NextGeneration(const StorageEnv& env) {
  Result<std::vector<std::string>> files = env.ListFiles();
  if (!files.ok()) return files.status();
  uint64_t highest = 0;
  for (const std::string& name : files.value()) {
    const std::optional<uint64_t> gen = GenerationOfFileName(name);
    if (gen.has_value()) highest = std::max(highest, *gen);
  }
  return highest + 1;
}

/// Parses the CURRENT pointer ("MANIFEST-<gen> <crc-hex>\n"); the CRC is
/// over the manifest file name, making a torn pointer self-evident.
Result<uint64_t> ParseCurrentPointer(std::string_view content) {
  if (!content.empty() && content.back() == '\n') {
    content.remove_suffix(1);
  }
  const size_t space = content.rfind(' ');
  if (space == std::string_view::npos) {
    return Status::InvalidArgument("malformed CURRENT pointer");
  }
  const std::string_view name = content.substr(0, space);
  const std::string_view crc_hex = content.substr(space + 1);
  if (crc_hex != U32ToHex(Crc32c(name))) {
    return Status::InvalidArgument("CURRENT pointer checksum mismatch");
  }
  const std::optional<uint64_t> gen = GenerationOfFileName(name);
  if (!gen.has_value() ||
      name != std::string(kManifestPrefix) + FormatGen(*gen)) {
    return Status::InvalidArgument("CURRENT names no manifest");
  }
  return *gen;
}

Status ValidateRedundancy(const RelationRedundancy& r) {
  switch (r.policy) {
    case RelationRedundancy::Policy::kNone:
      return Status::Ok();
    case RelationRedundancy::Policy::kMirror:
      if (r.copies < 2 || r.copies > kMaxMirrorCopies) {
        return Status::InvalidArgument("mirror copies out of range [2, 64]");
      }
      return Status::Ok();
    case RelationRedundancy::Policy::kParity:
      if (r.group_pages < 1 || r.group_pages > kMaxGroupPages) {
        return Status::InvalidArgument("parity group pages out of range");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown redundancy policy");
}

Status CheckFileAgainstManifest(const StorageEnv& env,
                                const std::string& name, uint64_t size,
                                uint32_t crc) {
  Result<std::string> data = env.ReadFile(name);
  if (!data.ok()) return data.status();
  if (data.value().size() != size) {
    return Status::InvalidArgument("file '" + name + "' has wrong size");
  }
  if (Crc32c(data.value()) != crc) {
    return Status::InvalidArgument("file '" + name + "' fails its checksum");
  }
  return Status::Ok();
}

}  // namespace

const char* RedundancyPolicyName(RelationRedundancy::Policy policy) {
  switch (policy) {
    case RelationRedundancy::Policy::kNone:
      return "none";
    case RelationRedundancy::Policy::kMirror:
      return "mirror";
    case RelationRedundancy::Policy::kParity:
      return "parity";
  }
  return "unknown";
}

std::string CatalogManifest::DataFileName(size_t index) const {
  return "rel-" + FormatGen(generation) + "-" + std::to_string(index) + ".gd";
}

std::string CatalogManifest::MirrorFileName(size_t index,
                                            uint32_t copy) const {
  return "rel-" + FormatGen(generation) + "-" + std::to_string(index) + ".m" +
         std::to_string(copy);
}

std::string CatalogManifest::ParityFileName(size_t index) const {
  return "rel-" + FormatGen(generation) + "-" + std::to_string(index) +
         ".par";
}

std::string ManifestFileName(uint64_t generation) {
  return kManifestPrefix + FormatGen(generation);
}

Result<uint64_t> NextManifestGeneration(const StorageEnv& env) {
  return NextGeneration(env);
}

std::string SerializeManifest(const CatalogManifest& manifest) {
  std::string out;
  out.append(kManifestMagic, 4);
  AppendU32(&out, kManifestVersion);
  AppendU64(&out, manifest.generation);
  AppendU32(&out, manifest.num_disks);
  AppendU32(&out, static_cast<uint32_t>(manifest.relations.size()));
  for (const ManifestRelation& rel : manifest.relations) {
    AppendU32(&out, static_cast<uint32_t>(rel.name.size()));
    out.append(rel.name);
    AppendU32(&out, static_cast<uint32_t>(rel.method.size()));
    out.append(rel.method);
    AppendU32(&out, static_cast<uint32_t>(rel.redundancy.policy));
    AppendU32(&out, rel.redundancy.copies);
    AppendU32(&out, rel.redundancy.group_pages);
    AppendF64(&out, rel.disk_params.avg_seek_ms);
    AppendF64(&out, rel.disk_params.rotational_latency_ms);
    AppendF64(&out, rel.disk_params.transfer_ms_per_kb);
    AppendF64(&out, rel.disk_params.bucket_kb);
    AppendF64(&out, rel.disk_params.near_seek_factor);
    AppendU64(&out, rel.disk_params.near_gap_buckets);
    AppendU64(&out, rel.data_size);
    AppendU32(&out, rel.data_crc);
    AppendU64(&out, rel.parity_size);
    AppendU32(&out, rel.parity_crc);
  }
  AppendU32(&out, manifest.placement.has_value() ? 1u : 0u);
  if (manifest.placement.has_value()) {
    const ManifestPlacement& p = *manifest.placement;
    AppendU32(&out, p.policy);
    AppendU64(&out, p.seed);
    AppendU32(&out, static_cast<uint32_t>(p.node_rack.size()));
    for (uint32_t rack : p.node_rack) AppendU32(&out, rack);
    AppendU32(&out, static_cast<uint32_t>(p.rack_zone.size()));
    for (uint32_t zone : p.rack_zone) AppendU32(&out, zone);
    AppendU32(&out, p.table_copies);
    AppendU32(&out, p.table_disks);
    for (uint32_t node : p.table) AppendU32(&out, node);
  }
  AppendU32(&out, Crc32c(out));
  return out;
}

Result<CatalogManifest> ParseManifest(std::string_view bytes) {
  if (bytes.size() < 4) {
    return Status::InvalidArgument("manifest truncated");
  }
  // Whole-file CRC first: any torn or bit-flipped manifest is rejected
  // before field-level parsing even starts.
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (stored_crc != Crc32c(bytes.substr(0, bytes.size() - 4))) {
    return Status::InvalidArgument("manifest checksum mismatch");
  }

  ByteReader r(bytes.substr(0, bytes.size() - 4));
  char magic[4];
  if (!r.ReadBytes(magic, 4) ||
      std::memcmp(magic, kManifestMagic, 4) != 0) {
    return Status::InvalidArgument("bad manifest magic");
  }
  uint32_t version = 0;
  CatalogManifest m;
  uint32_t num_relations = 0;
  if (!r.ReadU32(&version)) {
    return Status::InvalidArgument("manifest truncated");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version));
  }
  if (!r.ReadU64(&m.generation) || !r.ReadU32(&m.num_disks) ||
      !r.ReadU32(&num_relations)) {
    return Status::InvalidArgument("manifest truncated");
  }
  if (m.generation == 0) {
    return Status::InvalidArgument("manifest generation must be positive");
  }
  if (m.num_disks < 1 || m.num_disks > kMaxNumDisks) {
    return Status::InvalidArgument("manifest disk count out of range");
  }
  if (num_relations > kMaxRelations) {
    return Status::InvalidArgument("manifest relation count out of range");
  }
  m.relations.reserve(num_relations);
  for (uint32_t i = 0; i < num_relations; ++i) {
    ManifestRelation rel;
    uint32_t name_len = 0;
    if (!r.ReadU32(&name_len) || name_len == 0 || name_len > kMaxNameLen ||
        !r.ReadString(&rel.name, name_len)) {
      return Status::InvalidArgument("bad relation name in manifest");
    }
    uint32_t method_len = 0;
    if (!r.ReadU32(&method_len) || method_len == 0 ||
        method_len > kMaxMethodLen ||
        !r.ReadString(&rel.method, method_len)) {
      return Status::InvalidArgument("bad method name in manifest");
    }
    uint32_t policy = 0;
    if (!r.ReadU32(&policy) || !r.ReadU32(&rel.redundancy.copies) ||
        !r.ReadU32(&rel.redundancy.group_pages)) {
      return Status::InvalidArgument("manifest truncated");
    }
    if (policy > static_cast<uint32_t>(RelationRedundancy::Policy::kParity)) {
      return Status::InvalidArgument("unknown redundancy policy in manifest");
    }
    rel.redundancy.policy = static_cast<RelationRedundancy::Policy>(policy);
    const Status red = ValidateRedundancy(rel.redundancy);
    if (!red.ok()) return red;
    if (!r.ReadF64(&rel.disk_params.avg_seek_ms) ||
        !r.ReadF64(&rel.disk_params.rotational_latency_ms) ||
        !r.ReadF64(&rel.disk_params.transfer_ms_per_kb) ||
        !r.ReadF64(&rel.disk_params.bucket_kb) ||
        !r.ReadF64(&rel.disk_params.near_seek_factor) ||
        !r.ReadU64(&rel.disk_params.near_gap_buckets) ||
        !r.ReadU64(&rel.data_size) || !r.ReadU32(&rel.data_crc) ||
        !r.ReadU64(&rel.parity_size) || !r.ReadU32(&rel.parity_crc)) {
      return Status::InvalidArgument("manifest truncated");
    }
    m.relations.push_back(std::move(rel));
  }
  uint32_t has_placement = 0;
  if (!r.ReadU32(&has_placement) || has_placement > 1) {
    return Status::InvalidArgument("bad placement flag in manifest");
  }
  if (has_placement == 1) {
    ManifestPlacement p;
    uint32_t num_nodes = 0;
    if (!r.ReadU32(&p.policy) || !r.ReadU64(&p.seed) ||
        !r.ReadU32(&num_nodes)) {
      return Status::InvalidArgument("manifest truncated");
    }
    if (p.policy > kMaxPlacementPolicy) {
      return Status::InvalidArgument("unknown placement policy in manifest");
    }
    if (num_nodes < 1 || num_nodes > kMaxTopologyNodes) {
      return Status::InvalidArgument(
          "placement node count out of range in manifest");
    }
    p.node_rack.resize(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      if (!r.ReadU32(&p.node_rack[n])) {
        return Status::InvalidArgument("manifest truncated");
      }
    }
    uint32_t num_racks = 0;
    if (!r.ReadU32(&num_racks) || num_racks < 1 || num_racks > num_nodes) {
      return Status::InvalidArgument(
          "placement rack count out of range in manifest");
    }
    p.rack_zone.resize(num_racks);
    for (uint32_t k = 0; k < num_racks; ++k) {
      if (!r.ReadU32(&p.rack_zone[k]) || p.rack_zone[k] >= num_racks) {
        return Status::InvalidArgument("placement zone id out of range");
      }
    }
    for (uint32_t rack : p.node_rack) {
      if (rack >= num_racks) {
        return Status::InvalidArgument("placement rack id out of range");
      }
    }
    if (!r.ReadU32(&p.table_copies) || !r.ReadU32(&p.table_disks)) {
      return Status::InvalidArgument("manifest truncated");
    }
    // (0, 0) is "no table"; a table has both dimensions.
    if ((p.table_copies == 0) != (p.table_disks == 0) ||
        p.table_copies > kMaxMirrorCopies || p.table_disks > kMaxNumDisks) {
      return Status::InvalidArgument(
          "placement table dims out of range in manifest");
    }
    const uint64_t entries =
        static_cast<uint64_t>(p.table_copies) * p.table_disks;
    p.table.resize(entries);
    for (uint64_t i = 0; i < entries; ++i) {
      if (!r.ReadU32(&p.table[i])) {
        return Status::InvalidArgument("manifest truncated");
      }
      if (p.table[i] >= num_nodes) {
        return Status::InvalidArgument(
            "placement table entry names an unknown node");
      }
    }
    m.placement = std::move(p);
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing garbage in manifest");
  }
  return m;
}

Result<std::string> BuildParityBytes(std::string_view data,
                                     uint32_t group_pages) {
  if (group_pages < 1 || group_pages > kMaxGroupPages) {
    return Status::InvalidArgument("parity group pages out of range");
  }
  Result<FileLayout> layout = ParseFileLayout(data);
  if (!layout.ok()) return layout.status();
  const FileLayout& l = layout.value();
  if (data.size() < l.footer_offset) {
    return Status::InvalidArgument("data shorter than its page region");
  }
  std::string parity;
  if (l.num_pages == 0) return parity;
  const uint64_t num_stripes = (l.num_pages - 1) / group_pages + 1;
  parity.reserve(static_cast<size_t>(num_stripes) * l.page_size_bytes);
  for (uint64_t stripe = 0; stripe < num_stripes; ++stripe) {
    const size_t out_off = parity.size();
    parity.resize(out_off + l.page_size_bytes, '\0');
    const uint64_t first = stripe * group_pages;
    const uint64_t last = std::min<uint64_t>(first + group_pages, l.num_pages);
    for (uint64_t page = first; page < last; ++page) {
      XorBytes(parity.data() + out_off, data.data() + l.PageOffset(page),
               l.page_size_bytes);
    }
  }
  return parity;
}

namespace {

/// Steps (1) and (2): writes every file of a new generation except the
/// CURRENT pointer. Accumulates write accounting into the out-params so
/// the committing caller can report it once the generation actually lands.
Result<uint64_t> StageInternal(const Catalog& catalog, StorageEnv* env,
                               const ManifestSaveOptions& options,
                               uint64_t* files_written,
                               uint64_t* bytes_written) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  Result<uint64_t> next = NextGeneration(*env);
  if (!next.ok()) return next.status();

  CatalogManifest m;
  m.generation = next.value();
  m.num_disks = catalog.num_disks();
  m.placement = options.placement;

  auto put = [&](const std::string& name, const std::string& payload) {
    const Status s = env->WriteFile(name, payload);
    if (s.ok()) {
      ++*files_written;
      *bytes_written += payload.size();
    }
    return s;
  };

  const std::vector<std::string> names = catalog.RelationNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const DeclusteredFile* rel = catalog.Find(names[i]);
    GRIDDECL_CHECK(rel != nullptr);

    RelationRedundancy redundancy = options.default_redundancy;
    const auto it = options.per_relation.find(names[i]);
    if (it != options.per_relation.end()) redundancy = it->second;
    const Status red_ok = ValidateRedundancy(redundancy);
    if (!red_ok.ok()) return red_ok;

    SaveOptions save;
    save.page_size_bytes = options.page_size_bytes;
    Result<std::string> data = SerializeGridFile(rel->file(), save);
    if (!data.ok()) return data.status();

    ManifestRelation mr;
    mr.name = names[i];
    mr.method = rel->method_name();
    mr.redundancy = redundancy;
    mr.disk_params = rel->disk_params();
    mr.data_size = data.value().size();
    mr.data_crc = Crc32c(data.value());

    std::string parity;
    if (redundancy.policy == RelationRedundancy::Policy::kParity) {
      Result<std::string> p =
          BuildParityBytes(data.value(), redundancy.group_pages);
      if (!p.ok()) return p.status();
      parity = std::move(p).value();
      mr.parity_size = parity.size();
      mr.parity_crc = Crc32c(parity);
    }
    m.relations.push_back(std::move(mr));

    Status write = put(m.DataFileName(i), data.value());
    if (!write.ok()) return write;
    if (redundancy.policy == RelationRedundancy::Policy::kMirror) {
      for (uint32_t c = 1; c < redundancy.copies; ++c) {
        write = put(m.MirrorFileName(i, c), data.value());
        if (!write.ok()) return write;
      }
    }
    if (!parity.empty()) {
      write = put(m.ParityFileName(i), parity);
      if (!write.ok()) return write;
    }
  }

  Status write = put(ManifestFileName(m.generation), SerializeManifest(m));
  if (!write.ok()) return write;
  return m.generation;
}

/// Step (3): writes CURRENT.tmp naming `generation` and renames it onto
/// CURRENT — THE commit point.
Status WriteCurrentPointer(StorageEnv* env, uint64_t generation,
                           uint64_t* files_written, uint64_t* bytes_written) {
  const std::string manifest_name = ManifestFileName(generation);
  const std::string pointer =
      manifest_name + " " + U32ToHex(Crc32c(manifest_name)) + "\n";
  Status write = env->WriteFile(kCurrentTmpName, pointer);
  if (!write.ok()) return write;
  if (files_written != nullptr) {
    ++*files_written;
    *bytes_written += pointer.size();
  }
  return env->Rename(kCurrentTmpName, kCurrentFileName);
}

/// Generation CURRENT currently resolves to, or nullopt when CURRENT is
/// missing or torn (the fence treats that as "nothing committed").
std::optional<uint64_t> CommittedGeneration(const StorageEnv& env) {
  Result<std::string> current = env.ReadFile(kCurrentFileName);
  if (!current.ok()) return std::nullopt;
  Result<uint64_t> gen = ParseCurrentPointer(current.value());
  if (!gen.ok()) return std::nullopt;
  return gen.value();
}

}  // namespace

Result<uint64_t> SaveCatalogManifest(const Catalog& catalog, StorageEnv* env,
                                     const ManifestSaveOptions& options) {
  // Write accounting for the observability sink; recorded only once the
  // generation actually commits.
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;
  Result<uint64_t> staged =
      StageInternal(catalog, env, options, &files_written, &bytes_written);
  if (!staged.ok()) return staged.status();

  const Status committed =
      WriteCurrentPointer(env, staged.value(), &files_written, &bytes_written);
  if (!committed.ok()) return committed;

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.metrics;
    reg.GetCounter("manifest.generations_committed")->Inc();
    reg.GetCounter("manifest.files_written")->Inc(files_written);
    reg.GetCounter("manifest.bytes_written")->Inc(bytes_written);
  }

  // Committed. GC is best-effort (a crash here loses nothing): keep the
  // new generation and its predecessor as a rollback target, drop older.
  GarbageCollectManifests(env, staged.value());
  return staged.value();
}

Result<uint64_t> StageCatalogManifest(const Catalog& catalog, StorageEnv* env,
                                      const ManifestSaveOptions& options) {
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;
  return StageInternal(catalog, env, options, &files_written, &bytes_written);
}

Status CommitStagedManifest(StorageEnv* env, uint64_t generation) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  // The staged manifest must exist and parse before CURRENT may name it.
  Result<CatalogManifest> m = ReadManifest(*env, generation);
  if (!m.ok()) return m.status();
  const std::optional<uint64_t> committed = CommittedGeneration(*env);
  if (committed.has_value()) {
    if (*committed == generation) return Status::Ok();
    if (*committed > generation) {
      return Status::FailedPrecondition(
          "generation fence: CURRENT is at generation " +
          std::to_string(*committed) + ", refusing stale commit of " +
          std::to_string(generation));
    }
  }
  return WriteCurrentPointer(env, generation, nullptr, nullptr);
}

Status DropStagedManifest(StorageEnv* env, uint64_t generation) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  const std::optional<uint64_t> committed = CommittedGeneration(*env);
  if (committed.has_value() && *committed == generation) {
    return Status::FailedPrecondition(
        "refusing to drop generation " + std::to_string(generation) +
        ": CURRENT points at it (committed generations are retired by GC, "
        "not abort)");
  }
  Result<std::vector<std::string>> files = env->ListFiles();
  if (!files.ok()) return files.status();
  for (const std::string& name : files.value()) {
    const std::optional<uint64_t> gen = GenerationOfFileName(name);
    if (gen.has_value() && *gen == generation) {
      const Status removed = env->Remove(name);
      if (!removed.ok()) return removed;
    }
  }
  return Status::Ok();
}

Status RollbackToGeneration(StorageEnv* env, uint64_t generation) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  Result<CatalogManifest> m = ReadManifest(*env, generation);
  if (!m.ok()) return m.status();
  const Status verified = VerifyManifestFiles(*env, m.value());
  if (!verified.ok()) return verified;
  return WriteCurrentPointer(env, generation, nullptr, nullptr);
}

void GarbageCollectManifests(StorageEnv* env, uint64_t committed_generation) {
  if (env == nullptr) return;
  Result<std::vector<std::string>> files = env->ListFiles();
  if (!files.ok()) return;
  for (const std::string& name : files.value()) {
    const std::optional<uint64_t> gen = GenerationOfFileName(name);
    if (gen.has_value() && *gen + 1 < committed_generation) {
      (void)env->Remove(name);
    }
  }
}

Result<CatalogManifest> ReadManifest(const StorageEnv& env,
                                     uint64_t generation) {
  Result<std::string> bytes = env.ReadFile(ManifestFileName(generation));
  if (!bytes.ok()) return bytes.status();
  Result<CatalogManifest> m = ParseManifest(bytes.value());
  if (!m.ok()) return m.status();
  if (m.value().generation != generation) {
    return Status::InvalidArgument("manifest generation disagrees with name");
  }
  return m;
}

Result<CatalogManifest> ReadCurrentManifest(const StorageEnv& env) {
  // Fast path: a valid CURRENT pointer. The commit protocol wrote every
  // referenced file before flipping CURRENT, so no file-level verification
  // here — media corruption surfaces as checksum errors at load/scrub
  // time, never as a silent rollback to stale data.
  Result<std::string> current = env.ReadFile(kCurrentFileName);
  if (current.ok()) {
    Result<uint64_t> gen = ParseCurrentPointer(current.value());
    if (gen.ok()) {
      Result<CatalogManifest> m = ReadManifest(env, gen.value());
      if (m.ok()) return m;
    }
  }

  // Fallback: CURRENT missing or torn. Scan manifests newest-first and
  // accept the first whose referenced files all verify — a manifest left
  // by a crashed, uncommitted save has torn or missing files and is
  // skipped.
  Result<std::vector<std::string>> files = env.ListFiles();
  if (!files.ok()) return files.status();
  std::vector<uint64_t> generations;
  for (const std::string& name : files.value()) {
    if (name.substr(0, kManifestPrefixLen) != kManifestPrefix) continue;
    const std::optional<uint64_t> gen = GenerationOfFileName(name);
    if (gen.has_value()) generations.push_back(*gen);
  }
  std::sort(generations.rbegin(), generations.rend());
  for (uint64_t gen : generations) {
    Result<CatalogManifest> m = ReadManifest(env, gen);
    if (!m.ok()) continue;
    if (VerifyManifestFiles(env, m.value()).ok()) return m;
  }
  return Status::NotFound("no usable catalog manifest");
}

Status VerifyManifestFiles(const StorageEnv& env,
                           const CatalogManifest& manifest) {
  for (size_t i = 0; i < manifest.relations.size(); ++i) {
    const ManifestRelation& rel = manifest.relations[i];
    Status s = CheckFileAgainstManifest(env, manifest.DataFileName(i),
                                        rel.data_size, rel.data_crc);
    if (!s.ok()) return s;
    if (rel.redundancy.policy == RelationRedundancy::Policy::kMirror) {
      for (uint32_t c = 1; c < rel.redundancy.copies; ++c) {
        s = CheckFileAgainstManifest(env, manifest.MirrorFileName(i, c),
                                     rel.data_size, rel.data_crc);
        if (!s.ok()) return s;
      }
    }
    if (rel.parity_size > 0) {
      s = CheckFileAgainstManifest(env, manifest.ParityFileName(i),
                                   rel.parity_size, rel.parity_crc);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

Result<Catalog> LoadCatalogFromManifest(const StorageEnv& env,
                                        const CatalogManifest& manifest) {
  Catalog catalog(manifest.num_disks);
  for (size_t i = 0; i < manifest.relations.size(); ++i) {
    const ManifestRelation& rel = manifest.relations[i];
    const std::string file_name = manifest.DataFileName(i);
    Result<std::string> data = env.ReadFile(file_name);
    if (!data.ok()) return data.status();
    if (data.value().size() != rel.data_size ||
        Crc32c(data.value()) != rel.data_crc) {
      return Status::InvalidArgument(
          "relation '" + rel.name +
          "' data file fails its manifest checksum (run fsck)");
    }
    Result<GridFile> file = ParseGridFile(data.value());
    if (!file.ok()) {
      return Status::InvalidArgument("relation '" + rel.name +
                                     "': " + file.status().message());
    }
    Result<DeclusteredFile> df =
        DeclusteredFile::Create(std::move(file).value(), rel.method,
                                manifest.num_disks, rel.disk_params);
    if (!df.ok()) {
      return Status::InvalidArgument("relation '" + rel.name +
                                     "': " + df.status().message());
    }
    const Status added = catalog.AddRelation(rel.name, std::move(df).value());
    if (!added.ok()) return added;
  }
  return catalog;
}

Result<Catalog> LoadCatalogManifest(const StorageEnv& env) {
  Result<CatalogManifest> manifest = ReadCurrentManifest(env);
  if (!manifest.ok()) return manifest.status();
  return LoadCatalogFromManifest(env, manifest.value());
}

Status LoadAtCommittedGeneration(
    const StorageEnv& env,
    const std::function<Status(const CatalogManifest&)>& load) {
  Result<CatalogManifest> manifest = ReadCurrentManifest(env);
  if (!manifest.ok()) return manifest.status();
  for (uint32_t attempt = 0;; ++attempt) {
    const Status loaded = load(manifest.value());
    if (loaded.ok()) return loaded;
    // A load that resolved generation G can fail because a concurrent
    // commit advanced CURRENT and GC swept G's files mid-read (per-file
    // CRCs turn any such race into an error, never a silent mix).
    // Re-resolve: if the committed generation moved, the failure is
    // explained — retry at the new generation.
    Result<CatalogManifest> again = ReadCurrentManifest(env);
    if (!again.ok() ||
        again.value().generation == manifest.value().generation ||
        attempt >= kConsistentLoadMaxRetries) {
      return loaded;
    }
    manifest = std::move(again);
  }
}

Result<Catalog> LoadCatalogManifestConsistent(const StorageEnv& env) {
  std::optional<Catalog> catalog;
  const Status loaded =
      LoadAtCommittedGeneration(env, [&](const CatalogManifest& manifest) {
        Result<Catalog> c = LoadCatalogFromManifest(env, manifest);
        if (!c.ok()) return c.status();
        catalog.emplace(std::move(c).value());
        return Status::Ok();
      });
  if (!loaded.ok()) return loaded;
  return std::move(*catalog);
}

}  // namespace griddecl

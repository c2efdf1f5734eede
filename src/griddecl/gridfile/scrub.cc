#include "griddecl/gridfile/scrub.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "griddecl/common/crc32c.h"
#include "griddecl/gridfile/page_store.h"

namespace griddecl {

namespace {

constexpr char kScrubTmpName[] = "scrub.tmp";

bool MatchesManifest(std::string_view bytes, uint64_t size, uint32_t crc) {
  return bytes.size() == size && Crc32c(bytes) == crc;
}

/// Writes `data` to `name` via temp-file-then-rename so a crash mid-scrub
/// never leaves a half-written primary.
Status AtomicWrite(StorageEnv* env, const std::string& name,
                   std::string_view data) {
  Status s = env->WriteFile(kScrubTmpName, data);
  if (!s.ok()) return s;
  return env->Rename(kScrubTmpName, name);
}

/// Scrubs relation `i` of `manifest`. Never fails outright: any problem is
/// recorded in the returned report.
RelationScrubReport ScrubRelation(StorageEnv* env, PageStore* store,
                                  const CatalogManifest& manifest, size_t i,
                                  const ScrubOptions& options) {
  const ManifestRelation& rel = manifest.relations[i];
  RelationScrubReport rep;
  rep.name = rel.name;
  rep.policy = rel.redundancy.policy;

  const std::string data_name = manifest.DataFileName(i);
  Result<std::string> primary_read = env->ReadFile(data_name);
  std::string primary =
      primary_read.ok() ? std::move(primary_read).value() : std::string();

  std::vector<std::string> mirrors;
  if (rel.redundancy.policy == RelationRedundancy::Policy::kMirror) {
    for (uint32_t c = 1; c < rel.redundancy.copies; ++c) {
      Result<std::string> m = env->ReadFile(manifest.MirrorFileName(i, c));
      mirrors.push_back(m.ok() ? std::move(m).value() : std::string());
    }
  }
  std::string parity;
  if (rel.parity_size > 0) {
    Result<std::string> p = env->ReadFile(manifest.ParityFileName(i));
    if (p.ok()) parity = std::move(p).value();
  }

  // Recover a layout consistent with the manifest: from the primary's
  // header region if it still verifies, else from any mirror's.
  Result<FileLayout> primary_layout = ParseFileLayout(primary);
  const bool primary_header_ok =
      primary_layout.ok() &&
      primary_layout.value().expected_file_size == rel.data_size;
  rep.header_damaged = !primary_header_ok;
  FileLayout layout;
  bool have_layout = false;
  size_t donor = mirrors.size();  // Mirror index the header graft uses.
  if (primary_header_ok) {
    layout = primary_layout.value();
    have_layout = true;
  } else {
    for (size_t c = 0; c < mirrors.size(); ++c) {
      Result<FileLayout> l = ParseFileLayout(mirrors[c]);
      if (l.ok() && l.value().expected_file_size == rel.data_size) {
        layout = l.value();
        have_layout = true;
        donor = c;
        break;
      }
    }
  }
  if (!have_layout) {
    rep.unrepairable = true;
    rep.detail = "header region unrepairable (no intact copy)";
    return rep;
  }
  rep.num_pages = layout.num_pages;

  // Fast path: primary verifies wholesale against the manifest.
  const bool intact = MatchesManifest(primary, rel.data_size, rel.data_crc);
  // Nothing reads `primary` again: the census re-reads the data file
  // through the store, so the bytes move instead of copying a whole file.
  std::string fixed = std::move(primary);
  if (intact) {
    rep.clean = true;
  } else {
    fixed.resize(rel.data_size, '\0');
    if (rep.header_damaged) {
      std::memcpy(fixed.data(), mirrors[donor].data(), layout.header_bytes);
    }

    // Pass 1: damage census through the unified read path. The store has
    // no pool, so every probe reads the bytes actually on disk; a probe
    // that is not ok — a CRC failure, or a hard read failure because the
    // file is truncated below this page — counts as damage. Repairs pull
    // from mirrors, each candidate gated by the page's own CRC.
    store->RegisterFile(data_name, layout);
    std::vector<char> good(static_cast<size_t>(layout.num_pages), 0);
    for (uint64_t p = 0; p < layout.num_pages; ++p) {
      if (store->GetPage(data_name, p, ReadPolicy{}).ok()) {
        good[static_cast<size_t>(p)] = 1;
        continue;
      }
      ++rep.pages_damaged;
      for (const std::string& mirror : mirrors) {
        if (!VerifyFilePage(mirror, layout, p).ok()) continue;
        std::memcpy(fixed.data() + layout.PageOffset(p),
                    mirror.data() + layout.PageOffset(p),
                    layout.page_size_bytes);
        good[static_cast<size_t>(p)] = 1;
        ++rep.pages_repaired;
        ++rep.pages_repaired_mirror;
        break;
      }
    }

    // Pass 2: parity reconstruction — XOR the stripe's parity page with
    // its surviving data pages; the result must pass the data page's CRC
    // (which also guards against a damaged parity sidecar).
    if (!parity.empty()) {
      const uint32_t g = rel.redundancy.group_pages;
      const uint32_t psz = layout.page_size_bytes;
      for (uint64_t p = 0; p < layout.num_pages; ++p) {
        if (good[static_cast<size_t>(p)]) continue;
        const uint64_t stripe = p / g;
        const uint64_t first = stripe * g;
        const uint64_t last =
            std::min<uint64_t>(first + g, layout.num_pages);
        bool mates_good = true;
        for (uint64_t q = first; q < last; ++q) {
          if (q != p && !good[static_cast<size_t>(q)]) mates_good = false;
        }
        if (!mates_good) continue;
        if (parity.size() < (stripe + 1) * uint64_t{psz}) continue;
        std::string candidate(parity, static_cast<size_t>(stripe * psz),
                              psz);
        for (uint64_t q = first; q < last; ++q) {
          if (q == p) continue;
          const char* src = fixed.data() + layout.PageOffset(q);
          for (uint32_t b = 0; b < psz; ++b) candidate[b] ^= src[b];
        }
        std::string previous(fixed, static_cast<size_t>(layout.PageOffset(p)),
                             psz);
        std::memcpy(fixed.data() + layout.PageOffset(p), candidate.data(),
                    psz);
        if (VerifyFilePage(fixed, layout, p).ok()) {
          good[static_cast<size_t>(p)] = 1;
          ++rep.pages_repaired;
          ++rep.pages_repaired_parity;
        } else {
          std::memcpy(fixed.data() + layout.PageOffset(p), previous.data(),
                      psz);
        }
      }
    }

    for (uint64_t p = 0; p < layout.num_pages; ++p) {
      if (!good[static_cast<size_t>(p)]) ++rep.pages_unrepairable;
    }

    if (rep.pages_unrepairable == 0) {
      // Body intact again; the checksummed footer is a pure function of
      // it.
      const std::string footer = BuildFileFooter(
          layout, std::string_view(fixed).substr(0, layout.footer_offset));
      if (std::string_view(fixed).substr(layout.footer_offset) != footer) {
        rep.footer_rebuilt = true;
        fixed.replace(static_cast<size_t>(layout.footer_offset),
                      std::string::npos, footer);
      }
      if (MatchesManifest(fixed, rel.data_size, rel.data_crc)) {
        rep.header_repaired = rep.header_damaged;
        rep.repaired = true;
        if (options.repair) {
          const Status s = AtomicWrite(env, data_name, fixed);
          if (!s.ok()) {
            rep.repaired = false;
            rep.unrepairable = true;
            rep.detail = "repair write-back failed: " + s.message();
            return rep;
          }
        }
      } else {
        // Every page passed its CRC yet the whole disagrees — should be
        // impossible; refuse to write rather than risk wrong bytes.
        rep.unrepairable = true;
        rep.detail = "reassembled bytes fail the manifest checksum";
        return rep;
      }
    } else {
      rep.unrepairable = true;
      rep.detail = std::to_string(rep.pages_unrepairable) +
                   " page(s) unrepairable under policy '" +
                   RedundancyPolicyName(rel.redundancy.policy) + "'";
      return rep;
    }
  }

  // Primary is healthy (clean or repaired): heal sidecars that drifted.
  for (size_t c = 0; c < mirrors.size(); ++c) {
    if (mirrors[c] == fixed) continue;
    ++rep.sidecars_healed;
    if (options.repair) {
      (void)AtomicWrite(env, manifest.MirrorFileName(i, c + 1), fixed);
    }
  }
  if (rel.parity_size > 0) {
    Result<std::string> expected =
        BuildParityBytes(fixed, rel.redundancy.group_pages);
    if (expected.ok() && parity != expected.value()) {
      ++rep.sidecars_healed;
      if (options.repair) {
        (void)AtomicWrite(env, manifest.ParityFileName(i),
                          expected.value());
      }
    }
  }
  return rep;
}

}  // namespace

Result<ScrubReport> ScrubManifest(StorageEnv* env,
                                  const CatalogManifest& manifest,
                                  const ScrubOptions& options) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  ScrubReport report;
  report.generation = manifest.generation;
  // Pool disabled: a scrub that served its census from cache would
  // certify bytes nobody read. Every GetPage is a physical read.
  PageStore::Options store_options;
  store_options.pool_pages = 0;
  PageStore store(env, store_options);
  for (size_t i = 0; i < manifest.relations.size(); ++i) {
    RelationScrubReport rel = ScrubRelation(env, &store, manifest, i, options);
    ++report.relations_scanned;
    report.pages_scanned += rel.num_pages;
    report.pages_repaired += rel.pages_repaired;
    report.pages_unrepairable += rel.pages_unrepairable;
    report.sidecars_healed += rel.sidecars_healed;
    if (rel.clean) ++report.relations_clean;
    if (rel.repaired) ++report.relations_repaired;
    if (rel.unrepairable) ++report.relations_unrepairable;
    report.relations.push_back(std::move(rel));
  }
  // Metrics mirror the finished report (single source of truth), so the
  // scrub outcome is identical with or without a sink.
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.metrics;
    uint64_t damaged = 0;
    uint64_t mirror = 0;
    uint64_t parity = 0;
    uint64_t footer = 0;
    for (const RelationScrubReport& rel : report.relations) {
      damaged += rel.pages_damaged;
      mirror += rel.pages_repaired_mirror;
      parity += rel.pages_repaired_parity;
      footer += rel.footer_rebuilt ? 1 : 0;
    }
    reg.GetCounter("scrub.pages_scanned")->Inc(report.pages_scanned);
    reg.GetCounter("scrub.pages_damaged")->Inc(damaged);
    reg.GetCounter("scrub.repairs.mirror")->Inc(mirror);
    reg.GetCounter("scrub.repairs.parity")->Inc(parity);
    reg.GetCounter("scrub.repairs.footer")->Inc(footer);
    reg.GetCounter("scrub.pages_unrepairable")->Inc(report.pages_unrepairable);
    reg.GetCounter("scrub.sidecars_healed")->Inc(report.sidecars_healed);
    reg.GetCounter("scrub.relations_scanned")->Inc(report.relations_scanned);
    reg.GetCounter("scrub.relations_clean")->Inc(report.relations_clean);
    reg.GetCounter("scrub.relations_repaired")->Inc(report.relations_repaired);
    reg.GetCounter("scrub.relations_unrepairable")
        ->Inc(report.relations_unrepairable);
  }
  return report;
}

Result<ScrubReport> ScrubCatalog(StorageEnv* env,
                                 const ScrubOptions& options) {
  if (env == nullptr) {
    return Status::InvalidArgument("null storage env");
  }
  Result<CatalogManifest> manifest = ReadCurrentManifest(*env);
  if (!manifest.ok()) return manifest.status();
  return ScrubManifest(env, manifest.value(), options);
}

std::string FormatScrubReport(const ScrubReport& report) {
  std::ostringstream os;
  os << "scrub of generation " << report.generation << ": "
     << report.relations_scanned << " relation(s), " << report.pages_scanned
     << " page(s) scanned\n";
  for (const RelationScrubReport& rel : report.relations) {
    os << "  " << rel.name << " [" << RedundancyPolicyName(rel.policy)
       << "] ";
    if (rel.clean) {
      os << "clean";
    } else if (rel.repaired) {
      os << "repaired (" << rel.pages_repaired << " page(s)";
      if (rel.header_repaired) os << ", header";
      if (rel.footer_rebuilt) os << ", footer";
      os << ")";
    } else {
      os << "UNREPAIRABLE: " << rel.detail;
    }
    if (rel.sidecars_healed > 0) {
      os << ", healed " << rel.sidecars_healed << " sidecar(s)";
    }
    os << "\n";
  }
  os << (report.Clean() ? "catalog verified intact"
                        : "catalog has unrepairable damage")
     << ": " << report.relations_clean << " clean, "
     << report.relations_repaired << " repaired, "
     << report.relations_unrepairable << " unrepairable\n";
  return os.str();
}

}  // namespace griddecl

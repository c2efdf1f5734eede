#ifndef GRIDDECL_GRIDFILE_SCRUB_H_
#define GRIDDECL_GRIDFILE_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "griddecl/gridfile/manifest.h"
#include "griddecl/obs/metrics.h"

/// \file
/// Scrub-and-repair: walk a committed catalog, verify every page of every
/// relation against its checksums, and reconstruct what the redundancy
/// allows — the maintenance companion to the manifest layer, surfaced as
/// `declctl fsck`. The damage census reads every page through
/// `PageStore::GetPage` on a store with no pool, so each probe touches the
/// bytes on disk; any page that does not read back ok is damaged.
///
/// Repair sources, tried in order for each damaged page:
///
///   * a mirror copy of the page (mirror policy) — candidate bytes are
///     accepted only if they pass the page's own CRC;
///   * XOR of the parity page with the stripe's surviving data pages
///     (parity policy) — the reconstruction self-validates against the
///     data page's CRC, so even a partially damaged parity sidecar can be
///     tried safely;
///   * nothing (no redundancy) — the damage is reported, never papered
///     over.
///
/// A damaged header region repairs only from a mirror (parity stripes
/// cover pages, not the header); a damaged footer is always
/// recomputable from an intact body, even without redundancy. A repaired
/// primary is written back ONLY when its final bytes match the manifest's
/// whole-file CRC bit-for-bit; sidecars that drifted from a healthy
/// primary are themselves rewritten ("healed"). Scrub never produces
/// silently-wrong data: every accepted byte was validated by some CRC.

namespace griddecl {

struct ScrubOptions {
  /// Write repaired files back to the env. When false, scrub is a dry run:
  /// same detection and reconstruction work, same report, no writes.
  bool repair = true;
  /// Optional observability sink (non-owning). `ScrubManifest` records
  /// `scrub.pages_scanned`, `scrub.pages_damaged`, repair counts by source
  /// (`scrub.repairs.mirror` / `scrub.repairs.parity` /
  /// `scrub.repairs.footer`), `scrub.pages_unrepairable`,
  /// `scrub.sidecars_healed` and per-outcome relation counts — all
  /// mirrored from the `ScrubReport`, so scrub behaviour is identical
  /// either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-relation scrub outcome.
struct RelationScrubReport {
  std::string name;
  RelationRedundancy::Policy policy = RelationRedundancy::Policy::kNone;
  uint64_t num_pages = 0;
  /// Primary file verified bit-identical to the manifest on entry.
  bool clean = false;
  /// Damaged pages found in the primary.
  uint64_t pages_damaged = 0;
  /// Of those, reconstructed (mirror or parity) and CRC-verified.
  uint64_t pages_repaired = 0;
  /// Repair-source breakdown: pages_repaired == mirror + parity.
  uint64_t pages_repaired_mirror = 0;
  uint64_t pages_repaired_parity = 0;
  uint64_t pages_unrepairable = 0;
  bool header_damaged = false;
  bool header_repaired = false;
  /// Footer region recomputed from the (repaired) body.
  bool footer_rebuilt = false;
  /// Mirror/parity sidecar files rewritten from a healthy primary.
  uint64_t sidecars_healed = 0;
  /// Final primary matches the manifest checksum again (repair succeeded).
  bool repaired = false;
  /// Damage remains that no redundancy covers.
  bool unrepairable = false;
  /// First failure reason, when unrepairable.
  std::string detail;
};

/// Whole-catalog scrub outcome.
struct ScrubReport {
  uint64_t generation = 0;
  uint64_t relations_scanned = 0;
  uint64_t relations_clean = 0;
  uint64_t relations_repaired = 0;
  uint64_t relations_unrepairable = 0;
  uint64_t pages_scanned = 0;
  uint64_t pages_repaired = 0;
  uint64_t pages_unrepairable = 0;
  uint64_t sidecars_healed = 0;
  std::vector<RelationScrubReport> relations;

  /// True when every relation is verified intact (possibly after repair).
  bool Clean() const {
    return relations_unrepairable == 0 &&
           relations_clean + relations_repaired == relations_scanned;
  }
};

/// Scrubs every relation `manifest` references inside `env`.
Result<ScrubReport> ScrubManifest(StorageEnv* env,
                                  const CatalogManifest& manifest,
                                  const ScrubOptions& options = {});

/// Resolves the committed manifest (`ReadCurrentManifest`) and scrubs it.
Result<ScrubReport> ScrubCatalog(StorageEnv* env,
                                 const ScrubOptions& options = {});

/// Renders a human-readable multi-line summary (what `declctl fsck`
/// prints).
std::string FormatScrubReport(const ScrubReport& report);

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_SCRUB_H_

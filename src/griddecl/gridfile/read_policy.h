#ifndef GRIDDECL_GRIDFILE_READ_POLICY_H_
#define GRIDDECL_GRIDFILE_READ_POLICY_H_

#include "griddecl/common/backoff.h"

/// \file
/// The retry schedule of a stored-page read.
///
/// Every read of a stored page is strict: `PageStore::GetPages` (serve and
/// scrub) retries transient env errors, CRC-verifies the page and decodes
/// it, or reports the page kUnavailable; the page index a server builds at
/// load (`BuildPageIndex`) runs the same verify over bytes it already
/// holds. A damaged page means the same thing at every layer, and the only
/// thing a caller chooses is how long to keep retrying.

namespace griddecl {

struct ReadPolicy {
  /// Retry schedule for transiently failing reads (kUnavailable from the
  /// storage env). The serve path overrides the default with its tight
  /// schedule.
  BackoffPolicy retry;
};

/// The serve path's historical retry schedule: fast first retry, low cap,
/// full jitter — tuned for disks that come back within milliseconds.
inline ReadPolicy ServeReadPolicy() {
  ReadPolicy policy;
  policy.retry = BackoffPolicy{0.1, 2.0, 5.0, 1.0, 4};
  return policy;
}

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_READ_POLICY_H_

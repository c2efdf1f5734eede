#ifndef GRIDDECL_CLUSTER_MIGRATOR_H_
#define GRIDDECL_CLUSTER_MIGRATOR_H_

#include "griddecl/cluster/transition.h"

/// \file
/// Live re-declustering (`Cluster::Migrate`): move a serving cluster's
/// catalog to a new declustering method and/or virtual-disk count without
/// stopping reads.
///
/// Re-declustering changes only the bucket -> disk mapping (the method and
/// M recorded in the manifest), never the record order, the grid, or the
/// page layout — so the new generation's data files are byte-for-byte
/// copies of the old ones under new generation-numbered names, and the
/// migration is a metadata change shipped by the StagedTransition
/// (cluster/transition.h). Its delta: every non-removed member node takes
/// part (losing one aborts with "node lost"); the staged manifest gets the
/// new method and disk count and drops any explicit placement table (it is
/// keyed to the old layout, so the new generation re-places by policy);
/// each file is charged in full; the old layout must answer every verify
/// query completely. Unknown methods and too few disks are caller errors,
/// refused before anything is staged.

#endif  // GRIDDECL_CLUSTER_MIGRATOR_H_

// MUST-TRIP fixture for swarm-canary-seam: production code switching a
// canary on. A repair service that "temporarily" readmits early through the
// test seam ships the readmit-before-repair linearizability bug; a helper
// flipping the epoch fence off ships the §5.4 in-flight window.

#include "fixture_stubs.h"

namespace swarm::fixture {

sim::Task<bool> RecoverFast(RepairService& repair, int node) {
  ScopedCanary early(Canary::kReadmitBeforeRepair);
  co_return co_await repair.RecoverAndRepair(node);
}

void LoosenFencesForBenchmark() { SetCanary(Canary::kNoEpochFence, true); }

}  // namespace swarm::fixture

// MUST-PASS fixture for swarm-canary-seam: an injection site asks
// CanaryOn() at the point where the mechanism acts, and nothing outside the
// tests names ScopedCanary or SetCanary except in comments like this one.

#include "fixture_stubs.h"

namespace swarm::fixture {

Status Admits(uint64_t verb_epoch, uint64_t fence_epoch) {
  if (verb_epoch < fence_epoch && !CanaryOn(Canary::kNoEpochFence)) {
    return Status::kStaleEpoch;
  }
  return Status::kOk;
}

const char* kHint = "tests switch canaries with ScopedCanary";

}  // namespace swarm::fixture

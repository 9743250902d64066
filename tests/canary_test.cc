// The test-only canary seam (src/util/canary.h): every canary is off unless
// a test turns it on, and ScopedCanary restores the state it found, so
// nested scopes and back-to-back tests cannot leak an injected bug into a
// production-configured run. The canaries' own catch-and-replay contract is
// the ChaosCanary gallery in chaos_replay_test.cc.

#include <gtest/gtest.h>

#include <cstddef>

#include "src/util/canary.h"

namespace swarm {
namespace {

constexpr Canary kAll[] = {Canary::kSkipTombstoneRepair, Canary::kReadmitBeforeRepair,
                           Canary::kNoFlipFence, Canary::kNoEpochFence, Canary::kNoWriterBound};
static_assert(std::size(kAll) == static_cast<size_t>(Canary::kCount),
              "a new canary must be added to this list");

TEST(Canary, EveryCanaryIsOffByDefault) {
  for (Canary c : kAll) {
    EXPECT_FALSE(CanaryOn(c)) << "canary " << static_cast<int>(c);
  }
}

TEST(Canary, ScopedCanaryTouchesOnlyItsOwnCanary) {
  for (Canary c : kAll) {
    ScopedCanary on(c);
    for (Canary other : kAll) {
      EXPECT_EQ(CanaryOn(other), other == c) << "canary " << static_cast<int>(other);
    }
  }
  for (Canary c : kAll) {
    EXPECT_FALSE(CanaryOn(c)) << "canary " << static_cast<int>(c);
  }
}

TEST(Canary, NestedScopesRestoreThePreviousState) {
  {
    ScopedCanary outer(Canary::kNoEpochFence);
    EXPECT_TRUE(CanaryOn(Canary::kNoEpochFence));
    {
      ScopedCanary again(Canary::kNoEpochFence);
      EXPECT_TRUE(CanaryOn(Canary::kNoEpochFence));
    }
    EXPECT_TRUE(CanaryOn(Canary::kNoEpochFence)) << "inner scope switched the outer one off";
  }
  EXPECT_FALSE(CanaryOn(Canary::kNoEpochFence));
}

}  // namespace
}  // namespace swarm

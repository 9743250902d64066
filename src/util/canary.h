// Test-only bug-injection seam, after FoundationDB's BUGGIFY. The canary
// gallery (tests/chaos_replay_test.cc) switches one safety mechanism off and
// demands a linearizability violation that replays from its seed. Each
// injection site asks CanaryOn() where the mechanism acts; only tests turn a
// canary on, through ScopedCanary (lint pass swarm-canary-seam). CanaryOn()
// is one load of a plain global: the simulator is single-threaded.

#ifndef SWARM_SRC_UTIL_CANARY_H_
#define SWARM_SRC_UTIL_CANARY_H_

#include <cstddef>

namespace swarm {

enum class Canary : unsigned char {
  kSkipTombstoneRepair,  // Replica copies drop tombstones: deletes resurrect (§5.3).
  kReadmitBeforeRepair,  // RepairService readmits a node before repairing it.
  kNoFlipFence,          // Migration flips without fencing the vacated slot.
  kNoEpochFence,         // Memory nodes learn the membership epoch but admit stale verbs (§5.4).
  kNoWriterBound,        // Writer tids past the TSL region are not rejected (§3.3).
  kCount,
};

namespace canary_internal {
inline bool on[static_cast<size_t>(Canary::kCount)] = {};
}  // namespace canary_internal

inline bool CanaryOn(Canary c) { return canary_internal::on[static_cast<size_t>(c)]; }

// Tests only; prefer ScopedCanary, which restores the previous state.
inline void SetCanary(Canary c, bool on) { canary_internal::on[static_cast<size_t>(c)] = on; }

// Turns `c` on for the scope's lifetime, then restores what it was before.
class ScopedCanary {
 public:
  explicit ScopedCanary(Canary c) : c_(c), prev_(CanaryOn(c)) { SetCanary(c, true); }
  ~ScopedCanary() { SetCanary(c_, prev_); }
  ScopedCanary(const ScopedCanary&) = delete;
  ScopedCanary& operator=(const ScopedCanary&) = delete;

 private:
  Canary c_;
  bool prev_;
};

}  // namespace swarm

#endif  // SWARM_SRC_UTIL_CANARY_H_

// SWARM-KV (§5): a strongly consistent, highly available disaggregated
// key-value store with single-roundtrip inserts, updates, gets and
// deletes in the common case.
//
// Clients access replicated values directly on the memory nodes through
// Safe-Guess (over In-n-Out max registers); an index service maps keys to
// replica locations, and a client-side cache (optionally bounded, LFU) makes
// steady-state operations index-free.
//
// The session is the shared replicated-KV session (replicated_kv.h) over
// SafeGuessObject; the specialization below holds SWARM-KV's three protocol
// facts.

#ifndef SWARM_SRC_KV_SWARM_KV_H_
#define SWARM_SRC_KV_SWARM_KV_H_

#include "src/kv/replicated_kv.h"
#include "src/swarm/safe_guess.h"

namespace swarm::kv {

template <>
struct KvProtocol<SafeGuessObject> {
  // 1. Per-writer metadata buffers (§4.4), W timestamp locks and in-place
  //    copies, all from the config; placement salted with "SWARM".
  static constexpr uint64_t kPlacementSalt = 0x535741524d;
  static LayoutGeometry FreshGeometry(const ProtocolConfig& cfg) {
    return {cfg.meta_slots, cfg.max_writers, cfg.inplace_copies};
  }
  // 2. The one-roundtrip CAS-max needs the latest metadata buffers in the
  //    slot caches, so an Update cache miss fetches them first (§7.1).
  static constexpr bool kSeedSlotCachesOnUpdateMiss = true;
  // 3. A Safe-Guess write installs its guessed word BEFORE it can observe a
  //    tombstone, and a reader that already fetched metadata may commit it:
  //    a tombstone-bounced update is possibly applied.
  static constexpr bool kTombstoneBounceMayApply = true;
};

extern template class ReplicatedKvSession<SafeGuessObject>;
using SwarmKvSession = ReplicatedKvSession<SafeGuessObject>;

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_SWARM_KV_H_

// DM-ABD key-value store (§7, "Baselines"): values replicated with the ABD
// protocol using pure out-of-place updates. Strongly consistent and
// fault-tolerant like SWARM-KV, but gets and updates commonly take two
// roundtrips (Table 2): gets chase a pointer, updates first discover a
// fresh timestamp (hidden behind the out-of-place data write) and then
// install it with a CAS.
//
// The session is the shared replicated-KV session (replicated_kv.h) over
// AbdObject; the specialization below holds DM-ABD's three protocol facts.

#ifndef SWARM_SRC_KV_DM_ABD_KV_H_
#define SWARM_SRC_KV_DM_ABD_KV_H_

#include "src/kv/replicated_kv.h"
#include "src/swarm/abd.h"

namespace swarm::kv {

template <>
struct KvProtocol<AbdObject> {
  // 1. One shared metadata word, one writer slot, no in-place region: pure
  //    out-of-place ABD; placement salted with "ABD".
  static constexpr uint64_t kPlacementSalt = 0x414244;
  static LayoutGeometry FreshGeometry(const ProtocolConfig&) {
    return {/*meta_slots=*/1, /*max_writers=*/1, /*inplace_copies=*/0};
  }
  // 2. ABD discovers its timestamp inside the write itself: no seeding read.
  static constexpr bool kSeedSlotCachesOnUpdateMiss = false;
  // 3. An ABD write observes the tombstone in phase 1, before installing
  //    anything: a tombstone-bounced update is a definite kNotFound.
  static constexpr bool kTombstoneBounceMayApply = false;
};

extern template class ReplicatedKvSession<AbdObject>;
using DmAbdKvSession = ReplicatedKvSession<AbdObject>;

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_DM_ABD_KV_H_

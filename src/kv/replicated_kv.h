// The client session shared by the two replicated index-backed stores,
// SWARM-KV (§5.3) and DM-ABD (§7): one implementation of the key-value
// protocol over the index and the client cache, parameterized by the
// register that replicates each value (SafeGuessObject / AbdObject).
//
// Every op locates its key through the shared cache or a 1-RT index lookup,
// re-resolves after a tombstone bounce (§5.3.3/§5.3.4) or a migration-fence
// bounce, and unmaps deleted keys in the background (§5.3.2). What differs
// between the stores is owned by the register's KvProtocol specialization
// (swarm_kv.h, dm_abd_kv.h):
//   1. the fresh-insert layout geometry and the placement hash salt;
//   2. whether an Update cache miss pays the extra weak metadata read that
//      seeds the In-n-Out slot caches (§7.1);
//   3. whether a write that bounced off a tombstone may already have taken
//      effect (KvResult::ambiguous).

#ifndef SWARM_SRC_KV_REPLICATED_KV_H_
#define SWARM_SRC_KV_REPLICATED_KV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/kv_types.h"
#include "src/swarm/placement.h"
#include "src/swarm/worker.h"

namespace swarm::kv {

// Best-effort background unmap of a deleted key's index entry (§5.3.2).
// Generation-guarded, so a lost or duplicated attempt is harmless: a newer
// mapping wins. Also used by the RAW store.
sim::Task<void> UnmapLater(index::IndexService* index, uint64_t key, uint64_t generation);

// Per-replica metadata/lock/in-place geometry of a freshly inserted object.
struct LayoutGeometry {
  int meta_slots;
  int max_writers;
  int inplace_copies;
};

// The protocol facts of one register type. Each specialization provides:
//   static constexpr uint64_t kPlacementSalt;
//   static LayoutGeometry FreshGeometry(const ProtocolConfig& cfg);
//   static constexpr bool kSeedSlotCachesOnUpdateMiss;
//   static constexpr bool kTombstoneBounceMayApply;
template <typename Register>
struct KvProtocol;

template <typename Register>
class ReplicatedKvSession : public KvSession {
 public:
  // `cache` is shared among all sessions of one client process.
  ReplicatedKvSession(Worker* worker, index::IndexService* index, index::ClientCache* cache)
      : worker_(worker), index_(index), cache_(cache) {}

  sim::Task<KvResult> Get(uint64_t key) override;
  sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) override;
  sim::Task<KvResult> Remove(uint64_t key) override;

  // Placement filter for fresh inserts: only nodes marked serving receive new
  // extents (MembershipService::serving()). Unset = place on all nodes.
  void set_serving(std::shared_ptr<const std::vector<bool>> serving) {
    serving_ = std::move(serving);
  }

 private:
  // A self-contained copy of a key's location (safe across co_awaits even if
  // the shared cache evicts the entry meanwhile). Absent iff `layout` is null.
  struct Located {
    std::shared_ptr<const ObjectLayout> layout;
    std::shared_ptr<ObjectCache> obj_cache;  // This worker's slot caches.
    uint64_t generation = 0;

    bool found() const { return layout != nullptr; }
  };

  // The location of `layout` under index generation `generation`.
  Located At(std::shared_ptr<const ObjectLayout> layout, uint64_t generation);
  // Installs `loc` in the shared client cache.
  void Remember(uint64_t key, const Located& loc);

  // Resolves a key's location, falling back to the index (+1 RT).
  // `seed_metadata`: additionally performs the weak metadata read that
  // updates In-n-Out slot caches — §7.1: updates on a SWARM-KV cache miss
  // pay 2 extra roundtrips (index + latest metadata buffer).
  sim::Task<Located> Locate(uint64_t key, bool seed_metadata, KvResult* result);

  // Picks replica nodes for a fresh insert by key hash.
  std::shared_ptr<const ObjectLayout> AllocateForKey(uint64_t key);

  // Handles a read/write that discovered a tombstone: flush the cache, ask
  // the index, and schedule the stale mapping's unmap (§5.3.3/§5.3.4).
  sim::Task<Located> HandleDeleted(uint64_t key, uint64_t stale_generation, KvResult* result);

  // Handles an op that bounced off a migration fence (SgStatus::kMoved):
  // flush the cache and chase the index until the ownership flip commits
  // under a new generation (or the fence lifts after an abort). Unlike
  // HandleDeleted this never unmaps the entry — the key is alive, in transit.
  sim::Task<Located> HandleMoved(uint64_t key, uint64_t stale_generation, KvResult* result);

  Worker* worker_;
  index::IndexService* index_;
  index::ClientCache* cache_;
  std::shared_ptr<const std::vector<bool>> serving_;
  PlacementProbe place_;  // Minimal-remap placement over the serving set.
};

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_REPLICATED_KV_H_

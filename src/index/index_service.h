// Reliable index service (§5.1/§5.2).
//
// SWARM-KV needs "a fast index ... which can run on traditional servers and
// [is] fault-tolerant", reachable in one roundtrip, mapping keys to the
// locations of their replicas. SWARM-KV is oblivious to the index's
// implementation (the paper reuses FUSEE's resizable index hardened to strong
// consistency), so we model it as a linearizable map service with
// fabric-like access latency: every operation costs one client submission
// plus a network roundtrip.
//
// The service is SHARDED by consistent hash of the key (ShardRouter): each
// shard owns an independent map, retired list, and GC bookkeeping, and an
// optional per-shard service occupancy (set_shard_service_time) models the
// serialization a single index server would impose — N shards give N-way
// service parallelism, which is what lets lookup/insert/retire throughput
// scale past one server. One shard (the default) is byte-for-byte the old
// single-service behavior.
//
// The service also maintains the cluster's inverse PlacementMap
// (node -> slots): every insert/replace registers the layout's replica
// slots, migration flips mark vacated slots moved, and the retired-layout GC
// releases a dropped layout's slots back to the node allocators — lifting
// the migration fences that protected them. Repair and drain walk this map,
// making both O(slots-on-node) instead of O(store).
//
// Entries carry a generation number so that a delete's background unmap
// (§5.3.2) cannot erase a newer mapping racing in from a re-insert.

#ifndef SWARM_SRC_INDEX_INDEX_SERVICE_H_
#define SWARM_SRC_INDEX_INDEX_SERVICE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/index/placement_map.h"
#include "src/index/shard_router.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/swarm/layout.h"

namespace swarm::index {

struct IndexEntry {
  std::shared_ptr<const ObjectLayout> layout;
  uint64_t generation = 0;
};

struct IndexStats {
  uint64_t lookups = 0;
  uint64_t inserts = 0;
  uint64_t removes = 0;
};

class IndexService {
 public:
  // With `fabric` set, index RPCs ride the chaos fault hooks on the fabric's
  // dedicated index link (Fabric::index_link()): delay spikes stretch each
  // leg and drop bursts trigger RPC retransmissions (the transport is
  // reliable, so a drop costs a retransmission timeout rather than losing
  // the operation — but the fault windows it opens between the data path and
  // the index are real). Null keeps the service fault-free. `shards` > 1
  // splits the keyspace across independent shards (consistent hash).
  IndexService(sim::Simulator* sim, fabric::Fabric* fabric = nullptr,
               sim::Time one_way_delay = 680, sim::Time jitter = 90,
               sim::Time submit_cost = 200, int shards = 1)
      : sim_(sim), fabric_(fabric), one_way_(one_way_delay), jitter_(jitter),
        submit_cost_(submit_cost), router_(shards),
        shards_(static_cast<size_t>(router_.shards())) {}

  // One-roundtrip lookup. nullopt = key not mapped.
  sim::Task<std::optional<IndexEntry>> Lookup(uint64_t key, fabric::ClientCpu* cpu);

  // Insert-if-absent (§5.3.1). Returns {true, entry-as-inserted} on success,
  // or {false, existing entry} when a mapping already exists (the caller then
  // recycles its buffers and turns the insert into an update).
  sim::Task<std::pair<bool, IndexEntry>> InsertIfAbsent(
      uint64_t key, std::shared_ptr<const ObjectLayout> layout, fabric::ClientCpu* cpu);

  // Removes the mapping only if its generation still matches (used by the
  // background unmap after a delete). Returns true if removed.
  sim::Task<bool> RemoveIfGeneration(uint64_t key, uint64_t generation, fabric::ClientCpu* cpu);

  // The migration flip's index half: atomically swaps the key's layout for
  // `layout` (the destination replica set) iff the mapping still exists at
  // `expected_generation`, bumping the generation so every cached Located
  // goes stale. Returns the new generation, or 0 when the guard failed (a
  // concurrent delete unmapped the key, or a racing re-insert replaced it) —
  // the migration then aborts and the destination copy is abandoned. The old
  // layout enters the retired list as MOVED: still referenceable by stale
  // caches (so GC keeps it quarantined), but its replica slots are fenced on
  // the source nodes, so repair must NOT restore them.
  sim::Task<uint64_t> ReplaceLayout(uint64_t key, uint64_t expected_generation,
                                    std::shared_ptr<const ObjectLayout> layout,
                                    fabric::ClientCpu* cpu);

  // Keeps a layout alive after its mapping is removed: background straggler
  // tasks (verified promotions, write-backs) and stale-cached clients may
  // still reference it, so repair must keep restoring it. Retirement is
  // coupled to the memory recycler's epochs (set_retirement_horizon): each
  // entry is tagged with the recycler epoch current at retirement, and once
  // the safe horizon passes it the layout is dropped for good.
  //
  // Externally-retired layouts (insert losers that never got a mapping) are
  // registered in the placement map here so their replica slots are released
  // at GC time — un-mapped layouts used to leak their slots forever.
  void Retire(std::shared_ptr<const ObjectLayout> layout) { Retire(std::move(layout), false); }
  // `moved` marks a layout retired by a migration flip rather than a delete:
  // its regions are fenced on the source nodes (kMovedReplica) and the
  // authoritative state lives in the replacement layout, so the repair walk
  // must skip it — restoring it would write stale state behind the fence.
  void Retire(std::shared_ptr<const ObjectLayout> layout, bool moved) {
    if (!moved) {
      placement_.Register(/*key=*/0, layout);
    }
    RetireToShard(/*shard=*/0, std::move(layout), moved);
  }

  // One unmapped-but-still-referenceable layout: the recycler epoch that was
  // current at its retirement bounds which clients can still reference it.
  struct RetiredLayout {
    std::shared_ptr<const ObjectLayout> layout;
    uint64_t epoch = 0;
    bool caches_notified = false;  // §4.5 drop message sent (GC listeners ran).
    bool moved = false;            // Migrated away: repair must not restore it.
  };

  // Retired layouts still inside the recycler's safe horizon, in retirement
  // order, for ONE shard (default: shard 0 — the whole service when
  // unsharded). Repair no longer walks this (the placement map covers
  // retired slots too); it remains for tests and diagnostics.
  const std::vector<RetiredLayout>& retired(int shard = 0) const {
    return shards_[static_cast<size_t>(shard)].retired;
  }

  // Couples retirement to the recycler (§4.5): `current_epoch` tags new
  // retirements, `safe_before` is Recycler::SafeReclaimBefore. SAFETY of the
  // drop — a repair stops restoring a dropped layout, so a stale reader that
  // could still reach it might pair wiped replicas into a bogus quorum — so
  // a layout is only dropped once NOTHING can reference it again:
  //   1. the safe horizon passed its retire epoch (every live client
  //      acknowledged draining accesses from before the retirement; clients
  //      that never acknowledged are sticky-fenced),
  //   2. the GC listeners ran (§4.5's "stop accessing the to-be-recycled
  //      buffers" message: client LOCATION CACHES drop their entries for the
  //      layout — the model must enforce the premise the ack claims), and
  //   3. no in-flight operation still holds the layout (its shared_ptr
  //      use-count has fallen to the retired list's own reference) — a
  //      long-stuck op that located the key before the round keeps the
  //      layout repairable until it completes.
  void set_retirement_horizon(std::function<uint64_t()> current_epoch,
                              std::function<uint64_t()> safe_before) {
    retire_epoch_fn_ = std::move(current_epoch);
    safe_before_fn_ = std::move(safe_before);
  }

  // Registers a §4.5 drop listener, called for each layout the GC is about
  // to drop (chaos harnesses wire every client cache's InvalidateLayout).
  void add_gc_listener(std::function<void(const std::shared_ptr<const ObjectLayout>&)> fn) {
    gc_listeners_.push_back(std::move(fn));
  }

  // Drops retired layouts the safe horizon has passed (each shard GCs its own
  // list); returns how many were dropped. Called opportunistically on Retire
  // and by the repair walk.
  //
  // Cost is O(eligible) per shard, not O(retired): retire epochs never
  // decrease along a shard's list, so the entries the horizon has passed
  // are exactly a leading prefix (found by binary search). Only that prefix
  // is notified, gated and compacted; the suffix is never scanned, and it
  // shifts down only when something was actually dropped. A frozen horizon
  // (no recycler round since the faults stopped) therefore costs nothing per
  // retirement however long the list grows.
  //
  // Dropping a layout releases its placement-map slots: the node-side fences
  // over vacated (moved) slots are lifted and the slots go back to the slab
  // allocator — through its straggler quarantine, which is what makes the
  // recycling safe even though straggler coroutines may hold raw
  // ObjectLayout pointers a while longer (their C++ objects are parked in a
  // graveyard until the simulation ends, mirroring a fenced client that can
  // still issue accesses at reclaimed addresses).
  size_t GcRetired();

  uint64_t retired_dropped() const { return retired_dropped_; }

  // Direct (zero-roundtrip) inspection, used by the benchmark harness to
  // pre-warm client caches as an infinitely long warm-up phase would.
  const IndexEntry* Peek(uint64_t key) const {
    const Shard& sh = shards_[static_cast<size_t>(router_.ShardOf(key))];
    auto it = sh.map.find(key);
    return it == sh.map.end() ? nullptr : &it->second;
  }

  const IndexStats& stats() const { return stats_; }
  size_t size() const {
    size_t n = 0;
    for (const Shard& sh : shards_) {
      n += sh.map.size();
    }
    return n;
  }
  int shard_count() const { return router_.shards(); }

  // Models the per-shard server occupancy: every op holds its shard for
  // `t` ns of service time (FIFO). 0 (default) = infinitely fast servers,
  // the pre-sharding behavior. With it, N shards give N-way parallelism —
  // the scalability the fig8 key-count axis measures.
  void set_shard_service_time(sim::Time t) { service_time_ = t; }

  // The cluster's inverse placement map (node -> slots). Repair and
  // migration walk this instead of the key-sorted store snapshot.
  const PlacementMap& placement() const { return placement_; }

  // Deterministic (key-sorted) snapshot of the live mappings across all
  // shards — admission rebalancing scans this; repair does not (it walks the
  // placement map). Entries inserted after the snapshot need no repair:
  // their writes quorum-excluded the recovering node, so any future majority
  // intersects the replicas that did ack.
  std::vector<std::pair<uint64_t, IndexEntry>> SnapshotSorted() const;

  // Approximate per-key memory footprint on the index servers (24 B location
  // record, as §5.2), for the resource accounting of Table 3.
  uint64_t ModeledBytes() const { return size() * 24; }

 private:
  struct Shard {
    std::unordered_map<uint64_t, IndexEntry> map;
    std::vector<RetiredLayout> retired;
    sim::Time busy_until = 0;
  };

  // One network roundtrip to the index server, including client submission.
  // The request leg completes before the caller's map access; the response
  // leg after it — so chaos faults can delay a mutation's acknowledgement
  // past the instant the mapping became visible to other clients.
  sim::Task<void> Roundtrip(fabric::ClientCpu* cpu);
  sim::Task<void> Leg(bool response);
  // FIFO occupancy of one shard's server (no-op when service_time_ == 0).
  sim::Task<void> Occupy(int shard);

  void RetireToShard(int shard, std::shared_ptr<const ObjectLayout> layout, bool moved) {
    std::vector<RetiredLayout>& list = shards_[static_cast<size_t>(shard)].retired;
    const uint64_t epoch = retire_epoch_fn_ ? retire_epoch_fn_() : 0;
    // GcRetired's prefix scan depends on epoch-ordered lists.
    assert(list.empty() || list.back().epoch <= epoch);
    list.push_back({std::move(layout), epoch, false, moved});
    // Opportunistic: while the horizon advances, churn keeps the lists
    // bounded. Once it freezes (no recycler rounds), nothing here drops the
    // newer entries and the list grows until the next round.
    GcRetired();
  }

  sim::Simulator* sim_;
  fabric::Fabric* fabric_;
  sim::Time one_way_;
  sim::Time jitter_;
  sim::Time submit_cost_;
  sim::Time service_time_ = 0;
  uint64_t next_generation_ = 1;  // Global: generations order across shards.
  ShardRouter router_;
  std::vector<Shard> shards_;
  PlacementMap placement_;
  std::vector<std::shared_ptr<const ObjectLayout>> graveyard_;  // Lifetime only.
  std::function<uint64_t()> retire_epoch_fn_;
  std::function<uint64_t()> safe_before_fn_;
  std::vector<std::function<void(const std::shared_ptr<const ObjectLayout>&)>> gc_listeners_;
  uint64_t retired_dropped_ = 0;
  IndexStats stats_;
};

}  // namespace swarm::index

#endif  // SWARM_SRC_INDEX_INDEX_SERVICE_H_

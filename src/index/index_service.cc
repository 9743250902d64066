#include "src/index/index_service.h"

#include <algorithm>
#include <utility>

namespace swarm::index {

sim::Task<void> IndexService::Leg(bool response) {
  if (fabric_ != nullptr) {
    // Reliable transport over a faulty link: every drop costs one
    // retransmission timeout before the leg finally goes through. This keeps
    // the RPC's at-most-once apply semantics while letting chaos stretch the
    // window between an index mutation and its acknowledgement (or between a
    // client's request and the mutation).
    const int link = fabric_->index_link();
    while (fabric_->DropMessage(link, response)) {
      co_await sim_->Delay(fabric_->config().failure_detect_delay);
    }
  }
  sim::Time delay = one_way_;
  if (jitter_ > 0) {
    delay += sim_->rng().Range(-jitter_, jitter_);
  }
  if (fabric_ != nullptr) {
    delay += fabric_->LinkExtraDelay(fabric_->index_link(), response);
  }
  co_await sim_->Delay(std::max<sim::Time>(delay, 1));
}

sim::Task<void> IndexService::Roundtrip(fabric::ClientCpu* cpu) {
  if (cpu != nullptr) {
    // Posting the RPC's send WQE rides the same doorbell as any verbs batched
    // alongside it (e.g. an insert's parallel replica writes, §5.3.1).
    co_await cpu->Submit(submit_cost_);
  }
  co_await Leg(/*response=*/false);
}

sim::Task<void> IndexService::Occupy(int shard) {
  if (service_time_ == 0) {
    co_return;
  }
  // FIFO service at the shard's server: reserve the next slot now, then wait
  // until it starts and hold it for service_time_.
  Shard& sh = shards_[static_cast<size_t>(shard)];
  const sim::Time start = std::max(sim_->Now(), sh.busy_until);
  sh.busy_until = start + service_time_;
  co_await sim_->Delay(sh.busy_until - sim_->Now());
}

sim::Task<std::optional<IndexEntry>> IndexService::Lookup(uint64_t key, fabric::ClientCpu* cpu) {
  const int shard = router_.ShardOf(key);
  co_await Roundtrip(cpu);
  co_await Occupy(shard);
  ++stats_.lookups;
  std::optional<IndexEntry> result;
  auto& map = shards_[static_cast<size_t>(shard)].map;
  auto it = map.find(key);
  if (it != map.end()) {
    result = it->second;
  }
  co_await Leg(/*response=*/true);
  co_return result;
}

sim::Task<std::pair<bool, IndexEntry>> IndexService::InsertIfAbsent(
    uint64_t key, std::shared_ptr<const ObjectLayout> layout, fabric::ClientCpu* cpu) {
  const int shard = router_.ShardOf(key);
  co_await Roundtrip(cpu);
  co_await Occupy(shard);
  ++stats_.inserts;
  std::pair<bool, IndexEntry> result;
  auto& map = shards_[static_cast<size_t>(shard)].map;
  auto it = map.find(key);
  if (it != map.end()) {
    result = {false, it->second};
  } else {
    IndexEntry entry{std::move(layout), next_generation_++};
    placement_.Register(key, entry.layout);
    map.emplace(key, entry);
    result = {true, entry};
  }
  co_await Leg(/*response=*/true);
  co_return result;
}

sim::Task<bool> IndexService::RemoveIfGeneration(uint64_t key, uint64_t generation,
                                                 fabric::ClientCpu* cpu) {
  const int shard = router_.ShardOf(key);
  co_await Roundtrip(cpu);
  co_await Occupy(shard);
  ++stats_.removes;
  bool removed = false;
  auto& map = shards_[static_cast<size_t>(shard)].map;
  auto it = map.find(key);
  if (it != map.end() && it->second.generation == generation) {
    // Already placement-registered at insert; no re-register needed.
    RetireToShard(shard, std::move(it->second.layout), /*moved=*/false);
    map.erase(it);
    removed = true;
  }
  co_await Leg(/*response=*/true);
  co_return removed;
}

sim::Task<uint64_t> IndexService::ReplaceLayout(uint64_t key, uint64_t expected_generation,
                                                std::shared_ptr<const ObjectLayout> layout,
                                                fabric::ClientCpu* cpu) {
  const int shard = router_.ShardOf(key);
  co_await Roundtrip(cpu);
  co_await Occupy(shard);
  ++stats_.inserts;
  uint64_t new_generation = 0;
  auto& map = shards_[static_cast<size_t>(shard)].map;
  auto it = map.find(key);
  if (it != map.end() && it->second.generation == expected_generation) {
    std::shared_ptr<const ObjectLayout> old = std::move(it->second.layout);
    it->second.layout = std::move(layout);
    it->second.generation = next_generation_++;
    new_generation = it->second.generation;
    // Re-register FIRST so the replacement claims the slots it shares with
    // its predecessor; only the genuinely vacated (fenced) slots then remain
    // owned by the old layout, and those are the ones marked moved.
    placement_.Register(key, it->second.layout);
    placement_.MarkMoved(old.get());
    RetireToShard(shard, std::move(old), /*moved=*/true);
  }
  co_await Leg(/*response=*/true);
  co_return new_generation;
}

size_t IndexService::GcRetired() {
  if (!safe_before_fn_) {
    return 0;
  }
  const uint64_t horizon = safe_before_fn_();
  size_t dropped_total = 0;
  for (Shard& sh : shards_) {
    // Retire epochs never decrease along the list, so the horizon-passed
    // entries are exactly its leading prefix; nothing past it is touched.
    const auto eligible_end =
        std::partition_point(sh.retired.begin(), sh.retired.end(),
                             [horizon](const RetiredLayout& r) { return r.epoch < horizon; });
    if (eligible_end == sh.retired.begin()) {
      continue;
    }
    // Pass 1: tell caches to drop references to every horizon-passed layout
    // (the §4.5 message). This releases their shared_ptr copies, so pass 2's
    // use-count gate sees only genuine in-flight holders. Once notified, a
    // retired layout can never re-enter a cache (it is unmapped; re-inserts
    // build fresh layouts), so each layout is notified exactly once even
    // when an in-flight holder pins it across many GC calls.
    for (auto it = sh.retired.begin(); it != eligible_end; ++it) {
      if (!it->caches_notified) {
        it->caches_notified = true;
        for (auto& fn : gc_listeners_) {
          fn(it->layout);
        }
      }
    }
    auto kept = sh.retired.begin();
    for (auto it = sh.retired.begin(); it != eligible_end; ++it) {
      // The drop gate: beyond the references the retired entry itself and the
      // placement map's owned slots hold, nothing may reference the layout —
      // no cache entry, no in-flight Located copy. Exact in the
      // single-threaded simulation. A pinned entry stays in place and does
      // not hold back the eligible entries behind it.
      const long pinned_by_us =
          1 + static_cast<long>(placement_.OwnedCount(it->layout.get()));
      if (it->layout.use_count() > pinned_by_us) {
        if (kept != it) {
          *kept = std::move(*it);
        }
        ++kept;
        continue;
      }
      // Drop: release the layout's slots back to their nodes. For a MOVED
      // slot this is the moment its migration fence is finally lifted — the
      // layout is unreferenceable, so no straggler can ever address the slot
      // again — and the address recycles through the slab quarantine.
      placement_.Release(it->layout.get(), [this](int node, uint64_t addr, uint64_t len) {
        if (fabric_ == nullptr) {
          return;
        }
        auto& n = fabric_->node(node);
        n.RestoreRegion(addr, len);
        n.FreeSlot(addr);
      });
      graveyard_.push_back(std::move(it->layout));
    }
    if (kept != eligible_end) {
      dropped_total += static_cast<size_t>(eligible_end - kept);
      sh.retired.erase(kept, eligible_end);
    }
  }
  retired_dropped_ += dropped_total;
  return dropped_total;
}

std::vector<std::pair<uint64_t, IndexEntry>> IndexService::SnapshotSorted() const {
  std::vector<std::pair<uint64_t, IndexEntry>> entries;
  entries.reserve(size());
  for (const Shard& sh : shards_) {
    entries.insert(entries.end(), sh.map.begin(), sh.map.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace swarm::index

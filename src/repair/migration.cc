#include "src/repair/migration.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/repair/quorum_copy.h"
#include "src/swarm/abd.h"
#include "src/swarm/layout.h"
#include "src/util/canary.h"

namespace swarm::repair {

namespace {

// Fence or unfence a replica slot. A replica is ONE contiguous slab slot
// ([meta | in-place? | tsl], see AllocateObject), so one interval covers it.
void SetSlotFence(fabric::MemoryNode& node, const ObjectLayout* layout, const ReplicaLayout& rep,
                  bool fenced) {
  const uint64_t len = layout->replica_slot_bytes(rep.inplace_addr != 0);
  if (fenced) {
    node.RetireRegion(rep.meta_addr, len);
  } else {
    node.RestoreRegion(rep.meta_addr, len);
  }
}

}  // namespace

int MigrationService::PickDestination(uint64_t key, const ObjectLayout* layout) const {
  // Stack buffer: the pick runs per migrated key inside bulk flows and must
  // not allocate (the zero-alloc guard covers the chaos hot loops).
  int candidates[kMaxNodes];
  size_t num_candidates = 0;
  const int n = worker_->fabric()->num_nodes();
  for (int i = 0; i < n && num_candidates < kMaxNodes; ++i) {
    if (!membership_->IsServing(i) || membership_->IsRepairing(i)) {
      continue;
    }
    bool hosts = false;
    for (int r = 0; r < layout->num_replicas; ++r) {
      hosts = hosts || layout->replicas[static_cast<size_t>(r)].node == i;
    }
    if (!hosts) {
      candidates[num_candidates++] = i;
    }
  }
  if (num_candidates == 0) {
    return -1;
  }
  const uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return candidates[h % num_candidates];
}

bool MigrationService::HostsReplicas(int node) const {
  // Walk the node's own slots in the inverse placement map — O(slots on the
  // node) — counting only slots whose owner is the key's CURRENT mapping
  // (retired layouts pinned by stale caches don't block a drain; their slots
  // are released by the retired-layout GC).
  bool hosts = false;
  index_->placement().ForEachSlotOn(
      node, [&](uint64_t addr, const index::PlacementMap::Slot& slot) {
        (void)addr;
        if (hosts || slot.moved) {
          return;
        }
        const index::IndexEntry* e = index_->Peek(slot.key);
        if (e != nullptr && e->layout.get() == slot.owner.get()) {
          hosts = true;
        }
      });
  return hosts;
}

sim::Task<MigrateStatus> MigrationService::MigrateKey(uint64_t key, int from, int onto) {
  // --- plan ---------------------------------------------------------------
  // A source under repair is the repair's to arbitrate: its slots are being
  // rebuilt in place and the node is quorum-excluded, so a concurrent move
  // would harvest around it anyway only to fight the rebuild. Skip; bulk
  // flows revisit the key after the repair readmits.
  if (membership_->IsRepairing(from)) {
    ++keys_skipped_;
    co_return MigrateStatus::kSkipped;
  }
  auto idx = co_await index_->Lookup(key, worker_->cpu());
  if (!idx.has_value()) {
    ++keys_skipped_;
    co_return MigrateStatus::kSkipped;
  }
  std::shared_ptr<const ObjectLayout> src = idx->layout;
  int slot = -1;
  for (int r = 0; r < src->num_replicas; ++r) {
    if (src->replicas[static_cast<size_t>(r)].node == from) {
      slot = r;
      break;
    }
  }
  if (slot < 0) {
    ++keys_skipped_;  // Already elsewhere (or a racing move beat us).
    co_return MigrateStatus::kSkipped;
  }
  const int dest = onto >= 0 ? onto : PickDestination(key, src.get());
  if (dest < 0 || dest == from || membership_->IsRepairing(dest)) {
    co_return MigrateStatus::kNoDestination;
  }

  ++in_flight_;
  const ReplicaLayout vacated = src->replicas[static_cast<size_t>(slot)];

  // --- graft --------------------------------------------------------------
  // L' = L with the vacated slot's buffers replaced by fresh allocations on
  // the destination; every other slot is shared with L byte-for-byte.
  auto dst = std::make_shared<ObjectLayout>(*src);
  {
    const int nodes[1] = {dest};
    ObjectLayout fresh =
        AllocateObject(*worker_->fabric(), nodes, 1, src->meta_slots, src->max_writers,
                       src->max_value, /*inplace_copies=*/vacated.inplace_addr != 0 ? 1 : 0);
    dst->replicas[static_cast<size_t>(slot)] = fresh.replicas[0];
  }

  // --- fence + epoch bump -------------------------------------------------
  const bool fenced = !CanaryOn(Canary::kNoFlipFence);
  if (fenced) {
    SetSlotFence(worker_->fabric()->node(from), src.get(), vacated, /*fenced=*/true);
  }
  membership_->NoteOwnershipFlip();

  // --- copy ---------------------------------------------------------------
  bool copied = false;
  for (int round = 0; round < config_.max_rounds && !copied; ++round) {
    if (round > 0) {
      co_await worker_->sim()->Delay(config_.round_retry_delay);
    }
    if (protocol_ == LayoutProtocol::kAbd) {
      AbdObject obj(worker_, src.get(), worker_->SlotCacheFor(src.get()));
      copied = co_await obj.CopyReplicaTo(dst.get(), slot);
    } else {
      copied = co_await CopySafeGuessReplica(worker_, src, dst.get(), slot);
    }
  }

  // --- flip ---------------------------------------------------------------
  uint64_t new_generation = 0;
  if (copied) {
    new_generation = co_await index_->ReplaceLayout(key, idx->generation, dst, worker_->cpu());
  }
  if (new_generation != 0) {
    // ReplaceLayout retired L as moved: the repair walk skips it, cache GC
    // listeners invalidate it, and the old slot's fences are PERMANENT (they
    // survive even a crash-recover of the source node — the state behind
    // them is dead).
    ++keys_moved_;
    --in_flight_;
    co_return MigrateStatus::kMoved;
  }

  // --- abort --------------------------------------------------------------
  // Copy gave up (no surviving quorum within budget) or the flip guard
  // failed (racing delete / re-insert). Restore the fences and abandon L':
  // the cluster is exactly as before the attempt. The fresh destination slot
  // was never published — no directory entry, no cached Located, and the
  // coordinator's copy verbs have all completed — so it goes straight back
  // to the slab (through its quarantine).
  if (fenced) {
    SetSlotFence(worker_->fabric()->node(from), src.get(), vacated, /*fenced=*/false);
  }
  worker_->fabric()->node(dest).FreeSlot(dst->replicas[static_cast<size_t>(slot)].meta_addr);
  membership_->NoteOwnershipFlip();  // Un-fenced: stale holders re-learn again.
  ++keys_aborted_;
  --in_flight_;
  co_return MigrateStatus::kAborted;
}

sim::Task<uint64_t> MigrationService::MigrateExtent(int from, uint64_t addr, int onto) {
  // --- plan: the extent's keys --------------------------------------------
  // One slab extent holds same-sized replica slots back to back, and the
  // inverse placement map walks them in address order — so an extent's live
  // keys are one contiguous sub-range of the node's slot walk.
  const auto* ext = worker_->fabric()->node(from).SlotExtentOf(addr);
  if (ext == nullptr) {
    co_return 0;
  }
  const uint64_t base = ext->base;
  const uint64_t end = ext->base + ext->bytes;
  std::vector<uint64_t> keys;
  index_->placement().ForEachSlotOn(
      from, [&](uint64_t slot_addr, const index::PlacementMap::Slot& slot) {
        if (slot_addr < base || slot_addr >= end || slot.moved) {
          return;
        }
        const index::IndexEntry* e = index_->Peek(slot.key);
        if (e != nullptr && e->layout.get() == slot.owner.get()) {
          keys.push_back(slot.key);
        }
      });
  // --- fence + copy + flip, one slot at a time ----------------------------
  // Each flip plants its own slot fence; the retired map COALESCES adjacent
  // slots, so as the extent empties the fences merge into a single interval
  // covering the vacated range — admission checks stay O(log intervals) no
  // matter how many slots moved. Per-slot (rather than one up-front
  // extent-wide) fencing keeps the extent's still-free slots allocatable and
  // each aborted key's slot serving, with no fence fragments to reconcile.
  uint64_t moved = 0;
  for (uint64_t key : keys) {
    if (co_await MigrateKey(key, from, onto) == MigrateStatus::kMoved) {
      ++moved;
    }
  }
  if (moved > 0) {
    ++extents_moved_;
  }
  co_return moved;
}

sim::Task<int> MigrationService::AdmitAndRebalance(uint64_t max_keys) {
  const int node = membership_->AdmitNode();
  if (node < 0) {
    co_return -1;  // Fabric at its lifetime bound; nothing changed.
  }
  ++nodes_admitted_;
  // The node is kJoining: new placements skip it, clients know its epoch.
  // Fill it by pulling keys over — destination pinned, source picked per key
  // as the replica the key hashes to, spreading the unload evenly.
  uint64_t moved = 0;
  auto snapshot = index_->SnapshotSorted();
  for (const auto& [key, entry] : snapshot) {
    if (moved >= max_keys) {
      break;
    }
    bool hosts = false;
    for (int r = 0; r < entry.layout->num_replicas; ++r) {
      hosts = hosts || entry.layout->replicas[static_cast<size_t>(r)].node == node;
    }
    if (hosts) {
      continue;
    }
    const int r = static_cast<int>(key % static_cast<uint64_t>(entry.layout->num_replicas));
    const int from = entry.layout->replicas[static_cast<size_t>(r)].node;
    const MigrateStatus st = co_await MigrateKey(key, from, node);
    if (st == MigrateStatus::kMoved) {
      ++moved;
    }
  }
  membership_->CompleteJoin(node);
  co_return node;
}

sim::Task<bool> MigrationService::Drain(int node, bool decommission) {
  membership_->BeginDrain(node);
  bool clean = false;
  for (int round = 0; round < config_.max_rounds && !clean; ++round) {
    if (round > 0) {
      co_await worker_->sim()->Delay(config_.round_retry_delay);
    }
    clean = true;
    // Snapshot the node's live slots from the inverse placement map —
    // O(slots on the node), address-ordered (deterministic for seed
    // replay) — instead of scanning the whole store. A layout hosting two
    // replicas here lists its key twice; the second MigrateKey simply moves
    // the second replica.
    std::vector<uint64_t> keys;
    index_->placement().ForEachSlotOn(
        node, [&](uint64_t addr, const index::PlacementMap::Slot& slot) {
          (void)addr;
          if (slot.moved) {
            return;
          }
          const index::IndexEntry* e = index_->Peek(slot.key);
          if (e != nullptr && e->layout.get() == slot.owner.get()) {
            keys.push_back(slot.key);
          }
        });
    for (uint64_t key : keys) {
      const MigrateStatus st = co_await MigrateKey(key, node, -1);
      clean = clean && (st == MigrateStatus::kMoved || st == MigrateStatus::kSkipped);
    }
    // Mappings inserted after the snapshot placed on the serving set, which
    // has excluded `node` since BeginDrain — but a key skipped above (its
    // source or the whole cluster was mid-repair) still hosts one.
    clean = clean && !HostsReplicas(node);
  }
  if (clean) {
    if (decommission) {
      membership_->Decommission(node);
    }
    ++drains_completed_;
    co_return true;
  }
  // Graceful abort: the node returns to serving with whatever replicas it
  // still hosts. Keys already moved stay moved — each flip was individually
  // complete, so no state is half-transferred.
  membership_->CompleteJoin(node);
  ++drains_aborted_;
  co_return false;
}

}  // namespace swarm::repair

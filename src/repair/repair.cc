#include "src/repair/repair.h"

#include <memory>

#include "src/repair/quorum_copy.h"
#include "src/swarm/abd.h"
#include "src/util/canary.h"

namespace swarm::repair {

sim::Task<RepairOutcome> IndexRepairSource::RepairNode(int node, Worker* worker) {
  RepairOutcome out;
  out.complete = true;
  // Prune first: layouts past the recycler's safe horizon can no longer be
  // referenced by any client, so repair need not re-walk them every round
  // (the GC also releases their slots, shrinking this very walk).
  (void)index_->GcRetired();
  // Walk the inverse placement map: exactly the replica slots hosted on
  // `node`, in address order (deterministic for seed replay) — O(slots on
  // the node), not O(store). The map covers live mappings AND retired
  // layouts that stale-cached clients can still reference (a rejoined
  // replica that misses its tombstone would pair with a stale survivor and
  // resurrect the deleted value). Mappings inserted after this snapshot
  // wrote to quorums that excluded `node`. The snapshot holds shared_ptrs so
  // a mid-walk GC round cannot drop a layout under the repair.
  std::vector<std::pair<std::shared_ptr<const ObjectLayout>, int>> slots;
  index_->placement().ForEachSlotOn(
      node, [&](uint64_t addr, const index::PlacementMap::Slot& slot) {
        (void)addr;
        ++out.slots_walked;
        if (slot.moved) {
          // Migrated away: the replacement layout (registered over the slots
          // it kept) is the authority now, and this vacated slot is
          // region-fenced — restoring state behind the fence would only
          // fight the migration that retired it.
          return;
        }
        slots.emplace_back(slot.owner, slot.replica);
      });
  for (const auto& [layout_sp, r] : slots) {
    const ObjectLayout* layout = layout_sp.get();
    bool ok;
    if (protocol_ == LayoutProtocol::kAbd) {
      AbdObject obj(worker, layout, worker->SlotCacheFor(layout));
      ok = co_await obj.CopyReplicaTo(layout, r);
    } else {
      // Same-layout copy: harvest from the survivors, install into the
      // rejoining replica (src/repair/quorum_copy.h).
      ok = co_await CopySafeGuessReplica(worker, layout_sp, layout_sp.get(), r);
    }
    if (ok) {
      ++out.slots_repaired;
    } else {
      ++out.slots_failed;
      out.complete = false;
    }
  }
  co_return out;
}

sim::Task<bool> RepairService::RepairRounds(int node, uint64_t* residual_failed) {
  // No registered stores means nobody can vouch for the node's (wiped)
  // contents — almost certainly a mis-wired coordinator. Treat it as an
  // aborted repair: the node stays excluded, which is safe.
  bool complete = false;
  *residual_failed = 0;
  for (int round = 0; round < config_.max_rounds && !complete && !stores_.empty(); ++round) {
    if (round > 0) {
      co_await worker_->sim()->Delay(config_.round_retry_delay);
    }
    complete = true;
    *residual_failed = 0;
    for (RepairableStore* s : stores_) {
      RepairOutcome out = co_await s->RepairNode(node, worker_);
      slots_repaired_ += out.slots_repaired;
      slots_walked_ += out.slots_walked;
      *residual_failed += out.slots_failed;
      complete = complete && out.complete;
    }
  }
  co_return complete;
}

void RepairService::TriggerDarkRetries() {
  // Snapshot first: Spawn runs ResumeRepair eagerly until its first
  // suspension, and ResumeRepair erases its node from dark_.
  std::vector<int> nodes;
  nodes.reserve(dark_.size());
  for (const auto& [node, slots] : dark_) {
    nodes.push_back(node);
  }
  for (int node : nodes) {
    if (!resuming_[static_cast<size_t>(node)]) {
      resuming_[static_cast<size_t>(node)] = true;
      sim::Spawn(ResumeRepair(node));
    }
  }
}

sim::Task<void> RepairService::ResumeRepair(int node) {
  EnsureTracked(node);
  // The dark node is still fenced and quorum-excluded with its partially
  // repaired slots intact, so the restart step is skipped: just run the
  // round loop again (RepairNode is idempotent) now that a readmission
  // changed the survivor picture. A fresh RecoverAndRepair (chaos crashed
  // the node again) owns the lifecycle instead — it cleared dark_.
  if (dark_.count(node) == 0 || !membership_->IsRepairing(node)) {
    resuming_[static_cast<size_t>(node)] = false;
    co_return;
  }
  dark_.erase(node);
  ++in_flight_;
  ++repairs_resumed_;
  // Lifecycle guard: if the node crashes AGAIN while this resume is
  // suspended, the fresh RecoverAndRepair bumps the generation and WIPES the
  // node mid-resume — slots this resume verified may be empty again, so it
  // must not readmit on the new lifecycle's behalf.
  const uint64_t gen = lifecycle_gen_[static_cast<size_t>(node)];
  uint64_t residual = 0;
  const bool complete = co_await RepairRounds(node, &residual);
  resuming_[static_cast<size_t>(node)] = false;
  if (gen != lifecycle_gen_[static_cast<size_t>(node)]) {
    --in_flight_;
    co_return;  // A fresh lifecycle owns the node now; let it finish.
  }
  if (complete && membership_->IsRepairing(node)) {
    for (RepairableStore* s : stores_) {
      s->OnRepairComplete(node, /*readmitted=*/true);
    }
    membership_->CompleteRepair(node);
    ++repairs_completed_;
    --in_flight_;
    TriggerDarkRetries();  // This readmission may unblock other dark nodes.
    co_return;
  }
  if (membership_->IsRepairing(node)) {
    dark_[node] = residual;  // Still dark; wait for the next readmission.
  }
  --in_flight_;
}

sim::Task<bool> RepairService::RecoverAndRepair(int node) {
  EnsureTracked(node);
  ++in_flight_;
  ++lifecycle_gen_[static_cast<size_t>(node)];  // Invalidates in-flight resumes.
  dark_.erase(node);  // A fresh lifecycle supersedes any pending re-repair.
  membership_->BeginRepair(node);
  for (RepairableStore* s : stores_) {
    s->OnRepairBegin(node);
  }
  const bool readmit_early = CanaryOn(Canary::kReadmitBeforeRepair);
  if (readmit_early) {
    // CANARY: the node rejoins quorums with empty replicas while the repair
    // below is still running — the bug the chaos suites must catch.
    for (RepairableStore* s : stores_) {
      s->OnRepairComplete(node, /*readmitted=*/true);
    }
    membership_->CompleteRepair(node);
  }
  uint64_t residual = 0;
  const bool complete = co_await RepairRounds(node, &residual);
  if (readmit_early) {
    --in_flight_;
    ++repairs_completed_;
    co_return true;  // Already (wrongly) readmitted above.
  }
  if (complete) {
    for (RepairableStore* s : stores_) {
      s->OnRepairComplete(node, /*readmitted=*/true);
    }
    membership_->CompleteRepair(node);
    ++repairs_completed_;
    --in_flight_;
    // A readmission is exactly the event that can unblock a mutually-waiting
    // repair that already gave up: retry every dark node.
    TriggerDarkRetries();
    co_return true;
  }
  for (RepairableStore* s : stores_) {
    s->OnRepairComplete(node, /*readmitted=*/false);
  }
  ++repairs_aborted_;
  dark_[node] = residual;  // Dark until some readmission triggers a retry.
  --in_flight_;
  co_return false;
}

}  // namespace swarm::repair

// Elastic membership: live extent migration for node admission, drain, and
// decommission — under full traffic.
//
// Crash repair (repair.h) rebuilds a replica IN PLACE after a node loses its
// DRAM. Migration MOVES a replica somewhere else while every client keeps
// operating: admit a brand-new memory node and rebalance keys onto it, or
// drain every replica off a node so it can be decommissioned. Both directions
// are the same per-key primitive run in bulk:
//
//   plan  — look the key up, find the replica slot hosted by the source
//           node, pick a destination (serving, not under repair, not already
//           hosting a replica of this object),
//   graft — build a replacement layout L': a copy of the live layout L with
//           the vacated slot's buffers swapped for fresh allocations on the
//           destination. Every OTHER slot's buffers are SHARED between L and
//           L' — only one replica moves per flip,
//   fence — retire the vacated slot's regions on the source node
//           (MemoryNode::RetireRegion). From here no stale-cached client can
//           commit at the old slot: its verbs bounce with kMovedReplica (a
//           no-effect NACK) and the client re-resolves through the index.
//           Then bump the membership epoch (NoteOwnershipFlip) so fenced
//           QP holders re-learn membership promptly,
//   copy  — harvest the object's authoritative state from L's surviving
//           quorum (the coordinator rides the repair channel, which passes
//           the fence) and install it into L''s new slot — the shared
//           quorum-copy core of crash repair (quorum_copy.h / AbdObject::
//           CopyReplicaTo),
//   flip  — IndexService::ReplaceLayout(key, G, L'): atomically swap the
//           mapping iff the generation is still G. The old layout retires as
//           MOVED (repair skips it; caches are invalidated through the
//           retired-layout GC listeners). Failure of the guard — a racing
//           delete or re-insert — aborts the migration,
//   abort — restore the fences (RestoreRegion) and abandon L'. The cluster
//           is left EXACTLY as before the attempt: same layout, same
//           generation, old slot serving again.
//
// Why fencing one slot is enough: clients on stale L can still commit via
// the (num_replicas - 1) shared slots, so traffic is never stalled during
// the copy. Any majority of L that excludes the fenced slot is a subset of
// the shared slots, and every majority of L' contains at least one shared
// slot — so all pre-flip and post-flip quorums intersect, which is all the
// protocols ever needed.
//
// Arbitration with crash repair: a source or destination under repair is
// simply not migrated from / onto (the key is skipped this pass; bulk flows
// revisit it next round). A node crash DURING a copy fails the harvest or
// the install, and the bounded round budget turns that into a graceful
// abort. The reverse — repair walking a layout whose slot a migration just
// fenced — is benign: before the flip the layout is live and repair may
// rewrite the vacated slot through the repair channel (harmless: the fence
// keeps clients out), after the flip the layout is retired as moved and the
// repair walk skips it.

#ifndef SWARM_SRC_REPAIR_MIGRATION_H_
#define SWARM_SRC_REPAIR_MIGRATION_H_

#include <cstdint>

#include "src/index/index_service.h"
#include "src/membership/membership.h"
#include "src/repair/repair.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/swarm/worker.h"

namespace swarm::repair {

struct MigrationConfig {
  // Copy attempts per key before the migration aborts (fences restored).
  int max_rounds = 10;
  sim::Time round_retry_delay = 30 * sim::kMicrosecond;
};

// Per-key outcome of one migration attempt.
enum class [[nodiscard]] MigrateStatus : uint8_t {
  kMoved,          // Copied, flipped; the old slot is fenced for good.
  kSkipped,        // Key unmapped, not hosted by the source, or source busy
                   // (under repair) — nothing was changed.
  kNoDestination,  // No serving, non-repairing node outside the layout.
  kAborted,        // Copy gave up or the flip guard failed; fences restored,
                   // cluster exactly as before.
};

// The migration coordinator. Like RepairService it owns a dedicated Worker
// whose repair-excluded set is the membership's `repairing` vector and whose
// verbs ride the repair channel (they must pass both the rejoin fence and
// the region fence this service itself plants).
class MigrationService {
 public:
  MigrationService(membership::MembershipService* membership, index::IndexService* index,
                   Worker* worker, LayoutProtocol protocol, MigrationConfig config = {})
      : membership_(membership), index_(index), worker_(worker), protocol_(protocol),
        config_(config) {
    worker_->set_repair_excluded(membership_->repairing());
    worker_->MarkRepairChannel();
  }

  // Moves the key's replica off `from`. `onto` >= 0 pins the destination
  // (admission fills a node that is not serving yet); -1 picks one
  // deterministically from the serving set.
  sim::Task<MigrateStatus> MigrateKey(uint64_t key, int from, int onto = -1);

  // Extent-granularity move: migrates every key with a live replica slot in
  // the slab extent containing `addr` on `from` (the inverse placement map
  // lists them as one contiguous address range). Per-slot flip fences
  // coalesce in the node's retired map into a single interval covering the
  // vacated range. Returns the number of keys moved.
  sim::Task<uint64_t> MigrateExtent(int from, uint64_t addr, int onto = -1);

  // Node admission: adds a fresh node to the fabric + membership (kJoining,
  // excluded from new placements), migrates up to `max_keys` keys onto it,
  // then marks it serving. Returns the new node id.
  sim::Task<int> AdmitAndRebalance(uint64_t max_keys);

  // Drain: marks the node draining (new placements skip it), then migrates
  // every replica it hosts elsewhere. On success the node is retired when
  // `decommission` is set, else left drained-but-present. If any key cannot
  // be moved within the round budget the drain aborts gracefully: the node
  // returns to serving and keeps its remaining replicas (the keys already
  // moved stay moved — each flip was individually complete).
  sim::Task<bool> Drain(int node, bool decommission);

  // True while any migration is running — recycler safe-horizon gate: the
  // harvest chases out-of-place pointers exactly like a reader
  // (Recycler::set_repair_gate composes this with RepairService::InFlight).
  bool InFlight() const { return in_flight_ > 0; }

  uint64_t keys_moved() const { return keys_moved_; }
  uint64_t keys_skipped() const { return keys_skipped_; }
  uint64_t keys_aborted() const { return keys_aborted_; }
  uint64_t drains_completed() const { return drains_completed_; }
  uint64_t drains_aborted() const { return drains_aborted_; }
  uint64_t nodes_admitted() const { return nodes_admitted_; }
  uint64_t extents_moved() const { return extents_moved_; }

  const MigrationConfig& config() const { return config_; }

 private:
  // Destination-pick stack buffer bound (mirrors PlacementProbe::kMaxNodes).
  static constexpr size_t kMaxNodes = 256;

  // Deterministic destination pick: serving, not repairing, not already in
  // the layout. -1 when no node qualifies.
  int PickDestination(uint64_t key, const ObjectLayout* layout) const;

  // True when any live mapping still places a replica on `node`.
  bool HostsReplicas(int node) const;

  membership::MembershipService* membership_;
  index::IndexService* index_;
  Worker* worker_;
  LayoutProtocol protocol_;
  MigrationConfig config_;
  int in_flight_ = 0;
  uint64_t keys_moved_ = 0;
  uint64_t keys_skipped_ = 0;
  uint64_t keys_aborted_ = 0;
  uint64_t drains_completed_ = 0;
  uint64_t drains_aborted_ = 0;
  uint64_t nodes_admitted_ = 0;
  uint64_t extents_moved_ = 0;
};

}  // namespace swarm::repair

#endif  // SWARM_SRC_REPAIR_MIGRATION_H_

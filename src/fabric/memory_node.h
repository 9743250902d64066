// A passive disaggregated-memory node.
//
// The node is a byte array plus an extent/slab allocator
// (src/alloc/extent_allocator.h). It runs no protocol logic whatsoever — all
// intelligence lives in the clients, as required by SWARM's setting
// (CXL-style memory, or RDMA NICs without two-sided ops). The fabric layer
// decides *when* (in virtual time) each access executes; the node only
// performs the raw memory operation at that instant.

#ifndef SWARM_SRC_FABRIC_MEMORY_NODE_H_
#define SWARM_SRC_FABRIC_MEMORY_NODE_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/alloc/extent_allocator.h"
#include "src/fabric/verbs.h"
#include "src/sim/time.h"
#include "src/util/canary.h"

namespace swarm::fabric {

class MemoryNode {
 public:
  explicit MemoryNode(uint64_t capacity_bytes);

  // --- Raw access (invoked by the fabric at an op's execution event). ---
  void ReadInto(uint64_t addr, std::span<uint8_t> out) const;
  void WriteFrom(uint64_t addr, std::span<const uint8_t> data);
  uint64_t LoadWord(uint64_t addr) const;
  void StoreWord(uint64_t addr, uint64_t value);
  // Atomic 64-bit CAS. Returns the previous value; swaps iff it == expected.
  uint64_t CasWord(uint64_t addr, uint64_t expected, uint64_t desired);

  // --- Allocation (control plane; returned regions are zero-initialized). ---
  // Returns the base address of a fresh extent of `size` bytes with the given
  // power-of-two alignment (default 8), by best-fit over the coalescing free
  // map.
  uint64_t Allocate(uint64_t size, uint64_t align = 8);
  // Returns [addr, addr+size) to the allocator. Freed ranges sit in a
  // virtual-time quarantine (when a time source is wired via set_now_fn)
  // long enough that no straggler verb against the old owner can still be in
  // flight when the address is reused.
  void Free(uint64_t addr, uint64_t size);
  // Fixed-size slot in a slab extent (the per-replica object slots). Slots of
  // one size class are contiguous within their extent, so repair can harvest
  // and migration can fence a whole extent at once.
  uint64_t AllocSlot(uint64_t slot_bytes);
  bool FreeSlot(uint64_t addr);
  // Extent descriptor for a slab slot address (nullptr if not a slab slot).
  const alloc::SlabAllocator::Extent* SlotExtentOf(uint64_t addr) const {
    return slab_.ExtentOf(addr);
  }
  // Virtual-time source for the free quarantines (wired by Fabric).
  void set_now_fn(std::function<int64_t()> fn) {
    extent_.set_now_fn(fn);
    slab_.set_now_fn(std::move(fn));
  }

  // High-water footprint: 1 + the highest byte ever handed out. Monotone
  // across frees (Recover() memsets this range; Table 3 reports it).
  uint64_t bytes_allocated() const { return extent_.high_water(); }
  uint64_t live_bytes() const { return extent_.live_bytes(); }
  uint64_t capacity() const { return capacity_; }
  const alloc::ExtentAllocator& extent_allocator() const { return extent_; }

  // --- Failure injection. ---
  void Crash() { failed_ = true; }
  // A recovered node comes back empty: disaggregated DRAM loses its contents.
  // With `preserve_reservations` the allocation map survives (the cluster's
  // control plane remembers which regions belong to which objects), so every
  // pre-crash address stays reserved and a repair coordinator can write the
  // replicas' state back into the SAME locations — the crash-recover model.
  // Without it the bump pointer resets too (the crash-stop "replacement node"
  // model, where nothing will ever reference the old addresses again).
  void Recover(bool preserve_reservations = false);
  bool failed() const { return failed_; }

  // Repair fence: while set, the node rejects every verb except the repair
  // coordinator's (Qp::set_repair_channel). Closes the in-flight window
  // where a verb issued against the crashed node executes after its restart
  // and would observe wiped memory — clients must keep seeing kNodeFailed
  // until the node is repaired and readmitted.
  void set_repair_fenced(bool fenced) { repair_fenced_ = fenced; }
  bool repair_fenced() const { return repair_fenced_; }

  // Membership-epoch fence (§5.4 per-client QP revocation): the membership
  // service pushes its epoch to EVERY node on each repair-relevant
  // transition (crash, restart-for-repair, readmission). A verb stamped with
  // an older epoch is rejected with kStaleEpoch — it was issued by a client
  // whose view predates the transition, and trusting it would let an op in
  // flight across a whole crash-repair cycle land on freshly restored state
  // (the residual window the repair fence alone leaves open). The repair
  // coordinator's channel is exempt: it drives the transitions itself.
  void set_fence_epoch(uint64_t epoch) { fence_epoch_ = epoch; }
  uint64_t fence_epoch() const { return fence_epoch_; }
  // Under Canary::kNoEpochFence (src/util/canary.h) the node keeps LEARNING
  // the epoch but stops enforcing it — stale verbs land, and
  // stale_landings() counts how many the fence would have rejected (the
  // pre-fix exposure, also a handy diagnostic).
  uint64_t stale_landings() const { return stale_landings_; }

  // Whether a verb on a (non-)repair channel is rejected at execution.
  bool Rejects(bool repair_channel) const {
    return failed_ || (repair_fenced_ && !repair_channel);
  }
  // Full admission decision for a verb stamped with `verb_epoch` targeting
  // [addr, addr+len): kNodeFailed dominates (a dead node cannot NACK), then
  // the epoch fence, then region retirement (migrated-away extents).
  // Counts the pre-fix exposure; a verb's INTERMEDIATE events (staged write
  // halves, the write leg of a pipelined series) must use Admits() instead
  // so each stale verb lands in the counter exactly once.
  Status VerbStatus(bool repair_channel, uint64_t verb_epoch, uint64_t addr, uint64_t len) const {
    const Status s = Admits(repair_channel, verb_epoch, addr, len);
    if (s == Status::kOk && !repair_channel && verb_epoch < fence_epoch_) {
      ++stale_landings_;  // Pre-fix build: trusted anyway. Count the exposure.
    }
    return s;
  }
  // Same decision, no exposure accounting.
  Status Admits(bool repair_channel, uint64_t verb_epoch, uint64_t addr, uint64_t len) const {
    if (Rejects(repair_channel)) {
      return Status::kNodeFailed;
    }
    if (!repair_channel && verb_epoch < fence_epoch_ && !CanaryOn(Canary::kNoEpochFence)) {
      return Status::kStaleEpoch;
    }
    if (!repair_channel && !retired_.empty() && retired_.Overlaps(addr, len)) {
      return Status::kMovedReplica;
    }
    return Status::kOk;
  }

  // --- Region retirement (live extent migration). ---
  // Marks [addr, addr+len) as migrated away: every later non-repair-channel
  // verb touching the interval is NACKed with kMovedReplica. The migration
  // coordinator's repair channel stays exempt so it can harvest the frozen
  // final state. Retirement survives Recover(preserve_reservations): a
  // crash-repair cycle must not resurrect a region whose ownership moved.
  // The retired set is a coalescing interval map, so a migration can fence a
  // whole slab extent with ONE interval and later lift it slot-by-slot
  // (RestoreRegion removes the intersection, splitting as needed).
  void RetireRegion(uint64_t addr, uint64_t len);
  // Aborted migration (pre-remap) or retired-layout GC: lifts the fence so
  // the range is admissible (and reusable) again.
  void RestoreRegion(uint64_t addr, uint64_t len);
  bool RegionRetired(uint64_t addr, uint64_t len) const;
  size_t retired_region_count() const { return retired_.interval_count(); }

  // Extra per-op delay (simulates an overloaded or distant node).
  void set_extra_delay(sim::Time d) { extra_delay_ = d; }
  sim::Time extra_delay() const { return extra_delay_; }

 private:
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  // calloc-backed so untouched pages cost nothing (multi-GiB nodes are cheap
  // to model) and memory starts zeroed ("cleared buffers", §5.3.1). Allocate
  // re-zeroes on reuse to preserve the invariant.
  std::unique_ptr<uint8_t[], FreeDeleter> mem_;
  // 1 + the highest byte ever handed out. Unlike the allocator's
  // high_water() it survives Recover's reset, so an address handed out
  // before a crash-stop stays below it even if a straggler still writes
  // there. Every byte at or past it still reads zero from calloc.
  uint64_t handed_out_end_ = 0;
  uint64_t capacity_;
  alloc::ExtentAllocator extent_;  // Owns [64, capacity); 0 is null.
  alloc::SlabAllocator slab_;
  bool failed_ = false;
  bool repair_fenced_ = false;
  // Retired intervals, coalescing. O(log n) overlap checks keep admission
  // cheap even with thousands of long-lived migration fences.
  alloc::FreeMap retired_;
  uint64_t fence_epoch_ = 0;  // 0 = never fenced; every stamp passes.
  mutable uint64_t stale_landings_ = 0;
  sim::Time extra_delay_ = 0;
};

}  // namespace swarm::fabric

#endif  // SWARM_SRC_FABRIC_MEMORY_NODE_H_

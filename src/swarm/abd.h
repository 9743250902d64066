// DM-ABD baseline (§7, "Baselines"): a disaggregated key-value register
// replicated with the classic ABD protocol (Algorithm 1) using pure
// out-of-place updates — the "good engineering solution using known
// techniques" SWARM is compared against.
//
// Roundtrip structure (Table 2):
//  * update: 2 RTs — {read metadata for a fresh timestamp ∥ write the value
//    out-of-place} then CAS the metadata pointer at a majority.
//  * get: 2 RTs — read metadata at a majority, then chase the out-of-place
//    pointer (+1 RT write-back when the quorum disagrees).
//
// Out-of-place buffers are self-validating (hash of length+payload in the
// header) because, unlike In-n-Out, the buffer is written before its
// metadata word exists. All writers share one metadata slot per replica, so
// CAS retries pile up under contention (§7.8) — DM-ABD lacks §4.4's
// per-writer buffer array.

#ifndef SWARM_SRC_SWARM_ABD_H_
#define SWARM_SRC_SWARM_ABD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/task.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/worker.h"

namespace swarm {

// One ABD-replicated object bound to a worker. Uses the same ObjectLayout as
// SWARM objects, with meta_slots = 1 and no in-place region.
class AbdObject {
 public:
  AbdObject(Worker* worker, const ObjectLayout* layout, std::shared_ptr<ObjectCache> cache)
      : worker_(worker), layout_(layout), cache_(std::move(cache)) {}

  sim::Task<SgWriteResult> Write(std::span<const uint8_t> value);
  sim::Task<SgWriteResult> Delete();
  sim::Task<SgReadResult> Read();

  // Harvests this (source) layout's authoritative register state from its
  // surviving quorum and CAS-maxes it into `dst`'s replica `target` — the
  // exact observed word for tombstones, a freshly written out-of-place image
  // for values. Crash-recover rejoin repair (src/repair/) passes dst ==
  // layout_, with the target's node repair-excluded on the calling worker;
  // live migration (src/repair/migration.h) passes the replacement layout,
  // with the worker riding the repair channel (the vacated source slot is
  // region-fenced during the harvest). The image hash is salted with `dst`'s
  // metadata address, so the installed buffer self-validates there. Returns
  // false when no surviving quorum answered or the value bytes could not be
  // resolved (caller retries). Canary::kSkipTombstoneRepair
  // (src/util/canary.h) plants the drop-the-tombstones repair bug.
  sim::Task<bool> CopyReplicaTo(const ObjectLayout* dst, int target);

 private:

  sim::Task<SgWriteResult> WriteWord(Meta base, std::span<const uint8_t> value);

  // One update attempt; Write() wraps it in the membership-refresh-then-
  // retry loop for attempts failed on kStaleEpoch completions.
  sim::Task<SgWriteResult> WriteAttempt(std::span<const uint8_t> value, bool* retry_safe);

  Worker* worker_;
  const ObjectLayout* layout_;
  std::shared_ptr<ObjectCache> cache_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_ABD_H_

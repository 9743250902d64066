#include "src/repair/quorum_copy.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/swarm/inout.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/timestamp.h"
#include "src/util/canary.h"

namespace swarm::repair {

uint64_t MergeTslWord(uint64_t a, uint64_t b) {
  const TslWord wa(a);
  const TslWord wb(b);
  if (wa.counter() != wb.counter()) {
    return wa.counter() > wb.counter() ? a : b;
  }
  return std::min(a, b);
}

sim::Task<bool> CopyLocks(Worker* worker, const ObjectLayout* src, const ObjectLayout* dst,
                          int target) {
  const size_t region = static_cast<size_t>(src->tsl_region_bytes());
  const int writers = src->max_writers;
  // Harvest every readable replica's lock array under ONE doorbell: the reads
  // are independent, so serializing them (a doorbell and a full roundtrip
  // each) was pure repair-time overhead. Buffer storage is stable across the
  // await — vector-of-vectors growth moves the inner vector objects, never
  // their heap blocks, so the spans captured by the lazy verb tasks stay
  // valid.
  sim::PoolVec<sim::Bytes> bufs;
  sim::PoolVec<sim::Task<fabric::OpResult>> verbs;
  for (int r = 0; r < src->num_replicas; ++r) {
    const ReplicaLayout& rep = src->replicas[static_cast<size_t>(r)];
    if (worker->NodeQuorumExcluded(rep.node)) {
      continue;  // The node under repair itself.
    }
    bufs.emplace_back(region);
    verbs.push_back(worker->qp(rep.node).Read(rep.tsl_addr, bufs.back()));
  }
  sim::PoolVec<fabric::OpResult> results =
      co_await fabric::PostMany(worker->cpu(), worker->sim(), std::move(verbs));
  sim::PoolVec<uint64_t> merged(static_cast<size_t>(writers), 0);
  bool any = false;
  for (size_t r = 0; r < results.size(); ++r) {
    if (!results[r].ok()) {
      co_return false;  // Lock state may live at a single survivor.
    }
    for (int i = 0; i < writers; ++i) {
      uint64_t word;
      std::memcpy(&word, bufs[r].data() + static_cast<size_t>(i) * 8, 8);
      merged[static_cast<size_t>(i)] = MergeTslWord(merged[static_cast<size_t>(i)], word);
      any = any || word != 0;
    }
  }
  if (!any) {
    co_return true;  // No lock was ever taken on this object.
  }
  sim::Bytes out(region);
  std::memcpy(out.data(), merged.data(), region);
  const ReplicaLayout& d = dst->replicas[static_cast<size_t>(target)];
  fabric::OpResult res = co_await worker->qp(d.node).Write(d.tsl_addr, out);
  co_return res.ok();
}

sim::Task<bool> CopySafeGuessReplica(Worker* worker, std::shared_ptr<const ObjectLayout> src,
                                     const ObjectLayout* dst, int target) {
  const ObjectLayout* layout = src.get();
  QuorumMax reg(worker, layout, worker->SlotCacheFor(layout));
  const bool drop_tombstones = CanaryOn(Canary::kSkipTombstoneRepair);
  if (drop_tombstones) {
    // CANARY: deleted objects are not copied AT ALL — the probe must be a
    // weak read, because the strong read below write-backs the max (i.e.
    // stabilizes the tombstone at the survivors) as a side effect, which
    // would mask the injected bug.
    ReadOutcome probe = co_await reg.ReadQuorum(/*strong=*/false);
    if (probe.ok && probe.m.deleted()) {
      co_return true;
    }
  }
  ReadOutcome m = co_await reg.ReadQuorum(/*strong=*/true);
  if (!m.ok) {
    co_return false;  // No surviving quorum (or unstabilizable state) yet.
  }
  if (!m.m.empty()) {
    InOutReplica rep(worker, dst, target);
    const Meta word = Meta::Pack(m.m.counter(), m.m.tid(), m.m.verified(), 0);
    if (m.m.deleted()) {
      if (!drop_tombstones) {
        NodeMaxResult res = co_await rep.WriteVerifiedNode(word, {}, Meta());
        if (!res.ok()) {
          co_return false;
        }
      }
    } else {
      if (!m.value_ok) {
        co_return false;  // Out-of-place chase lost a race; retry the round.
      }
      NodeMaxResult res = co_await rep.WriteVerifiedNode(word, m.value, Meta());
      if (!res.ok()) {
        co_return false;
      }
    }
  }
  // Timestamp-lock state arbitrates guessed writes and must survive the slot
  // move too, or a lock majority that included the vacated slot silently
  // dissolves and both modes can acquire.
  co_return co_await CopyLocks(worker, layout, dst, target);
}

}  // namespace swarm::repair

#include "src/swarm/timestamp_lock.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>

#include "src/sim/sync.h"
#include "src/util/canary.h"

namespace swarm {
namespace {

struct LockPhase {
  sim::Counter ok;
  sim::Counter any;
  bool higher_seen = false;    // some CAS word held a timestamp > ts
  bool opposite_seen = false;  // some CAS word held (ts, ¬mode)
  int max_rtts = 0;

  explicit LockPhase(sim::Simulator* sim) : ok(sim), any(sim) {}
};

// One CAS word's loop (Algorithm 9, lines 5–9): CAS until the word holds a
// timestamp >= ts, remembering what was observed.
sim::Task<void> LockOneReplica(Worker* worker, const ObjectLayout* layout, int replica,
                               uint32_t owner_tid, uint32_t counter, LockMode mode,
                               std::shared_ptr<LockPhase> phase) {
  const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(replica)];
  // The protocol entry points (CheckWriterBound in safe_guess.cc) already
  // rejected out-of-range tids; this assert keeps the slab-neighbor CAS
  // (PR-9 seed 47000) from sneaking back in through a new caller. Under
  // Canary::kNoWriterBound chaos replays exercise the raw misconfiguration
  // deliberately — so the guard must follow the canary.
  assert(CanaryOn(Canary::kNoWriterBound) ||
         owner_tid < static_cast<uint32_t>(layout->max_writers));
  const uint64_t addr = rep.tsl_addr + static_cast<uint64_t>(owner_tid) * 8;
  fabric::Qp& qp = worker->qp(rep.node);
  const TslWord want = TslWord::Pack(counter, mode);

  TslWord seen;  // read[c], starts at bottom.
  int rtts = 0;
  bool ok = true;
  while (seen.counter() < counter) {
    const TslWord expected = seen;
    fabric::OpResult r = co_await qp.Cas(addr, expected.raw(), want.raw());
    ++rtts;
    if (!r.ok()) {
      ok = false;
      break;
    }
    seen = TslWord(r.old_value);
    if (seen == expected) {
      break;  // Our CAS applied; this word now records (ts, mode).
    }
  }

  if (ok) {
    if (seen.counter() > counter) {
      phase->higher_seen = true;
    }
    if (seen.counter() == counter && seen.mode() == Opposite(mode)) {
      phase->opposite_seen = true;
    }
    phase->max_rtts = std::max(phase->max_rtts, rtts);
    phase->ok.Add(1);
  }
  phase->any.Add(1);
}

}  // namespace

sim::Task<TryLockResult> TimestampLock::TryLock(uint32_t counter, LockMode mode) {
  TryLockResult result;
  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto phase = sim::MakePooled<LockPhase>(worker_->sim());
    // Algorithm 9 contacts every replica; only a majority must answer. A
    // repairing replica is skipped outright: its CAS words are mid-restore
    // and counting it could manufacture a majority the opposite mode already
    // holds among the survivors.
    std::array<int, kMaxReplicas> usable{};
    int n = 0;
    for (int r = 0; r < layout_->num_replicas; ++r) {
      if (!worker_->NodeQuorumExcluded(layout_->replicas[static_cast<size_t>(r)].node)) {
        usable[static_cast<size_t>(n++)] = r;
      }
    }
    // One doorbell rings the lock CAS at every usable replica.
    const bool reached = co_await worker_->BatchedQuorum(
        phase->ok, layout_->majority(), worker_->config().quorum_timeout, 0, n, [&](int i) {
          return LockOneReplica(worker_, layout_, usable[static_cast<size_t>(i)], owner_tid_,
                                counter, mode, phase);
        });
    if (!reached) {
      // A kStaleEpoch completion is a membership-staleness signal, never
      // evidence about lock state: re-validate the epoch, re-arm the QPs and
      // re-run the whole attempt (re-CASing (counter, mode) is idempotent).
      // This is exactly the retry that closes the §5.4 window — the stale
      // attempt's votes were rejected at the nodes, so they can never
      // complete a majority that straddles a crash-repair cycle.
      if (worker_->EpochRefreshNeeded() && attempt + 1 < kMaxAttempts) {
        // Bill the fenced attempt's CAS rounds plus the re-validation pull.
        result.rtts += phase->max_rtts + 1;
        co_await worker_->RefreshEpoch();
        continue;
      }
      result.rtts += phase->max_rtts;
      co_return result;  // No live majority: not acquired (safe).
    }
    result.quorum_ok = true;
    result.rtts += phase->max_rtts;
    result.acquired = !phase->higher_seen && !phase->opposite_seen;
    co_return result;
  }
  co_return result;
}

}  // namespace swarm

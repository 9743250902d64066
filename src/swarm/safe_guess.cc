#include "src/swarm/safe_guess.h"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "src/swarm/timestamp_lock.h"
#include "src/util/canary.h"

namespace swarm {
namespace {

// A layout's TSL region holds exactly max_writers lock words; a writer whose
// tid indexes past it CASes the NEIGHBORING slab slot's words, loses
// arbitrations it should win and reports kOk for writes that never took
// effect. That is a misconfiguration (ProtocolConfig::max_writers must cover
// every writer tid), so every mutating entry point checks before touching the
// fabric and aborts instead of corrupting an unrelated object.
void CheckWriterBound(Worker* worker, const ObjectLayout* layout) {
  if (CanaryOn(Canary::kNoWriterBound) ||
      worker->tid() < static_cast<uint32_t>(layout->max_writers)) {
    return;
  }
  std::fprintf(stderr,
               "safe_guess: writer tid=%u outside layout TSL bound max_writers=%d; "
               "ProtocolConfig.max_writers must cover every writer tid\n",
               worker->tid(), layout->max_writers);
  std::abort();
}

}  // namespace

sim::Task<SgWriteResult> SafeGuessObject::Write(std::span<const uint8_t> value) {
  CheckWriterBound(worker_, layout_);
  SgWriteResult result;
  QuorumMax reg(worker_, layout_, cache_);

  // Line 5: guess a fresh timestamp; the GUESSED word to install.
  const uint32_t guess = worker_->clock().Guess();
  const Meta w = Meta::Pack(guess, worker_->tid(), /*verified=*/false, 0);

  // Line 6: in parallel, write w and read M — one roundtrip.
  WriteReadOutcome out = co_await reg.WriteAndRead(w, value);
  result.rtts += out.rtts;
  if (!out.ok) {
    if (out.moved && !out.effect_possible) {
      // Every attempt bounced off a migration fence with zero effect: the
      // caller may re-locate and re-execute this write on the new layout.
      result.status = SgStatus::kMoved;
    }
    co_return result;  // Else kUnavailable: possibly applied, never re-execute.
  }

  if (out.m.deleted()) {
    // The object carries a tombstone higher than any guess: the write cannot
    // take effect (§5.3.3 turns this into a cache flush + retry upstream).
    // Stabilize the tombstone at a MAJORITY before reporting the deletion:
    // it may sit at a minority (a deleter that died mid-delete), and acting
    // on it while our just-installed guessed word stays readable elsewhere
    // would let readers commit this very write after the key reported
    // not-found. ReadQuorum's inner_write does the same for reads.
    int fence_rtts = 0;
    const Meta fence = Meta::Pack(out.m.counter(), out.m.tid(), true, 0);
    const bool fenced = co_await reg.WriteVerified(fence, {}, &fence_rtts);
    result.rtts += fence_rtts;
    if (!fenced) {
      result.status = SgStatus::kUnavailable;
      co_return result;
    }
    // The bounce must ARBITRATE like the slow path before the caller may
    // re-execute this value on a successor object (§5.3.3's cache-flush
    // retry): our guessed word was installed before we observed the
    // tombstone, and a reader that deemed it fresh may commit it — a READ
    // lock on the guessed timestamp is exactly that commitment. Reporting
    // kDeleted and letting the caller retry would then apply ONE update
    // TWICE, observably (committed here, re-executed on the re-inserted
    // key). Chaos caught this double-apply once arrival-order NIC service
    // let a reader's confirm+lock straddle long delay spikes. WRITE-lock the
    // guess: acquired ⇒ no reader can ever commit it, the retry is safe
    // (kDeleted); lost ⇒ the write took effect before the object died and
    // the caller must NOT re-execute (kOk, ordered just before the delete).
    TimestampLock bounce_lock(worker_, layout_, worker_->tid());
    TryLockResult bounce = co_await bounce_lock.TryLock(guess, LockMode::kWrite);
    result.rtts += bounce.rtts;
    if (!bounce.quorum_ok) {
      result.status = SgStatus::kUnavailable;  // Unknown: recorded as pending.
      co_return result;
    }
    if (!bounce.acquired) {
      result.status = SgStatus::kOk;
      result.lock_lost = true;
      co_return result;
    }
    result.status = SgStatus::kDeleted;
    co_return result;
  }

  if (TsLessEq(out.m, w)) {
    // Line 7: fast path — the guess was fresh and our write linearized. The
    // whole phase cost ONE amortized submit_cost: the per-replica verb pairs
    // rode a single doorbell inside WriteAndRead (§7.2).
    // Line 8: promote to VERIFIED in the background to speed up readers (the
    // promotion CASes ride one doorbell too).
    result.status = SgStatus::kOk;
    result.fast_path = true;
    sim::Spawn(QuorumMax::Promote(worker_, layout_, out.installed,
                                  sim::Bytes(value.begin(), value.end()), cache_));
    co_return result;
  }

  // Line 9: slow path — the guess may be stale. Re-sync the clock (§6).
  worker_->clock().ObserveStale(out.m.counter());

  // Line 10: try to lock readers out of the guessed timestamp.
  TimestampLock lock(worker_, layout_, worker_->tid());
  TryLockResult locked = co_await lock.TryLock(guess, LockMode::kWrite);
  result.rtts += locked.rtts;
  if (!locked.quorum_ok) {
    co_return result;  // No live majority.
  }
  if (!locked.acquired) {
    // A reader locked our guessed timestamp in READ mode: it deemed the
    // guess fresh and committed to (or already returned) our value. The
    // write stands as-is.
    result.status = SgStatus::kOk;
    result.lock_lost = true;
    co_return result;
  }

  // Line 11: no reader can ever observe the guessed timestamp now; re-execute
  // with a provably fresh timestamp, directly VERIFIED.
  // clock().Guess() is now > out.m.counter() thanks to ObserveStale, which
  // also keeps per-writer timestamps strictly monotonic (Assumption 1).
  const uint32_t fresh = worker_->clock().Guess();
  const Meta w2 = Meta::Pack(fresh, worker_->tid(), /*verified=*/true, 0);
  int vw_rtts = 0;
  const bool ok = co_await reg.WriteVerified(w2, value, &vw_rtts);
  result.rtts += vw_rtts;
  result.status = ok ? SgStatus::kOk : SgStatus::kUnavailable;
  co_return result;
}

sim::Task<SgWriteResult> SafeGuessObject::Delete() {
  CheckWriterBound(worker_, layout_);
  SgWriteResult result;
  QuorumMax reg(worker_, layout_, cache_);
  const Meta tombstone = Meta::Tombstone(worker_->tid());
  // The combined write+read phase installs the tombstone AND returns the
  // quorum's ts-max excluding our own write, in the same roundtrip. If that
  // max is already a tombstone, another deleter finished before us — this
  // object was dead when we hit it, so the caller's mapping may be stale
  // (the key can live on under a newer generation, §5.3.4) and the caller
  // must re-locate. Quorum intersection makes the detection reliable: a
  // fully deleted object carries the foreign tombstone at a majority.
  WriteReadOutcome wr = co_await reg.WriteAndRead(tombstone, {});
  result.rtts = wr.rtts;
  result.fast_path = wr.rtts <= 1;
  if (!wr.ok) {
    // Same re-execution gate as Write: only a provably effect-free bounce off
    // a migration fence may be retried against the new layout.
    result.status =
        (wr.moved && !wr.effect_possible) ? SgStatus::kMoved : SgStatus::kUnavailable;
  } else if (wr.m.deleted()) {
    result.status = SgStatus::kDeleted;
  } else {
    result.status = SgStatus::kOk;
  }
  co_return result;
}

sim::Task<SgReadResult> SafeGuessObject::Read() {
  SgReadResult result;
  QuorumMax reg(worker_, layout_, cache_);

  // Line 15: tuples seen so far, keyed by writer id (bounded by W).
  struct Seen {
    bool present = false;
    uint64_t write_key = 0;
    sim::Bytes value;
  };
  std::array<Seen, kMaxTid + 1> seen{};

  const int max_iters = 2 * layout_->max_writers + 1;
  for (int iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    // Line 16: read M (reliable max-register read with write-back).
    ReadOutcome m = co_await reg.ReadQuorum(/*strong=*/true);
    result.rtts += m.rtts;
    if (!m.ok) {
      if (m.moved) {
        // Migration fence: this layout no longer owns the object. Reads have
        // no effect, so re-locating and re-reading is always safe.
        result.status = SgStatus::kMoved;
        co_return result;
      }
      // Includes the unlucky case where the max's out-of-place buffer was
      // recycled mid-read; retry unless the fabric has lost a majority. A
      // straggler kStaleEpoch completion may have revoked a QP after
      // ReadQuorum's own refresh-retry gave up — re-validate before the next
      // iteration rather than reading through dead QPs.
      if (worker_->EpochRefreshNeeded()) {
        co_await worker_->RefreshEpoch();
      }
      continue;
    }
    if (m.m.empty()) {
      result.status = SgStatus::kNotFound;
      co_return result;
    }
    if (m.m.deleted()) {
      result.status = SgStatus::kDeleted;
      co_return result;
    }
    if (!m.value_ok) {
      continue;
    }
    result.used_inplace = m.used_inplace;

    // Line 18: VERIFIED tuples are immediately safe.
    if (m.m.verified()) {
      result.status = SgStatus::kOk;
      result.value = std::move(m.value);
      result.fast_path = (iter == 0 && m.rtts <= 1);
      co_return result;
    }

    Seen& s = seen[m.m.tid()];
    if (s.present && s.write_key == m.m.same_write_key()) {
      // Line 19: same GUESSED tuple seen in two sequential reads — its
      // timestamp was fresh. Try to lock out a re-execution (line 20).
      TimestampLock lock(worker_, layout_, m.m.tid());
      TryLockResult locked = co_await lock.TryLock(m.m.counter(), LockMode::kRead);
      result.rtts += locked.rtts;
      if (locked.acquired) {
        // Line 21: mark VERIFIED in the background to speed up future reads.
        std::array<Meta, kMaxReplicas> words{};
        for (int r = 0; r < layout_->num_replicas; ++r) {
          const auto idx = static_cast<size_t>(r);
          if (m.node_ok[idx] &&
              m.node_words[idx].same_write_key() == m.m.same_write_key()) {
            words[idx] = m.node_words[idx];
          }
        }
        sim::Spawn(QuorumMax::Promote(worker_, layout_, words, m.value));
        // Line 22.
        result.status = SgStatus::kOk;
        result.value = std::move(m.value);
        co_return result;
      }
      // Lock failed: the writer saw a higher timestamp; the next iteration
      // is guaranteed to discover a new tuple (Appendix C.2).
    } else if (s.present) {
      // Line 23–24: a second, different tuple from the same writer — the
      // first write must have completed, so its value is safe to return.
      result.status = SgStatus::kOk;
      result.value = std::move(s.value);
      co_return result;
    }

    // Line 25.
    s.present = true;
    s.write_key = m.m.same_write_key();
    s.value = std::move(m.value);
  }

  // Unreachable for well-formed configurations (Appendix C.2 bounds the loop
  // at 2W+1 iterations); report unavailability rather than looping forever.
  co_return result;
}

}  // namespace swarm

#include "src/swarm/abd.h"

#include <algorithm>
#include <cstring>

#include "src/hash/xxhash.h"
#include "src/sim/sync.h"
#include "src/util/canary.h"

namespace swarm {
namespace {

// Out-of-place image for ABD: self-validating [hash][len][data]. The hash is
// seeded with the object's per-replica metadata address so that a recycled
// buffer serving a DIFFERENT object never validates (DM-ABD writes buffers
// before their timestamp exists, so the timestamp cannot be in the hash).
uint64_t AbdHash(uint64_t meta_addr, uint64_t len, std::span<const uint8_t> data) {
  return hash::HashMetaAndValue(hash::Mix64(meta_addr, len), data);
}

sim::Bytes AbdOopImage(uint64_t meta_addr, std::span<const uint8_t> value) {
  sim::Bytes image(kOopHeaderBytes + value.size());
  const uint64_t len = value.size();
  const uint64_t h = AbdHash(meta_addr, len, value);
  std::memcpy(image.data(), &h, 8);
  std::memcpy(image.data() + 8, &len, 8);
  std::memcpy(image.data() + 16, value.data(), value.size());
  return image;
}

struct Phase1State {
  sim::Counter ok;
  std::array<Meta, kMaxReplicas> words{};
  std::array<bool, kMaxReplicas> oks{};
  std::array<uint32_t, kMaxReplicas> oop_idx{};
  sim::Bytes value;  // Images are built per replica (per-node hash).
  bool moved = false;          // Some replica NACKed kMovedReplica.

  explicit Phase1State(sim::Simulator* s) : ok(s) {}
};

// Phase 1 of an update at one replica: write the value out-of-place while
// reading the metadata word, in one roundtrip.
sim::Task<void> Phase1One(Worker* worker, const ObjectLayout* layout, int r,
                          std::shared_ptr<Phase1State> ph) {
  const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
  fabric::Qp& qp = worker->qp(rep.node);
  const auto idx = static_cast<size_t>(r);

  const uint32_t oop = worker->pool(rep.node).AllocIdx();
  ph->oop_idx[idx] = oop;

  std::array<uint8_t, 8> word_buf{};
  sim::Bytes image = AbdOopImage(rep.meta_addr, ph->value);
  auto wr = qp.Write(static_cast<uint64_t>(oop) * kOopGranuleBytes, image);
  auto rd = qp.Read(rep.meta_addr, word_buf);
  auto [w_res, r_res] =
      co_await fabric::PostBoth(worker->cpu(), worker->sim(), std::move(wr), std::move(rd));
  if (!w_res.ok() || !r_res.ok()) {
    if (w_res.status == fabric::Status::kNodeFailed || r_res.status == fabric::Status::kNodeFailed) {
      worker->MarkNodeFailed(rep.node);
    }
    if (w_res.status == fabric::Status::kMovedReplica ||
        r_res.status == fabric::Status::kMovedReplica) {
      ph->moved = true;
    }
    co_return;
  }
  uint64_t word;
  std::memcpy(&word, word_buf.data(), 8);
  ph->words[idx] = Meta(word);
  ph->oks[idx] = true;
  ph->ok.Add(1);
}

struct CasState {
  sim::Counter ok;
  int max_retries = 0;
  // ts-max over the register words the CAS loops found already installed
  // (never our own `desired`): lets Delete detect a preceding tombstone.
  Meta seen_max;
  // Retry-safety bookkeeping for NON-idempotent installs (an ABD update's
  // fresh-timestamp word): `completions` counts finished CasMaxOne tasks and
  // `maybe_applied` is set when any of them installed its word (definite) or
  // completed kNodeFailed (a dropped ack may hide an install). An attempt
  // may only be re-executed when every task completed and none could have
  // applied — otherwise a re-install could resurrect an already-observed,
  // since-overwritten value under a fresh timestamp.
  int completions = 0;
  bool maybe_applied = false;
  bool moved = false;  // Some CAS bounced off a migration fence.

  explicit CasState(sim::Simulator* s) : ok(s) {}
};

// Installs `desired` at one replica with Algorithm 7's CAS-max loop,
// recycling the superseded (or unused) out-of-place buffer.
sim::Task<void> CasMaxOne(Worker* worker, const ObjectLayout* layout, int r, Meta expected,
                          Meta desired, std::shared_ptr<CasState> ph) {
  const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
  fabric::Qp& qp = worker->qp(rep.node);
  OopPool& pool = worker->pool(rep.node);
  Meta prev = expected;
  int retries = -1;
  bool installed = false;
  while (TsLess(prev, desired)) {
    fabric::OpResult res = co_await qp.Cas(rep.meta_addr, prev.raw(), desired.raw());
    ++retries;
    if (!res.ok()) {
      if (res.status == fabric::Status::kNodeFailed) {
        ph->maybe_applied = true;  // A dropped ack may hide an applied CAS.
      }
      if (res.status == fabric::Status::kMovedReplica) {
        ph->moved = true;  // Migration fence: the CAS provably did not apply.
      }
      ++ph->completions;
      co_return;
    }
    const Meta seen(res.old_value);
    // Only words the node itself returned count as observed — the caller's
    // cached `expected` may be stale and must never feed detection logic.
    ph->seen_max = TsMax(ph->seen_max, seen);
    if (seen == prev) {
      installed = true;
      if (!prev.empty() && !prev.deleted()) {
        pool.Free(prev.oop());  // Superseded buffer.
      }
      break;
    }
    prev = seen;
  }
  if (!installed && !desired.deleted()) {
    pool.Free(desired.oop());  // Our buffer never became reachable.
  }
  if (installed) {
    ph->maybe_applied = true;
  }
  ph->max_retries = std::max(ph->max_retries, std::max(retries, 0));
  ++ph->completions;
  ph->ok.Add(1);
}

// Write-back at one replica: out-of-place image + CAS, pipelined.
sim::Task<void> RepairOne(Worker* worker, const ObjectLayout* layout, int r, Meta base,
                          std::shared_ptr<Phase1State> img, std::shared_ptr<CasState> ph) {
  const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
  fabric::Qp& qp = worker->qp(rep.node);
  OopPool& pool = worker->pool(rep.node);
  const uint32_t oop = pool.AllocIdx();
  const Meta desired = base.WithOop(oop);
  sim::Bytes image = AbdOopImage(rep.meta_addr, img->value);
  Meta prev;
  bool installed = false;
  fabric::OpResult res = co_await qp.WriteThenCas(static_cast<uint64_t>(oop) * kOopGranuleBytes,
                                                  image, rep.meta_addr, 0, desired.raw());
  if (!res.ok()) {
    if (res.status == fabric::Status::kMovedReplica) {
      ph->moved = true;
    }
    co_return;
  }
  prev = Meta(res.old_value);
  installed = prev.raw() == 0;
  while (!installed && TsLess(prev, desired)) {
    res = co_await qp.Cas(rep.meta_addr, prev.raw(), desired.raw());
    if (!res.ok()) {
      if (res.status == fabric::Status::kMovedReplica) {
        ph->moved = true;
      }
      co_return;
    }
    const Meta seen(res.old_value);
    if (seen == prev) {
      installed = true;
      if (!prev.empty() && !prev.deleted()) {
        pool.Free(prev.oop());
      }
      break;
    }
    prev = seen;
  }
  if (!installed) {
    pool.Free(desired.oop());
  }
  ph->ok.Add(1);
}

// Ensures the tombstone `m` — observed in `ph` at possibly only a minority
// (a deleter that died mid-delete) — reaches a majority before the caller
// acts on the deletion. Without this, quorums that miss the tombstone keep
// resurrecting the overwritten (or a concurrently written) value. Returns
// false when no majority acked; `rtts` is bumped iff a repair wave ran.
sim::Task<bool> FenceTombstone(Worker* worker, const ObjectLayout* layout,
                               const std::array<int, kMaxReplicas>& order, int usable,
                               std::shared_ptr<Phase1State> ph, Meta m, int* rtts,
                               bool* moved = nullptr) {
  const int maj = layout->majority();
  int holders = 0;
  for (int r = 0; r < layout->num_replicas; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (ph->oks[idx] && ph->words[idx].ts_order_key() == m.ts_order_key()) {
      ++holders;
    }
  }
  if (holders >= maj) {
    co_return true;
  }
  const Meta repair = Meta::Pack(m.counter(), m.tid(), m.verified(), 0);
  auto cs = sim::MakePooled<CasState>(worker->sim());
  ++*rtts;
  const bool fenced = co_await worker->BatchedQuorum(
      cs->ok, maj, worker->config().quorum_timeout, 0, usable, [&](int i) {
        const int r = order[static_cast<size_t>(i)];
        return CasMaxOne(worker, layout, r, ph->words[static_cast<size_t>(r)], repair, cs);
      });
  if (moved != nullptr) {
    *moved = cs->moved;
  }
  co_return fenced;
}

// Live replicas first, known-failed last; repair-excluded replicas dropped
// entirely (only order[0..usable) may be contacted). Returns the live count.
int LivePreferred(Worker* worker, const ObjectLayout* layout, std::array<int, kMaxReplicas>& order,
                  int* usable) {
  int live = 0;
  std::array<int, kMaxReplicas> dead{};
  int num_dead = 0;
  for (int r = 0; r < layout->num_replicas; ++r) {
    const int node = layout->replicas[static_cast<size_t>(r)].node;
    if (worker->NodeQuorumExcluded(node)) {
      continue;
    }
    if (worker->NodeKnownFailed(node)) {
      dead[static_cast<size_t>(num_dead++)] = r;
    } else {
      order[static_cast<size_t>(live++)] = r;
    }
  }
  for (int i = 0; i < num_dead; ++i) {
    order[static_cast<size_t>(live + i)] = dead[static_cast<size_t>(i)];
  }
  *usable = live + num_dead;
  return live;
}

}  // namespace

sim::Task<SgWriteResult> AbdObject::Write(std::span<const uint8_t> value) {
  bool retry_safe = false;
  SgWriteResult result = co_await WriteAttempt(value, &retry_safe);
  // Membership-refresh-then-retry: an attempt that failed because its verbs
  // bounced off an epoch fence (kStaleEpoch revoked a QP) proves nothing
  // about the register — only a genuine lost majority surfaces as
  // unavailability. The retry is gated on `retry_safe`: an ABD update
  // installs a FRESH timestamp per attempt, so re-running it is only sound
  // when the failed attempt provably installed nothing anywhere (all its
  // CASes completed unapplied — fenced or observed-superseded). Otherwise a
  // re-install could resurrect a value a reader already observed and a later
  // write already overwrote; such attempts stay kUnavailable, i.e. a
  // possibly-applied pending write, which is exactly what they are.
  for (int retry = 0; retry < 2 && result.status == SgStatus::kUnavailable && retry_safe &&
                      worker_->EpochRefreshNeeded();
       ++retry) {
    co_await worker_->RefreshEpoch();
    const int prior_rtts = result.rtts;
    result = co_await WriteAttempt(value, &retry_safe);
    result.rtts += prior_rtts;
  }
  co_return result;
}

sim::Task<SgWriteResult> AbdObject::WriteAttempt(std::span<const uint8_t> value,
                                                 bool* retry_safe) {
  *retry_safe = false;
  SgWriteResult result;
  auto ph = sim::MakePooled<Phase1State>(worker_->sim());
  ph->value.assign(value.begin(), value.end());

  std::array<int, kMaxReplicas> order{};
  int usable = 0;
  LivePreferred(worker_, layout_, order, &usable);
  const int maj = layout_->majority();
  const int first_wave = std::min(maj, usable);

  // Phase 1: out-of-place writes in parallel with the timestamp discovery
  // read (DM-ABD "hides latency by writing out-of-place data in parallel to
  // finding a fresh timestamp") — one doorbell per wave.
  auto phase1 = [&](int i) {
    return Phase1One(worker_, layout_, order[static_cast<size_t>(i)], ph);
  };
  bool got = co_await worker_->BatchedQuorum(ph->ok, maj, worker_->config().escalation_timeout, 0,
                                             first_wave, phase1);
  result.rtts = 1;
  if (!got && !worker_->EpochRefreshNeeded() && !ph->moved) {
    ++result.rtts;
    got = co_await worker_->BatchedQuorum(ph->ok, maj, worker_->config().quorum_timeout,
                                          first_wave, usable - first_wave, phase1);
  }
  if (!got) {
    // Phase 1 has no reachable effect (no metadata word points at the
    // out-of-place buffers yet): re-running the attempt is always safe —
    // including against a replacement layout after a migration fence.
    *retry_safe = true;
    if (ph->moved) {
      result.status = SgStatus::kMoved;
    }
    co_return result;
  }

  Meta m;
  for (int r = 0; r < layout_->num_replicas; ++r) {
    if (ph->oks[static_cast<size_t>(r)]) {
      m = TsMax(m, ph->words[static_cast<size_t>(r)]);
    }
  }
  if (m.deleted()) {
    // Same repair as the read path: the tombstone must reach a majority
    // before the caller unmaps/fails, or disjoint quorums resurrect values.
    bool fence_moved = false;
    const bool fenced = co_await FenceTombstone(worker_, layout_, order, usable, ph, m,
                                                &result.rtts, &fence_moved);
    // Re-installing the identical tombstone word is idempotent.
    *retry_safe = !fenced;
    if (fenced) {
      result.status = SgStatus::kDeleted;
    } else {
      // Our phase-1 buffers are unreachable and the fence CASes carry a
      // FOREIGN tombstone, so nothing of this op can have taken effect:
      // a migration-fence bounce is safe to re-execute after re-locating
      // (the replacement layout carries the harvested tombstone).
      result.status = fence_moved ? SgStatus::kMoved : SgStatus::kUnavailable;
    }
    co_return result;
  }

  // Phase 2: install (m.counter + 1, tid) at a majority.
  const Meta fresh = Meta::Pack(m.counter() + 1, worker_->tid(), /*verified=*/true, 0);
  auto cs = sim::MakePooled<CasState>(worker_->sim());
  int launched = 0;
  {
    fabric::CpuBatch batch(worker_->cpu());  // One doorbell for all installs.
    for (int r = 0; r < layout_->num_replicas; ++r) {
      const auto idx = static_cast<size_t>(r);
      if (!ph->oks[idx]) {
        continue;  // Only replicas whose out-of-place buffer we populated.
      }
      sim::Spawn(
          CasMaxOne(worker_, layout_, r, ph->words[idx], fresh.WithOop(ph->oop_idx[idx]), cs));
      ++launched;
    }
  }
  ++result.rtts;
  got = co_await cs->ok.WaitFor(std::min(maj, launched), worker_->config().quorum_timeout);
  result.rtts += cs->max_retries;
  // Phase-2 failure is re-executable only when every CAS task finished and
  // none could have installed the fresh-timestamp word (see CasState).
  *retry_safe = !got && cs->completions == launched && !cs->maybe_applied;
  if (got) {
    result.status = SgStatus::kOk;
  } else if (*retry_safe && cs->moved) {
    // Every install bounced off a migration fence with zero effect: the
    // caller may re-locate and re-execute on the replacement layout.
    result.status = SgStatus::kMoved;
  } else {
    result.status = SgStatus::kUnavailable;
  }
  co_return result;
}

sim::Task<SgWriteResult> AbdObject::Delete() {
  SgWriteResult result;
  const Meta tombstone = Meta::Tombstone(worker_->tid());
  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto cs = sim::MakePooled<CasState>(worker_->sim());
    std::array<int, kMaxReplicas> order{};
    int usable = 0;
    LivePreferred(worker_, layout_, order, &usable);
    const int maj = layout_->majority();
    ++result.rtts;
    // Delete needs every replica's actual pre-delete word (fed to seen_max
    // from CAS results only) to tell "we deleted the live object" from "this
    // object was already dead". A non-tombstone cache seed is safe: the
    // tombstone compares above it, so the loop always issues at least one CAS
    // and observes the node's word. A CACHED TOMBSTONE would short-circuit
    // the loop with no observation, so fall back to the empty seed there.
    const bool got = co_await worker_->BatchedQuorum(
        cs->ok, maj, worker_->config().quorum_timeout, 0, usable, [&](int i) {
          const auto idx = static_cast<size_t>(order[static_cast<size_t>(i)]);
          const Meta seed = cache_->slot[idx].deleted() ? Meta() : cache_->slot[idx];
          return CasMaxOne(worker_, layout_, order[static_cast<size_t>(i)], seed, tombstone, cs);
        });
    result.rtts += cs->max_retries;
    if (!got && worker_->EpochRefreshNeeded() && attempt + 1 < kMaxAttempts) {
      // Fenced CASes never applied and observed nothing: refresh and retry.
      co_await worker_->RefreshEpoch();
      continue;
    }
    if (got && cs->seen_max.deleted() &&
        cs->seen_max.same_write_key() != tombstone.same_write_key()) {
      // Another deleter's tombstone was already installed: this object was
      // dead before our op, so the caller's mapping may be stale (deleted and
      // re-inserted) and must be re-validated against the index. Quorum
      // intersection guarantees a fully deleted object shows the foreign
      // tombstone to at least one of our acked CASes.
      result.status = SgStatus::kDeleted;
    } else if (got) {
      result.status = SgStatus::kOk;
    } else if (cs->moved && cs->completions == usable && !cs->maybe_applied) {
      // All tombstone CASes bounced off a migration fence unapplied: safe to
      // re-execute the delete against the replacement layout.
      result.status = SgStatus::kMoved;
    } else {
      result.status = SgStatus::kUnavailable;
    }
    co_return result;
  }
  co_return result;
}

sim::Task<bool> AbdObject::CopyReplicaTo(const ObjectLayout* dst, int target) {
  // Phase 1: the surviving SOURCE quorum's metadata words. For crash repair
  // the caller's worker has the target's node repair-excluded, so `order`
  // never includes it; for migration the vacated source slot is
  // region-fenced and the worker rides the fence-exempt repair channel.
  auto ph = sim::MakePooled<Phase1State>(worker_->sim());
  auto rd_one = [](Worker* worker, const ObjectLayout* layout, int r,
                   std::shared_ptr<Phase1State> st) -> sim::Task<void> {
    const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
    std::array<uint8_t, 8> buf{};
    fabric::OpResult res = co_await worker->qp(rep.node).Read(rep.meta_addr, buf);
    if (!res.ok()) {
      co_return;
    }
    uint64_t word;
    std::memcpy(&word, buf.data(), 8);
    st->words[static_cast<size_t>(r)] = Meta(word);
    st->oks[static_cast<size_t>(r)] = true;
    st->ok.Add(1);
  };
  std::array<int, kMaxReplicas> order{};
  int usable = 0;
  LivePreferred(worker_, layout_, order, &usable);
  const int maj = layout_->majority();
  const bool got = co_await worker_->BatchedQuorum(
      ph->ok, maj, worker_->config().quorum_timeout, 0, usable,
      [&](int i) { return rd_one(worker_, layout_, order[static_cast<size_t>(i)], ph); });
  if (!got) {
    co_return false;  // No surviving quorum right now.
  }
  Meta m;
  for (int r = 0; r < layout_->num_replicas; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (ph->oks[idx]) {
      m = TsMax(m, ph->words[idx]);
    }
  }
  if (m.empty()) {
    co_return true;  // Nothing ever committed: the wiped replica is correct.
  }
  auto cs = sim::MakePooled<CasState>(worker_->sim());
  if (m.deleted()) {
    if (CanaryOn(Canary::kSkipTombstoneRepair)) {
      co_return true;  // Canary bug: the tombstone never reaches the node.
    }
    // Tombstone stabilization: restore the EXACT tombstone word so deleted
    // objects cannot resurrect through a quorum that pairs the rejoined
    // replica with a stale survivor.
    co_await CasMaxOne(worker_, dst, target, Meta(), m, cs);
    co_return cs->ok.count() > 0;
  }

  // Phase 2: resolve m's bytes from a surviving holder.
  auto img = sim::MakePooled<Phase1State>(worker_->sim());
  bool value_ok = false;
  for (int r = 0; r < layout_->num_replicas && !value_ok; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (!ph->oks[idx] || ph->words[idx].same_write_key() != m.same_write_key() ||
        ph->words[idx].oop() == 0) {
      continue;
    }
    const ReplicaLayout& rep = layout_->replicas[idx];
    sim::Bytes buf(kOopHeaderBytes + layout_->max_value);
    fabric::OpResult res = co_await worker_->qp(rep.node).Read(ph->words[idx].oop_addr(), buf);
    if (!res.ok()) {
      continue;
    }
    uint64_t h;
    uint64_t len;
    std::memcpy(&h, buf.data(), 8);
    std::memcpy(&len, buf.data() + 8, 8);
    if (len <= layout_->max_value) {
      std::span<const uint8_t> data(buf.data() + kOopHeaderBytes, static_cast<size_t>(len));
      if (AbdHash(rep.meta_addr, len, data) == h) {
        value_ok = true;
        img->value.assign(data.begin(), data.end());
      }
    }
  }
  if (!value_ok) {
    co_return false;  // Buffer torn or recycled under us: caller retries.
  }

  // Phase 3: install (word, fresh image) at the destination replica.
  const Meta base = Meta::Pack(m.counter(), m.tid(), m.verified(), 0);
  co_await RepairOne(worker_, dst, target, base, img, cs);
  co_return cs->ok.count() > 0;
}

sim::Task<SgReadResult> AbdObject::Read() {
  SgReadResult result;
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++result.iterations;
    if (worker_->EpochRefreshNeeded()) {
      // A previous phase's verbs bounced off an epoch fence: re-validate and
      // re-arm before this attempt — the bounced completions are membership
      // staleness, not evidence about the register.
      co_await worker_->RefreshEpoch();
    }
    // Phase 1: read the metadata word at a majority.
    auto ph = sim::MakePooled<Phase1State>(worker_->sim());
    auto rd_one = [](Worker* worker, const ObjectLayout* layout, int r,
                     std::shared_ptr<Phase1State> st) -> sim::Task<void> {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      std::array<uint8_t, 8> buf{};
      fabric::OpResult res = co_await worker->qp(rep.node).Read(rep.meta_addr, buf);
      if (!res.ok()) {
        if (res.status == fabric::Status::kNodeFailed) {
          worker->MarkNodeFailed(rep.node);
        }
        if (res.status == fabric::Status::kMovedReplica) {
          st->moved = true;
        }
        co_return;
      }
      uint64_t word;
      std::memcpy(&word, buf.data(), 8);
      st->words[static_cast<size_t>(r)] = Meta(word);
      st->oks[static_cast<size_t>(r)] = true;
      st->ok.Add(1);
    };

    std::array<int, kMaxReplicas> order{};
    int usable = 0;
    LivePreferred(worker_, layout_, order, &usable);
    const int maj = layout_->majority();
    const int first_wave = std::min(maj, usable);
    auto read_wave = [&](int i) {
      return rd_one(worker_, layout_, order[static_cast<size_t>(i)], ph);
    };
    bool got = co_await worker_->BatchedQuorum(ph->ok, maj,
                                               worker_->config().escalation_timeout, 0,
                                               first_wave, read_wave);
    ++result.rtts;
    if (!got && !worker_->EpochRefreshNeeded() && !ph->moved) {
      ++result.rtts;
      got = co_await worker_->BatchedQuorum(ph->ok, maj, worker_->config().quorum_timeout,
                                            first_wave, usable - first_wave, read_wave);
    }
    if (!got) {
      if (ph->moved) {
        // Migration fence: re-locate via the index (reads are always safe
        // to re-execute).
        result.status = SgStatus::kMoved;
        co_return result;
      }
      if (worker_->EpochRefreshNeeded() && attempt + 1 < kMaxAttempts) {
        continue;  // Fence-induced: the next attempt refreshes and retries.
      }
      co_return result;  // No live majority.
    }

    Meta m;
    int holders = 0;
    for (int r = 0; r < layout_->num_replicas; ++r) {
      const auto idx = static_cast<size_t>(r);
      if (ph->oks[idx]) {
        m = TsMax(m, ph->words[idx]);
      }
    }
    for (int r = 0; r < layout_->num_replicas; ++r) {
      const auto idx = static_cast<size_t>(r);
      if (ph->oks[idx] && ph->words[idx].ts_order_key() == m.ts_order_key()) {
        ++holders;
      }
    }
    if (m.empty()) {
      result.status = SgStatus::kNotFound;
      co_return result;
    }
    if (m.deleted()) {
      // ABD read-repair applies to tombstones too (see FenceTombstone):
      // report "deleted" only once a majority carries it.
      bool fence_moved = false;
      if (!co_await FenceTombstone(worker_, layout_, order, usable, ph, m, &result.rtts,
                                   &fence_moved)) {
        if (fence_moved) {
          result.status = SgStatus::kMoved;  // Re-locate and re-read.
        }
        co_return result;  // Else: cannot stabilize the deletion, unavailable.
      }
      result.status = SgStatus::kDeleted;
      co_return result;
    }

    // Phase 2: chase the out-of-place pointer at a replica holding m.
    bool value_ok = false;
    bool chase_moved = false;
    sim::Bytes value;
    for (int r = 0; r < layout_->num_replicas && !value_ok; ++r) {
      const auto idx = static_cast<size_t>(r);
      if (!ph->oks[idx] || ph->words[idx].same_write_key() != m.same_write_key() ||
          ph->words[idx].oop() == 0) {
        continue;
      }
      const ReplicaLayout& rep = layout_->replicas[idx];
      sim::Bytes buf(kOopHeaderBytes + layout_->max_value);
      fabric::OpResult res =
          co_await worker_->qp(rep.node).Read(ph->words[idx].oop_addr(), buf);
      ++result.rtts;
      if (!res.ok()) {
        chase_moved = chase_moved || res.status == fabric::Status::kMovedReplica;
        continue;
      }
      uint64_t h;
      uint64_t len;
      std::memcpy(&h, buf.data(), 8);
      std::memcpy(&len, buf.data() + 8, 8);
      if (len <= layout_->max_value) {
        std::span<const uint8_t> data(buf.data() + kOopHeaderBytes, static_cast<size_t>(len));
        if (AbdHash(rep.meta_addr, len, data) == h) {
          value_ok = true;
          value.assign(data.begin(), data.end());
        }
      }
    }
    if (!value_ok) {
      if (chase_moved) {
        result.status = SgStatus::kMoved;  // Fenced mid-read: re-locate.
        co_return result;
      }
      continue;  // Buffer torn or recycled: retry the whole read.
    }

    // Phase 3 (rare): write-back so a majority holds m before returning.
    if (holders < maj) {
      auto img = sim::MakePooled<Phase1State>(worker_->sim());
      img->value = value;
      auto cs = sim::MakePooled<CasState>(worker_->sim());
      const Meta base = Meta::Pack(m.counter(), m.tid(), true, 0);
      {
        fabric::CpuBatch batch(worker_->cpu());
        for (int i = 0; i < usable; ++i) {
          const int r = order[static_cast<size_t>(i)];
          const auto idx = static_cast<size_t>(r);
          if (ph->oks[idx] && ph->words[idx].ts_order_key() == m.ts_order_key()) {
            continue;
          }
          sim::Spawn(RepairOne(worker_, layout_, r, base, img, cs));
        }
      }
      ++result.rtts;
      got = co_await cs->ok.WaitFor(maj - holders, worker_->config().quorum_timeout);
      if (!got) {
        if (cs->moved) {
          result.status = SgStatus::kMoved;  // Fenced mid-write-back: re-locate.
        }
        co_return result;
      }
    }

    result.status = SgStatus::kOk;
    result.value = std::move(value);
    result.fast_path = false;  // ABD gets always pay the pointer chase.
    co_return result;
  }
  co_return result;
}

}  // namespace swarm

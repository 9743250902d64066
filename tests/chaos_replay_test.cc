// The chaos engine's two meta-guarantees:
//
//  1. REPLAY: (ScenarioSpec, seed) fully determines the execution. Running
//     the same scenario twice — with the full fault mix, including node
//     restarts, lease expiries, detection sweeps and recycler churn —
//     produces the identical fault trace (asserted via TraceHash), event
//     count, end time, and per-op history.
//
//  2. SENSITIVITY (the canary): a deliberately broken protocol — a "quorum"
//     write that returns after ONE replica ack — is caught by the chaos
//     suites' linearizability check within a modest number of scenarios, its
//     seed is reported, and replaying that seed reproduces the identical
//     violation. If this test ever fails, the chaos harness has lost its
//     teeth and the green suites prove nothing.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/repair/migration.h"
#include "src/repair/repair.h"
#include "src/swarm/inout.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/recycler.h"
#include "tests/support/scenario.h"
#include "src/util/canary.h"
#include "src/util/discard.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::ChaosEnv;
using testing::ChaosHistories;
using testing::CheckHistories;
using testing::DecodeValue;
using testing::EncodeValue;
using testing::HistoryOp;
using testing::KvChaosClient;
using testing::ScenarioSpec;

// ---------- Replay identity ----------

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct RunDigest {
  uint64_t trace_hash = 0;
  uint64_t history_hash = 0;
  uint64_t events = 0;
  sim::Time end_time = 0;
  size_t faults = 0;

  bool operator==(const RunDigest&) const = default;
};

// One SWARM-KV scenario under the FULL fault mix — crashes WITH restarts
// (wiped nodes), lease expiries, detection sweeps, recycler churn — purely
// for determinism: restarted-empty replicas void the linearizability
// contract, so no history checking here.
RunDigest RunFullMixScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 4;
  spec.ops_per_client = 10;
  spec.mean_think = 8000;
  spec.faults.horizon = 150 * sim::kMicrosecond;
  spec.faults.mean_gap = 7 * sim::kMicrosecond;
  spec.faults.restart = true;
  spec.faults.max_crashed = 2;
  spec.faults.lease_weight = 0.7;
  spec.faults.churn_weight = 0.7;

  ChaosEnv c(spec);
  index::IndexService index(&c.env.sim);
  Recycler recycler(&c.env.sim, &c.membership);
  std::vector<std::unique_ptr<RecyclerParticipant>> participants;
  std::vector<std::unique_ptr<index::ClientCache>> caches;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions;
  std::vector<std::unique_ptr<kv::TrackedKvSession>> tracked;
  ChaosHistories hist;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    caches.push_back(std::make_unique<index::ClientCache>());
    sessions.push_back(std::make_unique<kv::SwarmKvSession>(&w, &index, caches.back().get()));
    tracked.push_back(std::make_unique<kv::TrackedKvSession>(sessions.back().get()));
    participants.push_back(
        testing::MakeCoupledParticipant(&c.env.sim, i, tracked.back().get()));
    recycler.Register(participants.back().get());
  }
  c.engine.set_epoch_churn([&recycler]() -> Task<void> {
    recycler.HeartbeatAll();
    return recycler.RunRound();
  });
  for (int i = 0; i < spec.clients; ++i) {
    Spawn(KvChaosClient(&c.env, tracked[static_cast<size_t>(i)].get(),
                        spec.seed * 131 + static_cast<uint64_t>(i), spec, &hist));
  }
  c.engine.Start();
  c.env.sim.Run();

  RunDigest d;
  d.trace_hash = c.engine.TraceHash();
  d.events = c.env.sim.events_processed();
  d.end_time = c.env.sim.Now();
  d.faults = c.engine.trace().size();
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [key, ops] : hist.per_key) {
    h = Fnv1a(h, key);
    for (const HistoryOp& op : ops) {
      h = Fnv1a(h, op.value);
      h = Fnv1a(h, static_cast<uint64_t>(op.invoked));
      h = Fnv1a(h, static_cast<uint64_t>(op.responded));
      h = Fnv1a(h, (op.is_write ? 2u : 0u) | (op.pending ? 1u : 0u));
    }
  }
  d.history_hash = h;
  return d;
}

TEST(ChaosReplay, SameSeedReproducesIdenticalExecution) {
  for (uint64_t seed : {42ull, 43ull, 44ull}) {
    const RunDigest a = RunFullMixScenario(seed);
    const RunDigest b = RunFullMixScenario(seed);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.history_hash, b.history_hash) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
    EXPECT_GT(a.faults, 0u) << "seed " << seed << ": the engine injected nothing";
  }
}

// Cross-commit identity: the digests above, recorded from an earlier commit.
// A simplification of SWARM-KV (or anything under it) must reproduce them
// byte-for-byte. Re-record only in a change whose CHANGES.md entry states an
// intended SWARM-KV behaviour change (tests/README.md).
TEST(ChaosReplay, FullMixDigestsMatchRecordedGoldens) {
  struct Golden {
    uint64_t seed;
    RunDigest digest;
  };
  const Golden kGoldens[] = {
      {42, {0xdb7ac7382f7cb352ull, 0xc9da5b28a654e7a7ull, 1019, 2127034, 21}},
      {43, {0x3e514778f5115c16ull, 0x40b3a1a0580832e4ull, 2560, 2130595, 38}},
      {44, {0x5366c706970e1aafull, 0x4a8ab764d42a4d1cull, 1911, 2029917, 41}},
  };
  for (const Golden& g : kGoldens) {
    const RunDigest d = RunFullMixScenario(g.seed);
    EXPECT_EQ(d.trace_hash, g.digest.trace_hash) << "seed " << g.seed;
    EXPECT_EQ(d.history_hash, g.digest.history_hash) << "seed " << g.seed;
    EXPECT_EQ(d.events, g.digest.events) << "seed " << g.seed;
    EXPECT_EQ(d.end_time, g.digest.end_time) << "seed " << g.seed;
    EXPECT_EQ(d.faults, g.digest.faults) << "seed " << g.seed;
  }
}

TEST(ChaosReplay, DifferentSeedsProduceDifferentSchedules) {
  const RunDigest a = RunFullMixScenario(1001);
  const RunDigest b = RunFullMixScenario(1002);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

// ---------- The weak-quorum canary ----------

Task<void> WeakWriteOne(Worker* w, const ObjectLayout* layout, int r, Meta word,
                        std::vector<uint8_t> value, sim::Counter done) {
  InOutReplica rep(w, layout, r);
  NodeMaxResult res = co_await rep.WriteVerifiedNode(word, value, Meta());
  if (res.ok()) {
    done.Add(1);
  }
}

// The injected bug: a "replicated" write that returns as soon as ONE replica
// acked. Under drop bursts the other replicas may never receive it, and a
// majority read that misses the acked replica returns stale data.
Task<bool> WeakQuorumWrite(Worker* w, const ObjectLayout* layout, Meta word,
                           std::vector<uint8_t> value) {
  sim::Counter done(w->sim());
  {
    fabric::CpuBatch batch(w->cpu());
    for (int r = 0; r < layout->num_replicas; ++r) {
      Spawn(WeakWriteOne(w, layout, r, word, value, done));
    }
  }
  co_return co_await done.WaitFor(1, 100 * sim::kMicrosecond);
}

struct CanaryOutcome {
  bool violated = false;
  std::string violation;
  uint64_t trace_hash = 0;
};

CanaryOutcome RunCanaryScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.ops_per_client = 14;
  spec.mean_think = 5000;
  spec.value_size = 16;
  spec.faults.horizon = 220 * sim::kMicrosecond;
  spec.faults.mean_gap = 6 * sim::kMicrosecond;
  spec.faults.crash_weight = 0;  // Keep all replicas up: drops do the work.
  spec.faults.max_drop_p = 0.6;
  spec.faults.max_drop_duration = 120 * sim::kMicrosecond;

  ChaosEnv c(spec);
  ObjectLayout layout = c.env.MakeObject();
  ChaosHistories hist;

  auto writer = [](ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                   const ScenarioSpec* spec, ChaosHistories* hist) -> Task<void> {
    sim::Rng rng(rng_seed);
    for (uint32_t i = 1; i <= static_cast<uint32_t>(spec->ops_per_client); ++i) {
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                        rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
      const uint64_t v = hist->next_value++;
      HistoryOp op;
      op.is_write = true;
      op.value = v;
      op.invoked = c->env.sim.Now();
      const bool ok = co_await WeakQuorumWrite(w, layout, Meta::Pack(i * 8, w->tid(), true, 0),
                                               EncodeValue(v, spec->value_size));
      op.responded = c->env.sim.Now();
      op.pending = !ok;
      hist->per_key[0].push_back(op);
    }
  };
  auto reader = [](ChaosEnv* c, Worker* w, const ObjectLayout* layout, uint64_t rng_seed,
                   const ScenarioSpec* spec, ChaosHistories* hist) -> Task<void> {
    QuorumMax reg(w, layout, w->SlotCacheFor(layout));
    sim::Rng rng(rng_seed);
    for (int i = 0; i < spec->ops_per_client; ++i) {
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                        rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
      HistoryOp op;
      op.invoked = c->env.sim.Now();
      ReadOutcome r = co_await reg.ReadQuorum(/*strong=*/true);
      op.responded = c->env.sim.Now();
      if (!r.ok || (!r.m.empty() && !r.value_ok)) {
        continue;  // No majority / unresolved bytes: no constraint.
      }
      op.value = r.m.empty() ? 0 : DecodeValue(r.value);
      hist->per_key[0].push_back(op);
    }
  };

  Spawn(writer(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 1, &spec, &hist));
  Spawn(reader(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 2, &spec, &hist));
  Spawn(reader(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 3, &spec, &hist));
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

// ---------- The repair canaries ----------
//
// Two injected repair bugs the crash-recover suites must catch:
//   * Canary::kSkipTombstoneRepair — a rejoining node's deleted objects come
//     back without their tombstones, so a read pairing the rejoined replica
//     with a stale survivor resurrects the deleted value;
//   * Canary::kReadmitBeforeRepair — the node re-enters quorums while its
//     replicas are still empty, so reads miss committed writes.
// Each must produce a linearizability violation within a bounded number of
// scenarios AND replay byte-identically from its seed.

// A full crash-recover scenario — restart, repair, readmit — over the
// standard multi-client KV workload; the repair canaries plant their bugs.
CanaryOutcome RunRepairCanaryScenario(uint64_t seed, bool remove_heavy) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 2;  // Concentrate removes/overwrites on few keys.
  spec.ops_per_client = 20;
  spec.mean_think = 12000;  // ~240 us of workload: plenty of post-rejoin ops.
  spec.faults.horizon = 200 * sim::kMicrosecond;
  spec.faults.mean_gap = 8 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  spec.faults.crash_weight = 3.0;  // Crash early, so the rejoin races the workload.
  spec.faults.restart = true;
  spec.faults.repair = true;
  spec.faults.min_down = 30 * sim::kMicrosecond;
  spec.faults.max_down = 80 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.5;
  spec.faults.drop_ack_weight = 2.0;
  spec.faults.max_drop_duration = 100 * sim::kMicrosecond;

  ChaosEnv c(spec);
  index::IndexService index(&c.env.sim, &c.env.fabric);
  std::vector<std::unique_ptr<index::ClientCache>> caches;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions;
  ChaosHistories hist;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    caches.push_back(std::make_unique<index::ClientCache>());
    sessions.push_back(std::make_unique<kv::SwarmKvSession>(&w, &index, caches.back().get()));
  }
  repair::RepairService repair(&c.membership, &c.env.MakeWorker(0));
  repair::IndexRepairSource source(&index, repair::LayoutProtocol::kSafeGuess);
  repair.RegisterStore(&source);
  c.engine.set_repair_fn([&repair](int node) { return repair.RecoverAndRepair(node); });
  // Remove-heavy variant: tombstone-shaped bugs only bite on deleted
  // objects, so a quarter of the ops are removes (update band collapsed).
  const testing::KvOpMix mix =
      remove_heavy ? testing::KvOpMix{0.35, 0.35, 0.75} : testing::KvOpMix{};
  for (int i = 0; i < spec.clients; ++i) {
    Spawn(KvChaosClient(&c.env, sessions[static_cast<size_t>(i)].get(),
                        spec.seed * 131 + static_cast<uint64_t>(i), spec, &hist, mix));
  }
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

// Shared catch-and-replay contract for every repair canary: the injected
// bug must produce a violation within the seed budget, and the failing seed
// must replay to the identical trace and violation.
template <typename RunScenario>
void ExpectCanaryCaught(uint64_t seed_base, RunScenario run, const char* what) {
  constexpr int kMaxScenarios = 300;
  uint64_t failing_seed = 0;
  CanaryOutcome first;
  for (int i = 0; i < kMaxScenarios; ++i) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(i);
    CanaryOutcome out = run(seed);
    if (out.violated) {
      failing_seed = seed;
      first = out;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u) << "the " << what << " canary survived " << kMaxScenarios
                              << " crash-recover scenarios: the chaos suites can no longer "
                                 "catch broken repair";
  // The seed and digests let a reviewer compare the catch across commits.
  std::printf("canary %s: caught at seed %llu, trace hash %016llx, violation hash %016zx\n",
              what, static_cast<unsigned long long>(failing_seed),
              static_cast<unsigned long long>(first.trace_hash),
              std::hash<std::string>{}(first.violation));
  CanaryOutcome replay = run(failing_seed);
  EXPECT_TRUE(replay.violated) << what << " seed " << failing_seed << " did not reproduce";
  EXPECT_EQ(replay.trace_hash, first.trace_hash) << what << " seed " << failing_seed;
  EXPECT_EQ(replay.violation, first.violation) << what << " seed " << failing_seed;
}

TEST(ChaosReplay, CrashRecoverRepairSameSeedReproduces) {
  // The full restart → repair → readmit lifecycle (correct repair config) is
  // seed-deterministic: identical fault trace and identical (empty)
  // violation on replay.
  for (uint64_t seed : {77ull, 78ull}) {
    const CanaryOutcome a = RunRepairCanaryScenario(seed, /*remove_heavy=*/true);
    const CanaryOutcome b = RunRepairCanaryScenario(seed, /*remove_heavy=*/true);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.violation, b.violation) << "seed " << seed;
    EXPECT_FALSE(a.violated) << "seed " << seed << ": " << a.violation;
  }
}

constexpr uint64_t kKey = 0;  // The tombstone canary's single key.

CanaryOutcome RunTombstoneCanaryScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.value_size = 16;
  spec.faults.horizon = 200 * sim::kMicrosecond;
  spec.faults.mean_gap = 6 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  // The bug needs a remove to land its tombstone at a bare majority BEFORE
  // the crash takes one of the holders: a mid-scenario crash (weight below
  // the always-on spike/drop classes) leaves time for both orderings.
  spec.faults.crash_weight = 0.35;
  spec.faults.restart = true;
  spec.faults.repair = true;
  spec.faults.min_down = 30 * sim::kMicrosecond;
  spec.faults.max_down = 70 * sim::kMicrosecond;
  spec.faults.max_drop_p = 0.6;
  spec.faults.max_drop_duration = 100 * sim::kMicrosecond;

  ChaosEnv c(spec);
  index::IndexService index(&c.env.sim, &c.env.fabric);
  index::ClientCache cache_w;
  index::ClientCache cache_r1;
  index::ClientCache cache_r2;
  kv::SwarmKvSession churner(&c.MakeSkewedWorker(spec), &index, &cache_w);
  kv::SwarmKvSession reader1(&c.MakeSkewedWorker(spec), &index, &cache_r1);
  kv::SwarmKvSession reader2(&c.MakeSkewedWorker(spec), &index, &cache_r2);
  repair::RepairService repair(&c.membership, &c.env.MakeWorker(0));
  repair::IndexRepairSource source(&index, repair::LayoutProtocol::kSafeGuess);
  repair.RegisterStore(&source);
  c.engine.set_repair_fn([&repair](int node) { return repair.RecoverAndRepair(node); });

  ChaosHistories hist;

  auto churn = [](ChaosEnv* c, kv::SwarmKvSession* s, uint64_t rng_seed,
                  const ScenarioSpec* spec, ChaosHistories* hist) -> Task<void> {
    sim::Rng rng(rng_seed);
    for (int i = 0; i < 12; ++i) {
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(rng.Below(14000)));
      const uint64_t v = hist->next_value++;
      HistoryOp op;
      op.invoked = c->env.sim.Now();
      kv::KvResult r = co_await s->Insert(kKey, EncodeValue(v, spec->value_size));
      op.responded = c->env.sim.Now();
      op.is_write = true;
      op.value = v;
      op.pending = !r.ok();
      hist->pending_ops += op.pending ? 1 : 0;
      hist->per_key[kKey].push_back(op);

      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(rng.Below(10000)));
      HistoryOp del;
      del.invoked = c->env.sim.Now();
      r = co_await s->Remove(kKey);
      del.responded = c->env.sim.Now();
      del.is_write = true;
      del.value = 0;
      if (r.status == kv::KvStatus::kUnavailable) {
        del.pending = true;
        ++hist->pending_ops;
      } else if (r.status == kv::KvStatus::kNotFound) {
        del.is_write = false;
      }
      hist->per_key[kKey].push_back(del);
    }
  };
  auto reader = [](ChaosEnv* c, kv::SwarmKvSession* s, uint64_t rng_seed,
                   ChaosHistories* hist) -> Task<void> {
    sim::Rng rng(rng_seed);
    auto one_get = [](ChaosEnv* c2, kv::SwarmKvSession* s2, ChaosHistories* hist2) -> Task<void> {
      HistoryOp op;
      op.invoked = c2->env.sim.Now();
      kv::KvResult r = co_await s2->Get(kKey);
      op.responded = c2->env.sim.Now();
      if (r.status != kv::KvStatus::kUnavailable) {
        op.value = r.status == kv::KvStatus::kOk ? DecodeValue(r.value) : 0;
        hist2->per_key[kKey].push_back(op);
      } else {
        ++hist2->failed_reads;
      }
    };
    // Keep the cached mapping fresh until the sleep point...
    const sim::Time sleep_at =
        25 * sim::kMicrosecond + static_cast<sim::Time>(rng.Below(15 * sim::kMicrosecond));
    while (c->env.sim.Now() < sleep_at) {
      co_await one_get(c, s, hist);
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(rng.Below(12000)));
    }
    // ...then go dormant across the crash-recover cycle (the cached mapping
    // goes stale under the churner's removes) and probe afterwards.
    co_await c->env.sim.Delay(80 * sim::kMicrosecond +
                              static_cast<sim::Time>(rng.Below(60 * sim::kMicrosecond)));
    for (int i = 0; i < 6; ++i) {
      co_await one_get(c, s, hist);
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(rng.Below(12000)));
    }
  };
  Spawn(churn(&c, &churner, spec.seed * 31 + 1, &spec, &hist));
  Spawn(reader(&c, &reader1, spec.seed * 31 + 2, &hist));
  Spawn(reader(&c, &reader2, spec.seed * 31 + 3, &hist));
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

TEST(ChaosReplay, TombstoneScenarioWithCorrectRepairStaysLinearizable) {
  // The canary scenario's dormant stale readers are exactly the regime
  // correct repair must survive: same seeds, no injected bug, no violation.
  for (int i = 0; i < 120; ++i) {
    const uint64_t seed = 12000 + static_cast<uint64_t>(i);
    CanaryOutcome out = RunTombstoneCanaryScenario(seed);
    ASSERT_FALSE(out.violated) << "seed " << seed << ": " << out.violation;
  }
}

TEST(ChaosCanary, SkippedTombstoneRepairIsCaughtAndReplays) {
  ScopedCanary bug(Canary::kSkipTombstoneRepair);
  ExpectCanaryCaught(12000, RunTombstoneCanaryScenario, "skipped-tombstone-repair");
}

TEST(ChaosCanary, ReadmitBeforeRepairIsCaughtAndReplays) {
  ScopedCanary bug(Canary::kReadmitBeforeRepair);
  ExpectCanaryCaught(
      13000, [](uint64_t seed) { return RunRepairCanaryScenario(seed, /*remove_heavy=*/false); },
      "readmit-before-repair");
}

// ---------- The stale-epoch (pre-fix fence) canary ----------
//
// The §5.4 residual window left documented by the repair PR: a verb already
// in flight across a WHOLE crash-repair cycle — issued before the crash,
// executing after readmission, possibly at a survivor whose state the lock
// restoration already harvested — was trusted, because the repair fence only
// models admission control at the memory node. The membership-epoch fence
// closes it; this canary runs with Canary::kNoEpochFence (the pre-fix
// build), with a deaf client that never receives membership pushes and long
// delay spikes that strand verbs in flight across the cycle, and must
// produce a linearizability violation within a bounded seed budget that
// replays byte-identically. The fencing-ON counterpart must stay green on
// the same seeds (ChaosReplay.StaleClientScenarioWithFencingStaysLinearizable).

// The §5.4 choreography, seed-jittered (every instant below is drawn from
// the seed): one Safe-Guess register on replicas {0,1,2}, published in the
// index so the repair coordinator walks it.
//
//   1. a writer commits value v;
//   2. a DEAF remover (no membership pushes ever reach it) posts a Remove:
//      its tombstone pair at node 0 executes immediately (a vote), while a
//      scripted delay spike strands the node-1 pair in flight for ~150 us
//      and a scripted drop burst kills the node-2 pair;
//   3. node 0 crashes right after the vote — the tombstone there is wiped —
//      and the crash-recover repair rebuilds it from the survivors, which
//      the stranded verb has NOT reached yet: the restored node 0 carries v,
//      tombstone-free (arrival-order NIC service is what lets the repair
//      overtake the stranded verb, exactly like a real network);
//   4. post-readmission the stranded pair lands at node 1: PRE-FIX its vote
//      completes the remove ("tombstone at a majority" — but one vote was
//      wiped and the other postdates the harvest), and a reader whose
//      node-1 QP drops reads {node0, node2} = the RESURRECTED value v after
//      the remove completed — the linearizability violation;
//   5. POST-FIX the stranded verb bounces off the epoch fence (it is
//      stamped with the remover's pre-crash epoch), the remove
//      re-validates, re-arms and retries, and every read stays consistent.
CanaryOutcome RunStaleEpochCanaryScenario(uint64_t seed) {
  testing::TestEnv env(seed);
  membership::MembershipService ms(&env.sim, &env.fabric, /*detection_delay=*/5 * sim::kMicrosecond);
  index::IndexService index(&env.sim);

  Worker& writer = env.MakeWorker();
  Worker& remover = env.MakeWorker();  // The client that never learns.
  Worker& prober = env.MakeWorker();
  auto wire = [&ms](Worker& w, bool subscribe) {
    w.set_repair_excluded(ms.repairing());
    auto epoch = std::make_shared<fabric::ClientEpoch>();
    epoch->value = ms.epoch();
    w.set_epoch(epoch);
    w.set_epoch_source([&ms] { return ms.ValidateEpoch(); });
    if (subscribe) {
      ms.SubscribeEpoch(epoch);
    }
  };
  wire(writer, /*subscribe=*/true);
  wire(remover, /*subscribe=*/false);  // DEAF: pull-only via kStaleEpoch.
  wire(prober, /*subscribe=*/true);
  prober.set_chaos_tag(3);  // Target of the scripted per-QP drop window.

  repair::RepairService repair(&ms, &env.MakeWorker(), {});
  repair::IndexRepairSource source(&index, repair::LayoutProtocol::kSafeGuess);
  repair.RegisterStore(&source);

  auto layout = std::make_shared<ObjectLayout>(env.MakeObject());

  // Seed-jittered script instants.
  sim::Rng jitter(seed * 77 + 13);
  const sim::Time t_remove = 10 * sim::kMicrosecond + jitter.Below(2000);
  const sim::Time spike = 140 * sim::kMicrosecond + jitter.Below(40000);
  const sim::Time t_crash = t_remove + 1500 + jitter.Below(800);
  const sim::Time t_repair = t_crash + 8 * sim::kMicrosecond + jitter.Below(6000);
  const sim::Time t_land = t_remove + spike;  // Stranded pair's arrival, ±1 us.
  const sim::Time probe_drop_from = t_land - 8 * sim::kMicrosecond;
  const sim::Time probe_drop_to = t_land + 30 * sim::kMicrosecond;

  sim::Time delay1 = 0;
  bool drop2 = false;
  env.fabric.set_link_delay_fn([&delay1](int node, bool) { return node == 1 ? delay1 : 0; });
  env.fabric.set_drop_fn([&env, &drop2, probe_drop_from, probe_drop_to](int node, bool, int tag) {
    if (node == 2 && drop2) {
      return true;
    }
    return node == 1 && tag == 3 && env.sim.Now() >= probe_drop_from &&
           env.sim.Now() < probe_drop_to;
  });

  ChaosHistories hist;
  const uint64_t v = hist.next_value++;

  auto write_task = [](testing::TestEnv* env, Worker* w, const ObjectLayout* lo,
                       uint64_t v2, ChaosHistories* hist) -> Task<void> {
    SafeGuessObject obj(w, lo, w->SlotCacheFor(lo));
    HistoryOp op;
    op.is_write = true;
    op.value = v2;
    op.invoked = env->sim.Now();
    SgWriteResult r = co_await obj.Write(testing::EncodeValue(v2, 16));
    op.responded = env->sim.Now();
    op.pending = r.status != SgStatus::kOk;
    hist->per_key[0].push_back(op);
  };
  auto remove_task = [](testing::TestEnv* env, Worker* w, const ObjectLayout* lo,
                        sim::Time at, ChaosHistories* hist) -> Task<void> {
    co_await env->sim.WaitUntil(at);
    SafeGuessObject obj(w, lo, w->SlotCacheFor(lo));
    HistoryOp op;
    op.is_write = true;
    op.value = 0;
    op.invoked = env->sim.Now();
    SgWriteResult r = co_await obj.Delete();
    op.responded = env->sim.Now();
    op.pending = r.status == SgStatus::kUnavailable;
    hist->per_key[0].push_back(op);
  };
  auto probe_task = [](testing::TestEnv* env, Worker* w, const ObjectLayout* lo,
                       sim::Time until, uint64_t rng_seed, ChaosHistories* hist) -> Task<void> {
    SafeGuessObject obj(w, lo, w->SlotCacheFor(lo));
    sim::Rng rng(rng_seed);
    while (env->sim.Now() < until) {
      co_await env->sim.Delay(2000 + static_cast<sim::Time>(rng.Below(3000)));
      HistoryOp op;
      op.invoked = env->sim.Now();
      SgReadResult r = co_await obj.Read();
      op.responded = env->sim.Now();
      if (r.status == SgStatus::kOk) {
        op.value = testing::DecodeValue(r.value);
      } else if (r.status == SgStatus::kNotFound || r.status == SgStatus::kDeleted) {
        op.value = 0;
      } else {
        ++hist->failed_reads;
        continue;
      }
      hist->per_key[0].push_back(op);
    }
  };
  auto script = [](testing::TestEnv* env, membership::MembershipService* ms,
                   index::IndexService* index, repair::RepairService* repair,
                   std::shared_ptr<ObjectLayout> lo, sim::Time t_remove2, sim::Time t_crash2,
                   sim::Time t_repair2, sim::Time spike2, sim::Time* delay1,
                   bool* second_drop) -> Task<void> {
    swarm::DiscardStatus(co_await index->InsertIfAbsent(0, lo, nullptr));
    // Faults arm just before the remove posts; the spike2 is sampled by the
    // remover's node-1 pair at its departure.
    co_await env->sim.WaitUntil(t_remove2 - 200);
    *delay1 = spike2;
    *second_drop = true;
    co_await env->sim.WaitUntil(t_crash2);
    ms->CrashNode(0);
    *delay1 = 0;  // Future verbs travel clean; the stranded pair keeps its delay.
    co_await env->sim.WaitUntil(t_crash2 + 6 * sim::kMicrosecond);
    *second_drop = false;
    co_await env->sim.WaitUntil(t_repair2);
    swarm::DiscardStatus(co_await repair->RecoverAndRepair(0));
  };

  Spawn(write_task(&env, &writer, layout.get(), v, &hist));
  Spawn(remove_task(&env, &remover, layout.get(), t_remove, &hist));
  Spawn(probe_task(&env, &prober, layout.get(), probe_drop_to + 5 * sim::kMicrosecond,
                   seed * 31 + 7, &hist));
  Spawn(script(&env, &ms, &index, &repair, layout, t_remove, t_crash, t_repair, spike, &delay1,
               &drop2));
  env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  // No chaos engine here (the faults are scripted): replay identity is
  // fingerprinted over the recorded history instead of a fault trace.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [key, ops] : hist.per_key) {
    for (const HistoryOp& op : ops) {
      h = Fnv1a(h, op.value);
      h = Fnv1a(h, static_cast<uint64_t>(op.invoked));
      h = Fnv1a(h, static_cast<uint64_t>(op.responded));
      h = Fnv1a(h, (op.is_write ? 2u : 0u) | (op.pending ? 1u : 0u));
    }
  }
  out.trace_hash = h;
  return out;
}

TEST(ChaosReplay, StaleClientScenarioWithFencingStaysLinearizable) {
  // The canary seeds under the CORRECT (fencing-on) build: the §5.4 regime
  // must be clean, or the canary below proves nothing.
  uint64_t forced = 0;
  if (testing::ForcedSeed(&forced)) {
    CanaryOutcome out = RunStaleEpochCanaryScenario(forced);
    ASSERT_FALSE(out.violated) << "seed " << forced << ": " << out.violation;
    return;
  }
  for (int i = 0; i < 120; ++i) {
    const uint64_t seed = 16000 + static_cast<uint64_t>(i);
    CanaryOutcome out = RunStaleEpochCanaryScenario(seed);
    ASSERT_FALSE(out.violated) << "seed " << seed << ": " << out.violation;
  }
}

TEST(ChaosCanary, StaleEpochInFlightWindowIsCaughtAndReplays) {
  ScopedCanary bug(Canary::kNoEpochFence);
  ExpectCanaryCaught(16000, RunStaleEpochCanaryScenario, "stale-epoch-fence");
}

// ---------- The migration fence canary ----------
//
// Elastic membership's counterpart of the stale-epoch window: a live
// migration flips a key's ownership to the replacement layout WITHOUT
// fencing the vacated slot (Canary::kNoFlipFence — the pre-fence build). One client's cache never hears the retired-layout GC,
// so it keeps committing at the OLD replica set; its quorums may include
// the vacated slot, and the new layout's quorums need not intersect them —
// a stale write acked by {vacated, one-old-shared} is invisible to a
// post-flip reader, and a stale reader pairing the vacated slot with one
// old replica misses post-flip writes. The checker must catch the
// inversion within a bounded seed budget AND replay it byte-identically.
// The fencing-ON counterpart must stay green on the same seeds with the
// SAME never-invalidated cache: the stale client's verbs bounce off the
// fence (kMovedReplica) and re-resolve through the index — exactly the
// mechanism this canary removes.

// Grow/shrink cycle driven by the chaos engine's migration hook (free
// function: the migration_fn lambda must not itself be a coroutine).
Task<bool> MigrationCanaryStep(repair::MigrationService* migration, int step) {
  if (step % 2 == 0) {
    const int node = co_await migration->AdmitAndRebalance(/*max_keys=*/3);
    co_return node >= 0;
  }
  co_return co_await migration->Drain(/*node=*/0, /*decommission=*/true);
}

CanaryOutcome RunMigrationFenceCanaryScenario(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 4;
  spec.keys = 3;  // Few keys: every migration touches contended state.
  spec.ops_per_client = 24;
  spec.mean_think = 7000;
  spec.faults.horizon = 260 * sim::kMicrosecond;
  spec.faults.mean_gap = 6 * sim::kMicrosecond;
  spec.faults.max_crashed = 0;  // Pure elasticity: no crash-repair noise.
  spec.faults.migration_weight = 5.0;
  spec.faults.max_migrations = 2;
  spec.faults.churn_weight = 0.8;  // Recycler rounds drive the retired-layout GC.
  spec.faults.max_drop_p = 0.45;   // Drop diversity steers quorum selection.

  ChaosEnv c(spec, testing::ElasticFabric());
  index::IndexService index(&c.env.sim, &c.env.fabric);
  Recycler recycler(&c.env.sim, &c.membership);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });
  std::vector<std::unique_ptr<RecyclerParticipant>> participants;
  std::vector<std::unique_ptr<index::ClientCache>> caches;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions;
  std::vector<std::unique_ptr<kv::TrackedKvSession>> tracked;
  ChaosHistories hist;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    caches.push_back(std::make_unique<index::ClientCache>());
    sessions.push_back(std::make_unique<kv::SwarmKvSession>(&w, &index, caches.back().get()));
    sessions.back()->set_serving(c.membership.serving());
    tracked.push_back(std::make_unique<kv::TrackedKvSession>(sessions.back().get()));
    participants.push_back(
        testing::MakeCoupledParticipant(&c.env.sim, i, tracked.back().get()));
    recycler.Register(participants.back().get());
  }
  repair::MigrationService migration(&c.membership, &index, &c.env.MakeWorker(0),
                                     repair::LayoutProtocol::kSafeGuess);
  int mig_step = 0;
  c.engine.set_migration_fn(
      [&migration, &mig_step]() { return MigrationCanaryStep(&migration, mig_step++); });
  c.engine.set_epoch_churn([&recycler]() -> Task<void> {
    recycler.HeartbeatAll();
    return recycler.RunRound();
  });
  // Client 0's cache is the one that NEVER learns: the GC invalidation that
  // moves everyone else onto the replacement layout skips it, so it keeps
  // resolving keys to the pre-flip layout for the whole scenario.
  index.add_gc_listener([&caches](const std::shared_ptr<const ObjectLayout>& lo) {
    for (size_t i = 1; i < caches.size(); ++i) {
      caches[i]->InvalidateLayout(lo.get());
    }
  });
  for (int i = 0; i < spec.clients; ++i) {
    Spawn(KvChaosClient(&c.env, tracked[static_cast<size_t>(i)].get(),
                        spec.seed * 131 + static_cast<uint64_t>(i), spec, &hist));
  }
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

TEST(ChaosReplay, MigrationScenarioWithFlipFenceStaysLinearizable) {
  // The canary seeds under the CORRECT (fence-on) build: the stale-cache
  // regime must be clean — bounced verbs re-resolve — or the canary below
  // proves nothing.
  uint64_t forced = 0;
  if (testing::ForcedSeed(&forced)) {
    CanaryOutcome out = RunMigrationFenceCanaryScenario(forced);
    ASSERT_FALSE(out.violated) << "seed " << forced << ": " << out.violation;
    return;
  }
  for (int i = 0; i < 120; ++i) {
    const uint64_t seed = 17000 + static_cast<uint64_t>(i);
    CanaryOutcome out = RunMigrationFenceCanaryScenario(seed);
    ASSERT_FALSE(out.violated) << "seed " << seed << ": " << out.violation;
  }
}

TEST(ChaosCanary, UnfencedMigrationFlipIsCaughtAndReplays) {
  ScopedCanary bug(Canary::kNoFlipFence);
  ExpectCanaryCaught(17000, RunMigrationFenceCanaryScenario, "migration-flip-fence");
}

// ---------- The read-path canaries ----------
//
// Two more injected protocol bugs (the remaining candidates from the repair
// PR's canary gallery), built from protocol primitives like the weak-quorum
// canary:
//   * skipped write-back — a reader returns the quorum max WITHOUT first
//     re-installing it at a majority (Algorithm 8's inner_write). A write
//     that reached a minority (ack dropped) can then be observed by one
//     reader and missed by the next, the classic new-old inversion;
//   * reused timestamp — a writer's clock sticks, so two DIFFERENT values
//     are written under the same (counter, tid) word. Replicas cannot order
//     them (the max register sees "the same write"), the second value is
//     silently dropped wherever the first landed, and reads after the
//     second completed ack observe the first — a stale read.
// Each must produce a linearizability violation within a bounded number of
// scenarios AND replay byte-identically from its seed; each has a correct
// counterpart suite (write-back on / advancing clock) that must stay green
// on the same seeds.

// A correct single-writer quorum write: direct VERIFIED install at a
// majority with a caller-supplied timestamp counter.
Task<void> VerifiedWriterOp(Worker* w, const ObjectLayout* layout, uint32_t counter,
                            std::vector<uint8_t> value, ChaosEnv* c, ChaosHistories* hist,
                            uint64_t v) {
  QuorumMax reg(w, layout, w->SlotCacheFor(layout));
  HistoryOp op;
  op.is_write = true;
  op.value = v;
  op.invoked = c->env.sim.Now();
  const bool ok = co_await reg.WriteVerified(Meta::Pack(counter, w->tid(), true, 0), value);
  op.responded = c->env.sim.Now();
  op.pending = !ok;
  hist->pending_ops += op.pending ? 1 : 0;
  hist->per_key[0].push_back(op);
}

// The broken read: take the ts-max over whichever majority answered, resolve
// its bytes, and return — NO write-back. A max seen at a single replica is
// reported without ever being made majority-durable.
Task<void> NoWriteBackReaderOp(Worker* w, const ObjectLayout* layout, ChaosEnv* c,
                               ChaosHistories* hist) {
  QuorumMax reg(w, layout, w->SlotCacheFor(layout));
  HistoryOp op;
  op.invoked = c->env.sim.Now();
  ReadOutcome r = co_await reg.ReadQuorum(/*strong=*/false);
  if (!r.ok) {
    op.responded = c->env.sim.Now();
    ++hist->failed_reads;
    co_return;
  }
  std::vector<uint8_t> bytes;
  bool value_ok = r.m.empty();
  if (r.value_ok) {
    value_ok = true;
    bytes = r.value;  // In-place fast path happened to validate.
  }
  for (int rep_idx = 0; rep_idx < layout->num_replicas && !value_ok; ++rep_idx) {
    const auto idx = static_cast<size_t>(rep_idx);
    if (!r.node_ok[idx] || r.node_words[idx].same_write_key() != r.m.same_write_key() ||
        r.node_words[idx].oop() == 0) {
      continue;
    }
    InOutReplica rep(w, layout, rep_idx);
    auto oop = co_await rep.ReadOop(r.node_words[idx]);
    if (oop.has_value()) {
      value_ok = true;
      bytes = std::move(*oop);
    }
  }
  op.responded = c->env.sim.Now();
  if (!value_ok) {
    ++hist->failed_reads;  // Bytes unresolved: no constraint recorded.
    co_return;
  }
  op.value = r.m.empty() ? 0 : DecodeValue(bytes);
  hist->per_key[0].push_back(op);
}

// The correct read: strong quorum read (write-back included).
Task<void> StrongReaderOp(Worker* w, const ObjectLayout* layout, ChaosEnv* c,
                          ChaosHistories* hist) {
  QuorumMax reg(w, layout, w->SlotCacheFor(layout));
  HistoryOp op;
  op.invoked = c->env.sim.Now();
  ReadOutcome r = co_await reg.ReadQuorum(/*strong=*/true);
  op.responded = c->env.sim.Now();
  if (!r.ok || (!r.m.empty() && !r.value_ok)) {
    ++hist->failed_reads;
    co_return;
  }
  op.value = r.m.empty() ? 0 : DecodeValue(r.value);
  hist->per_key[0].push_back(op);
}

// One writer with advancing (or deliberately stuck) timestamps, two readers
// with (or deliberately without) write-back, under ack-heavy drop bursts.
CanaryOutcome RunReadPathScenario(uint64_t seed, bool write_back, bool advance_clock) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.ops_per_client = 14;
  spec.mean_think = 5000;
  spec.value_size = 16;
  spec.faults.horizon = 220 * sim::kMicrosecond;
  spec.faults.mean_gap = 6 * sim::kMicrosecond;
  spec.faults.crash_weight = 0;  // Keep all replicas up: drops do the work.
  spec.faults.max_drop_p = 0.6;
  spec.faults.drop_ack_weight = 3.0;  // Minority writes need lost acks.
  spec.faults.max_drop_duration = 120 * sim::kMicrosecond;

  ChaosEnv c(spec);
  ObjectLayout layout = c.env.MakeObject();
  ChaosHistories hist;

  auto writer = [advance_clock](ChaosEnv* c, Worker* w, const ObjectLayout* layout,
                                uint64_t rng_seed, const ScenarioSpec* spec,
                                ChaosHistories* hist) -> Task<void> {
    sim::Rng rng(rng_seed);
    for (uint32_t i = 0; i < static_cast<uint32_t>(spec->ops_per_client); ++i) {
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                        rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
      // Stuck clock: every counter is used TWICE, for two different values.
      const uint32_t counter = advance_clock ? (i + 1) * 8 : (i / 2 + 1) * 8;
      const uint64_t v = hist->next_value++;
      co_await VerifiedWriterOp(w, layout, counter, EncodeValue(v, spec->value_size), c, hist, v);
    }
  };
  auto reader = [write_back](ChaosEnv* c, Worker* w, const ObjectLayout* layout,
                             uint64_t rng_seed, const ScenarioSpec* spec,
                             ChaosHistories* hist) -> Task<void> {
    sim::Rng rng(rng_seed);
    for (int i = 0; i < spec->ops_per_client; ++i) {
      co_await c->env.sim.Delay(1 + static_cast<sim::Time>(
                                        rng.Below(static_cast<uint64_t>(2 * spec->mean_think))));
      if (write_back) {
        co_await StrongReaderOp(w, layout, c, hist);
      } else {
        co_await NoWriteBackReaderOp(w, layout, c, hist);
      }
    }
  };

  Spawn(writer(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 1, &spec, &hist));
  Spawn(reader(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 2, &spec, &hist));
  Spawn(reader(&c, &c.MakeSkewedWorker(spec), &layout, spec.seed * 31 + 3, &spec, &hist));
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

TEST(ChaosReplay, ReadPathScenarioWithCorrectProtocolStaysLinearizable) {
  // Write-back on, clock advancing: the canary scenarios' fault schedule
  // must be clean for the CORRECT protocol, or the canaries prove nothing.
  for (int i = 0; i < 120; ++i) {
    const uint64_t seed = 14000 + static_cast<uint64_t>(i);
    CanaryOutcome out =
        RunReadPathScenario(seed, /*write_back=*/true, /*advance_clock=*/true);
    ASSERT_FALSE(out.violated) << "seed " << seed << ": " << out.violation;
  }
}

TEST(ChaosCanary, SkippedWriteBackIsCaughtAndReplays) {
  ExpectCanaryCaught(
      14000,
      [](uint64_t seed) {
        return RunReadPathScenario(seed, /*write_back=*/false, /*advance_clock=*/true);
      },
      "skipped-write-back");
}

TEST(ChaosCanary, ReusedTimestampIsCaughtAndReplays) {
  ExpectCanaryCaught(
      15000,
      [](uint64_t seed) {
        return RunReadPathScenario(seed, /*write_back=*/true, /*advance_clock=*/false);
      },
      "reused-timestamp");
}

// ---------- Per-QP drop bursts ----------
//
// A kQpDropBurst targets ONE client's queue pair to ONE node (a flaky cable,
// not a congested link): the tagged victim must see failures while an
// untagged bystander sharing every link stays clean — message loss scoped to
// a single client is precisely what the per-QP class adds over link bursts.
TEST(ChaosQpDrop, BurstsTargetOnlyTheTaggedQp) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.faults.horizon = 300 * sim::kMicrosecond;
  spec.faults.mean_gap = 5 * sim::kMicrosecond;
  spec.faults.crash_weight = 0;
  spec.faults.delay_weight = 0;
  spec.faults.drop_weight = 0;  // ONLY per-QP bursts fire.
  spec.faults.detection_weight = 0;
  spec.faults.qp_drop_weight = 1.0;
  spec.faults.qp_tag_count = 1;  // Every burst hits tag 0.
  spec.faults.max_drop_p = 0.9;
  spec.faults.max_drop_duration = 150 * sim::kMicrosecond;

  ChaosEnv c(spec);
  ObjectLayout layout = c.env.MakeObject();
  Worker& victim = c.MakeSkewedWorker(spec);     // Tag 0: targeted.
  Worker& bystander = c.MakeSkewedWorker(spec);  // Tag 1: never picked.

  auto client = [](ChaosEnv* c, Worker* w, uint64_t addr, int* failures) -> Task<void> {
    for (int i = 0; i < 60; ++i) {
      co_await c->env.sim.Delay(3000);
      std::array<uint8_t, 8> buf{};
      fabric::OpResult r = co_await w->qp(0).Read(addr, buf);
      *failures += r.ok() ? 0 : 1;
    }
  };
  int victim_failures = 0;
  int bystander_failures = 0;
  Spawn(client(&c, &victim, layout.replicas[0].meta_addr, &victim_failures));
  Spawn(client(&c, &bystander, layout.replicas[0].meta_addr, &bystander_failures));
  c.engine.Start();
  c.env.sim.Run();

  int bursts = 0;
  for (const chaos::FaultEvent& e : c.engine.trace()) {
    bursts += e.kind == chaos::FaultKind::kQpDropBurst ? 1 : 0;
  }
  EXPECT_GT(bursts, 0) << "the engine never injected a per-QP burst";
  EXPECT_GT(victim_failures, 0) << "bursts " << bursts;
  EXPECT_EQ(bystander_failures, 0)
      << "per-QP bursts leaked onto an untagged client's QP (bursts=" << bursts << ")";
}

// ---------- The undersized-writer-bound canary ----------
//
// The bug the 10-client checker-scale storms caught (first at seed 47000 of
// ChaosSwarmKvScaleSoak): ProtocolConfig.max_writers stayed at the default
// W=8 while the spec ran 10 client writers. A layout's TSL region holds
// exactly W lock words, so tids 8–9 CASed PAST their object's slab slot into
// the NEIGHBORING object's words. Their tombstone-bounce arbitration then
// read that foreign memory as a garbage lock counter (always "higher"),
// lost write-locks no reader ever took, and reported kOk for writes that
// never took effect — after which reads returned older values written
// before those acknowledged writes, a real-time-order violation. Pre-fix
// (Canary::kNoWriterBound: ChaosEnv keeps W=8 verbatim and Safe-Guess's
// fail-fast bound check stands down) the checker must catch the violation
// within a bounded seed budget and replay it byte-identically; the fixed
// configuration (auto-sized W, check armed) must stay green on the same
// seeds.

ScenarioSpec WriterBoundCanarySpec(uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.clients = 10;  // Two writers past the default W=8 TSL bound.
  spec.keys = 4;      // Dense slab neighborhood: OOB lock words hit live objects.
  spec.ops_per_client = 400;
  spec.value_size = 16;
  spec.mean_think = 4000;
  spec.faults.horizon = 3 * sim::kMillisecond;
  spec.faults.mean_gap = 150 * sim::kMicrosecond;
  spec.faults.max_crashed = 1;
  spec.faults.restart = false;  // Crash-stop: histories stay checkable.
  spec.faults.max_drop_p = 0.20;
  spec.faults.qp_drop_weight = 0.5;
  spec.faults.qp_tag_count = spec.clients;
  spec.faults.client_split_weight = 1.0;
  return spec;
}

CanaryOutcome RunWriterBoundCanaryScenario(uint64_t seed) {
  const ScenarioSpec spec = WriterBoundCanarySpec(seed);
  // Under Canary::kNoWriterBound (the pre-fix build) ChaosEnv::SizeProtocolFor
  // leaves W=8 for the 10 writers and the protocol's own bound check does not
  // abort, reproducing the historical out-of-bounds lock arbitration
  // byte-for-byte.
  ChaosEnv c(spec);
  index::IndexService index(&c.env.sim, &c.env.fabric);
  std::vector<std::unique_ptr<index::ClientCache>> caches;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions;
  ChaosHistories hist;
  for (int i = 0; i < spec.clients; ++i) {
    Worker& w = c.MakeSkewedWorker(spec);
    caches.push_back(std::make_unique<index::ClientCache>());
    sessions.push_back(std::make_unique<kv::SwarmKvSession>(&w, &index, caches.back().get()));
  }
  // Remove-heavy mix: the corruption bites inside the tombstone-bounce
  // arbitration, so removes (and the re-inserts/updates that bounce off
  // their tombstones) dominate the dice.
  const testing::KvOpMix mix{0.30, 0.60, 0.75};
  for (int i = 0; i < spec.clients; ++i) {
    Spawn(KvChaosClient(&c.env, sessions[static_cast<size_t>(i)].get(),
                        spec.seed * 131 + static_cast<uint64_t>(i), spec, &hist, mix, i));
  }
  c.engine.Start();
  c.env.sim.Run();

  CanaryOutcome out;
  out.violation = CheckHistories(hist);
  out.violated = !out.violation.empty();
  out.trace_hash = c.engine.TraceHash();
  return out;
}

TEST(ChaosReplay, TenWriterStormWithSizedTslStaysLinearizable) {
  // The canary seeds under the FIXED build — ChaosEnv widens the TSL region
  // to the client population and the bound check is armed. Must be clean on
  // the exact seeds the pre-fix canary scans, or the canary proves nothing.
  uint64_t forced = 0;
  if (testing::ForcedSeed(&forced)) {
    CanaryOutcome out = RunWriterBoundCanaryScenario(forced);
    ASSERT_FALSE(out.violated) << "seed " << forced << ": " << out.violation;
    return;
  }
  for (int i = 0; i < 40; ++i) {
    const uint64_t seed = 18000 + static_cast<uint64_t>(i);
    CanaryOutcome out = RunWriterBoundCanaryScenario(seed);
    ASSERT_FALSE(out.violated) << "seed " << seed << ": " << out.violation;
  }
}

TEST(ChaosCanary, UndersizedWriterBoundIsCaughtAndReplays) {
  ScopedCanary bug(Canary::kNoWriterBound);
  ExpectCanaryCaught(18000, RunWriterBoundCanaryScenario, "undersized-writer-bound");
}

TEST(ChaosCanary, WeakQuorumBugIsCaughtAndItsSeedReplays) {
  constexpr uint64_t kBase = 9000;
  constexpr int kMaxScenarios = 80;
  uint64_t failing_seed = 0;
  CanaryOutcome first;
  for (int i = 0; i < kMaxScenarios; ++i) {
    const uint64_t seed = kBase + static_cast<uint64_t>(i);
    CanaryOutcome out = RunCanaryScenario(seed);
    if (out.violated) {
      failing_seed = seed;
      first = out;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u)
      << "the weak-quorum canary survived " << kMaxScenarios
      << " scenarios: the chaos engine can no longer catch quorum bugs";

  // The printed seed replays byte-identically: same fault trace, same
  // violation.
  CanaryOutcome replay = RunCanaryScenario(failing_seed);
  EXPECT_TRUE(replay.violated) << "seed " << failing_seed << " did not reproduce";
  EXPECT_EQ(replay.trace_hash, first.trace_hash) << "seed " << failing_seed;
  EXPECT_EQ(replay.violation, first.violation) << "seed " << failing_seed;
}

}  // namespace
}  // namespace swarm

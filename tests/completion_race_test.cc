// Completion-after-cancellation regression coverage for pooled verb state.
//
// Pooling VerbState / Counter / ManyResults (allocate_shared over the frame
// pool) makes recycled slots LIVE memory, so a latent use-after-free in the
// completion chain would no longer crash — it would silently corrupt a
// recycled slot. These tests force the exact interleavings the fabric.cc
// pooling audit reasons about, via the response-drop chaos hook: a caller
// resumes (first quorum, or timeout) while straggler completion callbacks
// are still queued, then the queue drains. Run under the ASan CI job the
// pool delegates to the real allocator (SWARM_POOL_BYPASS), so any write to
// freed verb state is a reported use-after-free rather than silent reuse.
//
// The invariant under test (see the VerbState audit in fabric.cc): every
// queued completion callback holds its own reference to the shared state it
// writes, so the state's slot cannot recycle before the last straggler ran —
// no matter how early the awaiting coroutine resumed or how its frame died.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/fabric/fabric.h"
#include "src/sim/sync.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using fabric::OpResult;
using fabric::PostQuorum;
using fabric::QuorumOutcome;
using sim::Spawn;
using sim::Task;
using testing::TestEnv;

// Drops every response leg from one node: its verbs APPLY but complete only
// at failure_detect_delay — long after the healthy replicas answered.
void DropResponsesFrom(TestEnv* env, int node) {
  env->fabric.set_drop_fn(
      [node](int n, bool response, int) { return response && n == node; });
}

// First-quorum resume with a straggler in flight. The caller resumes at
// quorum 2-of-3 while the dropped replica's completion (a failure-detection
// timeout writing kNodeFailed into the shared block) is still queued; its
// local QuorumOutcome snapshot must stay immutable and the straggler's late
// write must land in still-owned memory.
TEST(CompletionRace, StragglerCompletesAfterFirstQuorumResume) {
  TestEnv env(23);
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();
  const int slow = layout.replicas[2].node;
  DropResponsesFrom(&env, slow);

  QuorumOutcome snap;
  sim::Time resumed_at = 0;
  auto driver = [](Worker* w, const ObjectLayout* layout, QuorumOutcome* out,
                   sim::Time* at) -> Task<void> {
    sim::PoolVec<sim::Bytes> bufs;
    sim::PoolVec<Task<OpResult>> verbs;
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      bufs.emplace_back(8);
      verbs.push_back(w->qp(rep.node).Read(rep.meta_addr, bufs.back()));
    }
    *out = co_await PostQuorum(w->cpu(), w->sim(), std::move(verbs), /*quorum=*/2);
    *at = w->sim()->Now();
    // Returning here destroys the driver frame (and the read buffers) while
    // the dropped replica's completion is still queued — the interleaving
    // the shared-block refcounting must survive.
  };
  Spawn(driver(&w, &layout, &snap, &resumed_at));
  env.sim.Run();

  EXPECT_TRUE(snap.reached);
  EXPECT_EQ(snap.completed_count, 2);
  EXPECT_EQ(snap.completed[0], 1);
  EXPECT_EQ(snap.completed[1], 1);
  // The straggler had not completed at resume time, and the snapshot must
  // not have been back-filled after the fact.
  EXPECT_EQ(snap.completed[2], 0);
  // The caller resumed at quorum speed; the straggler was still pending
  // (its completion fires at failure_detect_delay).
  EXPECT_LT(resumed_at, env.fabric.config().failure_detect_delay);
}

// Timeout expiry before quorum: TWO dropped replicas make quorum 3-of-3
// unreachable before the deadline. The caller resumes with reached=false and
// dies; both stragglers then complete against the shared block.
TEST(CompletionRace, TimeoutResumeThenTwoLateCompletions) {
  TestEnv env(29);
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();
  const int slow_a = layout.replicas[1].node;
  const int slow_b = layout.replicas[2].node;
  env.fabric.set_drop_fn([slow_a, slow_b](int n, bool response, int) {
    return response && (n == slow_a || n == slow_b);
  });

  QuorumOutcome snap;
  auto driver = [](Worker* w, const ObjectLayout* layout, QuorumOutcome* out) -> Task<void> {
    sim::PoolVec<sim::Bytes> bufs;
    sim::PoolVec<Task<OpResult>> verbs;
    for (int r = 0; r < layout->num_replicas; ++r) {
      const ReplicaLayout& rep = layout->replicas[static_cast<size_t>(r)];
      bufs.emplace_back(8);
      verbs.push_back(w->qp(rep.node).Read(rep.meta_addr, bufs.back()));
    }
    // Timeout between the healthy replica's completion (~2 us) and the
    // stragglers' failure-detection completions (4 us).
    *out = co_await PostQuorum(w->cpu(), w->sim(), std::move(verbs), /*quorum=*/3,
                               /*timeout=*/3'000);
    EXPECT_LT(w->sim()->Now(), sim::Time{4'000});
  };
  Spawn(driver(&w, &layout, &snap));
  env.sim.Run();

  EXPECT_FALSE(snap.reached);
  EXPECT_EQ(snap.completed_count, 1);  // Only the healthy replica answered.
  EXPECT_EQ(snap.completed[0], 1);
  EXPECT_EQ(snap.completed[1], 0);
  EXPECT_EQ(snap.completed[2], 0);
}

// The same race at the Counter level, without the fabric: a timed-out waiter
// stays on the waiter list until the next Add() sweeps it. Late Adds must
// skip (and release) the settled waiter instead of double-resuming it.
TEST(CompletionRace, CounterLateAddAfterTimedOutWait) {
  sim::Simulator sim(31);
  sim::Counter done(&sim);

  bool reached = true;
  auto waiter = [](sim::Counter c, bool* out) -> Task<void> {
    *out = co_await c.WaitFor(2, /*timeout=*/1'000);
  };
  Spawn(waiter(done, &reached));
  // Both signals arrive after the deadline.
  sim.After(5'000, [done]() mutable { done.Add(1); });
  sim.After(6'000, [done]() mutable { done.Add(1); });
  sim.Run();

  EXPECT_FALSE(reached);     // The wait timed out...
  EXPECT_EQ(done.count(), 2);  // ...and the late signals still landed safely.
}

// Write-verb straggler: a response-dropped WriteThenCas APPLIES at the node
// but completes only at failure-detection time. The issuing coroutine is
// long gone (it resumed off the healthy majority); the straggler's VerbState
// write and the subsequent read-back must both be safe.
TEST(CompletionRace, DroppedWriteAckAppliesAndCompletesLate) {
  TestEnv env(37);
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();
  const ReplicaLayout& rep = layout.replicas[0];
  DropResponsesFrom(&env, rep.node);

  OpResult wres;
  auto writer = [](Worker* w, const ReplicaLayout* rep, OpResult* out) -> Task<void> {
    sim::Bytes data(8, uint8_t{0xAB});
    *out = co_await w->qp(rep->node).Write(rep->meta_addr, data);
  };
  Spawn(writer(&w, &rep, &wres));
  env.sim.Run();
  // The ack never came back: the client sees a failure...
  EXPECT_EQ(wres.status, fabric::Status::kNodeFailed);
  // ...but the bytes landed (possibly-applied semantics).
  uint8_t cell = 0;
  env.fabric.node(rep.node).ReadInto(rep.meta_addr, std::span<uint8_t>(&cell, 1));
  EXPECT_EQ(cell, 0xAB);
}

}  // namespace
}  // namespace swarm

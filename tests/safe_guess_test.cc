// Tests for Safe-Guess (§3): fast/slow path behaviour, interplay with clock
// skew, deletes, failure handling, and randomized concurrent stress checked
// for linearizability (Appendix C's main theorem, validated empirically).

#include "src/swarm/safe_guess.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/sim/sync.h"
#include "tests/support/lincheck.h"
#include "tests/support/test_env.h"

namespace swarm {
namespace {

using sim::Spawn;
using sim::Task;
using testing::HistoryOp;
using testing::LinearizabilityChecker;
using testing::TestEnv;
using testing::ValN;

TEST(SafeGuess, WriteIsFastPathWhenUncontended) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();
  auto cache = env.MakeCache();

  auto driver = [](Worker* w, const ObjectLayout* layout,
                   std::shared_ptr<ObjectCache> cache2) -> Task<void> {
    SafeGuessObject obj(w, layout, cache2);
    const sim::Time start = w->sim()->Now();
    SgWriteResult r = co_await obj.Write(ValN(32, 1));
    const sim::Time latency = w->sim()->Now() - start;
    EXPECT_EQ(r.status, SgStatus::kOk);
    EXPECT_TRUE(r.fast_path);
    EXPECT_EQ(r.rtts, 1);
    EXPECT_LT(latency, 3200);  // One roundtrip (+ transfer).
  };
  Spawn(driver(&w, &layout, cache));
  env.sim.Run();
}

TEST(SafeGuess, ReadFindsVerifiedValueInOneRoundtrip) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  Worker& rdr = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();

  auto writer = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
    (void)co_await obj.Write(ValN(32, 7));
  };
  auto reader = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    co_await w->sim()->Delay(20000);  // Background promotion has landed.
    SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
    const sim::Time start = w->sim()->Now();
    SgReadResult r = co_await obj.Read();
    const sim::Time latency = w->sim()->Now() - start;
    EXPECT_EQ(r.status, SgStatus::kOk);
    EXPECT_EQ(r.value, ValN(32, 7));
    EXPECT_TRUE(r.fast_path);
    EXPECT_TRUE(r.used_inplace);
    EXPECT_EQ(r.rtts, 1);
    EXPECT_EQ(r.iterations, 1);
    EXPECT_LT(latency, 3000);
  };
  Spawn(writer(&w, &layout));
  Spawn(reader(&rdr, &layout));
  env.sim.Run();
}

TEST(SafeGuess, ReadOfNeverWrittenObjectIsNotFound) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
    SgReadResult r = co_await obj.Read();
    EXPECT_EQ(r.status, SgStatus::kNotFound);
  };
  Spawn(driver(&w, &layout));
  env.sim.Run();
}

TEST(SafeGuess, StaleGuessTakesSlowPathAndStillLinearizes) {
  TestEnv env;
  Worker& fresh = env.MakeWorker(0);
  // A writer whose clock lags far behind: its guesses are stale.
  Worker& laggy = env.MakeWorker(-400 * sim::kMicrosecond);
  ObjectLayout layout = env.MakeObject();

  auto driver = [](Worker* fresh, Worker* laggy, const ObjectLayout* layout) -> Task<void> {
    // Let enough virtual time pass that clock-derived counters dominate tid
    // tie-breaks before the first write.
    co_await fresh->sim()->Delay(200 * sim::kMicrosecond);
    SafeGuessObject a(fresh, layout, std::make_shared<ObjectCache>());
    SgWriteResult r1 = co_await a.Write(ValN(16, 1));
    EXPECT_TRUE(r1.fast_path);

    co_await fresh->sim()->Delay(100 * sim::kMicrosecond);

    SafeGuessObject b(laggy, layout, std::make_shared<ObjectCache>());
    SgWriteResult r2 = co_await b.Write(ValN(16, 2));
    EXPECT_EQ(r2.status, SgStatus::kOk);
    EXPECT_FALSE(r2.fast_path);  // Guess was stale: slow path.
    EXPECT_GT(r2.rtts, 1);
    EXPECT_GE(laggy->clock().resyncs(), 1u);  // §6: re-sync on stale guess.

    // The re-executed write must now be the register's value.
    SgReadResult rd = co_await a.Read();
    EXPECT_EQ(rd.status, SgStatus::kOk);
    EXPECT_EQ(rd.value, ValN(16, 2));

    // After re-sync, the laggy writer is back on the fast path.
    SgWriteResult r3 = co_await b.Write(ValN(16, 3));
    EXPECT_TRUE(r3.fast_path);
  };
  Spawn(driver(&fresh, &laggy, &layout));
  env.sim.Run();
}

TEST(SafeGuess, DeleteMakesObjectUnwritable) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
    (void)co_await obj.Write(ValN(16, 1));
    SgWriteResult del = co_await obj.Delete();
    EXPECT_EQ(del.status, SgStatus::kOk);

    SgReadResult rd = co_await obj.Read();
    EXPECT_EQ(rd.status, SgStatus::kDeleted);

    SgWriteResult wr = co_await obj.Write(ValN(16, 2));
    EXPECT_EQ(wr.status, SgStatus::kDeleted);  // §5.3.2: cannot overwrite.
  };
  Spawn(driver(&w, &layout));
  env.sim.Run();
}

// Regression (chaos_churn seed 110): tids 0 and 4 share metadata slot 0
// (meta_slots = 4). After tid 0 deletes, tid 4's write bounces and caches
// tid 0's tombstone as its slot word, so tid 4's delete replaces that
// tombstone on the first CAS. The replaced word is gone from the slot, and
// the delete must still report that the object was already dead.
TEST(SafeGuess, DeleteOverASlotSharersTombstoneReportsDeleted) {
  TestEnv env;
  Worker& w0 = env.MakeWorker();
  for (int i = 1; i < 4; ++i) {
    env.MakeWorker();
  }
  Worker& w4 = env.MakeWorker();
  ASSERT_EQ(w4.tid() % static_cast<uint32_t>(env.proto.meta_slots),
            w0.tid() % static_cast<uint32_t>(env.proto.meta_slots));
  ObjectLayout layout = env.MakeObject();

  bool done = false;
  auto driver = [](Worker* a, Worker* b, const ObjectLayout* layout2, bool* done2) -> Task<void> {
    SafeGuessObject obj_a(a, layout2, std::make_shared<ObjectCache>());
    SafeGuessObject obj_b(b, layout2, std::make_shared<ObjectCache>());
    EXPECT_EQ((co_await obj_b.Write(ValN(16, 1))).status, SgStatus::kOk);
    EXPECT_EQ((co_await obj_a.Delete()).status, SgStatus::kOk);
    EXPECT_EQ((co_await obj_b.Write(ValN(16, 2))).status, SgStatus::kDeleted);
    SgWriteResult del = co_await obj_b.Delete();
    EXPECT_EQ(del.status, SgStatus::kDeleted)
        << "fast_path=" << del.fast_path << " rtts=" << del.rtts;
    *done2 = true;
  };
  Spawn(driver(&w0, &w4, &layout, &done));
  env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SafeGuess, MinorityCrashKeepsObjectAvailable) {
  TestEnv env;
  Worker& w = env.MakeWorker();
  ObjectLayout layout = env.MakeObject();

  auto driver = [](Worker* w, const ObjectLayout* layout) -> Task<void> {
    SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
    (void)co_await obj.Write(ValN(16, 1));
    w->fabric()->Crash(layout->replicas[0].node);
    SgWriteResult wr = co_await obj.Write(ValN(16, 2));
    EXPECT_EQ(wr.status, SgStatus::kOk);
    SgReadResult rd = co_await obj.Read();
    EXPECT_EQ(rd.status, SgStatus::kOk);
    EXPECT_EQ(rd.value, ValN(16, 2));
  };
  Spawn(driver(&w, &layout));
  env.sim.Run();
}

// ---------- Randomized concurrent stress, checked for linearizability ----------

struct StressState {
  std::vector<HistoryOp> history;
  uint64_t next_value = 1;
  int max_read_iters = 0;
};

uint64_t DecodeValue(const std::vector<uint8_t>& bytes) {
  if (bytes.size() != 8) {
    return 0;
  }
  uint64_t v;
  std::memcpy(&v, bytes.data(), 8);
  return v;
}

std::vector<uint8_t> EncodeValue(uint64_t v) {
  std::vector<uint8_t> bytes(8);
  std::memcpy(bytes.data(), &v, 8);
  return bytes;
}

Task<void> StressWriter(Worker* w, const ObjectLayout* layout, int ops, StressState* st) {
  SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
  for (int i = 0; i < ops; ++i) {
    co_await w->sim()->Delay(static_cast<sim::Time>(w->sim()->rng().Below(6000)));
    const uint64_t value = st->next_value++;
    HistoryOp op;
    op.is_write = true;
    op.value = value;
    op.invoked = w->sim()->Now();
    SgWriteResult r = co_await obj.Write(EncodeValue(value));
    op.responded = w->sim()->Now();
    EXPECT_EQ(r.status, SgStatus::kOk);
    st->history.push_back(op);
  }
}

Task<void> StressReader(Worker* w, const ObjectLayout* layout, int ops, StressState* st) {
  SafeGuessObject obj(w, layout, std::make_shared<ObjectCache>());
  for (int i = 0; i < ops; ++i) {
    co_await w->sim()->Delay(static_cast<sim::Time>(w->sim()->rng().Below(6000)));
    HistoryOp op;
    op.invoked = w->sim()->Now();
    SgReadResult r = co_await obj.Read();
    op.responded = w->sim()->Now();
    EXPECT_NE(r.status, SgStatus::kUnavailable);
    op.value = (r.status == SgStatus::kOk) ? DecodeValue(r.value) : 0;
    st->max_read_iters = std::max(st->max_read_iters, r.iterations);
    st->history.push_back(op);
  }
}

class SafeGuessStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SafeGuessStress, ConcurrentHistoryIsLinearizable) {
  TestEnv env(GetParam());
  // Random bounded clock skew per writer: some guesses go stale.
  const int writers = 3;
  const int readers = 3;
  const int ops = 4;
  ObjectLayout layout = env.MakeObject();
  StressState st;
  for (int i = 0; i < writers; ++i) {
    Worker& w = env.MakeWorker(env.sim.rng().Range(-20000, 20000));
    Spawn(StressWriter(&w, &layout, ops, &st));
  }
  for (int i = 0; i < readers; ++i) {
    Worker& w = env.MakeWorker(0);
    Spawn(StressReader(&w, &layout, ops, &st));
  }
  env.sim.Run();
  ASSERT_EQ(st.history.size(), static_cast<size_t>((writers + readers) * ops));
  EXPECT_TRUE(LinearizabilityChecker::Check(st.history))
      << "Safe-Guess produced a non-linearizable history (seed " << GetParam() << ")";
  // Appendix C.2: reads terminate within 2 * writers + 1 iterations.
  EXPECT_LE(st.max_read_iters, 2 * env.proto.max_writers + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeGuessStress, ::testing::Range<uint64_t>(1, 60));

}  // namespace
}  // namespace swarm

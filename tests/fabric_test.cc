// Tests for the simulated RDMA fabric: verb semantics, latency model, FIFO
// pipelining, torn large writes, CAS atomicity, failure injection, and the
// client CPU submission model.

#include "src/fabric/fabric.h"
#include "src/util/discard.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace swarm::fabric {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;
using sim::Time;

FabricConfig TestConfig() {
  FabricConfig cfg;
  cfg.num_nodes = 4;
  cfg.node_capacity_bytes = 1 << 20;
  cfg.one_way_delay = 700;
  cfg.delay_jitter = 0;  // Deterministic timing for assertions.
  cfg.node_op_cost = 50;
  cfg.submit_cost = 200;
  return cfg;
}

TEST(MemoryNode, AllocateIsAlignedAndZeroed) {
  MemoryNode node(4096);
  uint64_t a = node.Allocate(24);
  uint64_t b = node.Allocate(3);
  uint64_t c = node.Allocate(8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b, a + 24);
  EXPECT_EQ(c % 8, 0u);
  EXPECT_GT(c, b);
  std::vector<uint8_t> buf(24, 0xFF);
  node.ReadInto(a, buf);
  for (uint8_t v : buf) {
    EXPECT_EQ(v, 0);
  }
}

TEST(MemoryNode, CasWordSemantics) {
  MemoryNode node(4096);
  uint64_t addr = node.Allocate(8);
  EXPECT_EQ(node.CasWord(addr, 0, 42), 0u);   // succeeds
  EXPECT_EQ(node.LoadWord(addr), 42u);
  EXPECT_EQ(node.CasWord(addr, 0, 99), 42u);  // fails, returns current
  EXPECT_EQ(node.LoadWord(addr), 42u);
  EXPECT_EQ(node.CasWord(addr, 42, 99), 42u);
  EXPECT_EQ(node.LoadWord(addr), 99u);
}

TEST(MemoryNode, RecoverLosesContents) {
  MemoryNode node(4096);
  uint64_t addr = node.Allocate(8);
  node.StoreWord(addr, 7);
  node.Crash();
  EXPECT_TRUE(node.failed());
  node.Recover();
  EXPECT_FALSE(node.failed());
  EXPECT_EQ(node.LoadWord(addr), 0u);
}

Task<void> WriteReadRoundtrip(Fabric* f, bool* ok, Time* write_done, Time* read_done) {
  Qp qp(f, 0, nullptr);
  uint64_t addr = f->node(0).Allocate(64);
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  OpResult w = co_await qp.Write(addr, data);
  *write_done = f->sim()->Now();
  EXPECT_TRUE(w.ok());

  std::vector<uint8_t> out(64, 0);
  OpResult r = co_await qp.Read(addr, out);
  *read_done = f->sim()->Now();
  EXPECT_TRUE(r.ok());
  *ok = (out == data);
}

TEST(Fabric, WriteThenReadReturnsData) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ok = false;
  Time write_done = 0;
  Time read_done = 0;
  Spawn(WriteReadRoundtrip(&fabric, &ok, &write_done, &read_done));
  sim.Run();
  EXPECT_TRUE(ok);
  // Write: ~2 * one_way + node cost + transfer; the RTT must be ~1.5 us.
  EXPECT_GT(write_done, 1400);
  EXPECT_LT(write_done, 1700);
  EXPECT_GT(read_done - write_done, 1400);
  EXPECT_LT(read_done - write_done, 1800);
}

Task<void> CasRace(Fabric* f, uint64_t addr, uint64_t desired, int* successes) {
  Qp qp(f, 0, nullptr);
  OpResult r = co_await qp.Cas(addr, 0, desired);
  if (r.ok() && r.old_value == 0) {
    ++*successes;
  }
}

TEST(Fabric, ConcurrentCasOnlyOneWins) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  uint64_t addr = fabric.node(0).Allocate(8);
  int successes = 0;
  for (int i = 1; i <= 10; ++i) {
    Spawn(CasRace(&fabric, addr, static_cast<uint64_t>(i), &successes));
  }
  sim.Run();
  EXPECT_EQ(successes, 1);
}

// A read that lands in the middle of a large write's transfer window must
// observe a torn buffer (first half new, second half old) — the paper's §2.1
// non-atomicity property, which In-n-Out's hash check exists to detect.
Task<void> TornReadProbe(Fabric* f, uint64_t addr, size_t len, bool* saw_torn, bool* saw_old,
                         bool* saw_new) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> out(len);
  swarm::DiscardStatus(co_await qp.Read(addr, out));
  bool first_new = out[0] == 0xBB;
  bool last_new = out[len - 1] == 0xBB;
  if (first_new && !last_new) {
    *saw_torn = true;
  } else if (!first_new && !last_new) {
    *saw_old = true;
  } else if (first_new && last_new) {
    *saw_new = true;
  }
}

Task<void> BigWrite(Fabric* f, uint64_t addr, size_t len) {
  Qp qp(f, 0, nullptr);  // Distinct Qp object: no FIFO ordering vs the readers.
  std::vector<uint8_t> data(len, 0xBB);
  swarm::DiscardStatus(co_await qp.Write(addr, data));
}

TEST(Fabric, LargeWritesCanTear) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.bandwidth_bytes_per_ns = 0.5;  // Slow link: wide tear window.
  Fabric fabric(&sim, cfg);
  constexpr size_t kLen = 1024;
  uint64_t addr = fabric.node(0).Allocate(kLen);
  std::vector<uint8_t> init(kLen, 0xAA);
  fabric.node(0).WriteFrom(addr, init);

  bool saw_torn = false;
  bool saw_old = false;
  bool saw_new = false;
  sim.At(500, [&] { Spawn(BigWrite(&fabric, addr, kLen)); });
  // Probe at many offsets around the write's transfer window (~2 us wide).
  for (Time t = 0; t < 6000; t += 100) {
    sim.At(t, [&] { Spawn(TornReadProbe(&fabric, addr, kLen, &saw_torn, &saw_old, &saw_new)); });
  }
  sim.Run();
  EXPECT_TRUE(saw_torn);
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

// WRITE→CAS pipelining: if the CAS's effect is visible, the write must be
// fully visible too, and the pair completes in one roundtrip.
Task<void> PipelinedWriteCas(Fabric* f, uint64_t waddr, uint64_t caddr, Time* rtt, bool* cas_ok) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> data(512, 0xCD);
  Time start = f->sim()->Now();
  OpResult r = co_await qp.WriteThenCas(waddr, data, caddr, 0, 1);
  *rtt = f->sim()->Now() - start;
  *cas_ok = r.ok() && r.old_value == 0;
}

Task<void> OrderProbe(Fabric* f, uint64_t waddr, uint64_t /*caddr*/, size_t len, bool* violation) {
  Qp qp(f, 0, nullptr);
  std::vector<uint8_t> buf(len + 8);
  swarm::DiscardStatus(co_await qp.Read(waddr, buf));  // Covers [write buffer][cas word].
  uint64_t cas_word;
  std::memcpy(&cas_word, buf.data() + len, 8);
  if (cas_word == 1) {
    for (size_t i = 0; i < len; ++i) {
      if (buf[i] != 0xCD) {
        *violation = true;
        co_return;
      }
    }
  }
}

TEST(Fabric, PipelinedWriteCasIsOrderedAndSingleRoundtrip) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.bandwidth_bytes_per_ns = 1.0;
  Fabric fabric(&sim, cfg);
  // Layout: [512-byte buffer][8-byte cas word] contiguous so one read sees both.
  uint64_t waddr = fabric.node(0).Allocate(512 + 8);
  uint64_t caddr = waddr + 512;

  Time rtt = 0;
  bool cas_ok = false;
  bool violation = false;
  Spawn(PipelinedWriteCas(&fabric, waddr, caddr, &rtt, &cas_ok));
  for (Time t = 0; t < 5000; t += 50) {
    sim.At(t, [&] { Spawn(OrderProbe(&fabric, waddr, caddr, 512, &violation)); });
  }
  sim.Run();
  EXPECT_TRUE(cas_ok);
  EXPECT_FALSE(violation) << "CAS visible before its pipelined write";
  // One roundtrip: ~2 * 700 + transfer(512+overheads) + node costs < 2.7 us,
  // far below the ~2 RTT a non-pipelined write+cas would need.
  EXPECT_LT(rtt, 2700);
}

Task<void> SameQpFifo(Fabric* f, bool* ordered) {
  // Two back-to-back writes on one QP: issue both without waiting, the
  // second must not apply before the first.
  Qp qp(f, 0, nullptr);
  uint64_t a = f->node(0).Allocate(8);
  std::vector<uint8_t> one(8, 1);
  std::vector<uint8_t> two(8, 2);
  auto w1 = qp.Write(a, one);
  auto w2 = qp.Write(a, two);
  auto [r1, r2] = co_await sim::WhenBoth(f->sim(), std::move(w1), std::move(w2));
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  *ordered = (f->node(0).LoadWord(a) == 0x0202020202020202ull);
}

TEST(Fabric, SameQpWritesApplyInOrder) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ordered = false;
  Spawn(SameQpFifo(&fabric, &ordered));
  sim.Run();
  EXPECT_TRUE(ordered);
}

Task<void> FailedNodeOp(Fabric* f, Time* latency, Status* status) {
  Qp qp(f, 0, nullptr);
  uint64_t addr = f->node(0).Allocate(8);
  std::vector<uint8_t> out(8);
  Time start = f->sim()->Now();
  OpResult r = co_await qp.Read(addr, out);
  *latency = f->sim()->Now() - start;
  *status = r.status;
}

TEST(Fabric, OpsOnCrashedNodeFailAfterDetectDelay) {
  Simulator sim;
  FabricConfig cfg = TestConfig();
  cfg.failure_detect_delay = 4000;
  Fabric fabric(&sim, cfg);
  fabric.Crash(0);
  Time latency = 0;
  Status status = Status::kOk;
  Spawn(FailedNodeOp(&fabric, &latency, &status));
  sim.Run();
  EXPECT_EQ(status, Status::kNodeFailed);
  EXPECT_GE(latency, 4000);
  EXPECT_LT(latency, 4200);
}

TEST(Fabric, CrashFailsInFlightUnexecutedOps) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  Status status = Status::kOk;
  Time latency = 0;
  Spawn(FailedNodeOp(&fabric, &latency, &status));
  sim.At(100, [&] { fabric.Crash(0); });  // Before the op reaches the node.
  sim.Run();
  EXPECT_EQ(status, Status::kNodeFailed);
}

Task<void> IssueNOps(Fabric* f, ClientCpu* cpu, int n, Time* total) {
  Qp qp(f, 0, cpu);
  uint64_t addr = f->node(0).Allocate(8);
  std::vector<uint8_t> out(8);
  Time start = f->sim()->Now();
  for (int i = 0; i < n; ++i) {
    swarm::DiscardStatus(co_await qp.Read(addr, out));
  }
  *total = f->sim()->Now() - start;
}

TEST(Fabric, ClientCpuSerializesSubmissions) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  ClientCpu cpu(&sim);
  Time t1 = 0;
  Time t2 = 0;
  // Two workers sharing one CPU: their submissions serialize, so the pair of
  // first ops departs 200 ns apart rather than simultaneously.
  Spawn(IssueNOps(&fabric, &cpu, 1, &t1));
  Spawn(IssueNOps(&fabric, &cpu, 1, &t2));
  sim.Run();
  EXPECT_EQ(cpu.busy_ns(), 400);
  EXPECT_NE(t1, t2);  // One of them waited behind the other's submission.
}

TEST(Fabric, StatsAccounting) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  bool ok = false;
  Time a = 0;
  Time b = 0;
  Spawn(WriteReadRoundtrip(&fabric, &ok, &a, &b));
  sim.Run();
  const FabricStats& st = fabric.stats();
  EXPECT_EQ(st.reads, 1u);
  EXPECT_EQ(st.writes, 1u);
  // Write: header + 64 payload; read: header each way + 64 payload back.
  EXPECT_EQ(st.bytes_to_nodes, kVerbHeaderBytes + 64 + kVerbHeaderBytes);
  EXPECT_EQ(st.bytes_from_nodes, kAckBytes + kVerbHeaderBytes + 64);
}

TEST(Fabric, JitterStaysBounded) {
  Simulator sim(123);
  FabricConfig cfg = TestConfig();
  cfg.delay_jitter = 90;
  Fabric fabric(&sim, cfg);
  for (int i = 0; i < 1000; ++i) {
    Time d = fabric.SampleDelay();
    EXPECT_GE(d, cfg.one_way_delay - cfg.delay_jitter);
    EXPECT_LE(d, cfg.one_way_delay + cfg.delay_jitter);
  }
}

TEST(Fabric, ExtraDelaySlowsNode) {
  Simulator sim;
  Fabric fabric(&sim, TestConfig());
  fabric.node(0).set_extra_delay(5000);
  Time latency = 0;
  Status status = Status::kNodeFailed;
  auto op = [](Fabric* f, Time* lat, Status* st) -> Task<void> {
    Qp qp(f, 0, nullptr);
    uint64_t addr = f->node(0).Allocate(8);
    std::vector<uint8_t> out(8);
    Time start = f->sim()->Now();
    OpResult r = co_await qp.Read(addr, out);
    *lat = f->sim()->Now() - start;
    *st = r.status;
  };
  Spawn(op(&fabric, &latency, &status));
  sim.Run();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_GT(latency, 6000);
}

// --- Verb-outcome matrix. ---------------------------------------------------
//
// Every verb against every way a verb can end, on the jitter-free fixture:
// exact completion instant, status, node-side effect, CAS old value, byte
// and op accounting, drop-hook legs and the QP's revocation state. Pins the
// deliberate asymmetries between the verbs: a READ treats a dropped response
// like a dropped request (nothing is delivered, the response leg is sampled
// up front), a write or CAS whose response drops still applies, a staged
// write's halves are fenced like the verb itself, and only kStaleEpoch
// revokes the QP.

enum class MatrixVerb { kRead, kWrite, kCas, kWriteThenCas };
enum class MatrixCase { kOk, kCrashed, kStaleEpoch, kMovedReplica, kRequestDropped, kResponseDropped };

constexpr size_t kMatrixLen = 64;     // Payload of READ/WRITE: staged (> 8 B, xfer 5 ns).
constexpr uint64_t kMatrixOld = 5;    // CAS word before the verb.
constexpr uint64_t kMatrixNew = 9;    // CAS desired value.

struct MatrixRun {
  OpResult result;
  Time done_at = -1;
  bool applied = false;  // READ: bytes delivered; others: node memory changed.
  bool untouched = true; // Node memory exactly as before the verb.
  FabricStats stats;
  bool revoked = false;
  std::vector<bool> drop_legs;  // `response` flag of each drop-hook call.
};

Task<void> IssueMatrixVerb(Fabric* f, Qp* qp, MatrixVerb verb, uint64_t buf, uint64_t word,
                           std::vector<uint8_t>* data, std::vector<uint8_t>* out,
                           MatrixRun* run) {
  switch (verb) {
    case MatrixVerb::kRead:
      run->result = co_await qp->Read(buf, *out);
      break;
    case MatrixVerb::kWrite:
      run->result = co_await qp->Write(buf, *data);
      break;
    case MatrixVerb::kCas:
      run->result = co_await qp->Cas(word, kMatrixOld, kMatrixNew);
      break;
    case MatrixVerb::kWriteThenCas:
      run->result = co_await qp->WriteThenCas(buf, *data, word, kMatrixOld, kMatrixNew);
      break;
  }
  run->done_at = f->sim()->Now();
}

MatrixRun RunMatrixVerb(MatrixVerb verb, MatrixCase c) {
  Simulator sim;
  MatrixRun run;
  FabricConfig cfg = TestConfig();
  cfg.drop_fn = [&run, c](int /*node*/, bool response, int /*qp_tag*/) {
    run.drop_legs.push_back(response);
    return response ? c == MatrixCase::kResponseDropped : c == MatrixCase::kRequestDropped;
  };
  Fabric fabric(&sim, cfg);
  MemoryNode& node = fabric.node(0);
  const uint64_t buf = node.Allocate(kMatrixLen);
  const uint64_t word = node.Allocate(8);
  std::vector<uint8_t> before(kMatrixLen, 0xAA);
  node.WriteFrom(buf, before);
  node.StoreWord(word, kMatrixOld);

  uint64_t client_epoch = 1;
  Qp qp(&fabric, 0, nullptr);
  qp.set_epoch(&client_epoch);
  switch (c) {
    case MatrixCase::kCrashed:
      fabric.Crash(0);
      break;
    case MatrixCase::kStaleEpoch:
      fabric.SetFenceEpoch(2);
      break;
    case MatrixCase::kMovedReplica:
      node.RetireRegion(buf, kMatrixLen);
      node.RetireRegion(word, 8);
      break;
    default:
      break;
  }

  std::vector<uint8_t> data(kMatrixLen, 0xBB);
  std::vector<uint8_t> out(kMatrixLen, 0);
  Spawn(IssueMatrixVerb(&fabric, &qp, verb, buf, word, &data, &out, &run));
  sim.Run();

  std::vector<uint8_t> now(kMatrixLen);
  node.ReadInto(buf, now);
  const uint64_t word_now = node.LoadWord(word);
  run.untouched = now == before && word_now == kMatrixOld;
  switch (verb) {
    case MatrixVerb::kRead:
      run.applied = out == before;
      break;
    case MatrixVerb::kWrite:
      run.applied = now == data;
      break;
    case MatrixVerb::kCas:
      run.applied = word_now == kMatrixNew;
      break;
    case MatrixVerb::kWriteThenCas:
      run.applied = now == data && word_now == kMatrixNew;
      break;
  }
  run.stats = fabric.stats();
  run.revoked = qp.revoked();
  return run;
}

TEST(Fabric, VerbOutcomeMatrix) {
  // Fixture timing: one-way 700, node_op_cost 50, read_extra 250, a 64 B
  // transfer 5 ns, failure_detect_delay 4000, no CPU (departure at t = 0).
  // The NIC serves at arrival (700); a READ and a CAS execute there, a
  // WRITE when its last byte lands (705), a WRITE→CAS series's CAS one
  // node_op_cost after its write (755). Responses take node_op_cost + 700.
  struct VerbFacts {
    MatrixVerb verb;
    const char* name;
    Time exec;             // Node-side execution instant of the final leg.
    Time ok_done;          // Completion of the successful verb.
    uint64_t ops;          // ops_issued (a pipelined series posts two WQEs).
    uint64_t reads, writes, casses;
    uint64_t to_nodes;     // Request bytes (counted at posting, always).
    uint64_t from_nodes_ok;
  };
  const VerbFacts verbs[] = {
      {MatrixVerb::kRead, "Read", 700, 700 + 50 + 250 + 700 + 5, 1, 1, 0, 0, kVerbHeaderBytes,
       kVerbHeaderBytes + kMatrixLen},
      {MatrixVerb::kWrite, "Write", 705, 705 + 50 + 700, 1, 0, 1, 0,
       kVerbHeaderBytes + kMatrixLen, kAckBytes},
      {MatrixVerb::kCas, "Cas", 700, 700 + 50 + 700, 1, 0, 0, 1, kVerbHeaderBytes + 16,
       kAckBytes + 8},
      {MatrixVerb::kWriteThenCas, "WriteThenCas", 755, 755 + 50 + 700, 2, 0, 1, 1,
       2 * kVerbHeaderBytes + kMatrixLen + 16, kAckBytes + 8},
  };
  const bool is_cas[] = {false, false, true, true};
  const MatrixCase cases[] = {MatrixCase::kOk,           MatrixCase::kCrashed,
                              MatrixCase::kStaleEpoch,   MatrixCase::kMovedReplica,
                              MatrixCase::kRequestDropped, MatrixCase::kResponseDropped};
  const char* case_names[] = {"ok", "crashed", "stale-epoch", "moved-replica", "request-dropped",
                              "response-dropped"};

  for (size_t v = 0; v < 4; ++v) {
    const VerbFacts& vf = verbs[v];
    for (size_t k = 0; k < 6; ++k) {
      const MatrixCase c = cases[k];
      SCOPED_TRACE(std::string(vf.name) + " / " + case_names[k]);
      const MatrixRun run = RunMatrixVerb(vf.verb, c);

      Status status = Status::kOk;
      Time done = vf.ok_done;
      bool applied = true;
      uint64_t from_nodes = vf.from_nodes_ok;
      std::vector<bool> legs = {false, true};
      switch (c) {
        case MatrixCase::kOk:
          break;
        case MatrixCase::kCrashed:
          status = Status::kNodeFailed;
          done = 4000;
          applied = false;
          from_nodes = 0;
          break;
        case MatrixCase::kStaleEpoch:
          status = Status::kStaleEpoch;
          done = vf.exec + 50 + 700;  // NACK at response speed.
          applied = false;
          from_nodes = kAckBytes;
          break;
        case MatrixCase::kMovedReplica:
          status = Status::kMovedReplica;
          done = vf.exec + 50 + 700;
          applied = false;
          from_nodes = kAckBytes;
          break;
        case MatrixCase::kRequestDropped:
          status = Status::kNodeFailed;
          done = 4000;
          applied = false;
          from_nodes = 0;
          legs = {false};  // The response leg is never sampled.
          break;
        case MatrixCase::kResponseDropped:
          status = Status::kNodeFailed;
          done = 4000;
          applied = vf.verb != MatrixVerb::kRead;  // Writes and CASes still land.
          from_nodes = 0;
          break;
      }

      EXPECT_EQ(run.result.status, status);
      EXPECT_EQ(run.done_at, done);
      EXPECT_EQ(run.applied, applied);
      if (vf.verb != MatrixVerb::kRead) {
        EXPECT_EQ(run.untouched, !applied);  // No half-applied staged write.
      } else {
        EXPECT_TRUE(run.untouched);
      }
      EXPECT_EQ(run.result.old_value, is_cas[v] && c == MatrixCase::kOk ? kMatrixOld : 0u);
      EXPECT_EQ(run.stats.ops_issued, vf.ops);
      EXPECT_EQ(run.stats.reads, vf.reads);
      EXPECT_EQ(run.stats.writes, vf.writes);
      EXPECT_EQ(run.stats.casses, vf.casses);
      EXPECT_EQ(run.stats.bytes_to_nodes, vf.to_nodes);
      EXPECT_EQ(run.stats.bytes_from_nodes, from_nodes);
      EXPECT_EQ(run.drop_legs, legs);
      // Only a stale-epoch NACK revokes; a moved replica leaves the QP armed.
      EXPECT_EQ(run.revoked, c == MatrixCase::kStaleEpoch);
    }
  }
}

// A revoked QP fails fast: kStaleEpoch at the posting instant, no fabric
// traffic, no drop-hook call, until Rearm().
TEST(Fabric, RevokedQpFailsFastUntilRearmed) {
  Simulator sim;
  int drop_calls = 0;
  FabricConfig cfg = TestConfig();
  cfg.drop_fn = [&drop_calls](int, bool, int) {
    ++drop_calls;
    return false;
  };
  Fabric fabric(&sim, cfg);
  const uint64_t word = fabric.node(0).Allocate(8);
  uint64_t client_epoch = 1;
  Qp qp(&fabric, 0, nullptr);
  qp.set_epoch(&client_epoch);
  fabric.SetFenceEpoch(2);

  std::vector<Status> statuses;
  std::vector<Time> at;
  auto driver = [](Fabric* f, Qp* q, uint64_t w, uint64_t* epoch, std::vector<Status>* st,
                   std::vector<Time>* t) -> Task<void> {
    st->push_back((co_await q->Cas(w, 0, 1)).status);  // Revokes.
    t->push_back(f->sim()->Now());
    std::vector<uint8_t> out(8);
    st->push_back((co_await q->Read(w, out)).status);  // Local, instant.
    t->push_back(f->sim()->Now());
    *epoch = 2;
    q->Rearm();
    st->push_back((co_await q->Cas(w, 0, 1)).status);
    t->push_back(f->sim()->Now());
  };
  Spawn(driver(&fabric, &qp, word, &client_epoch, &statuses, &at));
  sim.Run();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses[0], Status::kStaleEpoch);
  EXPECT_EQ(statuses[1], Status::kStaleEpoch);
  EXPECT_EQ(statuses[2], Status::kOk);
  EXPECT_EQ(at[0], 1450);
  EXPECT_EQ(at[1], 1450);
  EXPECT_EQ(at[2], 1450 + 1450);
  EXPECT_EQ(drop_calls, 4);  // Two legs per posted verb; the local fail posts nothing.
  EXPECT_EQ(fabric.stats().ops_issued, 2u);
  EXPECT_FALSE(qp.revoked());
  EXPECT_EQ(fabric.node(0).LoadWord(word), 1u);
}

}  // namespace
}  // namespace swarm::fabric

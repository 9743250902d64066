// Event-core microbenchmark: host-side events/sec of the allocation-free
// tagged-event loop (callback chains with fabric-sized captures, and
// coroutine resumes), plus end-to-end verbs/sec of a SWARM-KV run with
// doorbell batching on and off.
//
//   ./build/bench_event_loop [callback_events] [coroutine_resumes] [kv_ops]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common/harness.h"
#include "bench/common/json_report.h"
#include "bench/common/report.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace swarm::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The capture profile of a fabric completion callback: ~12 words of op state
// (node id, addresses, lengths, shared completion state, departure times).
struct Capture {
  uint64_t w[12];
};

// `chains` concurrent event chains, each rescheduling itself `per_chain`
// times with a fabric-sized capture — the steady-state shape of a
// replication benchmark's event queue.
double CallbackChains(sim::Simulator* loop, int chains, uint64_t per_chain, uint64_t* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Simulator* loop;
    uint64_t left;
    uint64_t* sink;
    void Fire(const Capture& c) {
      *sink += c.w[0];
      if (left-- == 0) {
        return;
      }
      Capture next = c;
      next.w[0] ^= left;
      loop->At(loop->Now() + 1 + static_cast<sim::Time>(left & 7),
               [this, next] { Fire(next); });
    }
  };
  std::vector<Chain> state(static_cast<size_t>(chains));
  for (int c = 0; c < chains; ++c) {
    state[static_cast<size_t>(c)] = Chain{loop, per_chain, sink};
    Capture seed{};
    seed.w[0] = static_cast<uint64_t>(c);
    loop->At(static_cast<sim::Time>(c), [chain = &state[static_cast<size_t>(c)], seed] {
      chain->Fire(seed);
    });
  }
  loop->Run();
  return SecondsSince(t0);
}

sim::Task<void> ResumeChain(sim::Simulator* loop, uint64_t iters, uint64_t* sink) {
  for (uint64_t i = 0; i < iters; ++i) {
    co_await loop->Delay(1 + static_cast<sim::Time>(i & 7));
    ++*sink;
  }
}

// `chains` coroutines ping-ponging through the scheduler — the ResumeAt fast
// path that dominates protocol execution.
double CoroutineChains(sim::Simulator* loop, int chains, uint64_t per_chain, uint64_t* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < chains; ++c) {
    sim::Spawn(ResumeChain(loop, per_chain, sink));
  }
  loop->Run();
  return SecondsSince(t0);
}

RunResults KvRun(bool batching, uint64_t ops, uint64_t seed, uint64_t* events_out,
                 uint64_t* coroutine_events_out, fabric::FabricStats* stats_out,
                 double* wall_out) {
  HarnessConfig cfg;
  cfg.seed = seed;
  cfg.store = "swarm";
  cfg.fabric.doorbell_batching = batching;
  cfg.workload.num_keys = 10000;
  cfg.warmup_ops = ops / 4;
  cfg.measure_ops = ops;
  KvHarness harness(cfg);
  harness.Load();
  const uint64_t events_before = harness.sim().events_processed();
  const uint64_t coroutine_before = harness.sim().coroutine_events();
  const fabric::FabricStats before = harness.fabric().stats();
  const auto t0 = std::chrono::steady_clock::now();
  RunResults results = harness.Run();
  *wall_out = SecondsSince(t0);
  *events_out = harness.sim().events_processed() - events_before;
  *coroutine_events_out = harness.sim().coroutine_events() - coroutine_before;
  // Measure-phase delta, so Load/warmup traffic does not inflate the table.
  fabric::FabricStats delta = harness.fabric().stats();
  delta.ops_issued -= before.ops_issued;
  delta.bytes_to_nodes -= before.bytes_to_nodes;
  delta.bytes_from_nodes -= before.bytes_from_nodes;
  delta.casses -= before.casses;
  delta.reads -= before.reads;
  delta.writes -= before.writes;
  delta.doorbells -= before.doorbells;
  delta.doorbell_splits -= before.doorbell_splits;
  delta.batches -= before.batches;
  delta.batched_verbs -= before.batched_verbs;
  *stats_out = delta;
  return results;
}

int Main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  const uint64_t callback_events = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000;
  const uint64_t coroutine_resumes = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2000000;
  const uint64_t kv_ops = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 40000;
  constexpr int kChains = 4096;
  uint64_t sink = 0;
  JsonReport rep("event_loop");
  rep.Label("callback_events", std::to_string(callback_events));
  rep.Label("coroutine_resumes", std::to_string(coroutine_resumes));
  rep.Label("kv_ops", std::to_string(kv_ops));

  PrintHeader("Event core: callback events (fabric-sized ~96 B captures)");
  sim::Simulator tagged_cb;
  const double tagged_cb_s =
      CallbackChains(&tagged_cb, kChains, callback_events / kChains, &sink);
  const double tagged_cb_rate = static_cast<double>(tagged_cb.events_processed()) / tagged_cb_s;
  PrintTable({
      {"loop", "events", "wall_s", "events/sec"},
      {"tagged-event slab heap", FmtU(tagged_cb.events_processed()), Fmt("%.3f", tagged_cb_s),
       Fmt("%.0f", tagged_cb_rate)},
  });
  rep.AddEventLoop("cb.tagged", tagged_cb.events_processed(), tagged_cb.coroutine_events(),
                   tagged_cb_s);

  PrintHeader("Event core: coroutine resumes (ResumeAt fast path)");
  sim::Simulator tagged_co;
  const double tagged_co_s =
      CoroutineChains(&tagged_co, kChains, coroutine_resumes / kChains, &sink);
  const double tagged_co_rate = static_cast<double>(tagged_co.events_processed()) / tagged_co_s;
  PrintTable({
      {"loop", "events", "wall_s", "events/sec"},
      {"tagged-event slab heap", FmtU(tagged_co.events_processed()), Fmt("%.3f", tagged_co_s),
       Fmt("%.0f", tagged_co_rate)},
  });
  rep.AddEventLoop("co.tagged", tagged_co.events_processed(), tagged_co.coroutine_events(),
                   tagged_co_s);

  PrintHeader("SWARM-KV (YCSB-B) with doorbell batching off vs. on");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"batching", "Mops/s(virt)", "p50 get us", "p50 upd us", "doorbells",
                  "verbs/batch", "host events/s"});
  for (bool batching : {false, true}) {
    uint64_t events = 0;
    uint64_t coroutine_events = 0;
    fabric::FabricStats stats;
    double wall = 0;
    RunResults r = KvRun(batching, kv_ops, 1, &events, &coroutine_events, &stats, &wall);
    // This section sweeps batching EXPLICITLY (labeled per row/key); the
    // global --paper-calibration regime does not apply to it.
    const std::string key = batching ? "kv.batch_on" : "kv.batch_off";
    rep.Metric(key + ".tput_mops", r.ThroughputMops());
    rep.Metric(key + ".get_p50_us", r.get_latency.PercentileUs(50));
    rep.Metric(key + ".update_p50_us", r.update_latency.PercentileUs(50));
    rep.AddBatchStats(key, stats);
    rep.AddEventLoop(key, events, coroutine_events, wall);
    rows.push_back({batching ? "on" : "off", Fmt("%.3f", r.ThroughputMops()),
                    Fmt("%.2f", r.get_latency.PercentileUs(50)),
                    Fmt("%.2f", r.update_latency.PercentileUs(50)), FmtU(stats.doorbells),
                    Fmt("%.2f", stats.verbs_per_batch()),
                    Fmt("%.0f", static_cast<double>(events) / wall)});
    std::printf("batching=%-3s %s | %s\n", batching ? "on" : "off",
                EventLoopSummary(events, coroutine_events, wall).c_str(),
                BatchSummary(stats).c_str());
  }
  PrintTable(rows);
  std::printf("\n(sink=%llu)\n", static_cast<unsigned long long>(sink));
  rep.Write();
  return 0;
}

}  // namespace
}  // namespace swarm::bench

int main(int argc, char** argv) { return swarm::bench::Main(argc, argv); }

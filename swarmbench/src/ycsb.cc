// ycsb_b_cached and ycsb_a_miss: closed-loop YCSB mixes over Zipf(0.99) on
// SWARM-KV at 4 memory nodes and 3 replicas, doorbell batching on.
//
// Run shape (one process):
//   setup   x N   build the stack, load every key, prewarm or warm up the
//                 caches; setup_s is the median of the N set-ups.
//   window        a fixed number of ops on the last set-up: every virtual
//                 metric and per-layer count comes from here, so they are
//                 deterministic for a seed.
//   blocks        more fixed-size blocks on the same stack until --seconds
//                 of host time have passed; host_ns_per_op is their median.
//   check         the history recorded from load through the window goes
//                 through the linearizability checker.
// Every get in every phase is checked against the writes of its key.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/worker.h"
#include "src/ycsb/workload.h"
#include "swarmbench/src/layers.h"
#include "swarmbench/src/workloads.h"

namespace swarmbench {

namespace {

namespace fabric = swarm::fabric;
namespace index = swarm::index;
namespace ycsb = swarm::ycsb;

// max_outage_us is the median of the longest service gap in each of this
// many equal slices of the window: a single maximum over a fault-free window
// is one rare stall and swings widely from seed to seed.
constexpr int kOutageSlices = 16;

struct YcsbConfig {
  uint64_t keys = 100000;
  uint32_t value_size = 64;
  double get_fraction = 0.95;
  int clients = 4;
  int workers_per_client = 1;
  size_t cache_capacity = 0;  // Entries per client; 0 = unbounded and prewarmed.
  uint64_t warmup_ops = 0;
  uint64_t window_ops = 0;
  uint64_t block_ops = 0;
  int setups = 3;
};

YcsbConfig ConfigFor(const std::string& workload, bool tiny) {
  YcsbConfig c;
  if (workload == "ycsb_b_cached") {
    // The paper's headline configuration (Fig. 5, Table 2): YCSB-B, 4
    // clients x 1 outstanding op, caches holding every key.
    c.keys = 100000;
    c.get_fraction = 0.95;
    c.warmup_ops = 20000;
    c.window_ops = 120000;  // ~6,000 updates: >= 1,000 samples per op type.
    c.block_ops = 40000;
  } else {
    // YCSB-A over a working set 6x the LFU cache: 40,960 entries per client
    // is the paper's 5 MiB / 1M-key budget scaled to 250k keys (16.4%).
    c.keys = 250000;
    c.get_fraction = 0.5;
    c.workers_per_client = 4;
    c.cache_capacity = 40960;
    c.warmup_ops = 200000;  // LFU settles.
    c.window_ops = 200000;  // The get p99 sits in the sparse miss tail.
    c.block_ops = 40000;
  }
  if (tiny) {
    c.keys = 2000;
    c.cache_capacity = c.cache_capacity == 0 ? 0 : 400;
    c.warmup_ops = 2000;
    c.window_ops = 4000;
    c.block_ops = 2000;
    c.setups = 2;
  }
  return c;
}

class YcsbEnv {
 public:
  YcsbEnv(const YcsbConfig& cfg, uint64_t seed, OpLedger* ledger, Trace* trace)
      : cfg_(cfg), seed_(seed), ledger_(ledger), trace_(trace) {
    fabric::FabricConfig fcfg;
    fcfg.num_nodes = 4;
    fcfg.node_capacity_bytes = 1ull << 30;  // calloc-backed: untouched pages are free.
    fcfg.doorbell_batching = true;          // The batched regime, pinned.
    const int total_workers = cfg.clients * cfg.workers_per_client;
    proto_.replicas = 3;
    proto_.max_value = cfg.value_size;
    proto_.max_writers = std::min(total_workers, static_cast<int>(swarm::kMaxTid) + 1);
    proto_.meta_slots = std::min(total_workers, 64);
    sim_ = std::make_unique<sim::Simulator>(seed);
    fabric_ = std::make_unique<fabric::Fabric>(sim_.get(), fcfg);
    index_ = std::make_unique<index::IndexService>(sim_.get(), fabric_.get(), fcfg.one_way_delay,
                                                   fcfg.delay_jitter, fcfg.submit_cost);
    membership_ = std::make_unique<swarm::membership::MembershipService>(sim_.get(),
                                                                        fabric_.get());
    BuildClients(fcfg.num_nodes);
  }

  void Load() {
    HostPhase span(trace_, "load");
    const uint64_t n = sessions_.size();
    const uint64_t share = (cfg_.keys + n - 1) / n;
    for (uint64_t s = 0; s < n; ++s) {
      const uint64_t first = s * share;
      const uint64_t last = std::min(cfg_.keys, first + share);
      if (first < last) {
        sim::Spawn(LoadRange(static_cast<int>(s), first, last));
      }
    }
    sim_->Run();
    if (cfg_.cache_capacity == 0) {
      Prewarm();
    }
  }

  // Closed loop: every session issues ops/sessions ops back to back.
  uint64_t RunOps(uint64_t ops, const char* phase) {
    HostPhase span(trace_, std::string("run:") + phase);
    const uint64_t each = ops / sessions_.size();
    for (size_t s = 0; s < sessions_.size(); ++s) {
      sim::Spawn(ClientLoop(static_cast<int>(s), each));
    }
    sim_->Run();
    return each * sessions_.size();
  }

  sim::Simulator& sim() { return *sim_; }
  const StackView& view() const { return view_; }

 private:
  void BuildClients(int num_nodes) {
    uint32_t tid = 0;
    for (int c = 0; c < cfg_.clients; ++c) {
      cpus_.push_back(std::make_unique<fabric::ClientCpu>(sim_.get()));
      caches_.push_back(std::make_unique<index::ClientCache>(
          cfg_.cache_capacity, 32, seed_ + static_cast<uint64_t>(c)));
      const int64_t skew = sim_->rng().Range(-400, 400);
      auto known_failed = std::make_shared<std::vector<bool>>(static_cast<size_t>(num_nodes), false);
      membership_->Subscribe(known_failed);
      auto epoch = std::make_shared<fabric::ClientEpoch>();
      epoch->value = membership_->epoch();
      membership_->SubscribeEpoch(epoch);
      view_.cpus.push_back(cpus_.back().get());
      view_.caches.push_back(caches_.back().get());
      for (int w = 0; w < cfg_.workers_per_client; ++w) {
        clocks_.push_back(std::make_unique<swarm::GuessClock>(sim_.get(), skew));
        workers_.push_back(std::make_unique<swarm::Worker>(
            fabric_.get(), tid, cpus_.back().get(), clocks_.back().get(), proto_, known_failed));
        swarm::Worker* worker = workers_.back().get();
        worker->set_epoch(epoch);
        worker->set_epoch_source(
            [ms = membership_.get()] { return ms->ValidateEpoch(); });
        sessions_.push_back(
            std::make_unique<kv::SwarmKvSession>(worker, index_.get(), caches_.back().get()));
        ycsb::WorkloadConfig wcfg;
        wcfg.num_keys = cfg_.keys;
        wcfg.get_fraction = cfg_.get_fraction;
        wcfg.value_size = cfg_.value_size;
        streams_.push_back(std::make_unique<ycsb::Workload>(wcfg, seed_ * 7919 + tid));
        buffers_.emplace_back(cfg_.value_size);
        view_.clocks.push_back(clocks_.back().get());
        ++tid;
      }
    }
    view_.sim = sim_.get();
    view_.fabric = fabric_.get();
    view_.index = index_.get();
  }

  // Fills every client cache with every key's location, as an unbounded
  // warm-up would (the index's zero-roundtrip Peek).
  void Prewarm() {
    for (uint64_t key = 0; key < cfg_.keys; ++key) {
      const index::IndexEntry* e = index_->Peek(key);
      if (e == nullptr) {
        continue;
      }
      for (auto& cache : caches_) {
        index::CacheEntry entry;
        entry.layout = e->layout;
        entry.generation = e->generation;
        cache->Put(key, entry);
      }
    }
  }

  sim::Task<void> LoadRange(int s, uint64_t first, uint64_t last) {
    kv::KvSession& session = *sessions_[static_cast<size_t>(s)];
    std::vector<uint8_t>& buf = buffers_[static_cast<size_t>(s)];
    for (uint64_t key = first; key < last; ++key) {
      const uint64_t id = ledger_->NewWriteId(key);
      EncodeValueInto(id, key, buf);
      const sim::Time start = sim_->Now();
      kv::KvResult r = co_await session.Insert(key, buf);
      if (!r.ok()) {
        ledger_->Error("load: insert(" + std::to_string(key) + ") failed");
      }
      ledger_->Complete(OpKind::kInsert, key, id, start, sim_->Now(), r);
    }
  }

  sim::Task<void> ClientLoop(int s, uint64_t ops) {
    kv::KvSession& session = *sessions_[static_cast<size_t>(s)];
    ycsb::Workload& stream = *streams_[static_cast<size_t>(s)];
    std::vector<uint8_t>& buf = buffers_[static_cast<size_t>(s)];
    for (uint64_t i = 0; i < ops; ++i) {
      const ycsb::Workload::Op op = stream.Next();
      const sim::Time start = sim_->Now();
      if (op.type == ycsb::OpType::kGet) {
        kv::KvResult r = co_await session.Get(op.key);
        ledger_->Complete(OpKind::kGet, op.key, 0, start, sim_->Now(), r);
      } else {
        const uint64_t id = ledger_->NewWriteId(op.key);
        EncodeValueInto(id, op.key, buf);
        kv::KvResult r = co_await session.Update(op.key, buf);
        ledger_->Complete(OpKind::kUpdate, op.key, id, start, sim_->Now(), r);
      }
    }
  }

  YcsbConfig cfg_;
  uint64_t seed_;
  OpLedger* ledger_;
  Trace* trace_;
  swarm::ProtocolConfig proto_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<index::IndexService> index_;
  std::unique_ptr<swarm::membership::MembershipService> membership_;
  std::vector<std::unique_ptr<fabric::ClientCpu>> cpus_;
  std::vector<std::unique_ptr<index::ClientCache>> caches_;
  std::vector<std::unique_ptr<swarm::GuessClock>> clocks_;
  std::vector<std::unique_ptr<swarm::Worker>> workers_;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions_;
  std::vector<std::unique_ptr<ycsb::Workload>> streams_;
  std::vector<std::vector<uint8_t>> buffers_;  // One in-flight value per session.
  StackView view_;
};

}  // namespace

bool IsYcsbWorkload(const std::string& name) {
  return name == "ycsb_b_cached" || name == "ycsb_a_miss";
}

RunResult RunYcsb(const Options& opt, Trace* trace) {
  const YcsbConfig cfg = ConfigFor(opt.workload, opt.tiny);
  std::printf(
      "fingerprint: workload=%s seed=%llu keys=%llu value_size=%u get_fraction=%.2f zipf=0.99 "
      "clients=%d outstanding_per_client=%d cache=%s nodes=4 replicas=3 regime=batched "
      "warmup_ops=%llu window_ops=%llu block_ops=%llu setups=%d\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(cfg.keys), cfg.value_size, cfg.get_fraction, cfg.clients,
      cfg.workers_per_client,
      cfg.cache_capacity == 0 ? "unbounded-prewarmed"
                              : ("lfu-" + std::to_string(cfg.cache_capacity)).c_str(),
      static_cast<unsigned long long>(cfg.warmup_ops),
      static_cast<unsigned long long>(cfg.window_ops),
      static_cast<unsigned long long>(cfg.block_ops), cfg.setups);

  RunResult res;
  res.value_size = cfg.value_size;
  std::unique_ptr<OpLedger> ledger;
  std::unique_ptr<YcsbEnv> env;
  std::vector<double> setups;
  for (int i = 0; i < cfg.setups; ++i) {
    env.reset();  // Free the previous stack before building the next.
    ledger.reset();
    const double t0 = i == 0 ? 0.0 : HostCpuNow();  // The first from process start.
    ledger = std::make_unique<OpLedger>(nullptr);
    ledger->set_record_history(true);
    env = std::make_unique<YcsbEnv>(cfg, opt.seed, ledger.get(), trace);
    env->Load();
    env->RunOps(cfg.warmup_ops, "warmup");
    setups.push_back(HostCpuNow() - t0);
  }

  // Measured window.
  sim::Simulator& sim = env->sim();
  if (opt.inject == "corrupt-value") {
    ledger->InjectCorruption();
  }
  const LayerCounters before = Capture(env->view());
  ledger->ResetCounts();
  ledger->set_trace(trace);
  trace->set_keep_ops(true);
  ledger->BeginWindow(sim.Now());
  const double timed_start = HostNow();
  const uint64_t window_ops = env->RunOps(cfg.window_ops, "window");
  ledger->EndWindow();
  const LayerCounters after = Capture(env->view());
  const sim::Time window_ns = ledger->last_completion() - ledger->window_start();
  const OpLedger::Counts window = ledger->counts();
  trace->set_keep_ops(false);
  ledger->set_record_history(false);

  Metrics& m = res.metrics;
  AddVirtualEndToEnd(*ledger, window_ops, window_ns, window.unavailable, kOutageSlices, &m);
  AddWindowLayerMetrics(env->view(), before, after, *ledger, window_ns, &m);
  // Gauges as the window ends: the host blocks after it run for as long as
  // the host's speed allows, so nothing read after them is deterministic.
  AddStoreGauges(env->view(), RetiredLayouts(*env->view().index), &m);

  // Host blocks. With --trace 1 they alternate traced / untraced, which
  // gives the tracing overhead; otherwise none is traced.
  ledger->ResetCounts();
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  uint64_t plain_events = 0;
  double plain_host_s = 0.0;
  const int min_blocks = trace->enabled() ? 6 : 3;
  for (int b = 0; b < min_blocks || HostNow() - timed_start < opt.seconds; ++b) {
    const bool traced = trace->enabled() && b % 2 == 1;
    ledger->set_trace(traced ? trace : nullptr);
    const uint64_t ev0 = sim.events_processed();
    const double t0 = HostCpuNow();
    const uint64_t ops = env->RunOps(cfg.block_ops, traced ? "block-traced" : "block");
    const double dt = HostCpuNow() - t0;
    (traced ? traced_ns : plain_ns).push_back(dt * 1e9 / static_cast<double>(ops));
    if (!traced) {
      plain_events += sim.events_processed() - ev0;
      plain_host_s += dt;
    }
  }
  ledger->set_trace(trace);
  const OpLedger::Counts blocks = ledger->counts();
  res.attempted = window.attempts + blocks.attempts;
  res.failed = window.unavailable + blocks.unavailable;
  if (res.failed > 0) {
    ledger->Error("fault-free workload saw " + std::to_string(res.failed) + " unavailable ops");
  }

  // Correctness: the recorded history must linearize.
  std::vector<swarm::verify::HistoryOp>& history = ledger->history();
  if (opt.inject == "stale-read" && !InjectStaleRead(&history)) {
    ledger->Error("stale-read injection found no read to corrupt");
  }
  const CheckOutcome check = CheckHistory(history, trace);
  if (!check.linearizable) {
    ledger->Error("history is not linearizable: " + check.report);
  }

  const double host_ns = Median(plain_ns);
  m.Add("host_ns_per_op", host_ns, "ns", Clock::kHost);
  m.Add("host_peak_rss_mb", PeakRssMb(), "MiB", Clock::kHost);
  m.Add("setup_s", Median(setups), "s", Clock::kHost);
  m.Add("sim.host_events_per_s", plain_host_s > 0 ? static_cast<double>(plain_events) / plain_host_s
                                                   : 0.0,
        "1/s", Clock::kHost);
  for (const char* name : {"recycler.rounds", "recycler.epoch_final", "recycler.horizon_lag_final",
                           "recycler.fenced_clients", "repair.completed", "repair.aborted",
                           "repair.slots_repaired", "chaos.faults"}) {
    m.Add(name, 0.0, "count", Clock::kCount);
  }
  m.Add("recycler.idle_tail_us", 0.0, "us", Clock::kVirtual);
  m.Add("repair.virtual_us_mean", 0.0, "us", Clock::kVirtual);
  m.Add("verify.check_host_s", check.host_s, "s", Clock::kHost);
  m.Add("verify.history_ops", static_cast<double>(history.size()), "count", Clock::kCount);
  m.Add("verify.recorded_pct",
        Pct(static_cast<double>(history.size()), static_cast<double>(ledger->history_attempts())),
        "%", Clock::kCount);
  m.Add("verify.max_window_ops", static_cast<double>(check.stats.max_window_ops), "count",
        Clock::kCount);
  m.Add("verify.states", static_cast<double>(check.stats.states), "count", Clock::kCount);
  m.Add("ladder.lincheck.host_ns",
        history.empty() ? 0.0 : check.host_s * 1e9 / static_cast<double>(history.size()), "ns",
        Clock::kHost);
  if (trace->enabled()) {
    const double plain = Median(plain_ns);
    m.Add("trace.overhead_pct", Pct(Median(traced_ns) - plain, plain), "%", Clock::kHost);
  }
  res.errors = ledger->errors();
  return res;
}

}  // namespace swarmbench

// chaos_churn: SWARM-KV under key churn and injected faults, wired like the
// crash-recover chaos suites: a fault-linked index, a Recycler with coupled
// participants driven by chaos epoch churn, and a RepairService for
// crash -> recover-with-repair. One trial is 10 clients x 1,000 requests over
// 64 keys (multi-tenant Zipf(0.99), 40/30/20/10 get/update/insert/remove,
// 5 us mean think time), with faults for the first 4 ms of ~10 ms of virtual
// time and a clean tail after them.
//
// A request that comes back unavailable is retried after a short back-off,
// as a client would; every attempt is one KV call, one history entry and one
// span. A whole trial is its measured window.
//
// Run shape (one process): one trial per sub-seed (24 of them), then repeats
// of the same sub-seeds until --seconds of host time have passed. Every repeat
// must reproduce its sub-seed's virtual results exactly; each sub-seed's
// history is checked for linearizability and against the degeneracy guard.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/kv/tracked_session.h"
#include "src/membership/membership.h"
#include "src/repair/repair.h"
#include "src/sim/chaos.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/recycler.h"
#include "src/swarm/worker.h"
#include "src/ycsb/workload.h"
#include "swarmbench/src/layers.h"
#include "swarmbench/src/workloads.h"

namespace swarmbench {

namespace {

namespace fabric = swarm::fabric;
namespace index = swarm::index;
namespace chaos = swarm::chaos;
using chaos::FaultKind;

struct ChaosSpec {
  int clients = 10;
  uint64_t keys = 64;
  int ops_per_client = 1000;
  uint32_t value_size = 32;
  sim::Time mean_think = 5000;
  int64_t max_clock_skew = 5000;
  int tenants = 5;
  sim::Time retry_backoff = 5000;
  int max_attempts = 400;
  chaos::ChaosConfig faults;
};

ChaosSpec SpecFor(bool tiny) {
  ChaosSpec s;
  s.faults.horizon = 4 * sim::kMillisecond;
  s.faults.mean_gap = 10 * sim::kMicrosecond;  // ~400 faults.
  s.faults.max_crashed = 1;
  s.faults.restart = true;
  s.faults.repair = true;
  s.faults.min_down = 60 * sim::kMicrosecond;
  s.faults.max_down = 200 * sim::kMicrosecond;
  s.faults.max_drop_p = 0.20;
  s.faults.drop_ack_weight = 3.0;  // Ack loss: the possibly-applied case.
  s.faults.qp_drop_weight = 0.5;
  s.faults.qp_tag_count = s.clients;
  s.faults.lease_weight = 0.4;
  s.faults.churn_weight = 0.4;
  s.faults.fault_index_link = true;
  if (tiny) {
    s.ops_per_client = 300;
    s.faults.horizon = 2 * sim::kMillisecond;
    s.faults.mean_gap = 25 * sim::kMicrosecond;
  }
  return s;
}

constexpr int kSubSeeds = 24;

// The fault classes this workload enables; the degeneracy guard requires at
// least one injection of each.
constexpr FaultKind kEnabledKinds[] = {
    FaultKind::kCrash,       FaultKind::kRestart,       FaultKind::kRepairDone,
    FaultKind::kDelaySpike,  FaultKind::kDropBurst,     FaultKind::kQpDropBurst,
    FaultKind::kLeaseExpiry, FaultKind::kDetectionSweep, FaultKind::kEpochChurn,
};


class ChaosTrial {
 public:
  ChaosTrial(const ChaosSpec& spec, uint64_t seed, OpLedger* ledger, Trace* trace)
      : spec_(spec), seed_(seed), ledger_(ledger), trace_(trace) {
    fabric::FabricConfig fcfg;
    fcfg.num_nodes = 4;
    fcfg.node_capacity_bytes = 8ull << 20;
    fcfg.delay_jitter = 60;
    fcfg.doorbell_batching = true;  // The batched regime, pinned.
    proto_.replicas = 3;
    proto_.meta_slots = 4;
    proto_.max_writers = std::max(8, spec.clients);  // Every client is a writer.
    proto_.max_value = spec.value_size;
    proto_.oop_pool_slots = 256;
    sim_ = std::make_unique<sim::Simulator>(seed);
    fabric_ = std::make_unique<fabric::Fabric>(sim_.get(), fcfg);
    known_failed_ = std::make_shared<std::vector<bool>>(static_cast<size_t>(fcfg.num_nodes), false);
    membership_ = std::make_unique<swarm::membership::MembershipService>(
        sim_.get(), fabric_.get(), /*detection_delay=*/50 * sim::kMicrosecond);
    engine_ = std::make_unique<chaos::ChaosEngine>(fabric_.get(), membership_.get(), spec.faults);
    membership_->Subscribe(known_failed_);
    index_ = std::make_unique<index::IndexService>(sim_.get(), fabric_.get());
    recycler_ = std::make_unique<swarm::Recycler>(sim_.get(), membership_.get());
    index_->set_retirement_horizon([r = recycler_.get()] { return r->current_epoch(); },
                                   [r = recycler_.get()] { return r->SafeReclaimBefore(); });
    for (int i = 0; i < spec.clients; ++i) {
      swarm::Worker& w = MakeWorker(sim_->rng().Range(-spec.max_clock_skew, spec.max_clock_skew));
      w.set_repair_excluded(membership_->repairing());
      w.set_chaos_tag(i);
      auto epoch = std::make_shared<fabric::ClientEpoch>();
      epoch->value = membership_->epoch();
      w.set_epoch(epoch);
      w.set_epoch_source([ms = membership_.get()] { return ms->ValidateEpoch(); });
      membership_->SubscribeEpoch(std::move(epoch));
      caches_.push_back(std::make_unique<index::ClientCache>());
      sessions_.push_back(std::make_unique<kv::SwarmKvSession>(&w, index_.get(), caches_.back().get()));
      tracked_.push_back(std::make_unique<kv::TrackedKvSession>(sessions_.back().get()));
      // Coupled participant: the epoch ack drains this client's in-flight op.
      auto p = std::make_unique<swarm::RecyclerParticipant>(
          sim_.get(), 100 + static_cast<uint32_t>(i),
          /*ack_delay=*/1500 + 137 * static_cast<sim::Time>(i));
      kv::TrackedKvSession* t = tracked_.back().get();
      p->CoupleDrain([t] { return t->next_seq(); }, [t] { return t->oldest_inflight(); });
      participants_.push_back(std::move(p));
      recycler_->Register(participants_.back().get());
      buffers_.emplace_back(spec.value_size);
      view_.caches.push_back(caches_.back().get());
    }
    repair_ = std::make_unique<swarm::repair::RepairService>(membership_.get(), &MakeWorker(0));
    source_ = std::make_unique<swarm::repair::IndexRepairSource>(
        index_.get(), swarm::repair::LayoutProtocol::kSafeGuess);
    repair_->RegisterStore(source_.get());
    recycler_->set_repair_gate([r = repair_.get()] { return r->InFlight(); });
    engine_->set_repair_fn([r = repair_.get()](int node) { return r->RecoverAndRepair(node); });
    engine_->set_epoch_churn([this]() { return ChurnRound(); });
    // Section 4.5: before the GC forgets a retired layout, every client cache
    // drops its references.
    index_->add_gc_listener([this](const std::shared_ptr<const swarm::ObjectLayout>& lo) {
      for (auto& cache : caches_) {
        cache->InvalidateLayout(lo.get());
      }
    });
    view_.sim = sim_.get();
    view_.fabric = fabric_.get();
    view_.index = index_.get();
  }

  void Run() {
    HostPhase span(trace_, "run:chaos");
    for (int i = 0; i < spec_.clients; ++i) {
      sim::Spawn(Client(i));
    }
    sim::Spawn(SampleRetired());
    engine_->Start();
    sim_->Run();
  }

  const StackView& view() const { return view_; }
  const chaos::ChaosEngine& engine() const { return *engine_; }
  const swarm::repair::RepairService& repair() const { return *repair_; }
  const swarm::Recycler& recycler() const { return *recycler_; }
  sim::Time clients_end() const { return clients_end_; }
  sim::Time last_round_end() const { return last_round_end_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t retired_max() const { return retired_max_; }
  uint64_t requests() const { return requests_; }
  uint64_t failed_requests() const { return failed_requests_; }

 private:
  swarm::Worker& MakeWorker(int64_t skew) {
    const uint32_t tid = static_cast<uint32_t>(workers_.size());
    cpus_.push_back(std::make_unique<fabric::ClientCpu>(sim_.get()));
    clocks_.push_back(std::make_unique<swarm::GuessClock>(sim_.get(), skew));
    workers_.push_back(std::make_unique<swarm::Worker>(fabric_.get(), tid, cpus_.back().get(),
                                                       clocks_.back().get(), proto_,
                                                       known_failed_));
    view_.cpus.push_back(cpus_.back().get());
    view_.clocks.push_back(clocks_.back().get());
    return *workers_.back();
  }

  sim::Task<void> ChurnRound() {
    recycler_->HeartbeatAll();
    co_await recycler_->RunRound();
    ++rounds_;
    last_round_end_ = sim_->Now();
  }

  // Samples the retired-layout count until the clients finish.
  sim::Task<void> SampleRetired() {
    while (clients_running_ > 0) {
      retired_max_ = std::max(retired_max_, RetiredLayouts(*index_));
      co_await sim_->Delay(10 * sim::kMicrosecond);
    }
    retired_max_ = std::max(retired_max_, RetiredLayouts(*index_));
  }

  sim::Task<void> Client(int c) {
    kv::KvSession& session = *tracked_[static_cast<size_t>(c)];
    std::vector<uint8_t>& buf = buffers_[static_cast<size_t>(c)];
    sim::Rng rng(seed_ * 131 + static_cast<uint64_t>(c));
    // Each tenant's hottest key sits at its own offset of the shared space.
    swarm::ycsb::ZipfianGenerator zipf(spec_.keys, 0.99);
    const uint64_t offset =
        static_cast<uint64_t>(c % spec_.tenants) * (spec_.keys / static_cast<uint64_t>(spec_.tenants));
    for (int i = 0; i < spec_.ops_per_client; ++i) {
      co_await sim_->Delay(
          1 + static_cast<sim::Time>(rng.Below(static_cast<uint64_t>(2 * spec_.mean_think))));
      const uint64_t key = (zipf.Next(rng) + offset) % spec_.keys;
      const double dice = rng.Double();
      const OpKind kind = dice < 0.40   ? OpKind::kGet
                          : dice < 0.70 ? OpKind::kUpdate
                          : dice < 0.90 ? OpKind::kInsert
                                        : OpKind::kRemove;
      ++requests_;
      for (int attempt = 1;; ++attempt) {
        uint64_t id = 0;
        if (kind == OpKind::kUpdate || kind == OpKind::kInsert) {
          id = ledger_->NewWriteId(key);
          EncodeValueInto(id, key, buf);
        }
        const sim::Time start = sim_->Now();
        kv::KvResult r;
        switch (kind) {
          case OpKind::kGet:
            r = co_await session.Get(key);
            break;
          case OpKind::kUpdate:
            r = co_await session.Update(key, buf);
            break;
          case OpKind::kInsert:
            r = co_await session.Insert(key, buf);
            break;
          case OpKind::kRemove:
            r = co_await session.Remove(key);
            break;
        }
        ledger_->Complete(kind, key, id, start, sim_->Now(), r);
        if (r.status != kv::KvStatus::kUnavailable) {
          break;
        }
        if (attempt == spec_.max_attempts) {
          ++failed_requests_;
          break;
        }
        co_await sim_->Delay(spec_.retry_backoff);
      }
    }
    if (--clients_running_ == 0) {
      clients_end_ = sim_->Now();
    }
  }

  ChaosSpec spec_;
  uint64_t seed_;
  OpLedger* ledger_;
  Trace* trace_;
  swarm::ProtocolConfig proto_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::shared_ptr<std::vector<bool>> known_failed_;
  std::unique_ptr<swarm::membership::MembershipService> membership_;
  std::unique_ptr<chaos::ChaosEngine> engine_;
  std::unique_ptr<index::IndexService> index_;
  std::unique_ptr<swarm::Recycler> recycler_;
  std::vector<std::unique_ptr<fabric::ClientCpu>> cpus_;
  std::vector<std::unique_ptr<swarm::GuessClock>> clocks_;
  std::vector<std::unique_ptr<swarm::Worker>> workers_;
  std::vector<std::unique_ptr<index::ClientCache>> caches_;
  std::vector<std::unique_ptr<kv::SwarmKvSession>> sessions_;
  std::vector<std::unique_ptr<kv::TrackedKvSession>> tracked_;
  std::vector<std::unique_ptr<swarm::RecyclerParticipant>> participants_;
  std::unique_ptr<swarm::repair::RepairService> repair_;
  std::unique_ptr<swarm::repair::IndexRepairSource> source_;
  std::vector<std::vector<uint8_t>> buffers_;
  StackView view_;
  int clients_running_ = spec_.clients;
  sim::Time clients_end_ = 0;
  sim::Time last_round_end_ = 0;
  uint64_t rounds_ = 0;
  uint64_t retired_max_ = 0;
  uint64_t requests_ = 0;
  uint64_t failed_requests_ = 0;
};

size_t CountKind(const chaos::ChaosEngine& engine, FaultKind kind) {
  return static_cast<size_t>(std::count_if(engine.trace().begin(), engine.trace().end(),
                                           [kind](const chaos::FaultEvent& e) { return e.kind == kind; }));
}

// Mean virtual time from a node's kRestart into the repair lifecycle to its
// kRepairDone, us.
double RepairMeanUs(const chaos::ChaosEngine& engine) {
  std::vector<sim::Time> restarted(8, -1);
  double total = 0.0;
  int n = 0;
  for (const chaos::FaultEvent& e : engine.trace()) {
    if (e.node < 0) {
      continue;
    }
    if (static_cast<size_t>(e.node) >= restarted.size()) {
      restarted.resize(static_cast<size_t>(e.node) + 1, -1);
    }
    sim::Time& since = restarted[static_cast<size_t>(e.node)];
    if (e.kind == FaultKind::kRestart && e.param == 1) {
      since = e.at;
    } else if (e.kind == FaultKind::kRepairDone && since >= 0) {
      total += static_cast<double>(e.at - since) / 1e3;
      ++n;
      since = -1;
    }
  }
  return n == 0 ? 0.0 : total / n;
}

}  // namespace

RunResult RunChaosChurn(const Options& opt, Trace* trace) {
  const ChaosSpec spec = SpecFor(opt.tiny);
  // Fault schedules differ a lot from seed to seed, so one run measures
  // many: sub-seed k of seed s is s * 1000 + k. Latencies, throughput and
  // availability pool every sub-seed's ops, max_outage_us is the median of
  // the sub-seeds' outages, and the per-layer figures are means over the
  // sub-seeds.
  const int sub_seeds = opt.tiny ? 2 : kSubSeeds;
  std::printf(
      "fingerprint: workload=%s seed=%llu sub_seeds=%d keys=%llu value_size=%u clients=%d "
      "requests_per_client=%d mix=40/30/20/10 zipf=0.99 tenants=%d mean_think_ns=%lld "
      "fault_horizon_us=%lld fault_mean_gap_us=%lld nodes=4 replicas=3 regime=batched\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), sub_seeds,
      static_cast<unsigned long long>(spec.keys), spec.value_size, spec.clients,
      spec.ops_per_client, spec.tenants, static_cast<long long>(spec.mean_think),
      static_cast<long long>(spec.faults.horizon / 1000),
      static_cast<long long>(spec.faults.mean_gap / 1000));

  RunResult res;
  res.value_size = spec.value_size;
  std::vector<std::string> errors;
  std::vector<Metrics> figures(static_cast<size_t>(sub_seeds));
  std::vector<std::string> digests(static_cast<size_t>(sub_seeds));
  std::vector<double> setups;
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  std::vector<double> rss_mb;
  std::vector<int64_t> pooled[4];  // Latencies of every measured sub-seed, by op kind.
  std::vector<double> outages_us;
  uint64_t pooled_attempts = 0;
  uint64_t pooled_unavailable = 0;
  sim::Time pooled_window_ns = 0;
  uint64_t plain_events = 0;
  double plain_host_s = 0.0;
  const double timed_start = HostNow();
  // The first pass over the sub-seeds is measured. With --trace 1 it is
  // traced and one untraced pass follows (the tracing overhead); otherwise
  // passes repeat until --seconds of host time have passed.
  const int min_trials = trace->enabled() ? 2 * sub_seeds : sub_seeds;
  for (int t = 0; t < min_trials || (!trace->enabled() && HostNow() - timed_start < opt.seconds);
       ++t) {
    const int k = t % sub_seeds;
    const uint64_t seed = opt.seed * 1000 + static_cast<uint64_t>(k);
    const bool measured = t < sub_seeds;
    const bool traced = trace->enabled() && measured;
    ResetPeakRss();  // Each trial's own peak, whatever earlier trials left behind.
    const double t0 = t == 0 ? 0.0 : HostCpuNow();  // The first from process start.
    OpLedger ledger(traced ? trace : nullptr);
    trace->set_keep_ops(t == 0);
    ledger.set_record_history(measured);
    ChaosTrial trial(spec, seed, &ledger, traced ? trace : nullptr);
    setups.push_back(HostCpuNow() - t0);
    if (t == 0 && opt.inject == "corrupt-value") {
      ledger.InjectCorruption();
    }
    const LayerCounters before = Capture(trial.view());
    ledger.BeginWindow(0);
    const double r0 = HostCpuNow();
    trial.Run();
    const double run_s = HostCpuNow() - r0;
    ledger.EndWindow();
    const LayerCounters after = Capture(trial.view());
    const OpLedger::Counts counts = ledger.counts();
    const double ns_per_op = run_s * 1e9 / static_cast<double>(counts.attempts);
    (traced ? traced_ns : plain_ns).push_back(ns_per_op);
    rss_mb.push_back(PeakRssMb());
    if (!traced) {
      plain_events += after.events - before.events;
      plain_host_s += run_s;
    }

    const chaos::ChaosEngine& engine = trial.engine();
    const swarm::repair::RepairService& repair = trial.repair();
    const swarm::Recycler& recycler = trial.recycler();
    if (measured) {
      for (size_t kind = 0; kind < 4; ++kind) {
        const std::vector<int64_t>& lat = ledger.latencies(static_cast<OpKind>(kind));
        pooled[kind].insert(pooled[kind].end(), lat.begin(), lat.end());
      }
      pooled_attempts += counts.attempts;
      pooled_unavailable += counts.unavailable;
      pooled_window_ns += trial.clients_end();
      outages_us.push_back(ledger.OutageUs(1));
    }
    Metrics v;  // This trial's virtual figures.
    AddVirtualEndToEnd(ledger, counts.attempts, trial.clients_end(), counts.unavailable, 1, &v);
    AddWindowLayerMetrics(trial.view(), before, after, ledger, trial.clients_end(), &v);
    AddStoreGauges(trial.view(), trial.retired_max(), &v);
    v.Add("recycler.rounds", static_cast<double>(trial.rounds()), "count", Clock::kCount);
    v.Add("recycler.epoch_final", static_cast<double>(recycler.current_epoch()), "count",
          Clock::kCount);
    v.Add("recycler.horizon_lag_final",
          static_cast<double>(recycler.current_epoch() - recycler.SafeReclaimBefore()), "count",
          Clock::kCount);
    // 0 when a round was still in flight (e.g. held by the repair gate).
    v.Add("recycler.idle_tail_us",
          static_cast<double>(std::max<sim::Time>(0, trial.clients_end() - trial.last_round_end())) /
              1e3,
          "us", Clock::kVirtual);
    v.Add("recycler.fenced_clients", static_cast<double>(recycler.fenced_clients()), "count",
          Clock::kCount);
    v.Add("repair.completed", static_cast<double>(repair.repairs_completed()), "count",
          Clock::kCount);
    v.Add("repair.aborted", static_cast<double>(repair.repairs_aborted()), "count", Clock::kCount);
    v.Add("repair.slots_repaired", static_cast<double>(repair.slots_repaired()), "count",
          Clock::kCount);
    v.Add("repair.virtual_us_mean", RepairMeanUs(engine), "us", Clock::kVirtual);
    size_t onsets = 0;  // Injected faults; restarts and repair ends follow crashes.
    for (FaultKind kind : kEnabledKinds) {
      if (kind != FaultKind::kRestart && kind != FaultKind::kRepairDone) {
        onsets += CountKind(engine, kind);
      }
    }
    v.Add("chaos.faults", static_cast<double>(onsets), "count", Clock::kCount);

    // Slab refills depend on what earlier trials left in the process-wide
    // frame pool, so they are compared only across processes.
    std::string digest = std::to_string(engine.TraceHash());
    for (const Metric& x : v.all()) {
      if (x.name == "sim.slab_refills") {
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.17g", x.value);
      digest += buf;
    }
    std::printf("trial: sub_seed=%llu host_ns_per_op=%.0f peak_rss_mb=%.1f max_outage_us=%.3f "
                "retired_max=%llu%s\n",
                static_cast<unsigned long long>(seed), ns_per_op, rss_mb.back(),
                v.Find("max_outage_us")->value,
                static_cast<unsigned long long>(trial.retired_max()), traced ? " traced" : "");
    const std::string tag = "sub-seed " + std::to_string(seed) + ": ";
    if (!measured) {
      if (digest != digests[static_cast<size_t>(k)]) {
        errors.push_back(tag + "a repeat did not reproduce the first run's virtual results");
      }
      continue;
    }
    digests[static_cast<size_t>(k)] = digest;
    std::printf("fingerprint: sub_seed=%llu chaos_trace_hash=%llu faults=[%s]\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(engine.TraceHash()),
                engine.TraceSummary().c_str());
    res.attempted += trial.requests();
    res.failed += trial.failed_requests();

    // Correctness and degeneracy gates.
    for (FaultKind kind : kEnabledKinds) {
      if (CountKind(engine, kind) == 0) {
        errors.push_back(tag + "degenerate: no " + chaos::FaultKindName(kind) +
                         " event although the workload enables it");
      }
    }
    if (repair.repairs_completed() == 0) {
      errors.push_back(tag + "degenerate: no repair lifecycle completed");
    }
    if (engine.crashed_count() != 0) {
      errors.push_back(tag + "a node was still crashed when the simulation ended");
    }
    if (repair.repairs_completed() + repair.repairs_aborted() !=
        CountKind(engine, FaultKind::kRepairDone)) {
      errors.push_back(tag + "repair counters disagree with the chaos trace");
    }
    std::vector<swarm::verify::HistoryOp>& history = ledger.history();
    const double recorded_pct = Pct(static_cast<double>(history.size()),
                                    static_cast<double>(ledger.history_attempts()));
    if (recorded_pct < 75.0) {
      errors.push_back(tag + "degenerate: only " + std::to_string(recorded_pct) +
                       "% of the issued ops were recorded (bar: 75%)");
    }
    if (t == 0 && opt.inject == "stale-read" && !InjectStaleRead(&history)) {
      errors.push_back(tag + "stale-read injection found no read to corrupt");
    }
    const CheckOutcome check = CheckHistory(history, trace);
    if (!check.linearizable) {
      errors.push_back(tag + "history is not linearizable: " + check.report);
    }
    if (check.stats.max_window_ops < 2) {
      errors.push_back(tag + "degenerate: the largest concurrent window has " +
                       std::to_string(check.stats.max_window_ops) + " ops (bar: 2)");
    }
    for (const std::string& e : ledger.errors()) {
      errors.push_back(tag + e);
    }
    v.Add("verify.check_host_s", check.host_s, "s", Clock::kHost);
    v.Add("verify.history_ops", static_cast<double>(history.size()), "count", Clock::kCount);
    v.Add("verify.recorded_pct", recorded_pct, "%", Clock::kCount);
    v.Add("verify.max_window_ops", static_cast<double>(check.stats.max_window_ops), "count",
          Clock::kCount);
    v.Add("verify.states", static_cast<double>(check.stats.states), "count", Clock::kCount);
    v.Add("ladder.lincheck.host_ns",
          history.empty() ? 0.0 : check.host_s * 1e9 / static_cast<double>(history.size()), "ns",
          Clock::kHost);
    figures[static_cast<size_t>(k)] = std::move(v);
  }
  // Set-up takes under a millisecond here, so add set-up-only repetitions for
  // a steady median.
  while (setups.size() < 64) {
    const double t0 = HostCpuNow();
    OpLedger ledger(nullptr);
    ChaosTrial trial(spec, opt.seed * 1000, &ledger, nullptr);
    setups.push_back(HostCpuNow() - t0);
  }

  Metrics& m = res.metrics;
  auto us = [](double ns) { return ns / 1e3; };
  m.Add("get_p50_us", us(Percentile(pooled[0], 50)), "us", Clock::kVirtual);
  m.Add("get_p99_us", us(Percentile(pooled[0], 99)), "us", Clock::kVirtual);
  m.Add("update_p50_us", us(Percentile(pooled[1], 50)), "us", Clock::kVirtual);
  m.Add("update_p99_us", us(Percentile(pooled[1], 99)), "us", Clock::kVirtual);
  m.Add("tput_mops",
        static_cast<double>(pooled_attempts - pooled_unavailable) /
            us(static_cast<double>(pooled_window_ns)),
        "Mops/s", Clock::kVirtual);
  m.Add("ok_ops_pct",
        100.0 - Pct(static_cast<double>(pooled_unavailable), static_cast<double>(pooled_attempts)),
        "%", Clock::kVirtual);
  m.Add("max_outage_us", Median(outages_us), "us", Clock::kVirtual);
  std::printf("samples: pooled over %d sub-seeds: gets=%zu updates=%zu attempts=%llu\n",
              sub_seeds, pooled[0].size(), pooled[1].size(),
              static_cast<unsigned long long>(pooled_attempts));
  // Per-layer figures: means over the sub-seeds (every trial lists the same
  // metrics in the same order).
  for (size_t i = 0; i < figures[0].all().size(); ++i) {
    const Metric& first = figures[0].all()[i];
    if (m.Find(first.name) != nullptr) {
      continue;
    }
    double sum = 0.0;
    for (const Metrics& f : figures) {
      sum += f.all()[i].value;
    }
    m.Add(first.name, sum / static_cast<double>(figures.size()), first.unit, first.clock);
  }
  // Host cost: the median over every untraced trial. Sub-seeds cost about
  // the same at this size, so the median over all trials is the steadiest
  // figure.
  const double host_ns = Median(plain_ns);
  m.Add("host_ns_per_op", host_ns, "ns", Clock::kHost);
  m.Add("host_peak_rss_mb", Median(rss_mb), "MiB", Clock::kHost);
  m.Add("setup_s", Median(setups), "s", Clock::kHost);
  m.Add("sim.host_events_per_s",
        plain_host_s > 0 ? static_cast<double>(plain_events) / plain_host_s : 0.0, "1/s",
        Clock::kHost);
  if (trace->enabled()) {
    m.Add("trace.overhead_pct", Pct(Median(traced_ns) - host_ns, host_ns), "%", Clock::kHost);
  }
  res.errors = std::move(errors);
  return res;
}

}  // namespace swarmbench

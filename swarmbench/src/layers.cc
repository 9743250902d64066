#include "swarmbench/src/layers.h"

#include <cstdio>

#include "src/sim/pool.h"

namespace swarmbench {

using swarm::sim::Time;

LayerCounters Capture(const StackView& v) {
  LayerCounters c;
  c.events = v.sim->events_processed();
  c.coroutine_events = v.sim->coroutine_events();
  const swarm::sim::FramePool::Stats pool = swarm::sim::FramePool::stats();
  c.frames = pool.allocs;
  c.slab_refills = pool.slab_refills;
  c.fabric = v.fabric->stats();
  for (const swarm::fabric::ClientCpu* cpu : v.cpus) {
    c.cpu_busy_ns += cpu->busy_ns();
  }
  for (const swarm::index::ClientCache* cache : v.caches) {
    const swarm::index::CacheStats& s = cache->stats();
    c.cache.hits += s.hits;
    c.cache.misses += s.misses;
    c.cache.evictions += s.evictions;
    c.cache.invalidations += s.invalidations;
  }
  c.index = v.index->stats();
  for (const swarm::GuessClock* clock : v.clocks) {
    c.resyncs += clock->resyncs();
  }
  for (int n = 0; n < v.fabric->num_nodes(); ++n) {
    c.stale_landings += v.fabric->node(n).stale_landings();
  }
  return c;
}

namespace {

double D(uint64_t x) { return static_cast<double>(x); }

double Us(double ns) { return ns / 1e3; }

}  // namespace

void AddWindowLayerMetrics(const StackView& v, const LayerCounters& b, const LayerCounters& a,
                           OpLedger& ledger, Time window_ns, Metrics* out) {
  const OpLedger::Counts& n = ledger.counts();
  const uint64_t ops = n.attempts;
  const Clock kC = Clock::kCount;

  out->Add("sim.events_per_op", PerOp(D(a.events - b.events), ops), "1/op", kC);
  out->Add("sim.coroutine_events_per_op",
           PerOp(D(a.coroutine_events - b.coroutine_events), ops), "1/op", kC);
  out->Add("sim.frames_per_op", PerOp(D(a.frames - b.frames), ops), "1/op", kC);
  out->Add("sim.slab_refills", D(a.slab_refills - b.slab_refills), "count", kC);

  const auto& fa = a.fabric;
  const auto& fb = b.fabric;
  out->Add("fabric.verbs_per_op", PerOp(D(fa.ops_issued - fb.ops_issued), ops), "1/op", kC);
  out->Add("fabric.cas_per_op", PerOp(D(fa.casses - fb.casses), ops), "1/op", kC);
  out->Add("fabric.bytes_per_op", PerOp(D(fa.total_io() - fb.total_io()), ops), "B/op", kC);
  out->Add("fabric.doorbells_per_op", PerOp(D(fa.doorbells - fb.doorbells), ops), "1/op", kC);
  const uint64_t batches = fa.batches - fb.batches;
  out->Add("fabric.verbs_per_batch",
           batches == 0 ? 0.0 : D(fa.batched_verbs - fb.batched_verbs) / D(batches), "1/batch",
           kC);
  out->Add("fabric.doorbell_splits", D(fa.doorbell_splits - fb.doorbell_splits), "count", kC);
  out->Add("fabric.client_cpu_busy_pct",
           Pct(static_cast<double>(a.cpu_busy_ns - b.cpu_busy_ns),
               static_cast<double>(window_ns) * static_cast<double>(v.cpus.size())),
           "%", Clock::kVirtual);
  out->Add("fabric.stale_landings", D(a.stale_landings - b.stale_landings), "count", kC);

  out->Add("proto.get_rtts_mean", PerOp(D(n.get_rtts), n.gets), "RT", kC);
  out->Add("proto.update_rtts_mean", PerOp(D(n.update_rtts), n.updates), "RT", kC);
  out->Add("proto.get_1rt_pct", Pct(D(n.get_1rt), D(n.gets)), "%", kC);
  out->Add("proto.update_1rt_pct", Pct(D(n.update_1rt), D(n.updates)), "%", kC);
  out->Add("proto.get_inplace_pct", Pct(D(n.get_inplace), D(n.gets)), "%", kC);
  out->Add("proto.clock_resyncs", D(a.resyncs - b.resyncs), "count", kC);

  out->Add("index.lookups_per_op", PerOp(D(a.index.lookups - b.index.lookups), ops), "1/op", kC);
  out->Add("index.inserts_per_op", PerOp(D(a.index.inserts - b.index.inserts), ops), "1/op", kC);
  out->Add("index.removes_per_op", PerOp(D(a.index.removes - b.index.removes), ops), "1/op", kC);
  const uint64_t hits = a.cache.hits - b.cache.hits;
  const uint64_t misses = a.cache.misses - b.cache.misses;
  out->Add("cache.miss_pct", Pct(D(misses), D(hits + misses)), "%", kC);
  out->Add("cache.evictions_per_op", PerOp(D(a.cache.evictions - b.cache.evictions), ops), "1/op",
           kC);
  out->Add("cache.invalidations", D(a.cache.invalidations - b.cache.invalidations), "count", kC);

  for (OpKind k : {OpKind::kInsert, OpKind::kRemove}) {
    std::vector<int64_t>& lat = ledger.latencies(k);
    const std::string base = std::string("kv.") + OpKindName(k);
    out->Add(base + ".p50_us", Us(Percentile(lat, 50)), "us", Clock::kVirtual);
    out->Add(base + ".p99_us", Us(Percentile(lat, 99)), "us", Clock::kVirtual);
  }
  out->Add("kv.not_found_pct", Pct(D(n.not_found), D(ops)), "%", kC);
  out->Add("kv.failed_ops_pct", Pct(D(n.unavailable), D(ops)), "%", kC);
}

uint64_t RetiredLayouts(const swarm::index::IndexService& index) {
  uint64_t total = 0;
  for (int s = 0; s < index.shard_count(); ++s) {
    total += index.retired(s).size();
  }
  return total;
}

void AddStoreGauges(const StackView& v, uint64_t retired_max, Metrics* out) {
  uint64_t live = 0;
  uint64_t high = 0;
  uint64_t regions = 0;
  for (int n = 0; n < v.fabric->num_nodes(); ++n) {
    const swarm::fabric::MemoryNode& node = v.fabric->node(n);
    live += node.live_bytes();
    high += node.bytes_allocated();
    regions += node.retired_region_count();
  }
  out->Add("alloc.live_bytes_final", D(live), "B", Clock::kCount);
  out->Add("alloc.high_water_bytes", D(high), "B", Clock::kCount);
  out->Add("alloc.retired_regions_final", D(regions), "count", Clock::kCount);
  out->Add("index.retired_max", D(retired_max), "count", Clock::kCount);
  out->Add("index.retired_final", D(RetiredLayouts(*v.index)), "count", Clock::kCount);
  out->Add("index.retired_dropped", D(v.index->retired_dropped()), "count", Clock::kCount);
}

void AddVirtualEndToEnd(OpLedger& ledger, uint64_t window_ops, Time window_ns,
                        uint64_t window_unavailable, int outage_slices, Metrics* out) {
  std::vector<int64_t>& gets = ledger.latencies(OpKind::kGet);
  std::vector<int64_t>& updates = ledger.latencies(OpKind::kUpdate);
  std::printf("samples: gets=%zu updates=%zu window_ops=%llu window_virtual_us=%.3f\n",
              gets.size(), updates.size(), static_cast<unsigned long long>(window_ops),
              Us(static_cast<double>(window_ns)));
  out->Add("get_p50_us", Us(Percentile(gets, 50)), "us", Clock::kVirtual);
  out->Add("get_p99_us", Us(Percentile(gets, 99)), "us", Clock::kVirtual);
  out->Add("update_p50_us", Us(Percentile(updates, 50)), "us", Clock::kVirtual);
  out->Add("update_p99_us", Us(Percentile(updates, 99)), "us", Clock::kVirtual);
  out->Add("tput_mops",
           window_ns == 0 ? 0.0 : D(window_ops - window_unavailable) / Us(static_cast<double>(window_ns)),
           "Mops/s", Clock::kVirtual);
  out->Add("ok_ops_pct", 100.0 - Pct(D(window_unavailable), D(window_ops)), "%",
           Clock::kVirtual);
  out->Add("max_outage_us", ledger.OutageUs(outage_slices), "us", Clock::kVirtual);
}

}  // namespace swarmbench

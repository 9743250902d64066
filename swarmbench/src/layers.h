// Per-layer counters, read from the public getters of each layer and turned
// into the benchmark's per-layer metrics (deltas over the measured window).

#ifndef SWARMBENCH_SRC_LAYERS_H_
#define SWARMBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "swarmbench/src/common.h"

namespace swarmbench {

// Borrowed pointers into one SWARM-KV stack.
struct StackView {
  swarm::sim::Simulator* sim = nullptr;
  swarm::fabric::Fabric* fabric = nullptr;
  swarm::index::IndexService* index = nullptr;
  std::vector<swarm::fabric::ClientCpu*> cpus;
  std::vector<swarm::index::ClientCache*> caches;
  std::vector<swarm::GuessClock*> clocks;
};

struct LayerCounters {
  uint64_t events = 0;
  uint64_t coroutine_events = 0;
  uint64_t frames = 0;        // FramePool allocations (coroutine frames, op state).
  uint64_t slab_refills = 0;  // FramePool slab growth.
  swarm::fabric::FabricStats fabric;
  int64_t cpu_busy_ns = 0;
  swarm::index::CacheStats cache;
  swarm::index::IndexStats index;
  uint64_t resyncs = 0;
  uint64_t stale_landings = 0;
};

LayerCounters Capture(const StackView& v);

// sim.*, fabric.*, proto.*, index.{lookups,inserts,removes}_per_op, cache.*
// and kv.* over the window [before, after] of `ops` attempted ops lasting
// `window_ns` of virtual time. The window's latencies come from `ledger`.
void AddWindowLayerMetrics(const StackView& v, const LayerCounters& before,
                           const LayerCounters& after, OpLedger& ledger, swarm::sim::Time window_ns,
                           Metrics* out);

// alloc.* summed over the memory nodes, and the index's retired-layout gauges.
void AddStoreGauges(const StackView& v, uint64_t retired_max, Metrics* out);

// Sum of retired layouts over all index shards.
uint64_t RetiredLayouts(const swarm::index::IndexService& index);

// The end-to-end metrics every workload reports from its measured window,
// and a line naming the window's sample counts.
// `outage_slices`: see OpLedger::OutageUs.
void AddVirtualEndToEnd(OpLedger& ledger, uint64_t window_ops, swarm::sim::Time window_ns,
                        uint64_t window_unavailable, int outage_slices, Metrics* out);

}  // namespace swarmbench

#endif  // SWARMBENCH_SRC_LAYERS_H_

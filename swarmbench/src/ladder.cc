// The layer ladder: N isolated calls at each layer boundary, each rung in a
// fresh fault-free simulator with the workload's value size, from the bare
// event loop up to a KV call. A rung reports host ns per call and, where the
// call spends virtual time, virtual ns per call. Reading up the ladder shows
// where the host cost of one KV op goes.

#include <memory>
#include <optional>

#include "src/fabric/fabric.h"
#include "src/index/client_cache.h"
#include "src/index/index_service.h"
#include "src/kv/swarm_kv.h"
#include "src/sim/simulator.h"
#include "src/swarm/clock.h"
#include "src/swarm/layout.h"
#include "src/swarm/quorum_max.h"
#include "src/swarm/safe_guess.h"
#include "src/swarm/timestamp_lock.h"
#include "src/swarm/worker.h"
#include "swarmbench/src/workloads.h"

namespace swarmbench {

namespace {

namespace fabric = swarm::fabric;
namespace index = swarm::index;

// One client worker and one replicated object on a 4-node fabric.
struct RungEnv {
  RungEnv(uint64_t seed, uint32_t value_size)
      : sim(seed), fabric(&sim, FabricFor()), proto(ProtoFor(value_size)), cpu(&sim),
        clock(&sim, 0),
        worker(&fabric, 0, &cpu, &clock, proto, std::make_shared<std::vector<bool>>(4, false)),
        value(value_size, 0xAB) {
    const int nodes[] = {0, 1, 2};
    layout = swarm::AllocateObject(fabric, nodes, 3, proto.meta_slots, proto.max_writers,
                                   proto.max_value);
  }

  static fabric::FabricConfig FabricFor() {
    fabric::FabricConfig cfg;
    cfg.num_nodes = 4;
    cfg.node_capacity_bytes = 64ull << 20;
    cfg.doorbell_batching = true;
    return cfg;
  }

  static swarm::ProtocolConfig ProtoFor(uint32_t value_size) {
    swarm::ProtocolConfig p;
    p.replicas = 3;
    p.meta_slots = 1;
    p.max_writers = 1;
    p.max_value = value_size;
    return p;
  }

  sim::Simulator sim;
  fabric::Fabric fabric;
  swarm::ProtocolConfig proto;
  fabric::ClientCpu cpu;
  swarm::GuessClock clock;
  swarm::Worker worker;
  swarm::ObjectLayout layout;
  std::vector<uint8_t> value;
  uint64_t failures = 0;  // Calls that did not succeed (none expected).
};

struct Rung {
  double host_ns = 0.0;
  double virtual_ns = 0.0;
};

// Calls are `gap` of virtual time apart, so each one finds the background
// work of the previous one (promotions, write-backs) finished, as an isolated
// call would; the gap is not part of the virtual time. Host time covers
// everything, the background work and one timer event per gap included.
template <typename Call>
sim::Task<void> Repeat(sim::Simulator* sim, int n, sim::Time gap, Call call,
                       sim::Time* elapsed) {
  *elapsed = 0;
  for (int i = 0; i < n; ++i) {
    if (gap > 0) {
      co_await sim->Delay(gap);
    }
    const sim::Time start = sim->Now();
    co_await call();
    *elapsed += sim->Now() - start;
  }
}

// One untimed call primes caches and pools, then n timed calls.
template <typename Call>
Rung Measure(RungEnv& env, int n, Call call, sim::Time gap = 20 * sim::kMicrosecond) {
  sim::Time elapsed = 0;
  sim::Spawn(Repeat(&env.sim, 1, gap, call, &elapsed));
  env.sim.Run();
  if (n == 0) {
    return Rung{};
  }
  const double t0 = HostCpuNow();
  sim::Spawn(Repeat(&env.sim, n, gap, call, &elapsed));
  env.sim.Run();
  const double dt = HostCpuNow() - t0;
  return Rung{dt * 1e9 / n, static_cast<double>(elapsed) / n};
}

void Add(Metrics* out, const std::string& rung, const Rung& r, bool with_virtual) {
  out->Add("ladder." + rung + ".host_ns", r.host_ns, "ns", Clock::kHost);
  if (with_virtual) {
    out->Add("ladder." + rung + ".virtual_ns", r.virtual_ns, "ns", Clock::kVirtual);
  }
}

}  // namespace

uint64_t RunLadder(const Options& opt, uint32_t value_size, Metrics* out) {
  const int n = opt.tiny ? 200 : 5000;
  const uint64_t seed = opt.seed;
  uint64_t failures = 0;

  {  // The bare event loop: one coroutine resumption per call.
    RungEnv env(seed, value_size);
    Rung r = Measure(env, n * 20, [&env] { return env.sim.Delay(1); }, /*gap=*/0);
    Add(out, "event", r, false);
  }
  {  // A raw one-sided READ of one value.
    RungEnv env(seed, value_size);
    const uint64_t addr = env.fabric.node(0).Allocate(value_size);
    std::vector<uint8_t> buf(value_size);
    Add(out, "verb", Measure(env, n, [&]() -> sim::Task<void> {
          fabric::OpResult r = co_await env.worker.qp(0).Read(addr, buf);
          env.failures += r.ok() ? 0 : 1;
        }), true);
    failures += env.failures;
  }
  {  // QuorumMax WriteAndRead (In-n-Out max-register write, 1 RT).
    RungEnv env(seed, value_size);
    swarm::QuorumMax reg(&env.worker, &env.layout, std::make_shared<swarm::ObjectCache>());
    uint32_t counter = 10;
    Add(out, "quorum_max_write", Measure(env, n, [&]() -> sim::Task<void> {
          swarm::WriteReadOutcome w =
              co_await reg.WriteAndRead(swarm::Meta::Pack(counter++, 0, false, 0), env.value);
          env.failures += w.ok ? 0 : 1;
        }), true);
    failures += env.failures;
  }
  {  // Safe-Guess write and read on one object.
    RungEnv env(seed, value_size);
    swarm::SafeGuessObject obj(&env.worker, &env.layout, std::make_shared<swarm::ObjectCache>());
    Add(out, "safe_guess_write", Measure(env, n, [&]() -> sim::Task<void> {
          swarm::SgWriteResult w = co_await obj.Write(env.value);
          env.failures += w.status == swarm::SgStatus::kOk ? 0 : 1;
        }), true);
    Add(out, "safe_guess_read", Measure(env, n, [&]() -> sim::Task<void> {
          swarm::SgReadResult r = co_await obj.Read();
          env.failures += r.status == swarm::SgStatus::kOk ? 0 : 1;
        }), true);
    failures += env.failures;
  }
  {  // TimestampLock TryLock with rising timestamps.
    RungEnv env(seed, value_size);
    swarm::TimestampLock lock(&env.worker, &env.layout, 0);
    uint32_t counter = 10;
    Add(out, "trylock", Measure(env, n, [&]() -> sim::Task<void> {
          swarm::TryLockResult r = co_await lock.TryLock(counter++, swarm::LockMode::kWrite);
          env.failures += r.quorum_ok ? 0 : 1;
        }), true);
    failures += env.failures;
  }
  {  // Index lookup RPC for a mapped key.
    RungEnv env(seed, value_size);
    index::IndexService idx(&env.sim, &env.fabric);
    auto layout = std::make_shared<const swarm::ObjectLayout>(env.layout);
    Measure(env, 0, [&]() -> sim::Task<void> {
      std::pair<bool, index::IndexEntry> ins = co_await idx.InsertIfAbsent(1, layout, &env.cpu);
      env.failures += ins.first ? 0 : 1;
    });
    Add(out, "index_lookup", Measure(env, n, [&]() -> sim::Task<void> {
          std::optional<index::IndexEntry> e = co_await idx.Lookup(1, &env.cpu);
          env.failures += e.has_value() ? 0 : 1;
        }), false);
    failures += env.failures;
  }
  {  // SWARM-KV calls on one inserted key: get on a cache hit and a miss, update.
    RungEnv env(seed, value_size);
    index::IndexService idx(&env.sim, &env.fabric);
    index::ClientCache cache;
    kv::SwarmKvSession session(&env.worker, &idx, &cache);
    auto check = [&env](const kv::KvResult& r) { env.failures += r.ok() ? 0 : 1; };
    Measure(env, 0, [&]() -> sim::Task<void> { check(co_await session.Insert(1, env.value)); });
    Add(out, "kv_get_hit", Measure(env, n, [&]() -> sim::Task<void> {
          check(co_await session.Get(1));
        }), true);
    Add(out, "kv_get_miss", Measure(env, n, [&]() -> sim::Task<void> {
          cache.Invalidate(1);
          check(co_await session.Get(1));
        }), true);
    Add(out, "kv_update", Measure(env, n, [&]() -> sim::Task<void> {
          check(co_await session.Update(1, env.value));
        }), true);
    failures += env.failures;
  }
  return failures;
}

}  // namespace swarmbench

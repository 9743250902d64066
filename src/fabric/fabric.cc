#include "src/fabric/fabric.h"

#include "src/util/annotations.h"

#include <algorithm>
#include <memory>

namespace swarm::fabric {

SWARM_HOT_PATH sim::Task<void> ClientCpu::Consume(sim::Time cost) {
  const sim::Time start = std::max(sim_->Now(), busy_until_);
  busy_until_ = start + cost;
  busy_ns_ += cost;
  if (busy_until_ > sim_->Now()) {
    co_await sim_->WaitUntil(busy_until_);
  }
}

SWARM_HOT_PATH sim::Task<void> ClientCpu::Submit(sim::Time cost, sim::Time wqe_cost, int wqes) {
  if (batch_depth_ == 0) {
    if (stats_ != nullptr) {
      ++stats_->doorbells;
    }
    co_await Consume(cost + wqe_cost);
    co_return;
  }
  // Batched: the first verb rings the doorbell (charging the CPU once); the
  // rest join it. `batch_ready_ < Now()` guards a guard held open across
  // virtual time (sequential verbs under one guard): a fresh doorbell rings.
  // A verb that would push the doorbell past its WQE budget also rings a
  // fresh one — the NIC only accepts kMaxWqePerDoorbell entries per doorbell
  // write, so an oversized batch splits into ceil(K/16) doorbells, each
  // paying submit_cost (plus the unchanged per-WQE build cost).
  const bool wqe_split = batch_charged_ && batch_wqes_ + wqes > kMaxWqePerDoorbell;
  if (!batch_charged_ || batch_ready_ < sim_->Now() || wqe_split) {
    batch_charged_ = true;
    batch_wqes_ = 0;
    const sim::Time start = std::max(sim_->Now(), busy_until_);
    busy_until_ = start + cost;
    busy_ns_ += cost;
    batch_ready_ = busy_until_;
    if (stats_ != nullptr) {
      ++stats_->doorbells;
      if (wqe_split) {
        ++stats_->doorbell_splits;
      }
    }
  }
  batch_wqes_ += wqes;
  if (wqe_cost > 0) {
    // Per-WQE build cost: WQEs of one doorbell are built serially, so each
    // verb departs when its own WQE is done and the CPU stays busy for the
    // whole list (submit_cost + K*per_verb_cost for a K-verb doorbell).
    busy_until_ = std::max(busy_until_, batch_ready_) + wqe_cost;
    busy_ns_ += wqe_cost;
    batch_ready_ = busy_until_;
  }
  ++batch_verbs_;
  if (stats_ != nullptr) {
    ++stats_->batched_verbs;
  }
  if (batch_ready_ > sim_->Now()) {
    co_await sim_->WaitUntil(batch_ready_);
  }
}

void ClientCpu::EndBatch() {
  if (!enabled_ || batch_depth_ == 0) {
    return;
  }
  if (--batch_depth_ == 0) {
    if (batch_verbs_ > 0 && stats_ != nullptr) {
      ++stats_->batches;
    }
    batch_charged_ = false;
    batch_verbs_ = 0;
    batch_wqes_ = 0;
  }
}

sim::Task<void> PostAll(ClientCpu* cpu, sim::Simulator* sim,
                        sim::PoolVec<sim::Task<void>> verbs) {
  sim::Counter done(sim);
  const int n = static_cast<int>(verbs.size());
  {
    CpuBatch batch(cpu);
    for (auto& v : verbs) {
      sim::Spawn(sim::SignalWhenDone(std::move(v), done));
    }
  }
  co_await done.WaitFor(n);
}

namespace {

// Shared completion block for PostMany/PostQuorum. Every spawned verb holds
// a reference, so the block outlives the caller's (possibly first-quorum)
// resume; the pooled slot recycles only after the LAST straggler finished.
struct ManyResults {
  sim::PoolVec<OpResult> results;
  sim::PoolVec<uint8_t> completed;
};

sim::Task<void> StoreResultAt(sim::Task<OpResult> verb, std::shared_ptr<ManyResults> out,
                              size_t idx, sim::Counter done) {
  out->results[idx] = co_await std::move(verb);
  out->completed[idx] = 1;
  done.Add(1);
}

std::shared_ptr<ManyResults> SpawnUnderOneDoorbell(ClientCpu* cpu,
                                                   sim::PoolVec<sim::Task<OpResult>>& verbs,
                                                   sim::Counter& done) {
  auto out = std::allocate_shared<ManyResults>(sim::PoolAlloc<ManyResults>{});
  out->results.resize(verbs.size());
  out->completed.assign(verbs.size(), 0);
  CpuBatch batch(cpu);
  for (size_t i = 0; i < verbs.size(); ++i) {
    sim::Spawn(StoreResultAt(std::move(verbs[i]), out, i, done));
  }
  return out;
}

}  // namespace

sim::Task<sim::PoolVec<OpResult>> PostMany(ClientCpu* cpu, sim::Simulator* sim,
                                           sim::PoolVec<sim::Task<OpResult>> verbs) {
  sim::Counter done(sim);
  const int n = static_cast<int>(verbs.size());
  auto out = SpawnUnderOneDoorbell(cpu, verbs, done);
  co_await done.WaitFor(n);
  co_return std::move(out->results);
}

sim::Task<QuorumOutcome> PostQuorum(ClientCpu* cpu, sim::Simulator* sim,
                                    sim::PoolVec<sim::Task<OpResult>> verbs, int quorum,
                                    sim::Time timeout) {
  sim::Counter done(sim);
  auto out = SpawnUnderOneDoorbell(cpu, verbs, done);
  QuorumOutcome o;
  o.reached = co_await done.WaitFor(quorum, timeout);
  o.completed_count = done.count();
  // Snapshot: stragglers keep mutating *out after this resume, so the caller
  // gets a copy taken at the quorum instant (pooled buffers, no heap).
  o.results = out->results;
  o.completed = out->completed;
  co_return o;
}

Fabric::Fabric(sim::Simulator* sim, FabricConfig config)
    : sim_(sim), config_(config),
      max_nodes_(std::max(config.max_nodes, config.num_nodes)) {
  nodes_.reserve(static_cast<size_t>(max_nodes_));
  for (int i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemoryNode>(config_.node_capacity_bytes));
    nodes_.back()->set_now_fn([sim] { return sim->Now(); });
  }
  // Sized to the lifetime bound so hot-added nodes slot in without moving
  // any per-node state.
  nic_free_.assign(static_cast<size_t>(max_nodes_), 0);
}

int Fabric::AddNode() {
  const int id = num_nodes();
  if (id >= max_nodes_) {
    return -1;  // Admission plans are bounded by config.max_nodes.
  }
  nodes_.push_back(std::make_unique<MemoryNode>(config_.node_capacity_bytes));
  nodes_.back()->set_now_fn([sim = sim_] { return sim->Now(); });
  nodes_.back()->set_fence_epoch(fence_epoch_);
  return id;
}

sim::Time Fabric::ReserveNicAtArrival(int node, sim::Time service) {
  sim::Time& free_at = nic_free_[static_cast<size_t>(node)];
  const sim::Time start = std::max(sim_->Now(), free_at);
  free_at = start + service;
  return start;
}

sim::Time Fabric::SampleDelay() {
  const sim::Time j = config_.delay_jitter;
  sim::Time d = config_.one_way_delay;
  if (j > 0) {
    d += sim_->rng().Range(-j, j);
  }
  return std::max<sim::Time>(d, 1);
}

uint64_t Fabric::TotalAllocated() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->bytes_allocated();
  }
  return total;
}

// Per-verb state, shared between the engine's coroutine (Post) and the
// callback chain that models the verb's journey through the fabric; every
// callback holds this handle.
//
// Pooling audit (completion-after-cancellation): the last write to a
// VerbState happens strictly BEFORE the matching done.Add(1), and the
// awaiting coroutine resumes only via a later event-queue entry — so nothing
// writes a VerbState after its owner resumed. The hazard the shared_ptr
// guards is the other direction: the awaiting coroutine can be GONE before
// the callbacks run (a response-drop makes the client time out while the
// completion chain is still in flight, and a destroyed Simulator destroys
// queued callbacks without running them). Every callback therefore holds a
// reference, and the pooled slot recycles only when the last one releases
// it — recycling while a dropped ack's completion is in flight is impossible
// by construction. completion_race_test forces exactly this interleaving via
// the response-drop chaos hook under ASan (where the pool delegates to the
// real allocator, so any regression is a reported UAF).
struct Qp::VerbState {
  VerbState(Fabric* f, const Verb& v) : fabric(f), verb(v), done(f->sim()) {}

  // Applies [off, off+len) of the write leg ahead of the final leg, fenced
  // like the verb but without stale-landing accounting (the final leg's
  // VerbStatus counts the verb once).
  void ApplyWrite(size_t off, size_t len) const;

  Fabric* fabric;
  Verb verb;
  int node = 0;
  bool repair_channel = false;
  bool drop_response = false;  // The verb applies; only its completion is lost.
  Status status = Status::kOk;
  uint64_t old_value = 0;
  uint64_t epoch = kNoFenceEpoch;
  sim::Time departure = 0;
  sim::Counter done;
};

SWARM_HOT_PATH void Qp::VerbState::ApplyWrite(size_t off, size_t len) const {
  MemoryNode& n = fabric->node(node);
  if (n.Admits(repair_channel, epoch, verb.addr + off, len) == Status::kOk) {
    n.WriteFrom(verb.addr + off, std::span<const uint8_t>(verb.src + off, len));
  }
}

namespace {

// Bytes of a write leg applied at service start: a large write lands in two
// halves across its transfer window.
size_t StagedBytes(size_t len, sim::Time xfer) { return len > 8 && xfer > 0 ? len / 2 : 0; }

// One leg's network delay: jitter first, then the chaos hook's extra delay.
sim::Time OneWay(Fabric& f, int node, bool response) {
  const sim::Time d = f.SampleDelay();
  return d + f.LinkExtraDelay(node, response);
}

}  // namespace

sim::Task<OpResult> Qp::Read(uint64_t addr, std::span<uint8_t> out) {
  return Post<VerbKind::kRead>({.addr = addr, .out = out.data(), .len = out.size()});
}

sim::Task<OpResult> Qp::Write(uint64_t addr, std::span<const uint8_t> data) {
  return Post<VerbKind::kWrite>({.addr = addr, .src = data.data(), .len = data.size()});
}

sim::Task<OpResult> Qp::Cas(uint64_t addr, uint64_t expected, uint64_t desired) {
  return Post<VerbKind::kCas>({.cas_addr = addr, .expected = expected, .desired = desired});
}

sim::Task<OpResult> Qp::WriteThenCas(uint64_t waddr, std::span<const uint8_t> data,
                                     uint64_t caddr, uint64_t expected, uint64_t desired) {
  return Post<VerbKind::kWriteThenCas>({.addr = waddr, .src = data.data(), .len = data.size(),
                                       .cas_addr = caddr, .expected = expected,
                                       .desired = desired});
}

// Step 1, post: everything up to the request's departure and its arrival
// instant, then the wait for the completion.
template <Qp::VerbKind K>
SWARM_HOT_PATH sim::Task<OpResult> Qp::Post(Verb v) {
  if (revoked_) {
    co_return OpResult{Status::kStaleEpoch};  // Dead until the client re-validates.
  }
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  const uint64_t verb_epoch = stamp();
  constexpr bool write = HasWrite(K);
  constexpr bool cas = HasCas(K);
  // A pipelined WRITE→CAS series is one submission (§7.2: the fixed cost is
  // per series of RDMA operations to a memory node) carrying two WQEs.
  const int wqes = write && cas ? 2 : 1;
  if (cpu_ != nullptr) {
    co_await cpu_->Submit(cfg.submit_cost, wqes * cfg.per_verb_cost, wqes);
  }
  FabricStats& stats = f.stats();
  stats.ops_issued += static_cast<uint64_t>(wqes);
  stats.reads += K == VerbKind::kRead ? 1 : 0;
  stats.writes += write ? 1 : 0;
  stats.casses += cas ? 1 : 0;
  stats.bytes_to_nodes += static_cast<uint64_t>(wqes) * kVerbHeaderBytes +
                          (write ? v.len : 0) + (cas ? 16 : 0);

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  // The series is one network message each way: a dropped request applies
  // nothing; a dropped response applies the whole verb and loses the ack —
  // the possibly-applied case quorum protocols must survive. A READ has no
  // node-side effect, so for it the two are indistinguishable: the bytes
  // never arrive.
  const bool drop_request = f.DropMessage(node_, false, chaos_tag_);
  const bool drop_response = !drop_request && f.DropMessage(node_, true, chaos_tag_);
  if (drop_request || (drop_response && K == VerbKind::kRead)) {
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    co_return OpResult{Status::kNodeFailed};
  }
  sim::Time arrival = departure + OneWay(f, node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  // A write payload's transfer occupies the QP's channel.
  last_arrival_ = arrival + (write ? f.TransferTime(v.len) : 0);

  // With its 16 B control block the state fills the frame pool's 128 B
  // class; one more field would double its footprint per verb.
  static_assert(sizeof(VerbState) <= 112);
  auto st = std::allocate_shared<VerbState>(sim::PoolAlloc<VerbState>{}, &f, v);
  st->node = node_;
  st->repair_channel = repair_channel_;
  st->drop_response = drop_response;
  st->epoch = verb_epoch;
  st->departure = departure;
  sim->At(arrival, [st] { Arrive<K>(st); });

  co_await st->done.WaitFor(1);
  if (st->status == Status::kStaleEpoch) {
    revoked_ = true;  // §5.4: the QP stays dead until re-validation re-arms it.
  }
  co_return OpResult{st->status, st->old_value};
}

// Step 2, arrive: the NIC is reserved AT arrival (arrival-order service), so
// a verb delayed in the network never blocks earlier-arriving traffic. A
// write leg lands over its transfer window: a large one applies its first
// half at service start (concurrent readers can tear), and a series applies
// the rest when its last byte lands; the final leg executes after that.
template <Qp::VerbKind K>
SWARM_HOT_PATH void Qp::Arrive(const std::shared_ptr<VerbState>& st) {
  VerbState& s = *st;
  Fabric& f = *s.fabric;
  sim::Simulator* sim = f.sim();
  const sim::Time op_cost = f.config().node_op_cost;
  constexpr bool series = K == VerbKind::kWriteThenCas;
  const sim::Time start = f.ReserveNicAtArrival(s.node, (series ? 2 : 1) * op_cost);
  const sim::Time xfer = HasWrite(K) ? f.TransferTime(s.verb.len) : 0;
  // The staged halves carry their split in the callback: the state is full.
  const size_t half = StagedBytes(s.verb.len, xfer);
  if (half > 0) {
    sim->At(start, [st, half] { st->ApplyWrite(0, half); });
  }
  if constexpr (series) {
    // FIFO pipelining: the CAS executes only after the write has fully
    // applied (if the CAS's effect is visible, so is the write).
    sim->At(start + xfer, [st, half] { st->ApplyWrite(half, st->verb.len - half); });
  }
  sim->At(start + xfer + (series ? op_cost : 0), [st] { Execute<K>(st); });
}

// Step 3, execute the final leg: admission, then the failure or NACK tail,
// else the effect and the completion.
template <Qp::VerbKind K>
SWARM_HOT_PATH void Qp::Execute(const std::shared_ptr<VerbState>& st) {
  VerbState& s = *st;
  Fabric& f = *s.fabric;
  sim::Simulator* sim = f.sim();
  const FabricConfig& cfg = f.config();
  MemoryNode& node = f.node(s.node);
  const Verb& v = s.verb;
  constexpr bool cas = HasCas(K);
  const Status adm = node.VerbStatus(s.repair_channel, s.epoch, cas ? v.cas_addr : v.addr,
                                     cas ? 8 : v.len);
  uint64_t response_bytes = kAckBytes;  // A NACK carries a bare ack.
  sim::Time response_extra = 0;
  if (adm == Status::kOk) {
    switch (K) {
      case VerbKind::kRead:
        node.ReadInto(v.addr, std::span<uint8_t>(v.out, v.len));
        response_bytes = kVerbHeaderBytes + v.len;
        response_extra = cfg.read_extra + f.TransferTime(v.len);
        break;
      case VerbKind::kWrite: {
        const size_t half = StagedBytes(v.len, f.TransferTime(v.len));
        node.WriteFrom(v.addr + half, std::span<const uint8_t>(v.src + half, v.len - half));
        break;
      }
      case VerbKind::kCas:
      case VerbKind::kWriteThenCas:
        s.old_value = node.CasWord(v.cas_addr, v.expected, v.desired);
        response_bytes = kAckBytes + 8;
        break;
    }
  }
  if (adm == Status::kNodeFailed || s.drop_response) {
    // Crashed node, or a response lost on the way back (a NACK included):
    // the client learns after the failure timeout, and nothing else.
    s.status = Status::kNodeFailed;
    s.old_value = 0;
    sim->At(std::max(sim->Now(), s.departure + cfg.failure_detect_delay),
            [st] { st->done.Add(1); });
    return;
  }
  // Completion, or an epoch-fence / retired-region NACK at response speed.
  s.status = adm;
  f.stats().bytes_from_nodes += response_bytes;
  const sim::Time complete =
      sim->Now() + cfg.node_op_cost + response_extra + OneWay(f, s.node, true);
  sim->At(complete, [st] { st->done.Add(1); });
}

}  // namespace swarm::fabric

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
  // fresh one — the NIC only accepts max_wqe_ entries per doorbell write, so
  // an oversized batch splits into ceil(K/max) doorbells, each paying
  // submit_cost (plus the unchanged per-WQE build cost).
  const bool wqe_split =
      batch_charged_ && max_wqe_ > 0 && batch_wqes_ + wqes > max_wqe_;
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

namespace {

// Per-verb completion state, shared between the issuing coroutine and the
// callback chain that models the verb's journey through the fabric.
//
// Pooling audit (completion-after-cancellation): in all four verb paths the
// last write to an OpState happens strictly BEFORE the matching done.Add(1),
// and the awaiting coroutine resumes only via a later event-queue entry — so
// no path writes an OpState after its owner resumed. The hazard the
// shared_ptr guards is the other direction: the awaiting coroutine can be
// GONE before the callbacks run (a response-drop makes the client time out
// while the completion chain is still in flight, and a destroyed Simulator
// destroys queued callbacks without running them). Every callback therefore
// holds a reference, and the pooled slot recycles only when the last one
// releases it — recycling while a dropped ack's completion is in flight is
// impossible by construction. completion_race_test forces exactly this
// interleaving via the response-drop chaos hook under ASan (where the pool
// delegates to the real allocator, so any regression is a reported UAF).
struct OpState {
  OpResult result;
};

std::shared_ptr<OpState> MakeOpState() {
  return std::allocate_shared<OpState>(sim::PoolAlloc<OpState>{});
}

}  // namespace

SWARM_HOT_PATH sim::Task<OpResult> Qp::Read(uint64_t addr, std::span<uint8_t> out) {
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  if (revoked_) {
    co_return RevokedResult();  // Dead until the client re-validates.
  }
  const uint64_t verb_epoch = stamp();
  if (cpu_ != nullptr) {
    co_await cpu_->Submit(cfg.submit_cost, cfg.per_verb_cost);
  }
  f.stats().ops_issued++;
  f.stats().reads++;
  f.stats().bytes_to_nodes += kVerbHeaderBytes;

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  // A READ has no node-side effect, so a dropped request and a dropped
  // response are indistinguishable to everyone: the bytes never arrive.
  if (f.DropMessage(node_, false, chaos_tag_) || f.DropMessage(node_, true, chaos_tag_)) {
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    OpResult lost;
    lost.status = Status::kNodeFailed;
    co_return lost;
  }
  sim::Time arrival =
      departure + f.SampleDelay() + f.LinkExtraDelay(node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  last_arrival_ = arrival;

  auto st = MakeOpState();
  sim::Counter done(sim);
  const int node_id = node_;
  const bool repair_ch = repair_channel_;
  uint8_t* out_ptr = out.data();
  const size_t out_len = out.size();

  // The NIC is reserved AT arrival (arrival-order service): a verb delayed
  // in the network must not block earlier-arriving traffic.
  sim->At(arrival, [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, out_ptr, out_len,
                    departure]() mutable {
    const sim::Time exec = f.ReserveNicAtArrival(node_id, f.config().node_op_cost);
    sim->At(exec, [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, out_ptr, out_len,
                   departure, exec]() mutable {
      MemoryNode& node = f.node(node_id);
      const FabricConfig& ncfg = f.config();
      const Status adm = node.VerbStatus(repair_ch, verb_epoch, addr, out_len);
      if (adm == Status::kNodeFailed) {
        st->result.status = Status::kNodeFailed;
        sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
                [done]() mutable { done.Add(1); });
        return;
      }
      if (adm != Status::kOk) {
        // Epoch-fence or retired-region rejection: the node actively NACKs,
        // so the client learns at normal response speed rather than after
        // the failure timeout.
        st->result.status = adm;
        f.stats().bytes_from_nodes += kAckBytes;
        const sim::Time complete =
            exec + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
        sim->At(complete, [done]() mutable { done.Add(1); });
        return;
      }
      node.ReadInto(addr, std::span<uint8_t>(out_ptr, out_len));
      f.stats().bytes_from_nodes += kVerbHeaderBytes + out_len;
      const sim::Time complete = exec + ncfg.node_op_cost + ncfg.read_extra + f.SampleDelay() +
                                 f.LinkExtraDelay(node_id, true) + f.TransferTime(out_len);
      sim->At(complete, [done]() mutable { done.Add(1); });
    });
  });

  co_await done.WaitFor(1);
  if (st->result.status == Status::kStaleEpoch) {
    revoked_ = true;  // §5.4: the QP stays dead until re-validation re-arms it.
  }
  co_return st->result;
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::Write(uint64_t addr, std::span<const uint8_t> data) {
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  if (revoked_) {
    co_return RevokedResult();
  }
  const uint64_t verb_epoch = stamp();
  if (cpu_ != nullptr) {
    co_await cpu_->Submit(cfg.submit_cost, cfg.per_verb_cost);
  }
  f.stats().ops_issued++;
  f.stats().writes++;
  f.stats().bytes_to_nodes += kVerbHeaderBytes + data.size();

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  if (f.DropMessage(node_, false, chaos_tag_)) {
    // Request lost: the write never reaches the node.
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    OpResult lost;
    lost.status = Status::kNodeFailed;
    co_return lost;
  }
  // Response lost: the write APPLIES at the node, only the ack is missing —
  // the possibly-applied case quorum protocols must survive.
  const bool drop_resp = f.DropMessage(node_, true, chaos_tag_);
  const sim::Time xfer = f.TransferTime(data.size());
  sim::Time arrival =
      departure + f.SampleDelay() + f.LinkExtraDelay(node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  last_arrival_ = arrival + xfer;  // The transfer occupies the QP's channel.

  auto st = MakeOpState();
  sim::Counter done(sim);
  const int node_id = node_;
  const bool repair_ch = repair_channel_;
  const uint8_t* src = data.data();
  const size_t len = data.size();

  // Shared rejection tail: kNodeFailed times out, kStaleEpoch/kMovedReplica
  // NACK at response speed — unless the response leg drops, which hides the
  // NACK and looks like a node failure to the client.
  auto reject = [&f, sim, st, done, node_id, departure](Status adm, bool lost_resp) mutable {
    const FabricConfig& ncfg = f.config();
    if ((adm == Status::kStaleEpoch || adm == Status::kMovedReplica) && !lost_resp) {
      st->result.status = adm;
      f.stats().bytes_from_nodes += kAckBytes;
      const sim::Time complete =
          sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
      sim->At(complete, [done]() mutable { done.Add(1); });
      return;
    }
    st->result.status = Status::kNodeFailed;
    sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
            [done]() mutable { done.Add(1); });
  };

  const bool staged = cfg.staged_large_writes && len > 8 && xfer > 0;
  sim->At(arrival, [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, src, len, xfer,
                    staged, drop_resp, reject]() mutable {
    const sim::Time start = f.ReserveNicAtArrival(node_id, f.config().node_op_cost);
    const sim::Time finish = start + xfer;  // Last byte lands at `finish`.
    auto tail = [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, src, len, staged,
                 drop_resp, reject]() mutable {
      MemoryNode& node = f.node(node_id);
      const Status adm = node.VerbStatus(repair_ch, verb_epoch, addr, len);
      if (adm != Status::kOk) {
        reject(adm, drop_resp);
        return;
      }
      const size_t half = staged ? len / 2 : 0;
      node.WriteFrom(addr + half, std::span<const uint8_t>(src + half, len - half));
      if (drop_resp) {
        reject(Status::kNodeFailed, true);
        return;
      }
      f.stats().bytes_from_nodes += kAckBytes;
      const FabricConfig& ncfg = f.config();
      const sim::Time complete =
          sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
      sim->At(complete, [done]() mutable { done.Add(1); });
    };
    if (staged) {
      const size_t half = len / 2;
      sim->At(start, [&f, node_id, repair_ch, verb_epoch, addr, src, half] {
        if (f.node(node_id).Admits(repair_ch, verb_epoch, addr, half) == Status::kOk) {
          f.node(node_id).WriteFrom(addr, std::span<const uint8_t>(src, half));
        }
      });
    }
    sim->At(finish, std::move(tail));
  });

  co_await done.WaitFor(1);
  if (st->result.status == Status::kStaleEpoch) {
    revoked_ = true;
  }
  co_return st->result;
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::Cas(uint64_t addr, uint64_t expected, uint64_t desired) {
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  if (revoked_) {
    co_return RevokedResult();
  }
  const uint64_t verb_epoch = stamp();
  if (cpu_ != nullptr) {
    co_await cpu_->Submit(cfg.submit_cost, cfg.per_verb_cost);
  }
  f.stats().ops_issued++;
  f.stats().casses++;
  f.stats().bytes_to_nodes += kVerbHeaderBytes + 16;

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  if (f.DropMessage(node_, false, chaos_tag_)) {
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    OpResult lost;
    lost.status = Status::kNodeFailed;
    co_return lost;
  }
  // Response lost: the CAS takes effect but the old value never comes back.
  const bool drop_resp = f.DropMessage(node_, true, chaos_tag_);
  sim::Time arrival =
      departure + f.SampleDelay() + f.LinkExtraDelay(node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  last_arrival_ = arrival;

  auto st = MakeOpState();
  sim::Counter done(sim);
  const int node_id = node_;
  const bool repair_ch = repair_channel_;

  sim->At(arrival, [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, expected, desired,
                    departure, drop_resp]() mutable {
    const sim::Time exec = f.ReserveNicAtArrival(node_id, f.config().node_op_cost);
    sim->At(exec, [&f, sim, st, done, node_id, repair_ch, verb_epoch, addr, expected, desired,
                   departure, drop_resp]() mutable {
      MemoryNode& node = f.node(node_id);
      const FabricConfig& ncfg = f.config();
      const Status adm = node.VerbStatus(repair_ch, verb_epoch, addr, 8);
      if (adm == Status::kNodeFailed || (adm != Status::kOk && drop_resp)) {
        // A NACK whose response leg drops looks like a node failure.
        st->result.status = Status::kNodeFailed;
        sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
                [done]() mutable { done.Add(1); });
        return;
      }
      if (adm != Status::kOk) {
        st->result.status = adm;
        f.stats().bytes_from_nodes += kAckBytes;
        const sim::Time complete =
            sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
        sim->At(complete, [done]() mutable { done.Add(1); });
        return;
      }
      const uint64_t old = node.CasWord(addr, expected, desired);
      if (drop_resp) {
        st->result.status = Status::kNodeFailed;
        sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
                [done]() mutable { done.Add(1); });
        return;
      }
      st->result.old_value = old;
      f.stats().bytes_from_nodes += kAckBytes + 8;
      const sim::Time complete =
          sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
      sim->At(complete, [done]() mutable { done.Add(1); });
    });
  });

  co_await done.WaitFor(1);
  if (st->result.status == Status::kStaleEpoch) {
    revoked_ = true;
  }
  co_return st->result;
}

SWARM_HOT_PATH sim::Task<OpResult> Qp::WriteThenCas(uint64_t waddr, std::span<const uint8_t> data, uint64_t caddr,
                                     uint64_t expected, uint64_t desired) {
  Fabric& f = *fabric_;
  const FabricConfig& cfg = f.config();
  if (revoked_) {
    co_return RevokedResult();
  }
  const uint64_t verb_epoch = stamp();
  if (cpu_ != nullptr) {
    // One submission covers the whole pipelined series (§7.2: the fixed cost
    // is per series of RDMA operations to a memory node), but the series
    // carries two WQEs.
    co_await cpu_->Submit(cfg.submit_cost, 2 * cfg.per_verb_cost, /*wqes=*/2);
  }
  f.stats().ops_issued += 2;
  f.stats().writes++;
  f.stats().casses++;
  f.stats().bytes_to_nodes += 2 * kVerbHeaderBytes + data.size() + 16;

  sim::Simulator* sim = f.sim();
  const sim::Time departure = sim->Now();
  if (f.DropMessage(node_, false, chaos_tag_)) {
    // The pipelined series is one network message: neither verb applies.
    co_await sim->WaitUntil(departure + cfg.failure_detect_delay);
    OpResult lost;
    lost.status = Status::kNodeFailed;
    co_return lost;
  }
  // Response lost: BOTH the write and the CAS apply; the ack is missing.
  const bool drop_resp = f.DropMessage(node_, true, chaos_tag_);
  const sim::Time xfer = f.TransferTime(data.size());
  sim::Time arrival =
      departure + f.SampleDelay() + f.LinkExtraDelay(node_, false) + f.node(node_).extra_delay();
  arrival = std::max(arrival, last_arrival_ + 1);  // Per-QP FIFO (RDMA ordering).
  last_arrival_ = arrival + xfer;  // The transfer occupies the QP's channel.

  auto st = MakeOpState();
  sim::Counter done(sim);
  const int node_id = node_;
  const bool repair_ch = repair_channel_;
  const uint8_t* src = data.data();
  const size_t len = data.size();
  const bool staged = cfg.staged_large_writes && len > 8 && xfer > 0;

  auto cas_body = [&f, sim, st, done, node_id, repair_ch, verb_epoch, caddr, expected, desired,
                   departure, drop_resp]() mutable {
    MemoryNode& node = f.node(node_id);
    const FabricConfig& ncfg = f.config();
    const Status adm = node.VerbStatus(repair_ch, verb_epoch, caddr, 8);
    if (adm == Status::kNodeFailed || (adm != Status::kOk && drop_resp)) {
      // A NACK whose response leg drops looks like a node failure.
      st->result.status = Status::kNodeFailed;
      sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
              [done]() mutable { done.Add(1); });
      return;
    }
    if (adm != Status::kOk) {
      st->result.status = adm;
      f.stats().bytes_from_nodes += kAckBytes;
      const sim::Time complete =
          sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
      sim->At(complete, [done]() mutable { done.Add(1); });
      return;
    }
    const uint64_t old = node.CasWord(caddr, expected, desired);
    if (drop_resp) {
      st->result.status = Status::kNodeFailed;
      sim->At(std::max(sim->Now(), departure + ncfg.failure_detect_delay),
              [done]() mutable { done.Add(1); });
      return;
    }
    st->result.old_value = old;
    f.stats().bytes_from_nodes += kAckBytes + 8;
    const sim::Time complete =
        sim->Now() + ncfg.node_op_cost + f.SampleDelay() + f.LinkExtraDelay(node_id, true);
    sim->At(complete, [done]() mutable { done.Add(1); });
  };

  sim->At(arrival, [&f, sim, node_id, repair_ch, verb_epoch, waddr, src, len, xfer, staged,
                    cas_body]() mutable {
    const sim::Time start = f.ReserveNicAtArrival(node_id, 2 * f.config().node_op_cost);
    const sim::Time write_done = start + xfer;
    const sim::Time cas_at = write_done + f.config().node_op_cost;
    if (staged) {
      const size_t half = len / 2;
      sim->At(start, [&f, node_id, repair_ch, verb_epoch, waddr, src, half] {
        if (f.node(node_id).Admits(repair_ch, verb_epoch, waddr, half) == Status::kOk) {
          f.node(node_id).WriteFrom(waddr, std::span<const uint8_t>(src, half));
        }
      });
      sim->At(write_done, [&f, node_id, repair_ch, verb_epoch, waddr, src, half, len] {
        if (f.node(node_id).Admits(repair_ch, verb_epoch, waddr + half, len - half) ==
            Status::kOk) {
          f.node(node_id).WriteFrom(waddr + half,
                                    std::span<const uint8_t>(src + half, len - half));
        }
      });
    } else {
      sim->At(write_done, [&f, node_id, repair_ch, verb_epoch, waddr, src, len] {
        if (f.node(node_id).Admits(repair_ch, verb_epoch, waddr, len) == Status::kOk) {
          f.node(node_id).WriteFrom(waddr, std::span<const uint8_t>(src, len));
        }
      });
    }
    // FIFO pipelining: the CAS executes only after the write has fully
    // applied (if the CAS's effect is visible, so is the write).
    sim->At(cas_at, std::move(cas_body));
  });

  co_await done.WaitFor(1);
  if (st->result.status == Status::kStaleEpoch) {
    revoked_ = true;
  }
  co_return st->result;
}

}  // namespace swarm::fabric

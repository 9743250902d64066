// Per-worker client context.
//
// A Worker models one outstanding application operation stream: it owns a
// queue pair and an out-of-place buffer pool per memory node, a timestamp
// clock, and shares a ClientCpu (submission serialization, §7.2) and a
// known-failed node set with the other workers of the same client process.

#ifndef SWARM_SRC_SWARM_WORKER_H_
#define SWARM_SRC_SWARM_WORKER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/swarm/clock.h"
#include "src/swarm/layout.h"

namespace swarm {

struct ProtocolConfig {
  int replicas = 3;
  int meta_slots = 1;          // K metadata buffers per object (§4.4).
  int max_writers = 8;         // W timestamp locks per object.
  uint32_t max_value = 64;     // value-buffer capacity, bytes.
  int oop_pool_slots = 512;    // pre-allocated out-of-place buffers per worker per node.
  int inplace_copies = 1;      // replicas holding in-place data (§6 uses 1).

  // How long an optimistic-majority phase waits for its preferred replicas
  // before broadening to all replicas (§6).
  sim::Time escalation_timeout = 3000;
  // Upper bound on waiting for a lock/write quorum; fires only when a
  // majority of replicas is unreachable (safety is preserved either way).
  sim::Time quorum_timeout = 200 * sim::kMicrosecond;
};

class Worker {
 public:
  Worker(fabric::Fabric* fabric, uint32_t tid, fabric::ClientCpu* cpu, GuessClock* clock,
         const ProtocolConfig& config, std::shared_ptr<std::vector<bool>> known_failed)
      : fabric_(fabric), tid_(tid), cpu_(cpu), clock_(clock), config_(config),
        known_failed_(std::move(known_failed)) {
    if (cpu != nullptr) {
      cpu->Configure(&fabric->stats(), fabric->config().doorbell_batching,
                     fabric->config().max_wqe_per_doorbell);
    }
    for (int n = 0; n < fabric->num_nodes(); ++n) {
      EnsureNode(n);
    }
  }

  fabric::Fabric* fabric() { return fabric_; }
  sim::Simulator* sim() { return fabric_->sim(); }
  uint32_t tid() const { return tid_; }
  GuessClock& clock() { return *clock_; }
  const ProtocolConfig& config() const { return config_; }

  fabric::ClientCpu* cpu() { return cpu_; }
  // Queue pairs and buffer pools grow lazily: a worker created before a
  // membership admission connects to the hot-added node on first use (the QP
  // setup that in a real cluster the admission handshake performs). Deques,
  // not vectors — protocol coroutines hold Qp&/OopPool& across suspension
  // points, so growth must never move existing elements.
  fabric::Qp& qp(int node) {
    EnsureNode(node);
    return qps_[static_cast<size_t>(node)];
  }
  OopPool& pool(int node) {
    EnsureNode(node);
    return pools_[static_cast<size_t>(node)];
  }

  // This worker's In-n-Out slot-cache words for one object (Algorithm 7's
  // cached previous value, 8 B per replica). Slot caches are per-WRITER
  // state: each writer CASes its own metadata buffer (§4.4), so only its own
  // history predicts the slot's content. shared_ptr so straggler background
  // tasks can keep updating them safely.
  std::shared_ptr<ObjectCache> SlotCacheFor(const void* layout) {
    auto& entry = slot_caches_[layout];
    if (entry == nullptr) {
      entry = std::make_shared<ObjectCache>();
    }
    return entry;
  }

  uint64_t SlotCacheBytes() const {
    // 8 B per replica per object actually touched (the "In-n-Out metadata"
    // of a SWARM-KV cache entry, §7.1).
    return slot_caches_.size() * 8;
  }

  // Quorum multicast (the doorbell-batched quorum pattern): spawns
  // `make(i)` for i in [first, first+count) under ONE doorbell batch — every
  // verb those per-replica tasks post before their first completion shares a
  // single amortized submit_cost — then awaits `done` reaching `quorum`
  // within `timeout`. The per-replica tasks signal `done` themselves, so the
  // caller can keep waiting on the same counter for stragglers or a second
  // escalation wave.
  template <typename OpFactory>
  sim::Task<bool> BatchedQuorum(sim::Counter done, int quorum, sim::Time timeout, int first,
                                int count, OpFactory make) {
    {
      fabric::CpuBatch batch(cpu_);
      for (int i = first; i < first + count; ++i) {
        sim::Spawn(make(i));
      }
    }
    co_return co_await done.WaitFor(quorum, timeout);
  }

  // The shared vectors below may predate a hot-added node; out-of-range reads
  // mean "nothing known about it yet" and writes grow the vector in place.
  bool NodeKnownFailed(int node) const {
    const auto idx = static_cast<size_t>(node);
    return idx < known_failed_->size() && (*known_failed_)[idx];
  }
  void MarkNodeFailed(int node) {
    const auto idx = static_cast<size_t>(node);
    if (idx >= known_failed_->size()) {
      known_failed_->resize(idx + 1, false);
    }
    (*known_failed_)[idx] = true;
  }
  void MarkNodeRecovered(int node) {
    const auto idx = static_cast<size_t>(node);
    if (idx < known_failed_->size()) {
      (*known_failed_)[idx] = false;
    }
  }

  // Repair exclusion (MembershipService::repairing()): a node flagged here is
  // dropped from quorum selection entirely — unlike known-failed nodes, which
  // merely sort last in the preferred order, a repairing node must not be
  // contacted and must not count toward any majority, because its replica
  // slots are mid-rebuild and reads from it would miss committed writes.
  void set_repair_excluded(std::shared_ptr<const std::vector<bool>> excluded) {
    repair_excluded_ = std::move(excluded);
  }
  bool NodeQuorumExcluded(int node) const {
    const auto idx = static_cast<size_t>(node);
    return repair_excluded_ != nullptr && idx < repair_excluded_->size() &&
           (*repair_excluded_)[idx];
  }

  // Marks this worker as the repair coordinator: its verbs pass the repair
  // fence of a node mid-rejoin (everyone else keeps seeing kNodeFailed).
  void MarkRepairChannel() {
    repair_channel_ = true;
    for (auto& qp : qps_) {
      qp.set_repair_channel(true);
    }
  }

  // Tags every QP of this worker for per-QP fault targeting (chaos's
  // kQpDropBurst class). Scenarios tag client i's workers with tag i.
  void set_chaos_tag(int tag) {
    chaos_tag_ = tag;
    for (auto& qp : qps_) {
      qp.set_chaos_tag(tag);
    }
  }

  // --- Membership-epoch fencing (§5.4 per-client QP revocation) ---
  //
  // Wires the client process's cached membership epoch: every verb this
  // worker posts is stamped with it, and memory nodes reject stamps older
  // than the cluster's last repair-relevant transition (kStaleEpoch). The
  // epoch is shared among a client's workers like known_failed; the
  // membership service pushes advances into it (SubscribeEpoch) — or does
  // not, for the chaos suites' client that never learns about a rejoin.
  void set_epoch(std::shared_ptr<fabric::ClientEpoch> epoch) {
    epoch_ = std::move(epoch);
    for (auto& qp : qps_) {
      qp.set_epoch(&epoch_->value);
    }
  }
  const std::shared_ptr<fabric::ClientEpoch>& epoch() const { return epoch_; }

  // Wires the re-validation pull (MembershipService::ValidateEpoch) used by
  // RefreshEpoch. `pull_delay` models the pull's network roundtrip.
  void set_epoch_source(std::function<uint64_t()> validate, sim::Time pull_delay = 2 * 680) {
    epoch_validate_ = std::move(validate);
    epoch_pull_delay_ = pull_delay;
  }

  // True when some verb of this worker bounced off an epoch fence: its QP is
  // revoked and every further verb on it fails fast. Protocol retry loops
  // check this after a failed quorum phase — a kStaleEpoch completion is a
  // membership-staleness signal, NEVER evidence about object state — and
  // call RefreshEpoch() before retrying.
  bool EpochRefreshNeeded() const {
    for (const auto& qp : qps_) {
      if (qp.revoked()) {
        return true;
      }
    }
    return false;
  }

  // Re-validates the cached epoch with the membership service (the pull
  // path, which works even for a client whose push notifications never
  // arrive) and re-arms every revoked QP. Verbs posted afterwards carry the
  // fresh stamp and pass the fences again.
  sim::Task<void> RefreshEpoch() {
    if (epoch_ != nullptr && epoch_validate_) {
      co_await sim()->Delay(epoch_pull_delay_);
      epoch_->value = std::max(epoch_->value, epoch_validate_());
    }
    for (auto& qp : qps_) {
      qp.Rearm();
    }
  }

 private:
  // Creates the QP + buffer pool for `node` if missing, applying every
  // sticky per-worker setting so a lazily-connected node is indistinguishable
  // from one wired at construction.
  void EnsureNode(int node) {
    while (static_cast<int>(qps_.size()) <= node) {
      const int n = static_cast<int>(qps_.size());
      auto& qp = qps_.emplace_back(fabric_, n, cpu_);
      pools_.emplace_back(&fabric_->node(n), fabric_->sim(), config_.max_value,
                          config_.oop_pool_slots);
      if (repair_channel_) {
        qp.set_repair_channel(true);
      }
      if (chaos_tag_ >= 0) {
        qp.set_chaos_tag(chaos_tag_);
      }
      if (epoch_ != nullptr) {
        qp.set_epoch(&epoch_->value);
      }
    }
  }

  fabric::Fabric* fabric_;
  uint32_t tid_;
  fabric::ClientCpu* cpu_;
  GuessClock* clock_;
  ProtocolConfig config_;
  std::shared_ptr<std::vector<bool>> known_failed_;
  std::shared_ptr<const std::vector<bool>> repair_excluded_;
  std::shared_ptr<fabric::ClientEpoch> epoch_;
  std::function<uint64_t()> epoch_validate_;
  sim::Time epoch_pull_delay_ = 2 * 680;
  bool repair_channel_ = false;
  int chaos_tag_ = -1;
  // Deques: growth must not invalidate references held across co_awaits.
  std::deque<fabric::Qp> qps_;
  std::deque<OopPool> pools_;
  std::unordered_map<const void*, std::shared_ptr<ObjectCache>> slot_caches_;
};

}  // namespace swarm

#endif  // SWARM_SRC_SWARM_WORKER_H_

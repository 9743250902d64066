#include "src/kv/fusee_kv.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/hash/xxhash.h"
#include "src/sim/sync.h"
#include "src/swarm/placement.h"
#include "src/util/discard.h"

namespace swarm::kv {
namespace {

// Index slot word: [generation:40][block oop:24]; 0 = key absent.
uint64_t PackIndexWord(uint64_t gen, uint32_t oop) {
  return (gen << kOopBits) | (oop & kOopMask);
}
uint64_t GenOf(uint64_t word) { return word >> kOopBits; }
uint32_t OopOf(uint64_t word) { return static_cast<uint32_t>(word & kOopMask); }

// Block header word: [generation:56][flags:8].
constexpr uint64_t kBlockValid = 1;
constexpr uint64_t kBlockForwarded = 2;

uint64_t PackHeader(uint64_t gen, uint64_t flags) { return (gen << 8) | flags; }
uint64_t HeaderGen(uint64_t hdr) { return hdr >> 8; }
bool HeaderHas(uint64_t hdr, uint64_t flag) { return (hdr & flag) != 0; }

// A verb bounced off a migration's slot fence: a per-region no-effect NACK.
// NOT a node failure — starting FUSEE's multi-phase recovery for it would
// stall the whole store 40 ms on a healthy node. The client invalidates its
// cache, waits out a slice of the copy window, and retries; the directory
// flip is picked up because sessions re-read the KeyMeta fields each attempt.
bool Moved(const fabric::OpResult& r) { return r.status == fabric::Status::kMovedReplica; }

// How long a bounced client waits before re-consulting the directory, and
// how many bounces it absorbs without burning its attempt budget. The fenced
// window lasts one quorum copy (a handful of roundtrips plus the migration's
// retry rounds), so a dozen 10 us waits spans it comfortably.
constexpr sim::Time kMovedRetryDelay = 10 * sim::kMicrosecond;
constexpr int kMovedRetryBudget = 12;

}  // namespace

FuseeStore::KeyMeta& FuseeStore::MetaFor(uint64_t key) {
  auto it = directory_.find(key);
  if (it != directory_.end()) {
    return it->second;
  }
  KeyMeta meta;
  const int n = fabric_->num_nodes();
  const uint64_t h = hash::Mix64(key, 0x465553454545);  // "FUSEE"
  int nodes[2];
  place_.Pick(h, 2, n, serving_.get(), nodes);
  meta.primary = nodes[0];
  meta.backup = nodes[1];
  // 8 B index slots come from the slab (size class 8) so a node's slots
  // cluster into extents the repair/migration walks can harvest together.
  meta.index_addr_primary = fabric_->node(meta.primary).AllocSlot(8);
  meta.index_addr_backup = fabric_->node(meta.backup).AllocSlot(8);
  RegisterKey(key, meta.primary, meta.backup);
  return directory_.emplace(key, meta).first->second;
}

void FuseeStore::StartRecovery(int failed_node) {
  const auto idx = static_cast<size_t>(failed_node);
  if (idx >= failed_nodes_.size()) {
    failed_nodes_.resize(idx + 1, false);  // Hot-added node ids grow the map.
  }
  failed_nodes_[idx] = true;
  const sim::Time until = fabric_->sim()->Now() + recovery_duration_;
  if (until > recovering_until_) {
    recovering_until_ = until;
  }
}

uint32_t FuseeKvSession::LogSlot(int node) {
  // Re-check the size on every call, not just the first: a node hot-added
  // since this session's first write (elastic membership) must get a slot.
  const auto needed = static_cast<size_t>(worker_->fabric()->num_nodes());
  if (log_slots_.size() < needed) {
    log_slots_.resize(needed, 0);
  }
  uint32_t& slot = log_slots_[static_cast<size_t>(node)];
  if (slot == 0) {
    slot = worker_->pool(node).AllocIdx();
  }
  return slot;
}

int FuseeKvSession::ActingPrimary(const FuseeStore::KeyMeta& meta) const {
  return store_->NodeFailed(meta.primary) ? meta.backup : meta.primary;
}

sim::Task<void> FuseeKvSession::OnNodeFailure(int node) {
  // Synchronous replication: accurate failure detection + multi-phase
  // recovery (log scan, state transfer, role change) before any progress.
  store_->StartRecovery(node);
  co_await worker_->sim()->WaitUntil(store_->recovering_until());
}

sim::Task<bool> FuseeKvSession::AwaitUsable(const FuseeStore::KeyMeta& meta) {
  while (store_->InRecovery()) {
    const sim::Time until = store_->recovering_until();
    if (until > worker_->sim()->Now()) {
      co_await worker_->sim()->WaitUntil(until);
    } else {
      // Repair-driven recovery has no scripted end time: poll until the
      // coordinator readmits (or abandons) the node.
      co_await worker_->sim()->Delay(5 * sim::kMicrosecond);
    }
  }
  co_return !(store_->NodeFailed(meta.primary) && store_->NodeFailed(meta.backup));
}

namespace {

struct BlockParse {
  bool ok = false;
  uint64_t hdr = 0;
  uint64_t aux = 0;
  sim::Bytes bytes;
};

BlockParse ParseBlock(sim::Bytes block, uint32_t max_value, uint64_t word) {
  BlockParse p;
  std::memcpy(&p.hdr, block.data(), 8);
  std::memcpy(&p.aux, block.data() + 8, 8);
  if (HeaderHas(p.hdr, kBlockValid) && !HeaderHas(p.hdr, kBlockForwarded) &&
      HeaderGen(p.hdr) == GenOf(word) && p.aux <= max_value) {
    p.ok = true;
    p.bytes.assign(block.begin() + kOopHeaderBytes,
                   block.begin() + kOopHeaderBytes + static_cast<long>(p.aux));
  }
  return p;
}

}  // namespace

void FuseeStore::RegisterKey(uint64_t key, int primary, int backup) {
  const auto need = static_cast<size_t>(std::max(primary, backup)) + 1;
  if (node_keys_.size() < need) {
    node_keys_.resize(need);
  }
  node_keys_[static_cast<size_t>(primary)].insert(key);
  node_keys_[static_cast<size_t>(backup)].insert(key);
}

void FuseeStore::ReplaceHome(uint64_t key, int old_primary, int old_backup, int new_primary,
                             int new_backup) {
  node_keys_[static_cast<size_t>(old_primary)].erase(key);
  node_keys_[static_cast<size_t>(old_backup)].erase(key);
  RegisterKey(key, new_primary, new_backup);
}

sim::Task<repair::RepairOutcome> FuseeStore::RepairNode(int node, Worker* worker) {
  repair::RepairOutcome out;
  out.complete = true;
  // Index-guided log scan over the node's inverse registry: O(keys-on-node),
  // not O(directory). The set is ordered, so the walk replays
  // deterministically; snapshot it first (concurrent inserts may grow it).
  std::vector<uint64_t> keys;
  if (static_cast<size_t>(node) < node_keys_.size()) {
    const std::set<uint64_t>& hosted = node_keys_[static_cast<size_t>(node)];
    keys.assign(hosted.begin(), hosted.end());
  }
  out.slots_walked = keys.size();
  const uint32_t max_value = worker->config().max_value;
  // The repair coordinator's verbs ride the repair channel, which passes the
  // epoch fence by construction (§5.4 applies to clients, not the entity
  // driving the epoch transition) — so these loops legitimately have no
  // kStaleEpoch arm.
  // NOLINTNEXTLINE(swarm-retry-stale-epoch)
  for (uint64_t key : keys) {
    KeyMeta& meta = directory_.find(key)->second;
    const int src = meta.primary == node ? meta.backup : meta.primary;
    // Per-key survivor check: the source replica must be alive AND not
    // itself mid-repair. With concurrent repairs (max_crashed > 1) the other
    // replica can be a wiped node whose rebuild is still running — the
    // repair channel passes its rejoin fence, so without this check the
    // coordinator would read zeros there and install "absent" as truth.
    if (NodeFailed(src) || worker->NodeQuorumExcluded(src)) {
      ++out.slots_failed;  // No surviving replica (yet): retry next round.
      out.complete = false;
      continue;
    }
    const uint64_t src_addr =
        src == meta.primary ? meta.index_addr_primary : meta.index_addr_backup;
    const uint64_t dst_addr =
        node == meta.primary ? meta.index_addr_primary : meta.index_addr_backup;
    bool done = false;
    uint32_t installed_oop = 0;
    // NOLINTNEXTLINE(swarm-retry-stale-epoch) repair channel: fence-exempt.
    for (int attempt = 0; attempt < 4 && !done; ++attempt) {
      std::array<uint8_t, 8> ibuf{};
      fabric::OpResult ir = co_await worker->qp(src).Read(src_addr, ibuf);
      if (!ir.ok()) {
        break;
      }
      uint64_t word;
      std::memcpy(&word, ibuf.data(), 8);
      if (word == 0) {
        // Key deleted (possibly after an earlier attempt installed a copy):
        // the recovered slot must read absent, and any earlier attempt's
        // block is unreachable and recyclable.
        if (installed_oop != 0) {
          worker->pool(node).Free(installed_oop);
          installed_oop = 0;
        }
        sim::Bytes zero(8, 0);
        fabric::OpResult zr = co_await worker->qp(node).Write(dst_addr, zero);
        if (!zr.ok()) {
          break;
        }
        // Re-validate like the non-zero path: an insert already past the
        // recovery gate may have re-created the key on the source meanwhile,
        // and finalizing the zero would lose its acknowledged write at the
        // next failover.
        std::array<uint8_t, 8> rbuf{};
        fabric::OpResult rr = co_await worker->qp(src).Read(src_addr, rbuf);
        if (!rr.ok()) {
          break;
        }
        uint64_t word2;
        std::memcpy(&word2, rbuf.data(), 8);
        done = word2 == 0;
        continue;
      }
      sim::Bytes block(kOopHeaderBytes + max_value);
      fabric::OpResult br = co_await worker->qp(src).Read(
          static_cast<uint64_t>(OopOf(word)) * kOopGranuleBytes, block);
      if (!br.ok()) {
        break;
      }
      BlockParse p = ParseBlock(std::move(block), max_value, word);
      if (!p.ok) {
        continue;  // Concurrent in-flight update forwarded the block: redo.
      }
      // Fresh block on the recovering node + its index slot entry.
      if (installed_oop != 0) {
        worker->pool(node).Free(installed_oop);  // Superseded earlier attempt.
      }
      const uint32_t dst_oop = worker->pool(node).AllocIdx();
      installed_oop = dst_oop;
      sim::Bytes image(kOopHeaderBytes + p.bytes.size());
      const uint64_t hdr = PackHeader(GenOf(word), kBlockValid);
      const uint64_t len = p.bytes.size();
      std::memcpy(image.data(), &hdr, 8);
      std::memcpy(image.data() + 8, &len, 8);
      std::memcpy(image.data() + 16, p.bytes.data(), p.bytes.size());
      const uint64_t new_word = PackIndexWord(GenOf(word), dst_oop);
      sim::Bytes wbuf(8);
      std::memcpy(wbuf.data(), &new_word, 8);
      // Install the copy — block image + index word — under ONE doorbell.
      // Both writes ride the same QP, so per-QP FIFO puts the block in place
      // before the index word names it; the node stays quorum-excluded until
      // the repair round completes, so a partial install (index written,
      // block write failed) is unreachable and the retry round overwrites it.
      sim::PoolVec<sim::Task<fabric::OpResult>> installs;
      installs.push_back(
          worker->qp(node).Write(static_cast<uint64_t>(dst_oop) * kOopGranuleBytes, image));
      installs.push_back(worker->qp(node).Write(dst_addr, wbuf));
      sim::PoolVec<fabric::OpResult> ins =
          co_await fabric::PostMany(worker->cpu(), worker->sim(), std::move(installs));
      if (!ins[0].ok() || !ins[1].ok()) {
        break;
      }
      // Re-validate: an op that was already past the recovery gate may have
      // committed on the source meanwhile — copy again if so.
      std::array<uint8_t, 8> rbuf{};
      fabric::OpResult rr = co_await worker->qp(src).Read(src_addr, rbuf);
      if (!rr.ok()) {
        break;
      }
      uint64_t word2;
      std::memcpy(&word2, rbuf.data(), 8);
      if (word2 == word) {
        done = true;
        if (node == meta.backup) {
          meta.last_backup_oop = dst_oop;  // Future updates GC this copy.
        }
      }
    }
    if (done) {
      ++out.slots_repaired;
    } else {
      if (installed_oop != 0) {
        // The key failed terminally this round; the next round re-allocates,
        // so reclaim this round's block (the node is fenced — no reader can
        // be chasing it, and a canary-mode racer is caught by the block's
        // generation check).
        worker->pool(node).Free(installed_oop);
      }
      ++out.slots_failed;
      out.complete = false;
    }
  }
  co_return out;
}

sim::Task<bool> FuseeStore::MigrateKey(uint64_t key, int from, Worker* worker) {
  auto it = directory_.find(key);
  if (it == directory_.end()) {
    co_return true;  // Never placed: nothing to move.
  }
  KeyMeta& meta = it->second;
  if (meta.primary != from && meta.backup != from) {
    co_return true;  // Already elsewhere (or a racing move beat us).
  }
  // Migrate-vs-repair arbitration: a store in recovery, or a key with either
  // home failed or mid-repair, belongs to the repair path. Skip; the caller
  // revisits once the node is readmitted.
  if (InRecovery() || NodeFailed(meta.primary) || NodeFailed(meta.backup) ||
      worker->NodeQuorumExcluded(meta.primary) || worker->NodeQuorumExcluded(meta.backup)) {
    ++keys_aborted_;
    co_return false;
  }
  const int survivor = meta.primary == from ? meta.backup : meta.primary;
  int dest = -1;
  {
    int candidates[PlacementProbe::kMaxNodes];
    size_t num_candidates = 0;
    const int n = std::min(fabric_->num_nodes(), PlacementProbe::kMaxNodes);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<size_t>(i);
      const bool serving = serving_ == nullptr || serving_->empty() ||
                           (idx < serving_->size() && (*serving_)[idx]);
      if (serving && !NodeFailed(i) && !worker->NodeQuorumExcluded(i) && i != from &&
          i != survivor) {
        candidates[num_candidates++] = i;
      }
    }
    if (num_candidates == 0) {
      ++keys_aborted_;
      co_return false;
    }
    dest = candidates[(key * 0x9E3779B97F4A7C15ull) % num_candidates];
  }
  const int np = meta.primary == from ? dest : meta.primary;
  const int nb = meta.backup == from ? dest : meta.backup;
  const int old_primary = meta.primary;
  const int old_backup = meta.backup;
  const uint64_t old_slot_primary = meta.index_addr_primary;
  const uint64_t old_slot_backup = meta.index_addr_backup;

  // Fence BOTH old slots: from here no client CAS can commit, so the single
  // harvest below is final — contrast RepairNode, which copies from a live
  // slot and must re-validate after every install.
  fabric_->node(old_primary).RetireRegion(old_slot_primary, 8);
  fabric_->node(old_backup).RetireRegion(old_slot_backup, 8);

  // Harvest the fenced primary word and its block through the repair channel
  // (which passes the fence). Bounded retries cover chaos drop bursts only.
  const uint32_t max_value = worker->config().max_value;
  uint64_t word = 0;
  sim::Bytes bytes;
  bool harvested = false;
  // NOLINTNEXTLINE(swarm-retry-stale-epoch) repair channel: fence-exempt.
  for (int attempt = 0; attempt < 4 && !harvested; ++attempt) {
    std::array<uint8_t, 8> ibuf{};
    fabric::OpResult ir = co_await worker->qp(old_primary).Read(old_slot_primary, ibuf);
    if (!ir.ok()) {
      continue;
    }
    std::memcpy(&word, ibuf.data(), 8);
    if (word == 0) {
      harvested = true;  // Key absent; the new home starts absent too.
      break;
    }
    sim::Bytes block(kOopHeaderBytes + max_value);
    fabric::OpResult br = co_await worker->qp(old_primary).Read(
        static_cast<uint64_t>(OopOf(word)) * kOopGranuleBytes, block);
    if (!br.ok()) {
      continue;
    }
    BlockParse p = ParseBlock(std::move(block), max_value, word);
    if (p.ok) {
      bytes = std::move(p.bytes);
      harvested = true;
    }
  }

  // Install at the new home: fresh index slots on both roles (a role staying
  // on its node still gets a new address — its old slot is fenced for good),
  // and fresh block copies under the harvested generation.
  uint32_t np_oop = 0;
  uint32_t nb_oop = 0;
  bool installed = harvested;
  uint64_t np_slot = 0;
  uint64_t nb_slot = 0;
  if (harvested) {
    np_slot = fabric_->node(np).AllocSlot(8);
    nb_slot = fabric_->node(nb).AllocSlot(8);
  }
  if (harvested && word != 0) {
    np_oop = worker->pool(np).AllocIdx();
    nb_oop = worker->pool(nb).AllocIdx();
    sim::Bytes image(kOopHeaderBytes + bytes.size());
    const uint64_t hdr = PackHeader(GenOf(word), kBlockValid);
    const uint64_t len = bytes.size();
    std::memcpy(image.data(), &hdr, 8);
    std::memcpy(image.data() + 8, &len, 8);
    std::memcpy(image.data() + 16, bytes.data(), bytes.size());
    sim::Bytes wp(8);
    sim::Bytes wb(8);
    const uint64_t word_p = PackIndexWord(GenOf(word), np_oop);
    const uint64_t word_b = PackIndexWord(GenOf(word), nb_oop);
    std::memcpy(wp.data(), &word_p, 8);
    std::memcpy(wb.data(), &word_b, 8);
    fabric::OpResult b1 = co_await worker->qp(np).Write(
        static_cast<uint64_t>(np_oop) * kOopGranuleBytes, image);
    fabric::OpResult b2 = co_await worker->qp(nb).Write(
        static_cast<uint64_t>(nb_oop) * kOopGranuleBytes, image);
    fabric::OpResult s1 = co_await worker->qp(np).Write(np_slot, wp);
    fabric::OpResult s2 = co_await worker->qp(nb).Write(nb_slot, wb);
    installed = b1.ok() && b2.ok() && s1.ok() && s2.ok();
  }
  if (!installed) {
    // Abort: restore the fences, reclaim the new blocks, directory
    // untouched — the cluster is exactly as before the attempt (the fresh
    // 8 B slots are abandoned).
    if (np_oop != 0) {
      worker->pool(np).Free(np_oop);
    }
    if (nb_oop != 0) {
      worker->pool(nb).Free(nb_oop);
    }
    if (np_slot != 0) {
      // Never published (the directory still names the old slots) and all
      // writes against them have completed, so the fresh slots recycle
      // safely.
      fabric_->node(np).FreeSlot(np_slot);
      fabric_->node(nb).FreeSlot(nb_slot);
    }
    fabric_->node(old_primary).RestoreRegion(old_slot_primary, 8);
    fabric_->node(old_backup).RestoreRegion(old_slot_backup, 8);
    ++keys_aborted_;
    co_return false;
  }

  // Flip: in-sim atomic (no suspension between field writes). Sessions hold
  // KeyMeta references and re-read the fields each attempt, so the new home
  // is picked up on their next retry; `moves` tells an op that straddled the
  // flip to skip its superseded-block GC. The old fenced slots stay retired
  // forever — their 8 bytes are dead.
  const uint32_t old_primary_oop = word != 0 ? OopOf(word) : 0;
  const uint32_t old_backup_oop = meta.last_backup_oop;
  meta.primary = np;
  meta.backup = nb;
  meta.index_addr_primary = np_slot;
  meta.index_addr_backup = nb_slot;
  meta.last_backup_oop = nb_oop;
  ++meta.moves;
  ReplaceHome(key, old_primary, old_backup, np, nb);
  if (old_primary_oop != 0) {
    worker->pool(old_primary).Free(old_primary_oop);
  }
  if (word != 0 && old_backup_oop != 0) {
    // Absent keys leave the old backup block alone: an in-flight Remove past
    // its CAS still owns that free.
    worker->pool(old_backup).Free(old_backup_oop);
  }
  ++keys_moved_;
  co_return true;
}

sim::Task<uint64_t> FuseeStore::MigrateNode(int node, Worker* worker) {
  // Drain from the inverse registry — O(keys-on-node). Snapshot: MigrateKey
  // mutates the set as it flips keys away.
  std::vector<uint64_t> keys;
  if (static_cast<size_t>(node) < node_keys_.size()) {
    const std::set<uint64_t>& hosted = node_keys_[static_cast<size_t>(node)];
    keys.assign(hosted.begin(), hosted.end());
  }
  uint64_t remaining = 0;
  for (uint64_t key : keys) {
    if (!co_await MigrateKey(key, node, worker)) {
      ++remaining;
    }
  }
  co_return remaining;
}

sim::Task<KvResult> FuseeKvSession::Get(uint64_t key) {
  KvResult result;
  FuseeStore::KeyMeta& meta = store_->MetaFor(key);
  int moved_budget = kMovedRetryBudget;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!co_await AwaitUsable(meta)) {
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    const int node = ActingPrimary(meta);
    const uint64_t index_addr =
        node == meta.primary ? meta.index_addr_primary : meta.index_addr_backup;
    fabric::Qp& qp = worker_->qp(node);
    const uint32_t max_value = worker_->config().max_value;

    uint64_t word = 0;
    index::CacheEntry* cached = cache_->Lookup(key);
    bool node_error = false;
    if (cached != nullptr) {
      // Cache hit: optimistically read the cached block while validating the
      // cached location against the on-node index slot, in one roundtrip.
      // Fresh caches finish here; keys recently modified by other clients
      // need a second roundtrip for the relocated block (§7.1: FUSEE's
      // bimodal gets).
      result.cache_hit = true;
      word = cached->generation;
      sim::Bytes block(kOopHeaderBytes + max_value);
      std::array<uint8_t, 8> ibuf{};
      auto [br, ir] = co_await fabric::PostBoth(
          worker_->cpu(), worker_->sim(),
          qp.Read(static_cast<uint64_t>(OopOf(word)) * kOopGranuleBytes, block),
          qp.Read(index_addr, ibuf));
      ++result.rtts;
      if (Moved(ir)) {
        // The slot is fenced mid-migration: re-consult the directory after a
        // slice of the copy window, without burning the attempt budget.
        cache_->Invalidate(key);
        if (moved_budget-- > 0) {
          --attempt;
        }
        co_await worker_->sim()->Delay(kMovedRetryDelay);
        continue;
      }
      if (!br.ok() || !ir.ok()) {
        node_error = true;
      } else {
        uint64_t index_word;
        std::memcpy(&index_word, ibuf.data(), 8);
        if (index_word == 0) {
          cache_->Invalidate(key);
          result.status = KvStatus::kNotFound;
          co_return result;
        }
        if (index_word == word) {
          BlockParse p = ParseBlock(std::move(block), max_value, word);
          if (p.ok) {
            result.status = KvStatus::kOk;
            result.value = std::move(p.bytes);
            result.fast_path = true;
            co_return result;
          }
        }
        // Stale cache: the index moved on; fetch the new block (+1 RT).
        word = index_word;
        index::CacheEntry entry;
        entry.generation = word;
        cache_->Put(key, std::move(entry));
      }
    } else {
      // Uncached: read the on-node index slot first (+1 RT).
      std::array<uint8_t, 8> buf{};
      fabric::OpResult r = co_await qp.Read(index_addr, buf);
      ++result.rtts;
      if (Moved(r)) {
        cache_->Invalidate(key);
        if (moved_budget-- > 0) {
          --attempt;
        }
        co_await worker_->sim()->Delay(kMovedRetryDelay);
        continue;
      }
      if (!r.ok()) {
        node_error = true;
      } else {
        std::memcpy(&word, buf.data(), 8);
        if (word == 0) {
          result.status = KvStatus::kNotFound;
          co_return result;
        }
        index::CacheEntry entry;
        entry.generation = word;
        cache_->Put(key, std::move(entry));
      }
    }

    if (!node_error) {
      sim::Bytes block(kOopHeaderBytes + max_value);
      fabric::OpResult r =
          co_await qp.Read(static_cast<uint64_t>(OopOf(word)) * kOopGranuleBytes, block);
      ++result.rtts;
      if (r.ok()) {
        BlockParse p = ParseBlock(std::move(block), max_value, word);
        if (p.ok) {
          result.status = KvStatus::kOk;
          result.value = std::move(p.bytes);
          co_return result;
        }
        // Torn or concurrently replaced block: retry from scratch.
        cache_->Invalidate(key);
        continue;
      }
      node_error = true;
    }
    if (node_error) {
      if (worker_->EpochRefreshNeeded()) {
        // kStaleEpoch revoked a QP: membership staleness, NOT a node failure.
        // Starting FUSEE's multi-phase recovery for it would stall the whole
        // store on a healthy node — re-validate the epoch and retry instead.
        co_await worker_->RefreshEpoch();
        continue;
      }
      co_await OnNodeFailure(node);
    }
  }
  result.status = KvStatus::kUnavailable;
  co_return result;
}

sim::Task<KvResult> FuseeKvSession::WriteInternal(uint64_t key, std::span<const uint8_t> value,
                                                  bool expect_new) {
  KvResult result;
  FuseeStore::KeyMeta& meta = store_->MetaFor(key);
  // Index word this op's PREVIOUS attempt tried to install (0 on the first
  // attempt). A failed attempt may still have committed its phase-2 CAS —
  // and readers may have seen it — so a retry must never re-install over a
  // foreign commit that interleaved: that would resurrect our
  // already-observable value on top of it.
  uint64_t prior_word = 0;
  // NODE-sourced observations of the current acting slot within this op
  // (uncached index reads and CAS responses; a cached expectation proves
  // nothing — it may predate the op). They order foreign words by
  // (generation, observation time) lexicographically relative to our
  // install: a slot observed to hold X at some instant of this op can only
  // hold a different word later because that word committed IN-WINDOW — so
  // a retry that finds an unobserved generation knows it landed after our
  // (possibly applied) install even when it is numerically LOWER (a writer
  // that allocated its generation before ours but committed after: the
  // gen/time inversion the old "GenOf(old) > GenOf(prior)" guard
  // re-installed over). Observations reset on failover: the backup's slot
  // is a different register whose lagging pre-state we have never seen.
  int observed_node = -1;
  bool slot_observed = false;
  std::array<uint64_t, 12> seen_gens{};
  size_t num_seen = 0;
  auto observed_pre = [&](uint64_t word) {
    slot_observed = true;
    if (word != 0 && num_seen < seen_gens.size()) {
      seen_gens[num_seen++] = GenOf(word);
    }
  };
  auto was_pre_state = [&](uint64_t word) {
    for (size_t i = 0; i < num_seen; ++i) {
      if (seen_gens[i] == GenOf(word)) {
        return true;
      }
    }
    return false;
  };
  int moved_budget = kMovedRetryBudget;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!co_await AwaitUsable(meta)) {
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    // Snapshot the key's home for this attempt: a migration flip rewrites
    // the KeyMeta fields mid-op, and the cleanup below must target the nodes
    // this attempt actually wrote.
    const uint64_t moves_at_start = meta.moves;
    const int primary = ActingPrimary(meta);
    const int backup_node = meta.backup;
    const uint64_t backup_slot = meta.index_addr_backup;
    const bool backup_alive = !store_->NodeFailed(backup_node) && primary != backup_node;
    const uint64_t index_addr =
        primary == meta.primary ? meta.index_addr_primary : meta.index_addr_backup;
    fabric::Qp& qp = worker_->qp(primary);
    if (primary != observed_node) {
      // Failover: the acting slot moved; observations of the old one say
      // nothing about the new one's pre-state.
      observed_node = primary;
      slot_observed = false;
      num_seen = 0;
    }

    const uint64_t gen = store_->NextGeneration();
    const uint32_t oop_primary = worker_->pool(primary).AllocIdx();
    const uint32_t oop_backup = backup_alive ? worker_->pool(backup_node).AllocIdx() : 0;
    const uint64_t new_word = PackIndexWord(gen, oop_primary);
    const uint64_t new_word_backup = PackIndexWord(gen, oop_backup);

    // Phase 1 (1 RT): write the new KV blocks to both replicas in parallel.
    sim::Bytes block(kOopHeaderBytes + value.size());
    const uint64_t hdr = PackHeader(gen, kBlockValid);
    const uint64_t len = value.size();
    std::memcpy(block.data(), &hdr, 8);
    std::memcpy(block.data() + 8, &len, 8);
    std::memcpy(block.data() + 16, value.data(), value.size());
    fabric::OpResult w1;
    int failed_node = primary;
    if (backup_alive) {
      auto [a, b] = co_await fabric::PostBoth(
          worker_->cpu(), worker_->sim(),
          qp.Write(static_cast<uint64_t>(oop_primary) * kOopGranuleBytes, block),
          worker_->qp(backup_node)
              .Write(static_cast<uint64_t>(oop_backup) * kOopGranuleBytes, block));
      if (!a.ok()) {
        w1 = a;  // The acting primary failed.
      } else if (!b.ok()) {
        w1 = b;
        failed_node = backup_node;  // Attribute the failure correctly.
      } else {
        w1 = a;
      }
    } else {
      w1 = co_await qp.Write(static_cast<uint64_t>(oop_primary) * kOopGranuleBytes, block);
    }
    ++result.rtts;
    if (!w1.ok()) {
      if (worker_->EpochRefreshNeeded()) {
        co_await worker_->RefreshEpoch();  // Stale epoch, not a node failure.
        continue;
      }
      co_await OnNodeFailure(failed_node);
      continue;
    }

    // Phase 2 (1 RT, +1 on conflict): CAS the primary index slot.
    uint64_t expected = 0;
    if (prior_word != 0) {
      // Retry of a possibly-applied install: target our own previous word.
      // The caller's cache is useless here — it predates that install.
      expected = prior_word;
    } else if (index::CacheEntry* cached = cache_->Lookup(key)) {
      result.cache_hit = true;
      expected = cached->generation;  // Cache-sourced: NOT a slot observation.
    } else if (!expect_new) {
      // Uncached update: consult the on-node index slot first; updating a
      // key that does not exist fails.
      std::array<uint8_t, 8> buf{};
      fabric::OpResult ir = co_await qp.Read(index_addr, buf);
      ++result.rtts;
      if (Moved(ir)) {
        // Fenced mid-migration before anything committed: reclaim this
        // attempt's blocks and retry against the post-flip home.
        worker_->pool(primary).Free(oop_primary);
        if (backup_alive) {
          worker_->pool(backup_node).Free(oop_backup);
        }
        cache_->Invalidate(key);
        if (moved_budget-- > 0) {
          --attempt;
        }
        co_await worker_->sim()->Delay(kMovedRetryDelay);
        continue;
      }
      if (!ir.ok()) {
        if (worker_->EpochRefreshNeeded()) {
          co_await worker_->RefreshEpoch();
          continue;
        }
        co_await OnNodeFailure(primary);
        continue;
      }
      std::memcpy(&expected, buf.data(), 8);
      if (expected == 0) {
        result.status = KvStatus::kNotFound;
        co_return result;
      }
      observed_pre(expected);
    }
    uint64_t old_word = 0;
    bool cas_done = false;
    bool moved_bounce = false;
    for (int tries = 0; tries < 4 && !cas_done; ++tries) {
      fabric::OpResult c = co_await qp.Cas(index_addr, expected, new_word);
      ++result.rtts;
      if (!c.ok()) {
        moved_bounce = Moved(c);
        break;
      }
      if (c.old_value == expected) {
        old_word = expected;
        cas_done = true;
      } else if (!expect_new && c.old_value == 0) {
        // The key vanished (deleted concurrently). On a RETRY our previous
        // attempt's install may have applied (ack dropped) and been read
        // before the delete zeroed the slot, so the write happened — it
        // linearizes just before that delete. Only a first attempt can
        // truthfully report "key was never there".
        result.status = prior_word != 0 ? KvStatus::kOk : KvStatus::kNotFound;
        co_return result;
      } else if (prior_word != 0 && c.old_value != 0 && c.old_value != prior_word &&
                 (GenOf(c.old_value) >= GenOf(prior_word) ||
                  (slot_observed && !was_pre_state(c.old_value)))) {
        // Resurrection guard: a retry that finds a commit that landed AFTER
        // our previous attempt's install must not re-install — readers may
        // already have ordered our (possibly applied) value before that
        // commit, so installing again would resurrect it on top. Our write
        // linearizes just before the commit we observed: declare success
        // without touching the slot. "After ours" is decided by comparing
        // (generation, observation time) lexicographically, not raw
        // generation order:
        //  * a HIGHER generation was allocated after our attempt began, so
        //    it certainly committed inside our op (the classic case);
        //  * our OWN generation under a different pointer is our backup-slot
        //    install surfacing through a failover — equally ours;
        //  * a LOWER generation that this op never OBSERVED in the acting
        //    slot — while it HAS observed that slot hold something else —
        //    must have committed after that observation, i.e. after our
        //    install: a writer that allocated its generation before ours but
        //    committed later. This is the gen/time inversion the old
        //    "GenOf(old) > GenOf(prior)" guard re-installed over.
        // A lower-generation word already observed as pre-state, or any
        // word when this op never observed the acting slot (e.g. right
        // after a failover, where the backup lags behind state we only ever
        // saw on the dead primary), proves nothing and falls through to be
        // overwritten.
        result.status = expect_new ? KvStatus::kExists : KvStatus::kOk;
        co_return result;
      } else {
        observed_pre(c.old_value);
        expected = c.old_value;
      }
    }
    if (moved_bounce) {
      // The fenced CAS had NO effect — every completion this attempt saw for
      // the install was a no-effect NACK — so this attempt's word was
      // provably never visible: reclaim its blocks and retry WITHOUT
      // poisoning prior_word.
      worker_->pool(primary).Free(oop_primary);
      if (backup_alive) {
        worker_->pool(backup_node).Free(oop_backup);
      }
      cache_->Invalidate(key);
      if (moved_budget-- > 0) {
        --attempt;
      }
      co_await worker_->sim()->Delay(kMovedRetryDelay);
      continue;
    }
    // From here on this attempt's word MAY be installed (even a failed CAS
    // can have applied with its ack dropped), so the next attempt must
    // treat it as potentially visible.
    prior_word = new_word;
    if (!cas_done) {
      if (worker_->EpochRefreshNeeded()) {
        co_await worker_->RefreshEpoch();
        continue;
      }
      co_await OnNodeFailure(primary);
      continue;
    }
    if (!expect_new && old_word == 0) {
      // Raced with a delete: undo the install and fail.
      fabric::OpResult undo = co_await qp.Cas(index_addr, new_word, 0);
      ++result.rtts;
      if (Moved(undo)) {
        // A migration fenced the slot between our install and its undo: the
        // installed word is what the harvest carries to the new home, so the
        // value may well be visible there. Not a firm NotFound any more —
        // surface the ambiguity (the linearizability checker treats
        // ambiguous NotFound updates as maybe-applied).
        result.ambiguous = true;
      }
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    if (expect_new && old_word != 0) {
      result.status = KvStatus::kExists;
    }

    // Phase 3 (1 RT): update the backup index slot and invalidate the old
    // block (forwarding pointer), in parallel. The backup index update is
    // commit-critical: swallowing its failure would strand the backup with a
    // stale slot and lose this write at the next failover. The forwarding
    // pointer stays best-effort (a stale cache only pays the index
    // roundtrip).
    {
      sim::Bytes wbuf(8);
      std::memcpy(wbuf.data(), &new_word_backup, 8);
      sim::Bytes fwd(16);
      const uint64_t fhdr = PackHeader(GenOf(old_word), kBlockForwarded);
      std::memcpy(fwd.data(), &fhdr, 8);
      std::memcpy(fwd.data() + 8, &new_word, 8);
      sim::PoolVec<sim::Task<fabric::OpResult>> verbs;
      if (backup_alive) {
        verbs.push_back(worker_->qp(backup_node).Write(backup_slot, wbuf));
      }
      if (old_word != 0) {
        verbs.push_back(qp.Write(static_cast<uint64_t>(OopOf(old_word)) * kOopGranuleBytes, fwd));
      }
      if (!verbs.empty()) {
        sim::PoolVec<fabric::OpResult> rs =
            co_await fabric::PostMany(worker_->cpu(), worker_->sim(), std::move(verbs));
        ++result.rtts;
        if (backup_alive && !rs[0].ok()) {
          if (Moved(rs[0])) {
            // A migration fenced the slots AFTER our phase-2 commit: the
            // write IS durable — the harvest reads the post-fence primary
            // slot, which holds it — but the backup-side block never became
            // reachable and the flip owns all superseded-version GC.
            // Reclaim our orphaned backup block and succeed.
            worker_->pool(backup_node).Free(oop_backup);
            cache_->Invalidate(key);
            if (result.status != KvStatus::kExists) {
              result.status = KvStatus::kOk;
            }
            co_return result;
          }
          if (worker_->EpochRefreshNeeded()) {
            co_await worker_->RefreshEpoch();
            continue;
          }
          co_await OnNodeFailure(backup_node);
          continue;  // Re-run the write against the degraded replica set.
        }
      } else {
        ++result.rtts;
      }
    }

    // Phase 4 (1 RT): commit record (metadata log) on the primary.
    {
      const uint32_t log_oop = LogSlot(primary);
      sim::Bytes commit(16);
      std::memcpy(commit.data(), &gen, 8);
      std::memcpy(commit.data() + 8, &new_word, 8);
      // Cost-model write: the modeled log slot has no reader (recovery
      // replays the index, not the log), so this append exists to charge
      // FUSEE's phase-4 roundtrip — its completion status is moot.
      DiscardStatus(co_await qp.Write(static_cast<uint64_t>(log_oop) * kOopGranuleBytes, commit));
      ++result.rtts;
    }

    // GC (modeled, §7.6 "running garbage collection once per second"): the
    // superseded version's blocks are recyclable now. In degraded
    // single-copy mode the acting primary IS the backup node, so the
    // superseded block and the old backup copy are the SAME buffer — freeing
    // both would hand the slot out twice and corrupt live data.
    if (meta.moves != moves_at_start) {
      // A migration flipped the key's home mid-op (after our phase-2
      // commit, so the harvest carried the write). The flip freed the
      // superseded blocks itself and the KeyMeta fields now describe the
      // NEW home — freeing "the old backup block" here would free the
      // migration's live copy. Touch nothing.
      cache_->Invalidate(key);
      if (result.status != KvStatus::kExists) {
        result.status = KvStatus::kOk;
      }
      result.fast_path = result.rtts <= 4;
      co_return result;
    }
    if (old_word != 0) {
      worker_->pool(primary).Free(OopOf(old_word));
    }
    if (backup_alive) {
      if (meta.last_backup_oop != 0 && meta.last_backup_oop != OopOf(old_word)) {
        worker_->pool(backup_node).Free(meta.last_backup_oop);
      }
      meta.last_backup_oop = oop_backup;
    } else {
      meta.last_backup_oop = 0;  // Lost with the node, or freed as old_word.
    }

    index::CacheEntry entry;
    entry.generation = new_word;
    cache_->Put(key, std::move(entry));
    if (result.status != KvStatus::kExists) {
      result.status = KvStatus::kOk;
    }
    result.fast_path = result.rtts <= 4;
    co_return result;
  }
  result.status = KvStatus::kUnavailable;
  co_return result;
}

sim::Task<KvResult> FuseeKvSession::Update(uint64_t key, std::span<const uint8_t> value) {
  KvResult r = co_await WriteInternal(key, value, /*expect_new=*/false);
  co_return r;
}

sim::Task<KvResult> FuseeKvSession::Insert(uint64_t key, std::span<const uint8_t> value) {
  KvResult r = co_await WriteInternal(key, value, /*expect_new=*/true);
  co_return r;
}

sim::Task<KvResult> FuseeKvSession::Remove(uint64_t key) {
  KvResult result;
  FuseeStore::KeyMeta& meta = store_->MetaFor(key);
  int moved_budget = kMovedRetryBudget;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (!co_await AwaitUsable(meta)) {
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    // Snapshot the home for this attempt (see WriteInternal): a migration
    // flip rewrites the fields mid-op.
    const uint64_t moves_at_start = meta.moves;
    const int primary = ActingPrimary(meta);
    const int primary_home = meta.primary;
    const int backup_node = meta.backup;
    const uint64_t backup_slot = meta.index_addr_backup;
    const uint64_t index_addr =
        primary == meta.primary ? meta.index_addr_primary : meta.index_addr_backup;
    fabric::Qp& qp = worker_->qp(primary);

    uint64_t expected = 0;
    if (index::CacheEntry* cached = cache_->Lookup(key)) {
      result.cache_hit = true;
      expected = cached->generation;
    }
    uint64_t old_word = 0;
    bool cas_settled = false;
    bool moved_bounce = false;
    for (int tries = 0; tries < 4; ++tries) {
      fabric::OpResult c = co_await qp.Cas(index_addr, expected, 0);
      ++result.rtts;
      if (!c.ok()) {
        if (c.status == fabric::Status::kStaleEpoch && worker_->EpochRefreshNeeded()) {
          // The fenced CAS never applied: re-validate and retry it verbatim.
          co_await worker_->RefreshEpoch();
          continue;
        }
        if (Moved(c)) {
          moved_bounce = true;  // No-effect NACK: nothing was deleted.
          break;
        }
        result.status = KvStatus::kUnavailable;
        co_return result;
      }
      cas_settled = true;
      if (c.old_value == expected) {
        old_word = expected;
        break;
      }
      expected = c.old_value;
    }
    cache_->Invalidate(key);
    if (moved_bounce) {
      // Fenced mid-migration before the delete committed: re-consult the
      // directory after a slice of the copy window and CAS the new home.
      if (moved_budget-- > 0) {
        --attempt;
      }
      co_await worker_->sim()->Delay(kMovedRetryDelay);
      continue;
    }
    if (!cas_settled) {
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    if (old_word == 0) {
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    // Invalidate the old block (forward to nothing) + clear backup slot.
    {
      sim::Bytes fwd(16, 0);
      const uint64_t fhdr = PackHeader(GenOf(old_word), kBlockForwarded);
      std::memcpy(fwd.data(), &fhdr, 8);
      // Best-effort forward-invalidate (same contract as phase 3's
      // forwarding pointer): readers re-validate against the index word,
      // which our CAS-to-0 already committed, so a lost invalidation can
      // only cost an extra bounce, never a stale read.
      DiscardStatus(co_await qp.Write(static_cast<uint64_t>(OopOf(old_word)) * kOopGranuleBytes, fwd));
      ++result.rtts;
    }
    if (meta.moves != moves_at_start) {
      // A migration flipped the key mid-op. Our CAS-to-0 committed BEFORE
      // the fence, so the harvest read absent and the new home agrees the
      // key is gone — but the flip already reconciled the block bookkeeping
      // and the fields now describe the new home. Touch nothing further.
      result.status = KvStatus::kOk;
      co_return result;
    }
    worker_->pool(primary).Free(OopOf(old_word));
    if (meta.last_backup_oop != 0 && meta.last_backup_oop != OopOf(old_word)) {
      worker_->pool(backup_node).Free(meta.last_backup_oop);
    }
    meta.last_backup_oop = 0;
    if (!store_->NodeFailed(backup_node) && primary == primary_home) {
      // Commit-critical, exactly like WriteInternal's phase-3 backup index
      // update: swallowing a failure here strands the backup slot pointing at
      // the removed value's (still byte-valid) block, and the next failover
      // resurrects it. A migration-fence bounce is the one benign outcome —
      // the fence landed after our primary commit, so the harvest read the
      // zeroed slot and the new home is already absent.
      sim::Bytes zero(8, 0);
      for (int tries = 0; tries < 4; ++tries) {
        fabric::OpResult bz = co_await worker_->qp(backup_node).Write(backup_slot, zero);
        ++result.rtts;
        if (bz.ok() || Moved(bz)) {
          break;
        }
        if (worker_->EpochRefreshNeeded()) {
          co_await worker_->RefreshEpoch();
          continue;
        }
        // Treat the unreachable backup as failed (synchronous-replication
        // rule): recovery rebuilds its slot from the zeroed primary, so the
        // delete survives the next failover.
        co_await OnNodeFailure(backup_node);
        break;
      }
    }
    result.status = KvStatus::kOk;
    co_return result;
  }
  result.status = KvStatus::kUnavailable;
  co_return result;
}

}  // namespace swarm::kv

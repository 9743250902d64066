#include "src/kv/raw_kv.h"

#include <cstring>

#include "src/hash/xxhash.h"
#include "src/kv/replicated_kv.h"

namespace swarm::kv {

sim::Task<RawKvSession::Located> RawKvSession::Locate(uint64_t key, KvResult* result) {
  Located loc;
  if (index::CacheEntry* e = cache_->Lookup(key)) {
    loc.found = true;
    loc.cache_hit = true;
    loc.layout = e->layout;
    loc.generation = e->generation;
    result->cache_hit = true;
    co_return loc;
  }
  auto idx = co_await index_->Lookup(key, worker_->cpu());
  ++result->rtts;
  if (!idx.has_value()) {
    co_return loc;
  }
  loc.found = true;
  loc.layout = idx->layout;
  loc.generation = idx->generation;
  index::CacheEntry entry;
  entry.layout = loc.layout;
  entry.generation = loc.generation;
  cache_->Put(key, std::move(entry));
  co_return loc;
}

sim::Task<KvResult> RawKvSession::Get(uint64_t key) {
  KvResult result;
  Located loc = co_await Locate(key, &result);
  for (;;) {
    if (!loc.found) {
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    const ReplicaLayout& rep = loc.layout->replicas[0];
    sim::Bytes buf(8 + loc.layout->max_value);
    fabric::OpResult r = co_await worker_->qp(rep.node).Read(rep.meta_addr, buf);
    ++result.rtts;
    if (!r.ok()) {
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    uint64_t len;
    std::memcpy(&len, buf.data(), 8);
    if (len == 0 || len > loc.layout->max_value) {
      if (loc.cache_hit) {
        // A tombstone beneath a CACHED location can belong to a mapping that
        // was deleted and re-inserted since we cached it — absence is only
        // believable off the index. The re-locate is cache-miss by
        // construction, so this cannot loop.
        cache_->Invalidate(key);
        result.cache_hit = false;
        loc = co_await Locate(key, &result);
        continue;
      }
      result.status = KvStatus::kNotFound;  // Deleted (or garbage under a torn write).
      co_return result;
    }
    result.status = KvStatus::kOk;
    result.fast_path = result.cache_hit;
    result.value.assign(buf.begin() + 8, buf.begin() + 8 + static_cast<long>(len));
    co_return result;
  }
}

sim::Task<KvResult> RawKvSession::Update(uint64_t key, std::span<const uint8_t> value) {
  KvResult result;
  Located loc = co_await Locate(key, &result);
  if (!loc.found) {
    result.status = KvStatus::kNotFound;
    co_return result;
  }
  const ReplicaLayout& rep = loc.layout->replicas[0];
  sim::Bytes buf(8 + value.size());
  const uint64_t len = value.size();
  std::memcpy(buf.data(), &len, 8);
  std::memcpy(buf.data() + 8, value.data(), value.size());
  fabric::OpResult r = co_await worker_->qp(rep.node).Write(rep.meta_addr, buf);
  ++result.rtts;
  result.status = r.ok() ? KvStatus::kOk : KvStatus::kUnavailable;
  result.fast_path = result.cache_hit;
  co_return result;
}

sim::Task<KvResult> RawKvSession::Insert(uint64_t key, std::span<const uint8_t> value) {
  KvResult result;
  // Allocate a single region on a hash-chosen node (client pre-allocation:
  // no roundtrip), then in parallel write the value and insert the mapping.
  const int node = static_cast<int>(hash::Mix64(key, 0x524157) %
                                    static_cast<uint64_t>(worker_->fabric()->num_nodes()));
  ObjectLayout l;
  l.num_replicas = 1;
  l.meta_slots = 1;
  l.max_writers = 1;
  l.max_value = worker_->config().max_value;
  l.replicas[0].node = node;
  l.replicas[0].meta_addr = worker_->fabric()->node(node).Allocate(8 + l.max_value);
  std::shared_ptr<const ObjectLayout> layout = std::make_shared<ObjectLayout>(l);

  auto ins = co_await index_->InsertIfAbsent(key, layout, worker_->cpu());
  ++result.rtts;
  Located loc;
  loc.found = true;
  loc.layout = ins.second.layout;
  loc.generation = ins.second.generation;
  if (!ins.first) {
    index_->Retire(layout);
  }
  index::CacheEntry entry;
  entry.layout = loc.layout;
  entry.generation = loc.generation;
  cache_->Put(key, std::move(entry));

  const ReplicaLayout& rep = loc.layout->replicas[0];
  sim::Bytes buf(8 + value.size());
  const uint64_t len = value.size();
  std::memcpy(buf.data(), &len, 8);
  std::memcpy(buf.data() + 8, value.data(), value.size());
  fabric::OpResult r = co_await worker_->qp(rep.node).Write(rep.meta_addr, buf);
  result.status = !r.ok()              ? KvStatus::kUnavailable
                  : ins.first          ? KvStatus::kOk
                                       : KvStatus::kExists;
  co_return result;
}

sim::Task<KvResult> RawKvSession::Remove(uint64_t key) {
  KvResult result;
  Located loc = co_await Locate(key, &result);
  for (;;) {
    if (!loc.found) {
      result.status = KvStatus::kNotFound;
      co_return result;
    }
    const ReplicaLayout& rep = loc.layout->replicas[0];
    sim::Bytes zero(8, 0);
    fabric::OpResult r = co_await worker_->qp(rep.node).Write(rep.meta_addr, zero);
    ++result.rtts;
    cache_->Invalidate(key);
    if (!r.ok()) {
      // Outcome unknown: the background unmap settles it either way (its
      // generation guard lets a racing re-insert win).
      sim::Spawn(UnmapLater(index_, key, loc.generation));
      result.status = KvStatus::kUnavailable;
      co_return result;
    }
    // The generation-guarded unmap is this store's only stale-mapping
    // detector, so its result is commit-critical: `false` under a CACHED
    // location means the mapping we just tombstoned was already dead —
    // deleted and re-inserted since we cached it — and the live object is
    // untouched. SwarmKv/DmAbd catch that case as kDeleted off the
    // replicated tombstone (§5.3.4); RAW's single blind write cannot, and
    // fire-and-forgetting the unmap here used to turn such a remove into a
    // silent no-op reported as kOk.
    const bool removed =
        co_await index_->RemoveIfGeneration(key, loc.generation, worker_->cpu());
    ++result.rtts;
    if (removed || !loc.cache_hit) {
      // Fresh-index `!removed`: a concurrent remove won the race (possibly
      // with a re-insert behind it); ours linearizes just before it.
      result.status = KvStatus::kOk;
      co_return result;
    }
    loc = co_await Locate(key, &result);  // Invalidated above: goes to the index.
  }
}

}  // namespace swarm::kv

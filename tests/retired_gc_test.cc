// Retired-layout GC (the unbounded-growth follow-up): IndexService::Retire
// used to keep every dead layout forever, and repair re-walked the whole
// list each round. Retirement is now coupled to the memory recycler's epochs
// — an entry is tagged with the epoch current at retirement and dropped once
// Recycler::SafeReclaimBefore() passes it (every live client drained the
// accesses that could still reference it; non-acking clients are
// sticky-fenced). These tests assert the list actually SHRINKS under churn.

#include "src/index/index_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/client_cache.h"
#include "src/index/placement_map.h"
#include "src/index/shard_router.h"
#include "src/kv/swarm_kv.h"
#include "src/membership/membership.h"
#include "src/sim/random.h"
#include "src/swarm/recycler.h"
#include "tests/support/test_env.h"

// Wall-clock budgets are waived under sanitizers (as in chaos_kv_test): the
// shadow-memory overhead would be gated, not the algorithm's complexity.
#if defined(__SANITIZE_ADDRESS__)
#define SWARM_GC_BUDGET_WAIVED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWARM_GC_BUDGET_WAIVED 1
#endif
#endif
#ifndef SWARM_GC_BUDGET_WAIVED
#define SWARM_GC_BUDGET_WAIVED 0
#endif

namespace swarm {
namespace {

using testing::TestEnv;
using Retired = index::IndexService::RetiredLayout;

TEST(RetiredGc, ChurnStaysBoundedByTheSafeHorizon) {
  TestEnv env(3);
  membership::MembershipService membership(&env.sim, &env.fabric);
  Recycler recycler(&env.sim, &membership);
  RecyclerParticipant client(&env.sim, 1, /*ack_delay=*/2000);
  recycler.Register(&client);

  index::IndexService index(&env.sim);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });

  size_t max_seen = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 8; ++i) {
      index.Retire(std::make_shared<ObjectLayout>(env.MakeObject()));
    }
    max_seen = std::max(max_seen, index.retired().size());
    recycler.HeartbeatAll();
    sim::Spawn(recycler.RunRound());
    env.sim.Run();
  }
  // 160 retirements passed through; the horizon kept reclaiming them. Only
  // the most recent burst (retired under the current epoch, not yet drained)
  // may linger.
  EXPECT_EQ(index.retired_dropped() + index.retired().size(), 160u);
  EXPECT_GE(index.retired_dropped(), 150u);
  EXPECT_LE(index.retired().size(), 8u)
      << "the retired list must shrink once the safe horizon passes";
  EXPECT_LE(max_seen, 16u) << "churn must keep the list bounded, not merely trimmed at the end";

  // One more drained round reclaims the stragglers too.
  recycler.HeartbeatAll();
  sim::Spawn(recycler.RunRound());
  env.sim.Run();
  (void)index.GcRetired();
  EXPECT_EQ(index.retired().size(), 0u);
}

TEST(RetiredGc, WithoutRecyclerCouplingNothingIsDropped) {
  // Envs without a recycler (protocol unit tests, benches) keep the old
  // conservative behavior: retired layouts live for the whole simulation.
  TestEnv env(3);
  index::IndexService index(&env.sim);
  for (int i = 0; i < 5; ++i) {
    index.Retire(std::make_shared<ObjectLayout>(env.MakeObject()));
  }
  EXPECT_EQ(index.retired().size(), 5u);
  EXPECT_EQ(index.GcRetired(), 0u);
  EXPECT_EQ(index.retired().size(), 5u);
}

TEST(RetiredGc, InsertCollisionChurnShrinksThroughTheKvPath) {
  // The real producer: two clients inserting the same keys concurrently —
  // the loser of each InsertIfAbsent race retires its freshly allocated
  // layout (§5.3.1). With recycler rounds interleaved the list shrinks.
  TestEnv env(11);
  membership::MembershipService membership(&env.sim, &env.fabric);
  Recycler recycler(&env.sim, &membership);
  RecyclerParticipant p1(&env.sim, 1, 2000);
  RecyclerParticipant p2(&env.sim, 2, 2300);
  recycler.Register(&p1);
  recycler.Register(&p2);

  index::IndexService index(&env.sim);
  index.set_retirement_horizon([&recycler] { return recycler.current_epoch(); },
                               [&recycler] { return recycler.SafeReclaimBefore(); });
  index::ClientCache cache_a;
  index::ClientCache cache_b;
  Worker& wa = env.MakeWorker(0);
  Worker& wb = env.MakeWorker(100);
  // Epoch-fenced verbs in the unit fixture too, not only the chaos harness.
  testing::WireWorkerEpoch(wa, membership);
  testing::WireWorkerEpoch(wb, membership);
  kv::SwarmKvSession a(&wa, &index, &cache_a);
  kv::SwarmKvSession b(&wb, &index, &cache_b);

  auto insert_pair = [](TestEnv* env, kv::SwarmKvSession* s, uint64_t key) -> sim::Task<void> {
    (void)co_await s->Insert(key, testing::ValN(8, 0x5a));
    (void)env;
  };
  uint64_t collisions = 0;
  for (uint64_t key = 0; key < 24; ++key) {
    sim::Spawn(insert_pair(&env, &a, key));
    sim::Spawn(insert_pair(&env, &b, key));
    env.sim.Run();
    collisions = index.retired_dropped() + index.retired().size();
    if (key % 4 == 3) {
      recycler.HeartbeatAll();
      sim::Spawn(recycler.RunRound());
      env.sim.Run();
    }
  }
  EXPECT_GT(collisions, 0u) << "concurrent inserts never collided: the churn proved nothing";
  EXPECT_GT(index.retired_dropped(), 0u);
  EXPECT_LE(index.retired().size(), collisions / 2)
      << "the retired list must shrink under insert-collision churn";
}

// ---------------------------------------------------------------------------
// GcRetired scans only each shard's eligible prefix. The tests below pin it
// against the two-pass algorithm it replaced, and pin its cost.

// A layout's identity across two mirrored fabrics: (node, slot address) per
// replica. Both fabrics hand out the same addresses while their allocator
// histories (which slots were freed, and when) match.
using Sig = std::vector<std::pair<int32_t, uint64_t>>;

Sig SigOf(const ObjectLayout& l) {
  Sig sig;
  for (int r = 0; r < l.num_replicas; ++r) {
    const ReplicaLayout& rep = l.replicas[static_cast<size_t>(r)];
    sig.emplace_back(rep.node, rep.meta_addr);
  }
  return sig;
}

// The retired-layout GC as it stood before the prefix scan: two passes over
// EVERY entry of every shard, the placement-map lookup taken before the
// epoch test. Kept as the differential oracle. It keeps its own maps,
// placement map and retired lists over its own fabric, updated by the same
// steps IndexService takes for each operation.
class TwoPassReference {
 public:
  TwoPassReference(fabric::Fabric* fabric, int shards)
      : fabric_(fabric), router_(shards), shards_(static_cast<size_t>(router_.shards())) {}

  std::function<uint64_t()> current_epoch;
  std::function<uint64_t()> safe_before;
  std::function<void(const std::shared_ptr<const ObjectLayout>&)> listener;

  void Insert(uint64_t key, std::shared_ptr<const ObjectLayout> layout) {
    placement_.Register(key, layout);
    ShardOf(key).map.emplace(key, std::move(layout));
  }
  void Remove(uint64_t key) {
    Shard& sh = ShardOf(key);
    auto it = sh.map.find(key);
    RetireTo(sh, std::move(it->second), /*moved=*/false);
    sh.map.erase(it);
  }
  void Replace(uint64_t key, std::shared_ptr<const ObjectLayout> layout) {
    Shard& sh = ShardOf(key);
    auto it = sh.map.find(key);
    std::shared_ptr<const ObjectLayout> old = std::move(it->second);
    it->second = std::move(layout);
    placement_.Register(key, it->second);
    placement_.MarkMoved(old.get());
    RetireTo(sh, std::move(old), /*moved=*/true);
  }
  void Retire(std::shared_ptr<const ObjectLayout> layout) {
    placement_.Register(/*key=*/0, layout);
    RetireTo(shards_[0], std::move(layout), /*moved=*/false);
  }

  size_t GcRetired() {
    const uint64_t horizon = safe_before();
    size_t dropped_total = 0;
    for (Shard& sh : shards_) {
      if (sh.retired.empty()) {
        continue;
      }
      for (auto& r : sh.retired) {
        if (r.epoch < horizon && !r.caches_notified) {
          r.caches_notified = true;
          listener(r.layout);
        }
      }
      size_t kept = 0;
      for (auto& r : sh.retired) {
        const long pinned_by_us = 1 + static_cast<long>(placement_.OwnedCount(r.layout.get()));
        if (r.epoch >= horizon || r.layout.use_count() > pinned_by_us) {
          sh.retired[kept++] = std::move(r);
          continue;
        }
        placement_.Release(r.layout.get(), [this](int node, uint64_t addr, uint64_t len) {
          auto& n = fabric_->node(node);
          n.RestoreRegion(addr, len);
          n.FreeSlot(addr);
        });
        graveyard_.push_back(std::move(r.layout));
      }
      dropped_total += sh.retired.size() - kept;
      sh.retired.resize(kept);
    }
    dropped_ += dropped_total;
    return dropped_total;
  }

  const std::vector<Retired>& retired(int shard) const {
    return shards_[static_cast<size_t>(shard)].retired;
  }
  const index::PlacementMap& placement() const { return placement_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Shard {
    std::unordered_map<uint64_t, std::shared_ptr<const ObjectLayout>> map;
    std::vector<Retired> retired;
  };

  Shard& ShardOf(uint64_t key) { return shards_[static_cast<size_t>(router_.ShardOf(key))]; }

  void RetireTo(Shard& sh, std::shared_ptr<const ObjectLayout> layout, bool moved) {
    sh.retired.push_back({std::move(layout), current_epoch(), false, moved});
    GcRetired();
  }

  fabric::Fabric* fabric_;
  index::ShardRouter router_;
  std::vector<Shard> shards_;
  index::PlacementMap placement_;
  std::vector<std::shared_ptr<const ObjectLayout>> graveyard_;
  uint64_t dropped_ = 0;
};

sim::Task<void> InsertOp(index::IndexService* index, uint64_t key,
                         std::shared_ptr<const ObjectLayout> layout, uint64_t* generation) {
  auto [inserted, entry] = co_await index->InsertIfAbsent(key, std::move(layout), nullptr);
  *generation = inserted ? entry.generation : 0;
}

sim::Task<void> RemoveOp(index::IndexService* index, uint64_t key, uint64_t generation,
                         bool* removed) {
  *removed = co_await index->RemoveIfGeneration(key, generation, nullptr);
}

sim::Task<void> ReplaceOp(index::IndexService* index, uint64_t key, uint64_t generation,
                          std::shared_ptr<const ObjectLayout> layout, uint64_t* new_generation) {
  *new_generation = co_await index->ReplaceLayout(key, generation, std::move(layout), nullptr);
}

// Drives the real IndexService and the two-pass oracle through one schedule,
// each over its own identically seeded fabric, and compares everything the
// GC decides: listener calls, the retired lists, the placement map and fences
// after every step, each later slot allocation, and (ExpectSameDropOrder)
// the order of the drops, which is the order of the Release / FreeSlot calls.
class GcMirror {
 public:
  static constexpr int kShards = 3;
  static constexpr uint64_t kKeys = 24;
  static constexpr int kNodes = 4;

  GcMirror()
      : real_env_(7), ref_env_(7),
        index_(std::in_place, &real_env_.sim, &real_env_.fabric, /*one_way_delay=*/680,
               /*jitter=*/0, /*submit_cost=*/200, kShards),
        ref_(std::in_place, &ref_env_.fabric, kShards) {
    index_->set_retirement_horizon([this] { return epoch_; },
                                  [this] {
                                    gc_at_ = real_env_.sim.Now();
                                    return horizon_;
                                  });
    index_->add_gc_listener([this](const std::shared_ptr<const ObjectLayout>& l) {
      real_log_.push_back(SigOf(*l));
      real_cache_.erase(l.get());
    });
    ref_->current_epoch = [this] { return epoch_; };
    ref_->safe_before = [this] { return horizon_; };
    ref_->listener = [this](const std::shared_ptr<const ObjectLayout>& l) {
      ref_log_.push_back(SigOf(*l));
      ref_cache_.erase(l.get());
    };
  }

  void Step(sim::Rng& rng) {
    const uint64_t pick = rng.Below(100);
    if (pick < 20) {
      InsertFresh(rng);
    } else if (pick < 34) {
      Remove(rng);
    } else if (pick < 44) {
      Migrate(rng);
    } else if (pick < 52) {
      InsertLoser();
    } else if (pick < 59) {
      ++epoch_;
    } else if (pick < 67) {
      horizon_ += rng.Below(epoch_ - horizon_ + 1);
      Gc();
    } else if (pick < 76) {
      Pin(rng);
    } else if (pick < 84) {
      if (!pins_.empty()) {
        pins_.erase(pins_.begin() + static_cast<long>(rng.Below(pins_.size())));
      }
    } else if (pick < 92) {
      CacheMapped(rng);
    } else if (pick < 97) {
      Gc();
    } else {
      // Let the slot quarantines ripen so freed slots are handed out again.
      real_env_.sim.RunUntil(real_env_.sim.Now() + 6'000'000);
    }
    SyncRefClock();
  }

  void ExpectSame() {
    ASSERT_EQ(real_log_, ref_log_) << "listener calls diverged";
    ASSERT_EQ(index_->retired_dropped(), ref_->dropped());
    for (int s = 0; s < kShards; ++s) {
      const auto& a = index_->retired(s);
      const auto& b = ref_->retired(s);
      ASSERT_EQ(a.size(), b.size()) << "shard " << s;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(SigOf(*a[i].layout), SigOf(*b[i].layout)) << "shard " << s << " entry " << i;
        ASSERT_EQ(a[i].epoch, b[i].epoch);
        ASSERT_EQ(a[i].caches_notified, b[i].caches_notified);
        ASSERT_EQ(a[i].moved, b[i].moved);
      }
    }
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(Slots(index_->placement(), n), Slots(ref_->placement(), n)) << "node " << n;
      ASSERT_EQ(real_env_.fabric.node(n).live_bytes(), ref_env_.fabric.node(n).live_bytes());
      ASSERT_EQ(real_env_.fabric.node(n).retired_region_count(),
                ref_env_.fabric.node(n).retired_region_count());
    }
  }

  // Tears both indexes down and compares the order their layouts die in.
  // Nothing else holds a dropped layout, and each graveyard is destroyed
  // first and frees its layouts in the order the GC pushed them — so this
  // pins the drop order, and with it the Release / FreeSlot sequence, within
  // every GC call, where the per-step checks see only each call's drop set.
  void ExpectSameDropOrder() {
    const uint64_t dropped = index_->retired_dropped();
    pins_.clear();
    mapped_.clear();
    real_cache_.clear();
    ref_cache_.clear();
    ASSERT_TRUE(real_freed_.empty()) << "a layout died outside the index";
    index_.reset();
    ref_.reset();
    ASSERT_GE(real_freed_.size(), dropped);
    ASSERT_GE(ref_freed_.size(), dropped);
    const auto n = static_cast<long>(dropped);
    EXPECT_TRUE(std::equal(real_freed_.begin(), real_freed_.begin() + n, ref_freed_.begin()))
        << "layouts were dropped in a different order";
  }

  uint64_t retired_dropped() const { return index_->retired_dropped(); }
  size_t listener_calls() const { return real_log_.size(); }
  size_t moved_retirements() const { return moved_; }
  size_t pinned_keeps() const { return pinned_keeps_; }

 private:
  using Layout = std::shared_ptr<const ObjectLayout>;
  struct Mapped {
    Layout real;
    Layout ref;
    uint64_t generation = 0;
  };

  static std::vector<std::tuple<uint64_t, Sig, uint64_t, int32_t, bool>> Slots(
      const index::PlacementMap& pm, int node) {
    std::vector<std::tuple<uint64_t, Sig, uint64_t, int32_t, bool>> out;
    pm.ForEachSlotOn(node, [&out](uint64_t addr, const index::PlacementMap::Slot& s) {
      out.emplace_back(addr, SigOf(*s.owner), s.key, s.replica, s.moved);
    });
    return out;
  }

  void SyncRefClock() { ref_env_.sim.RunUntil(real_env_.sim.Now()); }

  // Both sides' copies of one layout share a serial number, which their
  // deleters log.
  static Layout Track(const ObjectLayout& l, std::vector<uint64_t>* freed, uint64_t serial) {
    return Layout(new ObjectLayout(l), [freed, serial](const ObjectLayout* p) {
      freed->push_back(serial);
      delete p;
    });
  }

  std::pair<Layout, Layout> TrackPair(const ObjectLayout& real, const ObjectLayout& ref) {
    EXPECT_EQ(SigOf(real), SigOf(ref)) << "slot allocation diverged (FreeSlot order)";
    const uint64_t serial = made_++;
    return {Track(real, &real_freed_, serial), Track(ref, &ref_freed_, serial)};
  }

  std::pair<Layout, Layout> MakePair() {
    return TrackPair(real_env_.MakeObject(), ref_env_.MakeObject());
  }

  uint64_t RandomMappedKey(sim::Rng& rng) const {
    auto it = mapped_.begin();
    std::advance(it, static_cast<long>(rng.Below(mapped_.size())));
    return it->first;
  }

  // Runs a real-side RPC to completion; the oracle's matching step then runs
  // at the instant the real GC ran (the request leg's arrival), so both
  // fabrics free slots at the same virtual time.
  template <typename RefStep>
  void RunRealThenRef(sim::Task<void> real_op, RefStep&& ref_step) {
    gc_at_ = -1;
    sim::Spawn(std::move(real_op));
    real_env_.sim.Run();
    if (gc_at_ >= 0) {
      ref_env_.sim.RunUntil(gc_at_);
    }
    ref_step();
  }

  void InsertFresh(sim::Rng& rng) {
    const uint64_t key = rng.Below(kKeys);
    if (mapped_.count(key) != 0) {
      return;
    }
    auto [real, ref] = MakePair();
    uint64_t generation = 0;
    RunRealThenRef(InsertOp(&*index_, key, real, &generation), [&] { ref_->Insert(key, ref); });
    ASSERT_NE(generation, 0u);
    mapped_[key] = {std::move(real), std::move(ref), generation};
  }

  void Remove(sim::Rng& rng) {
    if (mapped_.empty()) {
      return;
    }
    const uint64_t key = RandomMappedKey(rng);
    const uint64_t generation = mapped_[key].generation;
    mapped_.erase(key);
    bool removed = false;
    RunRealThenRef(RemoveOp(&*index_, key, generation, &removed), [&] { ref_->Remove(key); });
    ASSERT_TRUE(removed);
  }

  // A migration flip: replica 0 moves to the node the layout does not use;
  // the old layout keeps only that vacated, fenced slot (OwnedCount 1).
  void Migrate(sim::Rng& rng) {
    if (mapped_.empty()) {
      return;
    }
    const uint64_t key = RandomMappedKey(rng);
    Mapped& m = mapped_[key];
    auto moved_copy = [](TestEnv& env, const ObjectLayout& old) {
      ObjectLayout next = old;
      bool used[kNodes] = {};
      for (int r = 0; r < old.num_replicas; ++r) {
        used[old.replicas[static_cast<size_t>(r)].node] = true;
      }
      int dest = 0;
      while (used[dest]) {
        ++dest;
      }
      const ReplicaLayout& src = old.replicas[0];
      const auto [addr, len] = old.replica_slot(0);
      env.fabric.node(src.node).RetireRegion(addr, len);
      ReplicaLayout& rep = next.replicas[0];
      rep.node = dest;
      rep.meta_addr = env.fabric.node(dest).AllocSlot(len);
      rep.inplace_addr = src.inplace_addr == 0 ? 0 : rep.meta_addr + (src.inplace_addr - addr);
      rep.tsl_addr = rep.meta_addr + (src.tsl_addr - addr);
      return next;
    };
    auto [real, ref] = TrackPair(moved_copy(real_env_, *m.real), moved_copy(ref_env_, *m.ref));
    uint64_t generation = 0;
    RunRealThenRef(ReplaceOp(&*index_, key, m.generation, real, &generation),
                   [&] { ref_->Replace(key, ref); });
    ASSERT_NE(generation, 0u);
    m = {std::move(real), std::move(ref), generation};
    ++moved_;
  }

  // An insert that lost its InsertIfAbsent race retires its fresh layout.
  void InsertLoser() {
    auto [real, ref] = MakePair();
    index_->Retire(std::move(real));
    ref_->Retire(std::move(ref));
  }

  // An in-flight op holding a layout: usually one it just located, sometimes
  // a retired one still inside the horizon.
  void Pin(sim::Rng& rng) {
    if (rng.Chance(0.5) && !mapped_.empty()) {
      const Mapped& m = mapped_[RandomMappedKey(rng)];
      pins_.emplace_back(m.real, m.ref);
      return;
    }
    const int s = static_cast<int>(rng.Below(kShards));
    const auto& list = index_->retired(s);
    if (list.empty()) {
      return;
    }
    const size_t i = rng.Below(list.size());
    pins_.emplace_back(list[i].layout, ref_->retired(s)[i].layout);
  }

  void CacheMapped(sim::Rng& rng) {
    if (mapped_.empty()) {
      return;
    }
    const Mapped& m = mapped_[RandomMappedKey(rng)];
    real_cache_[m.real.get()] = m.real;
    ref_cache_[m.ref.get()] = m.ref;
  }

  void Gc() {
    const uint64_t before = index_->retired_dropped();
    size_t blocked = 0;
    for (int s = 0; s < kShards; ++s) {
      for (const Retired& r : index_->retired(s)) {
        blocked += r.epoch < horizon_ ? 1 : 0;
      }
    }
    const size_t dropped = index_->GcRetired();
    EXPECT_EQ(dropped, ref_->GcRetired());
    EXPECT_EQ(index_->retired_dropped() - before, dropped);
    pinned_keeps_ += blocked - dropped;
  }

  TestEnv real_env_;
  TestEnv ref_env_;
  std::vector<uint64_t> real_freed_;  // Serials, in the order layouts died.
  std::vector<uint64_t> ref_freed_;
  uint64_t made_ = 0;
  std::optional<index::IndexService> index_;
  std::optional<TwoPassReference> ref_;
  uint64_t epoch_ = 0;
  uint64_t horizon_ = 0;
  sim::Time gc_at_ = -1;
  std::map<uint64_t, Mapped> mapped_;
  std::vector<std::pair<Layout, Layout>> pins_;
  std::unordered_map<const ObjectLayout*, Layout> real_cache_;
  std::unordered_map<const ObjectLayout*, Layout> ref_cache_;
  std::vector<Sig> real_log_;
  std::vector<Sig> ref_log_;
  size_t moved_ = 0;
  size_t pinned_keeps_ = 0;
};

TEST(RetiredGc, PrefixScanMatchesTheTwoPassOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "schedule seed " << seed);
    GcMirror mirror;
    sim::Rng rng(seed);
    for (int step = 0; step < 1500; ++step) {
      mirror.Step(rng);
      mirror.ExpectSame();
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
    // The schedule must have exercised what it claims to.
    EXPECT_GT(mirror.retired_dropped(), 100u);
    EXPECT_GT(mirror.listener_calls(), mirror.retired_dropped());
    EXPECT_GT(mirror.moved_retirements(), 50u);
    EXPECT_GT(mirror.pinned_keeps(), 0u) << "no pin ever held an eligible layout back";
    mirror.ExpectSameDropOrder();
  }
}

// A layout with distinct, fabric-free slot addresses (no node memory behind
// it; the index then skips the node-side release).
std::shared_ptr<const ObjectLayout> FakeLayout(uint64_t i) {
  ObjectLayout l;
  l.num_replicas = 3;
  for (int r = 0; r < 3; ++r) {
    l.replicas[static_cast<size_t>(r)].node = r;
    l.replicas[static_cast<size_t>(r)].meta_addr = 64 + i * 256;
  }
  return std::make_shared<const ObjectLayout>(l);
}

TEST(RetiredGc, PinnedHeadDoesNotBlockTheEligibleEntriesBehindIt) {
  sim::Simulator sim;
  index::IndexService index(&sim);
  uint64_t epoch = 0;
  uint64_t horizon = 0;
  index.set_retirement_horizon([&epoch] { return epoch; }, [&horizon] { return horizon; });
  std::vector<const ObjectLayout*> notified;
  index.add_gc_listener(
      [&notified](const std::shared_ptr<const ObjectLayout>& l) { notified.push_back(l.get()); });

  auto head = FakeLayout(0);
  auto second = FakeLayout(1);
  auto third = FakeLayout(2);
  const std::vector<const ObjectLayout*> order = {head.get(), second.get(), third.get()};
  std::shared_ptr<const ObjectLayout> pin = head;  // An in-flight op holds the head.
  index.Retire(std::move(head));
  index.Retire(std::move(second));
  index.Retire(std::move(third));
  epoch = 1;
  index.Retire(FakeLayout(3));  // Retired after the round: not eligible.
  ASSERT_EQ(index.retired().size(), 4u);

  horizon = 1;
  EXPECT_EQ(index.GcRetired(), 2u) << "the pinned head must not hold back the entries behind it";
  EXPECT_EQ(notified, order) << "every eligible layout is notified, in retirement order";
  ASSERT_EQ(index.retired().size(), 2u);
  EXPECT_EQ(index.retired()[0].layout.get(), order[0]);
  EXPECT_EQ(index.retired()[1].epoch, 1u);

  pin.reset();
  EXPECT_EQ(index.GcRetired(), 1u);
  EXPECT_EQ(notified.size(), 3u) << "a layout is notified once, however long it stays pinned";
  ASSERT_EQ(index.retired().size(), 1u);
  EXPECT_EQ(index.retired()[0].epoch, 1u);
  EXPECT_EQ(index.retired_dropped(), 3u);
}

TEST(RetiredGc, FrozenHorizonRetirementsCostNoRescan) {
  // Once faults stop, no recycler round runs and the horizon freezes: every
  // later retirement lands past it. The two-pass GC rescanned the whole list
  // (three map lookups per entry) on each of them — quadratic, about a
  // minute here. The prefix scan touches only the pinned eligible head.
  sim::Simulator sim;
  index::IndexService index(&sim);
  uint64_t epoch = 0;
  const uint64_t horizon = 4;
  index.set_retirement_horizon([&epoch] { return epoch; }, [&horizon] { return horizon; });

  constexpr uint64_t kPinned = 8;
  constexpr uint64_t kRetirements = 20'000;
  std::vector<std::shared_ptr<const ObjectLayout>> pins;
  for (uint64_t i = 0; i < kPinned; ++i) {
    pins.push_back(FakeLayout(i));
    index.Retire(pins.back());
  }
  epoch = horizon;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = kPinned; i < kPinned + kRetirements; ++i) {
    index.Retire(FakeLayout(i));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(index.retired().size(), kPinned + kRetirements);
  EXPECT_EQ(index.retired_dropped(), 0u);

  pins.clear();
  EXPECT_EQ(index.GcRetired(), kPinned);
  EXPECT_EQ(index.retired().size(), kRetirements);
  if (!SWARM_GC_BUDGET_WAIVED) {
    EXPECT_LT(seconds, 1.0) << kRetirements << " retirements under a frozen horizon took "
                            << seconds << " s";
  }
}

}  // namespace
}  // namespace swarm

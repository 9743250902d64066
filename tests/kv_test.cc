// Integration tests for the four key-value stores (SWARM-KV, RAW, DM-ABD,
// FUSEE): basic CRUD semantics, cache behaviour, roundtrip structure
// (Table 2), delete/re-insert races, and failure handling.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/kv/dm_abd_kv.h"
#include "src/kv/fusee_kv.h"
#include "src/kv/raw_kv.h"
#include "src/kv/swarm_kv.h"
#include "src/sim/sync.h"
#include "tests/support/test_env.h"

namespace swarm::kv {
namespace {

using sim::Spawn;
using sim::Task;
using testing::TestEnv;
using testing::ValN;

// Bundles one client environment for a given store type.
struct KvFixture {
  explicit KvFixture(uint64_t seed = 1) : env(seed), indexsvc(&env.sim), fusee(&env.fabric) {}

  // `own_cache` (optional) replaces the fixture's shared client cache.
  std::unique_ptr<KvSession> Make(const std::string& kind,
                                  index::ClientCache* own_cache = nullptr) {
    Worker& w = env.MakeWorker();
    index::ClientCache* c = own_cache != nullptr ? own_cache : &cache;
    if (kind == "swarm") {
      return std::make_unique<SwarmKvSession>(&w, &indexsvc, c);
    }
    if (kind == "raw") {
      return std::make_unique<RawKvSession>(&w, &indexsvc, c);
    }
    if (kind == "dmabd") {
      return std::make_unique<DmAbdKvSession>(&w, &indexsvc, c);
    }
    return std::make_unique<FuseeKvSession>(&w, &fusee, c);
  }

  TestEnv env;
  index::IndexService indexsvc;
  index::ClientCache cache;
  FuseeStore fusee;
};

Task<void> CrudSequence(KvSession* kv, bool* done) {
  // Insert → get → update → get → remove → get.
  KvResult ins = co_await kv->Insert(1, ValN(32, 0xA1));
  EXPECT_TRUE(ins.ok());

  KvResult g1 = co_await kv->Get(1);
  EXPECT_EQ(g1.status, KvStatus::kOk);
  EXPECT_EQ(g1.value, ValN(32, 0xA1));

  KvResult up = co_await kv->Update(1, ValN(32, 0xB2));
  EXPECT_EQ(up.status, KvStatus::kOk);

  KvResult g2 = co_await kv->Get(1);
  EXPECT_EQ(g2.status, KvStatus::kOk);
  EXPECT_EQ(g2.value, ValN(32, 0xB2));

  KvResult rm = co_await kv->Remove(1);
  EXPECT_EQ(rm.status, KvStatus::kOk);

  KvResult g3 = co_await kv->Get(1);
  EXPECT_EQ(g3.status, KvStatus::kNotFound);

  KvResult miss = co_await kv->Get(42);
  EXPECT_EQ(miss.status, KvStatus::kNotFound);

  KvResult upmiss = co_await kv->Update(42, ValN(8, 1));
  EXPECT_EQ(upmiss.status, KvStatus::kNotFound);
  *done = true;
}

class KvCrud : public ::testing::TestWithParam<const char*> {};

TEST_P(KvCrud, FullLifecycle) {
  KvFixture fx;
  auto kv = fx.Make(GetParam());
  bool done = false;
  Spawn(CrudSequence(kv.get(), &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Stores, KvCrud, ::testing::Values("swarm", "raw", "dmabd", "fusee"));

// §5.3.2's crashed deleter: the key's object carries a replicated tombstone,
// but the index still maps it (the unmap never ran). Tombstones the mapped
// object directly through the store's register, leaving the mapping in place.
template <typename Register>
Task<void> TombstoneWithoutUnmap(Worker* w, index::IndexService* index, uint64_t key) {
  std::optional<index::IndexEntry> idx = co_await index->Lookup(key, w->cpu());
  EXPECT_TRUE(idx.has_value());
  if (!idx.has_value()) {
    co_return;
  }
  Register obj(w, idx->layout.get(), w->SlotCacheFor(idx->layout.get()));
  SgWriteResult del = co_await obj.Delete();
  EXPECT_EQ(del.status, SgStatus::kOk);
}

class KvCrashedDeleter : public ::testing::TestWithParam<const char*> {
 protected:
  // Inserts key 7 through one session, then tombstones it without unmapping.
  // Returns a session with a fresh (empty) cache for the op under test.
  std::unique_ptr<KvSession> Prepare(KvFixture* fx, index::ClientCache* fresh_cache) {
    auto writer = fx->Make(GetParam());
    Worker* deleter = &fx->env.MakeWorker();
    const bool swarm = std::string(GetParam()) == "swarm";
    auto seed = [](KvSession* kv, Worker* w, index::IndexService* index,
                   bool swarm2) -> Task<void> {
      EXPECT_TRUE((co_await kv->Insert(7, ValN(16, 0xA1))).ok());
      if (swarm2) {
        co_await TombstoneWithoutUnmap<SafeGuessObject>(w, index, 7);
      } else {
        co_await TombstoneWithoutUnmap<AbdObject>(w, index, 7);
      }
    };
    Spawn(seed(writer.get(), deleter, &fx->indexsvc, swarm));
    fx->env.sim.Run();
    return fx->Make(GetParam(), fresh_cache);
  }
};

TEST_P(KvCrashedDeleter, InsertOverTombstonedMappingSucceeds) {
  KvFixture fx;
  index::ClientCache fresh;
  auto kv = Prepare(&fx, &fresh);
  bool done = false;
  auto driver = [](KvSession* kv2, bool* done2) -> Task<void> {
    // Insert's contract is kOk/kExists/kUnavailable: the tombstoned mapping
    // is unmapped and the insert retried with fresh replicas.
    KvResult ins = co_await kv2->Insert(7, ValN(16, 0xB2));
    EXPECT_EQ(ins.status, KvStatus::kOk);
    KvResult g = co_await kv2->Get(7);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 0xB2));
    *done2 = true;
  };
  Spawn(driver(kv.get(), &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

// Protocol fact 3: a Safe-Guess update installs its guessed word before it
// can observe the tombstone, so its kNotFound is possibly applied; an ABD
// update observes the tombstone before installing anything.
TEST_P(KvCrashedDeleter, UpdateBounceIsAmbiguousOnlyForSafeGuess) {
  KvFixture fx;
  index::ClientCache fresh;
  auto kv = Prepare(&fx, &fresh);
  KvResult up;
  auto driver = [](KvSession* kv2, KvResult* out) -> Task<void> {
    *out = co_await kv2->Update(7, ValN(16, 0xB2));
  };
  Spawn(driver(kv.get(), &up));
  fx.env.sim.Run();
  EXPECT_EQ(up.status, KvStatus::kNotFound);
  EXPECT_EQ(up.ambiguous, std::string(GetParam()) == "swarm");
}

INSTANTIATE_TEST_SUITE_P(Stores, KvCrashedDeleter, ::testing::Values("swarm", "dmabd"));

// Regression (chaos_churn seed 110): tids 0 and 4 share metadata slot 0
// (tid % meta_slots, meta_slots = 4). Client B caches the key, its write
// through a second cache bounces off client A's tombstone (so B's slot cache
// holds that tombstone), and A re-inserts the key under a new generation.
// B's remove through the stale cached generation then replaces A's tombstone
// with its own on the first CAS; it must still see the object was dead,
// re-locate and delete the live generation. Safe-Guess used to return kOk
// on the 1-RT fast path and leave the live key in place. ABD's CAS-max
// counts only words the nodes returned, so its case is a pin.
class KvSlotSharingRemove : public ::testing::TestWithParam<const char*> {};

TEST_P(KvSlotSharingRemove, StaleCachedRemoveDeletesTheLiveGeneration) {
  KvFixture fx;
  auto a = fx.Make(GetParam());  // tid 0
  for (int i = 1; i < 4; ++i) {
    fx.env.MakeWorker();  // tids 1-3: bystanders
  }
  Worker& wb = fx.env.MakeWorker();  // tid 4: shares A's slot
  ASSERT_EQ(wb.tid() % static_cast<uint32_t>(fx.env.proto.meta_slots), 0u);
  index::ClientCache stale_cache;
  index::ClientCache bounce_cache;
  std::unique_ptr<KvSession> b_stale;
  std::unique_ptr<KvSession> b_bounce;
  if (std::string(GetParam()) == "swarm") {
    b_stale = std::make_unique<SwarmKvSession>(&wb, &fx.indexsvc, &stale_cache);
    b_bounce = std::make_unique<SwarmKvSession>(&wb, &fx.indexsvc, &bounce_cache);
  } else {
    b_stale = std::make_unique<DmAbdKvSession>(&wb, &fx.indexsvc, &stale_cache);
    b_bounce = std::make_unique<DmAbdKvSession>(&wb, &fx.indexsvc, &bounce_cache);
  }
  bool done = false;
  auto driver = [](KvSession* a2, KvSession* stale, KvSession* bounce, bool* done2) -> Task<void> {
    EXPECT_TRUE((co_await a2->Insert(7, ValN(16, 0xA1))).ok());
    EXPECT_EQ((co_await stale->Get(7)).status, KvStatus::kOk);   // Caches generation 1.
    EXPECT_EQ((co_await bounce->Get(7)).status, KvStatus::kOk);  // Likewise.
    EXPECT_EQ((co_await a2->Remove(7)).status, KvStatus::kOk);
    // Bounces off A's tombstone: B's slot cache now holds it.
    EXPECT_EQ((co_await bounce->Update(7, ValN(16, 0xB2))).status, KvStatus::kNotFound);
    EXPECT_TRUE((co_await a2->Insert(7, ValN(16, 0xC3))).ok());  // Generation 2.
    EXPECT_EQ((co_await stale->Remove(7)).status, KvStatus::kOk);
    KvResult g = co_await a2->Get(7);
    EXPECT_EQ(g.status, KvStatus::kNotFound) << "the stale remove left the live key in place";
    *done2 = true;
  };
  Spawn(driver(a.get(), b_stale.get(), b_bounce.get(), &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Stores, KvSlotSharingRemove, ::testing::Values("swarm", "dmabd"));

// Regression: a remove through a stale cached location used to
// fire-and-forget the generation-guarded unmap, tombstone a dead region,
// and report kOk while the re-inserted live mapping survived untouched.
TEST(RawKv, StaleCachedRemoveDeletesTheLiveMapping) {
  KvFixture fx;
  auto a = fx.Make("raw");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  RawKvSession b(&wb, &fx.indexsvc, &cache_b);

  bool done = false;
  auto driver = [](KvSession* a, KvSession* b, bool* done2) -> Task<void> {
    // Seed a's cache, then delete + re-insert the key through b: a's cached
    // location now points at a dead region and a stale generation.
    EXPECT_TRUE((co_await a->Insert(1, ValN(16, 0xA1))).ok());
    EXPECT_EQ((co_await b->Remove(1)).status, KvStatus::kOk);
    EXPECT_TRUE((co_await b->Insert(1, ValN(16, 0xB2))).ok());
    // The stale-cached remove must kill the LIVE mapping before claiming
    // kOk...
    KvResult rm = co_await a->Remove(1);
    EXPECT_EQ(rm.status, KvStatus::kOk);
    // ... so absence is observable afterwards from every vantage point.
    KvResult g = co_await b->Get(1);
    EXPECT_EQ(g.status, KvStatus::kNotFound);
    *done2 = true;
  };
  Spawn(driver(a.get(), &b, &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

// Regression companion: a get through the same stale cached location reads
// the dead region's tombstone and used to report kNotFound while the
// re-inserted value was live — it must re-locate through the index instead.
TEST(RawKv, StaleCachedGetFollowsTheReinsertedKey) {
  KvFixture fx;
  auto a = fx.Make("raw");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  RawKvSession b(&wb, &fx.indexsvc, &cache_b);

  bool done = false;
  auto driver = [](KvSession* a, KvSession* b, bool* done2) -> Task<void> {
    EXPECT_TRUE((co_await a->Insert(1, ValN(16, 0xA1))).ok());
    EXPECT_EQ((co_await b->Remove(1)).status, KvStatus::kOk);
    EXPECT_TRUE((co_await b->Insert(1, ValN(16, 0xB2))).ok());
    KvResult g = co_await a->Get(1);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 0xB2));
    EXPECT_EQ(g.rtts, 3);  // Dead-region read + index re-locate + live read.
    *done2 = true;
  };
  Spawn(driver(a.get(), &b, &done));
  fx.env.sim.Run();
  EXPECT_TRUE(done);
}

TEST(SwarmKv, SteadyStateOpsAreSingleRoundtrip) {
  KvFixture fx;
  auto kv = fx.Make("swarm");
  auto driver = [](sim::Simulator* sim, KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(7, ValN(64, 1));
    co_await sim->Delay(20000);  // Let the background VERIFIED promotion land.
    for (int i = 0; i < 5; ++i) {
      KvResult up = co_await kv->Update(7, ValN(64, static_cast<uint8_t>(i)));
      EXPECT_EQ(up.rtts, 1) << "update " << i;
      EXPECT_TRUE(up.fast_path);
      KvResult g = co_await kv->Get(7);
      EXPECT_EQ(g.rtts, 1) << "get " << i;
      EXPECT_EQ(g.value, ValN(64, static_cast<uint8_t>(i)));
    }
  };
  Spawn(driver(&fx.env.sim, kv.get()));
  fx.env.sim.Run();
}

TEST(SwarmKv, CacheMissCostsExtraRoundtrips) {
  KvFixture fx;
  auto writer = fx.Make("swarm");
  // A second client with its own empty cache.
  index::ClientCache other_cache;
  Worker& w2 = fx.env.MakeWorker();
  SwarmKvSession reader(&w2, &fx.indexsvc, &other_cache);

  auto driver = [](KvSession* writer, SwarmKvSession* reader) -> Task<void> {
    (void)co_await writer->Insert(9, ValN(16, 5));
    KvResult g = co_await reader->Get(9);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_FALSE(g.cache_hit);
    EXPECT_EQ(g.rtts, 2);  // Index lookup + read.
    KvResult g2 = co_await reader->Get(9);
    EXPECT_TRUE(g2.cache_hit);
    EXPECT_EQ(g2.rtts, 1);
    // §7.1: updates on a cache miss pay 2 extra RTs (index + metadata read).
    KvResult u = co_await reader->Update(10, ValN(16, 6));
    EXPECT_EQ(u.status, KvStatus::kNotFound);
    (void)co_await writer->Insert(10, ValN(16, 6));
    index::ClientCache fresh;
    KvResult u2 = co_await reader->Update(10, ValN(16, 7));
    EXPECT_EQ(u2.status, KvStatus::kOk);
  };
  Spawn(driver(writer.get(), &reader));
  fx.env.sim.Run();
}

TEST(KvRoundtrips, Table2CommonCase) {
  // Steady-state roundtrips with warm caches must match Table 2.
  KvFixture fx;
  auto swarm = fx.Make("swarm");
  index::ClientCache c2;
  index::ClientCache c3;
  index::ClientCache c4;
  Worker& w2 = fx.env.MakeWorker();
  Worker& w3 = fx.env.MakeWorker();
  Worker& w4 = fx.env.MakeWorker();
  RawKvSession raw(&w2, &fx.indexsvc, &c2);
  DmAbdKvSession dmabd(&w3, &fx.indexsvc, &c3);
  FuseeKvSession fusee(&w4, &fx.fusee, &c4);

  auto driver = [](KvSession* swarm, KvSession* raw, KvSession* dmabd,
                   KvSession* fusee) -> Task<void> {
    (void)co_await swarm->Insert(1, ValN(64, 1));
    (void)co_await raw->Insert(2, ValN(64, 1));
    (void)co_await dmabd->Insert(3, ValN(64, 1));
    (void)co_await fusee->Insert(4, ValN(64, 1));
    // Warm up caches.
    (void)co_await swarm->Get(1);
    (void)co_await raw->Get(2);
    (void)co_await dmabd->Get(3);
    (void)co_await fusee->Get(4);

    KvResult r;
    r = co_await swarm->Get(1);
    EXPECT_EQ(r.rtts, 1);
    r = co_await swarm->Update(1, ValN(64, 2));
    EXPECT_EQ(r.rtts, 1);
    r = co_await raw->Get(2);
    EXPECT_EQ(r.rtts, 1);
    r = co_await raw->Update(2, ValN(64, 2));
    EXPECT_EQ(r.rtts, 1);
    r = co_await dmabd->Get(3);
    EXPECT_EQ(r.rtts, 2);
    r = co_await dmabd->Update(3, ValN(64, 2));
    EXPECT_EQ(r.rtts, 2);
    r = co_await fusee->Get(4);
    EXPECT_EQ(r.rtts, 1);  // Own cache is fresh.
    r = co_await fusee->Update(4, ValN(64, 2));
    EXPECT_EQ(r.rtts, 4);
    r = co_await fusee->Get(4);
    EXPECT_EQ(r.rtts, 1);
  };
  Spawn(driver(swarm.get(), &raw, &dmabd, &fusee));
  fx.env.sim.Run();
}

TEST(FuseeKv, StaleCacheCostsSecondRoundtrip) {
  KvFixture fx;
  auto a = fx.Make("fusee");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  FuseeKvSession b(&wb, &fx.fusee, &cache_b);

  auto driver = [](KvSession* a, KvSession* b) -> Task<void> {
    (void)co_await a->Insert(5, ValN(16, 1));
    (void)co_await b->Get(5);  // b caches the location.
    (void)co_await a->Update(5, ValN(16, 2));  // a moves the value.
    KvResult g = co_await b->Get(5);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 2));
    EXPECT_EQ(g.rtts, 2);  // Old block forwarded: one extra roundtrip.
    EXPECT_FALSE(g.fast_path);
    KvResult g2 = co_await b->Get(5);
    EXPECT_EQ(g2.rtts, 1);  // Cache refreshed.
  };
  Spawn(driver(a.get(), &b));
  fx.env.sim.Run();
}

TEST(SwarmKv, DeletedKeyDetectedThroughStaleCache) {
  KvFixture fx;
  auto a = fx.Make("swarm");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  SwarmKvSession b(&wb, &fx.indexsvc, &cache_b);

  auto driver = [](KvSession* a, SwarmKvSession* b, index::ClientCache* cb) -> Task<void> {
    (void)co_await a->Insert(6, ValN(16, 1));
    (void)co_await b->Get(6);  // b caches the replicas.
    (void)co_await a->Remove(6);
    // b's cached replicas now carry the tombstone: the get must observe the
    // delete, flush its cache, and report not-found (§5.3.4).
    KvResult g = co_await b->Get(6);
    EXPECT_EQ(g.status, KvStatus::kNotFound);
    EXPECT_EQ(cb->stats().invalidations, 1u);
  };
  Spawn(driver(a.get(), &b, &cache_b));
  fx.env.sim.Run();
}

TEST(SwarmKv, ReinsertAfterDeleteWorks) {
  KvFixture fx;
  auto kv = fx.Make("swarm");
  auto driver = [](KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(8, ValN(16, 1));
    (void)co_await kv->Remove(8);
    KvResult ins = co_await kv->Insert(8, ValN(16, 9));
    EXPECT_TRUE(ins.ok());
    KvResult g = co_await kv->Get(8);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value, ValN(16, 9));
  };
  Spawn(driver(kv.get()));
  fx.env.sim.Run();
}

TEST(SwarmKv, InsertRaceTurnsIntoUpdate) {
  KvFixture fx;
  auto a = fx.Make("swarm");
  index::ClientCache cache_b;
  Worker& wb = fx.env.MakeWorker();
  SwarmKvSession b(&wb, &fx.indexsvc, &cache_b);

  int oks = 0;
  int exists = 0;
  auto racer = [](KvSession* kv, uint8_t fill, int* oks, int* exists) -> Task<void> {
    KvResult r = co_await kv->Insert(11, testing::ValN(16, fill));
    if (r.status == KvStatus::kOk) {
      ++*oks;
    } else if (r.status == KvStatus::kExists) {
      ++*exists;
    }
  };
  Spawn(racer(a.get(), 1, &oks, &exists));
  Spawn(racer(&b, 2, &oks, &exists));
  fx.env.sim.Run();
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(exists, 1);

  // Both clients must now read a single winning value.
  bool checked = false;
  auto check = [](KvSession* kv, bool* checked2) -> Task<void> {
    KvResult g = co_await kv->Get(11);
    EXPECT_EQ(g.status, KvStatus::kOk);
    EXPECT_EQ(g.value.size(), 16u);
    *checked2 = true;
  };
  Spawn(check(a.get(), &checked));
  fx.env.sim.Run();
  EXPECT_TRUE(checked);
}

TEST(SwarmKv, SurvivesNodeCrashNoDowntime) {
  KvFixture fx;
  auto kv = fx.Make("swarm");
  auto driver = [](KvFixture* fx, KvSession* kv) -> Task<void> {
    (void)co_await kv->Insert(12, ValN(16, 1));
    fx->env.fabric.Crash(0);
    KvResult g = co_await kv->Get(12);
    EXPECT_EQ(g.status, KvStatus::kOk);  // Escalation, no recovery pause.
    KvResult u = co_await kv->Update(12, ValN(16, 2));
    EXPECT_EQ(u.status, KvStatus::kOk);
  };
  Spawn(driver(&fx, kv.get()));
  fx.env.sim.Run();
}

TEST(FuseeKv, NodeCrashCausesRecoveryPause) {
  KvFixture fx;
  auto kv = fx.Make("fusee");
  sim::Time blocked_for = 0;
  auto driver = [](KvFixture* fx, KvSession* kv, sim::Time* blocked) -> Task<void> {
    (void)co_await kv->Insert(13, ValN(16, 1));
    // Crash the key's primary node (whatever it is): crash all but one to be
    // sure the op trips over a failure.
    fx->env.fabric.Crash(0);
    fx->env.fabric.Crash(1);
    fx->env.fabric.Crash(2);
    const sim::Time start = fx->env.sim.Now();
    KvResult g = co_await kv->Get(13);
    *blocked = fx->env.sim.Now() - start;
    (void)g;
  };
  Spawn(driver(&fx, kv.get(), &blocked_for));
  fx.env.sim.Run();
  // Tens of milliseconds of unavailability (vs SWARM's microseconds).
  EXPECT_GE(blocked_for, 40 * sim::kMillisecond);
}

}  // namespace
}  // namespace swarm::kv

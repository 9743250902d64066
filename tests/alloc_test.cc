// Extent/slab allocator unit + soak coverage (src/alloc/).
//
// Units pin the FreeMap's coalescing and best-fit behavior, the extent
// allocator's quarantine, and the slab allocator's slot lifecycle. The soak
// runs a randomized alloc/free trace simultaneously against the real
// allocator and a naive reference (a sorted list of free byte ranges with
// first-fit), asserting after every step that the two agree on which bytes
// are free — so fragmentation, coalescing, split and reuse bugs surface as
// a divergence at the exact step that introduced them. Runs under the same
// ASan job as the rest of the suite. A second soak drives a whole MemoryNode
// and checks that every range it hands out reads zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/alloc/extent_allocator.h"
#include "src/fabric/fabric.h"
#include "src/fabric/memory_node.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace swarm::alloc {
namespace {

TEST(FreeMap, CoalescesAdjacentInserts) {
  FreeMap m;
  m.Insert(100, 50);
  m.Insert(150, 50);  // Touching: must merge.
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.total(), 100u);
  EXPECT_EQ(m.largest(), 100u);
  m.Insert(300, 10);
  EXPECT_EQ(m.interval_count(), 2u);
  m.Insert(250, 50);  // Bridges nothing on the left, touches 300 on the right.
  EXPECT_EQ(m.interval_count(), 2u);
  m.Insert(200, 50);  // Bridges [100,200) and [250,310) via [200,250).
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.total(), 210u);
}

TEST(FreeMap, RemoveSplitsAndIsLenient) {
  FreeMap m;
  m.Insert(0, 100);
  m.Remove(40, 20);  // Punch a hole.
  EXPECT_EQ(m.interval_count(), 2u);
  EXPECT_EQ(m.total(), 80u);
  EXPECT_TRUE(m.Contains(0, 40));
  EXPECT_TRUE(m.Contains(60, 40));
  EXPECT_FALSE(m.Overlaps(40, 20));
  // Lenient: removing [30, 70) takes the intersection — [30,40) and [60,70),
  // 20 bytes — out of the two intervals (this is what lets a whole-extent
  // fence lift slot by slot).
  m.Remove(30, 40);
  EXPECT_EQ(m.total(), 60u);
  EXPECT_TRUE(m.Contains(0, 30));
  EXPECT_TRUE(m.Contains(70, 30));
  m.Remove(200, 10);  // Nothing there: no-op.
  EXPECT_EQ(m.total(), 60u);
}

TEST(FreeMap, BestFitPrefersTightestBlock) {
  FreeMap m;
  m.Insert(0, 64);
  m.Insert(1000, 24);
  m.Insert(2000, 16);
  // 20 bytes fits the 24-block tighter than the 64-block.
  EXPECT_EQ(m.BestFit(20, 1), 1000u);
  EXPECT_EQ(m.total(), 64u + 4u + 16u);
  // The 4-byte remainder stays free.
  EXPECT_TRUE(m.Contains(1020, 4));
}

TEST(FreeMap, BestFitHonorsAlignment) {
  FreeMap m;
  m.Insert(4, 60);  // [4, 64): first 64-aligned addr inside is... none.
  EXPECT_EQ(m.BestFit(32, 64), FreeMap::kNone);
  m.Insert(100, 200);  // [100, 300): first 64-aligned addr is 128.
  const uint64_t a = m.BestFit(32, 64);
  EXPECT_EQ(a, 128u);
  EXPECT_EQ(a % 64, 0u);
  // Both pads remain free: [100,128) and [160,300).
  EXPECT_TRUE(m.Contains(100, 28));
  EXPECT_TRUE(m.Contains(160, 140));
  EXPECT_FALSE(m.Overlaps(128, 32));
}

TEST(ExtentAllocator, ImmediateFreeWithoutClock) {
  ExtentAllocator ea;
  ea.Reset(64, 64 + 4096);
  const uint64_t a = ea.Allocate(256);
  ASSERT_NE(a, ExtentAllocator::kNone);
  EXPECT_EQ(ea.live_bytes(), 256u);
  ea.Free(a, 256);
  EXPECT_EQ(ea.live_bytes(), 0u);
  // No clock wired: the range is immediately reusable.
  EXPECT_EQ(ea.Allocate(4096), 64u);
}

TEST(ExtentAllocator, QuarantineDelaysReuseUntilRipe) {
  int64_t now = 0;
  ExtentAllocator ea;
  ea.Reset(64, 64 + 512);
  ea.set_now_fn([&now] { return now; });
  const uint64_t a = ea.Allocate(512);
  ASSERT_NE(a, ExtentAllocator::kNone);
  ea.Free(a, 512);
  EXPECT_EQ(ea.quarantined_bytes(), 512u);
  // Capacity is exhausted and the freed range is not ripe — but OOM pressure
  // force-drains rather than failing (the seed's behavior was a hard assert).
  EXPECT_NE(ea.Allocate(512), ExtentAllocator::kNone);
  ea.Free(a, 512);
  now += ExtentAllocator::kQuarantineNs + 1;
  EXPECT_EQ(ea.Allocate(512), a);  // Ripe: normal reuse.
  EXPECT_EQ(ea.quarantined_bytes(), 0u);
}

TEST(SlabAllocator, SlotsPackIntoOneExtent) {
  ExtentAllocator ea;
  ea.Reset(64, 1 << 20);
  SlabAllocator slab;
  slab.Reset(&ea);
  const uint64_t first = slab.AllocSlot(44);  // Rounds up to 48.
  ASSERT_NE(first, ExtentAllocator::kNone);
  const auto* ext = slab.ExtentOf(first);
  ASSERT_NE(ext, nullptr);
  EXPECT_EQ(ext->slot_bytes, 48u);
  EXPECT_EQ(ext->bytes, 48u * SlabAllocator::kSlotsPerExtent);
  // The next 63 slots come from the same extent, back to back.
  for (int i = 1; i < SlabAllocator::kSlotsPerExtent; ++i) {
    const uint64_t s = slab.AllocSlot(44);
    EXPECT_EQ(s, first + static_cast<uint64_t>(i) * 48);
    EXPECT_EQ(slab.ExtentOf(s), ext);
  }
  EXPECT_EQ(ea.allocs(), 1u);  // One extent-level allocation for all 64.
  const uint64_t overflow = slab.AllocSlot(44);
  EXPECT_NE(slab.ExtentOf(overflow), ext);  // 65th slot: a fresh extent.
}

TEST(SlabAllocator, FreeSlotValidatesAndRecyclesExtent) {
  ExtentAllocator ea;
  ea.Reset(64, 1 << 20);
  SlabAllocator slab;
  slab.Reset(&ea);
  std::vector<uint64_t> slots;
  for (int i = 0; i < SlabAllocator::kSlotsPerExtent; ++i) {
    slots.push_back(slab.AllocSlot(64));
  }
  EXPECT_FALSE(slab.FreeSlot(slots[0] + 8));  // Mid-slot address.
  EXPECT_TRUE(slab.FreeSlot(slots[0]));
  EXPECT_FALSE(slab.FreeSlot(slots[0]));  // Double free.
  for (size_t i = 1; i < slots.size(); ++i) {
    EXPECT_TRUE(slab.FreeSlot(slots[i]));
  }
  // Last slot freed: the whole extent went back to the extent allocator.
  EXPECT_EQ(ea.live_bytes(), 0u);
  EXPECT_EQ(slab.ExtentOf(slots[0]), nullptr);
  EXPECT_FALSE(slab.FreeSlot(slots[0]));  // Not a slab address anymore.
}

TEST(SlabAllocator, SlotQuarantineBlocksImmediateReuse) {
  int64_t now = 0;
  ExtentAllocator ea;
  ea.Reset(64, 1 << 20);
  SlabAllocator slab;
  slab.Reset(&ea);
  slab.set_now_fn([&now] { return now; });
  const uint64_t a = slab.AllocSlot(64);
  const uint64_t b = slab.AllocSlot(64);
  EXPECT_TRUE(slab.FreeSlot(a));
  EXPECT_FALSE(slab.FreeSlot(a));  // Already pending in quarantine.
  // Not ripe: the freed slot must NOT come back; a fresh one does.
  EXPECT_NE(slab.AllocSlot(64), a);
  now += ExtentAllocator::kQuarantineNs + 1;
  // Ripe: the lowest free slot in the extent is `a` again.
  EXPECT_EQ(slab.AllocSlot(64), a);
  EXPECT_TRUE(slab.FreeSlot(b));
}

// --- Randomized soak vs a naive reference allocator ------------------------

// First-fit over a sorted map of free ranges; O(n) everything. Slow but
// obviously correct — the oracle for which bytes are free.
class NaiveAllocator {
 public:
  void Reset(uint64_t base, uint64_t limit) {
    free_.clear();
    free_[base] = limit - base;
  }

  uint64_t Allocate(uint64_t size, uint64_t align) {
    uint64_t best = FreeMap::kNone;
    uint64_t best_len = ~uint64_t{0};
    for (const auto& [begin, len] : free_) {
      const uint64_t aligned = (begin + align - 1) & ~(align - 1);
      if (aligned + size <= begin + len && len < best_len) {
        best = begin;
        best_len = len;
      }
    }
    if (best == FreeMap::kNone) {
      return FreeMap::kNone;
    }
    const uint64_t begin = best;
    const uint64_t len = free_[begin];
    const uint64_t aligned = (begin + align - 1) & ~(align - 1);
    free_.erase(begin);
    if (aligned > begin) {
      free_[begin] = aligned - begin;
    }
    if (aligned + size < begin + len) {
      free_[aligned + size] = begin + len - (aligned + size);
    }
    return aligned;
  }

  void Free(uint64_t addr, uint64_t size) {
    free_[addr] = size;
    // Re-coalesce the whole map (naive but obviously right).
    std::map<uint64_t, uint64_t> merged;
    uint64_t cur_begin = 0, cur_end = 0;
    bool open = false;
    for (const auto& [begin, len] : free_) {
      if (open && begin <= cur_end) {
        cur_end = std::max(cur_end, begin + len);
      } else {
        if (open) {
          merged[cur_begin] = cur_end - cur_begin;
        }
        cur_begin = begin;
        cur_end = begin + len;
        open = true;
      }
    }
    if (open) {
      merged[cur_begin] = cur_end - cur_begin;
    }
    free_ = std::move(merged);
  }

  uint64_t total() const {
    uint64_t t = 0;
    for (const auto& [b, l] : free_) {
      t += l;
    }
    return t;
  }

  const std::map<uint64_t, uint64_t>& ranges() const { return free_; }

 private:
  std::map<uint64_t, uint64_t> free_;  // begin -> len, coalesced.
};

// The best-fit tie-break (lowest address among equal-length blocks) is the
// same in both allocators, so allocation decisions — and therefore the whole
// free-map evolution — must match exactly, step for step.
TEST(AllocSoak, RandomTraceMatchesNaiveReference) {
  constexpr uint64_t kBase = 64;
  constexpr uint64_t kLimit = 1 << 20;
  ExtentAllocator real;
  real.Reset(kBase, kLimit);
  NaiveAllocator naive;
  naive.Reset(kBase, kLimit);
  sim::Rng rng(20240808);

  struct Live {
    uint64_t addr;
    uint64_t size;
  };
  std::vector<Live> live;
  int mismatches = 0;
  for (int step = 0; step < 20000 && mismatches == 0; ++step) {
    const bool do_alloc = live.empty() || rng.Below(100) < 55;
    if (do_alloc) {
      const uint64_t size = 8 + rng.Below(2048);
      const uint64_t align = uint64_t{1} << rng.Below(7);  // 1..64.
      const uint64_t a = real.Allocate(size, align);
      const uint64_t b = naive.Allocate(size, align);
      ASSERT_EQ(a, b) << "step " << step << " size " << size << " align " << align;
      if (a != FreeMap::kNone) {
        live.push_back({a, size});
      }
    } else {
      const size_t pick = static_cast<size_t>(rng.Below(live.size()));
      const Live v = live[pick];
      live[pick] = live.back();
      live.pop_back();
      real.Free(v.addr, v.size);  // No clock: immediate.
      naive.Free(v.addr, v.size);
    }
    if (step % 256 == 0) {
      // Full free-map comparison at checkpoints (cheap enough).
      std::map<uint64_t, uint64_t> got;
      real.free_map().ForEach([&](uint64_t b, uint64_t l) { got[b] = l; });
      if (got != naive.ranges()) {
        ++mismatches;
      }
      ASSERT_EQ(mismatches, 0) << "free maps diverged at step " << step;
      ASSERT_EQ(real.free_map().total(), naive.total());
    }
  }
  // Tear down: free everything; both must end with one fully coalesced run.
  for (const Live& v : live) {
    real.Free(v.addr, v.size);
    naive.Free(v.addr, v.size);
  }
  EXPECT_EQ(real.free_map().interval_count(), 1u);
  EXPECT_EQ(real.free_map().total(), kLimit - kBase);
  EXPECT_EQ(naive.total(), kLimit - kBase);
}

// Fragmentation behavior: an alternating alloc/free comb leaves holes that
// best-fit refills without growing the high-water mark.
TEST(AllocSoak, BestFitRefillsCombHolesWithoutGrowth) {
  ExtentAllocator ea;
  ea.Reset(64, 1 << 20);
  std::vector<uint64_t> slots;
  for (int i = 0; i < 128; ++i) {
    slots.push_back(ea.Allocate(512));
  }
  const uint64_t high = ea.high_water();
  for (size_t i = 0; i < slots.size(); i += 2) {
    ea.Free(slots[i], 512);  // Every other block: maximal fragmentation.
  }
  for (size_t i = 0; i < slots.size() / 2; ++i) {
    const uint64_t a = ea.Allocate(512);
    ASSERT_NE(a, ExtentAllocator::kNone);
    EXPECT_LT(a, high);  // Refill a hole, never extend.
  }
  EXPECT_EQ(ea.high_water(), high);
}

// --- MemoryNode: every handout reads zero (§5.3.1's cleared buffers). ---
//
// Allocate clears a range only below the highest byte the node ever handed
// out; above it the arena is still zero from calloc. The soak mixes every
// call that hands out or dirties memory, including stray writes to ranges
// that are no longer allocated (a straggler verb landing after its range was
// freed or the node was reset), with both Recover modes, and checks each
// handout byte by byte.

bool AllZero(const fabric::MemoryNode& node, uint64_t addr, uint64_t len) {
  std::vector<uint8_t> bytes(len);
  node.ReadInto(addr, bytes);
  return std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; });
}

// `advance(ns)` moves the node's virtual clock so quarantined frees ripen.
void SoakZeroOnHandout(fabric::MemoryNode& node, const std::function<void(int64_t)>& advance,
                       uint64_t seed, bool preserve_reservations) {
  struct Range {
    uint64_t addr;
    uint64_t len;
  };
  constexpr uint64_t kSlotSizes[] = {24, 96, 200};
  sim::Rng rng(seed);
  std::vector<Range> extents;
  std::vector<Range> slots;
  auto scribble = [&](uint64_t addr, uint64_t len) {
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(1 + rng.Below(255));
    }
    node.WriteFrom(addr, junk);
  };
  auto pick = [&rng](std::vector<Range>& v) {
    const size_t i = static_cast<size_t>(rng.Below(v.size()));
    const Range r = v[i];
    v[i] = v.back();
    v.pop_back();
    return r;
  };
  uint64_t handed_end = 0;  // 1 + the highest byte ever handed out.
  int handouts = 0;
  int recovers = 0;
  for (int step = 0; step < 8000; ++step) {
    const uint64_t op = rng.Below(100);
    if (op < 18 && extents.size() < 48) {
      const uint64_t size = 8 + rng.Below(8192);
      const uint64_t addr = node.Allocate(size, uint64_t{8} << rng.Below(4));
      ASSERT_TRUE(AllZero(node, addr, size)) << "Allocate step " << step << " addr " << addr;
      scribble(addr, size);
      extents.push_back({addr, size});
      handed_end = std::max(handed_end, addr + size);
      ++handouts;
    } else if (op < 36 && slots.size() < 256) {
      const uint64_t size = kSlotSizes[rng.Below(3)];
      const uint64_t addr = node.AllocSlot(size);
      ASSERT_TRUE(AllZero(node, addr, size)) << "AllocSlot step " << step << " addr " << addr;
      scribble(addr, size);
      slots.push_back({addr, size});
      handed_end = std::max(handed_end, addr + size);
      ++handouts;
    } else if (op < 46 && !extents.empty()) {
      const Range r = pick(extents);
      node.Free(r.addr, r.len);
    } else if (op < 56 && !slots.empty()) {
      ASSERT_TRUE(node.FreeSlot(pick(slots).addr));
    } else if (op < 68 && !slots.empty()) {
      // Protocol traffic on a live slot: word writes and CASes.
      const Range r = slots[static_cast<size_t>(rng.Below(slots.size()))];
      const uint64_t word = r.addr + 8 * rng.Below(r.len / 8);
      if (rng.Chance(0.5)) {
        node.StoreWord(word, rng.U64() | 1);
      } else {
        (void)node.CasWord(word, node.LoadWord(word), rng.U64() | 1);
      }
    } else if (op < 76 && handed_end > 64 + 128) {
      // A stray write anywhere once handed out, allocated now or not.
      const uint64_t len = 8 + rng.Below(120);
      scribble(64 + rng.Below(handed_end - 64 - len), len);
    } else if (op < 96) {
      advance(static_cast<int64_t>(rng.Below(2 * ExtentAllocator::kQuarantineNs)));
    } else {
      node.Recover(preserve_reservations);
      ++recovers;
      if (preserve_reservations) {
        for (const Range& r : extents) {
          ASSERT_TRUE(AllZero(node, r.addr, r.len)) << "Recover left a live extent dirty";
        }
        for (const Range& r : slots) {
          ASSERT_TRUE(AllZero(node, r.addr, r.len)) << "Recover left a live slot dirty";
        }
      } else {
        extents.clear();  // Reset: every old address is forgotten.
        slots.clear();
      }
    }
  }
  EXPECT_GT(handouts, 1000);
  EXPECT_GT(recovers, 10);
}

TEST(MemoryNodeSoak, EveryHandoutReadsZeroAcrossRecovers) {
  for (bool preserve : {true, false}) {
    SCOPED_TRACE(preserve ? "Recover(preserve_reservations)" : "Recover(reset)");
    fabric::MemoryNode node(4 << 20);
    int64_t now = 0;
    node.set_now_fn([&now] { return now; });
    SoakZeroOnHandout(node, [&now](int64_t ns) { now += ns; }, 20261017, preserve);
  }
}

TEST(MemoryNodeSoak, AFreedSlabExtentIsClearedWhenAllocateReusesIt) {
  // Slot bytes count as handed out too: once every slot of a slab extent is
  // freed, the extent returns to the extent allocator, and an Allocate that
  // reuses it must clear what the slots held.
  fabric::MemoryNode node(1 << 20);  // No clock: frees take effect at once.
  constexpr uint64_t kSlot = 96;
  std::vector<uint64_t> slots;
  for (int i = 0; i < SlabAllocator::kSlotsPerExtent; ++i) {
    slots.push_back(node.AllocSlot(kSlot));
    node.WriteFrom(slots.back(), std::vector<uint8_t>(kSlot, 0xab));
  }
  for (uint64_t addr : slots) {
    ASSERT_TRUE(node.FreeSlot(addr));
  }
  const uint64_t bytes = kSlot * SlabAllocator::kSlotsPerExtent;
  const uint64_t addr = node.Allocate(bytes, 64);
  ASSERT_EQ(addr, *std::min_element(slots.begin(), slots.end())) << "the extent was not reused";
  EXPECT_TRUE(AllZero(node, addr, bytes));
}

TEST(MemoryNodeSoak, EveryHandoutReadsZeroOnAHotAddedNode) {
  sim::Simulator sim(3);
  fabric::FabricConfig cfg;
  cfg.num_nodes = 2;
  cfg.max_nodes = 3;
  cfg.node_capacity_bytes = 4 << 20;
  fabric::Fabric fabric(&sim, cfg);
  sim.RunUntil(1'000'000);
  const int id = fabric.AddNode();
  ASSERT_EQ(id, 2);
  SoakZeroOnHandout(
      fabric.node(id), [&sim](int64_t ns) { sim.RunUntil(sim.Now() + ns); }, 77,
      /*preserve_reservations=*/true);
}

}  // namespace
}  // namespace swarm::alloc

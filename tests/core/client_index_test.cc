// Differential test of ClientIndex against std::unordered_map. Every
// population is inserted the way Server registers clients (Find first, and
// Insert only on a miss), and after each insert both sides must agree on
// every slot, every id and the ascending flag; at the end every probe —
// registered ids, the gaps between strides, past the ends, the int64
// extremes — must hit or miss on both. Progressions must cost no heap.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"
#include "futurerand/core/client_index.h"

namespace futurerand::core {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// The index under test next to its reference, fed the same ids.
struct Differential {
  ClientIndex index;
  std::unordered_map<int64_t, int32_t> reference;
  std::vector<int64_t> order;  // reference slot -> id

  void Insert(int64_t id) {
    const auto hit = reference.find(id);
    const int32_t found = index.Find(id);
    if (hit != reference.end()) {
      ASSERT_EQ(found, hit->second) << "id " << id;
      return;
    }
    ASSERT_EQ(found, -1) << "id " << id;
    const int32_t slot = index.Insert(id);
    ASSERT_EQ(slot, static_cast<int32_t>(order.size())) << "id " << id;
    reference.emplace(id, slot);
    order.push_back(id);
    ASSERT_EQ(index.size(), static_cast<int64_t>(order.size()));
    ASSERT_EQ(index.Find(id), slot) << "id " << id;
    ASSERT_EQ(index.IdAt(slot), id);
    // The ids are distinct, so sorted means strictly ascending.
    ASSERT_EQ(index.ascending(), std::is_sorted(order.begin(), order.end()));
  }

  void InsertAll(const std::vector<int64_t>& ids) {
    for (const int64_t id : ids) {
      Insert(id);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  // Every slot's id, and a verdict per probe plus the neighbors of every
  // registered id (the gaps between strides, one past either end).
  void CheckAll(const std::vector<int64_t>& probes = {}) const {
    for (size_t slot = 0; slot < order.size(); ++slot) {
      ASSERT_EQ(index.IdAt(static_cast<int32_t>(slot)), order[slot]);
    }
    std::vector<int64_t> all = probes;
    all.insert(all.end(), {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax});
    for (const int64_t id : order) {
      all.push_back(id);
      if (id > kMin) {
        all.push_back(id - 1);
      }
      if (id < kMax) {
        all.push_back(id + 1);
      }
    }
    for (const int64_t probe : all) {
      const auto hit = reference.find(probe);
      const int32_t expected = hit == reference.end() ? -1 : hit->second;
      ASSERT_EQ(index.Find(probe), expected) << "probe " << probe;
    }
  }
};

// Two's-complement arithmetic for populations whose products (or, in the
// seeded ones, whose ids) may run off either end of the int64 range.
int64_t Wrap(uint64_t value) { return static_cast<int64_t>(value); }

std::vector<int64_t> Progression(int64_t first, int64_t stride,
                                 int64_t count) {
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < count; ++i) {
    ids.push_back(Wrap(static_cast<uint64_t>(first) +
                       static_cast<uint64_t>(stride) *
                           static_cast<uint64_t>(i)));
  }
  return ids;
}

TEST(ClientIndexTest, EmptyIndexFindsNothing) {
  Differential diff;
  diff.CheckAll();
  EXPECT_EQ(diff.index.size(), 0);
  EXPECT_TRUE(diff.index.ascending());
  EXPECT_EQ(diff.index.ApproxMemoryBytes(), 0);
}

TEST(ClientIndexTest, ContiguousIdsCostNoHeap) {
  for (const int64_t first : {int64_t{0}, int64_t{1}, int64_t{-500}}) {
    SCOPED_TRACE(first);
    Differential diff;
    diff.InsertAll(Progression(first, 1, 1000));
    diff.CheckAll({first - 1000, first + 1000, first + 999, first + 1001});
    EXPECT_TRUE(diff.index.ascending());
    EXPECT_EQ(diff.index.ApproxMemoryBytes(), 0);
  }
}

TEST(ClientIndexTest, ModKStridesCostNoHeapAndMissBetweenStrides) {
  for (const int64_t k : {2, 3, 7, 64, 1000003}) {
    for (const int64_t residue : {int64_t{0}, int64_t{1}, k - 1}) {
      SCOPED_TRACE(testing::Message() << "k " << k << " residue " << residue);
      Differential diff;
      diff.InsertAll(Progression(residue, k, 300));
      // Every id from just below the first to just past the last: the
      // residues in between are all misses.
      std::vector<int64_t> probes;
      for (int64_t id = residue - k; id <= residue + k * 300 && id < 2000;
           ++id) {
        probes.push_back(id);
      }
      probes.push_back(residue + k * 300);  // the next stride, past the end
      diff.CheckAll(probes);
      EXPECT_EQ(diff.index.ApproxMemoryBytes(), 0);
    }
  }
}

TEST(ClientIndexTest, RepeatedIdIsAHitNotAZeroStride) {
  // A repeat is found, never inserted, so it leaves the progression alone.
  Differential diff;
  diff.InsertAll({5, 5, 6, 6, 7});
  diff.CheckAll();
  EXPECT_EQ(diff.index.size(), 3);
  EXPECT_EQ(diff.index.ApproxMemoryBytes(), 0);
}

TEST(ClientIndexTest, NegativeStridesMaterialize) {
  for (const int64_t stride : {-1, -3, -1000}) {
    SCOPED_TRACE(stride);
    Differential diff;
    diff.InsertAll(Progression(100, stride, 200));
    diff.CheckAll();
    EXPECT_FALSE(diff.index.ascending());
    EXPECT_GT(diff.index.ApproxMemoryBytes(), 0);
  }
}

TEST(ClientIndexTest, FirstOffProgressionIdAtEveryPosition) {
  // Position 1: the second id falls below the first. Position 2: the third
  // id breaks the stride the first two set. Late: after a long run.
  const std::vector<std::vector<int64_t>> populations = {
      {10, 3, 11, 12, 13},
      {1, 2, 4, 5, 6, 3},
      {0, 5, 9, 15, 20},
      {0, 5, 10, 16, 20},
  };
  for (const std::vector<int64_t>& ids : populations) {
    Differential diff;
    diff.InsertAll(ids);
    diff.CheckAll({2, 4, 7, 8, 14, 16});
    EXPECT_GT(diff.index.ApproxMemoryBytes(), 0);
  }
  for (const int64_t stride : {1, 4}) {
    SCOPED_TRACE(stride);
    Differential diff;
    std::vector<int64_t> ids = Progression(7, stride, 5000);
    ids.push_back(3);                          // below the first id
    ids.push_back(7 + stride * 5000 + 1);      // just off the next stride
    const std::vector<int64_t> tail = Progression(7 + stride * 6000, stride,
                                                  500);  // a later run
    ids.insert(ids.end(), tail.begin(), tail.end());
    diff.InsertAll(ids);
    diff.CheckAll({7 + stride * 5000, 7 + stride * 5500});
  }
}

TEST(ClientIndexTest, ExtremeIds) {
  const std::vector<std::vector<int64_t>> populations = {
      {kMin, 1, kMax},
      {1, kMin, kMax},
      {kMin, kMax},
      {kMax, kMin},
      {-1, kMax, kMin},
      {kMin, kMin + 1, kMin + 2, 0},
      {kMax - 2, kMax - 1, kMax},
      {kMax - 4, kMax - 2, kMax},
      {0, kMax / 2, kMax - 1, kMax},
      {kMin, kMin + (kMax / 3), kMin + 2 * (kMax / 3), kMax},
      Progression(kMin, kMax / 4, 8),
      Progression(kMax, -(kMax / 4), 8),
  };
  for (const std::vector<int64_t>& ids : populations) {
    Differential diff;
    diff.InsertAll(ids);
    diff.CheckAll({kMin + 2, kMax - 3, kMax / 2 + 1});
  }
}

TEST(ClientIndexTest, PowerOfTwoStridesNearBothEnds) {
  // A power-of-two stride finds its slots by a shift and its residue class
  // by a mask: one progression starts at the bottom of the int64 range and
  // one ends at the top, so both the offsets and the wrapped probes past
  // either end reach the full 64 bits.
  for (const int shift : {1, 2, 6, 32, 62}) {
    const uint64_t stride = uint64_t{1} << shift;
    SCOPED_TRACE(stride);
    // As many ids as fit between the ends, at most 300.
    const auto count = static_cast<int64_t>(
        std::min<uint64_t>(300, (~uint64_t{0} >> shift) + 1));
    const uint64_t span = stride * static_cast<uint64_t>(count - 1);
    for (const int64_t first : {kMin, kMin + 3, Wrap(kMax - span),
                                Wrap(kMax - 5 - span)}) {
      SCOPED_TRACE(first);
      Differential diff;
      diff.InsertAll(Progression(first, static_cast<int64_t>(stride), count));
      EXPECT_TRUE(diff.index.progression());
      EXPECT_EQ(diff.index.ApproxMemoryBytes(), 0);
      const auto last = static_cast<uint64_t>(first) + span;
      diff.CheckAll({Wrap(static_cast<uint64_t>(first) - stride),
                     Wrap(static_cast<uint64_t>(first) + stride / 2),
                     Wrap(last - stride / 2), Wrap(last + stride),
                     Wrap(last + stride / 2), Wrap(last + 2 * stride)});
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(ClientIndexTest, SeededRandomPopulations) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // A progression with a random start and stride (sometimes huge), with
    // a random share of its ids replaced by off-progression ones and a few
    // repeats thrown in.
    // Strides span zero (every id a repeat), negative, small and huge.
    const uint64_t first =
        rng.NextUint64() >> (rng.NextInt(2) == 0 ? 0 : 40);
    const uint64_t stride = rng.NextInt(4) == 0
                                ? rng.NextInt(uint64_t{1} << 60)
                                : rng.NextInt(9) - 2;
    const uint64_t count = 1 + rng.NextInt(400);
    const double off_rate = rng.NextInt(3) == 0 ? 0.0 : 0.01;
    std::vector<int64_t> ids;
    for (uint64_t i = 0; i < count; ++i) {
      if (rng.NextBernoulli(off_rate)) {
        ids.push_back(Wrap(rng.NextUint64()));
      } else if (!ids.empty() && rng.NextBernoulli(0.01)) {
        ids.push_back(ids[rng.NextInt(ids.size())]);
      } else {
        ids.push_back(Wrap(first + stride * i));
      }
    }
    Differential diff;
    diff.InsertAll(ids);
    std::vector<int64_t> probes;
    for (int p = 0; p < 200; ++p) {
      probes.push_back(Wrap(rng.NextUint64()));
      probes.push_back(Wrap(first + rng.NextInt(1000) - 500));
    }
    diff.CheckAll(probes);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(ClientIndexTest, MaterializationIsSizedForTheReservation) {
  ClientIndex index;
  index.Reserve(1000);
  for (int64_t id = 0; id < 10; ++id) {
    index.Insert(id);
  }
  EXPECT_EQ(index.ApproxMemoryBytes(), 0);
  index.Insert(-1);  // off the progression
  // The list holds the 1000 reserved ids; the table keeps them at most
  // half full in a power-of-two bucket count.
  const int64_t sized = 1000 * 8 + 2048 * 4;
  EXPECT_EQ(index.ApproxMemoryBytes(), sized);
  for (int64_t id = 100; id < 1089; ++id) {
    index.Insert(id);
  }
  EXPECT_EQ(index.size(), 1000);
  EXPECT_EQ(index.ApproxMemoryBytes(), sized);  // no regrowth
  for (int64_t id = 100; id < 1089; ++id) {
    EXPECT_EQ(index.Find(id), static_cast<int32_t>(id - 100 + 11));
  }
  EXPECT_EQ(index.Find(-1), 10);
  EXPECT_EQ(index.Find(10), -1);
  // Once materialized, a reservation allocates at once and rehashes.
  index.Reserve(5000);
  EXPECT_EQ(index.ApproxMemoryBytes(), 5000 * 8 + 16384 * 4);
  EXPECT_EQ(index.Find(-1), 10);
  EXPECT_EQ(index.Find(1088), 999);
}

}  // namespace
}  // namespace futurerand::core

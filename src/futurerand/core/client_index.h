// ClientIndex: an append-only map from client id to a dense int32 slot,
// backing the Server's columnar per-client state. The client population
// only ever grows (registration has no inverse), so nothing is ever
// removed.
//
// Registered populations are almost always an ascending arithmetic
// progression: a fleet registers first_id..first_id+n-1 in order, and a
// mod-K shard sees every K-th id, still in order. While that holds the
// index stores three integers and nothing else, and a lookup is pure
// arithmetic with no memory touched. The first id off the progression
// materializes the slot -> id list and an open-addressing hash table once;
// from then on a lookup is one hash and a short linear probe over a flat
// int32 array.

#ifndef FUTURERAND_CORE_CLIENT_INDEX_H_
#define FUTURERAND_CORE_CLIENT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "futurerand/common/macros.h"

namespace futurerand::core {

/// Maps int64 client ids to dense slots 0..size()-1 in insertion order.
/// Copyable; not thread-safe (the owning Server serializes access).
class ClientIndex {
 public:
  /// The slot of `id`, or -1 if absent.
  int32_t Find(int64_t id) const {
    if (progression_) {
      // Unsigned offsets: every registered id is >= first_id_, and the
      // distance from first_id_ to any larger int64 fits in a uint64.
      if (id < first_id_) {
        return -1;
      }
      const uint64_t offset =
          static_cast<uint64_t>(id) - static_cast<uint64_t>(first_id_);
      uint64_t slot = offset;
      if (stride_ != 1) {
        // The rounded-down slot times the stride is at most the offset,
        // so the product cannot wrap; it equals the offset iff the id is
        // in the progression's residue class.
        slot = slot_divider()(offset);
        if (slot * stride_ != offset) {
          return -1;
        }
      }
      return slot < static_cast<uint64_t>(size_) ? static_cast<int32_t>(slot)
                                                 : -1;
    }
    size_t bucket = Hash(id) & mask_;
    while (true) {
      const int32_t slot = table_[bucket];
      if (slot < 0) {
        return -1;
      }
      if (ids_[static_cast<size_t>(slot)] == id) {
        return slot;
      }
      bucket = (bucket + 1) & mask_;
    }
  }

  /// Appends `id` (which must not be present — use Find first) and returns
  /// its new slot.
  int32_t Insert(int64_t id) {
    FR_CHECK_MSG(size_ < std::numeric_limits<int32_t>::max(),
                 "client index exceeds 2^31 - 1 entries");
    const auto slot = static_cast<int32_t>(size_);
    if (size_ == 0) {
      first_id_ = id;
    } else {
      const int64_t last = IdAt(slot - 1);
      const bool rises = id > last;
      ascending_ = ascending_ && rises;
      // A rising id makes the unsigned difference the true distance, so
      // the progression test cannot overflow, however far apart the ids.
      const uint64_t step =
          static_cast<uint64_t>(id) - static_cast<uint64_t>(last);
      if (progression_ && rises && size_ == 1) {
        stride_ = step;
        stride_shift_ = std::has_single_bit(step)
                            ? static_cast<int8_t>(std::countr_zero(step))
                            : int8_t{-1};
      } else if (progression_ && !(rises && step == stride_)) {
        Materialize();
      }
    }
    if (!progression_) {
      if ((ids_.size() + 1) * 2 > table_.size()) {
        Rehash(table_.empty() ? kInitialBuckets : table_.size() * 2);
      }
      ids_.push_back(id);
      Place(id, slot);
    }
    ++size_;
    return slot;
  }

  /// The id in `slot` (0 <= slot < size()).
  int64_t IdAt(int32_t slot) const {
    if (progression_) {
      // Two's-complement wrap: the true value fits in an int64 by
      // construction, the unsigned product just keeps the steps defined.
      return static_cast<int64_t>(static_cast<uint64_t>(first_id_) +
                                  stride_ * static_cast<uint64_t>(slot));
    }
    return ids_[static_cast<size_t>(slot)];
  }

  int64_t size() const { return size_; }

  /// True iff slot order is ascending id order (always so while the ids
  /// form a progression).
  bool ascending() const { return ascending_; }

  /// True while the ids form an ascending arithmetic progression: slot s
  /// then holds first_id() + stride() * s, and nothing else is stored.
  bool progression() const { return progression_; }

  /// The progression's first id and step (meaningful while progression()
  /// holds and the index is not empty).
  int64_t first_id() const { return first_id_; }
  uint64_t stride() const { return stride_; }

  /// A progression's slot arithmetic as a value (meaningful while
  /// progression() holds): maps `offset` = id - first_id() to
  /// offset / stride(), which is the slot of every registered id. A
  /// power-of-two stride divides by a shift. A loop that stores to memory
  /// keeps a local copy's two fields in registers.
  struct SlotDivider {
    uint64_t stride;
    int shift;  // log2(stride) for a power of two, else -1

    uint64_t operator()(uint64_t offset) const {
      return shift >= 0 ? offset >> shift : offset / stride;
    }
  };
  SlotDivider slot_divider() const { return {stride_, stride_shift_}; }

  /// Makes room for `n` ids in total. Allocates only once the index has
  /// left the progression; until then the request is remembered, so a
  /// later materialization is sized for it.
  void Reserve(size_t n) {
    reserved_ = std::max(reserved_, n);
    if (progression_) {
      return;
    }
    ids_.reserve(n);
    const size_t buckets = BucketsFor(n);
    if (buckets > table_.size()) {
      Rehash(buckets);
    }
  }

  /// Heap bytes of the index itself (for memory accounting): zero while
  /// the ids form a progression.
  int64_t ApproxMemoryBytes() const {
    return static_cast<int64_t>(ids_.capacity() * sizeof(int64_t) +
                                table_.capacity() * sizeof(int32_t));
  }

 private:
  static constexpr size_t kInitialBuckets = 16;

  // The power-of-two table size that keeps `n` ids at most half full.
  static size_t BucketsFor(size_t n) {
    size_t buckets = kInitialBuckets;
    while (buckets < n * 2) {
      buckets *= 2;
    }
    return buckets;
  }

  // SplitMix64 finalizer: full-avalanche, so sequential ids spread evenly.
  static uint64_t Hash(int64_t id) {
    auto x = static_cast<uint64_t>(id);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  // Leaves the progression: writes out its ids and hashes them, sized for
  // the reserved count or one more than today's, whichever is larger.
  void Materialize() {
    const size_t capacity =
        std::max(reserved_, static_cast<size_t>(size_) + 1);
    ids_.reserve(capacity);
    for (int32_t slot = 0; slot < size_; ++slot) {
      ids_.push_back(IdAt(slot));
    }
    progression_ = false;
    Rehash(BucketsFor(capacity));
  }

  void Place(int64_t id, int32_t slot) {
    size_t bucket = Hash(id) & mask_;
    while (table_[bucket] >= 0) {
      bucket = (bucket + 1) & mask_;
    }
    table_[bucket] = slot;
  }

  void Rehash(size_t new_buckets) {
    table_.assign(new_buckets, -1);
    mask_ = new_buckets - 1;
    for (size_t slot = 0; slot < ids_.size(); ++slot) {
      Place(ids_[slot], static_cast<int32_t>(slot));
    }
  }

  int64_t size_ = 0;
  // While progression_ holds, slot s holds first_id_ + stride_ * s
  // (stride_ >= 1, ascending) and ids_/table_ stay empty; the first id off
  // the progression clears it for good.
  bool progression_ = true;
  bool ascending_ = true;
  // log2(stride_) for a power-of-two stride, else -1. It sits in the
  // padding after the bools, so the index is no larger for it.
  int8_t stride_shift_ = 0;
  int64_t first_id_ = 0;
  uint64_t stride_ = 1;
  size_t reserved_ = 0;         // largest Reserve request so far
  std::vector<int64_t> ids_;    // slot -> id, once materialized
  std::vector<int32_t> table_;  // open-addressed buckets; -1 = empty
  size_t mask_ = 0;             // table_.size() - 1 (power of two)
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_CLIENT_INDEX_H_

#include "futurerand/core/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

#include "futurerand/common/macros.h"
#include "futurerand/common/math.h"
#include "futurerand/core/sketch_store.h"
#include "futurerand/core/wire.h"
#include "futurerand/dyadic/decomposition.h"

namespace futurerand::core {

namespace {

using wire_internal::AppendChecksum;
using wire_internal::AppendHeader;
using wire_internal::ConsumeChecksum;
using wire_internal::ConsumeHeader;
using wire_internal::GetVarint64;
using wire_internal::PutVarint64;
using wire_internal::WrappingAdd;
using wire_internal::WrappingSub;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;

void PutDoubleBits(double value, std::string* out) {
  wire_internal::PutFixed64(std::bit_cast<uint64_t>(value), out);
}

Result<double> GetDoubleBits(std::string_view* bytes) {
  FR_ASSIGN_OR_RETURN(const uint64_t bits,
                      wire_internal::GetFixed64(bytes));
  return std::bit_cast<double>(bits);
}

// Decoded varints drive allocations, so every size read from the wire is
// cross-checked against the bytes that remain: a field claiming more
// records than the blob could possibly hold is rejected before any
// allocation, keeping memory use proportional to the input size.
Status CheckPlausibleCount(uint64_t count, size_t min_bytes_per_item,
                           std::string_view remaining) {
  if (count > remaining.size() / std::max<size_t>(min_bytes_per_item, 1)) {
    return Status::InvalidArgument("record count exceeds blob size");
  }
  return Status::OK();
}

}  // namespace

// Friend of Server: the only code that reads/writes its private state.
struct ServerStateCodec {
  static std::string Encode(const Server& server) {
    // The store picks the blob kind: kServerState (3) keeps the exact
    // pre-store byte layout for dense servers; kServerStateSketch (8)
    // inserts the sketch parameters after d and serializes the raw cell
    // arena instead of per-interval counters.
    const bool sketch = server.store_config_.kind == StoreKind::kSketch;
    std::string out;
    AppendHeader(sketch ? wire_internal::kKindServerStateSketch
                        : wire_internal::kKindServerState,
                 &out);
    PutVarint64(static_cast<uint64_t>(server.num_periods_), &out);
    if (sketch) {
      PutVarint64(static_cast<uint64_t>(server.store_config_.sketch_rows),
                  &out);
      PutVarint64(static_cast<uint64_t>(server.store_config_.sketch_width),
                  &out);
      PutVarint64(server.store_config_.sketch_seed, &out);
    }
    PutVarint64(server.dedup_policy_ == DedupPolicy::kIdempotent ? 1 : 0,
                &out);
    PutVarint64(
        static_cast<uint64_t>(server.dedup_window_.window_boundaries), &out);
    // Estimator mode, with the direct offset (u0) only when it applies —
    // dyadic snapshots keep the pre-longitudinal byte cost.
    const bool direct = server.estimator_spec_.direct();
    PutVarint64(direct ? 1 : 0, &out);
    if (direct) {
      PutDoubleBits(server.estimator_spec_.direct_offset, &out);
    }
    const auto orders = static_cast<int>(server.level_scales_.size());
    PutVarint64(static_cast<uint64_t>(orders), &out);
    for (int h = 0; h < orders; ++h) {
      PutDoubleBits(server.level_scales_[static_cast<size_t>(h)], &out);
      PutVarint64(
          static_cast<uint64_t>(server.level_counts_[static_cast<size_t>(h)]),
          &out);
    }
    if (sketch) {
      const auto& store = static_cast<const SketchStore&>(*server.sums_);
      for (const int64_t cell : store.cells()) {
        PutVarint64(ZigZagEncode(cell), &out);
      }
    } else {
      for (int h = 0; h < orders; ++h) {
        const int64_t count =
            dyadic::NumIntervalsAtOrder(server.num_periods_, h);
        for (int64_t j = 1; j <= count; ++j) {
          PutVarint64(ZigZagEncode(server.sums_->Value(h, j)), &out);
        }
      }
    }
    PutVarint64(static_cast<uint64_t>(server.duplicates_dropped_), &out);
    PutVarint64(static_cast<uint64_t>(server.out_of_window_dropped_), &out);

    // Clients in id order: slot (insertion) order would make equal states
    // encode to different bytes. Fleets and mod-K shards register in id
    // order, so the slots usually are that order already and no sort runs.
    const ClientIndex& index = server.clients_;
    const auto num_clients = static_cast<int32_t>(index.size());
    std::vector<int32_t> by_id;  // slots in id order; empty = slot order
    if (!index.ascending()) {
      by_id.resize(static_cast<size_t>(num_clients));
      std::iota(by_id.begin(), by_id.end(), 0);
      std::sort(by_id.begin(), by_id.end(), [&index](int32_t a, int32_t b) {
        return index.IdAt(a) < index.IdAt(b);
      });
    }
    PutVarint64(static_cast<uint64_t>(num_clients), &out);
    int64_t previous_id = 0;
    for (int32_t i = 0; i < num_clients; ++i) {
      const int32_t client = by_id.empty() ? i : by_id[static_cast<size_t>(i)];
      const auto slot = static_cast<size_t>(client);
      const int64_t id = index.IdAt(client);
      PutVarint64(ZigZagEncode(WrappingSub(id, previous_id)), &out);
      PutVarint64(static_cast<uint64_t>(server.client_levels_[slot]), &out);
      previous_id = id;
      if (server.dedup_policy_ == DedupPolicy::kIdempotent) {
        // Only the live window is serialized: the eviction watermark
        // (base_word) plus the words up to the frontier's, which is the
        // span's highest non-zero word. A client that never reported has
        // no span (base_word 0) and costs two zero bytes.
        const int level = server.client_levels_[slot];
        const uint64_t* span = nullptr;
        int64_t live = 0;
        if (server.span_ranks_[slot] != Server::kNoSpan) {
          span = server.SpanOf(slot, level);
          live = server.SpanWordsAtLevel(level);
          while (live > 0 && span[live - 1] == 0) {
            --live;
          }
        }
        const int64_t base_word =
            server.dedup_window_.bounded() ? server.watermarks_[slot] : 0;
        PutVarint64(static_cast<uint64_t>(base_word), &out);
        PutVarint64(static_cast<uint64_t>(live), &out);
        for (int64_t w = 0; w < live; ++w) {
          PutVarint64(span[w], &out);
        }
      } else {
        PutVarint64(static_cast<uint64_t>(server.watermarks_[slot]), &out);
      }
    }
    AppendChecksum(&out);
    return out;
  }

  static Result<Server> Decode(std::string_view bytes) {
    FR_RETURN_NOT_OK(ConsumeChecksum(&bytes));
    FR_ASSIGN_OR_RETURN(const char kind, wire_internal::CheckHeader(bytes));
    if (kind != wire_internal::kKindServerState &&
        kind != wire_internal::kKindServerStateSketch) {
      return Status::InvalidArgument("unexpected batch kind");
    }
    bytes.remove_prefix(wire_internal::kHeaderSize);
    const bool sketch = kind == wire_internal::kKindServerStateSketch;
    FR_ASSIGN_OR_RETURN(const uint64_t raw_periods, GetVarint64(&bytes));
    if (raw_periods < 1 || raw_periods > (uint64_t{1} << 40) ||
        !IsPowerOfTwo(raw_periods)) {
      return Status::InvalidArgument("implausible snapshot num_periods");
    }
    const auto d = static_cast<int64_t>(raw_periods);
    StoreConfig store;
    if (sketch) {
      FR_ASSIGN_OR_RETURN(const uint64_t raw_rows, GetVarint64(&bytes));
      FR_ASSIGN_OR_RETURN(const uint64_t raw_width, GetVarint64(&bytes));
      FR_ASSIGN_OR_RETURN(const uint64_t raw_seed, GetVarint64(&bytes));
      if (raw_rows > static_cast<uint64_t>(SketchStore::kMaxRows) ||
          raw_width > static_cast<uint64_t>(SketchStore::kMaxWidth)) {
        return Status::InvalidArgument("implausible snapshot sketch shape");
      }
      store = StoreConfig::Sketch(static_cast<int32_t>(raw_rows),
                                  static_cast<int64_t>(raw_width), raw_seed);
      // The encoder can only serialize a validly constructed store, so a
      // blob carrying bad parameters is corrupt or hand-forged.
      FR_RETURN_NOT_OK(store.Validate());
      // The cells section needs one byte per cell at minimum; checking
      // before the store exists keeps allocation proportional to the blob.
      FR_RETURN_NOT_OK(CheckPlausibleCount(
          static_cast<uint64_t>(SketchStore::CellCount(
              d, store.sketch_rows, store.sketch_width)),
          1, bytes));
    } else {
      // The sums section alone needs 2d-1 varints of >= 1 byte.
      FR_RETURN_NOT_OK(CheckPlausibleCount(raw_periods, 2, bytes));
    }
    FR_ASSIGN_OR_RETURN(const uint64_t policy_byte, GetVarint64(&bytes));
    if (policy_byte > 1) {
      return Status::InvalidArgument("unknown snapshot dedup policy");
    }
    const DedupPolicy policy = policy_byte == 1 ? DedupPolicy::kIdempotent
                                                : DedupPolicy::kStrict;
    FR_ASSIGN_OR_RETURN(const uint64_t raw_window, GetVarint64(&bytes));
    if (raw_window > raw_periods) {
      return Status::InvalidArgument("implausible snapshot dedup window");
    }
    const DedupWindowPolicy window{static_cast<int64_t>(raw_window)};
    FR_RETURN_NOT_OK(window.Validate(policy));
    FR_ASSIGN_OR_RETURN(const uint64_t mode_byte, GetVarint64(&bytes));
    if (mode_byte > 1) {
      return Status::InvalidArgument("unknown snapshot estimator mode");
    }
    EstimatorSpec estimator;
    if (mode_byte == 1) {
      estimator.mode = EstimatorSpec::Mode::kDirect;
      FR_ASSIGN_OR_RETURN(estimator.direct_offset, GetDoubleBits(&bytes));
    }
    // Full field validation (finite offset in (-1,1), zero under dyadic)
    // happens in Server::WithScales below via EstimatorSpec::Validate.
    FR_ASSIGN_OR_RETURN(const uint64_t orders, GetVarint64(&bytes));
    if (orders != static_cast<uint64_t>(Log2Exact(raw_periods) + 1)) {
      return Status::InvalidArgument("snapshot level count mismatches d");
    }
    std::vector<double> scales(static_cast<size_t>(orders));
    std::vector<int64_t> counts(static_cast<size_t>(orders));
    for (uint64_t h = 0; h < orders; ++h) {
      FR_ASSIGN_OR_RETURN(scales[h], GetDoubleBits(&bytes));
      FR_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(&bytes));
      if (count > (uint64_t{1} << 62)) {
        return Status::InvalidArgument("implausible snapshot level count");
      }
      if (estimator.direct() && h > 0 && count != 0) {
        // Direct-estimator servers register only level-0 clients, so a
        // deeper population can only come from corruption or forgery.
        return Status::InvalidArgument(
            "direct-estimator snapshot claims clients above level 0");
      }
      counts[h] = static_cast<int64_t>(count);
    }
    FR_ASSIGN_OR_RETURN(Server server,
                        Server::WithScales(d, scales, policy, window, store,
                                           estimator));
    server.level_counts_ = std::move(counts);
    if (sketch) {
      auto& sketch_store = static_cast<SketchStore&>(*server.sums_);
      for (int64_t& cell : sketch_store.cells()) {
        FR_ASSIGN_OR_RETURN(const uint64_t raw_cell, GetVarint64(&bytes));
        cell = ZigZagDecode(raw_cell);
      }
    } else {
      for (int h = 0; h < static_cast<int>(orders); ++h) {
        const int64_t count = dyadic::NumIntervalsAtOrder(d, h);
        for (int64_t j = 1; j <= count; ++j) {
          FR_ASSIGN_OR_RETURN(const uint64_t raw_sum, GetVarint64(&bytes));
          server.sums_->Add(h, j, ZigZagDecode(raw_sum));
        }
      }
    }
    FR_ASSIGN_OR_RETURN(const uint64_t dropped, GetVarint64(&bytes));
    if (dropped > (uint64_t{1} << 62)) {
      return Status::InvalidArgument("implausible snapshot duplicate count");
    }
    server.duplicates_dropped_ = static_cast<int64_t>(dropped);
    FR_ASSIGN_OR_RETURN(const uint64_t out_of_window, GetVarint64(&bytes));
    if (out_of_window > (uint64_t{1} << 62)) {
      return Status::InvalidArgument(
          "implausible snapshot out-of-window count");
    }
    server.out_of_window_dropped_ = static_cast<int64_t>(out_of_window);

    FR_ASSIGN_OR_RETURN(const uint64_t num_clients, GetVarint64(&bytes));
    FR_RETURN_NOT_OK(CheckPlausibleCount(num_clients, 3, bytes));
    server.ReserveClients(num_clients);
    // The level section's counts feed the estimators (kDirect's n_0·u0
    // offset, the GLS variances), so they must match the clients below.
    std::vector<int64_t> decoded_counts(static_cast<size_t>(orders), 0);
    int64_t previous_id = 0;
    for (uint64_t c = 0; c < num_clients; ++c) {
      const auto slot = static_cast<size_t>(c);
      FR_ASSIGN_OR_RETURN(const uint64_t id_delta, GetVarint64(&bytes));
      FR_ASSIGN_OR_RETURN(const uint64_t raw_level, GetVarint64(&bytes));
      if (raw_level >= orders) {
        return Status::InvalidArgument("snapshot client level out of range");
      }
      if (estimator.direct() && raw_level != 0) {
        return Status::InvalidArgument(
            "direct-estimator snapshot registers a client above level 0");
      }
      const int64_t id = WrappingAdd(previous_id, ZigZagDecode(id_delta));
      const int level = static_cast<int>(raw_level);
      // The encoder writes clients in ascending id order, so any other
      // order (a repeat included) is corruption or forgery, and would
      // re-encode to different bytes.
      if (c > 0 && id <= previous_id) {
        return Status::InvalidArgument(
            "snapshot client ids not strictly ascending");
      }
      previous_id = id;
      // Columns are populated directly (not via RegisterClientStrict):
      // level_counts_ came from the blob's own level section above and
      // is checked against decoded_counts once every client is read.
      server.clients_.Insert(id);
      server.client_levels_.push_back(static_cast<int8_t>(level));
      ++decoded_counts[static_cast<size_t>(level)];
      if (policy == DedupPolicy::kIdempotent) {
        server.span_ranks_.push_back(Server::kNoSpan);
        if (window.bounded()) {
          server.watermarks_.push_back(0);
        }
        FR_RETURN_NOT_OK(DecodeSpan(&server, slot, level, &bytes));
      } else {
        FR_ASSIGN_OR_RETURN(const uint64_t last, GetVarint64(&bytes));
        if (last > raw_periods ||
            last % (uint64_t{1} << static_cast<uint64_t>(level)) != 0) {
          return Status::InvalidArgument(
              "snapshot last report time invalid for level");
        }
        server.watermarks_.push_back(static_cast<int64_t>(last));
      }
    }
    if (!bytes.empty()) {
      return Status::InvalidArgument("trailing bytes after snapshot");
    }
    if (decoded_counts != server.level_counts_) {
      return Status::InvalidArgument(
          "snapshot level counts mismatch its clients' levels");
    }
    return server;
  }

  // Reads one client's (base_word, num_words, words) triplet into a span
  // of its level's arena, accepting only what the live server can hold:
  // the last word is never zero, no bit exceeds the level's boundary count,
  // and base_word is the watermark the window keeps for that frontier (0
  // when unbounded or before any report), so the words fit the level's
  // fixed span. A client that never reported gets no span.
  static Status DecodeSpan(Server* server, size_t slot, int level,
                           std::string_view* bytes) {
    FR_ASSIGN_OR_RETURN(const uint64_t raw_base, GetVarint64(bytes));
    FR_ASSIGN_OR_RETURN(const uint64_t raw_words, GetVarint64(bytes));
    const auto full_words =
        static_cast<uint64_t>(server->BitmapWordsAtLevel(level));
    if (raw_base > full_words || raw_words > full_words ||
        raw_base + raw_words > full_words) {
      return Status::InvalidArgument("snapshot bitmap exceeds level size");
    }
    const bool bounded = server->dedup_window_.bounded();
    if (raw_base != 0 && !bounded) {
      return Status::InvalidArgument(
          "snapshot eviction watermark without a bounded window");
    }
    if (raw_words == 0) {
      if (raw_base != 0) {
        return Status::InvalidArgument(
            "snapshot bitmap watermark without live words");
      }
      return Status::OK();
    }
    if (raw_words > static_cast<uint64_t>(server->SpanWordsAtLevel(level))) {
      return Status::InvalidArgument("snapshot bitmap exceeds the window");
    }
    FR_RETURN_NOT_OK(CheckPlausibleCount(raw_words, 1, *bytes));
    // The whole fixed span is committed, as at a live first report. The
    // server's construction capped it (kMaxRetainedBoundaries) at 129
    // words, so this record of at least 5 bytes commits at most 1032.
    server->span_ranks_[slot] = server->AppendSpan(level);
    uint64_t* span = server->SpanOf(slot, level);
    for (uint64_t w = 0; w < raw_words; ++w) {
      FR_ASSIGN_OR_RETURN(span[w], GetVarint64(bytes));
    }
    const uint64_t top = span[raw_words - 1];
    if (top == 0) {
      // The live span's frontier word is its highest non-zero word, and
      // only words up to it are written, so a canonical blob has none.
      return Status::InvalidArgument("snapshot bitmap trailing zero word");
    }
    const int64_t frontier =
        static_cast<int64_t>(raw_base + raw_words - 1) * 64 +
        (std::bit_width(top) - 1);
    if (frontier >= (server->num_periods_ >> level)) {
      return Status::InvalidArgument(
          "snapshot bitmap bit beyond the level horizon");
    }
    if (bounded) {
      if (static_cast<int64_t>(raw_base) != server->WindowBaseWord(frontier)) {
        return Status::InvalidArgument(
            "snapshot eviction watermark does not match the frontier");
      }
      server->watermarks_[slot] = static_cast<int64_t>(raw_base);
    }
    return Status::OK();
  }

  // Re-buckets decoded shards by client id; see ReshardServerStates.
  static Result<std::vector<Server>> Reshard(std::vector<Server> sources,
                                             int new_num_shards) {
    if (new_num_shards < 1) {
      return Status::InvalidArgument("need at least one target shard");
    }
    if (sources.empty()) {
      return Status::InvalidArgument("need at least one source shard");
    }
    const Server& first = sources.front();
    std::vector<Server> targets;
    targets.reserve(static_cast<size_t>(new_num_shards));
    for (int s = 0; s < new_num_shards; ++s) {
      FR_ASSIGN_OR_RETURN(
          Server target,
          Server::WithScales(first.num_periods_, first.level_scales_,
                             first.dedup_policy_, first.dedup_window_,
                             first.store_config_, first.estimator_spec_));
      targets.push_back(std::move(target));
    }
    const auto shards = static_cast<int64_t>(new_num_shards);
    const auto target_of = [shards](int64_t id) {
      return static_cast<size_t>(((id % shards) + shards) % shards);
    };
    for (Server& source : sources) {
      FR_RETURN_NOT_OK(targets[0].CheckMergeCompatible(source));
      // Interval sums are per-shard aggregates — they cannot be attributed
      // to clients, and no query ever looks at one shard alone, so parking
      // them all on shard 0 keeps every estimate bit-identical.
      targets[0].AddSums(source);
      targets[0].duplicates_dropped_ += source.duplicates_dropped_;
      targets[0].out_of_window_dropped_ += source.out_of_window_dropped_;
    }
    // Count each target's clients and spans first, so its columns and
    // arenas are sized once, exactly.
    const size_t orders = first.level_scales_.size();
    std::vector<size_t> incoming(targets.size(), 0);
    std::vector<size_t> incoming_spans(targets.size() * orders, 0);
    for (const Server& source : sources) {
      for (int32_t slot = 0; slot < source.clients_.size(); ++slot) {
        const size_t target = target_of(source.clients_.IdAt(slot));
        ++incoming[target];
        if (source.dedup_policy_ == DedupPolicy::kIdempotent &&
            source.span_ranks_[static_cast<size_t>(slot)] != Server::kNoSpan) {
          const auto level = static_cast<size_t>(
              source.client_levels_[static_cast<size_t>(slot)]);
          ++incoming_spans[target * orders + level];
        }
      }
    }
    for (size_t s = 0; s < targets.size(); ++s) {
      targets[s].ReserveClients(incoming[s]);
      for (size_t h = 0; h < targets[s].span_arenas_.size(); ++h) {
        targets[s].span_arenas_[h].reserve(
            incoming_spans[s * orders + h] *
            static_cast<size_t>(first.SpanWordsAtLevel(static_cast<int>(h))));
      }
    }
    // Hand the clients out in ascending id order, merging the sources,
    // whose decoded slots are in id order already. Every target then
    // registers its ids in order, so a contiguous population stays a
    // progression in each mod-M target and its index costs no heap.
    using Head = std::pair<int64_t, size_t>;  // (next id, source)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    std::vector<int32_t> next(sources.size(), 0);
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].num_clients() > 0) {
        heads.emplace(sources[s].clients_.IdAt(0), s);
      }
    }
    while (!heads.empty()) {
      const auto [id, from] = heads.top();
      heads.pop();
      const Server& source = sources[from];
      const auto slot = static_cast<size_t>(next[from]++);
      if (next[from] < source.num_clients()) {
        heads.emplace(source.clients_.IdAt(next[from]), from);
      }
      Server& target = targets[target_of(id)];
      const int level = source.client_levels_[slot];
      FR_RETURN_NOT_OK(target.RegisterClientStrict(id, level));
      target.AdoptDedupState(source, slot, level);
    }
    return targets;
  }
};

std::string EncodeServerState(const Server& server) {
  return ServerStateCodec::Encode(server);
}

Result<Server> DecodeServerState(std::string_view bytes) {
  return ServerStateCodec::Decode(bytes);
}

Result<std::vector<Server>> ReshardServerStates(std::vector<Server> sources,
                                                int new_num_shards) {
  return ServerStateCodec::Reshard(std::move(sources), new_num_shards);
}

std::string EncodeAggregatorState(const std::vector<std::string>& shards,
                                  uint64_t epoch) {
  std::string out;
  AppendHeader(wire_internal::kKindAggregatorState, &out);
  PutVarint64(shards.size(), &out);
  PutVarint64(epoch, &out);
  for (const std::string& shard : shards) {
    PutVarint64(shard.size(), &out);
    out.append(shard);
  }
  AppendChecksum(&out);
  return out;
}

Result<AggregatorStateBlob> DecodeAggregatorState(std::string_view bytes) {
  FR_RETURN_NOT_OK(ConsumeChecksum(&bytes));
  FR_RETURN_NOT_OK(
      ConsumeHeader(wire_internal::kKindAggregatorState, &bytes));
  FR_ASSIGN_OR_RETURN(const uint64_t num_shards, GetVarint64(&bytes));
  FR_RETURN_NOT_OK(CheckPlausibleCount(num_shards, 1, bytes));
  AggregatorStateBlob blob;
  FR_ASSIGN_OR_RETURN(blob.epoch, GetVarint64(&bytes));
  blob.shards.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    FR_ASSIGN_OR_RETURN(const uint64_t length, GetVarint64(&bytes));
    if (length > bytes.size()) {
      return Status::InvalidArgument("truncated shard state");
    }
    blob.shards.emplace_back(bytes.substr(0, length));
    bytes.remove_prefix(length);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  return blob;
}

std::string EncodeAggregatorDelta(const AggregatorDeltaBlob& delta) {
  FR_CHECK(delta.num_shards >= 1);
  FR_CHECK(delta.epoch >= 1 && delta.seq >= 1);
  std::string out;
  AppendHeader(wire_internal::kKindAggregatorDelta, &out);
  PutVarint64(static_cast<uint64_t>(delta.num_shards), &out);
  PutVarint64(delta.epoch, &out);
  PutVarint64(delta.seq, &out);
  PutVarint64(delta.shards.size(), &out);
  int64_t previous_index = -1;
  for (const ShardDelta& entry : delta.shards) {
    FR_CHECK(entry.shard_index > previous_index &&
             entry.shard_index < delta.num_shards);
    previous_index = entry.shard_index;
    PutVarint64(static_cast<uint64_t>(entry.shard_index), &out);
    PutVarint64(entry.state.size(), &out);
    out.append(entry.state);
  }
  AppendChecksum(&out);
  return out;
}

Result<AggregatorDeltaBlob> DecodeAggregatorDelta(std::string_view bytes) {
  FR_RETURN_NOT_OK(ConsumeChecksum(&bytes));
  FR_RETURN_NOT_OK(
      ConsumeHeader(wire_internal::kKindAggregatorDelta, &bytes));
  AggregatorDeltaBlob delta;
  FR_ASSIGN_OR_RETURN(const uint64_t num_shards, GetVarint64(&bytes));
  if (num_shards < 1 || num_shards > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("implausible delta shard count");
  }
  delta.num_shards = static_cast<int64_t>(num_shards);
  FR_ASSIGN_OR_RETURN(delta.epoch, GetVarint64(&bytes));
  FR_ASSIGN_OR_RETURN(delta.seq, GetVarint64(&bytes));
  if (delta.epoch < 1 || delta.seq < 1) {
    // A delta always extends a full checkpoint (epoch >= 1) and sits at a
    // 1-based position behind it; zeros cannot come from the encoder.
    return Status::InvalidArgument("delta checkpoint without a chain anchor");
  }
  FR_ASSIGN_OR_RETURN(const uint64_t num_entries, GetVarint64(&bytes));
  if (num_entries > num_shards) {
    return Status::InvalidArgument("delta lists more shards than exist");
  }
  FR_RETURN_NOT_OK(CheckPlausibleCount(num_entries, 2, bytes));
  delta.shards.reserve(num_entries);
  int64_t previous_index = -1;
  for (uint64_t e = 0; e < num_entries; ++e) {
    FR_ASSIGN_OR_RETURN(const uint64_t raw_index, GetVarint64(&bytes));
    if (raw_index >= num_shards ||
        static_cast<int64_t>(raw_index) <= previous_index) {
      return Status::InvalidArgument("delta shard index out of order");
    }
    previous_index = static_cast<int64_t>(raw_index);
    FR_ASSIGN_OR_RETURN(const uint64_t length, GetVarint64(&bytes));
    if (length > bytes.size()) {
      return Status::InvalidArgument("truncated delta shard state");
    }
    delta.shards.push_back(ShardDelta{static_cast<int64_t>(raw_index),
                                      std::string(bytes.substr(0, length))});
    bytes.remove_prefix(length);
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after delta checkpoint");
  }
  return delta;
}

}  // namespace futurerand::core

// StreamEncoder: lane/group-sharded encoding of a packed burst stream,
// one chunk at a time.
//
// This is the shared core behind every streaming front-end:
// dbi::Session's one encode loop feeds it chunks pulled from any Source
// (in-RAM packed spans, generators, views straight off a mmap'd trace
// file); the selector, dbid, verify and Session's incremental write
// surface drive it too. The stream's bus shape is one dbi::Geometry (a
// narrow stream is its one-group case), and it is interpreted like a
// workload::Channel write sequence: burst g belongs to lane g % lanes,
// and each (lane, group) pair is one shard unit with its own threaded
// BusState — so a single x64 lane still spreads across 8 workers.
// Totals accumulate in 64-bit counters internally (chunks of any size
// are block-split so BurstStats's int fields never overflow). Each
// group takes one of two routes:
//   * in place, for every group of a single-lane stream and for the
//     full byte groups of a multi-lane stream whose lanes the encoder's
//     kernel interleaves (BatchEncoder::interleaves: avx512-fixed8 at 8
//     lanes, swar at any count, per burst): one call per group encodes
//     every lane straight off the chunk view — zero copy, wide groups
//     read at stride groups(), the group's lane states threaded at
//     stride groups(). A narrow stream is then one work item and runs
//     on the caller, not the pool;
//   * gathered, otherwise (AVX2 / NEON, other lane counts, the trellis
//     schemes, a remainder group narrower than a byte): each
//     (lane, group) unit copies its bursts apart and encodes them as
//     one contiguous stream.
// Either way each work item makes one BatchEncoder call per
// accumulation block under either state policy — per-burst reset is a
// flag the kernels honour, not a per-burst loop — and collected results
// are written by the kernels straight into chunk order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/geometry.hpp"
#include "core/types.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"

namespace dbi::engine {

struct StreamEncodeOptions {
  /// Interleaved lane streams: burst g goes to lane g % lanes, each
  /// threading its own line state (matches Channel's write order).
  int lanes = 1;
  /// Reset every unit to the all-ones boundary before each burst (the
  /// paper's per-burst assumption) instead of threading state.
  bool reset_state_per_burst = false;
  /// Shard (lane, group) units across this pool; null encodes serially.
  /// Results are identical either way.
  ShardPool* pool = nullptr;
  /// Chunk counters + stage spans (encode_chunk / unit / gather); null
  /// disables. Must outlive the StreamEncoder or be detached first.
  const obs::Observer* obs = nullptr;

  void validate() const;
};

/// One shard unit's scratch: the gathered payload slice (gathered units
/// only) and the unit's 64-bit totals (an in-place group keeps its
/// totals in its lane-0 unit). Results need no per-unit staging: the
/// kernels write every burst straight into the chunk-order result
/// array.
struct StreamUnit {
  std::vector<std::uint8_t> bytes;  // gathered packed slice
  std::int64_t zeros = 0;
  std::int64_t transitions = 0;
};

class StreamEncoder {
 public:
  /// Stream of packed bursts at `geometry` (beat-major, one byte per
  /// group per beat on a wide bus). `encoder` must outlive the
  /// StreamEncoder. `states` optionally hands in caller-owned line
  /// states (lanes x groups entries, group-minor, threaded in place,
  /// must outlive the StreamEncoder) so several encode surfaces can
  /// share one bus history; empty means internally owned states.
  StreamEncoder(const BatchEncoder& encoder, const dbi::Geometry& geometry,
                const StreamEncodeOptions& options,
                std::span<dbi::BusState> states = {});

  StreamEncoder(const StreamEncoder&) = delete;
  StreamEncoder& operator=(const StreamEncoder&) = delete;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] int units() const { return static_cast<int>(units_.size()); }
  [[nodiscard]] std::size_t bytes_per_burst() const { return bytes_per_burst_; }

  /// Restores every unit to the all-ones boundary and zeroes the totals.
  void reset();

  /// Restores every unit to the all-ones boundary WITHOUT touching the
  /// accumulated totals: the member-boundary reset of a concatenated
  /// stream (each lake member is an independent bus history, but the
  /// run's 64-bit totals keep accumulating across members).
  void reset_states();

  /// Re-targets the shard pool (results are pool-independent, so this
  /// is safe between chunks; null returns to serial encoding).
  void set_pool(ShardPool* pool) { opt_.pool = pool; }

  /// Encodes `burst_count` packed bursts (payload holds burst_count *
  /// bytes_per_burst() bytes); `first_burst` is the stream-global index
  /// of the chunk's first burst, which fixes the lane interleave.
  /// With collect_results, returns the per-(burst, group) results in
  /// trace order — burst j's group g at [j * groups() + g]; an empty
  /// span otherwise. The span is valid until the next call.
  std::span<const BurstResult> encode_chunk(
      std::int64_t first_burst, std::span<const std::uint8_t> payload,
      std::size_t burst_count, bool collect_results = false);

  /// 64-bit totals over everything encoded since the last reset().
  [[nodiscard]] std::int64_t bursts() const { return bursts_; }
  [[nodiscard]] std::int64_t zeros() const;
  [[nodiscard]] std::int64_t transitions() const;

 private:
  void init(std::span<dbi::BusState> states);
  void encode_unit_slice(int unit, std::int64_t first_burst,
                         std::span<const std::uint8_t> payload,
                         std::size_t burst_count, bool collect_results);
  void encode_group_lanes(int group, std::int64_t first_burst,
                          std::span<const std::uint8_t> payload,
                          std::size_t burst_count, bool collect_results);
  [[nodiscard]] dbi::BusConfig unit_config(int unit) const;

  const BatchEncoder& encoder_;
  dbi::Geometry geometry_;
  StreamEncodeOptions opt_;
  int groups_ = 1;
  int full_groups_ = 0;  // leading groups that are full bytes
  std::size_t bytes_per_burst_ = 0;
  std::int64_t bursts_ = 0;
  std::vector<StreamUnit> units_;       // lanes x groups, group-minor
  std::vector<dbi::BusState> owned_states_;  // empty with external states
  std::span<dbi::BusState> states_;     // one per unit
  std::vector<BurstResult> chunk_results_;  // only when collecting
};

}  // namespace dbi::engine

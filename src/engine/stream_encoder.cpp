#include "engine/stream_encoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/observer.hpp"

namespace dbi::engine {

namespace {

/// Sub-block size (bursts) for int64 accumulation: BurstStats counts in
/// int, and (width+1) * burst_length <= 33 * 64 line-beats per burst,
/// so 64K bursts stay far inside int range per encode_packed call.
constexpr std::size_t kAccumBlockBursts = 1 << 16;

}  // namespace

void StreamEncodeOptions::validate() const {
  if (lanes < 1 || lanes > 65536)
    throw std::invalid_argument(
        "StreamEncodeOptions: lanes must be in [1, 65536], got " +
        std::to_string(lanes));
}

StreamEncoder::StreamEncoder(const BatchEncoder& encoder,
                             const dbi::Geometry& geometry,
                             const StreamEncodeOptions& options,
                             std::span<dbi::BusState> states)
    : encoder_(encoder), geometry_(geometry), opt_(options) {
  opt_.validate();
  geometry_.validate();
  groups_ = geometry_.groups();
  while (full_groups_ < groups_ &&
         geometry_.group_config(full_groups_).width == 8)
    ++full_groups_;
  bytes_per_burst_ = static_cast<std::size_t>(geometry_.bytes_per_burst());
  units_.resize(static_cast<std::size_t>(opt_.lanes) *
                static_cast<std::size_t>(groups_));
  init(states);
}

void StreamEncoder::init(std::span<dbi::BusState> states) {
  if (states.empty()) {
    owned_states_.resize(units_.size());
    states_ = owned_states_;
    reset();
  } else {
    // Caller-owned line history (e.g. Session's persistent write
    // state): adopt it as-is — no reset, the caller decides when the
    // bus history restarts.
    if (states.size() != units_.size())
      throw std::invalid_argument(
          "StreamEncoder: expected " + std::to_string(units_.size()) +
          " caller-owned states (lanes x groups), got " +
          std::to_string(states.size()));
    states_ = states;
  }
}

dbi::BusConfig StreamEncoder::unit_config(int unit) const {
  return geometry_.group_config(unit % groups_);
}

void StreamEncoder::reset() {
  bursts_ = 0;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    states_[u] = dbi::BusState::all_ones(unit_config(static_cast<int>(u)));
    units_[u].zeros = 0;
    units_[u].transitions = 0;
  }
}

void StreamEncoder::reset_states() {
  for (std::size_t u = 0; u < units_.size(); ++u)
    states_[u] = dbi::BusState::all_ones(unit_config(static_cast<int>(u)));
}

std::int64_t StreamEncoder::zeros() const {
  std::int64_t total = 0;
  for (const StreamUnit& su : units_) total += su.zeros;
  return total;
}

std::int64_t StreamEncoder::transitions() const {
  std::int64_t total = 0;
  for (const StreamUnit& su : units_) total += su.transitions;
  return total;
}

void StreamEncoder::encode_unit_slice(int unit, std::int64_t first_burst,
                                      std::span<const std::uint8_t> payload,
                                      std::size_t count,
                                      bool collect_results) {
  const dbi::BusConfig cfg = unit_config(unit);
  const int lane = unit / groups_;
  const int group = unit % groups_;
  obs::ScopedSpan unit_span(opt_.obs, obs::Stage::kEncodeUnit, lane, group);
  const std::size_t bb = bytes_per_burst_;
  const int L = opt_.lanes;
  StreamUnit& us = units_[static_cast<std::size_t>(unit)];
  dbi::BusState& state = states_[static_cast<std::size_t>(unit)];

  // First chunk-local index owned by this lane (global index % L == lane).
  const auto base_mod =
      static_cast<std::size_t>(first_burst % static_cast<std::int64_t>(L));
  const std::size_t j0 =
      (static_cast<std::size_t>(lane) + static_cast<std::size_t>(L) -
       base_mod) %
      static_cast<std::size_t>(L);
  if (j0 >= count) return;
  const std::size_t mine = (count - j0 + static_cast<std::size_t>(L) - 1) /
                           static_cast<std::size_t>(L);

  // Gather only this unit's group slice, so the L x groups units never
  // copy a byte twice: a narrow burst whole, a wide group's byte per
  // beat. The slice is then a narrow stream of the group's geometry.
  const auto slice_bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  {
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, lane, group);
    us.bytes.resize(mine * slice_bb);
    std::uint8_t* dst = us.bytes.data();
    const std::uint8_t* src = payload.data() + group;
    const auto stride = static_cast<std::size_t>(groups_);
    for (std::size_t j = j0; j < count; j += static_cast<std::size_t>(L)) {
      if (groups_ == 1) {
        std::memcpy(dst, src + j * bb, bb);
      } else {
        for (std::size_t t = 0; t < slice_bb; ++t)
          dst[t] = src[j * bb + t * stride];
      }
      dst += slice_bb;
    }
  }
  // Results land straight in chunk order: this unit's k-th burst is
  // chunk burst j0 + k * L, group `group`.
  const auto results_stride =
      static_cast<std::size_t>(L) * static_cast<std::size_t>(groups_);
  BurstResult* results =
      collect_results ? chunk_results_.data() +
                            j0 * static_cast<std::size_t>(groups_) +
                            static_cast<std::size_t>(group)
                      : nullptr;
  const std::span<const std::uint8_t> bytes = us.bytes;
  const bool reset = opt_.reset_state_per_burst;
  for (std::size_t k0 = 0; k0 < mine; k0 += kAccumBlockBursts) {
    const std::size_t block = std::min(kAccumBlockBursts, mine - k0);
    const dbi::BurstStats s = encoder_.encode_packed(
        bytes.subspan(k0 * slice_bb, block * slice_bb), cfg, 0, state,
        results ? results + k0 * results_stride : nullptr, results_stride,
        reset);
    us.zeros += s.zeros;
    us.transitions += s.transitions;
  }
}

void StreamEncoder::encode_group_lanes(int group, std::int64_t first_burst,
                                       std::span<const std::uint8_t> payload,
                                       std::size_t count,
                                       bool collect_results) {
  const int L = opt_.lanes;
  obs::ScopedSpan unit_span(opt_.obs, obs::Stage::kEncodeUnit,
                            L == 1 ? 0 : -1, group);
  const auto G = static_cast<std::size_t>(groups_);
  // In place, straight off the chunk view — for uncompressed trace
  // chunks that is the mmap page itself (zero copy; wide groups read
  // their bytes at stride groups()). The group's lane states sit
  // group-minor at stride groups(); its totals accumulate in the
  // (lane 0, group) unit.
  const LaneStates lanes(states_.subspan(static_cast<std::size_t>(group)), L,
                         static_cast<int>(first_burst % L), G);
  StreamUnit& us = units_[static_cast<std::size_t>(group)];
  BurstResult* results =
      collect_results ? chunk_results_.data() + group : nullptr;
  const bool reset = opt_.reset_state_per_burst;
  for (std::size_t k0 = 0; k0 < count; k0 += kAccumBlockBursts) {
    const std::size_t block = std::min(kAccumBlockBursts, count - k0);
    const auto block_bytes =
        payload.subspan(k0 * bytes_per_burst_, block * bytes_per_burst_);
    BurstResult* block_results = results ? results + k0 * G : nullptr;
    const dbi::BurstStats s =
        encoder_.encode_packed(block_bytes, geometry_, group,
                               lanes.advanced(k0), block_results, G, reset);
    us.zeros += s.zeros;
    us.transitions += s.transitions;
  }
}

std::span<const BurstResult> StreamEncoder::encode_chunk(
    std::int64_t first_burst, std::span<const std::uint8_t> payload,
    std::size_t burst_count, bool collect_results) {
  if (payload.size() != burst_count * bytes_per_burst_)
    throw std::invalid_argument(
        "StreamEncoder: chunk payload of " + std::to_string(payload.size()) +
        " bytes does not hold " + std::to_string(burst_count) + " bursts of " +
        std::to_string(bytes_per_burst_) + " packed bytes");
  if (collect_results)
    chunk_results_.resize(burst_count * static_cast<std::size_t>(groups_));
  obs::ScopedSpan chunk_span(opt_.obs, obs::Stage::kEncodeChunk, first_burst,
                             static_cast<std::int32_t>(std::min<std::size_t>(
                                 burst_count, INT32_MAX)));
  if (opt_.obs) opt_.obs->chunks.inc();
  // In place, one work item per group: every group of a one-lane
  // stream, and the full byte groups whose lanes the kernel
  // interleaves. Every other (lane, group) unit is gathered.
  const int shared = opt_.lanes == 1 ? groups_
                     : encoder_.interleaves(geometry_.burst_length(),
                                            opt_.lanes)
                         ? full_groups_
                         : 0;
  const int gathered_groups = groups_ - shared;
  const int items = shared + gathered_groups * opt_.lanes;
  auto run_item = [this, first_burst, payload, burst_count, collect_results,
                   shared, gathered_groups](int item) {
    if (item < shared) {
      encode_group_lanes(item, first_burst, payload, burst_count,
                         collect_results);
      return;
    }
    const int r = item - shared;
    const int lane = r / gathered_groups;
    const int group = shared + r % gathered_groups;
    encode_unit_slice(lane * groups_ + group, first_burst, payload,
                      burst_count, collect_results);
  };
  // A single work item (a narrow stream in place) runs on the caller:
  // waking the pool would only add its hand-off latency.
  if (opt_.pool && items > 1) {
    opt_.pool->run(items, run_item);
  } else {
    for (int i = 0; i < items; ++i) run_item(i);
  }
  bursts_ += static_cast<std::int64_t>(burst_count);
  return collect_results ? std::span<const BurstResult>(chunk_results_)
                         : std::span<const BurstResult>{};
}

}  // namespace dbi::engine

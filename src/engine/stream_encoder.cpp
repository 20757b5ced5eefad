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
                             const dbi::BusConfig& cfg,
                             const StreamEncodeOptions& options,
                             std::span<dbi::BusState> states)
    : encoder_(encoder), cfg_(cfg), opt_(options) {
  opt_.validate();
  cfg_.validate();
  bytes_per_burst_ = static_cast<std::size_t>(cfg_.bytes_per_burst());
  units_.resize(static_cast<std::size_t>(opt_.lanes));
  init(states);
}

StreamEncoder::StreamEncoder(const BatchEncoder& encoder,
                             const dbi::WideBusConfig& cfg,
                             const StreamEncodeOptions& options,
                             std::span<dbi::BusState> states)
    : encoder_(encoder), wcfg_(cfg), wide_(true), opt_(options) {
  opt_.validate();
  wcfg_.validate();
  groups_ = wcfg_.groups();
  bytes_per_burst_ = static_cast<std::size_t>(wcfg_.bytes_per_burst());
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
  return wide_ ? wcfg_.group_config(unit % groups_) : cfg_;
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

  // A wide unit encodes one byte per beat once its slice is gathered.
  const auto slice_bb =
      wide_ ? static_cast<std::size_t>(wcfg_.burst_length) : bb;

  std::span<const std::uint8_t> bytes;
  bool in_place_wide = false;
  if (L == 1) {
    // Single-lane streams consume the chunk view in place — for
    // uncompressed trace chunks that is the mmap page itself (zero
    // copy; wide groups read their bytes at stride groups()).
    bytes = payload;
    in_place_wide = wide_;
  } else if (!wide_) {
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, lane, group);
    us.bytes.resize(mine * bb);
    std::uint8_t* dst = us.bytes.data();
    const std::uint8_t* src = payload.data();
    for (std::size_t j = j0; j < count; j += static_cast<std::size_t>(L)) {
      std::memcpy(dst, src + j * bb, bb);
      dst += bb;
    }
    bytes = us.bytes;
  } else {
    // Gather only this unit's group slice (1 byte per beat), so the L
    // x groups units never copy a byte twice.
    obs::ScopedSpan gather_span(opt_.obs, obs::Stage::kGather, lane, group);
    us.bytes.resize(mine * slice_bb);
    std::uint8_t* dst = us.bytes.data();
    const std::uint8_t* src = payload.data();
    const auto stride = static_cast<std::size_t>(groups_);
    for (std::size_t j = j0; j < count; j += static_cast<std::size_t>(L)) {
      const std::uint8_t* burst = src + j * bb + static_cast<std::size_t>(group);
      for (std::size_t t = 0; t < slice_bb; ++t) dst[t] = burst[t * stride];
      dst += slice_bb;
    }
    bytes = us.bytes;
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
  const std::size_t step = in_place_wide ? bb : slice_bb;
  const bool reset = opt_.reset_state_per_burst;
  for (std::size_t k0 = 0; k0 < mine; k0 += kAccumBlockBursts) {
    const std::size_t block = std::min(kAccumBlockBursts, mine - k0);
    const auto block_bytes = bytes.subspan(k0 * step, block * step);
    BurstResult* block_results =
        results ? results + k0 * results_stride : nullptr;
    const dbi::BurstStats s =
        in_place_wide
            ? encoder_.encode_packed_group(block_bytes, wcfg_, group, state,
                                           block_results, results_stride,
                                           reset)
            : encoder_.encode_packed(block_bytes, cfg, state, block_results,
                                     results_stride, reset);
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
  const auto unit_count = static_cast<int>(units_.size());
  auto run_unit = [this, first_burst, payload, burst_count,
                   collect_results](int unit) {
    encode_unit_slice(unit, first_burst, payload, burst_count,
                      collect_results);
  };
  if (opt_.pool) {
    opt_.pool->run(unit_count, run_unit);
  } else {
    for (int u = 0; u < unit_count; ++u) run_unit(u);
  }
  bursts_ += static_cast<std::int64_t>(burst_count);
  return collect_results ? std::span<const BurstResult>(chunk_results_)
                         : std::span<const BurstResult>{};
}

}  // namespace dbi::engine

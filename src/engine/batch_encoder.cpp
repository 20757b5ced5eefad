#include "engine/batch_encoder.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/byte_utils.hpp"
#include "engine/bits.hpp"
#include "engine/kernels_portable.hpp"
#include "obs/observer.hpp"

namespace dbi::engine {
namespace {

using dbi::Beat;
using dbi::Burst;
using dbi::BurstStats;
using dbi::BusConfig;
using dbi::BusState;
using dbi::Scheme;
using dbi::Word;

// The SWAR, bit-plane and flat trellis kernels live in
// kernels_portable.hpp (shared with the registry's "swar" variant and
// the SIMD variant TUs); this TU keeps the dispatch glue.
using kernels::encode_fixed8;
using kernels::encode_planar;
using kernels::encode_raw8;
using kernels::encode_trellis;
using kernels::PlanarRule;
using kernels::WordBeats;

/// Lower-case hex of a beat word, for geometry diagnostics.
std::string to_hex(Word w) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[w & 0xFU]);
    w >>= 4;
  } while (w != 0);
  return out;
}

}  // namespace

BatchEncoder::BatchEncoder(Scheme scheme, const dbi::CostWeights& w)
    : scheme_(scheme),
      weights_(w),
      fallback_(dbi::make_encoder(scheme, w)),
      kernel_(&default_kernel()) {
  w.validate();
}

std::string_view BatchEncoder::name() const { return fallback_->name(); }

BurstResult BatchEncoder::encode(const Burst& data, BusState& state) const {
  return encode_span(data.words(), data.config(), state, &data);
}

BurstResult BatchEncoder::encode_span(std::span<const Word> words,
                                      const BusConfig& cfg, BusState& state,
                                      const Burst* original) const {
  switch (scheme_) {
    case Scheme::kRaw:
      if (cfg.width == 8) return encode_raw8(WordBeats{words}, state);
      return encode_planar(PlanarRule::kRaw, WordBeats{words}, cfg, state);
    case Scheme::kDc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kDc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kDc, WordBeats{words}, cfg, state);
    case Scheme::kAc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kAc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kAc, WordBeats{words}, cfg, state);
    case Scheme::kAcDc:
      if (cfg.width == 8)
        return encode_fixed8(Fixed8Rule::kAcDc, WordBeats{words}, state);
      return encode_planar(PlanarRule::kAcDc, WordBeats{words}, cfg, state);
    case Scheme::kOpt:
    case Scheme::kOptFixed:
      return encode_trellis(*trellis_rule(scheme_), WordBeats{words}, cfg,
                            weights_, state);
    default:
      break;
  }

  // Slow path: scalar encoder (the exhaustive-search ablation).
  const dbi::EncodedBurst e = original
                                  ? fallback_->encode(*original, state)
                                  : fallback_->encode(Burst(cfg, words), state);
  BurstResult r{e.inversion_mask(), e.stats(state)};
  state = e.final_state();
  return r;
}

BurstStats BatchEncoder::encode_words(std::span<const Word> words,
                                      const BusConfig& cfg, BusState& state,
                                      BurstResult* results) const {
  cfg.validate();
  const auto bl = static_cast<std::size_t>(cfg.burst_length);
  if (words.size() % bl != 0)
    throw std::invalid_argument(
        "BatchEncoder::encode_words: word count not a multiple of "
        "burst_length");
  BurstStats totals;
  for (std::size_t i = 0; i * bl < words.size(); ++i) {
    const BurstResult r =
        encode_span(words.subspan(i * bl, bl), cfg, state, nullptr);
    totals += r.stats;
    if (results) results[i] = r;
  }
  return totals;
}

bool BatchEncoder::interleaves(int burst_length, int lanes) const {
  const auto rule = fixed8_rule(scheme_);
  return rule && kernel_->supports_fixed8_lanes(*rule, burst_length, lanes);
}

BurstStats BatchEncoder::encode_group8(const std::uint8_t* bytes,
                                       std::size_t bursts, int burst_length,
                                       int stride, const LaneStates& state,
                                       BurstResult* results,
                                       std::size_t results_stride,
                                       bool reset_per_burst) const {
  // One registry dispatch per call: the selected variant when its
  // envelope covers this rule, geometry and lane count, the portable
  // reference otherwise.
  if (const auto rule = fixed8_rule(scheme_)) {
    const KernelVariant& k =
        kernel_->supports_fixed8_lanes(*rule, burst_length, state.lanes)
            ? *kernel_
            : portable_kernel();
    if (obs_) obs_->count_encode_dispatch(k, &k != kernel_);
    return k.encode_fixed8(*rule, bytes, bursts, burst_length, stride,
                           reset_per_burst, state, results, results_stride);
  }
  const KernelVariant& k =
      kernel_->supports_trellis8(burst_length, reset_per_burst)
          ? *kernel_
          : portable_kernel();
  if (obs_) obs_->count_encode_dispatch(k, &k != kernel_);
  return k.encode_trellis8(*trellis_rule(scheme_), weights_, bytes, bursts,
                           burst_length, stride, reset_per_burst, state.at(0),
                           results, results_stride);
}

void BatchEncoder::check_lanes(const LaneStates& state, int group_width,
                               const char* entry) const {
  if (state.lanes != 1 && (group_width != 8 || !fixed8_rule(scheme_)))
    throw std::invalid_argument(
        std::string("BatchEncoder::") + entry + ": " +
        std::to_string(state.lanes) + " interleaved lanes need a fixed "
        "scheme on full width-8 groups, not " + std::string(name()) +
        " on width " + std::to_string(group_width));
}

BurstStats BatchEncoder::encode_packed(std::span<const std::uint8_t> bytes,
                                       const dbi::Geometry& geometry,
                                       int group, const LaneStates& lanes,
                                       BurstResult* results,
                                       std::size_t results_stride,
                                       bool reset_per_burst) const {
  geometry.validate();
  if (group < 0 || group >= geometry.groups())
    throw std::invalid_argument(
        "BatchEncoder::encode_packed: group " + std::to_string(group) +
        " outside [0, " + std::to_string(geometry.groups()) + ") of the " +
        geometry.to_string() + " bus");
  const auto burst_bytes = static_cast<std::size_t>(geometry.bytes_per_burst());
  if (bytes.size() % burst_bytes != 0)
    throw std::invalid_argument(
        "BatchEncoder::encode_packed: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(burst_bytes) + "-byte packed burst (" +
        geometry.to_string() + ")");
  const BusConfig cfg = geometry.group_config(group);
  check_lanes(lanes, cfg.width, "encode_packed");
  const std::size_t n = bytes.size() / burst_bytes;
  const int bl = cfg.burst_length;
  // Beat t of a burst starts at byte t * step; the group's bytes sit at
  // offset `group` (one byte per wide group, the whole beat narrow).
  const int step = geometry.bytes_per_beat();
  const std::uint8_t* p = bytes.data() + group;

  // Full byte groups consume the packed bytes in place — the trace
  // payload layout is the SWAR lane-word layout (at stride groups() on
  // a wide bus), so there is no widening pass at all, and every byte
  // value is a valid beat.
  if (cfg.width == 8 && scheme_ != Scheme::kExhaustive)
    return encode_group8(p, n, bl, step, lanes, results, results_stride,
                         reset_per_burst);

  BusState& state = lanes.at(0);
  BurstStats totals;
  const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
  const Word mask = cfg.dq_mask();
  Word buf[64];  // burst_length <= 64 by BusConfig::validate()
  for (std::size_t i = 0; i < n; ++i, p += burst_bytes) {
    for (int t = 0; t < bl; ++t) {
      const std::uint8_t* beat = p + static_cast<std::size_t>(t * step);
      Word w = 0;
      for (std::size_t b = 0; b < bpb; ++b)
        w |= static_cast<Word>(beat[b]) << (8 * b);
      if ((w & ~mask) != 0)
        throw std::invalid_argument(
            "BatchEncoder::encode_packed: burst " + std::to_string(i) +
            " beat " + std::to_string(t) + ": word 0x" + to_hex(w) +
            " exceeds the width-" + std::to_string(cfg.width) + " group " +
            std::to_string(group));
      buf[t] = w;
    }
    if (reset_per_burst) state = BusState::all_ones(cfg);
    const BurstResult r = encode_span(
        std::span<const Word>(buf, static_cast<std::size_t>(bl)), cfg, state,
        nullptr);
    totals += r.stats;
    if (results) results[i * results_stride] = r;
  }
  return totals;
}

dbi::EncodedBurst BatchEncoder::materialize(const Burst& data,
                                            const BurstResult& r) const {
  if (scheme_ == Scheme::kRaw) {
    std::vector<Beat> beats;
    beats.reserve(static_cast<std::size_t>(data.length()));
    for (int i = 0; i < data.length(); ++i)
      beats.push_back(Beat{data.word(i), true});
    return dbi::EncodedBurst(data.config(), std::move(beats),
                             /*uses_dbi_line=*/false);
  }
  return dbi::EncodedBurst::from_inversion_mask(data, r.invert_mask);
}

}  // namespace dbi::engine

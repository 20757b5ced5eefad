#include "engine/batch_decoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encoding.hpp"
#include "obs/observer.hpp"

namespace dbi::engine {
namespace {

using dbi::Beat;
using dbi::BusConfig;
using dbi::Word;

void check_mask_tails(std::span<const std::uint64_t> masks, int burst_length,
                      int groups) {
  if (burst_length >= 64) return;
  for (std::size_t i = 0; i < masks.size(); ++i)
    if ((masks[i] >> burst_length) != 0)
      throw std::invalid_argument(
          "BatchDecoder: burst " +
          std::to_string(i / static_cast<std::size_t>(groups)) + " group " +
          std::to_string(i % static_cast<std::size_t>(groups)) +
          ": inversion mask has bits beyond burst length " +
          std::to_string(burst_length));
}

[[noreturn]] void throw_bad_beat(std::size_t burst, int beat, int group,
                                int width) {
  throw std::invalid_argument(
      "BatchDecoder: burst " + std::to_string(burst) + " beat " +
      std::to_string(beat) + ": transmitted word exceeds the width-" +
      std::to_string(width) + " group " + std::to_string(group));
}

/// Splits `bursts` into one contiguous range per worker. Decoding
/// threads no state, so the split is purely a load balancer and the
/// output is bit-identical with or without the pool.
template <typename Fn>
void shard_bursts(std::size_t bursts, ShardPool* pool, const Fn& fn) {
  constexpr std::size_t kMinBurstsPerWorker = 256;
  const int workers = pool ? pool->workers() : 1;
  if (!pool || workers <= 1 || bursts < 2 * kMinBurstsPerWorker) {
    fn(std::size_t{0}, bursts);
    return;
  }
  const auto w = static_cast<std::size_t>(workers);
  const std::size_t per = (bursts + w - 1) / w;
  pool->run(workers, [&](int r) {
    const std::size_t b0 = static_cast<std::size_t>(r) * per;
    if (b0 >= bursts) return;
    fn(b0, std::min(per, bursts - b0));
  });
}

}  // namespace

void BatchDecoder::decode_range(std::span<const std::uint8_t> tx,
                                std::span<const std::uint64_t> masks,
                                const dbi::Geometry& geometry,
                                std::span<std::uint8_t> out) const {
  const int groups = geometry.groups();
  const int bl = geometry.burst_length();
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  const std::size_t n = tx.size() / bb;

  if (geometry.bytes_per_beat() == 1) {
    // Byte-per-beat lanes go through the selected kernel variant
    // (portable reference outside its envelope): 8+ beats decode per
    // flag-masked XOR word, sub-8-wide groups with the lane mask
    // narrowed.
    const BusConfig cfg = geometry.bus();
    const KernelVariant& k =
        kernel_->supports_decode8(cfg) ? *kernel_ : portable_kernel();
    if (obs_) obs_->count_decode_dispatch(k, &k != kernel_);
    k.decode_fixed8(tx.data(), masks.data(), n, cfg, out.data());
    return;
  }

  // Start from the transmitted bytes; an exact alias decodes in place.
  if (out.data() != tx.data()) std::memcpy(out.data(), tx.data(), tx.size());

  if (groups == 8 && geometry.width() == 64) {
    // x64 fast path (all groups full) through the selected kernel
    // variant: per beat, the 8 group flags become one XOR word over the
    // beat-major payload (8x8 mask transpose + bit->byte spread).
    const KernelVariant& k =
        kernel_->supports_decode_wide8(bl) ? *kernel_ : portable_kernel();
    if (obs_) obs_->count_decode_wide_dispatch(k, &k != kernel_);
    k.decode_wide8(out.data(), masks.data(), n, bl);
    return;
  }

  // Everything else — 2- and 4-byte narrow beats, other group counts,
  // remainder groups: XOR each group's dq_mask into its flagged beats'
  // little-endian bytes in place (group g at offset g, beat t at
  // t * bytes_per_beat()), validating the transmitted word like
  // encode_packed does.
  const auto step = static_cast<std::size_t>(geometry.bytes_per_beat());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* base = out.data() + i * bb;
    for (int g = 0; g < groups; ++g) {
      const BusConfig cfg = geometry.group_config(g);
      const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
      const Word dq_mask = cfg.dq_mask();
      const std::uint64_t m = masks[i * static_cast<std::size_t>(groups) +
                                    static_cast<std::size_t>(g)];
      for (int t = 0; t < bl; ++t) {
        std::uint8_t* beat = base + static_cast<std::size_t>(t) * step +
                             static_cast<std::size_t>(g);
        Word w = 0;
        for (std::size_t b = 0; b < bpb; ++b)
          w |= static_cast<Word>(beat[b]) << (8 * b);
        if ((w & ~dq_mask) != 0) throw_bad_beat(i, t, g, cfg.width);
        if ((m >> t) & 1U) w ^= dq_mask;
        for (std::size_t b = 0; b < bpb; ++b)
          beat[b] = static_cast<std::uint8_t>(w >> (8 * b));
      }
    }
  }
}

void BatchDecoder::decode_packed(std::span<const std::uint8_t> tx,
                                 std::span<const std::uint64_t> masks,
                                 const dbi::Geometry& geometry,
                                 std::span<std::uint8_t> out,
                                 ShardPool* pool) const {
  geometry.validate();
  const int groups = geometry.groups();
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  if (tx.size() % bb != 0)
    throw std::invalid_argument(
        "BatchDecoder::decode_packed: payload of " +
        std::to_string(tx.size()) + " bytes is not a multiple of the " +
        std::to_string(bb) + "-byte packed burst (" + geometry.to_string() +
        ")");
  const std::size_t n = tx.size() / bb;
  const auto gs = static_cast<std::size_t>(groups);
  if (masks.size() != n * gs)
    throw std::invalid_argument(
        "BatchDecoder::decode_packed: " + std::to_string(n) + " bursts of " +
        std::to_string(groups) + " groups need " + std::to_string(n * gs) +
        " masks, got " + std::to_string(masks.size()));
  if (out.size() != tx.size())
    throw std::invalid_argument(
        "BatchDecoder::decode_packed: output of " +
        std::to_string(out.size()) + " bytes != input of " +
        std::to_string(tx.size()));
  check_mask_tails(masks, geometry.burst_length(), groups);

  shard_bursts(n, pool, [&](std::size_t b0, std::size_t count) {
    decode_range(tx.subspan(b0 * bb, count * bb),
                 masks.subspan(b0 * gs, count * gs), geometry,
                 out.subspan(b0 * bb, count * bb));
  });
}

dbi::Burst BatchDecoder::decode_scalar(const dbi::BusConfig& cfg,
                                       std::span<const dbi::Word> tx,
                                       std::uint64_t mask) {
  std::vector<Beat> beats;
  beats.reserve(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i)
    beats.push_back(Beat{tx[i], ((mask >> i) & 1U) == 0});
  return dbi::EncodedBurst(cfg, std::move(beats)).decode();
}

}  // namespace dbi::engine

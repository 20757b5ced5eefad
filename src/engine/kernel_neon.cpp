// The "neon-fixed8" kernel variant: a deliberately narrow AArch64
// AdvSIMD port covering only the receive side — the flag-masked XOR
// decode, where vtst against the bit-select vector replaces the SWAR
// bit->byte spread multiply. The encode paths report unsupported and
// fall back to the portable reference (NEON has no movemask analogue,
// so the SWAR flag extraction is already near-optimal there).
//
// Compiled whenever CMake defines DBI_HAVE_NEON for this TU (AArch64
// toolchains enable AdvSIMD by default, so no per-file -m flag is
// needed); runtime availability comes from getauxval(AT_HWCAP).
#include "engine/kernel_variants.hpp"

#if defined(DBI_HAVE_NEON)

#include <arm_neon.h>

#include <cstring>

#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

class NeonKernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "neon-fixed8"; }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kNeon; }
  [[nodiscard]] std::string_view envelope() const override {
    return "width-8 decode at burst lengths divisible by 8 (encode and "
           "wide decode fall back to the portable reference)";
  }

  [[nodiscard]] bool supports_fixed8(Fixed8Rule, int) const override {
    return false;
  }
  [[nodiscard]] bool supports_decode8(const dbi::BusConfig& cfg)
      const override {
    return cfg.width == 8 && cfg.burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_decode_wide8(int) const override {
    return false;
  }
  [[nodiscard]] bool supports_trellis8(int, bool) const override {
    return false;
  }
  [[nodiscard]] bool supports_fixed8_lanes(Fixed8Rule, int,
                                           int) const override {
    return false;
  }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, bool reset_per_burst,
                                const LaneStates& lanes, BurstResult* results,
                                std::size_t results_stride) const override {
    return portable_kernel().encode_fixed8(rule, bytes, bursts, burst_length,
                                           stride, reset_per_burst, lanes,
                                           results, results_stride);
  }

  dbi::BurstStats encode_trellis8(
      TrellisRule rule, const dbi::CostWeights& weights,
      const std::uint8_t* bytes, std::size_t bursts, int burst_length,
      int stride, bool reset_per_burst, dbi::BusState& state,
      BurstResult* results, std::size_t results_stride) const override {
    return portable_kernel().encode_trellis8(
        rule, weights, bytes, bursts, burst_length, stride, reset_per_burst,
        state, results, results_stride);
  }

  void decode_fixed8(const std::uint8_t* tx, const std::uint64_t* masks,
                     std::size_t bursts, const dbi::BusConfig& cfg,
                     std::uint8_t* out) const override {
    if (cfg.width != 8 || cfg.burst_length % 8 != 0) {
      portable_kernel().decode_fixed8(tx, masks, bursts, cfg, out);
      return;
    }
    // One 8-beat block per 64-bit vector: vtst(mask byte, bit k) gives
    // the 0xFF lanes to XOR, the NEON twin of spread_bits_to_bytes.
    // Burst-major: burst i's mask bytes are its blocks' flags in order.
    const uint8x8_t sel = {1, 2, 4, 8, 16, 32, 64, 128};
    const int bpb = cfg.burst_length / 8;
    std::size_t off = 0;
    for (std::size_t i = 0; i < bursts; ++i) {
      std::uint64_t m = masks[i];
      for (int t = 0; t < bpb; ++t, m >>= 8, off += 8) {
        const auto mb = static_cast<std::uint8_t>(m & 0xFFULL);
        const uint8x8_t inv = vtst_u8(vdup_n_u8(mb), sel);
        vst1_u8(out + off, veor_u8(vld1_u8(tx + off), inv));
      }
    }
  }

  void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                    std::size_t bursts, int burst_length) const override {
    portable_kernel().decode_wide8(data, masks, bursts, burst_length);
  }
};

}  // namespace

const KernelVariant* neon_kernel() {
  static const NeonKernel kernel;
  return &kernel;
}

}  // namespace dbi::engine

#else  // !DBI_HAVE_NEON

namespace dbi::engine {

const KernelVariant* neon_kernel() { return nullptr; }

}  // namespace dbi::engine

#endif

// The "avx2-fixed8" kernel variant: the 256-bit sibling of
// kernel_avx512.cpp — 4 bursts per ymm on the encode path, with
// vpmovmskb replacing the AVX-512 compare-into-mask instructions and a
// shuffle-broadcast + bit-test replacing vpmovm2b for the mask -> 0xFF
// lane spread. Compiled with a per-file -mavx2 flag and registered only
// when CMake defined DBI_HAVE_AVX2; runtime CPUID gates selection.
//
// Envelope (everything else falls back to the portable reference):
//   * encode_fixed8: RAW / DC / AC / ACDC at burst_length 8 (4
//     bursts/ymm; RAW sets no flags and counts no DBI line);
//   * decode_fixed8: width 8, burst_length % 8 == 0;
//   * decode_wide8:  burst_length % 8 == 0.
// The trellis entry (encode_trellis8) always runs the portable
// reference. See kernel_avx512.cpp for the shared algorithm notes; the
// scalar per-burst AC boundary fixup of the threaded path, the
// all-vector per-burst-reset path and the stats identities are
// identical.
#include "engine/kernel_variants.hpp"

#if defined(DBI_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

/// Per-byte popcount of 32 bytes: nibble LUT + vpshufb, twice.
inline __m256i byte_popcount256(__m256i v) {
  const __m256i lut = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Spreads 32 mask bits to 32 bytes: byte k = 0xFF iff bit k is set
/// (the AVX2 stand-in for vpmovm2b). Broadcast the mask dword, shuffle
/// byte k/8 into lane k, then test bit k%8.
inline __m256i spread_mask32(std::uint32_t bits) {
  const __m256i ctrl =
      _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
                       2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i sel = _mm256_set1_epi64x(0x8040201008040201ULL);
  const __m256i bytes = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<int>(bits)), ctrl);
  return _mm256_cmpeq_epi8(_mm256_and_si256(bytes, sel), sel);
}

/// 8-bit in-register prefix XOR: bit k of the result = XOR of bits 0..k.
inline std::uint8_t prefix_xor8(std::uint8_t g) {
  g = static_cast<std::uint8_t>(g ^ (g << 1));
  g = static_cast<std::uint8_t>(g ^ (g << 2));
  g = static_cast<std::uint8_t>(g ^ (g << 4));
  return g;
}

class Avx2Kernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override { return "avx2-fixed8"; }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kAvx2; }
  [[nodiscard]] std::string_view envelope() const override {
    return "RAW/DC/AC/ACDC encode at burst length 8 (4 bursts per vector); "
           "width-8 and full-group wide decode at burst lengths divisible "
           "by 8";
  }

  [[nodiscard]] bool supports_fixed8(Fixed8Rule /*every rule*/,
                                     int burst_length) const override {
    return burst_length == 8;
  }
  [[nodiscard]] bool supports_decode8(const dbi::BusConfig& cfg)
      const override {
    return cfg.width == 8 && cfg.burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_decode_wide8(int burst_length) const override {
    return burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_trellis8(int, bool) const override {
    return false;
  }
  [[nodiscard]] bool supports_fixed8_lanes(Fixed8Rule rule, int burst_length,
                                           int lanes) const override {
    return lanes == 1 && supports_fixed8(rule, burst_length);
  }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, bool reset_per_burst,
                                const LaneStates& lanes, BurstResult* results,
                                std::size_t results_stride) const override {
    // Interleaved lanes run on the portable per-burst interleave.
    if (lanes.lanes != 1)
      return portable_kernel().encode_fixed8(
          rule, bytes, bursts, burst_length, stride, reset_per_burst, lanes,
          results, results_stride);
    dbi::BusState& state = lanes.at(0);
    std::size_t vec = 0;  // bursts the vector loops take, 4 per ymm
    dbi::BurstStats totals;
    if (burst_length == 8) {
      vec = bursts & ~std::size_t{3};
      // RAW is decided here, once: it gets its own loops, so the
      // DC/AC/ACDC loops carry no RAW test.
      const auto loop = reset_per_burst
                            ? (rule == Fixed8Rule::kRaw ? encode_reset<true>
                                                        : encode_reset<false>)
                            : (rule == Fixed8Rule::kRaw
                                   ? encode_threaded<true>
                                   : encode_threaded<false>);
      totals = loop(rule, bytes, vec, stride, state, results, results_stride);
    }
    // Tail bursts and geometries outside the envelope: the portable
    // reference, carrying the state the vector loop left.
    const auto bb = static_cast<std::size_t>(burst_length) *
                    static_cast<std::size_t>(stride);
    return totals + portable_kernel().encode_fixed8(
                        rule, bytes + vec * bb, bursts - vec, burst_length,
                        stride, reset_per_burst, state,
                        results ? results + vec * results_stride : nullptr,
                        results_stride);
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
    if (cfg.burst_length == 8) {
      // One block per burst: pshufb moves the low byte of 4
      // consecutive masks to bytes 0..3 (2 per 128-bit lane), an OR
      // of the two lanes packs them into the ymm's 32 lane flags.
      const __m256i pick = _mm256_setr_epi8(
          0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
          -1, -1, 0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
      std::size_t i = 0;
      for (; i + 4 <= bursts; i += 4) {
        const __m256i b = _mm256_shuffle_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(masks + i)),
            pick);
        const auto m32 = static_cast<std::uint32_t>(_mm_cvtsi128_si32(
            _mm_or_si128(_mm256_castsi256_si128(b),
                         _mm256_extracti128_si256(b, 1))));
        xor_block32(tx + i * 8, m32, out + i * 8);
      }
      for (; i < bursts; ++i) xor_block8(tx + i * 8, masks[i], out + i * 8);
      return;
    }
    // Longer bursts, burst-major: each burst's mask bytes are its
    // blocks' flags in order, gathered 4 at a time across bursts.
    const int bpb = cfg.burst_length / 8;
    std::uint32_t m32 = 0;
    int have = 0;  // blocks gathered into m32
    std::size_t bk = 0;  // first block of the pending ymm
    for (std::size_t i = 0; i < bursts; ++i) {
      std::uint64_t m = masks[i];
      for (int t = 0; t < bpb; ++t, m >>= 8) {
        m32 |= static_cast<std::uint32_t>(m & 0xFFULL) << (8 * have);
        if (++have == 4) {
          xor_block32(tx + bk * 8, m32, out + bk * 8);
          bk += 4;
          m32 = 0;
          have = 0;
        }
      }
    }
    for (int k = 0; k < have; ++k, ++bk, m32 >>= 8)
      xor_block8(tx + bk * 8, m32, out + bk * 8);
  }

  void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                    std::size_t bursts, int burst_length) const override {
    if (burst_length % 8 != 0) {
      portable_kernel().decode_wide8(data, masks, bursts, burst_length);
      return;
    }
    // Transpose 8 group-mask bytes per 8-beat chunk (see
    // kernel_avx512.cpp), then spread the 64 flag bits as two ymm halves
    // over the beat-major payload.
    const int bl = burst_length;
    const auto bb = static_cast<std::size_t>(bl) * 8;
    for (std::size_t i = 0; i < bursts; ++i) {
      const std::uint64_t* mk = masks + i * 8;
      std::uint8_t* base = data + i * bb;
      for (int t0 = 0; t0 < bl; t0 += 8) {
        std::uint64_t m8 = 0;
        for (int g = 0; g < 8; ++g)
          m8 |= ((mk[g] >> t0) & 0xFFULL) << (8 * g);
        const std::uint64_t tile = transpose8(m8);
        std::uint8_t* p = base + static_cast<std::size_t>(t0) * 8;
        for (int half = 0; half < 2; ++half) {
          const auto bits =
              static_cast<std::uint32_t>(tile >> (32 * half));
          std::uint8_t* q = p + 32 * half;
          const __m256i v =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(q),
                              _mm256_xor_si256(v, spread_mask32(bits)));
        }
      }
    }
  }

 private:
  /// 32 transmitted bytes XOR the 0xFF spread of their 32 flags.
  static void xor_block32(const std::uint8_t* tx, std::uint32_t flags,
                          std::uint8_t* out) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_xor_si256(v, spread_mask32(flags)));
  }

  /// One 8-byte block XOR the spread of the low 8 flag bits.
  static void xor_block8(const std::uint8_t* tx, std::uint64_t flags,
                         std::uint8_t* out) {
    std::uint64_t p = 0;
    std::memcpy(&p, tx, 8);
    p ^= kernels::spread_bits_to_bytes(flags & 0xFFULL);
    std::memcpy(out, &p, 8);
  }

  /// 32 beats of one byte group at `stride` (1 = contiguous), beat k
  /// in byte k; strided slices gather through `scratch` (32 bytes).
  static __m256i load_beats32(const std::uint8_t* p, int stride,
                              std::uint8_t* scratch) {
    if (stride != 1) {
      for (int k = 0; k < 32; ++k)
        scratch[k] =
            p[static_cast<std::size_t>(k) * static_cast<std::size_t>(stride)];
      p = scratch;
    }
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }

  /// Threaded-state vector loop over `bursts` (a multiple of 4) BL8
  /// bursts; leaves `state` at the last burst's line values. kRaw
  /// (RAW, `rule` unread) drives no DBI line: its DBI reads high from
  /// the entry state on.
  template <bool kRaw>
  static dbi::BurstStats encode_threaded(Fixed8Rule rule,
                                         const std::uint8_t* bytes,
                                         std::size_t bursts, int stride,
                                         dbi::BusState& state,
                                         BurstResult* results,
                                         std::size_t results_stride) {
    dbi::BurstStats totals;
    std::uint64_t prev_tx = state.last.dq & 0xFFU;
    bool prev_dbi = kRaw || state.last.dbi;
    const std::uint8_t* p = bytes;

    alignas(32) std::uint8_t gbuf[32];
    // Byte-shift-with-carry scratch (see kernel_avx512.cpp): the
    // carried previous transmitted byte at sc+7, the block at sc+8.
    alignas(32) std::uint8_t sc[40];
    alignas(32) std::uint64_t txq[4];
    alignas(32) std::uint64_t txpop[4];
    alignas(32) std::uint64_t adjpop[4];

    for (std::size_t i = 0; i < bursts; i += 4, p += std::size_t{32} * stride) {
      const __m256i v = load_beats32(p, stride, gbuf);
      const std::uint8_t* b = stride == 1 ? p : gbuf;
      const __m256i pop = byte_popcount256(v);

      std::uint32_t s32;
      // DC flags (pop <= 3): signed compare is safe, popcounts are 0..8.
      const auto dc_bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpgt_epi8(_mm256_set1_epi8(4), pop)));
      if (kRaw) {
        s32 = 0;
      } else if (rule == Fixed8Rule::kDc) {
        s32 = dc_bits;
      } else {
        // h-flags for beats 1..7 of every burst; each lane's byte 0
        // (beat 0 of an even burst) is corrupted by the lane-local
        // shift, and every burst's beat-0 flag is overwritten below.
        const __m256i h =
            byte_popcount256(_mm256_xor_si256(v, _mm256_bslli_epi128(v, 1)));
        const auto g_bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpgt_epi8(h, _mm256_set1_epi8(4))));

        std::uint64_t ptx = prev_tx;
        bool pdbi = prev_dbi;
        s32 = 0;
        for (int j = 0; j < 4; ++j) {
          std::uint8_t gb =
              static_cast<std::uint8_t>((g_bits >> (8 * j)) & 0xFE);
          bool g0;
          if (rule == Fixed8Rule::kAcDc) {
            g0 = ((dc_bits >> (8 * j)) & 1U) != 0;
          } else {
            const int t0 =
                std::popcount(static_cast<std::uint32_t>(
                    (b[8 * j] ^ ptx) & 0xFFU)) +
                (pdbi ? 0 : 1);
            g0 = t0 >= 5;
          }
          const std::uint8_t sb =
              prefix_xor8(static_cast<std::uint8_t>(gb | (g0 ? 1 : 0)));
          s32 |= static_cast<std::uint32_t>(sb) << (8 * j);
          ptx = b[8 * j + 7] ^ ((sb & 0x80U) ? 0xFFU : 0U);
          pdbi = (sb & 0x80U) == 0;
        }
      }

      const __m256i tx = _mm256_xor_si256(v, spread_mask32(s32));
      _mm256_store_si256(reinterpret_cast<__m256i*>(txq), tx);
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(txpop),
          _mm256_sad_epu8(byte_popcount256(tx), _mm256_setzero_si256()));
      sc[7] = static_cast<std::uint8_t>(prev_tx);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sc + 8), tx);
      const __m256i prevv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sc + 7));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(adjpop),
          _mm256_sad_epu8(byte_popcount256(_mm256_xor_si256(tx, prevv)),
                          _mm256_setzero_si256()));

      for (int j = 0; j < 4; ++j) {
        const auto sb = static_cast<std::uint32_t>((s32 >> (8 * j)) & 0xFFU);
        dbi::BurstStats st;
        st.zeros = 64 - static_cast<int>(txpop[j]) + std::popcount(sb);
        const std::uint32_t dbi_bits = ~sb & 0xFFU;
        const std::uint32_t dbi_adj =
            (dbi_bits ^ ((dbi_bits << 1) | (prev_dbi ? 1U : 0U))) & 0xFFU;
        st.transitions = static_cast<int>(adjpop[j]) + std::popcount(dbi_adj);
        totals += st;
        if (results)
          results[(i + static_cast<std::size_t>(j)) * results_stride] =
              BurstResult{sb, st};
        prev_tx = (txq[j] >> 56) & 0xFFU;
        prev_dbi = (sb & 0x80U) == 0;
      }
    }

    if (bursts > 0)
      state.last = dbi::Beat{static_cast<dbi::Word>(prev_tx), prev_dbi};
    return totals;
  }

  /// Per-burst-reset vector loop over `bursts` (a multiple of 4) BL8
  /// bursts: the 4 bursts of a ymm are independent (see
  /// kernel_avx512.cpp for the identities — AC's beat-0 flag is the DC
  /// flag, a per-byte SWAR prefix-XOR scan, 0xFF shifted into beat 0).
  /// kRaw (RAW, `rule` unread) sets no flags.
  template <bool kRaw>
  static dbi::BurstStats encode_reset(Fixed8Rule rule,
                                      const std::uint8_t* bytes,
                                      std::size_t bursts, int stride,
                                      dbi::BusState& state,
                                      BurstResult* results,
                                      std::size_t results_stride) {
    constexpr std::uint32_t k01 = 0x01010101U;
    constexpr std::uint32_t kFE = 0xFEFEFEFEU;
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    const __m256i eight = _mm256_set1_epi8(8);
    const __m256i beat0_ff = _mm256_set1_epi64x(0xFF);

    alignas(32) std::uint8_t gbuf[32];
    alignas(32) std::uint64_t zq[4];
    alignas(32) std::uint64_t tq[4];
    __m256i zsum = zero;
    __m256i tsum = zero;
    std::int64_t dbi_total = 0;  // DBI toggles, counted from the flags
    __m256i tx = zero;
    std::uint32_t s32 = 0;
    const std::uint8_t* p = bytes;

    for (std::size_t i = 0; i < bursts; i += 4, p += std::size_t{32} * stride) {
      const __m256i v = load_beats32(p, stride, gbuf);
      const __m256i pop = byte_popcount256(v);
      // DC flags (pop <= 3): signed compare is safe, popcounts are 0..8.
      const auto dc = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_cmpgt_epi8(_mm256_set1_epi8(4), pop)));
      if (kRaw) {
        s32 = 0;
      } else if (rule == Fixed8Rule::kDc) {
        s32 = dc;
      } else {
        const __m256i h =
            byte_popcount256(_mm256_xor_si256(v, _mm256_slli_epi64(v, 8)));
        const auto g = static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpgt_epi8(h, _mm256_set1_epi8(4))));
        s32 = static_cast<std::uint32_t>(
            kernels::bytewise_prefix_xor((g & ~k01) | (dc & k01)));
      }
      const __m256i inv = spread_mask32(s32);
      tx = _mm256_xor_si256(v, inv);
      // Zeros per beat: popcount(b) + 1 (DBI low) inverted, else
      // 8 - popcount(b); DQ transitions against 0xFF before beat 0.
      const __m256i zb = _mm256_blendv_epi8(_mm256_sub_epi8(eight, pop),
                                            _mm256_add_epi8(pop, one), inv);
      const __m256i prev = _mm256_or_si256(_mm256_slli_epi64(tx, 8), beat0_ff);
      const __m256i tb = byte_popcount256(_mm256_xor_si256(tx, prev));
      const std::uint32_t dbi_t = s32 ^ ((s32 << 1) & kFE);
      const __m256i zv = _mm256_sad_epu8(zb, zero);
      const __m256i tv = _mm256_sad_epu8(tb, zero);
      zsum = _mm256_add_epi64(zsum, zv);
      tsum = _mm256_add_epi64(tsum, tv);
      dbi_total += std::popcount(dbi_t);
      if (results) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(zq), zv);
        _mm256_store_si256(reinterpret_cast<__m256i*>(tq), tv);
        BurstResult* r = results + i * results_stride;
        for (int j = 0; j < 4; ++j, r += results_stride)
          *r = BurstResult{
              (s32 >> (8 * j)) & 0xFFU,
              dbi::BurstStats{
                  static_cast<int>(zq[j]),
                  static_cast<int>(tq[j]) +
                      std::popcount((dbi_t >> (8 * j)) & 0xFFU)}};
      }
    }

    if (bursts > 0)
      state.last = dbi::Beat{
          static_cast<dbi::Word>(_mm256_extract_epi8(tx, 31) & 0xFF),
          (s32 >> 31) == 0};
    _mm256_store_si256(reinterpret_cast<__m256i*>(zq), zsum);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tq), tsum);
    return dbi::BurstStats{
        static_cast<int>(zq[0] + zq[1] + zq[2] + zq[3]),
        static_cast<int>(tq[0] + tq[1] + tq[2] + tq[3] + dbi_total)};
  }
};

}  // namespace

const KernelVariant* avx2_kernel() {
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace dbi::engine

#else  // !DBI_HAVE_AVX2

namespace dbi::engine {

const KernelVariant* avx2_kernel() { return nullptr; }

}  // namespace dbi::engine

#endif

// The "avx512-fixed8" kernel variant: AVX-512 (F+BW+DQ+VL, the
// Skylake-server baseline) implementations of the hot width-8 paths.
// This TU is compiled with per-file -mavx512* flags (see the
// DBI_SIMD block in CMakeLists.txt) and registers itself only when
// CMake defined DBI_HAVE_AVX512 for it; the registry additionally gates
// selection on runtime CPUID, so the binary stays portable.
//
// Envelope (everything else falls back to the portable reference):
//   * encode_fixed8: DC / AC / ACDC at burst_length 8 — 8 bursts per
//     zmm. Per-byte popcounts via the nibble LUT + shuffle, decision
//     flags straight into __mmask64 compares, mask -> 0xFF lane spread
//     with vpmovm2b, per-burst ones/transition counts from vpsadbw
//     against the byte-shifted stream. With threaded state the AC
//     beat-0 boundary (previous transmitted byte + DBI value) and the
//     8-bit decision prefix XOR stay scalar per burst: that recurrence
//     is serial across bursts by construction, but it is ~10 cheap ops
//     against a vectorised rest. Under per-burst reset the 8 bursts are
//     independent and the whole block stays in vector registers (see
//     encode_reset). x64 group slices (stride 8) load with vpmovqb
//     narrowing instead of a byte gather.
//   * encode_trellis8: OPT / OPT-Fixed at burst_length 8 under
//     per-burst reset — 8 independent two-state trellises per zmm, one
//     per double lane, feeding the same stats tail as the fixed rules
//     (see trellis_flags). With threaded state each burst's trellis
//     starts from the previous burst's decision, so that path stays on
//     the portable reference.
//   * decode_fixed8: width 8, burst_length % 8 == 0 — mask bits to XOR
//     bytes with vpmovm2b, 64 transmitted bytes per step. At burst
//     length 8 one vpmovqb packs 8 masks' flag bytes; longer bursts
//     collect their blocks' flag bytes burst-major.
//   * decode_wide8: burst_length % 8 == 0 — the 8x8 mask-tile transpose
//     feeds vpmovm2b directly, one zmm per 8 wide beats.
//
// Bit-exactness vs the SWAR reference is structural: the flags computed
// here are the same per-byte popcount thresholds, the prefix XOR is the
// same recurrence, and stats come from the same popcount identities —
// the parity suite and the differential fuzzer hold every path to that.
// The trellis lanes repeat the scalar solver's double operations in the
// same order; CMake compiles this TU with -ffp-contract=off, because
// -mavx512f implies FMA and a contracted alpha * h + c rounds once
// instead of twice, flipping tie-prone kOpt decisions.
#include "engine/kernel_variants.hpp"

#if defined(DBI_HAVE_AVX512)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "engine/kernels_portable.hpp"

namespace dbi::engine {
namespace {

/// Per-byte popcount of 64 bytes: nibble LUT + vpshufb, twice.
inline __m512i byte_popcount512(__m512i v) {
  // (Not _mm512_broadcast_i32x4: its _mm512_undefined_epi32 pass-through
  // trips gcc 12's -Wmaybe-uninitialized under -Werror.)
  const __m512i lut = _mm512_set_epi8(
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0,
      4, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0);
  const __m512i nib = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_and_si512(v, nib);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), nib);
  return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                         _mm512_shuffle_epi8(lut, hi));
}

/// 64 beats of one byte group read at `stride` (1 = contiguous, else
/// one group slice of a wide beat-major payload), beat k in byte k.
/// At stride 8 (x64) vpmovqb narrows eight 64-byte loads to their low
/// byte per qword; the last load is masked to end at the slice's last
/// beat, so it never reads past the payload. Other strides gather
/// through `scratch` (64 bytes).
inline __m512i load_beats64(const std::uint8_t* p, int stride,
                            std::uint8_t* scratch) {
  if (stride == 1) return _mm512_loadu_si512(p);
  if (stride == 8) {
    __m128i q[8];
    for (int j = 0; j < 7; ++j)
      q[j] = _mm512_maskz_cvtepi64_epi8(0xFF, _mm512_loadu_si512(p + 64 * j));
    q[7] = _mm512_maskz_cvtepi64_epi8(
        0xFF, _mm512_maskz_loadu_epi8(~std::uint64_t{0} >> 7, p + 448));
    const __m256i lo = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_unpacklo_epi64(q[0], q[1])),
        _mm_unpacklo_epi64(q[2], q[3]), 1);
    const __m256i hi = _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_unpacklo_epi64(q[4], q[5])),
        _mm_unpacklo_epi64(q[6], q[7]), 1);
    return _mm512_maskz_inserti64x4(0xFF, _mm512_castsi256_si512(lo), hi, 1);
  }
  for (int k = 0; k < 64; ++k)
    scratch[k] =
        p[static_cast<std::size_t>(k) * static_cast<std::size_t>(stride)];
  return _mm512_loadu_si512(scratch);
}

/// 8-bit in-register prefix XOR: bit k of the result = XOR of bits 0..k.
inline std::uint8_t prefix_xor8(std::uint8_t g) {
  g = static_cast<std::uint8_t>(g ^ (g << 1));
  g = static_cast<std::uint8_t>(g ^ (g << 2));
  g = static_cast<std::uint8_t>(g ^ (g << 4));
  return g;
}

class Avx512Kernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "avx512-fixed8";
  }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kAvx512; }
  [[nodiscard]] std::string_view envelope() const override {
    return "DC/AC/ACDC encode at burst length 8 (8 bursts per vector); "
           "OPT/OPT-Fixed trellis at burst length 8 with per-burst reset "
           "(8 trellises per vector); width-8 and full-group wide decode "
           "at burst lengths divisible by 8";
  }

  [[nodiscard]] bool supports_fixed8(Fixed8Rule rule,
                                     int burst_length) const override {
    return rule != Fixed8Rule::kRaw && burst_length == 8;
  }
  [[nodiscard]] bool supports_decode8(const dbi::BusConfig& cfg)
      const override {
    return cfg.width == 8 && cfg.burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_decode_wide8(int burst_length) const override {
    return burst_length % 8 == 0;
  }
  [[nodiscard]] bool supports_trellis8(int burst_length,
                                       bool reset_per_burst) const override {
    return burst_length == 8 && reset_per_burst;
  }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, bool reset_per_burst,
                                dbi::BusState& state, BurstResult* results,
                                std::size_t results_stride) const override {
    std::size_t vec = 0;  // bursts the vector loops take, 8 per zmm
    dbi::BurstStats totals;
    // Outside the vector envelope (callers normally pre-check with
    // supports_fixed8) everything goes to the portable reference.
    if (burst_length == 8 && rule != Fixed8Rule::kRaw) {
      vec = bursts & ~std::size_t{7};
      totals = reset_per_burst
                   ? encode_reset(bytes, vec, stride, state, results,
                                  results_stride,
                                  [rule](__m512i v, __m512i pop) {
                                    return fixed_flags(rule, v, pop);
                                  })
                   : encode_threaded(rule, bytes, vec, stride, state,
                                     results, results_stride);
    }
    // Tail bursts (< 8): the portable per-burst kernel, carrying the
    // state the vector loop left — bit-exact by construction.
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
    std::size_t vec = 0;  // bursts the vector loop takes, 8 per zmm
    dbi::BurstStats totals;
    if (burst_length == 8 && reset_per_burst) {
      vec = bursts & ~std::size_t{7};
      // OPT (Fixed) is the same double recurrence at alpha = beta = 1:
      // every path metric is a small integer, exact in double, so its
      // decisions match the int64 reference.
      const bool fixed = rule == TrellisRule::kOptFixed;
      const __m512d alpha = _mm512_set1_pd(fixed ? 1.0 : weights.alpha);
      const __m512d beta = _mm512_set1_pd(fixed ? 1.0 : weights.beta);
      totals = encode_reset(bytes, vec, stride, state, results,
                            results_stride,
                            [alpha, beta](__m512i v, __m512i pop) {
                              return trellis_flags(v, pop, alpha, beta);
                            });
    }
    // Tail bursts and geometries outside the envelope: the portable
    // reference, carrying the state the vector loop left.
    const auto bb = static_cast<std::size_t>(burst_length) *
                    static_cast<std::size_t>(stride);
    return totals + portable_kernel().encode_trellis8(
                        rule, weights, bytes + vec * bb, bursts - vec,
                        burst_length, stride, reset_per_burst, state,
                        results ? results + vec * results_stride : nullptr,
                        results_stride);
  }

  void decode_fixed8(const std::uint8_t* tx, const std::uint64_t* masks,
                     std::size_t bursts, const dbi::BusConfig& cfg,
                     std::uint8_t* out) const override {
    if (cfg.width != 8 || cfg.burst_length % 8 != 0) {
      portable_kernel().decode_fixed8(tx, masks, bursts, cfg, out);
      return;
    }
    // Width 8: every 8 consecutive transmitted bytes are one 8-beat
    // block whose flags are one byte of its burst's mask. Eight blocks
    // make a zmm regardless of where the burst boundaries fall.
    if (cfg.burst_length == 8) {
      // One block per burst: vpmovqb packs the low byte of 8
      // consecutive masks into the zmm's 64 lane flags.
      std::size_t i = 0;
      for (; i + 8 <= bursts; i += 8) {
        const __m512i m = _mm512_loadu_si512(masks + i);
        const auto m64 = static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm512_maskz_cvtepi64_epi8(0xFF, m)));
        xor_block64(tx + i * 8, m64, out + i * 8);
      }
      for (; i < bursts; ++i) xor_block8(tx + i * 8, masks[i], out + i * 8);
      return;
    }
    // Longer bursts, burst-major: each burst's mask bytes are its
    // blocks' flags in order, gathered 8 at a time across bursts.
    const int bpb = cfg.burst_length / 8;
    std::uint64_t m64 = 0;
    int have = 0;  // blocks gathered into m64
    std::size_t bk = 0;  // first block of the pending zmm
    for (std::size_t i = 0; i < bursts; ++i) {
      std::uint64_t m = masks[i];
      for (int t = 0; t < bpb; ++t, m >>= 8) {
        m64 |= (m & 0xFFULL) << (8 * have);
        if (++have == 8) {
          xor_block64(tx + bk * 8, m64, out + bk * 8);
          bk += 8;
          m64 = 0;
          have = 0;
        }
      }
    }
    for (int k = 0; k < have; ++k, ++bk, m64 >>= 8)
      xor_block8(tx + bk * 8, m64, out + bk * 8);
  }

  void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                    std::size_t bursts, int burst_length) const override {
    if (burst_length % 8 != 0) {
      portable_kernel().decode_wide8(data, masks, bursts, burst_length);
      return;
    }
    // Full 8-group beats: transposing the 8 group-mask bytes of an
    // 8-beat chunk yields, bit (8k + g), "invert group g of beat k" —
    // exactly vpmovm2b's lane order over the beat-major payload.
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
        const __m512i v = _mm512_loadu_si512(p);
        _mm512_storeu_si512(
            p,
            _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(tile))));
      }
    }
  }

 private:
  /// 64 transmitted bytes XOR the 0xFF spread of their 64 flags.
  static void xor_block64(const std::uint8_t* tx, std::uint64_t flags,
                          std::uint8_t* out) {
    const __m512i v = _mm512_loadu_si512(tx);
    _mm512_storeu_si512(
        out,
        _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(flags))));
  }

  /// One 8-byte block XOR the spread of the low 8 flag bits.
  static void xor_block8(const std::uint8_t* tx, std::uint64_t flags,
                         std::uint8_t* out) {
    std::uint64_t p = 0;
    std::memcpy(&p, tx, 8);
    p ^= kernels::spread_bits_to_bytes(flags & 0xFFULL);
    std::memcpy(out, &p, 8);
  }

  /// Threaded-state vector loop over `bursts` (a multiple of 8) BL8
  /// bursts; leaves `state` at the last burst's line values.
  static dbi::BurstStats encode_threaded(Fixed8Rule rule,
                                         const std::uint8_t* bytes,
                                         std::size_t bursts, int stride,
                                         dbi::BusState& state,
                                         BurstResult* results,
                                         std::size_t results_stride) {
    dbi::BurstStats totals;
    std::uint64_t prev_tx = state.last.dq & 0xFFU;
    bool prev_dbi = state.last.dbi;
    const std::uint8_t* p = bytes;

    alignas(64) std::uint8_t gbuf[64];
    // Byte-shift-with-carry scratch for the transition stream: the
    // block's transmitted bytes at sc+8, the carried previous byte at
    // sc+7, so an unaligned reload at sc+7 is "every byte's
    // predecessor" — valid across burst boundaries because bursts are
    // time-consecutive on the wire.
    alignas(64) std::uint8_t sc[72];
    alignas(64) std::uint64_t txq[8];
    alignas(64) std::uint64_t txpop[8];
    alignas(64) std::uint64_t adjpop[8];

    for (std::size_t i = 0; i < bursts; i += 8, p += std::size_t{64} * stride) {
      const __m512i v = load_beats64(p, stride, gbuf);
      const std::uint8_t* b = p;
      if (stride != 1) {
        _mm512_store_si512(gbuf, v);
        b = gbuf;
      }
      const __m512i pop = byte_popcount512(v);

      std::uint64_t s64;
      if (rule == Fixed8Rule::kDc) {
        // DC: invert iff popcount(byte) <= 3; no recurrence at all.
        s64 = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));
      } else {
        // AC / ACDC: h-flags for beats 1..7 of every burst in one
        // compare. The lane-local byte shift corrupts only each lane's
        // byte 0 — beat 0 of a burst, whose flag the boundary rule
        // overwrites anyway.
        const __m512i h =
            byte_popcount512(_mm512_xor_si512(v, _mm512_bslli_epi128(v, 1)));
        const std::uint64_t g_bits =
            _mm512_cmp_epu8_mask(h, _mm512_set1_epi8(5), _MM_CMPINT_NLT);
        std::uint64_t dc_bits = 0;
        if (rule == Fixed8Rule::kAcDc)
          dc_bits = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));

        // Serial per-burst fixup: beat 0 decides against the physical
        // bus state, then the burst's 8 decision bits collapse with a
        // register prefix XOR. Threads a local (tx, dbi) shadow of the
        // carry chain; the stats pass below recomputes the same values.
        std::uint64_t ptx = prev_tx;
        bool pdbi = prev_dbi;
        s64 = 0;
        for (int j = 0; j < 8; ++j) {
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
          s64 |= static_cast<std::uint64_t>(sb) << (8 * j);
          ptx = b[8 * j + 7] ^ ((sb & 0x80U) ? 0xFFU : 0U);
          pdbi = (sb & 0x80U) == 0;
        }
      }

      const __m512i tx =
          _mm512_xor_si512(v, _mm512_movm_epi8(static_cast<__mmask64>(s64)));
      _mm512_store_si512(txq, tx);
      _mm512_store_si512(txpop,
                         _mm512_sad_epu8(byte_popcount512(tx),
                                         _mm512_setzero_si512()));
      sc[7] = static_cast<std::uint8_t>(prev_tx);
      _mm512_storeu_si512(sc + 8, tx);
      const __m512i prevv = _mm512_loadu_si512(sc + 7);
      _mm512_store_si512(
          adjpop, _mm512_sad_epu8(byte_popcount512(_mm512_xor_si512(tx, prevv)),
                                  _mm512_setzero_si512()));

      for (int j = 0; j < 8; ++j) {
        const auto sb = static_cast<std::uint32_t>((s64 >> (8 * j)) & 0xFFU);
        dbi::BurstStats st;
        st.zeros = 64 - static_cast<int>(txpop[j]) +
                   std::popcount(sb);
        const std::uint32_t dbi_bits = ~sb & 0xFFU;
        const std::uint32_t dbi_adj =
            (dbi_bits ^ ((dbi_bits << 1) | (prev_dbi ? 1U : 0U))) & 0xFFU;
        st.transitions =
            static_cast<int>(adjpop[j]) + std::popcount(dbi_adj);
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

  /// Fixed-rule inversion flags of one per-burst-reset block (8 BL8
  /// bursts, burst j in qword j, `pop` its per-byte popcounts). Every
  /// burst starts from (0xFF, DBI high), so nothing carries between
  /// the qwords:
  ///   * AC's beat-0 flag against (0xFF, DBI high) is 8 - popcount(b0)
  ///     >= 5, i.e. popcount(b0) <= 3 — the DC flag, as in ACDC;
  ///   * the 8-bit decision prefix XOR runs on all 64 flags at once as
  ///     a 3-step per-byte SWAR scan.
  static std::uint64_t fixed_flags(Fixed8Rule rule, __m512i v, __m512i pop) {
    using kernels::kL01;
    const std::uint64_t dc = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));
    if (rule == Fixed8Rule::kDc) return dc;
    // Beats 1..7 against their raw predecessor (the in-qword shift
    // leaves beat 0 garbage, replaced by the DC flag).
    const __m512i h = byte_popcount512(
        _mm512_xor_si512(v, _mm512_maskz_slli_epi64(0xFF, v, 8)));
    const std::uint64_t g =
        _mm512_cmp_epu8_mask(h, _mm512_set1_epi8(5), _MM_CMPINT_NLT);
    return kernels::bytewise_prefix_xor((g & ~kL01) | (dc & kL01));
  }

  /// Trellis masks of one per-burst-reset block: 8 independent BL8
  /// shortest paths (core/trellis.hpp), one per double lane. Beat t's
  /// ones / raw Hamming distance are byte t of each qword of `pop` /
  /// `h`, widened to doubles; the recurrence is kernels::
  /// trellis_mask_flat's, operation for operation —
  /// (c + dc) + alpha * trans with strict-less decisions that keep the
  /// non-inverted predecessor on ties — so the masks are bit-identical
  /// to the scalar solver (this TU is compiled with -ffp-contract=off:
  /// a fused multiply-add would round differently). Returns byte j =
  /// burst j's inversion mask.
  static std::uint64_t trellis_flags(__m512i v, __m512i pop, __m512d alpha,
                                     __m512d beta) {
    const __m512i low = _mm512_set1_epi64(0xFF);
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d eight = _mm512_set1_pd(8.0);
    const __m512d nine = _mm512_set1_pd(9.0);
    __m512i ones = pop;
    __m512i h = byte_popcount512(
        _mm512_xor_si512(v, _mm512_maskz_slli_epi64(0xFF, v, 8)));
    const auto widen = [&](__m512i x) {
      return _mm512_cvtepi64_pd(_mm512_and_si512(x, low));
    };

    // Beat 0 from (0xFF, DBI high): keeping it sends 8 - o0 zeros and
    // toggles 8 - o0 lines; inverting sends o0 + 1 zeros (DBI low) and
    // toggles o0 lines plus DBI.
    const __m512d o0 = widen(ones);
    const __m512d k0 = _mm512_sub_pd(eight, o0);
    const __m512d i0 = _mm512_add_pd(o0, one);
    __m512d c0 =
        _mm512_add_pd(_mm512_mul_pd(beta, k0), _mm512_mul_pd(alpha, k0));
    __m512d c1 =
        _mm512_add_pd(_mm512_mul_pd(beta, i0), _mm512_mul_pd(alpha, i0));

    __mmask8 pred0[8] = {};  // lane j: predecessor of (beat t, state 0)
    __mmask8 pred1[8] = {};  // lane j: predecessor of (beat t, state 1)
    for (int t = 1; t < 8; ++t) {
      ones = _mm512_maskz_srli_epi64(0xFF, ones, 8);
      h = _mm512_maskz_srli_epi64(0xFF, h, 8);
      const __m512d o = widen(ones);
      const __m512d hd = widen(h);
      const __m512d dc0 = _mm512_mul_pd(beta, _mm512_sub_pd(eight, o));
      const __m512d dc1 = _mm512_mul_pd(beta, _mm512_add_pd(o, one));
      const __m512d t_same = _mm512_mul_pd(alpha, hd);
      const __m512d t_diff = _mm512_mul_pd(alpha, _mm512_sub_pd(nine, hd));
      const __m512d a0 = _mm512_add_pd(_mm512_add_pd(c0, dc0), t_same);
      const __m512d b0 = _mm512_add_pd(_mm512_add_pd(c1, dc0), t_diff);
      const __m512d a1 = _mm512_add_pd(_mm512_add_pd(c0, dc1), t_diff);
      const __m512d b1 = _mm512_add_pd(_mm512_add_pd(c1, dc1), t_same);
      pred0[t] = _mm512_cmp_pd_mask(b0, a0, _CMP_LT_OQ);
      pred1[t] = _mm512_cmp_pd_mask(b1, a1, _CMP_LT_OQ);
      c0 = _mm512_mask_blend_pd(pred0[t], a0, b0);
      c1 = _mm512_mask_blend_pd(pred1[t], a1, b1);
    }

    // Backtrack all 8 lanes at once: byte t of `rows` holds beat t's
    // state bit per burst; the 8x8 transpose turns it burst-major.
    auto s = static_cast<std::uint32_t>(_mm512_cmp_pd_mask(c1, c0, _CMP_LT_OQ));
    std::uint64_t rows = static_cast<std::uint64_t>(s) << 56;
    for (int t = 7; t > 0; --t) {
      s = ((s & pred1[t]) | (~s & pred0[t])) & 0xFFU;
      rows |= static_cast<std::uint64_t>(s) << (8 * (t - 1));
    }
    return transpose8(rows);
  }

  /// Per-burst-reset vector loop over `bursts` (a multiple of 8) BL8
  /// bursts, shared by the fixed rules and the trellis: `flags(v, pop)`
  /// returns the block's inversion flags (byte j = burst j's mask) from
  /// its 64 raw beats and their per-byte popcounts. Every burst starts
  /// from (0xFF, DBI high), so the transition stream shifts 0xFF into
  /// each burst's beat 0; per-burst stats come from per-beat counts
  /// summed with vpsadbw.
  template <typename Flags>
  static dbi::BurstStats encode_reset(const std::uint8_t* bytes,
                                      std::size_t bursts, int stride,
                                      dbi::BusState& state,
                                      BurstResult* results,
                                      std::size_t results_stride,
                                      Flags flags) {
    constexpr std::uint64_t kLFE = 0xFEFEFEFEFEFEFEFEULL;
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi8(1);
    const __m512i eight = _mm512_set1_epi8(8);
    const __m512i beat0_ff = _mm512_set1_epi64(0xFF);

    alignas(64) std::uint8_t gbuf[64];
    alignas(64) std::uint64_t zq[8];
    alignas(64) std::uint64_t tq[8];
    __m512i zsum = zero;
    __m512i tsum = zero;
    __m512i tx = zero;
    std::uint64_t s64 = 0;
    const std::uint8_t* p = bytes;

    for (std::size_t i = 0; i < bursts; i += 8, p += std::size_t{64} * stride) {
      const __m512i v = load_beats64(p, stride, gbuf);
      const __m512i pop = byte_popcount512(v);
      s64 = flags(v, pop);
      const auto k = static_cast<__mmask64>(s64);
      tx = _mm512_xor_si512(v, _mm512_movm_epi8(k));

      // Zeros per beat: an inverted beat sends popcount(b) zero DQ
      // lines plus the low DBI line, a kept one 8 - popcount(b).
      const __m512i zb = _mm512_mask_blend_epi8(
          k, _mm512_sub_epi8(eight, pop), _mm512_add_epi8(pop, one));
      // Transitions per beat: DQ toggles against the previous beat
      // (0xFF before beat 0) plus a DBI toggle — DBI is !s and starts
      // high, so beat 0 toggles iff s0, beat t iff s_t != s_(t-1).
      const __m512i prev =
          _mm512_or_si512(_mm512_maskz_slli_epi64(0xFF, tx, 8), beat0_ff);
      const __m512i dq_t = byte_popcount512(_mm512_xor_si512(tx, prev));
      const std::uint64_t dbi_t = s64 ^ ((s64 << 1) & kLFE);
      const __m512i tb = _mm512_mask_add_epi8(
          dq_t, static_cast<__mmask64>(dbi_t), dq_t, one);

      const __m512i zv = _mm512_sad_epu8(zb, zero);
      const __m512i tv = _mm512_sad_epu8(tb, zero);
      zsum = _mm512_add_epi64(zsum, zv);
      tsum = _mm512_add_epi64(tsum, tv);
      if (results) {
        _mm512_store_si512(zq, zv);
        _mm512_store_si512(tq, tv);
        BurstResult* r = results + i * results_stride;
        for (int j = 0; j < 8; ++j, r += results_stride)
          *r = BurstResult{(s64 >> (8 * j)) & 0xFFU,
                           dbi::BurstStats{static_cast<int>(zq[j]),
                                           static_cast<int>(tq[j])}};
      }
    }

    if (bursts > 0) {
      // The last burst's last beat: byte 63 of the final block.
      const auto last_tx = static_cast<std::uint8_t>(
          _mm_extract_epi8(_mm512_maskz_extracti32x4_epi32(0xF, tx, 3), 15));
      state.last = dbi::Beat{last_tx, (s64 >> 63) == 0};
    }
    _mm512_store_si512(zq, zsum);
    _mm512_store_si512(tq, tsum);
    std::uint64_t zeros = 0;
    std::uint64_t transitions = 0;
    for (int j = 0; j < 8; ++j) {
      zeros += zq[j];
      transitions += tq[j];
    }
    return dbi::BurstStats{static_cast<int>(zeros),
                           static_cast<int>(transitions)};
  }
};

}  // namespace

const KernelVariant* avx512_kernel() {
  static const Avx512Kernel kernel;
  return &kernel;
}

}  // namespace dbi::engine

#else  // !DBI_HAVE_AVX512

namespace dbi::engine {

const KernelVariant* avx512_kernel() { return nullptr; }

}  // namespace dbi::engine

#endif

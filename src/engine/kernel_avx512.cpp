// The "avx512-fixed8" kernel variant: AVX-512 (F+BW+DQ+VL, the
// Skylake-server baseline) implementations of the hot width-8 paths.
// This TU is compiled with per-file -mavx512* flags (see the
// DBI_SIMD block in CMakeLists.txt) and registers itself only when
// CMake defined DBI_HAVE_AVX512 for it; the registry additionally gates
// selection on runtime CPUID, so the binary stays portable.
//
// Envelope (everything else falls back to the portable reference):
//   * encode_fixed8: RAW / DC / AC / ACDC at burst_length 8 — 8 bursts
//     per zmm. Per-byte popcounts via the nibble LUT + shuffle, decision
//     flags straight into __mmask64 compares, mask -> 0xFF lane spread
//     with vpmovm2b, per-burst ones/transition counts from vpsadbw
//     against the byte-shifted stream. One lane or 8 interleaved lanes
//     (burst i of lane (first_lane + i) % 8, so a zmm is one time step
//     of 8 lanes). With threaded state the AC recurrence runs across
//     burst boundaries as s_t = (hd(raw_t, raw_(t-1)) >= 5) XOR
//     s_(t-1), so a block's 64 decisions are one vector compare plus
//     one prefix XOR seeded by the previous block's carry — 64-bit with
//     one lane, bytewise with 8 (see encode_threaded). Under per-burst
//     reset the 8 bursts are independent (see encode_reset). Either way
//     the whole block stays in vector registers. x64 group slices
//     (stride 8) load with vpmovqb narrowing instead of a byte gather.
//     Other lane counts run the portable per-burst interleave. RAW
//     sets no flags, so it is the stats tail alone: no DBI zeros or
//     edges, whatever DBI value a lane enters with.
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

/// 64-bit in-register prefix XOR: bit k of the result = XOR of bits
/// 0..k.
inline std::uint64_t prefix_xor64(std::uint64_t g) {
  g ^= g << 1;
  g ^= g << 2;
  g ^= g << 4;
  g ^= g << 8;
  g ^= g << 16;
  g ^= g << 32;
  return g;
}

class Avx512Kernel final : public KernelVariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "avx512-fixed8";
  }
  [[nodiscard]] KernelIsa isa() const override { return KernelIsa::kAvx512; }
  [[nodiscard]] std::string_view envelope() const override {
    return "RAW/DC/AC/ACDC encode at burst length 8, one lane or 8 "
           "interleaved lanes (8 bursts per vector); "
           "OPT/OPT-Fixed trellis at burst length 8 with per-burst reset "
           "(8 trellises per vector); width-8 and full-group wide decode "
           "at burst lengths divisible by 8";
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
  [[nodiscard]] bool supports_trellis8(int burst_length,
                                       bool reset_per_burst) const override {
    return burst_length == 8 && reset_per_burst;
  }
  [[nodiscard]] bool supports_fixed8_lanes(Fixed8Rule rule, int burst_length,
                                           int lanes) const override {
    return supports_fixed8(rule, burst_length) && (lanes == 1 || lanes == 8);
  }

  dbi::BurstStats encode_fixed8(Fixed8Rule rule, const std::uint8_t* bytes,
                                std::size_t bursts, int burst_length,
                                int stride, bool reset_per_burst,
                                const LaneStates& lanes, BurstResult* results,
                                std::size_t results_stride) const override {
    std::size_t vec = 0;  // bursts the vector loops take, 8 per zmm
    dbi::BurstStats totals;
    // Outside the vector envelope (callers normally pre-check with
    // supports_fixed8_lanes) everything goes to the portable reference.
    if (supports_fixed8_lanes(rule, burst_length, lanes.lanes)) {
      vec = bursts & ~std::size_t{7};
      // RAW is decided here, once: it gets its own loops, so the
      // DC/AC/ACDC loops carry no RAW test.
      const bool raw = rule == Fixed8Rule::kRaw;
      if (reset_per_burst && raw)
        totals = encode_reset(bytes, vec, stride, lanes, results,
                              results_stride, [](__m512i, __m512i) {
                                return std::uint64_t{0};
                              });
      else if (reset_per_burst)
        totals = encode_reset(bytes, vec, stride, lanes, results,
                              results_stride, [rule](__m512i v, __m512i pop) {
                                return fixed_flags(rule, v, pop);
                              });
      else {
        const auto loop =
            lanes.lanes == 1
                ? (raw ? encode_threaded<1, true> : encode_threaded<1, false>)
                : (raw ? encode_threaded<8, true> : encode_threaded<8, false>);
        totals = loop(rule, bytes, vec, stride, lanes, results,
                      results_stride);
      }
    }
    // Tail bursts (< 8): the portable per-burst interleave, carrying the
    // states the vector loop left — bit-exact by construction.
    const auto bb = static_cast<std::size_t>(burst_length) *
                    static_cast<std::size_t>(stride);
    return totals + portable_kernel().encode_fixed8(
                        rule, bytes + vec * bb, bursts - vec, burst_length,
                        stride, reset_per_burst, lanes.advanced(vec),
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
  /// bursts, burst j of every 64-beat block in qword j. kLanes = 1: one
  /// lane, the bursts time-consecutive. kLanes = 8: qword j of every
  /// block is lane (first_lane + j) % 8, so a block is one time step of
  /// 8 independent lanes.
  ///
  /// On the 9 lines of a byte group the AC rule is
  /// s_t = (hd(raw_t, raw_(t-1)) >= 5) XOR s_(t-1) — the kept and the
  /// inverted beat toggle 9 lines between them — and it holds across
  /// burst boundaries too, with a lane's entry state (dq, dbi) read as
  /// raw_(-1) = dq ^ (dbi ? 0 : 0xFF), s_(-1) = !dbi. So every beat's
  /// flag comes from one vector compare against its raw predecessor
  /// (the previous byte of its qword, or byte 7 of the carried qword
  /// for beat 0), and the block's 64 decisions are one prefix XOR
  /// seeded by the carried decisions: 64-bit with one lane, bytewise
  /// with eight. ACDC decides beat 0 by the DC rule and DC has no
  /// recurrence, so those carry only the stats inputs (the previous
  /// transmitted byte and DBI value). kRaw (RAW, `rule` unread) inverts
  /// nothing and drives no DBI line: it carries the transmitted byte
  /// alone, takes no entry decision, and leaves every lane's DBI high.
  /// Leaves each lane at its last burst's line values.
  template <int kLanes, bool kRaw>
  static dbi::BurstStats encode_threaded(Fixed8Rule rule,
                                         const std::uint8_t* bytes,
                                         std::size_t bursts, int stride,
                                         const LaneStates& lanes,
                                         BurstResult* results,
                                         std::size_t results_stride) {
    static_assert(kLanes == 1 || kLanes == 8);
    using kernels::kL01;
    constexpr std::uint64_t kLFE = 0xFEFEFEFEFEFEFEFEULL;
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi8(1);
    const __m512i eight = _mm512_set1_epi8(8);

    // Carries from the previous block: byte 7 of qword j of raw_prev /
    // tx_prev is the raw / transmitted beat before qword j's beat 0
    // (one lane: qword 7 only), bit 8j + 7 of s_prev its decision.
    __m512i raw_prev;
    __m512i tx_prev;
    std::uint64_t s_prev = 0;
    {
      alignas(64) std::uint64_t rq[8] = {};
      alignas(64) std::uint64_t tq[8] = {};
      for (int j = 8 - kLanes; j < 8; ++j) {
        const dbi::BusState& st =
            lanes.at(kLanes == 1 ? 0 : (lanes.first_lane + j) % 8);
        const std::uint64_t tx = st.last.dq & 0xFFU;
        const bool s = !kRaw && !st.last.dbi;
        tq[j] = tx << 56;
        rq[j] = (tx ^ (s ? 0xFFU : 0U)) << 56;
        if (s) s_prev |= std::uint64_t{1} << (8 * j + 7);
      }
      raw_prev = _mm512_load_si512(rq);
      tx_prev = _mm512_load_si512(tq);
    }
    // Every beat's predecessor byte, in the beat's position. (The maskz
    // forms: the unmasked shifts' undefined pass-through trips gcc 12's
    // -Wmaybe-uninitialized under -Werror.)
    const auto predecessors = [](__m512i cur, __m512i prev) {
      const __m512i carry =
          kLanes == 1 ? _mm512_maskz_alignr_epi64(0xFF, cur, prev, 7) : prev;
      return _mm512_or_si512(_mm512_maskz_slli_epi64(0xFF, cur, 8),
                             _mm512_maskz_srli_epi64(0xFF, carry, 56));
    };
    // Every beat's predecessor decision, in the beat's bit.
    const auto prev_decisions = [](std::uint64_t s, std::uint64_t carry) {
      return kLanes == 1 ? (s << 1) | (carry >> 63)
                         : ((s << 1) & kLFE) | ((carry >> 7) & kL01);
    };

    alignas(64) std::uint8_t gbuf[64];
    alignas(64) std::uint64_t zq[8];
    alignas(64) std::uint64_t tq[8];
    __m512i zsum = zero;
    __m512i tsum = zero;
    const std::uint8_t* p = bytes;
    for (std::size_t i = 0; i < bursts; i += 8, p += std::size_t{64} * stride) {
      const __m512i v = load_beats64(p, stride, gbuf);
      const __m512i pop = byte_popcount512(v);
      const std::uint64_t dc = _mm512_cmple_epu8_mask(pop, _mm512_set1_epi8(3));
      std::uint64_t s = kRaw ? 0 : dc;
      if (!kRaw && rule != Fixed8Rule::kDc) {
        const __m512i h =
            byte_popcount512(_mm512_xor_si512(v, predecessors(v, raw_prev)));
        const std::uint64_t g =
            _mm512_cmp_epu8_mask(h, _mm512_set1_epi8(5), _MM_CMPINT_NLT);
        if (rule == Fixed8Rule::kAcDc)
          s = kernels::bytewise_prefix_xor((g & ~kL01) | (dc & kL01));
        else if (kLanes == 1)
          s = prefix_xor64(g) ^ (std::uint64_t{0} - (s_prev >> 63));
        else
          s = kernels::bytewise_prefix_xor(g) ^
              (((s_prev >> 7) & kL01) * 0xFFU);
      }

      // Stats as in encode_reset, with the carried predecessors in
      // place of the all-ones boundary.
      const auto k = static_cast<__mmask64>(s);
      const __m512i tx = _mm512_xor_si512(v, _mm512_movm_epi8(k));
      const __m512i zb = _mm512_mask_blend_epi8(
          k, _mm512_sub_epi8(eight, pop), _mm512_add_epi8(pop, one));
      const __m512i dq_t =
          byte_popcount512(_mm512_xor_si512(tx, predecessors(tx, tx_prev)));
      const std::uint64_t dbi_t = s ^ prev_decisions(s, s_prev);
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
          *r = BurstResult{(s >> (8 * j)) & 0xFFU,
                           dbi::BurstStats{static_cast<int>(zq[j]),
                                           static_cast<int>(tq[j])}};
      }
      raw_prev = v;
      tx_prev = tx;
      s_prev = s;
    }

    if (bursts > 0) store_lane_states(lanes, tx_prev, s_prev);
    return sum_stats(zsum, tsum);
  }

  /// Leaves each lane at its last burst's line values after a vector
  /// loop whose final block transmitted `tx` with decisions `s64`
  /// (burst j in qword j): one lane ends at qword 7, eight lanes at
  /// qword j for lane (first_lane + j) % 8.
  static void store_lane_states(const LaneStates& lanes, __m512i tx,
                                std::uint64_t s64) {
    alignas(64) std::uint64_t txq[8];
    _mm512_store_si512(txq, tx);
    const auto last = [&](int j) {
      return dbi::Beat{static_cast<dbi::Word>(txq[j] >> 56),
                       ((s64 >> (8 * j + 7)) & 1U) == 0};
    };
    if (lanes.lanes == 1) {
      lanes.at(0).last = last(7);
      return;
    }
    for (int j = 0; j < 8; ++j)
      lanes.at((lanes.first_lane + j) % 8).last = last(j);
  }

  /// Total stats of a vector loop's per-qword zero / transition sums
  /// (not _mm512_reduce_add_epi64, for the same gcc 12 warning).
  static dbi::BurstStats sum_stats(__m512i zsum, __m512i tsum) {
    alignas(64) std::uint64_t zq[8];
    alignas(64) std::uint64_t tq[8];
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
                                      const LaneStates& lanes,
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

    if (bursts > 0) store_lane_states(lanes, tx, s64);
    return sum_stats(zsum, tsum);
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

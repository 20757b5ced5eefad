// Kernel registry: runtime-dispatched variants of the engine's hot
// width-8 paths.
//
// The engine's inner loops — the width-8 SWAR batch encode, the strided
// wide byte-group kernels, the per-burst OPT / OPT-Fixed trellis, and
// the flag-masked XOR decode — exist in several implementations: the
// portable SWAR reference ("swar", always available) and explicit-SIMD
// variants (AVX2 / AVX-512 / NEON), each compiled in its own TU with
// per-file -m flags so the binary stays portable. A KernelVariant names
// one implementation, declares the ISA it needs and the envelope (rule,
// burst length, state policy, interleaved lane count) its vector loops
// accept, and exposes the four entry points BatchEncoder/BatchDecoder
// dispatch through. Outside a variant's envelope the caller falls back
// to the portable reference, so every geometry works under every
// variant and results are bit-exact by construction (the SIMD TUs reuse
// the portable kernels for their tails).
//
// Selection: default_kernel() picks the highest-priority variant whose
// ISA the host CPU reports (__builtin_cpu_supports / getauxval), unless
// the DBI_KERNEL environment variable overrides it by name ("swar"
// forces the portable reference everywhere — CI uses this to run the
// whole tier-1 suite under each compiled-in variant). The public
// surface (dbi::available_kernels(), SessionSpec::kernel,
// Session::kernel_report(), dbitool --kernel / kernels) sits on top of
// this registry; see src/api/kernels.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/cost.hpp"
#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "core/types.hpp"

namespace dbi::engine {

/// Compact encode result for one burst: the per-beat inversion
/// decisions plus the zero / transition counts against the pre-burst
/// bus state (DBI line included for every scheme except RAW).
struct BurstResult {
  std::uint64_t invert_mask = 0;
  dbi::BurstStats stats;

  friend constexpr bool operator==(const BurstResult&, const BurstResult&) =
      default;
};

/// Instruction-set requirement of a kernel variant.
enum class KernelIsa { kPortable, kAvx2, kAvx512, kNeon };

[[nodiscard]] std::string_view isa_name(KernelIsa isa);

/// Whether the host CPU can execute `isa` (cached CPUID / hwcap probe;
/// kPortable is always true).
[[nodiscard]] bool isa_available(KernelIsa isa);

/// The per-burst decision rule of the width-8 fixed-scheme kernels.
enum class Fixed8Rule { kRaw, kDc, kAc, kAcDc };

/// Maps a Scheme to its fixed width-8 rule; empty for the trellis
/// schemes (see TrellisRule) and the exhaustive ablation.
[[nodiscard]] constexpr std::optional<Fixed8Rule> fixed8_rule(
    dbi::Scheme scheme) {
  switch (scheme) {
    case dbi::Scheme::kRaw:
      return Fixed8Rule::kRaw;
    case dbi::Scheme::kDc:
      return Fixed8Rule::kDc;
    case dbi::Scheme::kAc:
      return Fixed8Rule::kAc;
    case dbi::Scheme::kAcDc:
      return Fixed8Rule::kAcDc;
    default:
      return std::nullopt;
  }
}

/// The shortest-path (trellis) schemes of the width-8 trellis entry:
/// DBI OPT with real alpha / beta weights, and DBI OPT (Fixed) with the
/// synthesised encoder's alpha = beta = 1.
enum class TrellisRule { kOpt, kOptFixed };

/// Maps a Scheme to its trellis rule; empty for every other scheme.
[[nodiscard]] constexpr std::optional<TrellisRule> trellis_rule(
    dbi::Scheme scheme) {
  switch (scheme) {
    case dbi::Scheme::kOpt:
      return TrellisRule::kOpt;
    case dbi::Scheme::kOptFixed:
      return TrellisRule::kOptFixed;
    default:
      return std::nullopt;
  }
}

/// The lane interleave of one encode_fixed8 call: burst i of the call
/// belongs to lane (first_lane + i) % lanes, and lane l threads (or,
/// under per-burst reset, ends at) states[l * state_stride]. The state
/// stride lets one group's lanes sit in a group-minor lanes x groups
/// array (StreamEncoder's layout: stride groups(), span starting at the
/// group's lane-0 entry). Converts implicitly from a single BusState —
/// one lane, the plain contiguous-stream contract.
struct LaneStates {
  LaneStates(dbi::BusState& state)  // NOLINT(google-explicit-constructor)
      : states(&state, 1) {}
  LaneStates(std::span<dbi::BusState> lane_states, int lane_count,
             int first, std::size_t stride = 1)
      : states(lane_states),
        lanes(lane_count),
        first_lane(first),
        state_stride(stride) {}

  /// Lane `lane`'s state (0 <= lane < lanes).
  [[nodiscard]] dbi::BusState& at(int lane) const {
    return states[static_cast<std::size_t>(lane) * state_stride];
  }
  /// The interleave of the same stream `bursts` bursts further on.
  [[nodiscard]] LaneStates advanced(std::size_t bursts) const {
    LaneStates next = *this;
    next.first_lane = static_cast<int>(
        (static_cast<std::size_t>(first_lane) + bursts) %
        static_cast<std::size_t>(lanes));
    return next;
  }

  std::span<dbi::BusState> states;  ///< >= (lanes - 1) * state_stride + 1
  int lanes = 1;
  int first_lane = 0;  ///< 0 <= first_lane < lanes
  std::size_t state_stride = 1;
};

/// One implementation of the engine's hot width-8 paths.
///
/// Entry-point contracts (callers check the supports_* envelope first;
/// the portable reference supports everything):
///
///   encode_fixed8: encodes `bursts` consecutive width-8 bursts of
///   `burst_length` beats each, beat t of burst i read from
///   bytes[(i * burst_length + t) * stride] (stride 1 = the packed
///   narrow layout, stride = groups() = one group slice of a wide
///   beat-major payload). Burst i belongs to lane (first_lane + i) %
///   lanes of `lanes` (see LaneStates; one lane is a plain contiguous
///   stream). Without `reset_per_burst` each lane's state threads
///   through that lane's bursts exactly like the SWAR reference
///   threading a single state through the lane's bursts alone. With
///   it, every burst starts from the all-ones bus state (DQ 0xFF, DBI
///   high: BusState::all_ones of a width-8 group, the paper's
///   Section II boundary), so bursts are independent and the entry
///   states are ignored. Either way each lane's state ends at its last
///   burst's line values; lanes that get no burst keep their state
///   untouched. Writes burst i's result to results[i * results_stride]
///   when `results` is non-null (call order, whatever the lane), and
///   returns the summed stats. Every variant accepts every lane count;
///   supports_fixed8_lanes says which ones its vector loops take.
///
///   encode_trellis8: the same byte layout, state, results and
///   results_stride contract as encode_fixed8, for the trellis schemes:
///   every burst gets the mask the scalar solver (core/trellis.hpp)
///   finds from the burst's entry state — the all-ones state under
///   `reset_per_burst`, else the previous burst's line values. kOpt
///   uses `weights` with the solver's double operation order, so masks
///   match it bit-exactly even on tie-prone weights; kOptFixed ignores
///   `weights` and solves at alpha = beta = 1.
///
///   decode_fixed8: byte-per-beat masked-XOR decode (BusConfig widths
///   1..8): XORs dq_mask into every flagged beat of each burst; `out`
///   may alias `tx` exactly. Beats outside dq_mask throw (width < 8).
///
///   decode_wide8: the groups()==8 wide fast path, in place over the
///   beat-major payload (8 bytes per beat, burst_length beats per
///   burst, 8 masks per burst in group order).
class KernelVariant {
 public:
  virtual ~KernelVariant() = default;

  KernelVariant() = default;
  KernelVariant(const KernelVariant&) = delete;
  KernelVariant& operator=(const KernelVariant&) = delete;

  /// Registry name, e.g. "swar" / "avx2-fixed8" / "avx512-fixed8".
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual KernelIsa isa() const = 0;
  /// Human-readable envelope summary for listings and error messages.
  [[nodiscard]] virtual std::string_view envelope() const = 0;

  // --- envelope checks: callers dispatch only when these return true
  [[nodiscard]] virtual bool supports_fixed8(Fixed8Rule rule,
                                             int burst_length) const = 0;
  [[nodiscard]] virtual bool supports_decode8(
      const dbi::BusConfig& cfg) const = 0;
  [[nodiscard]] virtual bool supports_decode_wide8(int burst_length) const = 0;
  [[nodiscard]] virtual bool supports_trellis8(int burst_length,
                                               bool reset_per_burst) const = 0;
  /// Whether encode_fixed8 runs `lanes` interleaved lanes in its
  /// vector loops (outside, it still returns the reference results via
  /// the portable per-burst interleave). Implies supports_fixed8.
  [[nodiscard]] virtual bool supports_fixed8_lanes(Fixed8Rule rule,
                                                   int burst_length,
                                                   int lanes) const = 0;

  // --- entry points
  virtual dbi::BurstStats encode_fixed8(Fixed8Rule rule,
                                        const std::uint8_t* bytes,
                                        std::size_t bursts, int burst_length,
                                        int stride, bool reset_per_burst,
                                        const LaneStates& lanes,
                                        BurstResult* results,
                                        std::size_t results_stride) const = 0;
  virtual dbi::BurstStats encode_trellis8(
      TrellisRule rule, const dbi::CostWeights& weights,
      const std::uint8_t* bytes, std::size_t bursts, int burst_length,
      int stride, bool reset_per_burst, dbi::BusState& state,
      BurstResult* results, std::size_t results_stride) const = 0;
  virtual void decode_fixed8(const std::uint8_t* tx,
                             const std::uint64_t* masks, std::size_t bursts,
                             const dbi::BusConfig& cfg,
                             std::uint8_t* out) const = 0;
  virtual void decode_wide8(std::uint8_t* data, const std::uint64_t* masks,
                            std::size_t bursts, int burst_length) const = 0;
};

/// Every variant compiled into this binary, selection priority order
/// (most specialised first); the portable reference is always last.
[[nodiscard]] std::span<const KernelVariant* const> registered_kernels();

/// The always-available SWAR / bit-plane reference variant ("swar").
[[nodiscard]] const KernelVariant& portable_kernel();

/// Looks a variant up by registry name; nullptr when no compiled-in
/// variant has that name.
[[nodiscard]] const KernelVariant* find_kernel(std::string_view name);

/// Resolves a user-facing selection: "auto" (or empty) is the process
/// default (default_kernel(), so DBI_KERNEL applies); any other name
/// must match a compiled-in variant whose ISA is available. Throws
/// std::invalid_argument naming the candidates otherwise.
[[nodiscard]] const KernelVariant& resolve_kernel(std::string_view name);

/// The process-wide default: the variant DBI_KERNEL names when the
/// environment override is set (to anything but "auto"), else the
/// highest-priority variant the host CPU supports.
[[nodiscard]] const KernelVariant& default_kernel();

/// "swar, avx2-fixed8 (unavailable: needs avx2), ..." — the candidate
/// list misuse errors embed.
[[nodiscard]] std::string kernel_candidates();

}  // namespace dbi::engine

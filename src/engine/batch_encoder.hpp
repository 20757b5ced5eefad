// BatchEncoder: line-rate batch encoding of burst streams.
//
// The scalar dbi::Encoder hierarchy encodes one burst per virtual call
// and materialises a heap-allocated EncodedBurst each time — ideal for
// the figure reproductions, far too slow for serving traffic. The
// engine encodes whole streams instead:
//
//   * DC / AC / ACDC are decided bit-parallel on packed 64-bit lane
//     words (8 beats of a byte lane per machine word) using SWAR
//     popcounts and a prefix-XOR to resolve the AC decision recurrence
//     — no per-bit loops anywhere (byte-lane groups, width == 8).
//   * Every other width (1..32) runs the fixed schemes through a
//     bit-plane kernel: the burst is transposed into one 64-bit plane
//     per DQ line (bit i = beat i), per-beat popcounts come from
//     bit-sliced vertical counters, and the whole burst's inversion
//     decisions fall out of a handful of whole-word compares — no
//     scalar fallback for any fixed scheme at any geometry.
//   * OPT / OPT (Fixed) run through a flat, allocation-free trellis
//     kernel that keeps both path metrics in registers and the
//     predecessor bits in two 64-bit masks, instead of rebuilding
//     vector-backed trellis state per burst.
//   * Only the exhaustive-search ablation falls back to the scalar
//     encoder; every Scheme is supported and bit-exact at every width.
//
// Every packed entry point takes the one bus shape, dbi::Geometry: a
// narrow bus is its single group, a wide bus (up to 64 DQ lines) a set
// of byte groups with one DBI line each, exactly like a x16/x32/x64
// device. encode_packed runs the kernels above for one group directly
// over the beat-major packed payload (a wide group's bytes read at
// stride groups(), zero widening pass), threading that group's
// BusState. engine::StreamEncoder shards (lane, group) units across a
// ShardPool, so a single wide lane still parallelises groups()-way.
//
// Results are compact BurstResult records (inversion mask + stats), not
// EncodedBursts: callers that need the physical beats call
// materialize(). Callers thread one BusState per lane (and group);
// StreamEncoder does so for whole interleaved streams.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "api/geometry.hpp"
#include "core/cost.hpp"
#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "core/types.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::obs {
class Observer;
}  // namespace dbi::obs

namespace dbi::engine {

class BatchEncoder {
 public:
  /// Engine for one scheme. `w` parameterises kOpt / kExhaustive and is
  /// ignored by the fixed schemes (same contract as dbi::make_encoder).
  explicit BatchEncoder(dbi::Scheme scheme, const dbi::CostWeights& w = {});

  BatchEncoder(const BatchEncoder&) = delete;
  BatchEncoder& operator=(const BatchEncoder&) = delete;

  [[nodiscard]] dbi::Scheme scheme() const { return scheme_; }
  [[nodiscard]] std::string_view name() const;

  /// The kernel variant serving this encoder's hot width-8 fixed-scheme
  /// and trellis paths (encode_packed on full byte groups).
  /// Defaults to the registry's auto selection (CPUID detection plus
  /// the DBI_KERNEL environment override); geometries outside the
  /// variant's envelope fall back to the portable "swar" reference, so
  /// results are bit-exact under every variant. The bit-plane paths
  /// always run the portable kernels.
  void set_kernel(const KernelVariant& kernel) { kernel_ = &kernel; }
  [[nodiscard]] const KernelVariant& kernel() const { return *kernel_; }

  /// Attaches per-variant dispatch / fallback counters to the hot
  /// encode paths (nullptr detaches; the observer must outlive the
  /// engine or be detached first).
  void set_observer(const obs::Observer* obs) { obs_ = obs; }

  /// The scalar encoder the engine is bit-exact against (also the
  /// slow-path implementation). Lets engine-backed callers expose a
  /// dbi::Encoder without constructing a second one.
  [[nodiscard]] const dbi::Encoder& scalar_twin() const { return *fallback_; }

  /// Encodes one burst against `state` and advances `state` to the
  /// post-burst line values. Bit-exact vs the scalar encoder.
  [[nodiscard]] BurstResult encode(const dbi::Burst& data,
                                   dbi::BusState& state) const;

  /// Flat-buffer variant for callers that keep payloads out of Burst
  /// objects: `words` holds consecutive bursts back to back (burst i is
  /// words[i * cfg.burst_length ... (i+1) * cfg.burst_length)), every
  /// word already inside cfg.dq_mask(). Threads `state` through all
  /// bursts in order, writes one BurstResult per burst to `results`
  /// when it is non-null, and returns the summed stats.
  dbi::BurstStats encode_words(std::span<const dbi::Word> words,
                               const dbi::BusConfig& cfg,
                               dbi::BusState& state,
                               BurstResult* results = nullptr) const;

  /// Whether encode_packed takes `lanes` interleaved lanes of a full
  /// width-8 group in one in-place call at the selected variant's
  /// vector rate: this scheme has a fixed width-8 rule inside the
  /// variant's supports_fixed8_lanes envelope. Lanes that do not
  /// interleave must be gathered apart by the caller.
  [[nodiscard]] bool interleaves(int burst_length, int lanes) const;

  /// Packed-byte encode of one group — the streaming unit (trace
  /// replay, Session, StreamEncoder's shards). `bytes` holds
  /// consecutive bursts in the binary trace format's payload layout at
  /// `geometry` (bytes_per_burst() bytes each, beat-major); group
  /// `group`'s beats are read in place: the whole bytes_per_beat()-byte
  /// little-endian beat of a narrow bus, byte `group` at stride
  /// groups() of a wide one. Beats outside the group's dq_mask() throw.
  /// Threads `state` through the bursts in order; with
  /// `reset_per_burst` every burst starts from the group's all-ones
  /// boundary instead (the paper's), and `state` still ends at the last
  /// burst's line values. Burst i's result goes to
  /// results[i * results_stride] when `results` is non-null. `state`
  /// may also be several interleaved lanes (LaneStates,
  /// encode_fixed8's contract) when the group is a full byte and
  /// interleaves(burst_length, lanes) holds; otherwise more than one
  /// lane throws std::invalid_argument.
  dbi::BurstStats encode_packed(std::span<const std::uint8_t> bytes,
                                const dbi::Geometry& geometry, int group,
                                const LaneStates& state,
                                BurstResult* results = nullptr,
                                std::size_t results_stride = 1,
                                bool reset_per_burst = false) const;

  /// Reconstructs the full physical burst for callers that need beats.
  [[nodiscard]] dbi::EncodedBurst materialize(const dbi::Burst& data,
                                              const BurstResult& r) const;

 private:
  /// Shared dispatch: `original` is the Burst backing `words` when the
  /// caller has one (the scalar fallback needs it), nullptr otherwise.
  BurstResult encode_span(std::span<const dbi::Word> words,
                          const dbi::BusConfig& cfg, dbi::BusState& state,
                          const dbi::Burst* original) const;

  /// Width-8 byte-group dispatch (every scheme but kExhaustive): beat t
  /// of burst i at bytes[(i * burst_length + t) * stride], through the
  /// selected variant's encode_fixed8 / encode_trellis8, or the
  /// portable reference outside its envelope.
  dbi::BurstStats encode_group8(const std::uint8_t* bytes, std::size_t bursts,
                                int burst_length, int stride,
                                const LaneStates& state, BurstResult* results,
                                std::size_t results_stride,
                                bool reset_per_burst) const;

  /// Throws unless `state` is one lane or this scheme has a fixed
  /// rule and the group is a full byte (the only interleaved encode the
  /// kernels provide).
  void check_lanes(const LaneStates& state, int group_width,
                   const char* entry) const;

  dbi::Scheme scheme_;
  dbi::CostWeights weights_;
  std::unique_ptr<dbi::Encoder> fallback_;  // scalar twin / slow path
  const KernelVariant* kernel_;             // never null
  const obs::Observer* obs_ = nullptr;      // dispatch counters; nullable
};

}  // namespace dbi::engine

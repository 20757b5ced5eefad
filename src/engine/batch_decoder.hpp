// BatchDecoder: line-rate receive side of the DBI code — the SWAR /
// bit-plane twin of BatchEncoder for the decode direction.
//
// The receiver is scheme-blind: every scheme of the family (DC, AC,
// ACDC, OPT, the ablations) transmits value-domain beats with the DBI
// line low on inverted beats, so recovering the payload is one
// flag-masked XOR per beat — the paper's core asymmetry (a trellis to
// encode, an inverter and a handful of XOR gates to decode; see
// hw/hw_dbi_decoder.cpp for the gate-level model this mirrors). DBI AC
// *decides* in the transition domain, but that decision is resolved at
// the transmitter and already folded into the inversion mask; the
// receive path re-derives nothing. The per-scheme parity tests prove
// this against EncodedBurst::decode for every scheme and geometry.
//
// Kernels, all behind one decode_packed over a dbi::Geometry:
//   * byte groups (one byte per beat: a narrow bus of <= 8 lines, the
//     trace format's 1-byte-per-beat layout) decode 8 beats per 64-bit
//     XOR: the mask bits spread to 0xFF lane bytes with one multiply,
//     so a burst costs two loads, two logic ops and a store;
//   * the x64 fast path (8 full byte groups, beat-major) transposes the
//     8 group masks into per-beat XOR words (8x8 bit transpose +
//     bit->byte spread);
//   * every other geometry — 2- and 4-byte narrow beats, other group
//     counts, remainder groups — XORs each group's dq_mask() into its
//     flagged beats' little-endian bytes in place (validating that
//     transmitted beats fit the group, like encode_packed).
//
// Because the conditional XOR is an involution, the same kernels apply
// masks in the encode direction (payload -> transmitted stream):
// apply_packed is the documented alias Session and the encoded-trace
// sink use to materialise the wire stream.
//
// Decoding threads no line state, so bursts are independent and a
// ShardPool splits any call into contiguous burst ranges (results are
// identical with or without a pool).
#pragma once

#include <cstdint>
#include <span>

#include "api/geometry.hpp"
#include "core/burst.hpp"
#include "core/types.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"

namespace dbi::engine {

class BatchDecoder {
 public:
  BatchDecoder() : kernel_(&default_kernel()) {}

  /// The kernel variant serving the hot decode paths (byte-per-beat
  /// lanes and the x64 fast path). Defaults to the
  /// registry's auto selection; geometries outside the variant's
  /// envelope fall back to the portable "swar" reference, so decode is
  /// bit-exact under every variant.
  void set_kernel(const KernelVariant& kernel) { kernel_ = &kernel; }
  [[nodiscard]] const KernelVariant& kernel() const { return *kernel_; }

  /// Attaches per-variant dispatch / fallback counters to the hot
  /// decode paths (nullptr detaches; the observer must outlive the
  /// decoder or be detached first).
  void set_observer(const obs::Observer* obs) { obs_ = obs; }

  /// Recovers the payload of `tx` (packed transmitted bursts in the
  /// binary trace layout at `geometry`: bytes_per_burst() bytes each,
  /// beat-major) given one inversion mask per (burst, group) pair,
  /// burst-major / group-minor — the engine's BurstResult order and the
  /// trace mask-stream order. `out` must be tx.size() bytes and may
  /// alias `tx` exactly (decode in place). Transmitted beats outside a
  /// group's dq_mask() and mask bits at or beyond burst_length throw.
  /// With a pool, contiguous burst ranges decode on different workers.
  void decode_packed(std::span<const std::uint8_t> tx,
                     std::span<const std::uint64_t> masks,
                     const dbi::Geometry& geometry,
                     std::span<std::uint8_t> out,
                     ShardPool* pool = nullptr) const;

  /// Encode-direction alias: the conditional lane XOR is an
  /// involution, so applying masks to a payload yields the transmitted
  /// stream through the very same kernels.
  void apply_packed(std::span<const std::uint8_t> payload,
                    std::span<const std::uint64_t> masks,
                    const dbi::Geometry& geometry,
                    std::span<std::uint8_t> out,
                    ShardPool* pool = nullptr) const {
    decode_packed(payload, masks, geometry, out, pool);
  }

  /// Scalar reference twin (the pre-engine receive path): materialises
  /// the physical beats as an EncodedBurst and decodes per beat. The
  /// exhaustive ablation and the parity tests hold the kernels to this.
  [[nodiscard]] static dbi::Burst decode_scalar(
      const dbi::BusConfig& cfg, std::span<const dbi::Word> tx,
      std::uint64_t mask);

 private:
  void decode_range(std::span<const std::uint8_t> tx,
                    std::span<const std::uint64_t> masks,
                    const dbi::Geometry& geometry,
                    std::span<std::uint8_t> out) const;

  const KernelVariant* kernel_;         // never null
  const obs::Observer* obs_ = nullptr;  // dispatch counters; nullable
};

}  // namespace dbi::engine

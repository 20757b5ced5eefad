// libFuzzer target: differential encode -> decode round trip. The
// input bytes pick a scheme (and, for kOpt, a weight pair from a
// tie-prone table), geometry, kernel variant, state policy
// (threaded, or the kernels' own per-burst reset), a lane interleave
// (1 lane, 8 lanes or another count, and the first burst's lane — the
// fixed schemes on full byte groups thread one state per lane inside
// the kernel call; every other draw runs one lane) and payload, and
// drive the engine's one dbi::Geometry entry points (a drawn wide
// width of at most 8 lines is the one-group geometry). The properties
// under test are
//   decode(apply(payload, encode(payload))) == payload   (identity)
// for the engine kernels at every geometry the bytes can reach,
// bit-exact parity of the drawn kernel variant against the portable
// "swar" reference (masks, stats, threaded state, decoded bytes — the
// SIMD differential), plus scalar-reference parity on a bounded prefix
// of the stream. A mismatch aborts; sanitizers catch UB.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <span>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"

namespace {

using namespace dbi;

constexpr Scheme kSchemes[] = {Scheme::kRaw,  Scheme::kDc,
                               Scheme::kAc,   Scheme::kAcDc,
                               Scheme::kOpt,  Scheme::kOptFixed};

/// kOpt weight pairs, drawn by data[0] / 6: the historical default
/// first (so older seeds keep their meaning), then tie-prone pairs whose
/// path-metric sums round differently under a fused multiply-add, and
/// the degenerate pure-DC / pure-AC / extreme-magnitude corners.
constexpr CostWeights kWeights[] = {
    {0.56, 0.44}, {0.1, 0.1},   {1.0 / 3.0, 2.0 / 3.0}, {0.3, 0.2},
    {0.0, 1.0},   {1.0, 0.0},   {0.7, 0.1},             {1e-300, 1e-300},
    {1e300, 1e300}};

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_roundtrip_diff: %s\n", what);
  std::abort();
}

/// The lane interleave a fuzz byte draws: 1 lane, 8 lanes (the two
/// counts the vector loops take) or 2..7 (the portable interleave), and
/// the lane of the call's first burst.
struct LaneDraw {
  int lanes = 1;
  int first = 0;
};

LaneDraw draw_lanes(std::uint8_t byte) {
  LaneDraw d;
  switch (byte % 3) {
    case 0:
      d.lanes = 1;
      break;
    case 1:
      d.lanes = 8;
      break;
    default:
      d.lanes = 2 + (byte / 3) % 6;
      break;
  }
  d.first = (byte / 18) % d.lanes;
  return d;
}

/// Whether a call over `bursts` bursts gives lane `lane` any burst
/// (lanes without one keep their entry state).
bool lane_touched(const LaneDraw& d, std::size_t lane, std::size_t bursts) {
  const auto lanes = static_cast<std::size_t>(d.lanes);
  return (lane + lanes - static_cast<std::size_t>(d.first)) % lanes < bursts;
}

/// Picks a registered kernel variant from a fuzz byte; unavailable ISAs
/// (corpus replayed on a smaller host) degrade to the portable
/// reference so every input keeps exercising the full pipeline.
const engine::KernelVariant& draw_kernel(std::uint8_t byte) {
  const auto kernels = engine::registered_kernels();
  const engine::KernelVariant* k = kernels[byte % kernels.size()];
  return engine::isa_available(k->isa()) ? *k : engine::portable_kernel();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 5) return 0;
  const Scheme scheme = kSchemes[data[0] % 6];
  const CostWeights weights = kWeights[data[0] / 6 % std::size(kWeights)];
  const bool wide = (data[3] & 1) != 0;
  const bool reset = (data[3] & 2) != 0;
  const engine::KernelVariant& variant = draw_kernel(data[3] >> 2);
  const int width = wide ? 1 + data[1] % 64 : 1 + data[1] % 32;
  const int bl = 1 + data[2] % 64;
  LaneDraw lanes = draw_lanes(data[4]);
  // Interleaved lanes exist for the fixed schemes on full byte groups.
  if (!engine::fixed8_rule(scheme) || width % 8 != 0 || (!wide && width != 8))
    lanes = LaneDraw{};
  const auto lane_count = static_cast<std::size_t>(lanes.lanes);
  data += 5;
  size -= 5;

  engine::BatchEncoder engine(scheme, weights);
  engine.set_kernel(variant);
  engine::BatchEncoder swar(scheme, weights);
  swar.set_kernel(engine::portable_kernel());
  engine::BatchDecoder decoder;
  decoder.set_kernel(variant);
  engine::BatchDecoder swar_decoder;
  swar_decoder.set_kernel(engine::portable_kernel());
  const auto scalar = make_encoder(scheme, weights);

  if (!wide) {
    const BusConfig cfg{width, bl};
    const Geometry geometry = cfg;
    const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
    const auto bpb = static_cast<std::size_t>(cfg.bytes_per_beat());
    const std::size_t bursts = size / bb;
    if (bursts == 0) return 0;
    std::vector<std::uint8_t> payload(data, data + bursts * bb);
    for (std::size_t t = 0; t < payload.size() / bpb; ++t)
      for (std::size_t b = 0; b < bpb; ++b)
        payload[t * bpb + b] &=
            static_cast<std::uint8_t>(cfg.dq_mask() >> (8 * b));

    std::vector<engine::BurstResult> results(bursts);
    std::vector<engine::BurstResult> ref_results(bursts);
    std::vector<std::uint64_t> masks(bursts);
    // Under reset the variant's kernel restarts every burst itself
    // (the vector blocks and the tail alike), so the entry states must
    // not matter: hand the two encoders different ones.
    const BusState entry =
        reset ? BusState::all_zeros() : BusState::all_ones(cfg);
    std::vector<BusState> states(lane_count, entry);
    std::vector<BusState> ref_states(lane_count, BusState::all_ones(cfg));
    (void)engine.encode_packed(
        payload, geometry, 0,
        engine::LaneStates(states, lanes.lanes, lanes.first), results.data(),
        1, reset);
    (void)swar.encode_packed(
        payload, geometry, 0,
        engine::LaneStates(ref_states, lanes.lanes, lanes.first),
        ref_results.data(), 1, reset);
    if (results != ref_results)
      fail("narrow kernel variant diverges from the portable reference");
    for (std::size_t l = 0; l < lane_count; ++l)
      if (!(states[l] == (lane_touched(lanes, l, bursts) ? ref_states[l]
                                                          : entry)))
        fail("narrow kernel variant leaves a diverged line state");
    for (std::size_t i = 0; i < bursts; ++i) masks[i] = results[i].invert_mask;

    std::vector<std::uint8_t> tx(payload.size());
    decoder.apply_packed(payload, masks, geometry, tx);
    std::vector<std::uint8_t> out(payload.size());
    decoder.decode_packed(tx, masks, geometry, out);
    if (out != payload) fail("narrow engine round trip is not identity");
    std::vector<std::uint8_t> swar_out(payload.size());
    swar_decoder.decode_packed(tx, masks, geometry, swar_out);
    if (swar_out != out)
      fail("narrow decode variant diverges from the portable reference");

    // Scalar-reference parity on a bounded prefix (four bursts per
    // lane), each burst threading its own lane's state.
    const std::size_t check = bursts < 4 * lane_count ? bursts : 4 * lane_count;
    std::vector<BusState> sstates(lane_count, BusState::all_ones(cfg));
    std::vector<Word> words(static_cast<std::size_t>(bl));
    for (std::size_t i = 0; i < check; ++i) {
      BusState& sstate =
          sstates[(static_cast<std::size_t>(lanes.first) + i) % lane_count];
      if (reset) sstate = BusState::all_ones(cfg);
      for (int t = 0; t < bl; ++t) {
        Word w = 0;
        for (std::size_t b = 0; b < bpb; ++b)
          w |= static_cast<Word>(
                   payload[i * bb + static_cast<std::size_t>(t) * bpb + b])
               << (8 * b);
        words[static_cast<std::size_t>(t)] = w;
      }
      const Burst burst(cfg, words);
      const EncodedBurst e = scalar->encode(burst, sstate);
      if (e.inversion_mask() != masks[i])
        fail("engine mask diverges from the scalar reference");
      if (!(e.decode() == burst)) fail("scalar decode is not identity");
      sstate = e.final_state();
    }
    return 0;
  }

  // A wide bus of at most 8 lines is the one-group (narrow) geometry;
  // its payload layout is the same one byte per beat.
  const WideBusConfig cfg{width, bl};
  const Geometry geometry = cfg;
  const int groups = cfg.groups();
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const std::size_t bursts = size / bb;
  if (bursts == 0) return 0;
  std::vector<std::uint8_t> payload(data, data + bursts * bb);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] &= static_cast<std::uint8_t>(
        cfg.group_mask(static_cast<int>(i % static_cast<std::size_t>(groups))));

  std::vector<engine::BurstResult> results(
      bursts * static_cast<std::size_t>(groups));
  std::vector<engine::BurstResult> ref_results(results.size());
  // lanes x groups states, group-minor (StreamEncoder's layout).
  const auto stride = static_cast<std::size_t>(groups);
  std::vector<BusState> states(lane_count * stride);
  std::vector<BusState> ref_states(states.size());
  for (std::size_t u = 0; u < states.size(); ++u)
    states[u] = ref_states[u] =
        BusState::all_ones(cfg.group_config(static_cast<int>(u % stride)));
  // Group by group, as StreamEncoder shards a wide stream; under reset
  // each group slice restarts every burst inside the kernel.
  for (int g = 0; g < groups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    if (reset)
      for (std::size_t l = 0; l < lane_count; ++l)
        states[l * stride + gi] = BusState::all_zeros();
    (void)engine.encode_packed(
        payload, geometry, g,
        engine::LaneStates(std::span<BusState>(states).subspan(gi),
                           lanes.lanes, lanes.first, stride),
        results.data() + gi, stride, reset);
    (void)swar.encode_packed(
        payload, geometry, g,
        engine::LaneStates(std::span<BusState>(ref_states).subspan(gi),
                           lanes.lanes, lanes.first, stride),
        ref_results.data() + gi, stride, reset);
  }
  if (results != ref_results)
    fail("wide kernel variant diverges from the portable reference");
  for (std::size_t u = 0; u < states.size(); ++u) {
    const BusState entry =
        reset ? BusState::all_zeros()
              : BusState::all_ones(
                    cfg.group_config(static_cast<int>(u % stride)));
    if (!(states[u] ==
          (lane_touched(lanes, u / stride, bursts) ? ref_states[u] : entry)))
      fail("wide kernel variant leaves a diverged group state");
  }
  std::vector<std::uint64_t> masks(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    masks[i] = results[i].invert_mask;

  std::vector<std::uint8_t> tx(payload.size());
  decoder.apply_packed(payload, masks, geometry, tx);
  std::vector<std::uint8_t> out(payload.size());
  decoder.decode_packed(tx, masks, geometry, out);
  if (out != payload) fail("wide engine round trip is not identity");
  std::vector<std::uint8_t> swar_out(payload.size());
  swar_decoder.decode_packed(tx, masks, geometry, swar_out);
  if (swar_out != out)
    fail("wide decode variant diverges from the portable reference");
  return 0;
}

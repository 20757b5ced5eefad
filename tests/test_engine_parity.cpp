// The engine's contract: BatchEncoder is a bit-exact drop-in for the
// scalar Encoder hierarchy for every Scheme — same inversion masks, same
// zero/transition stats, same threaded bus state — on random streams,
// across geometries, fast path and fallback alike.
#include <gtest/gtest.h>

#include <vector>

#include "core/encoder.hpp"
#include "engine/batch_encoder.hpp"
#include "test_util.hpp"

namespace dbi {
namespace {

constexpr Scheme kAllSchemes[] = {
    Scheme::kRaw, Scheme::kDc,       Scheme::kAc,         Scheme::kAcDc,
    Scheme::kOpt, Scheme::kOptFixed, Scheme::kExhaustive,
};

/// Chains `bursts` through both the scalar encoder and the engine and
/// asserts identical masks, stats and threaded state at every step.
void expect_parity(Scheme scheme, const CostWeights& w, const BusConfig& cfg,
                   int bursts, std::uint64_t seed) {
  const auto scalar = make_encoder(scheme, w);
  const engine::BatchEncoder batch(scheme, w);

  BusState scalar_state = BusState::all_ones(cfg);
  BusState engine_state = BusState::all_ones(cfg);
  for (int i = 0; i < bursts; ++i) {
    const Burst data = test::random_burst(cfg, seed + static_cast<std::uint64_t>(i));

    const EncodedBurst e = scalar->encode(data, scalar_state);
    const BurstStats want = e.stats(scalar_state);
    scalar_state = e.final_state();

    const engine::BurstResult got = batch.encode(data, engine_state);
    ASSERT_EQ(got.invert_mask, e.inversion_mask())
        << scheme_name(scheme) << " burst " << i << " width " << cfg.width
        << " bl " << cfg.burst_length;
    ASSERT_EQ(got.stats, want) << scheme_name(scheme) << " burst " << i;
    ASSERT_EQ(engine_state, scalar_state)
        << scheme_name(scheme) << " state after burst " << i;
  }
}

TEST(EngineParity, ByteLaneFastPathsAllSchemes) {
  for (Scheme s : kAllSchemes)
    expect_parity(s, CostWeights{0.56, 0.44}, BusConfig{8, 8}, 200, 1);
}

TEST(EngineParity, BurstLengthSweep) {
  // Exercises partial SWAR chunks (bl % 8 != 0) and multi-chunk carries.
  for (int bl : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64}) {
    const BusConfig cfg{8, bl};
    for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                     Scheme::kOpt, Scheme::kOptFixed})
      expect_parity(s, CostWeights{0.3, 0.7}, cfg, 50,
                    static_cast<std::uint64_t>(bl) * 1000);
  }
}

TEST(EngineParity, NonByteWidthsUseExactFallbacksAndKernels) {
  // Odd and wide geometries: fixed schemes fall back to scalar, the
  // trellis kernel runs natively — both must stay exact.
  for (int width : {1, 3, 5, 7, 9, 16, 31, 32}) {
    const BusConfig cfg{width, 6};
    for (Scheme s : kAllSchemes)
      expect_parity(s, CostWeights{0.5, 0.5}, cfg, 30,
                    static_cast<std::uint64_t>(width) * 777);
  }
}

TEST(EngineParity, OptAcrossTieProneWeights) {
  // Degenerate and tie-heavy weights stress the comparator ordering of
  // the flat kernel against the reference DP.
  const CostWeights weights[] = {{0.0, 1.0}, {1.0, 0.0}, {0.5, 0.5},
                                 {1.0, 1.0}, {0.56, 0.44}, {1e-9, 1.0}};
  for (const CostWeights& w : weights) {
    expect_parity(Scheme::kOpt, w, BusConfig{8, 8}, 120, 42);
    expect_parity(Scheme::kOpt, w, BusConfig{8, 16}, 60, 43);
  }
}

TEST(EngineParity, EncodeLaneMatchesPerBurstEncode) {
  const BusConfig cfg{8, 8};
  const std::vector<Burst> bursts = test::random_bursts(cfg, 100, 9);
  const engine::BatchEncoder batch(Scheme::kAcDc);

  BusState a = BusState::all_ones(cfg);
  BusState b = BusState::all_ones(cfg);
  std::vector<engine::BurstResult> lane_results(bursts.size());
  const BurstStats totals = batch.encode_packed(
      test::pack_bursts(bursts), cfg, 0, a, lane_results.data());

  BurstStats want_totals;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const engine::BurstResult r = batch.encode(bursts[i], b);
    EXPECT_EQ(lane_results[i], r) << "burst " << i;
    want_totals += r.stats;
  }
  EXPECT_EQ(totals, want_totals);
  EXPECT_EQ(a, b);
}

TEST(EngineParity, BoundaryTotalsMatchScalarBoundaryLoop) {
  const BusConfig cfg{8, 8};
  const BusState boundary = BusState::all_ones(cfg);
  const std::vector<Burst> bursts = test::random_bursts(cfg, 200, 31);
  for (Scheme s : {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc,
                   Scheme::kOpt, Scheme::kOptFixed}) {
    const CostWeights w{0.56, 0.44};
    const auto scalar = make_encoder(s, w);
    BurstStats want;
    for (const Burst& b : bursts)
      want += scalar->encode(b, boundary).stats(boundary);
    const engine::BatchEncoder batch(s, w);
    BusState state = boundary;
    EXPECT_EQ(batch.encode_packed(test::pack_bursts(bursts), cfg, 0, state,
                                  nullptr, 1, /*reset_per_burst=*/true),
              want)
        << scheme_name(s);
  }
}

TEST(EngineParity, MaterializeReconstructsThePhysicalBurst) {
  const BusConfig cfg{8, 8};
  for (Scheme s : {Scheme::kRaw, Scheme::kAc, Scheme::kOptFixed}) {
    const auto scalar = make_encoder(s);
    const engine::BatchEncoder batch(s);
    BusState scalar_state = BusState::all_ones(cfg);
    BusState engine_state = BusState::all_ones(cfg);
    for (int i = 0; i < 20; ++i) {
      const Burst data = test::random_burst(cfg, 500 + static_cast<std::uint64_t>(i));
      const EncodedBurst want = scalar->encode(data, scalar_state);
      const engine::BurstResult r = batch.encode(data, engine_state);
      const EncodedBurst got = batch.materialize(data, r);
      ASSERT_EQ(got.beats().size(), want.beats().size());
      for (int t = 0; t < got.length(); ++t)
        EXPECT_EQ(got.beat(t), want.beat(t)) << scheme_name(s) << " beat " << t;
      EXPECT_EQ(got.uses_dbi_line(), want.uses_dbi_line());
      EXPECT_EQ(got.decode(), data);
      scalar_state = want.final_state();
    }
  }
}

TEST(EngineParity, NoisyWrapperIsDeterministicUnderFixedSeed) {
  // The decision-noise wrapper must replay bit-identically for a fixed
  // (seed, call sequence) — the property batch replays rely on.
  const BusConfig cfg{8, 8};
  const CostWeights w{0.56, 0.44};
  const auto a = make_noisy_encoder(make_opt_encoder(w), 0.25, 99);
  const auto b = make_noisy_encoder(make_opt_encoder(w), 0.25, 99);
  const auto other_seed = make_noisy_encoder(make_opt_encoder(w), 0.25, 100);
  const BusState boundary = BusState::all_ones(cfg);

  bool any_difference = false;
  for (int i = 0; i < 100; ++i) {
    const Burst data = test::random_burst(cfg, 700 + static_cast<std::uint64_t>(i));
    const EncodedBurst ea = a->encode(data, boundary);
    const std::uint64_t ma = ea.inversion_mask();
    const std::uint64_t mb = b->encode(data, boundary).inversion_mask();
    EXPECT_EQ(ma, mb) << "burst " << i;
    any_difference |=
        ma != other_seed->encode(data, boundary).inversion_mask();
    // Noise never breaks decodability.
    EXPECT_EQ(ea.decode(), data);
  }
  EXPECT_TRUE(any_difference) << "different seeds should diverge somewhere";
}

}  // namespace
}  // namespace dbi

// Adaptive per-chunk scheme selection ("mixed-block" coding) suite:
// the SchemePolicy API and its SessionSpec::scheme shim, exact-mode
// per-block optimality (bit-exact against fixed-scheme Sessions forced
// on each block), the strict mixed-corpus win over every single fixed
// scheme, trace format v3 round-trip / decode / verify with v2
// byte-identity preserved, malformed-tag rejection, and predicted-mode
// determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "api/verify.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace dbi;

// ------------------------------------------------------------ helpers

/// Packs `bursts` bursts of a named corpus scenario at narrow x8 BL8
/// into the beat-major packed layout (one byte per beat).
std::vector<std::uint8_t> corpus_packed(std::string_view scenario,
                                        int bursts, std::uint64_t seed) {
  const BusConfig cfg{8, 8};
  const auto source = workload::make_corpus_source(scenario, cfg, seed);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(bursts) * 8);
  for (int i = 0; i < bursts; ++i) {
    const Burst b = source->next();
    for (int t = 0; t < b.length(); ++t)
      bytes.push_back(static_cast<std::uint8_t>(b.word(t)));
  }
  return bytes;
}

/// The kEnergy block cost over a whole run, in StreamStats terms.
double energy(const StreamStats& s, const CostWeights& w = {}) {
  return w.alpha * static_cast<double>(s.transitions) +
         w.beta * static_cast<double>(s.zeros);
}

/// Runs a fixed-scheme session over `payload` and returns its totals.
StreamStats run_fixed(Scheme scheme, std::span<const std::uint8_t> payload,
                      StatePolicy state = StatePolicy::kResetPerBurst,
                      std::vector<engine::BurstResult>* results = nullptr) {
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(scheme);
  spec.state_policy = state;
  Session session(spec);
  const auto source = make_packed_source(payload);
  if (!results) return session.run(*source);
  const auto sink = make_result_sink(*results);
  return session.run(*source, *sink);
}

/// One adaptive block as delivered to the sink.
struct CapturedBlock {
  std::int64_t first_burst = 0;
  std::int64_t bursts = 0;
  std::optional<Scheme> scheme;
  std::vector<std::uint8_t> payload;
  std::vector<engine::BurstResult> results;
};

class CaptureSink final : public Sink {
 public:
  [[nodiscard]] bool wants_results() const override { return true; }
  [[nodiscard]] bool wants_payload() const override { return true; }
  void consume(const SinkChunk& chunk) override {
    CapturedBlock b;
    b.first_burst = chunk.first_burst;
    b.bursts = chunk.bursts;
    b.scheme = chunk.scheme;
    b.payload.assign(chunk.payload.begin(), chunk.payload.end());
    b.results.assign(chunk.results.begin(), chunk.results.end());
    blocks.push_back(std::move(b));
  }
  std::vector<CapturedBlock> blocks;
};

SessionSpec adaptive_spec(SchemePolicy policy,
                          StatePolicy state = StatePolicy::kResetPerBurst) {
  SessionSpec spec;
  spec.policy = std::move(policy);
  spec.state_policy = state;
  return spec;
}

/// Records `payload` through an adaptive session into an encoded mixed
/// (v3) trace image.
std::vector<std::uint8_t> record_mixed_trace(
    const SessionSpec& spec, std::span<const std::uint8_t> payload) {
  std::ostringstream os;
  trace::TraceWriterOptions opt;
  opt.encoded = true;
  opt.per_chunk_schemes = true;
  opt.enc_lanes = 1;
  opt.enc_policy = spec.state_policy == StatePolicy::kResetPerBurst ? 1 : 0;
  trace::TraceWriter writer(os, BusConfig{8, 8}, opt);
  Session session(spec);
  const auto source = make_packed_source(payload);
  const auto sink = make_encoded_trace_sink(writer);
  session.run(*source, *sink);
  writer.finish();
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

/// The selection report JSON and run totals of one seeded, threaded,
/// predicted-mode session: "mixed" at x8 or "float-tensor" at x64.
std::string predicted_fingerprint(bool wide, int lanes, CostModel model) {
  std::vector<std::uint8_t> payload;
  SessionSpec spec;
  if (wide) {
    const WideBusConfig cfg{64, 8};
    payload.resize(static_cast<std::size_t>(cfg.bytes_per_burst()) * 600);
    workload::fill_wide_corpus("float-tensor", cfg, 23, payload);
    spec.geometry = cfg;
  } else {
    payload = corpus_packed("mixed", 3000, 19);
    spec.geometry = Geometry::narrow(8, 8);
  }
  auto policy = SchemePolicy::adaptive_predicted(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, model,
      /*probe_interval=*/3);
  policy.set_block_bursts(wide ? 40 : 100);
  spec.policy = policy;
  spec.lanes = lanes;
  spec.state_policy = StatePolicy::kThread;
  Session session(spec);
  const auto source = make_packed_source(payload);
  const StreamStats totals = session.run(*source);
  return session.report().selection.to_json() +
         " bursts=" + std::to_string(totals.bursts) +
         " zeros=" + std::to_string(totals.zeros) +
         " transitions=" + std::to_string(totals.transitions);
}

// ------------------------------------------------- SchemePolicy API

TEST(SchemePolicy, DefaultIsFixedOpt) {
  const SchemePolicy p;
  EXPECT_EQ(p.mode(), SchemePolicy::Mode::kFixed);
  EXPECT_FALSE(p.adaptive());
  EXPECT_EQ(p.fixed_scheme(), Scheme::kOpt);
  EXPECT_EQ(p.describe(), "fixed(opt)");

  // A default-constructed SessionSpec encodes with the optimal scheme.
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 256, 3);
  SessionSpec opt;
  opt.policy = SchemePolicy::fixed(Scheme::kOpt);
  Session by_default{SessionSpec{}};
  Session pinned(opt);
  EXPECT_EQ(by_default.scheme_name(), pinned.scheme_name());
  const auto a = make_packed_source(payload);
  const auto b = make_packed_source(payload);
  EXPECT_EQ(by_default.run(*a), pinned.run(*b));
}

TEST(SchemePolicy, BareSchemeConvertsToFixed) {
  SessionSpec spec;
  spec.policy = Scheme::kDc;  // implicit shim
  EXPECT_EQ(spec.policy.mode(), SchemePolicy::Mode::kFixed);
  EXPECT_EQ(spec.policy.fixed_scheme(), Scheme::kDc);
  EXPECT_EQ(spec.policy.describe(), "fixed(dc)");
}

TEST(SchemePolicy, DescribeUsesShortSlugs) {
  EXPECT_EQ(scheme_slug(Scheme::kAcDc), "acdc");
  EXPECT_EQ(scheme_slug(Scheme::kOptFixed), "opt-fixed");
  const auto p = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOpt});
  EXPECT_EQ(p.describe(), "adaptive-exact(dc,ac,acdc,opt; cost=transitions)");
  const auto q = SchemePolicy::adaptive_predicted({Scheme::kDc, Scheme::kAc},
                                                  CostModel::kEnergy);
  EXPECT_EQ(q.describe(), "adaptive-predicted(dc,ac; cost=energy)");
}

TEST(SchemePolicy, ValidateRejectsBadConfigs) {
  EXPECT_THROW(SchemePolicy::adaptive_exact({Scheme::kDc}).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kDc}).validate(),
      std::invalid_argument);
  EXPECT_THROW(SchemePolicy::adaptive_exact().set_block_bursts(0).validate(),
               std::invalid_argument);
  EXPECT_THROW(SchemePolicy::adaptive_predicted({Scheme::kDc, Scheme::kAc},
                                                CostModel::kTransitions, 0)
                   .validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(SchemePolicy::adaptive_exact().validate());
}

TEST(SchemePolicy, FixedPolicyNamesItsScheme) {
  SessionSpec spec;
  spec.policy = SchemePolicy::fixed(Scheme::kAc);
  Session session(spec);
  EXPECT_EQ(session.scheme_name(), "DBI AC");
}

TEST(SchemePolicy, AdaptiveSessionGuards) {
  SessionSpec spec = adaptive_spec(SchemePolicy::adaptive_exact());
  spec.direction = Direction::kDecode;
  EXPECT_THROW(Session{spec}, std::invalid_argument);

  Session session(adaptive_spec(SchemePolicy::adaptive_exact()));
  EXPECT_EQ(session.scheme_name(), "adaptive-exact");
  const std::vector<std::uint8_t> data(64, 0);
  EXPECT_THROW(session.write(data), std::logic_error);
}

// ------------------------------------------------- exact-mode optimality

TEST(AdaptiveExact, PicksPerBlockMinimumBitExactly) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 11);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy);
  policy.set_block_bursts(64);
  Session session(adaptive_spec(policy));
  const auto source = make_packed_source(payload);
  CaptureSink capture;
  const StreamStats totals = session.run(*source, capture);
  ASSERT_EQ(capture.blocks.size(), 8u);

  StreamStats summed;
  for (const CapturedBlock& block : capture.blocks) {
    ASSERT_TRUE(block.scheme.has_value());
    ASSERT_EQ(block.results.size(),
              static_cast<std::size_t>(block.bursts));
    double best = std::numeric_limits<double>::infinity();
    double chosen = std::numeric_limits<double>::infinity();
    for (const Scheme s : policy.candidates()) {
      // With kResetPerBurst every block is history-free, so forcing
      // the scheme on the block alone reproduces the selector's trial.
      std::vector<engine::BurstResult> forced;
      const StreamStats st = run_fixed(s, block.payload,
                                       StatePolicy::kResetPerBurst, &forced);
      const double cost = energy(st);
      best = std::min(best, cost);
      if (s == *block.scheme) {
        chosen = cost;
        EXPECT_EQ(block.results, forced)
            << "winner masks differ at burst " << block.first_burst;
        summed += st;
      }
    }
    EXPECT_EQ(chosen, best) << "block at burst " << block.first_burst
                            << " did not pick the cheapest scheme";
  }
  EXPECT_EQ(totals.bursts, summed.bursts);
  EXPECT_EQ(totals.zeros, summed.zeros);
  EXPECT_EQ(totals.transitions, summed.transitions);
}

// The paper-level claim this PR reproduces: on a block-heterogeneous
// stream, mixed-block coding strictly beats EVERY single fixed scheme.
TEST(AdaptiveExact, StrictlyBeatsBestFixedSchemeOnMixedCorpus) {
  const std::vector<Scheme> candidates{Scheme::kDc, Scheme::kAc};
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1536, 3);
  Session session(adaptive_spec(
      SchemePolicy::adaptive_exact(candidates, CostModel::kEnergy)));
  const auto source = make_packed_source(payload);
  const StreamStats totals = session.run(*source);
  const double adaptive_cost = energy(totals);

  double best_fixed = std::numeric_limits<double>::infinity();
  for (const Scheme s : candidates)
    best_fixed = std::min(best_fixed, energy(run_fixed(s, payload)));
  EXPECT_LT(adaptive_cost, best_fixed)
      << "mixed-block coding must strictly beat the best fixed scheme";

  const select::SelectionReport& report = session.selection_report();
  EXPECT_EQ(report.mode, SchemePolicy::Mode::kAdaptiveExact);
  EXPECT_EQ(report.bursts, 1536);
  EXPECT_DOUBLE_EQ(report.selected_cost, adaptive_cost);
  // In exact mode each candidate's trial_cost is its forced-everywhere
  // cost, so best_trial_cost reproduces the best fixed baseline.
  EXPECT_DOUBLE_EQ(report.best_trial_cost, best_fixed);
  EXPECT_GT(report.cost_ratio_vs_best_fixed(), 1.0);
  ASSERT_EQ(report.candidates.size(), candidates.size());
  std::int64_t chosen_blocks = 0;
  for (const auto& c : report.candidates) {
    EXPECT_EQ(c.trial_blocks, report.blocks);
    EXPECT_GT(c.blocks_chosen, 0) << "both schemes must win some phase";
    chosen_blocks += c.blocks_chosen;
  }
  EXPECT_EQ(chosen_blocks, report.blocks);
}

// ------------------------------------------------- trace format v3

TEST(TraceV3, MixedTraceRoundTripsDecodesAndVerifies) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1024, 7);
  auto policy = SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kAc},
                                             CostModel::kEnergy);
  policy.set_block_bursts(256);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);

  ASSERT_GT(image.size(), 32u);
  EXPECT_EQ(image[4], trace::kFormatVersionMixed);  // header version byte

  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_EQ(reader.header().version, trace::kFormatVersionMixed);
  EXPECT_TRUE(reader.header().mixed());
  EXPECT_EQ(reader.header().enc_scheme, trace::kEncSchemeMixed);
  EXPECT_EQ(reader.bursts(), 1024);

  std::vector<bool> seen(8, false);
  int distinct = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const trace::ChunkInfo& info = reader.chunk(c);
    ASSERT_TRUE(info.has_scheme_tag());
    const auto tagged = scheme_from_tag(info.scheme_tag);
    ASSERT_TRUE(tagged.has_value());
    if (!seen[info.scheme_tag]) {
      seen[info.scheme_tag] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 2) << "the mixed corpus must produce >= 2 tags";

  // Decode the transmitted stream back to the original payload.
  SessionSpec decode_spec;
  decode_spec.direction = Direction::kDecode;
  Session decoder(decode_spec);
  const auto source = make_trace_source(reader);
  std::vector<std::uint8_t> recovered;
  const auto sink = make_payload_sink(recovered);
  decoder.run(*source, *sink);
  EXPECT_EQ(recovered, payload);

  // Self-describing verify: clean, and no single-scheme override.
  const VerifyReport verdict = verify_encoded_trace(reader);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.bursts, 1024);
  VerifyOptions override_scheme;
  override_scheme.scheme = Scheme::kAc;
  EXPECT_THROW(verify_encoded_trace(reader, override_scheme),
               std::invalid_argument);
}

TEST(TraceV3, ThreadedMixedTraceVerifiesAcrossChunkBoundaries) {
  // Persistent line state threads the bus history across blocks of
  // different schemes; verify must reproduce that exact history.
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 768, 21);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image = record_mixed_trace(
      adaptive_spec(policy, StatePolicy::kThread), payload);
  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_TRUE(reader.header().mixed());
  EXPECT_TRUE(verify_encoded_trace(reader).ok());
}

TEST(TraceV3, FixedPolicyTraceStaysByteIdenticalV2) {
  const std::vector<std::uint8_t> payload =
      corpus_packed("cacheline-memcpy", 512, 5);
  const auto record = [&](const SessionSpec& spec) {
    std::ostringstream os;
    trace::TraceWriterOptions opt;
    opt.encoded = true;
    opt.enc_scheme = scheme_to_tag(Scheme::kAc);
    opt.enc_lanes = 1;
    opt.enc_policy = 1;
    trace::TraceWriter writer(os, BusConfig{8, 8}, opt);
    Session session(spec);
    const auto source = make_packed_source(payload);
    const auto sink = make_encoded_trace_sink(writer);
    session.run(*source, *sink);
    writer.finish();
    return os.str();
  };

  SessionSpec bare;  // a bare Scheme converts to fixed()
  bare.policy = Scheme::kAc;
  bare.state_policy = StatePolicy::kResetPerBurst;
  SessionSpec via_policy;
  via_policy.policy = SchemePolicy::fixed(Scheme::kAc);
  via_policy.state_policy = StatePolicy::kResetPerBurst;

  const std::string a = record(bare);
  const std::string b = record(via_policy);
  EXPECT_EQ(a, b) << "the policy shim must not change a single byte";
  ASSERT_GT(a.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(a[4]), trace::kFormatVersion);
}

TEST(TraceV3, RejectsMalformedSchemeTags) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 9);
  auto policy = SchemePolicy::adaptive_exact({Scheme::kDc, Scheme::kAc},
                                             CostModel::kEnergy);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);

  // First chunk header at file offset 32: "CHNK" + burst_count u32 +
  // flags u32 (little-endian; scheme tag lives in flag bits 8..15).
  constexpr std::size_t kFlagsByte = 32 + 8;
  constexpr std::size_t kTagByte = 32 + 9;
  ASSERT_TRUE(image[kFlagsByte] & trace::kChunkFlagSchemeTag);
  ASSERT_GE(image[kTagByte], 1);

  auto tampered = [&](auto&& mutate) {
    std::vector<std::uint8_t> copy = image;
    mutate(copy);
    // verify_crc off so the tag validation itself is what rejects.
    return trace::TraceReader::from_bytes(std::move(copy),
                                          /*verify_crc=*/false);
  };
  // Tag value 0 (flag present, tag missing).
  EXPECT_THROW(tampered([&](auto& c) { c[kTagByte] = 0; }),
               trace::TraceError);
  // Tag out of the 1..7 scheme range.
  EXPECT_THROW(tampered([&](auto& c) { c[kTagByte] = 8; }),
               trace::TraceError);
  // Tag bits without the scheme-tag flag.
  EXPECT_THROW(
      tampered([&](auto& c) {
        c[kFlagsByte] =
            static_cast<std::uint8_t>(c[kFlagsByte] &
                                      ~trace::kChunkFlagSchemeTag);
      }),
      trace::TraceError);
  // And the CRC catches any of these when left on.
  {
    std::vector<std::uint8_t> copy = image;
    copy[kTagByte] = 0;
    EXPECT_THROW(trace::TraceReader::from_bytes(std::move(copy)),
                 trace::TraceError);
  }
}

// ------------------------------------------------- predicted mode

TEST(AdaptivePredicted, DeterministicAcrossRuns) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1280, 13);
  auto policy = SchemePolicy::adaptive_predicted(
      {Scheme::kDc, Scheme::kAc, Scheme::kAcDc}, CostModel::kEnergy,
      /*probe_interval=*/4);
  policy.set_block_bursts(64);

  const auto run_once = [&](StreamStats& totals,
                            select::SelectionReport& report) {
    Session session(adaptive_spec(policy));
    const auto source = make_packed_source(payload);
    totals = session.run(*source);
    report = session.selection_report();
  };
  StreamStats t1, t2;
  select::SelectionReport r1, r2;
  run_once(t1, r1);
  run_once(t2, r2);

  EXPECT_EQ(t1, t2);
  EXPECT_EQ(r1.mode, SchemePolicy::Mode::kAdaptivePredicted);
  EXPECT_EQ(r1.blocks, 20);
  EXPECT_EQ(r1.probes, r2.probes);
  EXPECT_EQ(r1.probe_hits, r2.probe_hits);
  EXPECT_DOUBLE_EQ(r1.selected_cost, r2.selected_cost);
  EXPECT_GT(r1.probes, 0);
  EXPECT_GE(r1.accuracy(), 0.0);
  EXPECT_LE(r1.accuracy(), 1.0);
  EXPECT_EQ(r1.to_json(), r2.to_json());
}

TEST(AdaptivePredicted, ReportsPinnedAcrossGeometriesLanesAndCostModels) {
  // Pinned outputs: the predicted model's features (histogram, zero
  // mass, toggle density, entropy) and the engine paths under it must
  // keep every selection, cost and total bit-identical.
  struct Case {
    bool wide;
    int lanes;
    CostModel model;
    const char* expected;
  };
  const Case cases[] = {
      {false, 1, CostModel::kTransitions,
       R"({"mode":"adaptive-predicted","cost_model":"transitions",)"
       R"("blocks":30,"bursts":3000,"selected_cost":59986,)"
       R"("best_trial_cost":19525,)"
       R"("cost_ratio_vs_best_fixed":0.3254926149434868,"probes":9,)"
       R"("probe_hits":9,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":10,)"
       R"("trial_cost":26089,"chosen_cost":0},{"scheme":"ac",)"
       R"("blocks_chosen":30,"bursts_chosen":3000,"trial_blocks":10,)"
       R"("trial_cost":19525,"chosen_cost":59986},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":10,)"
       R"("trial_cost":20813,)"
       R"("chosen_cost":0}]} bursts=3000 zeros=108144 transitions=59986)"},
      {false, 1, CostModel::kEnergy,
       R"({"mode":"adaptive-predicted","cost_model":"energy",)"
       R"("blocks":30,"bursts":3000,"selected_cost":145241,)"
       R"("best_trial_cost":47804,)"
       R"("cost_ratio_vs_best_fixed":0.32913571236771988,"probes":9,)"
       R"("probe_hits":7,"accuracy":0.77777777777777779,)"
       R"("candidates":[{"scheme":"dc","blocks_chosen":22,)"
       R"("bursts_chosen":2200,"trial_blocks":10,"trial_cost":47804,)"
       R"("chosen_cost":99279},{"scheme":"ac","blocks_chosen":7,)"
       R"("bursts_chosen":700,"trial_blocks":10,"trial_cost":53886,)"
       R"("chosen_cost":40289},{"scheme":"acdc","blocks_chosen":1,)"
       R"("bursts_chosen":100,"trial_blocks":10,"trial_cost":49275,)"
       R"("chosen_cost":5673}]} bursts=3000 zeros=73894 transitions=71347)"},
      {false, 1, CostModel::kBytes,
       R"({"mode":"adaptive-predicted","cost_model":"bytes",)"
       R"("blocks":30,"bursts":3000,"selected_cost":29377,)"
       R"("best_trial_cost":10018,)"
       R"("cost_ratio_vs_best_fixed":0.34101507982435236,"probes":9,)"
       R"("probe_hits":4,"accuracy":0.44444444444444442,)"
       R"("candidates":[{"scheme":"dc","blocks_chosen":7,)"
       R"("bursts_chosen":700,"trial_blocks":10,"trial_cost":11001,)"
       R"("chosen_cost":7651},{"scheme":"ac","blocks_chosen":12,)"
       R"("bursts_chosen":1200,"trial_blocks":10,"trial_cost":10018,)"
       R"("chosen_cost":10477},{"scheme":"acdc","blocks_chosen":11,)"
       R"("bursts_chosen":1100,"trial_blocks":10,"trial_cost":10652,)"
       R"("chosen_cost":11249}]} bursts=3000 zeros=100321 transitions=66737)"},
      {false, 8, CostModel::kTransitions,
       R"({"mode":"adaptive-predicted","cost_model":"transitions",)"
       R"("blocks":30,"bursts":3000,"selected_cost":59925,)"
       R"("best_trial_cost":19522,)"
       R"("cost_ratio_vs_best_fixed":0.32577388402169377,"probes":9,)"
       R"("probe_hits":9,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":10,)"
       R"("trial_cost":26112,"chosen_cost":0},{"scheme":"ac",)"
       R"("blocks_chosen":30,"bursts_chosen":3000,"trial_blocks":10,)"
       R"("trial_cost":19522,"chosen_cost":59925},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":10,)"
       R"("trial_cost":20815,)"
       R"("chosen_cost":0}]} bursts=3000 zeros=106080 transitions=59925)"},
      {false, 8, CostModel::kEnergy,
       R"({"mode":"adaptive-predicted","cost_model":"energy",)"
       R"("blocks":30,"bursts":3000,"selected_cost":145389,)"
       R"("best_trial_cost":47768,)"
       R"("cost_ratio_vs_best_fixed":0.32855305422005793,"probes":9,)"
       R"("probe_hits":7,"accuracy":0.77777777777777779,)"
       R"("candidates":[{"scheme":"dc","blocks_chosen":22,)"
       R"("bursts_chosen":2200,"trial_blocks":10,"trial_cost":47768,)"
       R"("chosen_cost":99164},{"scheme":"ac","blocks_chosen":5,)"
       R"("bursts_chosen":500,"trial_blocks":10,"trial_cost":51423,)"
       R"("chosen_cost":29081},{"scheme":"acdc","blocks_chosen":3,)"
       R"("bursts_chosen":300,"trial_blocks":10,"trial_cost":49218,)"
       R"("chosen_cost":17144}]} bursts=3000 zeros=73852 transitions=71537)"},
      {false, 8, CostModel::kBytes,
       R"({"mode":"adaptive-predicted","cost_model":"bytes",)"
       R"("blocks":30,"bursts":3000,"selected_cost":30058,)"
       R"("best_trial_cost":10041,)"
       R"("cost_ratio_vs_best_fixed":0.33405416195355647,"probes":9,)"
       R"("probe_hits":2,"accuracy":0.22222222222222221,)"
       R"("candidates":[{"scheme":"dc","blocks_chosen":7,)"
       R"("bursts_chosen":700,"trial_blocks":10,"trial_cost":11001,)"
       R"("chosen_cost":7651},{"scheme":"ac","blocks_chosen":14,)"
       R"("bursts_chosen":1400,"trial_blocks":10,"trial_cost":10041,)"
       R"("chosen_cost":13173},{"scheme":"acdc","blocks_chosen":9,)"
       R"("bursts_chosen":900,"trial_blocks":10,"trial_cost":10652,)"
       R"("chosen_cost":9234}]} bursts=3000 zeros=96647 transitions=66165)"},
      {true, 1, CostModel::kTransitions,
       R"({"mode":"adaptive-predicted","cost_model":"transitions",)"
       R"("blocks":15,"bursts":600,"selected_cost":107454,)"
       R"("best_trial_cost":35772,)"
       R"("cost_ratio_vs_best_fixed":0.3329052431738232,"probes":4,)"
       R"("probe_hits":4,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":44460,"chosen_cost":0},{"scheme":"ac",)"
       R"("blocks_chosen":15,"bursts_chosen":600,"trial_blocks":5,)"
       R"("trial_cost":35772,"chosen_cost":107454},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":37258,)"
       R"("chosen_cost":0}]} bursts=600 zeros=157038 transitions=107454)"},
      {true, 1, CostModel::kEnergy,
       R"({"mode":"adaptive-predicted","cost_model":"energy",)"
       R"("blocks":15,"bursts":600,"selected_cost":256068,)"
       R"("best_trial_cost":85061,)"
       R"("cost_ratio_vs_best_fixed":0.33218129559335802,"probes":4,)"
       R"("probe_hits":4,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":15,"bursts_chosen":600,"trial_blocks":5,)"
       R"("trial_cost":85061,"chosen_cost":256068},{"scheme":"ac",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":88169,"chosen_cost":0},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":87642,)"
       R"("chosen_cost":0}]} bursts=600 zeros=122246 transitions=133822)"},
      {true, 1, CostModel::kBytes,
       R"({"mode":"adaptive-predicted","cost_model":"bytes",)"
       R"("blocks":15,"bursts":600,"selected_cost":49198,)"
       R"("best_trial_cost":16404,)"
       R"("cost_ratio_vs_best_fixed":0.33342818813772918,"probes":4,)"
       R"("probe_hits":1,"accuracy":0.25,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":7,"bursts_chosen":280,"trial_blocks":5,)"
       R"("trial_cost":16413,"chosen_cost":22972},{"scheme":"ac",)"
       R"("blocks_chosen":1,"bursts_chosen":40,"trial_blocks":5,)"
       R"("trial_cost":16419,"chosen_cost":3273},{"scheme":"acdc",)"
       R"("blocks_chosen":7,"bursts_chosen":280,"trial_blocks":5,)"
       R"("trial_cost":16404,)"
       R"("chosen_cost":22953}]} bursts=600 zeros=138269 transitions=121717)"},
      {true, 8, CostModel::kTransitions,
       R"({"mode":"adaptive-predicted","cost_model":"transitions",)"
       R"("blocks":15,"bursts":600,"selected_cost":107478,)"
       R"("best_trial_cost":35776,)"
       R"("cost_ratio_vs_best_fixed":0.3328681218481922,"probes":4,)"
       R"("probe_hits":4,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":44475,"chosen_cost":0},{"scheme":"ac",)"
       R"("blocks_chosen":15,"bursts_chosen":600,"trial_blocks":5,)"
       R"("trial_cost":35776,"chosen_cost":107478},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":37309,)"
       R"("chosen_cost":0}]} bursts=600 zeros=157116 transitions=107478)"},
      {true, 8, CostModel::kEnergy,
       R"({"mode":"adaptive-predicted","cost_model":"energy",)"
       R"("blocks":15,"bursts":600,"selected_cost":255917,)"
       R"("best_trial_cost":85015,)"
       R"("cost_ratio_vs_best_fixed":0.33219754842390309,"probes":4,)"
       R"("probe_hits":4,"accuracy":1,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":15,"bursts_chosen":600,"trial_blocks":5,)"
       R"("trial_cost":85015,"chosen_cost":255917},{"scheme":"ac",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":88245,"chosen_cost":0},{"scheme":"acdc",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":87632,)"
       R"("chosen_cost":0}]} bursts=600 zeros=122246 transitions=133671)"},
      {true, 8, CostModel::kBytes,
       R"({"mode":"adaptive-predicted","cost_model":"bytes",)"
       R"("blocks":15,"bursts":600,"selected_cost":49198,)"
       R"("best_trial_cost":16404,)"
       R"("cost_ratio_vs_best_fixed":0.33342818813772918,"probes":4,)"
       R"("probe_hits":2,"accuracy":0.5,"candidates":[{"scheme":"dc",)"
       R"("blocks_chosen":7,"bursts_chosen":280,"trial_blocks":5,)"
       R"("trial_cost":16413,"chosen_cost":22972},{"scheme":"ac",)"
       R"("blocks_chosen":0,"bursts_chosen":0,"trial_blocks":5,)"
       R"("trial_cost":16431,"chosen_cost":0},{"scheme":"acdc",)"
       R"("blocks_chosen":8,"bursts_chosen":320,"trial_blocks":5,)"
       R"("trial_cost":16404,)"
       R"("chosen_cost":26226}]} bursts=600 zeros=137925 transitions=122152)"},
  };
  for (const Case& c : cases)
    EXPECT_EQ(predicted_fingerprint(c.wide, c.lanes, c.model), c.expected)
        << (c.wide ? "x64" : "x8") << " lanes " << c.lanes << " "
        << cost_model_name(c.model);
}

TEST(AdaptivePredicted, MixedTraceDecodesAndVerifies) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 1024, 17);
  auto policy = SchemePolicy::adaptive_predicted(
      {Scheme::kDc, Scheme::kAc}, CostModel::kEnergy, /*probe_interval=*/2);
  policy.set_block_bursts(128);
  const std::vector<std::uint8_t> image =
      record_mixed_trace(adaptive_spec(policy), payload);
  const auto reader = trace::TraceReader::from_bytes(image);
  EXPECT_TRUE(verify_encoded_trace(reader).ok());

  SessionSpec decode_spec;
  decode_spec.direction = Direction::kDecode;
  Session decoder(decode_spec);
  const auto source = make_trace_source(reader);
  std::vector<std::uint8_t> recovered;
  const auto sink = make_payload_sink(recovered);
  decoder.run(*source, *sink);
  EXPECT_EQ(recovered, payload);
}

// ------------------------------------------------- unified report

TEST(SessionReport, UnifiedReportCarriesSelectionAndMetrics) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 29);
  SessionSpec spec = adaptive_spec(SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc}, CostModel::kEnergy));
  spec.policy.set_block_bursts(128);
  spec.obs.level = obs::ObsLevel::kCounters;
  Session session(spec);
  const auto source = make_packed_source(payload);
  session.run(*source);

  const SessionReport report = session.report();
  EXPECT_TRUE(report.adaptive);
  EXPECT_EQ(report.scheme, "adaptive-exact");
  EXPECT_EQ(report.policy, "adaptive-exact(dc,ac; cost=energy)");
  EXPECT_EQ(report.selection.blocks, 4);
  EXPECT_EQ(report.selection.bursts, 512);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"policy\":\"adaptive-exact(dc,ac; cost=energy)\""),
            std::string::npos);
  EXPECT_NE(json.find("\"selection\":"), std::string::npos);
  EXPECT_NE(json.find("\"cost_model\":\"energy\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"dc\""), std::string::npos);
  // Per-scheme chosen-block counters land in the metrics registry.
  EXPECT_NE(json.find("dbi_select_chunks_total"), std::string::npos);
  EXPECT_NE(json.find("dbi_select_bursts_total"), std::string::npos);

  // Fixed sessions keep the report shape with adaptive off.
  SessionSpec fixed;
  fixed.policy = SchemePolicy::fixed(Scheme::kAc);
  Session plain(fixed);
  const SessionReport fr = plain.report();
  EXPECT_FALSE(fr.adaptive);
  EXPECT_EQ(fr.selection.blocks, 0);
  EXPECT_EQ(fr.policy, "fixed(ac)");
}

// ------------------------------------------------- cost model: bytes

TEST(AdaptiveExact, BytesCostModelRuns) {
  const std::vector<std::uint8_t> payload = corpus_packed("mixed", 512, 41);
  auto policy = SchemePolicy::adaptive_exact(
      {Scheme::kDc, Scheme::kAc, Scheme::kOpt}, CostModel::kBytes);
  policy.set_block_bursts(128);
  Session session(adaptive_spec(policy));
  const auto source = make_packed_source(payload);
  const StreamStats totals = session.run(*source);
  EXPECT_EQ(totals.bursts, 512);
  const select::SelectionReport& report = session.selection_report();
  EXPECT_EQ(report.cost_model, CostModel::kBytes);
  EXPECT_GT(report.selected_cost, 0.0);
  EXPECT_LE(report.selected_cost, report.best_trial_cost);
}

}  // namespace

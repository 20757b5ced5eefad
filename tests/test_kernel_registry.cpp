// The kernel registry's contract: resolution order and overrides are
// deterministic, misuse throws with the candidate list, and — the core
// guarantee — every compiled-in variant is bit-exact against the
// portable "swar" reference on every path: same masks, same stats, same
// threaded state, same decoded bytes, with or without a pool.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/kernels.hpp"
#include "api/session.hpp"
#include "core/encoder.hpp"
#include "core/trellis.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace dbi {
namespace {

using engine::KernelVariant;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Variants actually usable on this host (ISA present). Always contains
/// at least the portable reference.
std::vector<const KernelVariant*> usable_variants() {
  std::vector<const KernelVariant*> out;
  for (const KernelVariant* k : engine::registered_kernels())
    if (engine::isa_available(k->isa())) out.push_back(k);
  return out;
}

// ------------------------------------------------------------ resolution

TEST(KernelRegistry, PortableIsRegisteredLastAndAlwaysAvailable) {
  const auto kernels = engine::registered_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back(), &engine::portable_kernel());
  EXPECT_EQ(engine::portable_kernel().name(), "swar");
  EXPECT_TRUE(engine::isa_available(engine::KernelIsa::kPortable));
  // Priority order is most-specialised first: portable appears once,
  // at the end, so the auto scan always terminates on it.
  for (const KernelVariant* k : kernels.first(kernels.size() - 1))
    EXPECT_NE(k->isa(), engine::KernelIsa::kPortable) << k->name();
}

TEST(KernelRegistry, FindAndResolveByName) {
  for (const KernelVariant* k : engine::registered_kernels())
    EXPECT_EQ(engine::find_kernel(k->name()), k);
  EXPECT_EQ(engine::find_kernel("frobnicate"), nullptr);
  EXPECT_EQ(&engine::resolve_kernel("swar"), &engine::portable_kernel());
  // "" and "auto" resolve to the process default: the DBI_KERNEL
  // override when set, else the first variant whose ISA the host
  // reports (checked with the override cleared in EnvOverride... below).
  const KernelVariant& autok = engine::resolve_kernel("auto");
  EXPECT_EQ(&engine::resolve_kernel(""), &autok);
  EXPECT_EQ(&engine::default_kernel(), &autok);
}

TEST(KernelRegistry, UnknownNameThrowsWithCandidates) {
  try {
    static_cast<void>(engine::resolve_kernel("frobnicate"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("swar"), std::string::npos)
        << "candidate list missing: " << msg;
  }
}

/// Sets (or, with nullptr, clears) DBI_KERNEL for one scope and
/// restores the value the process started with, so a forced-kernel run
/// of the whole suite stays forced after the test.
class ScopedKernelEnv {
 public:
  explicit ScopedKernelEnv(const char* value) {
    if (const char* old = std::getenv("DBI_KERNEL")) saved_ = old;
    set(value);
  }
  ~ScopedKernelEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedKernelEnv(const ScopedKernelEnv&) = delete;
  ScopedKernelEnv& operator=(const ScopedKernelEnv&) = delete;

  static void set(const char* value) {
    if (value)
      setenv("DBI_KERNEL", value, 1);
    else
      unsetenv("DBI_KERNEL");
  }

 private:
  std::optional<std::string> saved_;
};

TEST(KernelRegistry, EnvOverrideForcesAndReleases) {
  // DBI_KERNEL is read per default_kernel() call, so a test can force
  // the portable reference (the SIMD force-off switch) and release it.
  // "auto" and "" follow the override.
  ScopedKernelEnv env("swar");
  EXPECT_EQ(&engine::default_kernel(), &engine::portable_kernel());
  EXPECT_EQ(&engine::resolve_kernel("auto"), &engine::portable_kernel());
  EXPECT_EQ(&engine::resolve_kernel(""), &engine::portable_kernel());
  ScopedKernelEnv::set("no-such-kernel");
  EXPECT_THROW(static_cast<void>(engine::default_kernel()),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(engine::resolve_kernel("auto")),
               std::invalid_argument);
  ScopedKernelEnv::set("auto");
  EXPECT_EQ(&engine::default_kernel(), usable_variants().front());
  ScopedKernelEnv::set(nullptr);
  EXPECT_EQ(&engine::default_kernel(), usable_variants().front());
  EXPECT_EQ(&engine::resolve_kernel("auto"), usable_variants().front());
}

TEST(KernelRegistry, AvailableKernelsMirrorsRegistry) {
  const std::vector<KernelInfo> infos = available_kernels();
  const auto kernels = engine::registered_kernels();
  ASSERT_EQ(infos.size(), kernels.size());
  int selected = 0;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, kernels[i]->name());
    EXPECT_EQ(infos[i].isa, engine::isa_name(kernels[i]->isa()));
    EXPECT_FALSE(infos[i].envelope.empty());
    if (infos[i].selected) {
      ++selected;
      EXPECT_TRUE(infos[i].available);
    }
  }
  EXPECT_EQ(selected, 1);
  EXPECT_TRUE(infos.back().available);  // the portable reference
}

// ------------------------------------------------------- encode parity

constexpr Scheme kFixedSchemes[] = {Scheme::kRaw, Scheme::kDc, Scheme::kAc,
                                    Scheme::kAcDc};

/// Narrow packed-stream parity: variant vs portable, same bytes, same
/// threaded state, burst by burst.
void expect_packed_parity(const KernelVariant& variant, Scheme scheme,
                          const BusConfig& cfg, int bursts, bool reset,
                          std::uint64_t seed) {
  engine::BatchEncoder ref(scheme);
  ref.set_kernel(engine::portable_kernel());
  engine::BatchEncoder dut(scheme);
  dut.set_kernel(variant);

  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const auto bytes =
      random_bytes(static_cast<std::size_t>(bursts) * bb, seed);
  std::vector<engine::BurstResult> want(static_cast<std::size_t>(bursts));
  std::vector<engine::BurstResult> got(static_cast<std::size_t>(bursts));

  BusState ref_state = BusState::all_ones(cfg);
  BusState dut_state = BusState::all_ones(cfg);
  BurstStats ref_totals, dut_totals;
  for (int i = 0; i < bursts; ++i) {
    if (reset) {
      ref_state = BusState::all_ones(cfg);
      dut_state = BusState::all_ones(cfg);
    }
    const std::span<const std::uint8_t> burst(bytes.data() +
                                                  static_cast<std::size_t>(i) *
                                                      bb,
                                              bb);
    ref_totals += ref.encode_packed(burst, cfg, 0, ref_state,
                                    want.data() + i);
    dut_totals += dut.encode_packed(burst, cfg, 0, dut_state,
                                    got.data() + i);
    ASSERT_EQ(got[static_cast<std::size_t>(i)].invert_mask,
              want[static_cast<std::size_t>(i)].invert_mask)
        << variant.name() << " " << scheme_name(scheme) << " burst " << i
        << " bl " << cfg.burst_length;
    ASSERT_EQ(got[static_cast<std::size_t>(i)].stats,
              want[static_cast<std::size_t>(i)].stats)
        << variant.name() << " " << scheme_name(scheme) << " burst " << i;
    ASSERT_EQ(dut_state, ref_state)
        << variant.name() << " " << scheme_name(scheme) << " state after "
        << i;
  }
  EXPECT_EQ(dut_totals, ref_totals);

  // Whole-stream call (the vector path sees 8+ bursts at once, with a
  // tail) must agree with the burst-by-burst loop above.
  if (!reset) {
    BusState stream_state = BusState::all_ones(cfg);
    std::vector<engine::BurstResult> stream(static_cast<std::size_t>(bursts));
    const BurstStats stream_totals =
        dut.encode_packed(bytes, cfg, 0, stream_state, stream.data());
    EXPECT_EQ(stream_totals, ref_totals) << variant.name();
    EXPECT_EQ(stream_state, ref_state) << variant.name();
    for (int i = 0; i < bursts; ++i) {
      ASSERT_EQ(stream[static_cast<std::size_t>(i)].invert_mask,
                want[static_cast<std::size_t>(i)].invert_mask)
          << variant.name() << " stream burst " << i;
      ASSERT_EQ(stream[static_cast<std::size_t>(i)].stats,
                want[static_cast<std::size_t>(i)].stats)
          << variant.name() << " stream burst " << i;
    }
  }
}

TEST(KernelParity, NarrowPackedAllVariantsSchemesPolicies) {
  for (const KernelVariant* v : usable_variants())
    for (Scheme s : kFixedSchemes)
      for (bool reset : {false, true}) {
        // In-envelope (bl 8) and envelope-fallback (bl 12) geometries;
        // 67 bursts leaves a 3-burst tail after the 8-wide blocks.
        expect_packed_parity(*v, s, BusConfig{8, 8}, 67, reset, 11);
        expect_packed_parity(*v, s, BusConfig{8, 12}, 20, reset, 13);
      }
}

/// Wide packed-stream parity (x12 exercises the remainder group, x16
/// and x64 the strided full-group kernels).
void expect_wide_parity(const KernelVariant& variant, Scheme scheme,
                        const WideBusConfig& cfg, int bursts,
                        std::uint64_t seed) {
  engine::BatchEncoder ref(scheme);
  ref.set_kernel(engine::portable_kernel());
  engine::BatchEncoder dut(scheme);
  dut.set_kernel(variant);

  const auto groups = static_cast<std::size_t>(cfg.groups());
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  auto bytes = random_bytes(static_cast<std::size_t>(bursts) * bb, seed);
  // Remainder-group bytes must fit the group's narrower mask.
  if (cfg.width % 8 != 0)
    for (std::size_t i = groups - 1; i < bytes.size(); i += groups)
      bytes[i] &= static_cast<std::uint8_t>(
          cfg.group_mask(cfg.groups() - 1));

  const std::size_t slots = static_cast<std::size_t>(bursts) * groups;
  std::vector<engine::BurstResult> want(slots), got(slots);
  std::vector<BusState> ref_states(groups), dut_states(groups);
  for (std::size_t g = 0; g < groups; ++g)
    ref_states[g] = dut_states[g] =
        BusState::all_ones(cfg.group_config(static_cast<int>(g)));

  const BurstStats want_totals =
      test::encode_groups(ref, bytes, cfg, ref_states, want.data());
  const BurstStats got_totals =
      test::encode_groups(dut, bytes, cfg, dut_states, got.data());
  EXPECT_EQ(got_totals, want_totals) << variant.name();
  for (std::size_t g = 0; g < groups; ++g)
    ASSERT_EQ(dut_states[g], ref_states[g]) << variant.name() << " group "
                                            << g;
  for (std::size_t i = 0; i < slots; ++i) {
    ASSERT_EQ(got[i].invert_mask, want[i].invert_mask)
        << variant.name() << " " << scheme_name(scheme) << " slot " << i;
    ASSERT_EQ(got[i].stats, want[i].stats)
        << variant.name() << " " << scheme_name(scheme) << " slot " << i;
  }
}

TEST(KernelParity, WidePackedAllVariantsAcrossGeometries) {
  for (const KernelVariant* v : usable_variants())
    for (Scheme s : kFixedSchemes) {
      expect_wide_parity(*v, s, WideBusConfig{12, 8}, 33, 17);
      expect_wide_parity(*v, s, WideBusConfig{16, 8}, 33, 19);
      expect_wide_parity(*v, s, WideBusConfig{64, 8}, 33, 23);
      expect_wide_parity(*v, s, WideBusConfig{64, 16}, 9, 29);
    }
}

// ------------------------------------------- per-burst reset kernels

/// The scalar core encoder's results for burst i of a width-8 group
/// slice (beat t at bytes[(i * bl + t) * stride]), each burst starting
/// from the all-ones state under `reset`, else threaded from `state`.
std::vector<engine::BurstResult> scalar_group_results(
    Scheme scheme, const std::uint8_t* bytes, std::size_t bursts, int bl,
    int stride, bool reset, BusState& state) {
  const BusConfig cfg{8, bl};
  const auto scalar = make_encoder(scheme);
  std::vector<engine::BurstResult> out;
  std::vector<Word> words(static_cast<std::size_t>(bl));
  for (std::size_t i = 0; i < bursts; ++i) {
    if (reset) state = BusState::all_ones(cfg);
    for (int t = 0; t < bl; ++t)
      words[static_cast<std::size_t>(t)] =
          bytes[(i * static_cast<std::size_t>(bl) +
                 static_cast<std::size_t>(t)) *
                static_cast<std::size_t>(stride)];
    const EncodedBurst e = scalar->encode(Burst(cfg, words), state);
    out.push_back({e.inversion_mask(), e.stats(state)});
    state = e.final_state();
  }
  return out;
}

TEST(KernelParity, Fixed8ResetAndStrideMatchSwarAndScalar) {
  // Every burst count up to two 8-wide vector blocks plus each tail
  // length, contiguous and strided group slices (the first and last
  // group of each stride, so vector loads end exactly at the payload's
  // last byte), and result strides 1 and 3 (untouched slots must keep
  // their sentinel).
  constexpr std::pair<Scheme, engine::Fixed8Rule> kRules[] = {
      {Scheme::kRaw, engine::Fixed8Rule::kRaw},
      {Scheme::kDc, engine::Fixed8Rule::kDc},
      {Scheme::kAc, engine::Fixed8Rule::kAc},
      {Scheme::kAcDc, engine::Fixed8Rule::kAcDc}};
  const engine::BurstResult sentinel{~std::uint64_t{0}, BurstStats{-1, -1}};
  const BusState entry{Beat{0x5A, false}};  // ignored under reset
  for (const KernelVariant* v : usable_variants())
    for (const auto& [scheme, rule] : kRules)
      for (const bool reset : {false, true})
        for (const int stride : {1, 2, 3, 4, 8})
          for (const int group : {0, stride - 1})
            for (std::size_t bursts = 0; bursts <= 17; ++bursts)
              for (const std::size_t rs : {std::size_t{1}, std::size_t{3}}) {
                // Sized exactly, so an over-reading vector load trips
                // the sanitizer builds.
                const auto bytes = random_bytes(
                    bursts * 8 * static_cast<std::size_t>(stride),
                    1000 + bursts * 16 + static_cast<std::size_t>(stride));
                const std::uint8_t* slice = bytes.data() + group;

                BusState want_state = entry;
                const auto want = scalar_group_results(
                    scheme, slice, bursts, 8, stride, reset, want_state);
                BurstStats want_totals;
                for (const auto& r : want) want_totals += r.stats;

                BusState swar_state = entry;
                std::vector<engine::BurstResult> swar(bursts * rs, sentinel);
                const BurstStats swar_totals =
                    engine::portable_kernel().encode_fixed8(
                        rule, slice, bursts, 8, stride, reset, swar_state,
                        swar.data(), rs);

                BusState got_state = entry;
                std::vector<engine::BurstResult> got(bursts * rs, sentinel);
                const BurstStats got_totals =
                    v->encode_fixed8(rule, slice, bursts, 8, stride, reset,
                                     got_state, got.data(), rs);
                // Stats-only calls agree with the collecting ones.
                BusState quiet_state = entry;
                const BurstStats quiet_totals =
                    v->encode_fixed8(rule, slice, bursts, 8, stride, reset,
                                     quiet_state, nullptr, rs);

                const std::string ctx =
                    std::string(v->name()) + " " +
                    std::string(scheme_name(scheme)) +
                    (reset ? " reset" : " threaded") + " stride " +
                    std::to_string(stride) + " group " +
                    std::to_string(group) + " bursts " +
                    std::to_string(bursts) + " rs " + std::to_string(rs);
                ASSERT_EQ(got_totals, want_totals) << ctx;
                ASSERT_EQ(swar_totals, want_totals) << ctx;
                ASSERT_EQ(quiet_totals, want_totals) << ctx;
                ASSERT_EQ(got_state, want_state) << ctx;
                ASSERT_EQ(swar_state, want_state) << ctx;
                ASSERT_EQ(quiet_state, want_state) << ctx;
                for (std::size_t i = 0; i < bursts * rs; ++i) {
                  const engine::BurstResult& expect =
                      i % rs == 0 ? want[i / rs] : sentinel;
                  ASSERT_EQ(got[i], expect) << ctx << " slot " << i;
                  ASSERT_EQ(swar[i], expect) << ctx << " slot " << i;
                }
              }
}

TEST(KernelParity, Fixed8LaneInterleaveMatchesSwarAndScalarPerLane) {
  // encode_fixed8's lane interleave: burst i belongs to lane
  // (first_lane + i) % lanes and threads (or, under reset, ends at)
  // that lane's state, held group-minor at a state stride. Checked per
  // lane against the scalar core encoder run over the lane's bursts
  // alone, and against swar, for every lane count the vector loops
  // take (1, 8) and two they do not (2, 3), every first lane, x8
  // (stride 1) and the first / last group of x64 (stride 8), up to five
  // 8-wide vector blocks plus each tail length, with and without
  // results. Entry states are arbitrary (inconsistent DQ / DBI pairs
  // included, and DBI low, which RAW must neither count nor keep);
  // state and result slots that belong to other groups hold sentinels
  // that must survive.
  constexpr std::pair<Scheme, engine::Fixed8Rule> kRules[] = {
      {Scheme::kRaw, engine::Fixed8Rule::kRaw},
      {Scheme::kDc, engine::Fixed8Rule::kDc},
      {Scheme::kAc, engine::Fixed8Rule::kAc},
      {Scheme::kAcDc, engine::Fixed8Rule::kAcDc}};
  const engine::BurstResult sentinel{~std::uint64_t{0}, BurstStats{-1, -1}};
  const BusState state_sentinel{Beat{0x1234, false}};
  const BusConfig cfg{8, 8};
  const auto variants = usable_variants();
  for (const auto& [scheme, rule] : kRules)
    for (const bool reset : {false, true})
      for (const int lanes : {1, 2, 3, 8})
        for (int first = 0; first < lanes; ++first)
          for (const auto& [stride, group] :
               {std::pair{1, 0}, std::pair{8, 0}, std::pair{8, 7}})
            for (std::size_t bursts = 0; bursts <= 40; ++bursts) {
              const auto G = static_cast<std::size_t>(stride);
              const auto bytes = random_bytes(
                  bursts * 8 * G, 7000 + bursts * 31 + G +
                                      static_cast<std::size_t>(lanes));
              const std::uint8_t* slice = bytes.data() + group;
              // Lane l's entry state sits at [l * G + group].
              std::vector<BusState> entry(static_cast<std::size_t>(lanes) * G,
                                          state_sentinel);
              util::Xoshiro256 rng(bursts * 97 + G +
                                       static_cast<std::size_t>(first));
              for (int l = 0; l < lanes; ++l)
                entry[static_cast<std::size_t>(l) * G +
                      static_cast<std::size_t>(group)] =
                    BusState{Beat{static_cast<Word>(rng.next() & 0xFFU),
                                  (rng.next() & 1U) != 0}};

              // Scalar reference, one lane at a time.
              std::vector<BusState> want_states = entry;
              std::vector<engine::BurstResult> want(bursts * G, sentinel);
              BurstStats want_totals;
              const auto scalar = make_encoder(scheme);
              std::vector<Word> words(8);
              for (std::size_t i = 0; i < bursts; ++i) {
                const std::size_t lane =
                    (static_cast<std::size_t>(first) + i) %
                    static_cast<std::size_t>(lanes);
                BusState& st = want_states[lane * G +
                                           static_cast<std::size_t>(group)];
                if (reset) st = BusState::all_ones(cfg);
                for (std::size_t t = 0; t < 8; ++t)
                  words[t] = slice[(i * 8 + t) * G];
                const EncodedBurst e = scalar->encode(Burst(cfg, words), st);
                want[i * G] = {e.inversion_mask(), e.stats(st)};
                want_totals += want[i * G].stats;
                st = e.final_state();
              }

              const auto run = [&](const KernelVariant& k,
                                   std::vector<BusState>& states,
                                   std::vector<engine::BurstResult>* results) {
                const engine::LaneStates ls(
                    std::span<BusState>(states).subspan(
                        static_cast<std::size_t>(group)),
                    lanes, first, G);
                return k.encode_fixed8(rule, slice, bursts, 8, stride, reset,
                                       ls, results ? results->data() : nullptr,
                                       G);
              };
              for (const KernelVariant* k : variants) {
                const std::string ctx =
                    std::string(k->name()) + " " +
                    std::string(scheme_name(scheme)) +
                    (reset ? " reset" : " threaded") + " lanes " +
                    std::to_string(lanes) + " first " + std::to_string(first) +
                    " stride " + std::to_string(stride) + " group " +
                    std::to_string(group) + " bursts " +
                    std::to_string(bursts);
                std::vector<BusState> states = entry;
                std::vector<engine::BurstResult> got(bursts * G, sentinel);
                ASSERT_EQ(run(*k, states, &got), want_totals) << ctx;
                ASSERT_EQ(states, want_states) << ctx;
                for (std::size_t i = 0; i < got.size(); ++i)
                  ASSERT_EQ(got[i], want[i]) << ctx << " slot " << i;
                std::vector<BusState> quiet = entry;
                ASSERT_EQ(run(*k, quiet, nullptr), want_totals) << ctx;
                ASSERT_EQ(quiet, want_states) << ctx;
              }
            }
}

// ------------------------------------------------ per-burst trellis

/// The scalar solver's result for BL8 burst i of a width-8 group slice
/// (beat t at bytes[(i * 8 + t) * stride]), every burst solved from the
/// all-ones state; `state` ends at the last burst's line values.
std::vector<engine::BurstResult> scalar_trellis_results(
    engine::TrellisRule rule, const CostWeights& w, const std::uint8_t* bytes,
    std::size_t bursts, int stride, BusState& state) {
  const BusConfig cfg{8, 8};
  std::vector<engine::BurstResult> out;
  std::vector<Word> words(8);
  for (std::size_t i = 0; i < bursts; ++i) {
    for (std::size_t t = 0; t < 8; ++t)
      words[t] = bytes[(i * 8 + t) * static_cast<std::size_t>(stride)];
    const Burst burst(cfg, words);
    const BusState entry = BusState::all_ones(cfg);
    const std::uint64_t mask =
        rule == engine::TrellisRule::kOpt
            ? solve_trellis(burst, entry, w).invert_mask
            : solve_trellis(burst, entry, IntCostWeights{1, 1}).invert_mask;
    const EncodedBurst e = EncodedBurst::from_inversion_mask(burst, mask);
    out.push_back({mask, e.stats(entry)});
    state = e.final_state();
  }
  return out;
}

/// encode_trellis8 under per-burst reset, against swar and the scalar
/// solver: masks, per-burst stats in their result slots (the slots in
/// between keep a sentinel), totals, a stats-only call, and the state
/// left after the call (a garbage entry state must not matter).
void expect_trellis8_parity(const KernelVariant& v, engine::TrellisRule rule,
                            const CostWeights& w,
                            const std::vector<std::uint8_t>& bytes,
                            int stride, int group, std::size_t bursts,
                            std::size_t rs, const std::string& ctx) {
  const engine::BurstResult sentinel{~std::uint64_t{0}, BurstStats{-1, -1}};
  const BusState entry{Beat{0x5A, false}};
  const std::uint8_t* slice = bytes.data() + group;

  BusState want_state = entry;
  const auto want =
      scalar_trellis_results(rule, w, slice, bursts, stride, want_state);
  BurstStats want_totals;
  for (const auto& r : want) want_totals += r.stats;

  BusState swar_state = entry;
  std::vector<engine::BurstResult> swar(bursts * rs, sentinel);
  const BurstStats swar_totals = engine::portable_kernel().encode_trellis8(
      rule, w, slice, bursts, 8, stride, true, swar_state, swar.data(), rs);

  BusState got_state = entry;
  std::vector<engine::BurstResult> got(bursts * rs, sentinel);
  const BurstStats got_totals = v.encode_trellis8(
      rule, w, slice, bursts, 8, stride, true, got_state, got.data(), rs);
  BusState quiet_state = entry;
  const BurstStats quiet_totals = v.encode_trellis8(
      rule, w, slice, bursts, 8, stride, true, quiet_state, nullptr, rs);

  ASSERT_EQ(got_totals, want_totals) << ctx;
  ASSERT_EQ(swar_totals, want_totals) << ctx;
  ASSERT_EQ(quiet_totals, want_totals) << ctx;
  ASSERT_EQ(got_state, want_state) << ctx;
  ASSERT_EQ(swar_state, want_state) << ctx;
  ASSERT_EQ(quiet_state, want_state) << ctx;
  for (std::size_t i = 0; i < bursts * rs; ++i) {
    const engine::BurstResult& expect = i % rs == 0 ? want[i / rs] : sentinel;
    ASSERT_EQ(got[i], expect) << ctx << " slot " << i;
    ASSERT_EQ(swar[i], expect) << ctx << " slot " << i;
  }
}

TEST(KernelParity, Trellis8ResetMatchesSwarAndScalar) {
  // kOpt at tie-prone weights — sums of 0.1 / 0.3 / 1/3 steps round
  // differently when a multiply-add is fused into one rounding, so a
  // SIMD trellis that lost the -ffp-contract=off pin fails here — plus
  // the degenerate pure-DC / pure-AC pairs, and kOptFixed (its weights
  // argument is ignored). Burst counts 0..17 cover two vector blocks
  // plus every tail; strides 1 (x8), 8 (an x64 group slice) and 3 (the
  // gather path), first and last group, result strides 1 and 3.
  using engine::TrellisRule;
  const std::pair<TrellisRule, CostWeights> kCases[] = {
      {TrellisRule::kOpt, {0.1, 0.1}},
      {TrellisRule::kOpt, {1.0 / 3.0, 2.0 / 3.0}},
      {TrellisRule::kOpt, {0.3, 0.2}},
      {TrellisRule::kOpt, {0.0, 1.0}},
      {TrellisRule::kOpt, {1.0, 0.0}},
      {TrellisRule::kOptFixed, {0.56, 0.44}}};
  for (const KernelVariant* v : usable_variants())
    for (const auto& [rule, w] : kCases)
      for (const int stride : {1, 8, 3})
        for (const int group : {0, stride - 1})
          for (std::size_t bursts = 0; bursts <= 17; ++bursts)
            for (const std::size_t rs : {std::size_t{1}, std::size_t{3}}) {
              // Sized exactly, so an over-reading vector load trips the
              // sanitizer builds.
              const auto bytes = random_bytes(
                  bursts * 8 * static_cast<std::size_t>(stride),
                  2000 + bursts * 16 + static_cast<std::size_t>(stride));
              expect_trellis8_parity(
                  *v, rule, w, bytes, stride, group, bursts, rs,
                  std::string(v->name()) +
                      (rule == TrellisRule::kOpt ? " opt " : " opt-fixed ") +
                      std::to_string(w.alpha) + "/" + std::to_string(w.beta) +
                      " stride " + std::to_string(stride) + " group " +
                      std::to_string(group) + " bursts " +
                      std::to_string(bursts) + " rs " + std::to_string(rs));
            }
}

TEST(KernelParity, Trellis8ResetTieProneBulk) {
  // A longer x8 stream of low-entropy beats (a 6-symbol alphabet, so
  // many beats repeat and path metrics tie often) at the tie-prone
  // weights: enough equal-cost comparisons that a single rounding
  // difference in the vector lanes shows up as a mask mismatch.
  constexpr std::uint8_t kAlphabet[] = {0x00, 0xFF, 0x0F, 0xF0, 0x01, 0x7F};
  util::Xoshiro256 rng(4242);
  std::vector<std::uint8_t> bytes(4096 * 8);
  for (auto& b : bytes) b = kAlphabet[rng.next() % 6];
  const CostWeights kWeights[] = {
      {0.1, 0.1}, {1.0 / 3.0, 2.0 / 3.0}, {0.3, 0.2}, {0.7, 0.1}};
  for (const KernelVariant* v : usable_variants())
    for (const CostWeights& w : kWeights)
      expect_trellis8_parity(*v, engine::TrellisRule::kOpt, w, bytes, 1, 0,
                             4096, 1,
                             std::string(v->name()) + " bulk " +
                                 std::to_string(w.alpha) + "/" +
                                 std::to_string(w.beta));
}

TEST(KernelParity, PackedResetFallbacksHonourTheFlag) {
  // Geometries outside every vector envelope (trellis schemes, BL12,
  // a width-5 bit-plane group, a remainder wide group) take the
  // BatchEncoder's per-burst loops, which must reset just the same.
  const auto check = [](Scheme scheme, const BusConfig& cfg) {
    engine::BatchEncoder enc(scheme);
    const int bursts = 11;
    const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
    auto bytes = random_bytes(static_cast<std::size_t>(bursts) * bb, 77);
    for (auto& b : bytes) b &= static_cast<std::uint8_t>(cfg.dq_mask());
    std::vector<engine::BurstResult> got(static_cast<std::size_t>(bursts) * 2);
    BusState state = BusState::all_zeros();
    const BurstStats totals =
        enc.encode_packed(bytes, cfg, 0, state, got.data(), 2, true);

    const auto scalar = make_encoder(scheme);
    BusState want_state;
    BurstStats want_totals;
    for (int i = 0; i < bursts; ++i) {
      want_state = BusState::all_ones(cfg);
      std::vector<Word> words(bytes.begin() + i * static_cast<int>(bb),
                              bytes.begin() + (i + 1) * static_cast<int>(bb));
      const EncodedBurst e = scalar->encode(Burst(cfg, words), want_state);
      const engine::BurstResult want{e.inversion_mask(), e.stats(want_state)};
      want_totals += want.stats;
      want_state = e.final_state();
      ASSERT_EQ(got[static_cast<std::size_t>(i) * 2], want)
          << scheme_name(scheme) << " width " << cfg.width << " bl "
          << cfg.burst_length << " burst " << i;
    }
    EXPECT_EQ(totals, want_totals) << scheme_name(scheme);
    EXPECT_EQ(state, want_state) << scheme_name(scheme);
  };
  check(Scheme::kOpt, BusConfig{8, 8});
  check(Scheme::kOptFixed, BusConfig{8, 8});
  check(Scheme::kAc, BusConfig{8, 12});
  check(Scheme::kAcDc, BusConfig{5, 8});

  // Wide remainder group (width 12: group 1 is 4 lines wide).
  const WideBusConfig wcfg{12, 8};
  engine::BatchEncoder enc(Scheme::kAc);
  auto bytes =
      random_bytes(9 * static_cast<std::size_t>(wcfg.bytes_per_burst()), 79);
  for (std::size_t i = 1; i < bytes.size(); i += 2)
    bytes[i] &= static_cast<std::uint8_t>(wcfg.group_mask(1));
  BusState state = BusState::all_zeros();
  std::vector<engine::BurstResult> got(9);
  (void)enc.encode_packed(bytes, wcfg, 1, state, got.data(), 1, true);
  const auto scalar = make_encoder(Scheme::kAc);
  const BusConfig gcfg = wcfg.group_config(1);
  for (std::size_t i = 0; i < 9; ++i) {
    BusState s = BusState::all_ones(gcfg);
    std::vector<Word> words;
    for (int t = 0; t < 8; ++t)
      words.push_back(bytes[(i * 8 + static_cast<std::size_t>(t)) * 2 + 1]);
    const EncodedBurst e = scalar->encode(Burst(gcfg, words), s);
    ASSERT_EQ(got[i].invert_mask, e.inversion_mask()) << "burst " << i;
    ASSERT_EQ(got[i].stats, e.stats(s)) << "burst " << i;
    if (i == 8) {
      EXPECT_EQ(state, e.final_state());
    }
  }
}

/// StreamEncoder against the scalar core encoders: burst g belongs to
/// lane g % lanes, every (lane, group) unit threads its own state (or
/// restarts from all-ones per burst), results come back in chunk order.
void expect_stream_parity(const KernelVariant& variant, Scheme scheme,
                          bool wide, int lanes, bool reset, bool collect,
                          engine::ShardPool* pool) {
  const dbi::WideBusConfig wcfg{64, 8};
  const BusConfig ncfg{8, 8};
  const int groups = wide ? wcfg.groups() : 1;
  const auto bb = static_cast<std::size_t>(wide ? wcfg.bytes_per_burst()
                                                : ncfg.bytes_per_burst());
  // Uneven chunks, so every chunk starts on a different lane phase.
  const std::size_t chunks[] = {37, 1, 100, 8};
  std::size_t total = 0;
  for (const std::size_t c : chunks) total += c;
  const auto bytes = random_bytes(total * bb, 600 + static_cast<int>(wide));

  engine::BatchEncoder enc(scheme);
  enc.set_kernel(variant);
  engine::StreamEncodeOptions opt;
  opt.lanes = lanes;
  opt.reset_state_per_burst = reset;
  opt.pool = pool;
  const auto units = static_cast<std::size_t>(lanes * groups);
  std::vector<BusState> states(units);
  auto stream =
      wide ? std::make_unique<engine::StreamEncoder>(enc, wcfg, opt, states)
           : std::make_unique<engine::StreamEncoder>(enc, ncfg, opt, states);
  stream->reset();

  // Scalar reference, unit by unit.
  std::vector<BusState> want_states(units, BusState::all_ones(ncfg));
  std::vector<engine::BurstResult> want(total *
                                        static_cast<std::size_t>(groups));
  BurstStats want_totals;
  for (std::size_t j = 0; j < total; ++j)
    for (int g = 0; g < groups; ++g) {
      const std::size_t u = (j % static_cast<std::size_t>(lanes)) *
                                static_cast<std::size_t>(groups) +
                            static_cast<std::size_t>(g);
      const auto r = scalar_group_results(
          scheme, bytes.data() + j * bb + static_cast<std::size_t>(g), 1, 8,
          groups, reset, want_states[u]);
      want[j * static_cast<std::size_t>(groups) +
           static_cast<std::size_t>(g)] = r[0];
      want_totals += r[0].stats;
    }

  const std::string ctx = std::string(variant.name()) + " " +
                          std::string(scheme_name(scheme)) +
                          (wide ? " x64" : " x8") +
                          " lanes " + std::to_string(lanes) +
                          (reset ? " reset" : " threaded") +
                          (collect ? " results" : " stats") +
                          (pool ? " pool" : " serial");
  std::size_t first = 0;
  for (const std::size_t c : chunks) {
    const auto got = stream->encode_chunk(
        static_cast<std::int64_t>(first),
        std::span<const std::uint8_t>(bytes).subspan(first * bb, c * bb), c,
        collect);
    if (collect) {
      ASSERT_EQ(got.size(), c * static_cast<std::size_t>(groups)) << ctx;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[first * static_cast<std::size_t>(groups) + i])
            << ctx << " chunk at " << first << " slot " << i;
    } else {
      ASSERT_TRUE(got.empty()) << ctx;
    }
    first += c;
  }
  EXPECT_EQ(stream->bursts(), static_cast<std::int64_t>(total)) << ctx;
  EXPECT_EQ(stream->zeros(), want_totals.zeros) << ctx;
  EXPECT_EQ(stream->transitions(), want_totals.transitions) << ctx;
  for (std::size_t u = 0; u < units; ++u)
    ASSERT_EQ(states[u], want_states[u]) << ctx << " unit " << u;
}

TEST(KernelParity, StreamEncoderMatchesScalarAcrossLanesAndPolicies) {
  engine::ShardPool pool(3);
  for (const KernelVariant* v : usable_variants())
    for (const Scheme s : {Scheme::kDc, Scheme::kAc, Scheme::kAcDc})
      for (const bool wide : {false, true})
        for (const int lanes : {1, 3, 8})
          for (const bool reset : {false, true})
            for (const bool collect : {false, true})
              for (engine::ShardPool* p : {static_cast<engine::ShardPool*>(
                                               nullptr),
                                           &pool})
                expect_stream_parity(*v, s, wide, lanes, reset, collect, p);
}

/// StreamEncoder at 8 lanes over a stream whose first chunk starts at
/// burst 13 (so lane 0 is not the first lane), chunk sizes that are not
/// multiples of 8, serial and on a pool, against the scalar core
/// encoders unit by unit. Width 60 mixes both routes in one chunk: the
/// 7 full byte groups interleave their lanes in place, the 4-line
/// remainder group is gathered lane by lane.
void expect_stream_lanes8_parity(const KernelVariant& variant, Scheme scheme,
                                 int width, bool reset, bool collect,
                                 engine::ShardPool* pool) {
  constexpr int kLanes = 8;
  constexpr std::int64_t kStart = 13;
  const bool wide = width != 8;
  const dbi::WideBusConfig wcfg{width, 8};
  const BusConfig ncfg{8, 8};
  const int groups = wide ? wcfg.groups() : 1;
  const auto G = static_cast<std::size_t>(groups);
  const auto bb = static_cast<std::size_t>(wide ? wcfg.bytes_per_burst()
                                                : ncfg.bytes_per_burst());
  const std::size_t chunks[] = {13, 29, 3, 77, 150};
  std::size_t total = 0;
  for (const std::size_t c : chunks) total += c;
  auto bytes = random_bytes(total * bb, 900 + static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < bytes.size(); ++i)
    if (wide) bytes[i] &= static_cast<std::uint8_t>(wcfg.group_mask(
                  static_cast<int>(i % G)));

  engine::BatchEncoder enc(scheme);
  enc.set_kernel(variant);
  engine::StreamEncodeOptions opt;
  opt.lanes = kLanes;
  opt.reset_state_per_burst = reset;
  opt.pool = pool;
  std::vector<BusState> states(kLanes * G);
  auto stream =
      wide ? std::make_unique<engine::StreamEncoder>(enc, wcfg, opt, states)
           : std::make_unique<engine::StreamEncoder>(enc, ncfg, opt, states);
  stream->reset();

  // Scalar reference: stream burst kStart + j belongs to lane
  // (kStart + j) % 8; each (lane, group) unit threads its own state.
  const auto scalar = make_encoder(scheme);
  std::vector<BusState> want_states(kLanes * G);
  for (std::size_t u = 0; u < want_states.size(); ++u)
    want_states[u] = BusState::all_ones(
        wide ? wcfg.group_config(static_cast<int>(u % G)) : ncfg);
  std::vector<engine::BurstResult> want(total * G);
  BurstStats want_totals;
  std::vector<Word> words(8);
  for (std::size_t j = 0; j < total; ++j)
    for (std::size_t g = 0; g < G; ++g) {
      const BusConfig gcfg =
          wide ? wcfg.group_config(static_cast<int>(g)) : ncfg;
      BusState& st =
          want_states[((static_cast<std::size_t>(kStart) + j) % kLanes) * G +
                      g];
      if (reset) st = BusState::all_ones(gcfg);
      for (std::size_t t = 0; t < 8; ++t) words[t] = bytes[j * bb + t * G + g];
      const EncodedBurst e = scalar->encode(Burst(gcfg, words), st);
      want[j * G + g] = {e.inversion_mask(), e.stats(st)};
      want_totals += want[j * G + g].stats;
      st = e.final_state();
    }

  const std::string ctx = std::string(variant.name()) + " " +
                          std::string(scheme_name(scheme)) + " width " +
                          std::to_string(width) +
                          (reset ? " reset" : " threaded") +
                          (collect ? " results" : " stats") +
                          (pool ? " pool" : " serial");
  std::size_t done = 0;
  for (const std::size_t c : chunks) {
    const auto got = stream->encode_chunk(
        kStart + static_cast<std::int64_t>(done),
        std::span<const std::uint8_t>(bytes).subspan(done * bb, c * bb), c,
        collect);
    ASSERT_EQ(got.size(), collect ? c * G : 0) << ctx;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[done * G + i])
          << ctx << " chunk at " << done << " slot " << i;
    done += c;
  }
  EXPECT_EQ(stream->zeros(), want_totals.zeros) << ctx;
  EXPECT_EQ(stream->transitions(), want_totals.transitions) << ctx;
  for (std::size_t u = 0; u < states.size(); ++u)
    ASSERT_EQ(states[u], want_states[u]) << ctx << " unit " << u;
}

TEST(KernelParity, StreamEncoderEightLanesFromMidStreamSerialAndPooled) {
  engine::ShardPool pool(3);
  for (const KernelVariant* v : usable_variants())
    for (const Scheme s :
         {Scheme::kRaw, Scheme::kDc, Scheme::kAc, Scheme::kAcDc})
      for (const int width : {8, 64, 60})
        for (const bool reset : {false, true})
          for (const bool collect : {false, true})
            for (engine::ShardPool* p :
                 {static_cast<engine::ShardPool*>(nullptr), &pool})
              expect_stream_lanes8_parity(*v, s, width, reset, collect, p);
}

// ------------------------------------------------------- decode parity

TEST(KernelParity, NarrowDecodeAllVariantsMatchesPortableAndRoundTrips) {
  for (const KernelVariant* v : usable_variants())
    for (const BusConfig cfg :
         {BusConfig{8, 8}, BusConfig{8, 16}, BusConfig{8, 24},
          BusConfig{8, 64}, BusConfig{8, 12}, BusConfig{5, 8}}) {
      engine::BatchEncoder enc(Scheme::kAcDc);
      enc.set_kernel(engine::portable_kernel());
      engine::BatchDecoder ref;
      ref.set_kernel(engine::portable_kernel());
      engine::BatchDecoder dut;
      dut.set_kernel(*v);

      const int bursts = 37;
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
      auto payload =
          random_bytes(static_cast<std::size_t>(bursts) * bb, 101);
      if (cfg.width < 8)
        for (auto& b : payload)
          b &= static_cast<std::uint8_t>(cfg.dq_mask());

      BusState state = BusState::all_ones(cfg);
      std::vector<engine::BurstResult> results(
          static_cast<std::size_t>(bursts));
      enc.encode_packed(payload, cfg, 0, state, results.data());
      std::vector<std::uint64_t> masks;
      for (const auto& r : results) masks.push_back(r.invert_mask);

      // Materialise the wire stream, then decode it with both kernels.
      std::vector<std::uint8_t> tx(payload.size());
      ref.apply_packed(payload, masks, cfg, tx);
      std::vector<std::uint8_t> want(tx.size()), got(tx.size());
      ref.decode_packed(tx, masks, cfg, want);
      dut.decode_packed(tx, masks, cfg, got);
      ASSERT_EQ(got, want) << v->name() << " width " << cfg.width << " bl "
                           << cfg.burst_length;
      ASSERT_EQ(got, payload) << v->name() << " round trip";

      // In-place decode (out aliases tx exactly).
      dut.decode_packed(tx, masks, cfg, tx);
      ASSERT_EQ(tx, payload) << v->name() << " in-place";
    }
}

TEST(KernelParity, WideDecodeAllVariantsMatchesPortableAndRoundTrips) {
  for (const KernelVariant* v : usable_variants())
    for (const WideBusConfig cfg :
         {WideBusConfig{64, 8}, WideBusConfig{64, 16}, WideBusConfig{32, 8},
          WideBusConfig{60, 8}}) {
      engine::BatchEncoder enc(Scheme::kAc);
      enc.set_kernel(engine::portable_kernel());
      engine::BatchDecoder ref;
      ref.set_kernel(engine::portable_kernel());
      engine::BatchDecoder dut;
      dut.set_kernel(*v);

      const int bursts = 21;
      const auto groups = static_cast<std::size_t>(cfg.groups());
      const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
      auto payload =
          random_bytes(static_cast<std::size_t>(bursts) * bb, 211);
      if (cfg.width % 8 != 0)
        for (std::size_t i = groups - 1; i < payload.size(); i += groups)
          payload[i] &= static_cast<std::uint8_t>(
              cfg.group_mask(cfg.groups() - 1));

      std::vector<BusState> states(groups);
      for (std::size_t g = 0; g < groups; ++g)
        states[g] = BusState::all_ones(cfg.group_config(static_cast<int>(g)));
      std::vector<engine::BurstResult> results(
          static_cast<std::size_t>(bursts) * groups);
      test::encode_groups(enc, payload, cfg, states, results.data());
      std::vector<std::uint64_t> masks;
      for (const auto& r : results) masks.push_back(r.invert_mask);

      std::vector<std::uint8_t> tx(payload.size());
      ref.apply_packed(payload, masks, cfg, tx);
      std::vector<std::uint8_t> want(tx.size()), got(tx.size());
      ref.decode_packed(tx, masks, cfg, want);
      dut.decode_packed(tx, masks, cfg, got);
      ASSERT_EQ(got, want) << v->name() << " width " << cfg.width;
      ASSERT_EQ(got, payload) << v->name() << " round trip width "
                              << cfg.width;
    }
}

// The width-60 case above is also a regression guard: 8 groups with a
// narrow remainder used to take the all-groups-full fast path, XORing
// a full 0xFF into the width-4 remainder group's flagged beats.

// ------------------------------------------------- pool determinism

TEST(KernelParity, PooledDecodeIsDeterministicPerVariant) {
  // Enough bursts that shard_bursts actually splits (>= 2 * 256).
  const BusConfig cfg{8, 8};
  const int bursts = 2048;
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  const auto tx = random_bytes(static_cast<std::size_t>(bursts) * bb, 307);
  std::vector<std::uint64_t> masks;
  util::Xoshiro256 rng(308);
  for (int i = 0; i < bursts; ++i) masks.push_back(rng.next() & 0xFFU);

  engine::ShardPool pool(4);
  for (const KernelVariant* v : usable_variants()) {
    engine::BatchDecoder dec;
    dec.set_kernel(*v);
    std::vector<std::uint8_t> serial(tx.size()), pooled(tx.size());
    dec.decode_packed(tx, masks, cfg, serial, nullptr);
    dec.decode_packed(tx, masks, cfg, pooled, &pool);
    ASSERT_EQ(pooled, serial) << v->name();
  }
}

TEST(KernelParity, PooledWideEncodeIsDeterministicPerVariant) {
  const WideBusConfig cfg{64, 8};
  const int bursts = 512;
  const auto bytes = random_bytes(
      static_cast<std::size_t>(bursts) *
          static_cast<std::size_t>(cfg.bytes_per_burst()),
      401);
  engine::ShardPool pool(3);
  for (const KernelVariant* v : usable_variants()) {
    engine::BatchEncoder enc(Scheme::kAcDc);
    enc.set_kernel(*v);

    auto run = [&](engine::ShardPool* p) {
      engine::StreamEncodeOptions so;
      so.pool = p;
      engine::StreamEncoder stream(enc, cfg, so);
      (void)stream.encode_chunk(0, bytes, static_cast<std::size_t>(bursts));
      return std::pair{stream.zeros(), stream.transitions()};
    };
    const auto serial = run(nullptr);
    const auto pooled = run(&pool);
    ASSERT_EQ(pooled, serial) << v->name();
  }
}

// ----------------------------------------------------- session surface

TEST(KernelSession, SpecPinsVariantAndReportNamesIt) {
  for (const KernelVariant* v : usable_variants()) {
    SessionSpec spec;
    spec.policy = Scheme::kAcDc;
    spec.geometry = Geometry::narrow(8, 8);
    spec.kernel = std::string(v->name());
    // NEON's encode envelope is empty, but its decode envelope covers
    // this geometry, so construction succeeds for every usable variant.
    Session session(spec);
    const KernelReport rep = session.kernel_report();
    EXPECT_EQ(rep.variant, v->name());
    EXPECT_EQ(rep.isa, engine::isa_name(v->isa()));
    EXPECT_EQ(rep.trellis, "n/a");
    const bool enc8 = v->supports_fixed8(engine::Fixed8Rule::kAcDc, 8);
    EXPECT_EQ(rep.fixed_encode, enc8 ? v->name() : "swar");
    EXPECT_EQ(rep.planar_encode, "n/a");
  }
}

TEST(KernelSession, RawX8Bl8RunsOnVariantFixedPath) {
  // Recording runs a RAW session; the x86 SIMD variants serve the RAW
  // rule at BL8 on their fixed path, threaded and per-burst reset, and
  // count the same stats as the portable reference.
  const auto data = random_bytes(8 * 8 * 67, 811);
  for (const StatePolicy policy :
       {StatePolicy::kThread, StatePolicy::kResetPerBurst})
    for (const KernelVariant* v : usable_variants()) {
      SessionSpec spec;
      spec.policy = Scheme::kRaw;
      spec.geometry = Geometry::narrow(8, 8);
      spec.state_policy = policy;
      spec.kernel = std::string(v->name());
      Session session(spec);
      const KernelReport rep = session.kernel_report();
      if (v->isa() == engine::KernelIsa::kAvx2 ||
          v->isa() == engine::KernelIsa::kAvx512) {
        EXPECT_EQ(rep.fixed_encode, v->name());
      }
      EXPECT_EQ(rep.fixed_encode, v->supports_fixed8(engine::Fixed8Rule::kRaw,
                                                     8)
                                      ? v->name()
                                      : "swar");
      SessionSpec ref_spec = spec;
      ref_spec.kernel = "swar";
      Session ref(ref_spec);
      const StreamStats got = session.write_stream(data);
      const StreamStats want = ref.write_stream(data);
      EXPECT_EQ(got.zeros, want.zeros) << v->name();
      EXPECT_EQ(got.transitions, want.transitions) << v->name();
      EXPECT_EQ(got.bursts, want.bursts) << v->name();
    }
}

TEST(KernelSession, EnvOverrideReachesSession) {
  // An unpinned spec ("" / "auto") runs the DBI_KERNEL variant, so the
  // forced-kernel CI legs exercise Session, the selector, the lake and
  // dbid as well as the raw engine.
  ScopedKernelEnv env("swar");
  for (const char* pin : {"", "auto"}) {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::narrow(8, 8);
    spec.lanes = 8;
    spec.kernel = pin;
    const Session session(spec);
    EXPECT_EQ(session.report().kernel.variant, "swar") << "pin '" << pin
                                                       << "'";
    EXPECT_EQ(session.report().kernel.fixed_encode, "swar");
  }
}

TEST(KernelSession, ReportCoversTrellisAndPlanarPaths) {
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.geometry = Geometry::narrow(8, 8);
  const Session opt(spec);
  EXPECT_EQ(opt.kernel_report().trellis, "swar");
  EXPECT_EQ(opt.kernel_report().fixed_encode, "n/a");

  // The trellis report names the variant exactly when its trellis
  // entry covers the spec: a byte group, BL8 and the state policy.
  for (const KernelVariant* v : usable_variants())
    for (const Scheme scheme : {Scheme::kOpt, Scheme::kOptFixed})
      for (const StatePolicy policy :
           {StatePolicy::kThread, StatePolicy::kResetPerBurst})
        for (const Geometry& geometry :
             {Geometry::narrow(8, 8), Geometry::wide(64, 8),
              Geometry::narrow(8, 16), Geometry::narrow(5, 8)}) {
          SessionSpec s;
          s.policy = scheme;
          s.geometry = geometry;
          s.state_policy = policy;
          s.kernel = std::string(v->name());
          const bool reset = policy == StatePolicy::kResetPerBurst;
          const bool serves =
              geometry.width() >= 8 &&
              v->supports_trellis8(geometry.burst_length(), reset);
          const std::string ctx =
              std::string(v->name()) + " " +
              std::string(scheme_name(scheme)) + " " + geometry.to_string() +
              (reset ? " reset" : " threaded");
          try {
            const Session session(s);
            EXPECT_EQ(session.kernel_report().trellis,
                      serves ? v->name() : "swar")
                << ctx;
          } catch (const std::invalid_argument&) {
            // Only a SIMD pin that serves no path of the spec may throw.
            EXPECT_FALSE(serves) << ctx;
            EXPECT_NE(v->isa(), engine::KernelIsa::kPortable) << ctx;
          }
        }

  spec.policy = Scheme::kAc;
  spec.geometry = Geometry::narrow(5, 8);
  const Session planar(spec);
  EXPECT_EQ(planar.kernel_report().planar_encode, "swar");
  EXPECT_EQ(planar.kernel_report().fixed_encode, "n/a");
}

TEST(KernelSession, UnknownKernelThrowsWithCandidates) {
  SessionSpec spec;
  spec.kernel = "frobnicate";
  try {
    Session session(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("swar"), std::string::npos)
        << e.what();
  }
}

TEST(KernelSession, EnvelopeMismatchThrows) {
  // Pinning a SIMD variant onto a spec it cannot serve at all (trellis
  // scheme on a non-8 width: no fixed-encode path, no decode path) must
  // throw rather than silently run the portable fallback everywhere.
  for (const KernelVariant* v : usable_variants()) {
    if (v->isa() == engine::KernelIsa::kPortable) continue;
    SessionSpec spec;
    spec.policy = Scheme::kOpt;
    spec.geometry = Geometry::narrow(5, 6);
    spec.kernel = std::string(v->name());
    EXPECT_THROW(Session{spec}, std::invalid_argument) << v->name();
  }
  // The portable reference pins everywhere.
  SessionSpec spec;
  spec.policy = Scheme::kOpt;
  spec.geometry = Geometry::narrow(5, 6);
  spec.kernel = "swar";
  EXPECT_NO_THROW(Session{spec});
}

TEST(KernelSession, WriteStreamIdenticalAcrossVariants) {
  // The channel write surface routes through the wide in-place encoder;
  // stats must not depend on the selected variant.
  const auto data = random_bytes(8 * 8 * 64, 509);
  StreamStats want;
  bool first = true;
  for (const KernelVariant* v : usable_variants()) {
    SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = Geometry::narrow(8, 8);
    spec.lanes = 8;
    spec.kernel = std::string(v->name());
    Session session(spec);
    const StreamStats got = session.write_stream(data);
    if (first) {
      want = got;
      first = false;
    } else {
      EXPECT_EQ(got.transitions, want.transitions) << v->name();
      EXPECT_EQ(got.zeros, want.zeros) << v->name();
      EXPECT_EQ(got.bursts, want.bursts) << v->name();
    }
  }
}

}  // namespace
}  // namespace dbi

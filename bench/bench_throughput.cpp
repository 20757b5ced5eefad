// Encoder throughput microbenchmarks (google-benchmark).
//
// Context (paper Section IV-B): a 12 Gbps GDDR5X pin needs 1.5e9
// bursts/s per byte lane from the hardware encoder. The software
// encoders here are the behavioural models — the numbers show the
// relative algorithmic cost (DC < AC < trellis OPT << exhaustive) and
// that even the trellis solver runs millions of bursts per second in
// software, which is what makes the 10000x101-point sweeps of
// Figs. 3/4 cheap to regenerate.
#include <benchmark/benchmark.h>

#include <vector>

#include "api/session.hpp"
#include "core/encoder.hpp"
#include "engine/shard_pool.hpp"
#include "hw/hw_encoder.hpp"
#include "workload/generators.hpp"

namespace {

using namespace dbi;

const std::vector<Burst>& bursts() {
  static const std::vector<Burst> data = [] {
    auto src = workload::make_uniform_source(BusConfig{8, 8}, 11);
    std::vector<Burst> out;
    out.reserve(1024);
    for (int i = 0; i < 1024; ++i) out.push_back(src->next());
    return out;
  }();
  return data;
}

void run_encoder(benchmark::State& state, const Encoder& encoder) {
  const BusState boundary = BusState::all_ones(BusConfig{8, 8});
  std::size_t i = 0;
  for (auto _ : state) {
    const EncodedBurst e =
        encoder.encode(bursts()[i++ & 1023], boundary);
    benchmark::DoNotOptimize(e.beat(0));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 8);
}

void BM_Raw(benchmark::State& state) {
  run_encoder(state, *make_raw_encoder());
}
void BM_DbiDc(benchmark::State& state) {
  run_encoder(state, *make_dc_encoder());
}
void BM_DbiAc(benchmark::State& state) {
  run_encoder(state, *make_ac_encoder());
}
void BM_DbiAcDc(benchmark::State& state) {
  run_encoder(state, *make_acdc_encoder());
}
void BM_DbiOpt(benchmark::State& state) {
  run_encoder(state, *make_opt_encoder(CostWeights{0.56, 0.44}));
}
void BM_DbiOptFixed(benchmark::State& state) {
  run_encoder(state, *make_opt_fixed_encoder());
}
void BM_Exhaustive(benchmark::State& state) {
  run_encoder(state, *make_exhaustive_encoder(CostWeights{0.5, 0.5}));
}
void BM_GateLevelOptFixed(benchmark::State& state) {
  // The netlist simulation of the Fig. 5 datapath — the "RTL sim" cost,
  // orders of magnitude slower than the behavioural model, included to
  // show what the equivalence tests pay.
  const hw::HwEncoder encoder(hw::build_dbi_opt_fixed());
  run_encoder(state, encoder);
}

BENCHMARK(BM_Raw);
BENCHMARK(BM_DbiDc);
BENCHMARK(BM_DbiAc);
BENCHMARK(BM_DbiAcDc);
BENCHMARK(BM_DbiOpt);
BENCHMARK(BM_DbiOptFixed);
BENCHMARK(BM_Exhaustive);
BENCHMARK(BM_GateLevelOptFixed);

// ------------------------------------------------------------ batch engine
// The Session-facade counterparts: same bursts, whole-stream encode
// via the bit-parallel fast paths / flat trellis kernel behind
// dbi::Session.

void run_engine(benchmark::State& state, Scheme scheme,
                const CostWeights& w = {}) {
  SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = Geometry::narrow(8, 8);
  spec.weights = w;
  Session session(spec);
  for (auto _ : state) {
    const auto source = make_burst_source(bursts());
    const StreamStats s = session.run(*source);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bursts().size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bursts().size()) * 8);
}

void BM_EngineDc(benchmark::State& state) {
  run_engine(state, Scheme::kDc);
}
void BM_EngineAc(benchmark::State& state) {
  run_engine(state, Scheme::kAc);
}
void BM_EngineAcDc(benchmark::State& state) {
  run_engine(state, Scheme::kAcDc);
}
void BM_EngineOpt(benchmark::State& state) {
  run_engine(state, Scheme::kOpt, CostWeights{0.56, 0.44});
}
void BM_EngineOptFixed(benchmark::State& state) {
  run_engine(state, Scheme::kOptFixed);
}

BENCHMARK(BM_EngineDc);
BENCHMARK(BM_EngineAc);
BENCHMARK(BM_EngineAcDc);
BENCHMARK(BM_EngineOpt);
BENCHMARK(BM_EngineOptFixed);

// Multi-core scaling: lane-group shards across the deterministic pool.
// Arg = worker count; 16 lanes of 1024 bursts each per iteration.
void BM_EngineShardedOptFixed(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const BusConfig cfg{8, 8};
  constexpr int kLanes = 16;
  static const std::vector<std::vector<Burst>> lanes = [] {
    std::vector<std::vector<Burst>> out;
    for (int l = 0; l < kLanes; ++l) {
      auto src = workload::make_uniform_source(
          BusConfig{8, 8}, 40 + static_cast<std::uint64_t>(l));
      std::vector<Burst> lane;
      for (int i = 0; i < 1024; ++i) lane.push_back(src->next());
      out.push_back(std::move(lane));
    }
    return out;
  }();

  // One interleaved packed stream (burst g -> lane g % kLanes), the
  // layout a multi-lane Session shards across the pool.
  static const std::vector<std::uint8_t> interleaved = [] {
    std::vector<std::uint8_t> out;
    out.reserve(kLanes * 1024 * 8);
    for (int i = 0; i < 1024; ++i)
      for (int l = 0; l < kLanes; ++l)
        for (int t = 0; t < 8; ++t)
          out.push_back(static_cast<std::uint8_t>(
              lanes[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)]
                  .word(t)));
    return out;
  }();
  (void)cfg;

  engine::ShardPool pool(workers);
  SessionSpec spec;
  spec.policy = Scheme::kOptFixed;
  spec.geometry = Geometry::narrow(8, 8);
  spec.lanes = kLanes;
  spec.pool = &pool;
  Session session(spec);
  for (auto _ : state) {
    const auto source = make_packed_source(interleaved);
    const StreamStats s = session.run(*source);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * kLanes * 1024);
}
BENCHMARK(BM_EngineShardedOptFixed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_TrellisByBurstLength(benchmark::State& state) {
  const int bl = static_cast<int>(state.range(0));
  const BusConfig cfg{8, bl};
  auto src = workload::make_uniform_source(cfg, 13);
  std::vector<Burst> data;
  for (int i = 0; i < 256; ++i) data.push_back(src->next());
  const auto encoder = make_opt_fixed_encoder();
  const BusState boundary = BusState::all_ones(cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    const EncodedBurst e = encoder->encode(data[i++ & 255], boundary);
    benchmark::DoNotOptimize(e.beat(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrellisByBurstLength)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();

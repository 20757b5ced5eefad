// The traced run's per-layer waterfall: one probe per layer metric,
// each timing the benchmark's own call into that layer on the
// workload's seeded payloads (x8 = the first narrow payload, x64 = the
// first wide one). Every probe is the median of a few repetitions.
#include <filesystem>
#include <memory>

#include "adapters.hpp"
#include "api/session.hpp"
#include "common.hpp"
#include "core/encoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/stream_encoder.hpp"
#include "lake/lake.hpp"
#include "lake/lake_replay.hpp"
#include "lake/lake_source.hpp"
#include "lake/sweep.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"

namespace pb {

namespace {

using Metrics = std::vector<Metric>;

/// Median seconds of `reps` calls of `fn`, each inside span `name`.
template <class Fn>
double timed(Tracer* tracer, const std::string& name, int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    Span span(tracer, name);
    fn();
    s.push_back(span.close());
  }
  return median(s);
}

std::size_t bytes_of(const Payload& p, std::int64_t bursts) {
  return static_cast<std::size_t>(bursts) * p.bytes_per_burst();
}

dbi::SessionSpec spec_of(dbi::SchemePolicy policy, const dbi::Geometry& g,
                         int lanes = 1) {
  dbi::SessionSpec spec;
  spec.policy = std::move(policy);
  spec.geometry = g;
  spec.lanes = lanes;
  return spec;
}

/// Stats-only Session over a packed payload.
dbi::StreamStats session_stats(dbi::Session& s, const Payload& p) {
  const auto source = dbi::make_packed_source(p.bytes);
  return s.run(*source);
}

}  // namespace

Metrics layer_probes(const Context& ctx, const std::vector<Payload>& p,
                     Tracer* tracer, const ServeStats* serve, Checks& checks) {
  namespace fs = std::filesystem;
  Metrics m;
  const int reps = ctx.smoke ? 1 : 3;
  const Payload* x8p = nullptr;
  const Payload* x64p = nullptr;
  for (const Payload& q : p) {
    if (!q.geometry.is_wide() && !x8p) x8p = &q;
    if (q.geometry.is_wide() && !x64p) x64p = &q;
  }
  if (!x8p || !x64p)
    throw std::invalid_argument("layer probes need an x8 and an x64 payload");
  const Payload& x8 = *x8p;
  const Payload& x64 = *x64p;
  std::size_t total_bytes = 0;
  for (const Payload& q : p) total_bytes += q.bytes.size();

  // ------------------------------------------------------------ core
  const std::int64_t core_n = std::min<std::int64_t>(x8.bursts, 32768);
  const std::int64_t trellis_n = std::min<std::int64_t>(x8.bursts, 4096);
  std::vector<dbi::Burst> bursts;
  for (std::int64_t b = 0; b < core_n; ++b) {
    std::vector<dbi::Word> w(x8.slice(b, 1).begin(), x8.slice(b, 1).end());
    bursts.emplace_back(x8.geometry.bus(), w);
  }
  const auto scalar_rate = [&](dbi::Scheme s, std::int64_t n) {
    const auto enc = dbi::make_encoder(s);
    const double sec = timed(
        tracer, "core.encode." + std::string(dbi::scheme_slug(s)), reps, [&] {
          dbi::BusState st = dbi::BusState::all_ones(x8.geometry.bus());
          for (std::int64_t b = 0; b < n; ++b)
            st = enc->encode(bursts[static_cast<std::size_t>(b)], st)
                     .final_state();
        });
    return mb(bytes_of(x8, n)) / sec;
  };
  const double core_ac = scalar_rate(dbi::Scheme::kAc, core_n);
  m.push_back({"core.scalar_mb_s.ac", core_ac, "MB/s"});
  m.push_back({"core.trellis_mb_s.opt",
               scalar_rate(dbi::Scheme::kOpt, trellis_n), "MB/s"});
  m.push_back({"core.trellis_mb_s.opt-fixed",
               scalar_rate(dbi::Scheme::kOptFixed, trellis_n), "MB/s"});

  // ---------------------------------------------------------- engine
  struct EngineCase {
    const char* name;
    dbi::Scheme scheme;
    const Payload* payload;
    int lanes;
    bool reset;
    bool collect;
    std::int64_t bursts;
  };
  const std::int64_t etrellis_n = std::min<std::int64_t>(x8.bursts, 16384);
  const EngineCase cases[] = {
      {"engine.stats_mb_s.dc", dbi::Scheme::kDc, &x8, 1, false, false, x8.bursts},
      {"engine.stats_mb_s.ac", dbi::Scheme::kAc, &x8, 1, false, false, x8.bursts},
      {"engine.stats_mb_s.acdc", dbi::Scheme::kAcDc, &x8, 1, false, false, x8.bursts},
      {"engine.lanes8_mb_s.ac", dbi::Scheme::kAc, &x8, 8, false, false, x8.bursts},
      {"engine.x64_mb_s.ac", dbi::Scheme::kAc, &x64, 1, false, false, x64.bursts},
      {"engine.results_mb_s.ac", dbi::Scheme::kAc, &x8, 1, false, true, x8.bursts},
      {"engine.reset_mb_s.ac", dbi::Scheme::kAc, &x8, 1, true, false, x8.bursts},
      {"engine.trellis_mb_s.opt", dbi::Scheme::kOpt, &x8, 1, false, false, etrellis_n},
      {"engine.trellis_mb_s.opt-fixed", dbi::Scheme::kOptFixed, &x8, 1, false,
       false, etrellis_n},
  };
  double engine_ac = 0;
  std::int64_t engine_ac_zeros = 0;
  for (const EngineCase& c : cases) {
    const dbi::engine::BatchEncoder enc(c.scheme);
    dbi::engine::StreamEncodeOptions o;
    o.lanes = c.lanes;
    o.reset_state_per_burst = c.reset;
    std::unique_ptr<dbi::engine::StreamEncoder> se =
        c.payload->geometry.is_wide()
            ? std::make_unique<dbi::engine::StreamEncoder>(
                  enc, c.payload->geometry.wide_bus(), o)
            : std::make_unique<dbi::engine::StreamEncoder>(
                  enc, c.payload->geometry.bus(), o);
    const double sec = timed(tracer, "engine.encode_chunk", reps, [&] {
      se->reset();
      (void)se->encode_chunk(0, c.payload->slice(0, c.bursts),
                             static_cast<std::size_t>(c.bursts), c.collect);
    });
    const double rate = mb(bytes_of(*c.payload, c.bursts)) / sec;
    m.push_back({c.name, rate, "MB/s"});
    if (std::string(c.name) == "engine.stats_mb_s.ac") {
      engine_ac = rate;
      engine_ac_zeros = se->zeros();
    }
  }
  m.push_back({"engine.vs_scalar.ac", engine_ac / core_ac, "1"});

  // ------------------------------------------------------------- api
  {
    dbi::Session ac8(spec_of(dbi::Scheme::kAc, x8.geometry));
    dbi::Session ac64(spec_of(dbi::Scheme::kAc, x64.geometry));
    dbi::StreamStats st8;
    const double s8 = timed(tracer, "api.session_run", reps,
                            [&] { st8 = session_stats(ac8, x8); });
    const double s64 = timed(tracer, "api.session_run", reps,
                             [&] { (void)session_stats(ac64, x64); });
    if (st8.zeros != engine_ac_zeros)
      checks.fail("api: Session ac totals differ from StreamEncoder");
    else
      checks.pass();
    m.push_back({"api.packed_stats_mb_s.x8", mb(x8.bytes.size()) / s8, "MB/s"});
    m.push_back(
        {"api.packed_stats_mb_s.x64", mb(x64.bytes.size()) / s64, "MB/s"});
    m.push_back(
        {"api.session_vs_engine", (mb(x8.bytes.size()) / s8) / engine_ac, "1"});

    std::vector<dbi::engine::BurstResult> results;
    const double sr = timed(tracer, "api.session_run", reps, [&] {
      results.clear();
      const auto source = dbi::make_packed_source(x8.bytes);
      const auto sink = dbi::make_result_sink(results);
      (void)ac8.run(*source, *sink);
    });
    m.push_back({"api.packed_results_mb_s", mb(x8.bytes.size()) / sr, "MB/s"});

    // Round trip (paper configuration) with a timed result sink.
    dbi::SessionSpec rt = spec_of(dbi::Scheme::kAc, x8.geometry);
    rt.direction = dbi::Direction::kRoundTrip;
    rt.state_policy = dbi::StatePolicy::kResetPerBurst;
    dbi::Session round(rt);
    std::vector<double> shares;
    const double srt = timed(tracer, "api.session_run", reps, [&] {
      results.clear();
      const auto source = dbi::make_packed_source(x8.bytes);
      TimedSink sink(dbi::make_result_sink(results), nullptr);
      const std::int64_t t0 = now_ns();
      (void)round.run(*source, sink);
      shares.push_back(static_cast<double>(sink.busy_ns) /
                       static_cast<double>(now_ns() - t0));
    });
    if (!round.verify_report().ok()) checks.fail("api: round trip not bit_exact");
    else checks.pass();
    m.push_back({"api.roundtrip_mb_s", mb(x8.bytes.size()) / srt, "MB/s"});
    m.push_back({"api.sink_share", median(shares), "1"});

    // Decode: the transmitted stream and masks of the last round trip.
    std::vector<std::uint64_t> masks;
    std::vector<std::uint8_t> tx(x8.bytes);
    const int bl = x8.geometry.burst_length();
    for (std::size_t b = 0; b < results.size(); ++b) {
      masks.push_back(results[b].invert_mask);
      for (int t = 0; t < bl; ++t)
        if ((results[b].invert_mask >> t) & 1U)
          tx[b * static_cast<std::size_t>(bl) + static_cast<std::size_t>(t)] ^= 0xFF;
    }
    dbi::SessionSpec dspec = spec_of(dbi::Scheme::kAc, x8.geometry);
    dspec.direction = dbi::Direction::kDecode;
    dbi::Session dec(dspec);
    std::vector<std::uint8_t> decoded;
    const double sd = timed(tracer, "api.session_run", reps, [&] {
      decoded.clear();
      const auto source = dbi::make_encoded_packed_source(tx, masks);
      const auto sink = dbi::make_payload_sink(decoded);
      (void)dec.run(*source, *sink);
    });
    if (decoded != x8.bytes) checks.fail("api: decode does not recover payload");
    else checks.pass();
    m.push_back({"api.decode_mb_s", mb(x8.bytes.size()) / sd, "MB/s"});
  }

  // ----------------------------------------------------- trace + lake
  const std::string dir = ctx.workdir + "/probe-lake";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < p.size(); ++i)
    names.push_back("m" + std::to_string(i) + "-" + p[i].name + ".dbt");
  const double sw = timed(tracer, "trace.write", reps, [&] {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const std::string path = dir + "/" + names[i];
      if (p[i].geometry.is_wide()) {
        dbi::trace::TraceWriter w(path, p[i].geometry.wide_bus());
        w.write_packed(p[i].bytes);
        w.finish();
      } else {
        dbi::trace::TraceWriter w(path, p[i].geometry.bus());
        w.write_packed(p[i].bytes);
        w.finish();
      }
    }
  });
  m.push_back({"trace.write_mb_s", mb(total_bytes) / sw, "MB/s"});
  const double open_crc_s = timed(tracer, "trace.open", reps, [&] {
    for (const std::string& n : names)
      (void)dbi::trace::TraceReader::open(dir + "/" + n, true);
  });
  m.push_back({"trace.open_crc_s", open_crc_s, "s"});
  {
    std::vector<dbi::trace::TraceReader> readers;
    for (const std::string& n : names)
      readers.push_back(dbi::trace::TraceReader::open(dir + "/" + n, true));
    std::vector<std::uint8_t> scratch;
    std::size_t expanded = 0, on_disk = 0;
    const double sr = timed(tracer, "trace.read", reps, [&] {
      expanded = on_disk = 0;
      for (const auto& r : readers)
        for (std::size_t c = 0; c < r.chunk_count(); ++c) {
          expanded += r.chunk_payload(c, scratch).size();
          on_disk += r.chunk(c).payload_bytes;
        }
    });
    if (expanded != total_bytes) checks.fail("trace: read-back size differs");
    else checks.pass();
    m.push_back({"trace.read_mb_s", mb(expanded) / sr, "MB/s"});
    m.push_back({"trace.rle_chunk_ratio",
                 static_cast<double>(on_disk) / static_cast<double>(expanded),
                 "1"});
  }

  const double add_s = timed(tracer, "lake.add", reps, [&] {
    dbi::lake::LakeWriter w = dbi::lake::LakeWriter::create(dir);
    for (const std::string& n : names) (void)w.add(n);
    w.write();
  });
  m.push_back({"lake.add_s", add_s, "s"});
  const double open_s = timed(tracer, "lake.open", reps,
                              [&] { (void)dbi::lake::LakeReader::open(dir); });
  m.push_back({"lake.open_s", open_s, "s"});
  const dbi::lake::LakeReader lake = dbi::lake::LakeReader::open(dir);

  constexpr int kLanes = 8;
  dbi::lake::LakeReplayOptions ropt;
  ropt.workers = 1;
  ropt.readahead = true;
  dbi::lake::LakeReplayResult replayed;
  const double s_replay = timed(tracer, "lake.replay_lake", reps, [&] {
    replayed = dbi::lake::replay_lake(
        lake, spec_of(dbi::Scheme::kAc, x8.geometry, kLanes), ropt);
  });
  dbi::StreamStats in_ram;
  const double s_ram = timed(tracer, "api.session_run", reps, [&] {
    in_ram = {};
    for (const Payload& q : p) {
      dbi::Session s(spec_of(dbi::Scheme::kAc, q.geometry, kLanes));
      in_ram += session_stats(s, q);
    }
  });
  if (replayed.totals.zeros != in_ram.zeros ||
      replayed.totals.transitions != in_ram.transitions)
    checks.fail("lake: replay totals differ from the in-RAM Session");
  else
    checks.pass();
  m.push_back({"lake.replay_mb_s", mb(total_bytes) / s_replay, "MB/s"});
  m.push_back({"lake.replay_vs_session", s_ram / s_replay, "1"});

  dbi::lake::SweepOptions sopt;
  sopt.lanes = kLanes;
  sopt.arms = {
      {"dc", dbi::SchemePolicy::fixed(dbi::Scheme::kDc), {}},
      {"ac", dbi::SchemePolicy::fixed(dbi::Scheme::kAc), {}},
      {"acdc", dbi::SchemePolicy::fixed(dbi::Scheme::kAcDc), {}},
      {"select-predict",
       dbi::SchemePolicy::adaptive_predicted(
           {dbi::Scheme::kDc, dbi::Scheme::kAc, dbi::Scheme::kAcDc}),
       {}}};
  const double s_sweep = timed(tracer, "lake.run_sweep", reps, [&] {
    (void)dbi::lake::run_sweep(lake, sopt);
  });
  double s_arms = 0;
  for (const dbi::lake::SweepArm& arm : sopt.arms)
    s_arms += timed(tracer, "lake.replay_lake", reps, [&] {
      (void)dbi::lake::replay_lake(lake,
                                   spec_of(arm.policy, x8.geometry, kLanes), ropt);
    });
  m.push_back({"lake.sweep_vs_replay", s_sweep / s_arms, "1"});

  {
    dbi::Session s(spec_of(dbi::Scheme::kAc, x8.geometry, kLanes));
    std::vector<double> shares;
    (void)timed(tracer, "api.session_run", reps, [&] {
      TimedSource source(dbi::lake::make_lake_source(lake));
      const std::int64_t t0 = now_ns();
      (void)s.run(source);
      shares.push_back(static_cast<double>(source.wait_ns) /
                       static_cast<double>(now_ns() - t0));
    });
    m.push_back({"api.source_wait_share", median(shares), "1"});
  }
  fs::remove_all(dir);

  // ---------------------------------------------------------- select
  {
    dbi::Session fixed(spec_of(dbi::Scheme::kAc, x8.geometry));
    dbi::Session adaptive(spec_of(
        dbi::SchemePolicy::adaptive_predicted(
            {dbi::Scheme::kDc, dbi::Scheme::kAc, dbi::Scheme::kAcDc}),
        x8.geometry));
    const double sf = timed(tracer, "api.session_run", reps,
                            [&] { (void)session_stats(fixed, x8); });
    const double sa = timed(tracer, "select.session_run", reps,
                            [&] { (void)session_stats(adaptive, x8); });
    m.push_back({"select.predict_vs_fixed", sa / sf, "1"});
  }

  // ----------------------------------------------------------- serve
  ServeStats probe;
  if (serve == nullptr || !serve->valid) {
    probe = serve_pass(ctx, x8, x64, ctx.smoke ? 0.5 : 2.0, tracer, true,
                       checks, nullptr);
    serve = &probe;
  }
  m.push_back({"serve.idle_rtt_us", serve->idle_rtt_us, "us"});
  m.push_back(
      {"serve.queue_wait_us", serve->p50_us - serve->idle_rtt_us, "us"});
  m.push_back({"serve.server_p99_us", serve->server_p99_us, "us"});
  m.push_back({"serve.batches_total", serve->batches_total, "count"});
  m.push_back({"serve.batch_bursts_mean", serve->batch_bursts_mean, "bursts"});
  m.push_back({"serve.vs_session",
               serve->session_mb_s > 0 ? serve->bulk_mb_s / serve->session_mb_s
                                       : 0,
               "1"});
  m.push_back({"serve.busy_total", serve->busy_total, "count"});
  m.push_back({"serve.gen_lag_us", serve->gen_lag_us, "us"});
  return m;
}

}  // namespace pb

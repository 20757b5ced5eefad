// lake_campaign: ingest-then-sweep over a trace lake.
//
// Each iteration records every payload into a fresh lake through
// Session -> make_trace_sink -> TraceWriter (RLE on) plus LakeWriter,
// opens the lake (the set-up call) and runs one run_sweep over it with
// the arms dc, ac, acdc and select predict:dc,ac,acdc, 8 interleaved
// lanes, threaded state, stats only, warm page cache. Fixed-arm cell
// totals are checked against the scalar core encoders; the whole report
// (adaptive arm included) must repeat byte for byte.
#include <bit>
#include <filesystem>
#include <memory>
#include <sstream>

#include "adapters.hpp"
#include "api/session.hpp"
#include "common.hpp"
#include "lake/lake.hpp"
#include "lake/sweep.hpp"
#include "oracle.hpp"
#include "trace/trace_writer.hpp"

namespace pb {

namespace {

constexpr int kLanes = 8;
// Recorded chunks hold 32 KiB at every geometry (4096 x8 bursts, 512
// x64 bursts), so the chunk latencies are one population.
constexpr std::size_t kRecordChunkBytes = 32 * 1024;

std::string member_name(std::size_t i, const Payload& p) {
  std::string out = "m";
  out += std::to_string(i);
  out += '-';
  out += p.name;
  out += ".dbt";
  return out;
}

/// Records `p` into `path` through a raw-scheme Session and a trace
/// sink; per-chunk sink latencies land in `chunk_us` unless it is null.
dbi::StreamStats record(const Payload& p, const std::string& path,
                        LatencyWindows* chunk_us, Tracer* tracer) {
  Span span(tracer, "api.record");
  const auto chunk_bursts =
      static_cast<std::int64_t>(kRecordChunkBytes / p.bytes_per_burst());
  dbi::trace::TraceWriterOptions wopt;  // RLE on
  wopt.bursts_per_chunk = static_cast<std::uint32_t>(chunk_bursts);
  std::unique_ptr<dbi::trace::TraceWriter> writer =
      p.geometry.is_wide()
          ? std::make_unique<dbi::trace::TraceWriter>(
                path, p.geometry.wide_bus(), wopt)
          : std::make_unique<dbi::trace::TraceWriter>(path, p.geometry.bus(),
                                                      wopt);
  dbi::SessionSpec spec;
  spec.policy = dbi::Scheme::kRaw;
  spec.geometry = p.geometry;
  dbi::Session session(spec);
  ChunkSource source(p, chunk_bursts);
  TimedSink sink(dbi::make_trace_sink(*writer), chunk_us);
  return session.run(source, sink);
}

/// The sweep cell line of (arm, member) in a run_sweep report.
std::string cell_line(const std::string& report, const std::string& arm,
                      const std::string& member) {
  const std::string key =
      "{\"arm\":\"" + arm + "\",\"member\":\"" + member + "\"";
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line;
  }
  return {};
}

}  // namespace

Result run_lake_campaign(const Context& ctx, const std::vector<Payload>& p,
                         Tracer* tracer) {
  namespace fs = std::filesystem;
  Result res;
  res.names = {{"throughput_mb_s", "campaign_mb_s"},
               {"aux_mb_s", "ingest_mb_s"},
               {"e2e.p50_us", "record_chunk_p50_us"},
               {"e2e.p99_us", "record_chunk_p99_us"}};
  const std::string dir = ctx.workdir + "/lake";

  struct FixedArm {
    const char* label;
    dbi::Scheme scheme;
  };
  const FixedArm fixed[] = {{"dc", dbi::Scheme::kDc},
                            {"ac", dbi::Scheme::kAc},
                            {"acdc", dbi::Scheme::kAcDc}};
  dbi::lake::SweepOptions opt;
  for (const FixedArm& a : fixed)
    opt.arms.push_back({a.label, dbi::SchemePolicy::fixed(a.scheme), {}});
  opt.arms.push_back(
      {"select-predict",
       dbi::SchemePolicy::adaptive_predicted(
           {dbi::Scheme::kDc, dbi::Scheme::kAc, dbi::Scheme::kAcDc}),
       {}});
  opt.lanes = kLanes;
  opt.state_policy = dbi::StatePolicy::kThread;

  // Untimed oracle: the expected totals of every fixed-arm cell.
  std::vector<std::vector<std::string>> expected(std::size(fixed));
  std::size_t payload_bytes = 0;
  {
    Span span(tracer, "bench.oracle");
    for (std::size_t a = 0; a < std::size(fixed); ++a)
      for (const Payload& m : p) {
        const dbi::StreamStats s = scalar_threaded(m, fixed[a].scheme, kLanes);
        expected[a].push_back(",\"zeros\":" + std::to_string(s.zeros) +
                              ",\"transitions\":" +
                              std::to_string(s.transitions) + ",");
      }
    for (const Payload& m : p) payload_bytes += m.bytes.size();
  }
  // A raw-scheme recording counts the payload's own zero bits.
  std::vector<std::int64_t> raw_zeros;
  for (const Payload& m : p) {
    std::int64_t z = 0;
    for (const std::uint8_t b : m.bytes) z += 8 - std::popcount(b);
    raw_zeros.push_back(z);
  }
  {
    dbi::SessionSpec spec;
    spec.policy = dbi::Scheme::kAc;
    spec.geometry = p.front().geometry;
    spec.lanes = kLanes;
    res.kernel = kernel_line(dbi::Session(spec));
  }

  Rates ingest_rates, campaign_rates;
  std::vector<double> open_s;
  LatencyWindows chunk_us;
  std::string first_report;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (int iter = 0; iter < 2 || now_ns() < deadline; ++iter) {
    Tracer* const t = iteration_tracer(tracer, iter);
    Span it(t, "bench.iteration", iter);
    try {
      // Ingest: record every member, then catalogue them.
      Span ingest(t, "bench.ingest");
      fs::remove_all(dir);
      fs::create_directories(dir);
      for (std::size_t i = 0; i < p.size(); ++i) {
        const dbi::StreamStats s =
            record(p[i], dir + "/" + member_name(i, p[i]),
                   t ? nullptr : &chunk_us, t);
        if (s.zeros != raw_zeros[i])
          res.checks.fail("record " + p[i].name + ": payload zeros differ");
        else
          res.checks.pass();
      }
      {
        Span add(t, "lake.add");
        dbi::lake::LakeWriter writer = dbi::lake::LakeWriter::create(dir);
        for (std::size_t i = 0; i < p.size(); ++i)
          (void)writer.add(member_name(i, p[i]));
        writer.write();
      }
      const double ingest_s = ingest.close();
      const double host = host_speed();
      ingest_rates.add(mb(payload_bytes), ingest_s, host, t != nullptr);

      // Set-up: the lake is opened several times (sub-millisecond each),
      // each time taken at nominal host speed; the last reader feeds the
      // sweep.
      for (int k = 0; k < 4; ++k) {
        Span open(t, "lake.open");
        (void)dbi::lake::LakeReader::open(dir);
        open_s.push_back(open.close() * host);
      }
      Span open(t, "lake.open");
      const dbi::lake::LakeReader reader = dbi::lake::LakeReader::open(dir);
      open_s.push_back(open.close() * host);

      Span sweep(t, "lake.run_sweep");
      const std::string report = dbi::lake::run_sweep(reader, opt);
      const double sweep_s = sweep.close();
      campaign_rates.add(mb(payload_bytes * opt.arms.size()), sweep_s,
                         host_speed(), t != nullptr);

      Span check(t, "bench.check");
      for (std::size_t a = 0; a < std::size(fixed); ++a)
        for (std::size_t i = 0; i < p.size(); ++i) {
          const std::string line =
              cell_line(report, fixed[a].label, member_name(i, p[i]));
          if (line.find(expected[a][i]) == std::string::npos)
            res.checks.fail(std::string("sweep cell ") + fixed[a].label +
                            " x " + p[i].name + " differs from scalar core");
          else
            res.checks.pass();
        }
      if (first_report.empty()) {
        first_report = report;
      } else if (report != first_report) {
        res.checks.fail("sweep report differs across repeats");
      } else {
        res.checks.pass();
      }
    } catch (const std::exception& e) {
      res.checks.fail(std::string("iteration: ") + e.what());
    }
  }
  fs::remove_all(dir);

  res.setup_s = median(open_s);
  res.throughput_mb_s = summarize(campaign_rates);
  res.aux_mb_s = summarize(ingest_rates);
  const Latency lat = chunk_us.result();
  res.p50_us = lat.p50_us;
  res.p99_us = lat.p99_us;
  res.latency_samples = chunk_us.samples();
  res.peak_rss_mb = self_peak_rss_mb();
  return res;
}

}  // namespace pb

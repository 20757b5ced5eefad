// dbi_perfbench — one end-to-end benchmark over the repository's user
// paths: an offline lake campaign, the paper's in-RAM round trip and
// mixed-tenant dbid serving.
//
//   dbi_perfbench --workload lake_campaign|paper_roundtrip|serve_mixed
//                 --seed N --seconds S --trace 0|1 --dbid PATH
//                 --workdir DIR [--spans FILE] [--smoke]
//
// --trace 0 runs the workload once, untraced, and ends with the
// end-to-end metrics. --trace 1 runs it once with spans recorded on
// every other iteration (the rate difference between the two kinds of
// iteration is the tracing overhead), adds the per-layer waterfall,
// writes the spans as Chrome trace_event JSON to --spans, and ends with
// the per-layer metrics. The last stdout line is always one JSON object
// {"correct", "attempted", "failed", "metrics"}. Wrong outputs make the
// exit code 1. perfbench/run.py builds this binary and calls it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "api/kernels.hpp"
#include "api/version.hpp"
#include "common.hpp"
#include "engine/kernel_registry.hpp"

namespace {

using pb::num;

struct Args {
  pb::Context ctx;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dbi_perfbench: " << why
            << "\nusage: dbi_perfbench --workload "
               "lake_campaign|paper_roundtrip|serve_mixed --seed N "
               "--seconds S --trace 0|1 --dbid PATH --workdir DIR "
               "[--spans FILE] [--smoke]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.ctx.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.ctx.workload = v;
    else if (k == "--seed") a.ctx.seed = std::stoull(v);
    else if (k == "--seconds") a.ctx.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--dbid") a.ctx.dbid = v;
    else if (k == "--workdir") a.ctx.workdir = v;
    else if (k == "--spans") a.spans = v;
    else usage("unknown option " + k);
  }
  if (a.ctx.workload != "lake_campaign" &&
      a.ctx.workload != "paper_roundtrip" && a.ctx.workload != "serve_mixed")
    usage("unknown workload '" + a.ctx.workload + "'");
  if (a.ctx.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.ctx.workdir.empty()) usage("--workdir is required");
  if (a.ctx.dbid.empty() && (a.ctx.workload == "serve_mixed" || a.trace))
    usage("--dbid is required");
  return a;
}

/// The workload's seeded inputs (generated untimed). Every set holds a
/// `mixed` x8 payload first and a wide x64 `float-tensor` payload.
std::vector<pb::Payload> payloads(const pb::Context& c) {
  const dbi::Geometry x8 = dbi::Geometry::narrow(8);
  const dbi::Geometry x64 = dbi::Geometry::wide(64);
  const std::uint64_t s = c.seed * 1000;
  const std::int64_t n8 = c.smoke ? 8192 : 131072;  // 1 MiB of x8
  const std::int64_t n64 = c.smoke ? 4096 : 16384;  // 1 MiB of x64
  if (c.workload == "lake_campaign")
    return {pb::make_payload("mixed", x8, n8, s + 1),
            pb::make_payload("cacheline-memcpy", x8, n8, s + 2),
            pb::make_payload("sparse-zeros", x8, n8, s + 3),
            pb::make_payload("float-tensor", x64, n64, s + 4)};
  if (c.workload == "paper_roundtrip")
    return {pb::make_payload("mixed", x8, n8, s + 1),
            pb::make_payload("float-tensor", x64, n64, s + 4)};
  return {pb::make_payload("mixed", x8, c.smoke ? 8192 : 16384, s + 1),
          pb::make_payload("float-tensor", x64, n64, s + 4)};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string fingerprint(const pb::Result& r) {
  using dbi::engine::KernelIsa;
  std::string isa;
  for (const KernelIsa k : {KernelIsa::kPortable, KernelIsa::kAvx2,
                            KernelIsa::kAvx512, KernelIsa::kNeon})
    if (dbi::engine::isa_available(k)) {
      if (!isa.empty()) isa += ",";
      isa += dbi::engine::isa_name(k);
    }
  std::string kernels;
  for (const dbi::KernelInfo& k : dbi::available_kernels()) {
    if (!kernels.empty()) kernels += ",";
    kernels += std::string(k.name) + (k.available ? "" : "(unavailable)") +
               (k.selected ? "*" : "");
  }
  return "{\"cpu\":\"" + pb::json_escape(cpu_model()) +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"isa\":\"" + isa + "\",\"kernels\":\"" + kernels +
         "\",\"kernel\":\"" + pb::json_escape(r.kernel) +
         "\",\"build_type\":\"" DBI_PB_BUILD_TYPE
         "\",\"cxx_flags\":\"" + pb::json_escape(DBI_PB_CXX_FLAGS) +
         "\",\"compiler\":\"" DBI_PB_COMPILER "\",\"build_version\":\"" +
         pb::json_escape(std::string(dbi::build_version())) + "\"}";
}

/// The gated end-to-end metrics of a pass, in BENCHMARK.json's order.
std::vector<pb::Metric> gated_metrics(const pb::Result& r) {
  const double attempted =
      static_cast<double>(std::max<std::int64_t>(1, r.checks.attempted));
  return {{"setup_s", r.setup_s, "s"},
          {"peak_rss_mb", r.peak_rss_mb, "MB"},
          {"ok_ratio", 1.0 - static_cast<double>(r.checks.failed) / attempted,
           "1"},
          {"throughput_mb_s", r.throughput_mb_s.value, "MB/s"},
          {"aux_mb_s", r.aux_mb_s.value, "MB/s"}};
}

/// The workload's op latency, which the traced run reports as
/// per-layer metrics (its run-to-run spread on a shared host is wider
/// than any bound the benchmark may set).
std::vector<pb::Metric> latency_metrics(const pb::Result& r) {
  return {{"e2e.p50_us", r.p50_us, "us"}, {"e2e.p99_us", r.p99_us, "us"}};
}

void print_report(const pb::Context& c, const pb::Result& r) {
  std::printf("== %s (seed %llu, %.3g s)\n", c.workload.c_str(),
              static_cast<unsigned long long>(c.seed), c.seconds);
  std::vector<pb::Metric> all = gated_metrics(r);
  for (const pb::Metric& m : latency_metrics(r)) all.push_back(m);
  for (const pb::Metric& m : all) {
    std::string own;
    for (const auto& [slot, n] : r.names)
      if (slot == m.name) own = "  [" + n + "]";
    if (m.name == "throughput_mb_s" || m.name == "aux_mb_s") {
      const pb::Rate& rate =
          m.name == "throughput_mb_s" ? r.throughput_mb_s : r.aux_mb_s;
      own += "  wall-clock " + num(rate.wall) + " MB/s at host speed " +
             num(rate.host);
    }
    std::printf("  %-16s %14s %-5s%s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str(), own.c_str());
  }
  std::printf("  %-16s %14s %-5s  [%lld of %lld ops; %lld latency samples]\n",
              "fail_ratio",
              num(static_cast<double>(r.checks.failed) /
                  static_cast<double>(std::max<std::int64_t>(1, r.checks.attempted)))
                  .c_str(),
              "1", static_cast<long long>(r.checks.failed),
              static_cast<long long>(r.checks.attempted),
              static_cast<long long>(r.latency_samples));
  for (const std::string& e : r.checks.errors)
    std::printf("  FAILED: %s\n", e.c_str());
}

pb::Result run(const pb::Context& c, const std::vector<pb::Payload>& p,
               pb::Tracer* tracer) {
  if (c.workload == "lake_campaign") return pb::run_lake_campaign(c, p, tracer);
  if (c.workload == "paper_roundtrip")
    return pb::run_paper_roundtrip(c, p, tracer);
  return pb::run_serve_mixed(c, p, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const pb::Context& ctx = args.ctx;
  try {
    const std::vector<pb::Payload> p = payloads(ctx);
    std::vector<pb::Metric> metrics;
    pb::Checks checks;

    if (args.trace == 0) {
      const pb::Result r = run(ctx, p, nullptr);
      print_report(ctx, r);
      std::printf("fingerprint %s\n", fingerprint(r).c_str());
      checks.merge(r.checks);
      metrics = gated_metrics(r);
    } else {
      // One pass whose odd iterations (serve_mixed: odd 1-second
      // windows) record spans; the even ones give the reported figures.
      pb::Tracer tracer;
      const pb::Result r = run(ctx, p, &tracer);
      print_report(ctx, r);
      std::printf("fingerprint %s\n", fingerprint(r).c_str());
      checks.merge(r.checks);

      std::printf("== tracing overhead (traced vs untraced iterations)\n");
      for (const auto& [name, rate] :
           {std::pair{"throughput_mb_s", r.throughput_mb_s},
            std::pair{"aux_mb_s", r.aux_mb_s}})
        if (rate.traced > 0 && rate.value > 0)
          std::printf("  %-16s %14s -> %-14s %+.2f%%\n", name,
                      num(rate.value).c_str(), num(rate.traced).c_str(),
                      100.0 * (rate.traced - rate.value) / rate.value);
      const double overhead =
          r.throughput_mb_s.value > 0 && r.throughput_mb_s.traced > 0
              ? 1.0 - r.throughput_mb_s.traced / r.throughput_mb_s.value
              : 0;

      pb::Checks probe_checks;
      metrics = pb::layer_probes(
          ctx, p, &tracer, ctx.workload == "serve_mixed" ? &r.serve : nullptr,
          probe_checks);
      checks.merge(probe_checks);
      for (const std::string& e : probe_checks.errors)
        std::printf("  FAILED: %s\n", e.c_str());

      std::printf("== per-layer self time (traced iterations + waterfall)\n%s",
                  tracer.self_time_table().c_str());
      if (!args.spans.empty()) {
        std::ofstream os(args.spans, std::ios::binary | std::ios::trunc);
        os << tracer.chrome_json();
        if (!os) throw std::runtime_error("cannot write " + args.spans);
        std::printf("spans: %s (%zu spans, Chrome trace_event JSON)\n",
                    args.spans.c_str(), tracer.spans().size());
      }
      for (const pb::Metric& m : latency_metrics(r)) metrics.push_back(m);
      metrics.push_back({"bench.trace_overhead", overhead, "1"});
      std::printf("== per-layer metrics\n");
      for (const pb::Metric& m : metrics)
        std::printf("  %-32s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
    }

    const bool correct = checks.mismatches == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, checks.attempted)) +
            ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "dbi_perfbench: " << e.what() << "\n";
    return 1;
  }
}

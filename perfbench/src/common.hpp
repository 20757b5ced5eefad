// Shared pieces of dbi_perfbench: the span tracer, timing and quantile
// helpers, the seeded payload sets, the run context and the per-run
// result every workload fills in.
//
// The benchmark drives the library only through its public headers.
// Timings are taken with std::chrono::steady_clock around the
// benchmark's own calls into each layer; the gated rates are scaled
// to a nominal host speed (host_speed()). Spans are recorded only in a
// traced run (Tracer non-null) and kept in memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/geometry.hpp"
#include "api/stream_stats.hpp"

namespace dbi {
class Session;
}  // namespace dbi

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The host's speed right now, as a share of a nominal speed: the rate
/// of a fixed kernel of the benchmark's own (an FNV-1a chain and a byte
/// popcount over a 256 KiB buffer, twice; about 2 ms) divided by
/// kReferenceMbS. Other tenants of a shared host slow every kernel on
/// it alike, for stretches of seconds to minutes, while the process
/// keeps its CPU, so the CPU clock does not see it either; taken right
/// after each timed stretch, this reading lets a rate be scaled to the
/// nominal host (see Rates).
[[nodiscard]] double host_speed();
/// The reference kernel's rate on the measuring host when it is quiet
/// (a 4-vCPU Intel Xeon VM, AVX-512).
inline constexpr double kReferenceMbS = 300;

// ------------------------------------------------------------- spans

struct SpanRecord {
  std::string name;  ///< "<layer>.<call>", e.g. "lake.run_sweep"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t req = -1;    ///< request id (serve_mixed), -1 = none
  std::uint32_t tid = 0;
};

/// In-memory span store. Thread-safe; spans are written out once, at
/// the end of the run, as Chrome trace_event JSON.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] std::int64_t next_id();
  void record(SpanRecord span);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Chrome trace_event JSON ("X" complete events; args carry id,
  /// parent and request id).
  [[nodiscard]] std::string chrome_json() const;
  /// Per-layer table: span count, total and self time (a span's
  /// duration minus the part its children cover), self time as a share
  /// of the traced wall time (first span start to last span end).
  [[nodiscard]] std::string self_time_table() const;

 private:
  std::int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::int64_t next_id_ = 1;       // guarded by mu_
};

/// Scoped timing around one call. Always measures; records a span
/// (parented to the innermost open Span on this thread) only when the
/// tracer is non-null.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::int64_t req = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now (idempotent) and returns its duration.
  double close();
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::int64_t req_;
  std::int64_t start_ns_;
  std::int64_t id_ = 0;
  std::int64_t parent_ = 0;
  double seconds_ = -1;
};

/// In a traced run, the tracer of iteration `iter`: spans are recorded
/// on odd iterations only, so the tracing overhead comes from traced
/// and untraced iterations interleaved in one pass.
[[nodiscard]] inline Tracer* iteration_tracer(Tracer* tracer, int iter) {
  return iter % 2 ? tracer : nullptr;
}

// ----------------------------------------------------------- numbers

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// A run's rate from its per-iteration (or per-window) rates: the 90th
/// percentile. Other load on a shared host only ever slows a stretch of
/// the run down, and it comes and goes over seconds; the fast end of the
/// run tracks the program's own speed, which any code change that slows
/// every iteration still moves.
[[nodiscard]] inline double quiet_rate(std::vector<double> rates) {
  return quantile(std::move(rates), 0.9);
}
/// Latency quantiles of a run: the time-ordered samples are cut into
/// consecutive windows of `per_window` samples (1000, so a window's p99
/// has 10 samples beyond it), and each quantile is the 10th percentile
/// of its per-window values (the fast end, as for quiet_rate).
struct Latency {
  double p50_us = 0;
  double p99_us = 0;
};
/// Folds latency samples into per-window quantiles as they arrive, so
/// the samples take the same memory however long or fast the run is
/// (peak_rss_mb would otherwise count a sample buffer that grows with
/// the program's speed). A tail window of fewer than per_window/2
/// samples is dropped unless it is the only one.
class LatencyWindows {
 public:
  explicit LatencyWindows(std::size_t per_window = 1000)
      : per_window_(per_window) {
    window_.reserve(per_window);
  }
  void add(double us);
  [[nodiscard]] Latency result() const;
  [[nodiscard]] std::int64_t samples() const { return samples_; }

 private:
  std::size_t per_window_;
  std::vector<double> window_, p50s_, p99s_;
  std::int64_t samples_ = 0;
};
[[nodiscard]] Latency window_latency(const std::vector<double>& samples_us,
                                     std::size_t per_window = 1000);
/// The per-iteration rates of one end-to-end rate metric: at the
/// nominal host speed (the wall-clock rate divided by the host_speed()
/// read right after the iteration) and plain wall-clock. Traced
/// iterations (see iteration_tracer) are kept apart.
struct Rates {
  std::vector<double> nominal, wall, traced_nominal, speed;

  void add(double mbytes, double wall_s, double host, bool traced) {
    if (traced) {
      traced_nominal.push_back(mbytes / wall_s / host);
      return;
    }
    nominal.push_back(mbytes / wall_s / host);
    wall.push_back(mbytes / wall_s);
    speed.push_back(host);
  }
};
/// A run's figures for one rate metric. `value` is the reported one:
/// the quiet_rate of the untraced iterations' rates at nominal host
/// speed (serve_mixed: wall-clock, since dbid does its work in a
/// process of its own). `traced` is the same over the traced
/// iterations (0 in an untraced run); `host` is the median host_speed.
struct Rate {
  double value = 0;
  double wall = 0;
  double traced = 0;
  double host = 1;
};
[[nodiscard]] inline Rate summarize(const Rates& r) {
  return {quiet_rate(r.nominal), quiet_rate(r.wall),
          quiet_rate(r.traced_nominal), median(r.speed)};
}
/// One reported metric, named and with its unit as in BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
[[nodiscard]] inline double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / 1e6;
}
/// FNV-1a over 64-bit words: the compact mask digest the output checks
/// compare.
[[nodiscard]] std::uint64_t fnv64(std::span<const std::uint64_t> words,
                                  std::uint64_t h = 1469598103934665603ULL);
/// Shortest round-trip rendering of a double (JSON number).
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string json_escape(const std::string& s);
/// One-line rendering of Session::report().kernel: the resolved
/// variant and the kernel serving each engine path.
[[nodiscard]] std::string kernel_line(const dbi::Session& session);
/// Peak resident set of this process, MB (/proc/self VmHWM).
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set of process `pid`, MB (/proc/<pid>/status VmHWM);
/// 0 when unreadable.
[[nodiscard]] double pid_peak_rss_mb(int pid);

// ---------------------------------------------------------- payloads

/// One seeded input: a corpus scenario packed at a geometry (the
/// trace payload / engine packed layout).
struct Payload {
  std::string name;  ///< "<corpus scenario>-x<width>"
  dbi::Geometry geometry;
  std::int64_t bursts = 0;
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] std::size_t bytes_per_burst() const {
    return static_cast<std::size_t>(geometry.bytes_per_burst());
  }
  /// Bursts [first, first + count) as a packed span.
  [[nodiscard]] std::span<const std::uint8_t> slice(std::int64_t first,
                                                    std::int64_t count) const {
    return std::span<const std::uint8_t>(bytes).subspan(
        static_cast<std::size_t>(first) * bytes_per_burst(),
        static_cast<std::size_t>(count) * bytes_per_burst());
  }
};

/// Generates `bursts` bursts of `corpus` at `geometry` from the
/// workload generators (narrow: the scenario's own bursts; wide: the
/// scenario's byte stream interleaved beat-major across the groups).
[[nodiscard]] Payload make_payload(const std::string& corpus,
                                   const dbi::Geometry& geometry,
                                   std::int64_t bursts, std::uint64_t seed);

// --------------------------------------------------------- run state

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string dbid;     ///< path of the dbid binary
  std::string workdir;  ///< scratch directory (relative, inside the checkout)
};

/// Counters of the output checks: every checked op counts as
/// attempted; a mismatch, exception, kBusy or server error as failed.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;  ///< wrong outputs (these fail the run)
  std::vector<std::string> errors;  ///< first few failure messages

  void pass() { ++attempted; }
  void fail(const std::string& what, bool mismatch = true);
  void merge(const Checks& o);
};

/// Everything the serving path reports (serve_mixed's own pass, or the
/// short serve probe the traced run of the other workloads makes).
struct ServeStats {
  double bulk_mb_s = 0;
  double traced_bulk_mb_s = 0;  ///< traced windows of a traced pass
  double interactive_mb_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::int64_t samples = 0;
  double idle_rtt_us = 0;
  double server_p99_us = 0;
  double gen_lag_us = 0;
  double batches_total = 0;
  double batch_bursts_mean = 0;
  double busy_total = 0;
  double session_mb_s = 0;  ///< offline Session on the bulk payload
  double dbid_peak_rss_mb = 0;
  bool valid = false;
};

/// One workload pass: end-to-end metrics in BENCHMARK.json's generic
/// slots, plus the workload's own names for the human report.
struct Result {
  double setup_s = 0;
  double peak_rss_mb = 0;
  Rate throughput_mb_s;
  Rate aux_mb_s;
  double p50_us = 0;
  double p99_us = 0;
  std::int64_t latency_samples = 0;
  Checks checks;
  std::string kernel;  ///< Session::report().kernel of the hot path
  std::vector<std::pair<std::string, std::string>> names;  ///< slot -> own name
  ServeStats serve;
};

/// Runs workload `ctx.workload` on `payloads` for ctx.seconds.
Result run_lake_campaign(const Context& ctx, const std::vector<Payload>& p,
                         Tracer* tracer);
Result run_paper_roundtrip(const Context& ctx, const std::vector<Payload>& p,
                           Tracer* tracer);
Result run_serve_mixed(const Context& ctx, const std::vector<Payload>& p,
                       Tracer* tracer);

/// The serving pass behind serve_mixed: dbid spawned from ctx.dbid,
/// an open-loop interactive x8 tenant beside a closed-loop bulk x64
/// tenant for `seconds`. `idle_probe` adds the idle-daemon RTT probe.
ServeStats serve_pass(const Context& ctx, const Payload& x8,
                      const Payload& x64, double seconds, Tracer* tracer,
                      bool idle_probe, Checks& checks,
                      std::vector<double>* setup_samples);

/// The traced run's per-layer waterfall over the workload's payloads.
/// `serve` is the workload's own serving pass when it made one.
std::vector<Metric> layer_probes(
    const Context& ctx, const std::vector<Payload>& p, Tracer* tracer,
    const ServeStats* serve, Checks& checks);

}  // namespace pb

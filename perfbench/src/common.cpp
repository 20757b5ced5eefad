#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "api/session.hpp"
#include "workload/corpus.hpp"

namespace pb {

namespace {

thread_local std::int64_t t_current_span = 0;
// Keeps the reference kernel's result alive.
std::atomic<std::uint64_t> g_reference_sink{0};

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
}

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

double host_speed() {
  constexpr std::size_t kWords = 32768;  // 256 KiB
  constexpr int kPasses = 2;
  static const std::vector<std::uint64_t> buffer = [] {
    std::vector<std::uint64_t> w(kWords);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t& v : w) v = x = x * 6364136223846793005ULL + 1;
    return w;
  }();
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(buffer.data()),
      kWords * sizeof(std::uint64_t));
  const std::int64_t t0 = now_ns();
  std::uint64_t h = 0;
  std::int64_t ones = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    h = fnv64(buffer, h + static_cast<std::uint64_t>(pass));
    for (const std::uint8_t b : bytes) ones += std::popcount(b);
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  g_reference_sink.fetch_add(h + static_cast<std::uint64_t>(ones),
                             std::memory_order_relaxed);
  return mb(bytes.size() * kPasses) / s / kReferenceMbS;
}

// ------------------------------------------------------------- spans

Tracer::Tracer() : origin_ns_(now_ns()) {}

std::int64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  if (span.tid == 0) span.tid = thread_tag();
  const std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i) out += ",";
    out += "\n{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(layer_of(s.name)) + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid) +
           ",\"ts\":" + num(static_cast<double>(s.start_ns - origin_ns_) / 1e3) +
           ",\"dur\":" + num(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent);
    if (s.req >= 0) out += ",\"req\":" + std::to_string(s.req);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::self_time_table() const {
  const std::vector<SpanRecord> all = spans();
  std::map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) children[s.parent].push_back(&s);

  struct Row {
    std::int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Row> rows;
  std::int64_t first = 0, last = 0;
  for (const SpanRecord& s : all) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second)
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    Row& r = rows[layer_of(s.name)];
    ++r.count;
    r.total_s += dur;
    r.self_s += dur - static_cast<double>(covered) / 1e9;
    if (first == 0 || s.start_ns < first) first = s.start_ns;
    last = std::max(last, s.end_ns);
  }
  const double wall_s = static_cast<double>(last - first) / 1e9;
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %9s %12s %12s %8s\n", "layer",
                "spans", "total_s", "self_s", "of wall");
  os << line;
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof line, "%-10s %9lld %12.6f %12.6f %7.2f%%\n",
                  layer.c_str(), static_cast<long long>(r.count), r.total_s,
                  r.self_s, wall_s > 0 ? 100.0 * r.self_s / wall_s : 0.0);
    os << line;
  }
  return os.str();
}

Span::Span(Tracer* tracer, std::string name, std::int64_t req)
    : tracer_(tracer), name_(std::move(name)), req_(req) {
  if (tracer_) {
    id_ = tracer_->next_id();
    parent_ = t_current_span;
    t_current_span = id_;
  }
  start_ns_ = now_ns();
}

Span::~Span() { close(); }

double Span::close() {
  if (seconds_ >= 0) return seconds_;
  const std::int64_t end = now_ns();
  seconds_ = static_cast<double>(end - start_ns_) / 1e9;
  if (tracer_) {
    t_current_span = parent_;
    SpanRecord r;
    r.name = std::move(name_);
    r.start_ns = start_ns_;
    r.end_ns = end;
    r.id = id_;
    r.parent = parent_;
    r.req = req_;
    tracer_->record(std::move(r));
  }
  return seconds_;
}

// ----------------------------------------------------------- numbers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void LatencyWindows::add(double us) {
  window_.push_back(us);
  ++samples_;
  if (window_.size() < per_window_) return;
  p50s_.push_back(quantile(window_, 0.5));
  p99s_.push_back(quantile(window_, 0.99));
  window_.clear();
}

Latency LatencyWindows::result() const {
  std::vector<double> p50s = p50s_, p99s = p99s_;
  if (p50s.empty() || window_.size() >= per_window_ / 2) {
    p50s.push_back(quantile(window_, 0.5));
    p99s.push_back(quantile(window_, 0.99));
  }
  return {quantile(p50s, 0.1), quantile(p99s, 0.1)};
}

Latency window_latency(const std::vector<double>& samples_us,
                       std::size_t per_window) {
  LatencyWindows w(per_window);
  for (const double us : samples_us) w.add(us);
  return w.result();
}

std::uint64_t fnv64(std::span<const std::uint64_t> words, std::uint64_t h) {
  for (const std::uint64_t w : words) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string kernel_line(const dbi::Session& session) {
  const dbi::KernelReport k = session.report().kernel;
  std::string out(k.variant);
  out += " (";
  out += k.isa;
  out += "); fixed=";
  out += k.fixed_encode;
  out += " planar=";
  out += k.planar_encode;
  out += " trellis=";
  out += k.trellis;
  out += " decode=";
  out += k.decode;
  return out;
}

double self_peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and
  // would report the launching process's peak when it is larger.
  return pid_peak_rss_mb(static_cast<int>(::getpid()));
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0;
}

// ---------------------------------------------------------- payloads

Payload make_payload(const std::string& corpus, const dbi::Geometry& geometry,
                     std::int64_t bursts, std::uint64_t seed) {
  Payload p;
  p.name = corpus + "-x" + std::to_string(geometry.width());
  p.geometry = geometry;
  p.bursts = bursts;
  p.bytes.resize(static_cast<std::size_t>(bursts) * p.bytes_per_burst());
  if (geometry.is_wide()) {
    dbi::workload::fill_wide_corpus(corpus, geometry.wide_bus(), seed, p.bytes);
    return p;
  }
  // Narrow x8: one byte per beat, the packed layout of a width-8 group.
  auto source = dbi::workload::make_corpus_source(corpus, geometry.bus(), seed);
  std::size_t at = 0;
  for (std::int64_t b = 0; b < bursts; ++b) {
    const dbi::Burst burst = source->next();
    for (const dbi::Word w : burst.words())
      p.bytes[at++] = static_cast<std::uint8_t>(w);
  }
  return p;
}

// --------------------------------------------------------- run state

void Checks::fail(const std::string& what, bool mismatch) {
  ++attempted;
  ++failed;
  if (mismatch) ++mismatches;
  if (errors.size() < 8) errors.push_back(what);
}

void Checks::merge(const Checks& o) {
  attempted += o.attempted;
  failed += o.failed;
  mismatches += o.mismatches;
  for (const std::string& e : o.errors)
    if (errors.size() < 8) errors.push_back(e);
}

}  // namespace pb

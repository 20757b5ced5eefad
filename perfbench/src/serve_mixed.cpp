// serve_mixed: dbid with two tenants.
//
// dbid runs as its own process with its default serial workers. An
// interactive tenant sends x8 `ac` 64-burst encodes on a fixed
// open-loop schedule (one sender thread, one receiver thread; each
// request is timed from when it was due), beside a bulk tenant sending
// wide x64 `ac` 4096-burst encodes closed-loop with a pipelined window
// of 4. A control connection reads Client::stats() at the end. Every
// ack's masks are digested as they arrive and compared, untimed after
// the run, with the scalar core encoder fed the same accepted requests.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "api/session.hpp"
#include "common.hpp"
#include "oracle.hpp"
#include "serve/client.hpp"

extern char** environ;

namespace pb {

namespace {

using dbi::serve::Client;

constexpr std::uint32_t kInteractiveBursts = 64;
constexpr std::uint32_t kBulkBursts = 4096;
constexpr std::size_t kBulkWindow = 4;
constexpr std::int64_t kMaxSlices = 256;

/// A spawned dbid. stop() asks it to shut down over a control
/// connection and reaps it (SIGKILL after a grace period); the
/// destructor stops it too, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket)
      : socket_(std::move(socket)) {
    std::filesystem::remove(socket_);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // The daemon's stdout joins stderr: the benchmark's stdout ends in
    // its JSON result line.
    posix_spawn_file_actions_adddup2(&fa, 2, 1);
    std::vector<std::string> args = {binary, "--socket", socket_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    // Ready once the socket accepts a connection.
    const std::int64_t give_up = now_ns() + 10'000'000'000LL;
    for (;;) {
      try {
        (void)Client::connect_control(socket_);
        return;
      } catch (const std::system_error&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("dbid exited before accepting");
        }
        if (now_ns() > give_up) {
          stop();
          throw std::runtime_error("dbid did not come up within 10 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  void stop() noexcept {
    if (pid_ <= 0) return;
    try {
      Client::connect_control(socket_).shutdown_server();
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    int status = 0;
    const std::int64_t give_up = now_ns() + 5'000'000'000LL;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// One answered request of a tenant: which payload slice it carried
/// and what came back.
struct Answer {
  std::int64_t slice = -1;
  bool ok = false;
  std::uint64_t zeros = 0;
  std::uint64_t transitions = 0;
  std::uint64_t hash = 0;
};

void digest(const dbi::serve::EncodeAck& ack, Answer& a) {
  a.ok = true;
  a.zeros = ack.zeros;
  a.transitions = ack.transitions;
  a.hash = fnv64(ack.masks);
}

/// Compares a tenant's served acks, in admission order, with the
/// threaded-state scalar core encoder over the same accepted requests.
void check_tenant(const Payload& p, std::int64_t req_bursts,
                  const std::vector<Answer>& answers, const char* tenant,
                  Checks& checks) {
  ScalarStream oracle(p, dbi::Scheme::kAc, req_bursts);
  for (const Answer& a : answers) {
    if (!a.ok) continue;  // refused: the tenant's state did not move
    const Expect e = oracle.next(a.slice);
    if (a.hash != e.mask_hash ||
        a.zeros != static_cast<std::uint64_t>(e.stats.zeros) ||
        a.transitions != static_cast<std::uint64_t>(e.stats.transitions))
      checks.fail(std::string(tenant) + ": served ack differs from scalar core");
    else
      checks.pass();
  }
}

/// Value of the Prometheus series `series` (name plus label block, as
/// printed) in a stats() exposition; 0 when absent.
double prom_value(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.size() > series.size() && line.rfind(series, 0) == 0 &&
        line[series.size()] == ' ')
      return std::strtod(line.c_str() + series.size() + 1, nullptr);
  return 0;
}

double prom_sum(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  double sum = 0;
  while (std::getline(in, line))
    if (line.rfind(name + "{", 0) == 0 || line.rfind(name + " ", 0) == 0)
      sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  return sum;
}

Client::Options tenant(const std::string& socket, const std::string& name,
                       const Payload& p) {
  Client::Options o;
  o.socket_path = socket;
  o.tenant = name;
  o.scheme = dbi::Scheme::kAc;
  o.geometry = p.geometry;
  return o;
}

}  // namespace

ServeStats serve_pass(const Context& ctx, const Payload& x8,
                      const Payload& x64, double seconds, Tracer* tracer,
                      bool idle_probe, Checks& checks,
                      std::vector<double>* setup_samples) {
  ServeStats out;
  const std::string socket = ctx.workdir + "/dbid.sock";
  const std::int64_t inter_slices =
      std::min<std::int64_t>(kMaxSlices, x8.bursts / kInteractiveBursts);
  const std::int64_t bulk_slices =
      std::min<std::int64_t>(kBulkWindow, x64.bursts / kBulkBursts);
  if (inter_slices < 1 || bulk_slices < 1)
    throw std::invalid_argument("serve_pass: payloads too small");

  // Set-up: spawn until both hellos are acked, several times; the last
  // daemon serves the timed phase.
  std::unique_ptr<Daemon> daemon;
  std::optional<Client> inter, bulk;
  const int rounds = setup_samples ? (ctx.smoke ? 2 : 9) : 1;
  for (int round = 0; round < rounds; ++round) {
    inter.reset();
    bulk.reset();
    daemon.reset();
    Span span(tracer, "serve.setup");
    daemon = std::make_unique<Daemon>(ctx.dbid, socket);
    inter.emplace(Client::connect(tenant(socket, "interactive", x8)));
    bulk.emplace(Client::connect(tenant(socket, "bulk", x64)));
    const double dt = span.close();
    if (setup_samples) setup_samples->push_back(dt);
  }

  const auto inter_slice = [&](std::int64_t s) {
    return x8.slice(s * kInteractiveBursts, kInteractiveBursts);
  };
  const auto bulk_slice = [&](std::int64_t s) {
    return x64.slice(s * kBulkBursts, kBulkBursts);
  };

  // Idle-daemon round trip, on a tenant of its own.
  std::vector<Answer> idle_answers;
  if (idle_probe) {
    Client idle = Client::connect(tenant(socket, "idle-probe", x8));
    std::vector<double> rtt;
    const int reps = ctx.smoke ? 20 : 400;
    for (int i = 0; i < reps; ++i) {
      Answer a;
      a.slice = i % inter_slices;
      Span span(tracer, "serve.idle_encode", i);
      const Client::EncodeResult r =
          idle.encode(inter_slice(a.slice), kInteractiveBursts);
      rtt.push_back(span.close() * 1e6);
      if (r.outcome == Client::Outcome::kOk) digest(r.ack, a);
      idle_answers.push_back(a);
    }
    out.idle_rtt_us = median(rtt);
  }

  // Timed phase.
  const double rate = ctx.smoke ? 500.0 : 1000.0;  // interactive req/s
  const auto period_ns = static_cast<std::int64_t>(1e9 / rate);
  const auto n_inter = static_cast<std::int64_t>(seconds * rate);
  std::vector<Answer> inter_answers(static_cast<std::size_t>(n_inter));
  std::vector<double> inter_lat_us(static_cast<std::size_t>(n_inter), 0);
  std::vector<double> lag_us(static_cast<std::size_t>(n_inter), 0);
  std::vector<Answer> bulk_answers;
  std::atomic<std::uint32_t> first_seq{0};
  std::atomic<bool> inter_failed{false};
  std::int64_t last_ack_ns = 0;  // receiver thread only, read after join
  std::string send_error, recv_error, bulk_error;  // one writer each
  const std::int64_t t0 = now_ns() + 2'000'000;  // first request due in 2 ms
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  // Acked bulk bytes per window of the schedule (1 s, or the whole
  // phase when it is shorter).
  const double window_s = std::min(1.0, seconds);
  const auto n_windows = static_cast<std::size_t>(seconds / window_s);
  std::vector<double> bulk_window_bytes(n_windows, 0);
  // A traced pass records spans in odd windows only; the even ones give
  // the untraced rate (see iteration_tracer).
  const auto window_tracer = [&](std::int64_t t_ns) {
    const double w = static_cast<double>(t_ns - t0) / 1e9 / window_s;
    return iteration_tracer(tracer, w < 0 ? 0 : static_cast<int>(w));
  };

  Span phase(tracer, "serve.timed_phase");
  const std::int64_t root = phase.id();
  const auto due = [&](std::int64_t i) { return t0 + i * period_ns; };

  std::thread sender([&] {
    try {
      for (std::int64_t i = 0; i < n_inter && !inter_failed.load(); ++i) {
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(due(i))));
        lag_us[static_cast<std::size_t>(i)] =
            static_cast<double>(now_ns() - due(i)) / 1e3;
        inter_answers[static_cast<std::size_t>(i)].slice = i % inter_slices;
        const std::uint32_t seq =
            inter->submit_encode(inter_slice(i % inter_slices),
                                 kInteractiveBursts);
        if (i == 0) first_seq.store(seq);
      }
    } catch (const std::exception& e) {
      send_error = e.what();
      inter_failed.store(true);
    }
  });
  std::thread receiver([&] {
    try {
      for (std::int64_t k = 0; k < n_inter && !inter_failed.load(); ++k) {
        const Client::Response r = inter->next_response();
        const std::int64_t t = now_ns();
        last_ack_ns = t;
        while (first_seq.load() == 0) std::this_thread::yield();
        const auto i = static_cast<std::int64_t>(r.seq - first_seq.load());
        if (i < 0 || i >= n_inter) throw std::runtime_error("unknown seq");
        Answer& a = inter_answers[static_cast<std::size_t>(i)];
        if (r.outcome == Client::Outcome::kOk) digest(r.ack, a);
        // A refused request misses every latency limit: it counts at
        // the length of the whole phase.
        inter_lat_us[static_cast<std::size_t>(i)] =
            a.ok ? static_cast<double>(t - due(i)) / 1e3 : seconds * 1e6;
        if (Tracer* const tw = window_tracer(due(i))) {
          SpanRecord s;
          s.name = "serve.interactive_request";
          s.start_ns = due(i);
          s.end_ns = t;
          s.parent = root;
          s.req = i;
          tw->record(std::move(s));
        }
      }
    } catch (const std::exception& e) {
      recv_error = e.what();
      inter_failed.store(true);
    }
  });
  std::thread bulk_thread([&] {
    try {
      std::uint32_t first = 0;
      std::size_t inflight = 0;
      std::vector<std::int64_t> sent_ns;
      for (std::int64_t k = 0;;) {
        while (inflight < kBulkWindow && now_ns() < t_end) {
          Answer a;
          a.slice = k % bulk_slices;
          const std::uint32_t seq =
              bulk->submit_encode(bulk_slice(a.slice), kBulkBursts);
          if (k == 0) first = seq;
          sent_ns.push_back(now_ns());
          bulk_answers.push_back(a);
          ++inflight;
          ++k;
        }
        if (inflight == 0) break;
        const Client::Response r = bulk->next_response();
        --inflight;
        const std::int64_t t = now_ns();
        const std::size_t i = r.seq - first;
        Answer& a = bulk_answers.at(i);
        if (r.outcome == Client::Outcome::kOk) {
          digest(r.ack, a);
          const auto w = static_cast<std::size_t>(
              static_cast<double>(t - t0) / 1e9 / window_s);
          if (t >= t0 && w < n_windows)
            bulk_window_bytes[w] += static_cast<double>(kBulkBursts) *
                                    static_cast<double>(x64.bytes_per_burst());
        }
        if (Tracer* const tw = window_tracer(t)) {
          SpanRecord s;
          s.name = "serve.bulk_request";
          s.start_ns = sent_ns.at(i);
          s.end_ns = t;
          s.parent = root;
          s.req = static_cast<std::int64_t>(i);
          tw->record(std::move(s));
        }
      }
    } catch (const std::exception& e) {
      bulk_error = e.what();
    }
  });
  sender.join();
  receiver.join();
  bulk_thread.join();
  phase.close();
  for (const std::string& e : {send_error, recv_error, bulk_error})
    if (!e.empty()) checks.fail("serve: " + e, false);

  {
    Span span(tracer, "serve.stats");
    const std::string text = Client::connect_control(socket).stats();
    out.batches_total = prom_value(text, "dbi_serve_batches_total");
    const double count = prom_value(text, "dbi_serve_batch_bursts_count");
    out.batch_bursts_mean =
        count > 0 ? prom_value(text, "dbi_serve_batch_bursts_sum") / count : 0;
    out.busy_total = prom_sum(text, "dbi_serve_busy_total");
    out.server_p99_us =
        prom_value(text,
                   "dbi_serve_request_latency_ns{tenant=\"interactive\","
                   "quantile=\"0.99\"}") /
        1e3;
  }
  out.dbid_peak_rss_mb = pid_peak_rss_mb(daemon->pid());
  inter.reset();
  bulk.reset();
  daemon->stop();

  // Untimed output checks.
  {
    Span span(tracer, "bench.check");
    std::int64_t inter_ok = 0;
    for (const Answer& a : inter_answers) {
      if (a.ok) ++inter_ok;
      else checks.fail("interactive: request refused or unanswered", false);
    }
    for (const Answer& a : bulk_answers)
      if (!a.ok) checks.fail("bulk: request refused or unanswered", false);
    check_tenant(x8, kInteractiveBursts, inter_answers, "interactive", checks);
    check_tenant(x64, kBulkBursts, bulk_answers, "bulk", checks);
    if (idle_probe)
      check_tenant(x8, kInteractiveBursts, idle_answers, "idle-probe", checks);
    // Acked payload over the wall time from the first due time to the
    // last ack: the offered rate while the daemon keeps up, less when a
    // backlog grows or requests are refused.
    out.interactive_mb_s =
        last_ack_ns > t0
            ? mb(static_cast<std::size_t>(inter_ok) * kInteractiveBursts *
                 x8.bytes_per_burst()) /
                  (static_cast<double>(last_ack_ns - t0) / 1e9)
            : 0;
  }

  std::vector<double> bulk_rates, traced_bulk_rates;
  for (std::size_t w = 0; w < n_windows; ++w)
    (iteration_tracer(tracer, static_cast<int>(w)) ? traced_bulk_rates
                                                   : bulk_rates)
        .push_back(bulk_window_bytes[w] / 1e6 / window_s);
  out.bulk_mb_s = quiet_rate(bulk_rates);
  out.traced_bulk_mb_s = quiet_rate(traced_bulk_rates);
  // Windows of one second of the schedule (1000 requests).
  const Latency lat = window_latency(inter_lat_us, static_cast<std::size_t>(rate));
  out.p50_us = lat.p50_us;
  out.p99_us = lat.p99_us;
  out.samples = n_inter;
  out.gen_lag_us = quantile(lag_us, 0.99);

  if (idle_probe) {
    // The offline rate of the same bulk work: Session, wide x64 ac,
    // threaded state, masks collected like the acks carry them.
    dbi::SessionSpec spec;
    spec.policy = dbi::Scheme::kAc;
    spec.geometry = x64.geometry;
    dbi::Session session(spec);
    std::vector<dbi::engine::BurstResult> results;
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      results.clear();
      const auto source = dbi::make_packed_source(
          x64.slice(0, bulk_slices * kBulkBursts));
      const auto sink = dbi::make_result_sink(results);
      Span span(tracer, "api.session_run");
      (void)session.run(*source, *sink);
      rates.push_back(mb(static_cast<std::size_t>(bulk_slices) * kBulkBursts *
                         x64.bytes_per_burst()) /
                      span.close());
    }
    out.session_mb_s = median(rates);
  }
  out.valid = true;
  return out;
}

Result run_serve_mixed(const Context& ctx, const std::vector<Payload>& p,
                       Tracer* tracer) {
  Result res;
  res.names = {{"throughput_mb_s", "serve_bulk_mb_s"},
               {"aux_mb_s", "serve_interactive_mb_s"},
               {"e2e.p50_us", "serve_p50_us"},
               {"e2e.p99_us", "serve_p99_us"}};
  const Payload& x8 = p.at(0);
  const Payload& x64 = p.at(1);
  {
    dbi::SessionSpec spec;
    spec.policy = dbi::Scheme::kAc;
    spec.geometry = x64.geometry;
    res.kernel = kernel_line(dbi::Session(spec));
  }
  std::vector<double> setup;
  try {
    res.serve = serve_pass(ctx, x8, x64, ctx.seconds, tracer, tracer != nullptr,
                           res.checks, &setup);
  } catch (const std::exception& e) {
    res.checks.fail(std::string("serve: ") + e.what());
  }
  res.setup_s = median(setup);
  res.throughput_mb_s = {res.serve.bulk_mb_s, res.serve.bulk_mb_s,
                         res.serve.traced_bulk_mb_s};
  res.aux_mb_s = {res.serve.interactive_mb_s, res.serve.interactive_mb_s, 0};
  res.p50_us = res.serve.p50_us;
  res.p99_us = res.serve.p99_us;
  res.latency_samples = res.serve.samples;
  res.peak_rss_mb = self_peak_rss_mb() + res.serve.dbid_peak_rss_mb;
  return res;
}

}  // namespace pb

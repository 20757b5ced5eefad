// paper_roundtrip: the paper's configuration, in RAM.
//
// StatePolicy::kResetPerBurst, one lane, Direction::kRoundTrip. The
// payloads are held as packed spans and served as 64 KiB requests, one
// Session::run per request (under per-burst reset the requests are
// independent, so the split changes no result). dc / ac / acdc form the
// fixed phase, opt-fixed / opt the trellis phase over a prefix of the
// same payloads. Every request must come back bit_exact, and its totals
// and mask digest must equal the scalar core encoders'.
#include <map>
#include <memory>

#include "api/session.hpp"
#include "common.hpp"
#include "oracle.hpp"

namespace pb {

namespace {

constexpr std::size_t kRequestBytes = 64 * 1024;

struct Request {
  const Payload* payload = nullptr;
  std::int64_t first = 0;
  std::int64_t count = 0;
  Expect expect;
};

/// Splits the first `bursts` bursts of `p` into request-sized spans
/// and computes each one's scalar-core expectation.
void add_requests(const Payload& p, std::int64_t bursts, dbi::Scheme scheme,
                  std::vector<Request>& out) {
  const auto per = static_cast<std::int64_t>(kRequestBytes / p.bytes_per_burst());
  for (std::int64_t first = 0; first < bursts; first += per) {
    Request r;
    r.payload = &p;
    r.first = first;
    r.count = std::min(per, bursts - first);
    r.expect = scalar_reset(p, scheme, r.first, r.count);
    out.push_back(r);
  }
}

dbi::SessionSpec roundtrip_spec(dbi::Scheme scheme, const dbi::Geometry& g) {
  dbi::SessionSpec spec;
  spec.policy = scheme;
  spec.geometry = g;
  spec.lanes = 1;
  spec.state_policy = dbi::StatePolicy::kResetPerBurst;
  spec.direction = dbi::Direction::kRoundTrip;
  return spec;
}

}  // namespace

Result run_paper_roundtrip(const Context& ctx, const std::vector<Payload>& p,
                           Tracer* tracer) {
  Result res;
  res.names = {{"throughput_mb_s", "fixed_mb_s"},
               {"aux_mb_s", "trellis_mb_s"},
               {"e2e.p50_us", "roundtrip_request_p50_us"},
               {"e2e.p99_us", "roundtrip_request_p99_us"}};
  const dbi::Scheme fixed[] = {dbi::Scheme::kDc, dbi::Scheme::kAc,
                               dbi::Scheme::kAcDc};
  const dbi::Scheme trellis[] = {dbi::Scheme::kOptFixed, dbi::Scheme::kOpt};
  // The trellis phase runs over a prefix of each payload: 1/8 of it.
  const auto trellis_bursts = [&](const Payload& m) {
    return std::max<std::int64_t>(1, m.bursts / 8);
  };

  // Untimed oracle, one request list per (scheme, payload).
  std::map<dbi::Scheme, std::vector<Request>> requests;
  {
    Span span(tracer, "bench.oracle");
    for (const dbi::Scheme s : fixed)
      for (const Payload& m : p) add_requests(m, m.bursts, s, requests[s]);
    for (const dbi::Scheme s : trellis)
      for (const Payload& m : p)
        add_requests(m, trellis_bursts(m), s, requests[s]);
  }

  // Set-up: constructing every session. One construction takes a few
  // microseconds, so a sample is the mean of 10 constructions, taken at
  // nominal host speed (times the host_speed() read right after it),
  // and the median of 50 samples is reported; the last set built is
  // the one the timed loop uses.
  using SessionKey = std::pair<dbi::Scheme, bool>;  // (scheme, wide)
  std::map<SessionKey, std::unique_ptr<dbi::Session>> sessions;
  std::vector<double> setup_s;
  constexpr int kPerSample = 10;
  const int samples = ctx.smoke ? 2 : 50;
  for (int sample = 0; sample < samples; ++sample) {
    Span span(tracer, "bench.setup");
    for (int k = 0; k < kPerSample; ++k) {
      sessions.clear();
      for (const auto& [scheme, list] : requests)
        for (const Payload& m : p) {
          const SessionKey key{scheme, m.geometry.is_wide()};
          if (sessions.count(key) == 0)
            sessions[key] = std::make_unique<dbi::Session>(
                roundtrip_spec(scheme, m.geometry));
        }
    }
    const double dt = span.close() / kPerSample;
    setup_s.push_back(dt * host_speed());
  }
  res.kernel = kernel_line(*sessions.at({dbi::Scheme::kAc, false}));

  std::vector<dbi::engine::BurstResult> results;
  // One round trip of one request under `t` (the iteration's tracer);
  // returns its seconds. The checks after it are not timed.
  const auto run_request = [&](dbi::Scheme scheme, const Request& r,
                               Tracer* t) {
    dbi::Session& session =
        *sessions.at({scheme, r.payload->geometry.is_wide()});
    results.clear();
    Span span(t, "api.roundtrip." + std::string(dbi::scheme_slug(scheme)));
    const auto source =
        dbi::make_packed_source(r.payload->slice(r.first, r.count));
    const auto sink = dbi::make_result_sink(results);
    const dbi::StreamStats st = session.run(*source, *sink);
    const double dt = span.close();

    std::uint64_t h = fnv64({});
    for (const dbi::engine::BurstResult& b : results)
      h = fnv64(std::span<const std::uint64_t>(&b.invert_mask, 1), h);
    if (!session.verify_report().ok())
      res.checks.fail(r.payload->name + " " +
                      std::string(dbi::scheme_slug(scheme)) +
                      ": round trip not bit_exact");
    else if (st.zeros != r.expect.stats.zeros ||
             st.transitions != r.expect.stats.transitions ||
             h != r.expect.mask_hash)
      res.checks.fail(r.payload->name + " " +
                      std::string(dbi::scheme_slug(scheme)) +
                      ": differs from scalar core");
    else
      res.checks.pass();
    return dt;
  };

  Rates fixed_rates, trellis_rates;
  LatencyWindows request_us;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (int iter = 0; iter < 2 || now_ns() < deadline; ++iter) {
    Tracer* const t = iteration_tracer(tracer, iter);
    Span it(t, "bench.iteration", iter);
    try {
      double fixed_s = 0, trellis_s = 0;
      std::size_t fixed_bytes = 0, trellis_bytes = 0;
      for (const dbi::Scheme s : fixed)
        for (const Request& r : requests.at(s)) {
          const double dt = run_request(s, r, t);
          fixed_s += dt;
          fixed_bytes += static_cast<std::size_t>(r.count) *
                         r.payload->bytes_per_burst();
          if (!t) request_us.add(dt * 1e6);
        }
      for (const dbi::Scheme s : trellis)
        for (const Request& r : requests.at(s)) {
          trellis_s += run_request(s, r, t);
          trellis_bytes += static_cast<std::size_t>(r.count) *
                           r.payload->bytes_per_burst();
        }
      const double host = host_speed();
      fixed_rates.add(mb(fixed_bytes), fixed_s, host, t != nullptr);
      trellis_rates.add(mb(trellis_bytes), trellis_s, host, t != nullptr);
    } catch (const std::exception& e) {
      res.checks.fail(std::string("iteration: ") + e.what());
    }
  }

  res.setup_s = median(setup_s);
  res.throughput_mb_s = summarize(fixed_rates);
  res.aux_mb_s = summarize(trellis_rates);
  const Latency lat = request_us.result();
  res.p50_us = lat.p50_us;
  res.p99_us = lat.p99_us;
  res.latency_samples = request_us.samples();
  res.peak_rss_mb = self_peak_rss_mb();
  return res;
}

}  // namespace pb

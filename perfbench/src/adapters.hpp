// Source / Sink decorators the benchmark wraps around library objects:
// a fixed-chunk packed source, and timing decorators that measure the
// time a Session spends waiting on its source or inside its sink.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "api/sink.hpp"
#include "api/source.hpp"
#include "common.hpp"

namespace pb {

/// Serves a payload as packed chunks of `chunk_bursts` bursts.
class ChunkSource final : public dbi::Source {
 public:
  ChunkSource(const Payload& p, std::int64_t chunk_bursts)
      : p_(p), chunk_(chunk_bursts) {}

  void bind(const dbi::Geometry& g) override {
    if (g != p_.geometry)
      throw std::invalid_argument("ChunkSource: geometry mismatch");
    at_ = 0;
  }
  std::optional<dbi::SourceChunk> next() override {
    if (at_ >= p_.bursts) return std::nullopt;
    const std::int64_t n = std::min(chunk_, p_.bursts - at_);
    dbi::SourceChunk c;
    c.bytes = p_.slice(at_, n);
    c.bursts = n;
    at_ += n;
    return c;
  }

 private:
  const Payload& p_;
  std::int64_t chunk_;
  std::int64_t at_ = 0;
};

/// Forwards to `inner`, timing every next() call.
class TimedSource final : public dbi::Source {
 public:
  explicit TimedSource(std::unique_ptr<dbi::Source> inner)
      : inner_(std::move(inner)) {}

  void bind(const dbi::Geometry& g) override { inner_->bind(g); }
  std::optional<dbi::SourceChunk> next() override {
    const std::int64_t t0 = now_ns();
    auto c = inner_->next();
    wait_ns += now_ns() - t0;
    return c;
  }

  std::int64_t wait_ns = 0;

 private:
  std::unique_ptr<dbi::Source> inner_;
};

/// Forwards to `inner`, timing every consume() call (one sample per
/// chunk, in microseconds, when `samples_us` is set).
class TimedSink final : public dbi::Sink {
 public:
  TimedSink(std::unique_ptr<dbi::Sink> inner, LatencyWindows* samples_us)
      : inner_(std::move(inner)), samples_us_(samples_us) {}

  bool wants_results() const override { return inner_->wants_results(); }
  bool wants_payload() const override { return inner_->wants_payload(); }
  void begin(const dbi::Geometry& g, int lanes) override {
    inner_->begin(g, lanes);
  }
  void consume(const dbi::SinkChunk& chunk) override {
    const std::int64_t t0 = now_ns();
    inner_->consume(chunk);
    const std::int64_t dt = now_ns() - t0;
    busy_ns += dt;
    if (samples_us_) samples_us_->add(static_cast<double>(dt) / 1e3);
  }
  void finish(const dbi::StreamStats& totals) override {
    const std::int64_t t0 = now_ns();
    inner_->finish(totals);
    busy_ns += now_ns() - t0;
  }

  std::int64_t busy_ns = 0;

 private:
  std::unique_ptr<dbi::Sink> inner_;
  LatencyWindows* samples_us_;
};

}  // namespace pb

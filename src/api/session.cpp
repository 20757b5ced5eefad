#include "api/session.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace dbi {

namespace {

/// Slice size (bursts) for multi-lane chunks: bounds each unit's
/// gather scratch regardless of how large a span a source serves.
constexpr std::int64_t kSliceBursts = 1 << 16;

/// Gathered block size for the > 8-lane write_stream route: bounds the
/// per-lane scratch at O(block) words regardless of stream size.
constexpr std::int64_t kGatherBlockWrites = 1024;

}  // namespace

void SessionSpec::validate() const {
  geometry.validate();
  weights.validate();
  policy.validate();
  if (lanes < 1 || lanes > 65536)
    throw std::invalid_argument("SessionSpec: lanes must be in [1, 65536]");
  if (threads < 0 || threads > 1024)
    throw std::invalid_argument("SessionSpec: threads must be in [0, 1024]");
  if (fault_injector && direction != Direction::kRoundTrip)
    throw std::invalid_argument(
        "SessionSpec: fault_injector only applies to kRoundTrip sessions");
  if (policy.adaptive() && direction != Direction::kEncode)
    throw std::invalid_argument(
        "SessionSpec: adaptive scheme policies are encode-only (decode and "
        "round-trip take their schemes from the trace's tags)");
}

namespace {

/// The scheme the session's own BatchEncoder runs: the pinned policy
/// scheme. Adaptive sessions spin up per-candidate engines in
/// run_adaptive and use this one (kOpt) only for kernel introspection
/// and decode.
Scheme session_engine_scheme(const SessionSpec& spec) {
  return spec.policy.adaptive() ? Scheme::kOpt : spec.policy.fixed_scheme();
}

}  // namespace

Session::Session(const SessionSpec& spec)
    : spec_(spec), engine_(session_engine_scheme(spec_), spec_.weights) {
  spec_.validate();
  // Kernel selection: resolve the spec's pin (unknown names and absent
  // ISAs throw there, naming the candidates), hand the variant to both
  // engine directions, then reject a pin whose envelope covers no path
  // of this scheme and geometry — a session that silently ran the
  // portable fallback everywhere would make the pin a no-op lie.
  // An unpinned spec ("" / "auto") runs the process default (DBI_KERNEL
  // or the hardware pick), which the engine already resolved.
  const bool pinned = !spec_.kernel.empty() && spec_.kernel != "auto";
  const engine::KernelVariant& kernel =
      pinned ? engine::resolve_kernel(spec_.kernel) : engine_.kernel();
  engine_.set_kernel(kernel);
  decoder_.set_kernel(kernel);
  // Adaptive sessions exercise every candidate scheme, so the
  // single-scheme envelope strictness below does not apply to them.
  if (pinned && kernel.isa() != engine::KernelIsa::kPortable &&
      !spec_.policy.adaptive()) {
    const KernelReport rep = kernel_report();
    if (rep.fixed_encode != kernel.name() && rep.trellis != kernel.name() &&
        rep.decode != kernel.name())
      throw std::invalid_argument(
          "SessionSpec: kernel '" + spec_.kernel +
          "' supports no path of scheme " + std::string(engine_.name()) +
          " on " + spec_.geometry.to_string() +
          " (this spec runs entirely on the portable reference; candidates: " +
          engine::kernel_candidates() + ")");
  }
  if (!spec_.pool && spec_.threads >= 2)
    owned_pool_ = std::make_unique<engine::ShardPool>(spec_.threads);
  // Observability: a caller-owned observer wins (so e.g. dbitool's
  // scheme sweeps aggregate several sessions into one registry); an
  // ObsConfig above kOff makes the session own one. Either way the
  // engine directions and the pool report into it.
  if (spec_.observer) {
    obs_ = spec_.observer;
  } else if (spec_.obs.level != obs::ObsLevel::kOff) {
    owned_obs_ = std::make_unique<obs::Observer>(spec_.obs);
    obs_ = owned_obs_.get();
  }
  if (obs_) {
    engine_.set_observer(obs_);
    decoder_.set_observer(obs_);
    if (engine::ShardPool* p = pool()) obs_->attach_pool(*p);
  }
  // The incremental-write surface exists for channel-shaped sessions
  // (byte lanes side by side); set up its persistent line states now
  // so write()/write_stream()/reset() agree on them.
  if (spec_.geometry.width() == 8 && spec_.lanes <= 64)
    lane_states_.assign(static_cast<std::size_t>(spec_.lanes),
                        dbi::BusState::all_ones(spec_.geometry.bus()));
}

Session::~Session() {
  // A session-owned observer dies with the session: detach it from the
  // caller-owned pool (the owned pool is destroyed here anyway). A
  // caller-owned observer's attachment is the caller's to manage.
  if (owned_obs_ && spec_.pool) spec_.pool->set_observer(nullptr);
}

void Session::publish_stats(const StreamStats& delta, bool whole_run) const {
  if (!obs_) return;
  const auto byte_count =
      static_cast<std::uint64_t>(delta.bursts) *
      static_cast<std::uint64_t>(spec_.geometry.bytes_per_burst());
  if (whole_run)
    obs_->count_run(delta, byte_count);
  else
    obs_->count_stats(delta, byte_count);
}

std::string_view Session::scheme_name() const {
  switch (spec_.policy.mode()) {
    case SchemePolicy::Mode::kAdaptiveExact:
      return "adaptive-exact";
    case SchemePolicy::Mode::kAdaptivePredicted:
      return "adaptive-predicted";
    default:
      return engine_.name();
  }
}

const dbi::Encoder& Session::scalar_encoder() const {
  return engine_.scalar_twin();
}

KernelReport Session::kernel_report() const {
  const engine::KernelVariant& k = engine_.kernel();
  KernelReport rep;
  rep.variant = k.name();
  rep.isa = engine::isa_name(k.isa());

  const dbi::Geometry& g = spec_.geometry;
  const int bl = g.burst_length();
  // Which encode kernels this scheme/geometry exercises: full byte
  // groups take the packed fixed kernels, any other group width (a
  // narrow non-8 width, a wide remainder group) the bit-plane kernel,
  // OPT schemes the trellis, and kExhaustive bypasses the engine
  // kernels entirely. Full groups lead, so group 0 and the last group
  // tell.
  const bool has_byte_group = g.group_config(0).width == 8;
  const bool has_narrow_group = g.group_config(g.groups() - 1).width != 8;
  const auto rule = engine::fixed8_rule(engine_.scheme());
  if (rule) {
    rep.fixed_encode =
        !has_byte_group ? "n/a"
        : k.supports_fixed8(*rule, bl) ? k.name()
                                       : engine::portable_kernel().name();
    rep.planar_encode =
        has_narrow_group ? engine::portable_kernel().name() : "n/a";
    rep.trellis = "n/a";
  } else if (engine::trellis_rule(engine_.scheme())) {
    // Byte groups take the variant's trellis entry inside its envelope;
    // everything else runs the portable flat trellis.
    const bool reset = spec_.state_policy == StatePolicy::kResetPerBurst;
    rep.fixed_encode = "n/a";
    rep.planar_encode = "n/a";
    rep.trellis = has_byte_group && k.supports_trellis8(bl, reset)
                      ? k.name()
                      : engine::portable_kernel().name();
  } else {  // kExhaustive: the scalar ablation encoder
    rep.fixed_encode = "n/a";
    rep.planar_encode = "n/a";
    rep.trellis = "n/a";
  }

  // The receive direction is scheme-blind, so the decode path depends
  // on geometry alone: byte-per-beat lanes and the x64 fast path go
  // through the variant, everything else through the portable strided
  // loop.
  const bool variant_decodes =
      g.bytes_per_beat() == 1 ? k.supports_decode8(g.bus())
      : g.width() == 64       ? k.supports_decode_wide8(bl)
                              : false;
  rep.decode =
      variant_decodes ? k.name() : engine::portable_kernel().name();
  return rep;
}

void Session::require_channel_geometry(const char* what) const {
  if (spec_.policy.adaptive())
    throw std::logic_error(
        std::string("Session::") + what +
        ": the incremental write surface encodes with one fixed scheme; "
        "adaptive policies run through Session::run()");
  if (spec_.geometry.width() != 8 || spec_.lanes > 64)
    throw std::logic_error(
        std::string("Session::") + what +
        ": the incremental write surface needs narrow x8 geometry with at "
        "most 64 lanes (channel semantics); this session is " +
        spec_.geometry.to_string() + " with " + std::to_string(spec_.lanes) +
        " lanes");
}

std::int64_t Session::bytes_per_write() const {
  return static_cast<std::int64_t>(spec_.lanes) *
         static_cast<std::int64_t>(spec_.geometry.burst_length());
}

StreamStats Session::write(std::span<const std::uint8_t> data,
                           std::vector<dbi::EncodedBurst>* encoded) {
  require_channel_geometry("write");
  if (spec_.direction != Direction::kEncode)
    throw std::logic_error(
        "Session::write: the incremental write surface is encode-only");
  if (static_cast<std::int64_t>(data.size()) != bytes_per_write())
    throw std::invalid_argument(
        "Session::write: expected " + std::to_string(bytes_per_write()) +
        " bytes, got " + std::to_string(data.size()));

  const dbi::BusConfig lane_cfg = spec_.geometry.bus();
  const int lanes = spec_.lanes;
  const int bl = lane_cfg.burst_length;
  if (encoded) {
    encoded->clear();
    encoded->reserve(static_cast<std::size_t>(lanes));
  }

  StreamStats delta;
  dbi::Burst burst(lane_cfg);
  for (int lane = 0; lane < lanes; ++lane) {
    for (int beat = 0; beat < bl; ++beat)
      burst.set_word(beat,
                     data[static_cast<std::size_t>(beat) *
                              static_cast<std::size_t>(lanes) +
                          static_cast<std::size_t>(lane)]);
    dbi::BusState& state = lane_states_[static_cast<std::size_t>(lane)];
    if (spec_.state_policy == StatePolicy::kResetPerBurst)
      state = dbi::BusState::all_ones(lane_cfg);
    const engine::BurstResult r = engine_.encode(burst, state);
    delta.add(r.stats);
    if (encoded) encoded->push_back(engine_.materialize(burst, r));
  }
  delta.writes = 1;
  stats_ += delta;
  publish_stats(delta, /*whole_run=*/false);
  return delta;
}

StreamStats Session::write_stream(std::span<const std::uint8_t> data,
                                  engine::ShardPool* pool_override) {
  require_channel_geometry("write_stream");
  if (spec_.direction != Direction::kEncode)
    throw std::logic_error(
        "Session::write_stream: the incremental write surface is "
        "encode-only");
  const auto bpw = static_cast<std::size_t>(bytes_per_write());
  if (data.size() % bpw != 0)
    throw std::invalid_argument(
        "Session::write_stream: data size must be a multiple of " +
        std::to_string(bpw) + " bytes, got " + std::to_string(data.size()));
  const auto writes = static_cast<std::int64_t>(data.size() / bpw);
  if (writes == 0) return {};

  const int lanes = spec_.lanes;
  const dbi::BusConfig lane_cfg = spec_.geometry.bus();
  const bool reset_per_write =
      spec_.state_policy == StatePolicy::kResetPerBurst;

  StreamStats delta;
  delta.writes = writes;
  delta.bursts = writes * lanes;

  // Wide fast path: for up to 8 byte lanes the beat-major interleave IS
  // the engine's packed wide layout (lane l = byte group l of a
  // width-8*lanes bus), so the stream encodes in place — no per-lane
  // gather at all — with the pool sharding the byte-group units.
  if (lanes * 8 <= dbi::WideBusConfig::kMaxWidth) {
    if (!wide_writer_) {
      engine::StreamEncodeOptions so;
      so.lanes = 1;
      so.reset_state_per_burst = reset_per_write;
      wide_writer_ = std::make_unique<engine::StreamEncoder>(
          engine_, dbi::Geometry::wide(8 * lanes, lane_cfg.burst_length), so,
          std::span<dbi::BusState>(lane_states_));
    }
    wide_writer_->set_pool(pool_override ? pool_override : pool());
    const std::int64_t zeros_before = wide_writer_->zeros();
    const std::int64_t transitions_before = wide_writer_->transitions();
    (void)wide_writer_->encode_chunk(0, data,
                                     static_cast<std::size_t>(writes));
    delta.zeros = wide_writer_->zeros() - zeros_before;
    delta.transitions = wide_writer_->transitions() - transitions_before;
    stats_ += delta;
    publish_stats(delta, /*whole_run=*/false);
    return delta;
  }

  // > 8 lanes: gather each lane's bytes out of the beat-major
  // interleave into a reused flat word buffer, one block of writes at
  // a time, and push each block through the engine. 64-bit
  // accumulation per lane.
  const int bl = lane_cfg.burst_length;
  struct LaneTotals {
    std::int64_t zeros = 0;
    std::int64_t transitions = 0;
  };
  std::vector<LaneTotals> lane_totals(static_cast<std::size_t>(lanes));

  auto encode_lane_stream = [&](int lane) {
    std::vector<dbi::Word> words(
        static_cast<std::size_t>(std::min(writes, kGatherBlockWrites)) *
        static_cast<std::size_t>(bl));
    dbi::BusState& state = lane_states_[static_cast<std::size_t>(lane)];
    LaneTotals& totals = lane_totals[static_cast<std::size_t>(lane)];
    auto add = [&totals](const dbi::BurstStats& s) {
      totals.zeros += s.zeros;
      totals.transitions += s.transitions;
    };

    for (std::int64_t w0 = 0; w0 < writes; w0 += kGatherBlockWrites) {
      const std::int64_t block = std::min(kGatherBlockWrites, writes - w0);
      for (std::int64_t wi = 0; wi < block; ++wi) {
        const std::size_t base = static_cast<std::size_t>(w0 + wi) * bpw;
        for (int beat = 0; beat < bl; ++beat)
          words[static_cast<std::size_t>(wi * bl + beat)] =
              data[base + static_cast<std::size_t>(beat) *
                              static_cast<std::size_t>(lanes) +
                   static_cast<std::size_t>(lane)];
      }
      const std::span<const dbi::Word> block_words(
          words.data(), static_cast<std::size_t>(block * bl));

      if (reset_per_write) {
        for (std::int64_t wi = 0; wi < block; ++wi) {
          state = dbi::BusState::all_ones(lane_cfg);
          add(engine_.encode_words(
              block_words.subspan(static_cast<std::size_t>(wi * bl),
                                  static_cast<std::size_t>(bl)),
              lane_cfg, state));
        }
      } else {
        add(engine_.encode_words(block_words, lane_cfg, state));
      }
    }
  };

  if (engine::ShardPool* p = pool_override ? pool_override : pool()) {
    p->run(lanes, encode_lane_stream);
  } else {
    for (int lane = 0; lane < lanes; ++lane) encode_lane_stream(lane);
  }

  for (const LaneTotals& s : lane_totals) {
    delta.zeros += s.zeros;
    delta.transitions += s.transitions;
  }
  stats_ += delta;
  publish_stats(delta, /*whole_run=*/false);
  return delta;
}

void Session::reset() {
  if (!lane_states_.empty())
    lane_states_.assign(static_cast<std::size_t>(spec_.lanes),
                        dbi::BusState::all_ones(spec_.geometry.bus()));
  stats_ = StreamStats{};
}

StreamStats Session::run_chunks(Source& source, Sink& sink) {
  engine::StreamEncodeOptions so;
  so.lanes = spec_.lanes;
  so.reset_state_per_burst =
      spec_.state_policy == StatePolicy::kResetPerBurst;
  so.pool = pool();
  so.obs = obs_;
  engine::StreamEncoder enc(engine_, spec_.geometry, so);

  const bool round_trip = spec_.direction == Direction::kRoundTrip;
  const bool pass_results = sink.wants_results();
  const bool pass_payload = sink.wants_payload();
  const int groups = spec_.geometry.groups();
  const auto bb = static_cast<std::size_t>(spec_.geometry.bytes_per_burst());
  // Single-lane streams encode in place, so slicing would only cost.
  const std::int64_t slice_bursts =
      spec_.lanes > 1 ? kSliceBursts : std::numeric_limits<std::int64_t>::max();

  auto next_chunk = [&] {
    obs::ScopedSpan span(obs_, obs::Stage::kSourceRead);
    return source.next();
  };

  std::vector<std::uint8_t> wire;    // round trip: receiver-side payload
  std::vector<std::uint64_t> masks;  // round trip: the slice's DBI masks
  std::int64_t first_burst = 0;   // sink-facing, continuous over the run
  std::int64_t stream_burst = 0;  // lane phase within the current stream
  while (const auto c = next_chunk()) {
    if (!c->masks.empty())
      throw std::invalid_argument(
          round_trip
              ? "Session::run: kRoundTrip takes payload sources; verify an "
                "already-encoded trace with verify_encoded_trace / dbitool "
                "verify"
              : "Session::run: the source is already encoded "
                "(mask-carrying); run a kDecode session instead of "
                "re-encoding it");
    if (c->first_of_stream && first_burst > 0) {
      // A new constituent stream (e.g. the next lake member): fresh
      // all-ones line state and a restarted lane interleave, so the
      // concatenated run stays bit-exact against per-stream replay.
      // Totals keep accumulating; the sink's burst axis stays
      // continuous.
      enc.reset_states();
      stream_burst = 0;
    }
    for (std::int64_t b0 = 0; b0 < c->bursts; b0 += slice_bursts) {
      const std::int64_t n = std::min(slice_bursts, c->bursts - b0);
      const auto bytes = c->bytes.subspan(static_cast<std::size_t>(b0) * bb,
                                          static_cast<std::size_t>(n) * bb);
      const auto results =
          enc.encode_chunk(stream_burst, bytes, static_cast<std::size_t>(n),
                            round_trip || pass_results);
      if (round_trip)
        round_trip_slice(first_burst, bytes, results, wire, masks);

      obs::ScopedSpan span(obs_, obs::Stage::kSinkWrite, first_burst,
                           static_cast<std::int32_t>(
                               std::min<std::int64_t>(n, INT32_MAX)));
      SinkChunk chunk;
      chunk.first_burst = first_burst;
      chunk.bursts = n;
      chunk.groups = groups;
      if (pass_payload)
        chunk.payload = round_trip ? std::span<const std::uint8_t>(wire)
                                   : bytes;
      if (pass_results) chunk.results = results;
      sink.consume(chunk);
      first_burst += n;
      stream_burst += n;
    }
  }

  StreamStats totals;
  totals.bursts = enc.bursts();
  totals.zeros = enc.zeros();
  totals.transitions = enc.transitions();
  return totals;
}

void Session::round_trip_slice(std::int64_t first_burst,
                               std::span<const std::uint8_t> bytes,
                               std::span<const engine::BurstResult> results,
                               std::vector<std::uint8_t>& wire,
                               std::vector<std::uint64_t>& masks) {
  const dbi::Geometry& g = spec_.geometry;
  const int groups = g.groups();
  const int bl = g.burst_length();
  const auto step = static_cast<std::size_t>(g.bytes_per_beat());
  const auto bb = static_cast<std::size_t>(g.bytes_per_burst());

  masks.resize(results.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    masks[i] = results[i].invert_mask;

  // Materialise the wire stream, optionally corrupt it, then run the
  // receiver over it — all on the same buffer.
  wire.assign(bytes.begin(), bytes.end());
  decoder_.apply_packed(wire, masks, g, wire, pool());
  if (spec_.fault_injector) spec_.fault_injector(first_burst, wire, masks);
  decoder_.decode_packed(wire, masks, g, wire, pool());

  const auto n = static_cast<std::int64_t>(bytes.size() / bb);
  verify_.bursts += n;
  if (std::memcmp(wire.data(), bytes.data(), wire.size()) == 0) return;

  // Beat mask of the differing beats of one burst's group (group g's
  // bytes of beat t sit at t * bytes_per_beat() + g: the whole beat of
  // a narrow bus, the strided byte of a wide one).
  const auto diff_mask = [&](const std::uint8_t* original,
                             const std::uint8_t* roundtripped, int group) {
    const auto gb =
        static_cast<std::size_t>(g.group_config(group).bytes_per_beat());
    std::uint64_t mask = 0;
    for (int t = 0; t < bl; ++t) {
      const std::size_t at =
          static_cast<std::size_t>(t) * step + static_cast<std::size_t>(group);
      if (std::memcmp(original + at, roundtripped + at, gb) != 0)
        mask |= std::uint64_t{1} << t;
    }
    return mask;
  };
  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint8_t* orig = bytes.data() + static_cast<std::size_t>(j) * bb;
    const std::uint8_t* got = wire.data() + static_cast<std::size_t>(j) * bb;
    if (std::memcmp(orig, got, bb) == 0) continue;
    const std::int64_t burst = first_burst + j;
    for (int g = 0; g < groups; ++g) {
      const std::uint64_t mask = diff_mask(orig, got, g);
      if (mask != 0)
        verify_.record(burst, static_cast<int>(burst % spec_.lanes), g, mask);
    }
  }
}

StreamStats Session::run_decode(Source& source, Sink& sink) {
  if (sink.wants_results())
    throw std::invalid_argument(
        "Session::run: kDecode sessions recover payload, not encode "
        "results; use a payload / stats / trace sink");
  const bool pass_payload = sink.wants_payload();
  const int groups = spec_.geometry.groups();
  const auto bb = static_cast<std::size_t>(spec_.geometry.bytes_per_burst());

  StreamStats totals;
  std::vector<std::uint8_t> decoded;
  std::int64_t first_burst = 0;
  auto next_chunk = [&] {
    obs::ScopedSpan span(obs_, obs::Stage::kSourceRead);
    return source.next();
  };
  while (const auto c = next_chunk()) {
    if (c->bursts == 0) continue;
    if (c->masks.size() !=
        static_cast<std::size_t>(c->bursts) * static_cast<std::size_t>(groups))
      throw std::invalid_argument(
          "Session::run: a kDecode session needs an encoded source "
          "(a mask-carrying trace or make_encoded_packed_source); this "
          "chunk has " + std::to_string(c->masks.size()) + " masks for " +
          std::to_string(c->bursts) + " bursts of " +
          std::to_string(groups) + " groups");
    decoded.resize(static_cast<std::size_t>(c->bursts) * bb);
    {
      obs::ScopedSpan span(obs_, obs::Stage::kDecodeChunk, first_burst,
                           static_cast<std::int32_t>(std::min<std::int64_t>(
                               c->bursts, INT32_MAX)));
      if (obs_) obs_->chunks.inc();
      decoder_.decode_packed(c->bytes, c->masks, spec_.geometry, decoded,
                             pool());
    }
    SinkChunk chunk;
    chunk.first_burst = first_burst;
    chunk.bursts = c->bursts;
    chunk.groups = groups;
    if (pass_payload) chunk.payload = decoded;
    sink.consume(chunk);
    totals.bursts += c->bursts;
    first_burst += c->bursts;
  }
  return totals;
}

StreamStats Session::run_adaptive(Source& source, Sink& sink) {
  const SchemePolicy& policy = spec_.policy;
  selection_ = select::SelectionReport{};

  select::ChunkSelector::Config scfg;
  scfg.policy = policy;
  scfg.geometry = spec_.geometry;
  scfg.weights = spec_.weights;
  scfg.lanes = spec_.lanes;
  scfg.reset_state_per_burst =
      spec_.state_policy == StatePolicy::kResetPerBurst;
  scfg.pool = pool();
  scfg.obs = obs_;
  scfg.kernel = &engine_.kernel();
  scfg.collect_results = sink.wants_results();
  select::ChunkSelector selector(scfg);

  const bool pass_payload = sink.wants_payload();
  const int groups = spec_.geometry.groups();
  const auto bb = static_cast<std::size_t>(spec_.geometry.bytes_per_burst());
  const auto block_bursts = static_cast<std::int64_t>(policy.block_bursts());

  std::vector<std::uint8_t> buf;
  buf.reserve(static_cast<std::size_t>(block_bursts) * bb);
  std::int64_t buffered = 0;
  std::int64_t first_burst = 0;

  auto flush_block = [&](std::span<const std::uint8_t> bytes,
                         std::int64_t n) {
    const select::ChunkSelector::BlockResult r = selector.encode_block(
        first_burst, bytes, static_cast<std::size_t>(n));
    obs::ScopedSpan span(obs_, obs::Stage::kSinkWrite, first_burst,
                         static_cast<std::int32_t>(std::min<std::int64_t>(
                             n, INT32_MAX)));
    SinkChunk chunk;
    chunk.first_burst = first_burst;
    chunk.bursts = n;
    chunk.groups = groups;
    if (pass_payload) chunk.payload = bytes;
    chunk.results = r.results;
    chunk.scheme = r.scheme;
    sink.consume(chunk);
    first_burst += n;
  };

  auto next_chunk = [&] {
    obs::ScopedSpan span(obs_, obs::Stage::kSourceRead);
    return source.next();
  };

  // Re-block the source's chunks to the policy's selection granularity:
  // full blocks landing on a buffer boundary encode straight from the
  // source's view, partial ones gather into `buf` first.
  while (const auto c = next_chunk()) {
    if (!c->masks.empty())
      throw std::invalid_argument(
          "Session::run: the source is already encoded (mask-carrying); "
          "run a kDecode session instead of re-encoding it");
    std::span<const std::uint8_t> rest = c->bytes;
    std::int64_t left = c->bursts;
    while (left > 0) {
      if (buffered == 0 && left >= block_bursts) {
        flush_block(
            rest.subspan(0, static_cast<std::size_t>(block_bursts) * bb),
            block_bursts);
        rest = rest.subspan(static_cast<std::size_t>(block_bursts) * bb);
        left -= block_bursts;
        continue;
      }
      const std::int64_t take = std::min(block_bursts - buffered, left);
      const auto take_bytes = static_cast<std::size_t>(take) * bb;
      buf.insert(buf.end(), rest.begin(),
                 rest.begin() + static_cast<std::ptrdiff_t>(take_bytes));
      rest = rest.subspan(take_bytes);
      buffered += take;
      left -= take;
      if (buffered == block_bursts) {
        flush_block(buf, buffered);
        buf.clear();
        buffered = 0;
      }
    }
  }
  if (buffered > 0) flush_block(buf, buffered);

  selection_ = selector.report();
  StreamStats totals;
  totals.bursts = selector.bursts();
  totals.zeros = selector.zeros();
  totals.transitions = selector.transitions();
  return totals;
}

StreamStats Session::run(Source& source, Sink& sink) {
  source.bind(spec_.geometry);
  sink.begin(spec_.geometry, spec_.lanes);
  verify_ = VerifyReport{};

  // Every direction rejects a source of the wrong kind per chunk:
  // encode and round trip refuse mask-carrying chunks, decode needs
  // them.
  StreamStats totals;
  if (spec_.direction == Direction::kDecode)
    totals = run_decode(source, sink);
  else if (spec_.policy.adaptive())
    totals = run_adaptive(source, sink);
  else
    totals = run_chunks(source, sink);
  if (obs_) source.publish(*obs_);
  publish_stats(totals, /*whole_run=*/true);
  sink.finish(totals);
  return totals;
}

StreamStats Session::run(Source& source) {
  const std::unique_ptr<Sink> sink = make_stats_sink();
  return run(source, *sink);
}

SessionReport Session::report() const {
  SessionReport rep;
  rep.scheme = std::string(scheme_name());
  rep.policy = spec_.policy.describe();
  rep.kernel = kernel_report();
  rep.adaptive = spec_.policy.adaptive();
  rep.selection = selection_;
  rep.metrics = metrics_report();
  return rep;
}

std::string SessionReport::to_json() const {
  auto field = [](std::string_view v) { return std::string(v); };
  std::string out = "{\"scheme\":\"" + scheme + "\"";
  out += ",\"policy\":\"" + policy + "\"";
  out += ",\"kernel\":{\"variant\":\"" + field(kernel.variant) + "\"";
  out += ",\"isa\":\"" + field(kernel.isa) + "\"";
  out += ",\"fixed_encode\":\"" + field(kernel.fixed_encode) + "\"";
  out += ",\"planar_encode\":\"" + field(kernel.planar_encode) + "\"";
  out += ",\"trellis\":\"" + field(kernel.trellis) + "\"";
  out += ",\"decode\":\"" + field(kernel.decode) + "\"}";
  out += ",\"adaptive\":";
  out += adaptive ? "true" : "false";
  out += ",\"selection\":" + selection.to_json();
  out += ",\"metrics\":" + metrics.to_json();
  out += "}";
  return out;
}

}  // namespace dbi

#include "oracle.hpp"

#include <array>
#include <vector>

namespace pb {

namespace {

/// Group `g` of burst `b` as a standalone width-8 (or narrower
/// remainder) Burst.
dbi::Burst group_burst(const Payload& p, std::int64_t b, int g) {
  const dbi::Geometry& geo = p.geometry;
  const dbi::BusConfig cfg = geo.group_config(g);
  std::array<dbi::Word, 64> words{};
  const std::uint8_t* base =
      p.bytes.data() + static_cast<std::size_t>(b) * p.bytes_per_burst();
  const int bpb = geo.bytes_per_beat();
  for (int t = 0; t < geo.burst_length(); ++t) {
    if (geo.is_wide()) {
      words[static_cast<std::size_t>(t)] = base[t * bpb + g];
    } else {
      dbi::Word w = 0;
      for (int k = 0; k < bpb; ++k)
        w |= static_cast<dbi::Word>(base[t * bpb + k]) << (8 * k);
      words[static_cast<std::size_t>(t)] = w;
    }
  }
  return dbi::Burst(cfg, std::span<const dbi::Word>(
                             words.data(),
                             static_cast<std::size_t>(geo.burst_length())));
}

}  // namespace

dbi::StreamStats scalar_threaded(const Payload& p, dbi::Scheme scheme,
                                 int lanes) {
  const auto enc = dbi::make_encoder(scheme);
  const int groups = p.geometry.groups();
  std::vector<dbi::BusState> states;
  for (int l = 0; l < lanes; ++l)
    for (int g = 0; g < groups; ++g)
      states.push_back(dbi::BusState::all_ones(p.geometry.group_config(g)));
  dbi::StreamStats out;
  for (std::int64_t b = 0; b < p.bursts; ++b) {
    const auto lane = static_cast<std::size_t>(b % lanes);
    for (int g = 0; g < groups; ++g) {
      dbi::BusState& st = states[lane * static_cast<std::size_t>(groups) +
                                 static_cast<std::size_t>(g)];
      const dbi::EncodedBurst e = enc->encode(group_burst(p, b, g), st);
      out.add(e.stats(st));
      st = e.final_state();
    }
  }
  return out;
}

Expect scalar_reset(const Payload& p, dbi::Scheme scheme, std::int64_t first,
                    std::int64_t count) {
  const auto enc = dbi::make_encoder(scheme);
  const int groups = p.geometry.groups();
  Expect out;
  std::vector<std::uint64_t> masks;
  masks.reserve(static_cast<std::size_t>(count * groups));
  for (std::int64_t b = first; b < first + count; ++b)
    for (int g = 0; g < groups; ++g) {
      const dbi::BusState st =
          dbi::BusState::all_ones(p.geometry.group_config(g));
      const dbi::EncodedBurst e = enc->encode(group_burst(p, b, g), st);
      out.stats.add(e.stats(st));
      masks.push_back(e.inversion_mask());
    }
  out.mask_hash = fnv64(masks);
  return out;
}

ScalarStream::ScalarStream(const Payload& p, dbi::Scheme scheme,
                           std::int64_t req_bursts)
    : p_(p), enc_(dbi::make_encoder(scheme)), req_(req_bursts) {
  for (int g = 0; g < p.geometry.groups(); ++g)
    states_.push_back(dbi::BusState::all_ones(p.geometry.group_config(g)));
}

Expect ScalarStream::next(std::int64_t slice) {
  std::vector<std::uint64_t> key = {static_cast<std::uint64_t>(slice)};
  for (const dbi::BusState& s : states_)
    key.push_back((static_cast<std::uint64_t>(s.last.dq) << 1) |
                  (s.last.dbi ? 1U : 0U));
  if (const auto it = memo_.find(key); it != memo_.end()) {
    states_ = it->second.after;
    return it->second.expect;
  }
  Memo m;
  std::vector<std::uint64_t> masks;
  const int groups = p_.geometry.groups();
  for (std::int64_t b = slice * req_; b < (slice + 1) * req_; ++b)
    for (int g = 0; g < groups; ++g) {
      dbi::BusState& st = states_[static_cast<std::size_t>(g)];
      const dbi::EncodedBurst e = enc_->encode(group_burst(p_, b, g), st);
      m.expect.stats.add(e.stats(st));
      masks.push_back(e.inversion_mask());
      st = e.final_state();
    }
  m.expect.mask_hash = fnv64(masks);
  m.after = states_;
  memo_.emplace(std::move(key), m);
  return m.expect;
}

}  // namespace pb

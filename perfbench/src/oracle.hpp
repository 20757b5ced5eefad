// The output oracle: the scalar src/core encoders (the paper's
// per-burst reference implementation), run untimed over the same
// payload the timed path saw.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "api/stream_stats.hpp"
#include "common.hpp"
#include "core/encoder.hpp"

namespace pb {

/// Totals plus the FNV-1a digest of the inversion masks in engine
/// result order (burst-major, group-minor).
struct Expect {
  dbi::StreamStats stats;
  std::uint64_t mask_hash = 0;

  friend bool operator==(const Expect&, const Expect&) = default;
};

/// Threaded-state encode of the whole payload: burst g goes to lane
/// g % lanes and every (lane, group) unit threads its own line state
/// from all-ones — what a Session with `lanes` lanes and
/// StatePolicy::kThread computes.
[[nodiscard]] dbi::StreamStats scalar_threaded(const Payload& p,
                                               dbi::Scheme scheme, int lanes);

/// The paper's configuration: every (burst, group) unit encoded from
/// the all-ones boundary, over bursts [first, first + count).
[[nodiscard]] Expect scalar_reset(const Payload& p, dbi::Scheme scheme,
                                  std::int64_t first, std::int64_t count);

/// The threaded-state scalar twin of one served tenant: requests of
/// `req_bursts` bursts, each one slice of the payload, encoded in
/// admission order with every group's line state carried across
/// requests. Encoding is a pure function of (slice, entry line state),
/// so results are memoised on that pair; a stream cycling over a few
/// slices then costs a few scalar passes, not one per request.
class ScalarStream {
 public:
  ScalarStream(const Payload& p, dbi::Scheme scheme, std::int64_t req_bursts);

  /// The expected ack of the next request, carrying slice `slice`;
  /// advances the line state.
  Expect next(std::int64_t slice);

 private:
  struct Memo {
    Expect expect;
    std::vector<dbi::BusState> after;
  };

  const Payload& p_;
  std::unique_ptr<dbi::Encoder> enc_;
  std::int64_t req_;
  std::vector<dbi::BusState> states_;  // one per group
  std::map<std::vector<std::uint64_t>, Memo> memo_;
};

}  // namespace pb

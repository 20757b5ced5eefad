#include "lake/lake_replay.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "trace/trace_reader.hpp"

namespace dbi::lake {

LakeReplayResult replay_lake(const LakeReader& lake,
                             const dbi::SessionSpec& spec,
                             const LakeReplayOptions& options) {
  const std::vector<LakeMember>& members = lake.members();
  for (const LakeMember& m : members)
    if (m.encoded())
      throw LakeError("lake: member " + m.name +
                      " is an encoded trace; replay re-encodes payload "
                      "traces (decode it first)");

  const std::size_t n = members.size();
  LakeReplayResult result;
  result.member_stats.resize(n);
  std::vector<std::exception_ptr> errors(n);

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          std::max(options.workers, 1), std::max<std::size_t>(n, 1)));

  auto run_member = [&](std::size_t k,
                        std::unique_ptr<trace::TraceReader> reader) {
    dbi::SessionSpec s = spec;
    s.geometry = members[k].geometry();
    if (workers > 1) {
      // One member per worker thread: the session itself must not fan
      // out again (nor share a caller pool across workers).
      s.threads = 0;
      s.pool = nullptr;
    }
    dbi::Session session(s);
    const auto source = dbi::make_trace_source(*reader);
    if (options.on_results) {
      const auto sink = dbi::make_observer_sink(
          [&options, k](std::int64_t first_burst,
                        std::span<const engine::BurstResult> results) {
            options.on_results(k, first_burst, results);
          });
      result.member_stats[k] = session.run(*source, *sink);
    } else {
      result.member_stats[k] = session.run(*source);
    }
  };

  if (workers <= 1) {
    // Sequential with readahead: member k+1 opens (CRC pass pages it
    // in) on a background thread while member k encodes.
    std::future<std::unique_ptr<trace::TraceReader>> pending;
    for (std::size_t k = 0; k < n; ++k) {
      try {
        std::unique_ptr<trace::TraceReader> reader =
            pending.valid() ? pending.get()
                            : lake.open_member(k, options.verify_crc);
        if (options.readahead && k + 1 < n)
          pending = std::async(std::launch::async, [&lake, &options, k] {
            return lake.open_member(k + 1, options.verify_crc);
          });
        run_member(k, std::move(reader));
      } catch (...) {
        errors[k] = std::current_exception();
        break;  // a failed member (or its prefetch) ends the run
      }
    }
    if (pending.valid()) pending.wait();
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
      pool.emplace_back([&] {
        for (std::size_t k = next.fetch_add(1); k < n;
             k = next.fetch_add(1)) {
          try {
            run_member(k, lake.open_member(k, options.verify_crc));
          } catch (...) {
            errors[k] = std::current_exception();
          }
        }
      });
    for (std::thread& t : pool) t.join();
  }

  // First failure in catalog order, so the reported error is
  // deterministic regardless of worker scheduling.
  for (std::size_t k = 0; k < n; ++k)
    if (errors[k]) std::rethrow_exception(errors[k]);

  for (std::size_t k = 0; k < n; ++k) result.totals += result.member_stats[k];
  return result;
}

}  // namespace dbi::lake

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "test_util.hpp"

namespace dbi::engine {
namespace {

TEST(ShardPool, RunsEveryShardExactlyOnce) {
  ShardPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(23);
  pool.run(23, [&](int s) { ++hits[static_cast<std::size_t>(s)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, ReusableAcrossRuns) {
  ShardPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    pool.run(10, [&](int s) { sum += s; });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ShardPool, ZeroShardsIsANoOp) {
  ShardPool pool(2);
  pool.run(0, [](int) { FAIL() << "no shard should run"; });
}

TEST(ShardPool, ClampsWorkerCountToAtLeastOne) {
  ShardPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<int> n{0};
  pool.run(7, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 7);
}

TEST(ShardPool, DeterministicShardToWorkerAssignment) {
  // Shard s must execute on worker s % workers, and each worker must
  // visit its shards in increasing order — the no-work-stealing
  // guarantee that makes parallel runs reproducible.
  ShardPool pool(3);
  std::mutex mu;
  std::map<std::thread::id, std::vector<int>> per_thread_order;
  pool.run(11, [&](int s) {
    std::lock_guard<std::mutex> lock(mu);
    per_thread_order[std::this_thread::get_id()].push_back(s);
  });
  // Threads are identified lazily, so recover each worker's id from the
  // first shard it ran (shard s -> worker s % 3).
  ASSERT_LE(per_thread_order.size(), 3u);
  for (const auto& [tid, order] : per_thread_order) {
    ASSERT_FALSE(order.empty());
    const int worker = order.front() % 3;
    int expected = worker;
    for (int s : order) {
      EXPECT_EQ(s, expected) << "worker " << worker;
      EXPECT_EQ(s % 3, worker);
      expected += 3;
    }
  }
}

TEST(ShardPool, PropagatesExceptions) {
  ShardPool pool(2);
  EXPECT_THROW(
      pool.run(6,
               [](int s) {
                 if (s == 3) throw std::runtime_error("shard 3 failed");
               }),
      std::runtime_error);
  // The pool survives a failed run.
  std::atomic<int> n{0};
  pool.run(4, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

TEST(ShardPool, ShardedEncodeLanesMatchesSerial) {
  // Independent lanes encoded across a pool must yield identical
  // results and identical threaded states to a serial loop.
  const BusConfig cfg{8, 8};
  constexpr int kLanes = 9;
  constexpr int kBursts = 64;

  std::vector<std::vector<Burst>> lanes;
  for (int l = 0; l < kLanes; ++l)
    lanes.push_back(
        test::random_bursts(cfg, kBursts, 1000 + static_cast<std::uint64_t>(l)));

  const BatchEncoder batch(Scheme::kOptFixed);

  std::vector<std::vector<std::uint8_t>> packed;
  for (const std::vector<Burst>& lane : lanes)
    packed.push_back(test::pack_bursts(lane));

  auto encode_all = [&](ShardPool* pool) {
    std::vector<BusState> states(kLanes, BusState::all_ones(cfg));
    std::vector<std::vector<BurstResult>> results(
        kLanes, std::vector<BurstResult>(kBursts));
    std::vector<BurstStats> totals(kLanes);
    auto run_lane = [&](int l) {
      const auto i = static_cast<std::size_t>(l);
      totals[i] =
          batch.encode_packed(packed[i], cfg, 0, states[i], results[i].data());
    };
    if (pool) {
      pool->run(kLanes, run_lane);
    } else {
      for (int l = 0; l < kLanes; ++l) run_lane(l);
    }
    return std::tuple{states, results, totals};
  };

  const auto [serial_states, serial_results, serial_totals] =
      encode_all(nullptr);
  ShardPool pool(4);
  const auto [pool_states, pool_results, pool_totals] = encode_all(&pool);

  EXPECT_EQ(serial_states, pool_states);
  EXPECT_EQ(serial_results, pool_results);
  for (int l = 0; l < kLanes; ++l)
    EXPECT_EQ(serial_totals[static_cast<std::size_t>(l)],
              pool_totals[static_cast<std::size_t>(l)])
        << "lane " << l;
}

}  // namespace
}  // namespace dbi::engine

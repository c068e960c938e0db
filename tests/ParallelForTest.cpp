//===- tests/ParallelForTest.cpp - The fork-join loop ---------------------===//
//
// The support::parallelFor contract `pmaf verify-corpus` leans on:
//
//  * every index of [0, N) runs exactly once — no skips, no duplicates —
//    including the empty and single-element ranges and ranges much larger
//    than the worker count;
//  * the calling thread is one of the lanes, one or zero workers run the
//    loop inline on it, and more workers than indices start one lane per
//    index at most;
//  * an index that throws does not stop the others, and the first
//    exception is rethrown once every thread has joined.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace pmaf;

namespace {

/// The distinct threads that ran an index, recorded under a lock.
struct ThreadSet {
  std::mutex Mu;
  std::set<std::thread::id> Ids;
  void record() {
    std::lock_guard<std::mutex> Lock(Mu);
    Ids.insert(std::this_thread::get_id());
  }
};

} // namespace

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (unsigned Workers : {1u, 2u, 4u, 7u}) {
    constexpr size_t N = 10000;
    std::vector<std::atomic<int>> Hits(N);
    support::parallelFor(Workers, N, [&](size_t I) {
      Hits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I << " workers " << Workers;
  }
}

TEST(ParallelForTest, EmptyAndSingleRanges) {
  std::atomic<int> Calls{0};
  support::parallelFor(4, 0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
  size_t Seen = ~size_t(0);
  support::parallelFor(4, 1, [&](size_t I) {
    ++Calls;
    Seen = I;
  });
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_EQ(Seen, 0u);
}

TEST(ParallelForTest, OneOrZeroWorkersRunInlineOnTheCaller) {
  for (unsigned Workers : {0u, 1u}) {
    ThreadSet Threads;
    std::vector<size_t> Order;
    support::parallelFor(Workers, 50, [&](size_t I) {
      Threads.record();
      Order.push_back(I); // No lock: only the caller runs.
    });
    EXPECT_EQ(Threads.Ids,
              std::set<std::thread::id>{std::this_thread::get_id()});
    ASSERT_EQ(Order.size(), 50u);
    for (size_t I = 0; I != Order.size(); ++I)
      EXPECT_EQ(Order[I], I) << "inline lanes run the indices in order";
  }
}

TEST(ParallelForTest, CallerIsOneOfTheLanes) {
  // Every index blocks until all four have started, so each of the four
  // lanes holds exactly one of them — the caller included.
  constexpr size_t N = 4;
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Started = 0;
  ThreadSet Threads;
  support::parallelFor(N, N, [&](size_t) {
    Threads.record();
    std::unique_lock<std::mutex> Lock(Mu);
    if (++Started == N)
      Cv.notify_all();
    Cv.wait(Lock, [&] { return Started == N; });
  });
  EXPECT_EQ(Threads.Ids.size(), N);
  EXPECT_EQ(Threads.Ids.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelForTest, MoreWorkersThanIndicesStartOneLanePerIndexAtMost) {
  ThreadSet Threads;
  std::vector<std::atomic<int>> Hits(3);
  support::parallelFor(64, Hits.size(), [&](size_t I) {
    Threads.record();
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_LE(Threads.Ids.size(), Hits.size());
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelForTest, RethrowsTheFirstExceptionAfterEveryIndexRan) {
  constexpr size_t N = 200;
  std::vector<std::atomic<int>> Hits(N);
  bool Caught = false;
  try {
    support::parallelFor(4, N, [&](size_t I) {
      Hits[I].fetch_add(1, std::memory_order_relaxed);
      if (I % 50 == 7)
        throw std::runtime_error("index " + std::to_string(I));
    });
  } catch (const std::runtime_error &E) {
    Caught = true;
    EXPECT_EQ(std::string(E.what()).rfind("index ", 0), 0u) << E.what();
  }
  EXPECT_TRUE(Caught);
  // The throwing indices did not stop the others.
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

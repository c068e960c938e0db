//===- tests/ThreadPoolTest.cpp - Fixed-size pool unit tests --------------===//
//
// The support::ThreadPool contract the parallel engine leans on:
//
//  * construction spawns exactly the requested workers (clamped to >= 1)
//    and destruction joins them, draining already-queued work first;
//  * submit() returns a future that carries the task's value or its
//    exception;
//  * parallelFor visits every index of the range exactly once — no skips,
//    no duplicates — including the empty and single-element ranges and
//    ranges much larger than the worker count;
//  * an exception thrown by one iteration is rethrown to the caller and
//    leaves the pool usable for later loops;
//  * the process-wide shared pool (the matrix kernels' pool) can be
//    resized and torn back down via setSharedParallelism, resolves 0 to
//    one worker per hardware thread, and refuses to recreate the pool
//    while tasks are in flight (keeping the old pool alive);
//  * the work-stealing deques honor the locality protocol: an owner pops
//    its pinned tasks front-first in submission order, thieves take from
//    the back of saturated deques only (a lone pinned task waits for its
//    busy owner), exceptions travel through stolen tasks, and
//    inFlightTasks() drains to zero under stealing.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace pmaf;

namespace {

/// Pool-wide totals of the per-worker queueing counters.
support::ThreadPool::WorkerQueueStats total(const support::ThreadPool &Pool) {
  support::ThreadPool::WorkerQueueStats Sum;
  for (const auto &W : Pool.workerQueueStats())
    Sum += W;
  return Sum;
}

} // namespace

TEST(ThreadPoolTest, StartupAndShutdownAcrossSizes) {
  for (unsigned N : {0u, 1u, 2u, 4u, 8u}) {
    support::ThreadPool Pool(N);
    EXPECT_EQ(Pool.size(), std::max(N, 1u));
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> Ran{0};
  {
    support::ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.post([&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  support::ThreadPool Pool(2);
  auto Future = Pool.submit([] { return 6 * 7; });
  EXPECT_EQ(Future.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  support::ThreadPool Pool(2);
  auto Future =
      Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(Future.get(), std::runtime_error);
  // The worker survives its task's exception.
  EXPECT_EQ(Pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, NestedSubmitFromInsideTask) {
  support::ThreadPool Pool(2);
  auto Outer = Pool.submit([&Pool] { return Pool.submit([] { return 7; }); });
  EXPECT_EQ(Outer.get().get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned N : {1u, 2u, 4u}) {
    support::ThreadPool Pool(N);
    constexpr size_t Size = 10'000;
    std::vector<std::atomic<unsigned>> Visits(Size);
    Pool.parallelFor(0, Size, [&](size_t I) {
      Visits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I != Size; ++I)
      ASSERT_EQ(Visits[I].load(), 1u) << "index " << I << " with " << N
                                      << " workers";
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  support::ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 0, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0);
  Pool.parallelFor(5, 6, [&](size_t I) {
    EXPECT_EQ(I, 5u);
    Count.fetch_add(1);
  });
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksPartitionTheRange) {
  support::ThreadPool Pool(4);
  constexpr size_t Size = 4'321;
  std::vector<std::atomic<unsigned>> Visits(Size);
  Pool.parallelForChunks(0, Size, [&](size_t Begin, size_t End) {
    ASSERT_LE(Begin, End);
    for (size_t I = Begin; I != End; ++I)
      Visits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != Size; ++I)
    ASSERT_EQ(Visits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForRethrowsAndPoolStaysUsable) {
  support::ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(0, 1'000,
                                [&](size_t I) {
                                  if (I == 137)
                                    throw std::runtime_error("iteration 137");
                                }),
               std::runtime_error);

  // The failed loop must not wedge the pool: a fresh loop still covers
  // its range.
  std::atomic<size_t> Count{0};
  Pool.parallelFor(0, 100, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPoolTest, SharedPoolConfiguration) {
  // Sequential by default (and after reset): no pool at all.
  support::setSharedParallelism(1);
  EXPECT_EQ(support::sharedPool(), nullptr);
  EXPECT_EQ(support::sharedParallelism(), 1u);

  support::setSharedParallelism(4);
  ASSERT_NE(support::sharedPool(), nullptr);
  EXPECT_EQ(support::sharedPool()->size(), 4u);
  EXPECT_EQ(support::sharedParallelism(), 4u);

  std::atomic<int> Count{0};
  support::sharedPool()->parallelFor(0, 256, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 256);

  support::setSharedParallelism(1);
  EXPECT_EQ(support::sharedPool(), nullptr);
}

TEST(ThreadPoolTest, SharedPoolZeroMeansOneWorkerPerHardwareThread) {
  const unsigned Hw = support::ThreadPool::hardwareConcurrency();
  EXPECT_TRUE(support::setSharedParallelism(0));
  EXPECT_EQ(support::sharedParallelism(), std::max(Hw, 1u));
  if (Hw > 1) {
    ASSERT_NE(support::sharedPool(), nullptr);
    EXPECT_EQ(support::sharedPool()->size(), Hw);
  } else {
    EXPECT_EQ(support::sharedPool(), nullptr);
  }
  EXPECT_TRUE(support::setSharedParallelism(1));
}

TEST(ThreadPoolTest, SharedPoolResizeRefusedWhileTasksInFlight) {
  ASSERT_TRUE(support::setSharedParallelism(4));
  support::ThreadPool *Old = support::sharedPool();
  ASSERT_NE(Old, nullptr);

  // Park one task on the pool until released.
  std::mutex M;
  std::condition_variable Cv;
  bool Started = false, Release = false;
  Old->post([&] {
    std::unique_lock<std::mutex> Lock(M);
    Started = true;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Release; });
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Started; });
  }
  EXPECT_FALSE(Old->idle());

  // Recreating the pool out from under an in-flight task would hand its
  // worker thread a dangling queue: the resize must be refused and the
  // old pool kept alive at its old size.
  EXPECT_FALSE(support::setSharedParallelism(2));
  EXPECT_EQ(support::sharedPool(), Old);
  EXPECT_EQ(support::sharedParallelism(), 4u);

  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  Cv.notify_all();
  while (!Old->idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Once the pool is idle again the resize goes through.
  EXPECT_TRUE(support::setSharedParallelism(2));
  ASSERT_NE(support::sharedPool(), nullptr);
  EXPECT_EQ(support::sharedPool()->size(), 2u);
  EXPECT_TRUE(support::setSharedParallelism(1));
  EXPECT_EQ(support::sharedPool(), nullptr);
}

TEST(ThreadPoolTest, SharedPoolRefusalIsObservableThenIdleResizeSucceeds) {
  ASSERT_TRUE(support::setSharedParallelism(4));
  support::ThreadPool *Old = support::sharedPool();
  ASSERT_NE(Old, nullptr);

  std::mutex M;
  std::condition_variable Cv;
  bool Started = false, Release = false;
  Old->post([&] {
    std::unique_lock<std::mutex> Lock(M);
    Started = true;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Release; });
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Started; });
  }

  // Resize under load: refused, and the refusal carries a reason a
  // long-lived caller (the pmafd `configure` handler) can surface as a
  // structured error instead of a silently wrong-sized pool.
  std::string WhyRefused;
  EXPECT_FALSE(support::setSharedParallelism(2, &WhyRefused));
  EXPECT_NE(WhyRefused.find("in flight"), std::string::npos) << WhyRefused;
  EXPECT_EQ(support::sharedPool(), Old);
  EXPECT_EQ(support::sharedParallelism(), 4u);

  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  Cv.notify_all();
  while (!Old->idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Resize at idle (the between-requests state of a daemon): reliably
  // succeeds and leaves the reason untouched.
  WhyRefused.clear();
  EXPECT_TRUE(support::setSharedParallelism(2, &WhyRefused));
  EXPECT_TRUE(WhyRefused.empty());
  ASSERT_NE(support::sharedPool(), nullptr);
  EXPECT_EQ(support::sharedPool()->size(), 2u);
  EXPECT_TRUE(support::setSharedParallelism(1, &WhyRefused));
  EXPECT_EQ(support::sharedPool(), nullptr);
}

TEST(ThreadPoolTest, WorkerBusySecondsAreTallied) {
  support::ThreadPool Pool(2);
  for (int I = 0; I != 8; ++I)
    Pool.submit([] {
      volatile double X = 1.0;
      for (int K = 0; K != 100'000; ++K)
        X = X * 1.0000001;
      return X;
    }).get();
  EXPECT_EQ(Pool.workerQueueStats().size(), Pool.size());
  EXPECT_GT(total(Pool).BusySeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// The work-stealing deques and the affinity protocol
//===----------------------------------------------------------------------===//

namespace {

/// Parks one task on worker \p Owner's deque until release() is called.
/// A lone pinned task is below the saturation threshold, so no other
/// worker can steal it — the blocker is guaranteed to occupy exactly the
/// owner.
class WorkerBlocker {
public:
  WorkerBlocker(support::ThreadPool &Pool, unsigned Owner) {
    Pool.postTo(Owner, [this] {
      std::unique_lock<std::mutex> Lock(M);
      Started = true;
      Cv.notify_all();
      Cv.wait(Lock, [this] { return Released; });
    });
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [this] { return Started; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Released = true;
    }
    Cv.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool Started = false, Released = false;
};

} // namespace

TEST(ThreadPoolTest, OwnerPopsPinnedTasksInSubmissionOrder) {
  // One worker: nothing can be stolen, so the deque's front-pop order is
  // directly observable — pinned tasks run FIFO.
  support::ThreadPool Pool(1);
  WorkerBlocker Blocker(Pool, 0);
  std::mutex M;
  std::vector<int> Order;
  for (int K = 0; K != 8; ++K)
    Pool.postTo(0, [&M, &Order, K] {
      std::lock_guard<std::mutex> Lock(M);
      Order.push_back(K);
    });
  Blocker.release();
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Order.size(), 8u);
  for (int K = 0; K != 8; ++K)
    EXPECT_EQ(Order[K], K);
  EXPECT_EQ(total(Pool).Steals, 0u);
  EXPECT_EQ(total(Pool).AffinityHits, 9u); // blocker + 8 pinned tasks
}

TEST(ThreadPoolTest, ThiefTakesFromTheBackOfASaturatedDeque) {
  // Worker 0 is parked with 6 pinned tasks queued behind the blocker;
  // worker 1 must steal from the *back* (descending indices) and stop at
  // the last remaining task (a lone pinned task is not stealable), which
  // the owner then pops.
  support::ThreadPool Pool(2);
  WorkerBlocker Blocker(Pool, 0);
  // Park the thief too, so the whole backlog is in place before it scans.
  WorkerBlocker ThiefGate(Pool, 1);
  std::mutex M;
  std::vector<std::pair<unsigned, int>> Ran; // (executing worker, index)
  for (int K = 1; K <= 6; ++K)
    Pool.postTo(0, [&, K] {
      std::lock_guard<std::mutex> Lock(M);
      Ran.push_back({Pool.currentWorker(), K});
    });
  ThiefGate.release();
  // Worker 1 drains everything stealable; the blocker plus the one
  // unstealable task stay in flight.
  while (Pool.inFlightTasks() > 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    std::lock_guard<std::mutex> Lock(M);
    ASSERT_EQ(Ran.size(), 5u);
    for (size_t I = 0; I != Ran.size(); ++I) {
      EXPECT_EQ(Ran[I].first, 1u) << "stolen task ran off-thief";
      EXPECT_EQ(Ran[I].second, 6 - static_cast<int>(I))
          << "steal order must walk the deque from the back";
    }
  }
  Blocker.release();
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    std::lock_guard<std::mutex> Lock(M);
    ASSERT_EQ(Ran.size(), 6u);
    EXPECT_EQ(Ran.back().first, 0u) << "the last task belongs to its owner";
    EXPECT_EQ(Ran.back().second, 1);
  }
  EXPECT_EQ(total(Pool).Steals, 5u);
  EXPECT_EQ(total(Pool).AffinityHits, 3u); // two blockers + task 1
}

TEST(ThreadPoolTest, LonePinnedTaskWaitsForItsBusyOwner) {
  // Below the saturation threshold the affinity contract wins: an idle
  // worker must NOT poach a single pinned task from a busy owner.
  support::ThreadPool Pool(2);
  WorkerBlocker Blocker(Pool, 0);
  std::atomic<bool> Ran{false};
  std::atomic<unsigned> RanOn{support::ThreadPool::NoWorker};
  Pool.postTo(0, [&] {
    RanOn.store(Pool.currentWorker(), std::memory_order_relaxed);
    Ran.store(true, std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Ran.load()) << "a lone pinned task must wait for its owner";
  EXPECT_EQ(total(Pool).Steals, 0u);
  Blocker.release();
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Ran.load());
  EXPECT_EQ(RanOn.load(), 0u);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughAStolenTask) {
  // Two pinned tasks saturate the parked owner's deque; the thief steals
  // the thrower from the back, and the exception still travels through
  // the future to the caller.
  support::ThreadPool Pool(2);
  WorkerBlocker Blocker(Pool, 0);
  auto Quiet = Pool.submitTo(0, [] { return 1; });
  auto Thrower = Pool.submitTo(0, []() -> int {
    throw std::runtime_error("stolen boom");
  });
  EXPECT_THROW(Thrower.get(), std::runtime_error);
  Blocker.release();
  EXPECT_EQ(Quiet.get(), 1);
  // The thief survives the stolen task's exception.
  EXPECT_EQ(Pool.submit([] { return 2; }).get(), 2);
  // Counters are bumped after the task body runs, so only check once the
  // pool has quiesced.
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(total(Pool).Steals, 1u);
}

TEST(ThreadPoolTest, IdleContractHoldsUnderStealing) {
  // A storm of pinned tasks aimed at two hot lanes (forcing steals) mixed
  // with injected tasks: inFlightTasks() must drain to exactly zero and
  // every task must have run.
  support::ThreadPool Pool(4);
  constexpr int Tasks = 2'000;
  std::atomic<int> Ran{0};
  for (int K = 0; K != Tasks; ++K) {
    auto Fn = [&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); };
    if (K % 4 == 0)
      Pool.post(Fn);
    else
      Pool.postTo(K % 2, Fn); // lanes 0/1 only: lanes 2/3 must steal
  }
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Ran.load(), Tasks);
  EXPECT_EQ(Pool.inFlightTasks(), 0u);
  EXPECT_EQ(total(Pool).TasksRun, static_cast<uint64_t>(Tasks));
}

TEST(ThreadPoolTest, CurrentWorkerIdentifiesOwnerAndOutsiders) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.currentWorker(), support::ThreadPool::NoWorker);
  // A lone pinned task cannot be stolen, so it reports its owner's lane.
  for (unsigned W : {0u, 2u, 3u}) {
    unsigned RanOn = Pool.submitTo(W, [&Pool] {
      return Pool.currentWorker();
    }).get();
    EXPECT_EQ(RanOn, W);
  }
  // A worker of one pool is an outsider to another pool.
  support::ThreadPool Other(2);
  EXPECT_EQ(Other.submit([&Pool] { return Pool.currentWorker(); }).get(),
            support::ThreadPool::NoWorker);
}

TEST(ThreadPoolTest, PinnedOverflowSpillsToInjectionAndStillRuns) {
  // DequeBound pinned tasks fill worker 0's deque; the rest spill to the
  // shared injection queue. Everything must still run exactly once.
  support::ThreadPool Pool(2);
  WorkerBlocker Blocker(Pool, 0);
  const size_t Total = support::ThreadPool::DequeBound + 64;
  std::atomic<size_t> Ran{0};
  for (size_t K = 0; K != Total; ++K)
    Pool.postTo(0, [&Ran] { Ran.fetch_add(1, std::memory_order_relaxed); });
  Blocker.release();
  while (!Pool.idle())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Ran.load(), Total);
}

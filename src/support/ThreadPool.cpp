//===- support/ThreadPool.cpp - Locality-aware work-stealing pool ---------===//

#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace pmaf;
using namespace pmaf::support;

namespace {
/// Worker identity for currentWorker(): which pool (if any) owns the
/// calling thread, and the thread's lane index in it.
thread_local const ThreadPool *TlsPool = nullptr;
thread_local unsigned TlsLane = 0;
} // namespace

ThreadPool::ThreadPool(unsigned ThreadCount) {
  NumLanes = ThreadCount ? ThreadCount : 1;
  Lanes = std::make_unique<Lane[]>(NumLanes);
  Threads.reserve(NumLanes);
  for (unsigned I = 0; I != NumLanes; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    Stopping.store(true, std::memory_order_relaxed);
    for (unsigned I = 0; I != NumLanes; ++I) {
      Lanes[I].Asleep = false;
      Lanes[I].SleepCv.notify_all();
    }
  }
  for (std::thread &T : Threads)
    T.join();
}

unsigned ThreadPool::currentWorker() const {
  return TlsPool == this ? TlsLane : NoWorker;
}

void ThreadPool::post(std::function<void()> Fn) {
  InFlight.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(InjectedMutex);
    Injected.push_back(Task{std::move(Fn), NoWorker});
  }
  wakeOneSleeper(); // Any worker may run an injected task.
}

void ThreadPool::postTo(unsigned Worker, std::function<void()> Fn) {
  const unsigned Owner = Worker % NumLanes;
  InFlight.fetch_add(1, std::memory_order_relaxed);
  bool Saturated = false;
  {
    Lane &L = Lanes[Owner];
    std::unique_lock<std::mutex> Lock(L.Mutex);
    if (L.Deque.size() < DequeBound) {
      L.Deque.push_back(Task{std::move(Fn), Owner});
      Saturated = L.Deque.size() >= SaturationDepth;
      Lock.unlock();
      // Only the owner may run an unsaturated pinned task, so only the
      // owner needs waking; once the deque is saturated the backlog is
      // stealable, so rouse a thief as well.
      wakeWorker(Owner);
      if (Saturated)
        wakeOneSleeper();
      return;
    }
  }
  // Deque bound hit: spill to the injection queue as backpressure. The
  // owner tag rides along so the owner pulling it from there still counts
  // an affinity hit, but any worker may run it.
  {
    std::lock_guard<std::mutex> Lock(InjectedMutex);
    Injected.push_back(Task{std::move(Fn), Owner});
  }
  wakeOneSleeper();
}

void ThreadPool::wakeWorker(unsigned Worker) {
  // Taking the sleep mutex orders this wakeup after any worker between
  // its failed under-lock rescan and its wait(): that worker holds the
  // mutex until wait() parks it, so once we acquire, either the push
  // above was visible to its rescan or the notify below reaches it.
  std::lock_guard<std::mutex> Lock(SleepMutex);
  Lane &L = Lanes[Worker];
  if (L.Asleep) {
    // Clear the flag at notify time (not only when the worker resumes) so
    // back-to-back wakeups fan out to distinct sleepers instead of all
    // landing on one not-yet-resumed worker.
    L.Asleep = false;
    L.SleepCv.notify_all();
  }
}

void ThreadPool::wakeOneSleeper() {
  std::lock_guard<std::mutex> Lock(SleepMutex);
  for (unsigned I = 0; I != NumLanes; ++I) {
    Lane &L = Lanes[I];
    if (L.Asleep) {
      L.Asleep = false;
      L.SleepCv.notify_all();
      return;
    }
  }
  // Nobody is parked: every worker is busy or scanning and will pick the
  // task up on its next pass — no notify needed.
}

bool ThreadPool::findTask(unsigned Self, Task &Out, bool &Stolen) {
  Stolen = false;
  // 1. Own deque, front (submission order — the affinity fast path).
  {
    Lane &Mine = Lanes[Self];
    std::lock_guard<std::mutex> Lock(Mine.Mutex);
    if (!Mine.Deque.empty()) {
      Out = std::move(Mine.Deque.front());
      Mine.Deque.pop_front();
      return true;
    }
  }
  // 2. The shared injection queue (anonymous post/parallelFor work).
  {
    std::lock_guard<std::mutex> Lock(InjectedMutex);
    if (!Injected.empty()) {
      Out = std::move(Injected.front());
      Injected.pop_front();
      return true;
    }
  }
  // 3. Steal: scan the other lanes starting at our right-hand neighbour,
  // taking from the *back* of a victim's deque (the cold end — the owner
  // works the front). Pinned tasks are skipped unless the victim is
  // saturated (backlog >= SaturationDepth) or the pool is draining for
  // shutdown, in which case everything is fair game so nothing strands.
  const bool Draining = Stopping.load(std::memory_order_relaxed);
  for (unsigned Step = 1; Step < NumLanes; ++Step) {
    Lane &Victim = Lanes[(Self + Step) % NumLanes];
    std::lock_guard<std::mutex> Lock(Victim.Mutex);
    if (Victim.Deque.empty())
      continue;
    const bool Saturated = Draining || Victim.Deque.size() >= SaturationDepth;
    for (auto It = Victim.Deque.rbegin(); It != Victim.Deque.rend(); ++It) {
      if (It->Owner != NoWorker && !Saturated)
        continue;
      Out = std::move(*It);
      Victim.Deque.erase(std::next(It).base());
      Stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::execute(unsigned Self, Task T, bool Stolen) {
  Lane &L = Lanes[Self];
  auto Start = std::chrono::steady_clock::now();
  T.Fn(); // packaged_task captures exceptions; post() tasks must not throw.
  auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  L.BusyNanos.fetch_add(static_cast<uint64_t>(Nanos),
                        std::memory_order_relaxed);
  L.TasksRun.fetch_add(1, std::memory_order_relaxed);
  if (Stolen)
    L.Steals.fetch_add(1, std::memory_order_relaxed);
  else if (T.Owner == Self)
    L.AffinityHits.fetch_add(1, std::memory_order_relaxed);
  InFlight.fetch_sub(1, std::memory_order_release);
}

void ThreadPool::workerMain(unsigned Index) {
  TlsPool = this;
  TlsLane = Index;
  for (;;) {
    Task T;
    bool Stolen = false;
    if (findTask(Index, T, Stolen)) {
      execute(Index, std::move(T), Stolen);
      continue;
    }
    // Nothing anywhere: rescan while holding the sleep mutex, so an
    // enqueue racing with us either lands inside this rescan or blocks on
    // the mutex until wait() has parked us — the wakeup cannot be lost.
    std::unique_lock<std::mutex> Lock(SleepMutex);
    if (findTask(Index, T, Stolen)) {
      Lock.unlock();
      execute(Index, std::move(T), Stolen);
      continue;
    }
    if (Stopping.load(std::memory_order_relaxed))
      return; // Drained: under Stopping every queued task is stealable,
              // so an empty scan means the queues really are empty. A
              // task still executing elsewhere may post more, but its
              // worker rescans after finishing and drains its own posts.
    Lane &Mine = Lanes[Index];
    Mine.Asleep = true;
    Mine.SleepCv.wait(Lock);
    Mine.Asleep = false; // Wakers also clear it; spurious wakes rescan.
  }
}

std::vector<ThreadPool::WorkerQueueStats>
ThreadPool::workerQueueStats() const {
  std::vector<WorkerQueueStats> Stats(NumLanes);
  for (unsigned I = 0; I != NumLanes; ++I) {
    const Lane &L = Lanes[I];
    Stats[I].TasksRun = L.TasksRun.load(std::memory_order_relaxed);
    Stats[I].Steals = L.Steals.load(std::memory_order_relaxed);
    Stats[I].AffinityHits = L.AffinityHits.load(std::memory_order_relaxed);
    Stats[I].BusySeconds =
        static_cast<double>(L.BusyNanos.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return Stats;
}

uint64_t pmaf::support::detail::nextWorkerLocalId() {
  // Starts at 1 so 0 can never collide with a default-initialized key.
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

namespace {
/// The shared pool is intentionally leaked: worker threads idle until
/// process exit, and tearing them down from static destructors races with
/// other static teardown.
ThreadPool *SharedPool = nullptr;
unsigned SharedN = 1;
} // namespace

ThreadPool *pmaf::support::sharedPool() { return SharedPool; }

unsigned pmaf::support::sharedParallelism() { return SharedN; }

bool pmaf::support::setSharedParallelism(unsigned N) {
  return setSharedParallelism(N, nullptr);
}

bool pmaf::support::setSharedParallelism(unsigned N,
                                         std::string *WhyRefused) {
  if (N == 0)
    N = ThreadPool::hardwareConcurrency();
  if (N == SharedN)
    return true;
  if (SharedPool && !SharedPool->idle()) {
    // A solve (or a parallelFor caller that just woke) may still hold the
    // pool pointer; give completion callbacks a short grace to unwind,
    // then refuse rather than delete a pool other threads are using.
    for (int Tries = 0; Tries != 50 && !SharedPool->idle(); ++Tries)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!SharedPool->idle()) {
      std::string Why =
          "the shared pool has " +
          std::to_string(SharedPool->inFlightTasks()) +
          " task(s) in flight; retry when the pool is idle";
      if (WhyRefused)
        *WhyRefused = std::move(Why);
      else
        std::fprintf(stderr, "pmaf: setSharedParallelism(%u) refused: %s\n",
                     N, Why.c_str());
      return false;
    }
  }
  delete SharedPool; // Joins the (now idle) workers.
  SharedPool = nullptr;
  SharedN = N > 1 ? N : 1;
  if (SharedN > 1)
    SharedPool = new ThreadPool(SharedN);
  return true;
}

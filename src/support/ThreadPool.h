//===- support/ThreadPool.h - Locality-aware work-stealing pool -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size work-stealing thread pool for the parallel analysis
/// engine: task submission with futures, a deadlock-free `parallelFor`,
/// and — the locality layer — per-worker deques with component→worker
/// affinity so schedulers can keep a worker's thread-local caches (the
/// Polyhedron conversion memos, the ADD arenas) hot across resubmissions.
///
/// Queueing model (Chase–Lev-style discipline over mutex-guarded deques):
///
///  * every worker owns a bounded deque; the owner pops from the *front*
///    (submission order), thieves steal from the *back*;
///  * `post`/`submit` go to a shared injection queue any worker may take
///    from — the classic FIFO path `parallelFor` and anonymous tasks
///    use;
///  * `postTo(W, Fn)`/`submitTo(W, Fn)` pin a task to worker W's deque.
///    Pinned (sticky) tasks are skipped by thieves until the owning
///    worker is *saturated* (its deque holds >= SaturationDepth tasks) —
///    a lone pinned task waits for its owner, a backlog spills to idle
///    workers. During shutdown draining, everything is stealable.
///  * a worker with an empty deque takes from the injection queue, then
///    scans the other deques for stealable work, then sleeps.
///
/// Design constraints, in order (unchanged from the single-queue pool):
///
///  * **No waiting inside workers.** Pool tasks (per-SCC stabilization,
///    transformer precompilation, matrix row blocks) never block on other
///    pool tasks; completion is signalled through atomics, so the pool
///    cannot deadlock however tasks are nested.
///  * **Caller participation.** `parallelFor` lets the calling thread claim
///    chunks alongside the workers (work is parcelled out by an atomic
///    cursor, so every index is executed exactly once, by exactly one
///    thread). A pool of size N therefore provides N-way parallelism with
///    the caller counted in, and a loop submitted to a busy or size-1 pool
///    degrades gracefully to sequential execution on the caller.
///  * **Exception transparency.** `submit`/`submitTo` transport exceptions
///    through the returned future; `parallelFor` rethrows the first
///    exception a chunk raised after the loop has quiesced.
///
/// Per-worker accounting (busy time, tasks run, steals, affinity hits) is
/// tallied so the solver can report thread utilization and queueing
/// behaviour (core::SolverStats::PoolWorkers).
///
/// A process-wide pool (`sharedPool`/`setSharedParallelism`) serves
/// libraries that cannot thread a pool handle through their interface —
/// notably the dense matrix kernels of linalg/Matrix.cpp. It defaults to
/// size 1 (no threads, `sharedPool()` returns nullptr) so sequential
/// builds pay nothing; `--jobs N` CLIs call `setSharedParallelism(N)`.
///
/// `WorkerLocal<T>` is the per-worker arena hook the parallel ADD-backed
/// BI domain builds on: an owner of lazily created per-thread state that
/// works with any mix of pool workers and caller threads (parallelFor's
/// caller lane included), and whose slots the owner can drop between
/// parallel phases.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_THREADPOOL_H
#define PMAF_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace pmaf {
namespace support {

/// A fixed-size pool of worker threads with per-worker stealing deques
/// plus a shared injection queue.
class ThreadPool {
public:
  /// Sentinel "not a worker of this pool" index (currentWorker()) and
  /// "no owner" task tag.
  static constexpr unsigned NoWorker = ~0u;

  /// Pinned tasks become stealable once their owner's deque holds at
  /// least this many tasks (the owner is saturated: it is busy and has a
  /// backlog another worker can shorten).
  static constexpr size_t SaturationDepth = 2;

  /// Per-worker deques are bounded; a `postTo` beyond the bound spills to
  /// the shared injection queue (keeping its owner tag, so the owner
  /// running it still counts as an affinity hit).
  static constexpr size_t DequeBound = 1024;

  /// Spawns \p Threads workers (clamped to at least 1). Workers idle on a
  /// condition variable until tasks arrive.
  explicit ThreadPool(unsigned Threads);

  /// Drains nothing: outstanding tasks finish, queued tasks still run
  /// (pinned tasks become stealable while draining), then the workers
  /// join.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return NumLanes; }

  /// `std::thread::hardware_concurrency`, clamped to at least 1.
  static unsigned hardwareConcurrency() {
    unsigned N = std::thread::hardware_concurrency();
    return N ? N : 1;
  }

  /// Index of the calling thread within this pool, or NoWorker when the
  /// caller is not one of this pool's workers (e.g. the solve
  /// coordinator, or a worker of a different pool).
  unsigned currentWorker() const;

  /// Enqueues \p Fn on the shared injection queue; the future transports
  /// its result or exception. Safe to call from within a pool task (the
  /// queues never block submitters).
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F &&Fn) {
    using R = std::invoke_result_t<F>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Result = Task->get_future();
    post([Task] { (*Task)(); });
    return Result;
  }

  /// submit() with worker affinity: the task lands on worker
  /// `Worker % size()`'s deque and is preferentially run there.
  template <typename F>
  std::future<std::invoke_result_t<F>> submitTo(unsigned Worker, F &&Fn) {
    using R = std::invoke_result_t<F>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Result = Task->get_future();
    postTo(Worker, [Task] { (*Task)(); });
    return Result;
  }

  /// Fire-and-forget submission to the shared injection queue (the
  /// parallel scheduler tracks completion itself through atomics;
  /// skipping the future skips an allocation).
  void post(std::function<void()> Fn);

  /// Fire-and-forget submission pinned to worker `Worker % size()`: the
  /// task goes to the back of that worker's deque, the owner pops it in
  /// submission order from the front, and thieves may take it from the
  /// back only once the owner is saturated (SaturationDepth) — the
  /// affinity primitive the per-SCC scheduler uses to keep per-thread
  /// conversion memos hot.
  void postTo(unsigned Worker, std::function<void()> Fn);

  /// Runs Fn(I) for every I in [Begin, End) across the workers and the
  /// calling thread; every index executes exactly once. Returns when all
  /// indices have finished; rethrows the first chunk exception.
  template <typename F>
  void parallelFor(size_t Begin, size_t End, F &&Fn) {
    parallelForChunks(Begin, End,
                      [&Fn](size_t ChunkBegin, size_t ChunkEnd) {
                        for (size_t I = ChunkBegin; I != ChunkEnd; ++I)
                          Fn(I);
                      });
  }

  /// Chunked variant: Fn(ChunkBegin, ChunkEnd) over a partition of
  /// [Begin, End) into contiguous chunks — the shape the blocked matrix
  /// kernels want (one chunk = one row block).
  template <typename F>
  void parallelForChunks(size_t Begin, size_t End, F &&Fn) {
    if (Begin >= End)
      return;
    const size_t N = End - Begin;
    const unsigned Lanes = size() + 1; // workers + caller
    if (Lanes <= 2 || N == 1) {
      Fn(Begin, End);
      return;
    }
    // ~4 chunks per lane balances load without flooding the queue.
    const size_t Chunk = std::max<size_t>(1, N / (4 * Lanes));
    auto State = std::make_shared<LoopState>();
    State->Next.store(Begin, std::memory_order_relaxed);
    State->End = End;
    const unsigned Helpers = static_cast<unsigned>(
        std::min<size_t>(size(), (N + Chunk - 1) / Chunk));
    State->Pending.store(Helpers, std::memory_order_relaxed);
    auto Drain = [State, Chunk, &Fn] {
      size_t I;
      while ((I = State->Next.fetch_add(Chunk,
                                        std::memory_order_relaxed)) <
             State->End) {
        size_t ChunkEnd = std::min(I + Chunk, State->End);
        try {
          Fn(I, ChunkEnd);
        } catch (...) {
          State->recordException(std::current_exception());
          // Poison the cursor so other lanes stop claiming work.
          State->Next.store(State->End, std::memory_order_relaxed);
        }
      }
    };
    for (unsigned H = 0; H != Helpers; ++H)
      post([State, Drain] {
        Drain();
        if (State->Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> Lock(State->DoneMutex);
          State->DoneCv.notify_all();
        }
      });
    Drain(); // The caller is a lane too.
    {
      std::unique_lock<std::mutex> Lock(State->DoneMutex);
      State->DoneCv.wait(Lock, [&State] {
        return State->Pending.load(std::memory_order_acquire) == 0;
      });
    }
    if (State->FirstException)
      std::rethrow_exception(State->FirstException);
  }

  /// Per-worker queueing counters (index = worker number). Approximate:
  /// read without synchronizing against in-flight tasks.
  struct WorkerQueueStats {
    /// Tasks this worker executed (own deque + injection + stolen).
    uint64_t TasksRun = 0;
    /// Tasks this worker took from another worker's deque.
    uint64_t Steals = 0;
    /// Pinned tasks this worker ran as their owner — the affinity
    /// protocol working as intended.
    uint64_t AffinityHits = 0;
    /// Seconds spent executing tasks since construction.
    double BusySeconds = 0.0;

    /// Adds \p Other's counters: summing every worker gives pool totals.
    WorkerQueueStats &operator+=(const WorkerQueueStats &Other) {
      TasksRun += Other.TasksRun;
      Steals += Other.Steals;
      AffinityHits += Other.AffinityHits;
      BusySeconds += Other.BusySeconds;
      return *this;
    }
  };
  std::vector<WorkerQueueStats> workerQueueStats() const;

  /// Tasks enqueued but not yet finished (queued + executing). Approximate
  /// for observers other than the last submitter: a task's completion
  /// callback may still be unwinding when its count drops.
  uint64_t inFlightTasks() const {
    return InFlight.load(std::memory_order_acquire);
  }

  /// True when no task is queued or executing.
  bool idle() const { return inFlightTasks() == 0; }

private:
  struct LoopState {
    std::atomic<size_t> Next{0};
    size_t End = 0;
    std::atomic<unsigned> Pending{0};
    std::mutex DoneMutex;
    std::condition_variable DoneCv;
    std::exception_ptr FirstException;
    std::mutex ExceptionMutex;

    void recordException(std::exception_ptr E) {
      std::lock_guard<std::mutex> Lock(ExceptionMutex);
      if (!FirstException)
        FirstException = E;
    }
  };

  /// A queued task: Owner != NoWorker marks it pinned (sticky) to that
  /// worker's deque.
  struct Task {
    std::function<void()> Fn;
    unsigned Owner = NoWorker;
  };

  /// One worker's deque plus its counters, padded out of false sharing
  /// range of its neighbours.
  struct alignas(64) Lane {
    mutable std::mutex Mutex;
    std::deque<Task> Deque;
    /// This worker's parking spot, plus whether it is parked. Both are
    /// guarded by the pool-wide SleepMutex (NOT by Lane::Mutex): wakeups
    /// are targeted per lane, so an enqueue wakes only the workers that
    /// can actually run the new task instead of thundering the whole
    /// pool awake — on an oversubscribed machine the futile
    /// wake→scan→sleep round trips would otherwise dominate small
    /// solves.
    std::condition_variable SleepCv;
    bool Asleep = false;
    std::atomic<uint64_t> BusyNanos{0};
    std::atomic<uint64_t> TasksRun{0};
    std::atomic<uint64_t> Steals{0};
    std::atomic<uint64_t> AffinityHits{0};
  };

  /// Takes the next task for worker \p Self: own deque front, then the
  /// injection queue, then a steal from the back of another lane.
  bool findTask(unsigned Self, Task &Out, bool &Stolen);
  void execute(unsigned Self, Task T, bool Stolen);
  void workerMain(unsigned Index);
  /// Wakes worker \p Worker if it is parked (a pinned task landed on its
  /// deque — only the owner may run it while unsaturated).
  void wakeWorker(unsigned Worker);
  /// Wakes one parked worker, any of them (an injected task landed, or a
  /// deque crossed the saturation threshold and became stealable).
  void wakeOneSleeper();

  unsigned NumLanes = 0;
  std::unique_ptr<Lane[]> Lanes;
  /// Sleep coordination: workers re-scan under SleepMutex before waiting,
  /// and every enqueue acquires it before notifying, so wakeups cannot be
  /// lost. Stopping flips under the same mutex. The per-lane SleepCv /
  /// Asleep fields are guarded by this mutex too.
  std::mutex SleepMutex;
  std::atomic<bool> Stopping{false};
  mutable std::mutex InjectedMutex;
  std::deque<Task> Injected;
  std::vector<std::thread> Threads;
  /// Enqueued-but-unfinished task count (see inFlightTasks()).
  std::atomic<uint64_t> InFlight{0};
};

namespace detail {
/// Process-unique ids for WorkerLocal sets (never reused, so a stale
/// thread-local cache entry for a destroyed set can never alias a live
/// one).
uint64_t nextWorkerLocalId();
} // namespace detail

/// Owner of lazily created per-thread state: the first `get()` on each
/// thread creates that thread's slot through the supplied factory; later
/// `get()`s on the same thread return the same slot through a
/// thread-local cache (one hash probe, no lock). Slots are owned by the
/// WorkerLocal — they outlive their creating threads (a pool may join its
/// workers while the owner still wants the slots' contents) and die with
/// the set or on `reset()`.
///
/// This is the per-worker arena hook of the parallel analysis engine:
/// AddBiDomain keys its thread-local AddManager arenas off one
/// WorkerLocal per domain instance, and `reset()` between parallel phases
/// drops arenas whose threads (per-solve pool workers) are gone.
///
/// Thread safety: concurrent `get()` calls from distinct threads are
/// safe. `reset()` and destruction require that no thread is concurrently
/// calling `get()` or using a previously returned slot — the engine
/// guarantees that by resetting only after its pools have quiesced.
/// Stale cache entries (set destroyed or reset while a thread's cache
/// still points at a dropped slot) are detected by an epoch stamp and
/// refreshed on the next `get()`.
template <typename T> class WorkerLocal {
public:
  WorkerLocal() : Id(detail::nextWorkerLocalId()) {}
  WorkerLocal(const WorkerLocal &) = delete;
  WorkerLocal &operator=(const WorkerLocal &) = delete;

  /// This thread's slot, created by `Make()` (returning std::unique_ptr<T>)
  /// on first use per (thread, epoch).
  template <typename MakeFn> T &get(MakeFn &&Make) {
    struct CacheEntry {
      uint64_t Epoch = 0;
      T *Slot = nullptr;
    };
    thread_local std::unordered_map<uint64_t, CacheEntry> Cache;
    uint64_t Now = Epoch.load(std::memory_order_acquire);
    CacheEntry &Entry = Cache[Id];
    if (Entry.Slot && Entry.Epoch == Now)
      return *Entry.Slot;
    std::unique_ptr<T> Fresh = Make();
    T *Raw = Fresh.get();
    {
      std::lock_guard<std::mutex> Lock(SlotsMutex);
      Slots.push_back(std::move(Fresh));
      ++Created;
    }
    Entry = {Now, Raw};
    return *Raw;
  }

  /// Drops every slot and invalidates all thread-local caches. Callers
  /// must ensure no thread concurrently holds or requests a slot.
  void reset() {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    Epoch.fetch_add(1, std::memory_order_acq_rel);
    Slots.clear();
  }

  /// Live slots (threads that called get() since the last reset).
  size_t slotCount() const {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    return Slots.size();
  }

  /// Slots created over the set's lifetime (across resets).
  uint64_t createdCount() const {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    return Created;
  }

  /// Visits every live slot under the set's lock; same quiescence
  /// requirement as reset().
  template <typename F> void forEach(F &&Fn) {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    for (auto &Slot : Slots)
      Fn(*Slot);
  }

private:
  uint64_t Id;
  std::atomic<uint64_t> Epoch{0};
  mutable std::mutex SlotsMutex;
  std::vector<std::unique_ptr<T>> Slots;
  uint64_t Created = 0;
};

/// The process-wide pool used by code that cannot accept a pool parameter
/// (the matrix kernels). nullptr until `setSharedParallelism(N)` with
/// N > 1; the final instance is leaked so its idle workers never race
/// static teardown.
ThreadPool *sharedPool();

/// Sets the shared parallelism level. N == 1 disables the shared pool;
/// N == 0 means one worker per hardware thread; N > 1 (re)creates the
/// pool with N workers. Returns false — keeping the existing pool — when
/// the shared pool still has tasks in flight after a short grace period:
/// recreating it out from under a running solve would hand its users a
/// dangling pointer. Not otherwise thread-safe against concurrent
/// sharedPool() users — call it at startup or between solves (the
/// `--jobs` handlers do).
///
/// With \p WhyRefused non-null a refusal is *observable*: the reason is
/// written there (and nothing is printed), so long-lived callers — the
/// pmafd `configure` handler — can report a structured error instead of
/// a success the stats then contradict. With WhyRefused null the refusal
/// is logged to stderr, the historical CLI behavior. Between requests
/// (pool idle) the resize always succeeds.
bool setSharedParallelism(unsigned N);
bool setSharedParallelism(unsigned N, std::string *WhyRefused);

/// The currently configured shared parallelism (1 when disabled).
unsigned sharedParallelism();

} // namespace support
} // namespace pmaf

#endif // PMAF_SUPPORT_THREADPOOL_H

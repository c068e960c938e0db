//===- support/ParallelFor.cpp - One fork-join loop over threads ----------===//

#include "support/ParallelFor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

void pmaf::support::parallelFor(unsigned Workers, size_t N,
                                const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  std::mutex ExceptionMutex;
  std::exception_ptr FirstException;
  auto Lane = [&] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;) {
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ExceptionMutex);
        if (!FirstException)
          FirstException = std::current_exception();
      }
    }
  };
  const size_t Lanes = std::min<size_t>(std::max(Workers, 1u), N);
  std::vector<std::thread> Helpers;
  Helpers.reserve(Lanes ? Lanes - 1 : 0);
  for (size_t L = 1; L < Lanes; ++L)
    Helpers.emplace_back(Lane);
  Lane();
  for (std::thread &T : Helpers)
    T.join();
  if (FirstException)
    std::rethrow_exception(FirstException);
}

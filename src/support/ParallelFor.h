//===- support/ParallelFor.h - One fork-join loop over threads --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one concurrency primitive of the project: a fork-join loop over an
/// index range. `pmaf verify-corpus` fans its files out through it; every
/// solve runs on the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_PARALLELFOR_H
#define PMAF_SUPPORT_PARALLELFOR_H

#include <cstddef>
#include <functional>

namespace pmaf {
namespace support {

/// Runs Fn(I) exactly once for every I in [0, N) on min(Workers, N)
/// lanes: the calling thread is one lane, the others are threads started
/// for this call. Lanes claim indices from a shared cursor, so which lane
/// runs an index is unspecified. Workers <= 1 runs the loop inline and
/// starts no thread. An index that throws does not stop the others; once
/// every thread has joined, the first exception caught is rethrown.
void parallelFor(unsigned Workers, size_t N,
                 const std::function<void(size_t)> &Fn);

} // namespace support
} // namespace pmaf

#endif // PMAF_SUPPORT_PARALLELFOR_H

//===- core/Instrumentation.h - The solver's stats record -------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one solve did, in one record (SolverStats), and its two
/// renderings: the `key=value` text of `pmaf --stats` and the JSON object
/// of pmafd's `analyze` replies and the bench harness's `--json` records.
/// Both renderers walk the same field table (visitStatsFields), so a
/// counter added there shows up in every channel at once.
///
/// SolverInstrumentation sums the headline counters over many solves; the
/// solver adds each finished solve's record to it once.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_INSTRUMENTATION_H
#define PMAF_CORE_INSTRUMENTATION_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace pmaf {
namespace core {

/// Counters of the numeric-domain layer under an abstract domain built on
/// the poly backends (Polyhedron, Zones, Intervals, LadderValue). Solvers
/// over domains that report them (ReportsNumericStats, core/Domain.h)
/// deliver per-solve deltas of the monotone counters and current
/// high-water marks for the peaks.
struct NumericLayerStats {
  /// Chernikova (double-description) minimization passes — the
  /// conversion cost the ladder exists to avoid.
  uint64_t MinimizationCalls = 0;
  /// Constraint⇄generator conversion memo traffic inside Polyhedron.
  uint64_t ConversionCacheHits = 0;
  uint64_t ConversionCacheMisses = 0;
  /// The subset of ConversionCacheHits served by the process-wide sharded
  /// L2 (the thread-local L1 missed: a fresh pmafd connection thread, or
  /// conversions inherited from an earlier solve).
  uint64_t SharedCacheHits = 0;
  /// Memo entries the bounded caches dropped at their caps.
  uint64_t CacheEvictions = 0;
  /// Times a ladder block climbed a rung (box → zone → poly).
  uint64_t Escalations = 0;
  /// Widest intermediate generator matrix any minimization built.
  unsigned PeakGeneratorRows = 0;
  /// Widest variable pack a ladder operation coupled.
  unsigned MaxPackWidth = 0;
};

/// Everything one solve reports.
struct SolverStats {
  /// False iff the update budget (MaxUpdates) ran out first, in which
  /// case Values is a mid-iteration snapshot, not a post-fixpoint —
  /// callers must not report it as the analysis answer.
  bool Converged = true;
  uint64_t NodeUpdates = 0;
  /// The node updates that moved the node's value.
  uint64_t ValueChanges = 0;
  uint64_t WideningApplications = 0;
  /// WTO components stabilized (the recursive scheduler).
  uint64_t ComponentStabilizations = 0;
  /// Wall-clock seconds of the whole solve.
  double SolveSeconds = 0.0;
  /// Dom.interpret invocations during this solve. At most one per `seq`
  /// edge — the interpret-cache invariant — and zero for every edge whose
  /// transformer an earlier solve over the same CompiledProgram already
  /// compiled.
  uint64_t InterpretCalls = 0;
  /// Transformer-cache hits during this solve.
  uint64_t InterpretCacheHits = 0;
  /// Numeric-layer counters for domains that report them (all-zero
  /// otherwise): per-solve deltas of the monotone counters, current
  /// high-water marks for the peaks (reset via poly::resetNumericPeaks).
  NumericLayerStats Numeric;
  /// Warm-start accounting (zero on cold solves). NodesReused counts the
  /// frozen nodes whose prior values were kept verbatim; SccsSkipped /
  /// SccsResolved partition the WTO's components (at every nesting depth)
  /// into all-clean ones — stabilized in one trivial pass without a
  /// single domain operation — and ones containing dirty nodes.
  uint64_t NodesReused = 0;
  uint64_t SccsSkipped = 0;
  uint64_t SccsResolved = 0;
};

/// The field table: calls Field(Group, Key, Value) for every scalar
/// counter of \p S, in rendering order. Value is a bool, an integer
/// count, or a double of seconds. The text renderer prints one line per
/// Group; the JSON renderer ignores groups.
template <typename F> void visitStatsFields(const SolverStats &S, F &&Field) {
  const NumericLayerStats &N = S.Numeric;
  Field("solve", "converged", S.Converged);
  Field("solve", "node_updates", S.NodeUpdates);
  Field("solve", "value_changes", S.ValueChanges);
  Field("solve", "widenings", S.WideningApplications);
  Field("solve", "components_stabilized", S.ComponentStabilizations);
  Field("solve", "solve_seconds", S.SolveSeconds);
  Field("interpret", "interpret_calls", S.InterpretCalls);
  Field("interpret", "interpret_cache_hits", S.InterpretCacheHits);
  Field("numeric", "chernikova_calls", N.MinimizationCalls);
  Field("numeric", "peak_generator_rows", uint64_t(N.PeakGeneratorRows));
  Field("numeric", "conversion_cache_hits", N.ConversionCacheHits);
  Field("numeric", "conversion_cache_misses", N.ConversionCacheMisses);
  Field("numeric", "shared_l2_hits", N.SharedCacheHits);
  Field("numeric", "cache_evictions", N.CacheEvictions);
  Field("numeric", "escalations", N.Escalations);
  Field("numeric", "max_pack_width", uint64_t(N.MaxPackWidth));
  Field("warm start", "nodes_reused", S.NodesReused);
  Field("warm start", "sccs_skipped", S.SccsSkipped);
  Field("warm start", "sccs_resolved", S.SccsResolved);
}

namespace detail {
/// Appends one table value: counts in decimal, seconds with nine
/// decimals, flags as true/false.
inline void appendStatsValue(std::string &Out, uint64_t V) {
  Out += std::to_string(V);
}
inline void appendStatsValue(std::string &Out, double V) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%.9f", V);
  Out += Buffer;
}
inline void appendStatsValue(std::string &Out, bool V) {
  Out += V ? "true" : "false";
}
} // namespace detail

/// The text rendering (`pmaf --stats`): one `; <group>: key=value ...`
/// line per table group.
inline std::string statsText(const SolverStats &S) {
  std::string Out;
  std::string_view Group;
  visitStatsFields(S, [&](std::string_view G, const char *Key, auto Value) {
    if (G != Group) {
      Out += Group.empty() ? "; " : "\n; ";
      Out += G;
      Out += ':';
      Group = G;
    }
    Out += ' ';
    Out += Key;
    Out += '=';
    detail::appendStatsValue(Out, Value);
  });
  Out += '\n';
  return Out;
}

/// The JSON rendering (pmafd `analyze` replies, bench `--json` records):
/// one flat object of the table's fields.
inline std::string statsJson(const SolverStats &S) {
  std::string Out = "{";
  visitStatsFields(S, [&Out](const char *, const char *Key, auto Value) {
    if (Out.back() != '{')
      Out += ", ";
    Out += '"';
    Out += Key;
    Out += "\": ";
    detail::appendStatsValue(Out, Value);
  });
  Out += '}';
  return Out;
}

/// Sums the headline counters over many solves: solve(..., &Counters)
/// adds each finished solve's record once, at its end. Atomic, so solves
/// on several threads may share one accumulator.
struct SolverInstrumentation {
  std::atomic<uint64_t> Solves{0};
  std::atomic<uint64_t> NodeUpdates{0};
  std::atomic<uint64_t> WideningApplications{0};
  std::atomic<uint64_t> InterpretCalls{0};
  std::atomic<uint64_t> InterpretCacheHits{0};
  std::atomic<bool> LastConverged{true};

  void add(const SolverStats &S) {
    Solves.fetch_add(1, std::memory_order_relaxed);
    NodeUpdates.fetch_add(S.NodeUpdates, std::memory_order_relaxed);
    WideningApplications.fetch_add(S.WideningApplications,
                                   std::memory_order_relaxed);
    InterpretCalls.fetch_add(S.InterpretCalls, std::memory_order_relaxed);
    InterpretCacheHits.fetch_add(S.InterpretCacheHits,
                                 std::memory_order_relaxed);
    LastConverged.store(S.Converged, std::memory_order_relaxed);
  }
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_INSTRUMENTATION_H

//===- server/Session.h - Resident analysis sessions ------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session is one resident program under analysis: the parsed AST, the
/// lowered hyper-graph, the WTO, the transformer cache, and
/// the last fixpoint all stay in memory between requests, so repeated
/// `analyze` calls pay nothing for what has not changed.
///
/// The incremental contract (`edit`): PMAF interpretation is
/// compositional — per-edge transformers and per-procedure summaries are
/// independent algebra elements — so an edit to one procedure body only
/// invalidates (a) the transformer slots of that procedure's own edges
/// and (b) the dependence-closure of its nodes (its transitive callers:
/// every node whose equation can observe the change). Everything else is
/// *adopted*: transformers of unchanged procedures are seeded into the
/// rebuilt CompiledProgram (core::CompiledProgram::seedTransformer), and
/// the prior fixpoint warm-starts the next solve (core::WarmStart) with
/// only the dirty closure re-iterated from bottom. The result is
/// bit-identical to a from-scratch solve — ServerTest proves it per
/// procedure across domains — because clean nodes read
/// only clean nodes (the closure is dependence-closed) and dirty nodes
/// restart with cold widening histories against clean inputs already at
/// their (identical) fixpoints.
///
/// Edits that change the variable table, or add/remove/rename
/// procedures, fall back to a full rebuild: the mapping of node/edge ids
/// and domain values across graphs is only defined when the state space
/// and the procedure skeleton are unchanged.
///
/// Sessions are internally locked: one analyze/edit runs at a time per
/// session, while different sessions proceed concurrently (each on its
/// caller's thread; a solve itself is sequential).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SERVER_SESSION_H
#define PMAF_SERVER_SESSION_H

#include "checks/Checker.h"
#include "core/Solver.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace server {

/// What an incremental solve reused from the resident state — the
/// headline counters of every `analyze` reply.
struct IncrementalReuse {
  /// True when the solve warm-started from a prior fixpoint (false for
  /// the first solve after load and for forced-cold solves).
  bool Incremental = false;
  /// Transformer slots adopted from the pre-edit compiled program vs the
  /// program's total `seq`-edge count.
  uint64_t TransformersReused = 0;
  uint64_t TransformersTotal = 0;
  /// WTO components skipped outright (all member nodes clean) vs
  /// re-stabilized.
  uint64_t SccsSkipped = 0;
  uint64_t SccsResolved = 0;
  /// Nodes whose prior fixpoint value was kept verbatim.
  uint64_t NodesReused = 0;
  uint64_t NodesTotal = 0;
};

/// Solver knobs for one analyze. Unset fields keep the per-domain presets
/// (bi solves without widening, mdp with a long widening delay) exactly as
/// the CLI's CliSolverConfig overlay does.
struct AnalyzeRequest {
  std::optional<core::IterationStrategy> Strategy;
  std::optional<unsigned> WideningDelay;
  std::optional<uint64_t> MaxUpdates;
  /// Read by nothing; kept only because perfbench/helper.cpp assigns it.
  std::optional<bool> Affinity;
  /// Discard all resident artifacts first and solve from scratch — the
  /// reference point incremental replies are measured (and tested)
  /// against.
  bool Cold = false;
  /// Fail unproved/skipped assertions, mirroring the CLI's --werror.
  bool Werror = false;
};

struct AnalyzeReply {
  bool Ok = false;
  std::string ErrorCode; ///< Stable code when !Ok.
  std::string Error;
  std::string Domain;
  bool Converged = true;
  /// CLI-compatible outcome: 0 converged and checks pass, 1 failed
  /// checks, 3 budget exhausted.
  int Exit = 0;
  /// FNV-1a over every node's rendered fixpoint value plus the checks
  /// JSON: two solves agree on this iff they computed the same
  /// annotation and verdicts.
  std::string Fingerprint;
  checks::ChecksDb Checks;
  std::string ChecksJson;
  /// Structured check diagnostics (DiagnosticEngine::renderJson).
  std::string DiagnosticsJson;
  core::SolverStats Stats;
  IncrementalReuse Reuse;
  /// Wall-clock seconds of the solve itself (= Stats.SolveSeconds).
  double SolveSeconds = 0.0;
};

struct EditReply {
  bool Ok = false;
  std::string ErrorCode;
  std::string Error;
  /// True when the edit could not be applied incrementally (variable
  /// table or procedure skeleton changed) and the session rebuilt from
  /// scratch.
  bool FullRebuild = false;
  std::vector<std::string> ChangedProcs;
  /// Size of the dependence closure that the next analyze re-solves.
  uint64_t DirtyNodes = 0;
  uint64_t TotalNodes = 0;
};

struct LoadReply {
  bool Ok = false;
  std::string ErrorCode;
  std::string Error;
  std::string Domain; ///< Resolved domain (after auto-detection).
  unsigned Procs = 0;
  unsigned Nodes = 0;
  std::string DiagnosticsJson; ///< Lint/parse diagnostics, JSON array.
};

/// One resident program plus everything derived from it. Thread-safe:
/// every public method takes the session lock.
class Session {
public:
  Session();
  ~Session();

  /// Parses, lints, and lowers \p Source, replacing any prior program.
  /// \p DomainName is "auto" (detect: real vars -> leia, rewards -> mdp,
  /// else bi), "bi", "mdp", or "leia"; \p Numeric selects the LEIA
  /// backend.
  LoadReply load(const std::string &Source, const std::string &DomainName,
                 core::NumericBackend Numeric);

  /// Solves the resident program (warm-started when a fixpoint is
  /// resident and the request is not Cold) and checks assertions.
  AnalyzeReply analyze(const AnalyzeRequest &Req);

  /// Replaces the program source, invalidating incrementally when the
  /// edit is confined to procedure bodies.
  EditReply edit(const std::string &NewSource);

  /// Session counters for the `stats` command.
  struct Counters {
    uint64_t Loads = 0;
    uint64_t Edits = 0;
    uint64_t FullRebuilds = 0;
    uint64_t Solves = 0;
    uint64_t IncrementalSolves = 0;
  };
  Counters counters() const;
  std::string domainName() const;

private:
  class EngineBase;
  template <typename Box> class Engine;

  mutable std::mutex Mu;
  std::unique_ptr<EngineBase> TheEngine;
  std::string Domain;
  core::NumericBackend Numeric = core::NumericBackend::Ladder;
  Counters TheCounters;
};

} // namespace server
} // namespace pmaf

#endif // PMAF_SERVER_SESSION_H

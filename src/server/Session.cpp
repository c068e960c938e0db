//===- server/Session.cpp - Resident analysis sessions --------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"

#include "analysis/Lint.h"
#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/CompiledProgram.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <utility>

using namespace pmaf;
using namespace pmaf::server;

namespace {

/// Domain auto-detection, mirroring the CLI: real variables -> leia,
/// reward statements -> mdp, else bi.
bool stmtHasReward(const lang::Stmt &S) {
  if (S.kind() == lang::Stmt::Kind::Reward)
    return true;
  switch (S.kind()) {
  case lang::Stmt::Kind::Block:
    for (const lang::Stmt::Ptr &Child : S.stmts())
      if (stmtHasReward(*Child))
        return true;
    return false;
  case lang::Stmt::Kind::If:
    return stmtHasReward(S.thenStmt()) ||
           (S.elseStmt() && stmtHasReward(*S.elseStmt()));
  case lang::Stmt::Kind::While:
    return stmtHasReward(S.body());
  default:
    return false;
  }
}

std::string detectDomainName(const lang::Program &Prog) {
  for (const lang::VarInfo &V : Prog.Vars)
    if (V.IsReal)
      return "leia";
  for (const lang::Procedure &P : Prog.Procs)
    if (P.Body && stmtHasReward(*P.Body))
      return "mdp";
  return "bi";
}

analysis::TargetDomain targetFromName(const std::string &Name) {
  if (Name == "leia")
    return analysis::TargetDomain::Leia;
  if (Name == "bi")
    return analysis::TargetDomain::Bi;
  if (Name == "mdp")
    return analysis::TargetDomain::Mdp;
  return analysis::TargetDomain::None;
}

/// Per-node contiguous ranges [begin, end) of each procedure's nodes.
/// The lowering allocates every procedure's nodes in one contiguous,
/// deterministic run, so unchanged procedures map across graphs by a
/// constant offset; returns nullopt if a graph ever violates that layout
/// (the caller then falls back to a full rebuild rather than guessing).
std::optional<std::vector<std::pair<unsigned, unsigned>>>
procNodeRanges(const cfg::ProgramGraph &G) {
  std::vector<std::pair<unsigned, unsigned>> Ranges(G.numProcs(), {0, 0});
  std::vector<char> Seen(G.numProcs(), 0);
  const unsigned N = G.numNodes();
  unsigned V = 0;
  while (V != N) {
    const unsigned P = G.procOf(V);
    if (P >= G.numProcs() || Seen[P])
      return std::nullopt;
    Seen[P] = 1;
    const unsigned Begin = V;
    while (V != N && G.procOf(V) == P)
      ++V;
    Ranges[P] = {Begin, V};
  }
  for (unsigned P = 0; P != G.numProcs(); ++P)
    if (!Seen[P])
      return std::nullopt;
  return Ranges;
}

uint64_t countSeqEdges(const cfg::ProgramGraph &G) {
  uint64_t N = 0;
  for (const cfg::HyperEdge &E : G.edges())
    if (E.Ctrl.TheKind == cfg::ControlAction::Kind::Seq)
      ++N;
  return N;
}

std::string fnvFingerprint(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)H);
  return Buf;
}

/// Domain "boxes": one per analyzable domain, bundling construction, the
/// CLI-matching solver preset, and the assertion checker. Engine<Box> is
/// instantiated over these.
struct BiBox {
  using DomainT = domains::BiDomain;
  explicit BiBox(const lang::Program &P) : Space(P), Dom(Space) {}
  DomainT &domain() { return Dom; }
  static void preset(core::SolverOptions &O) { O.UseWidening = false; }
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<typename DomainT::Value> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkBiSummaries(
        Space, G, [&](unsigned N) { return V[N]; }, O);
  }
  domains::BoolStateSpace Space;
  domains::BiDomain Dom;
};

struct MdpBox {
  using DomainT = domains::MdpDomain;
  explicit MdpBox(const lang::Program &) {}
  DomainT &domain() { return Dom; }
  static void preset(core::SolverOptions &O) { O.WideningDelay = 10000; }
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<double> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkMdp(G, V, O);
  }
  domains::MdpDomain Dom;
};

template <typename NumV> struct LeiaBox {
  using DomainT = domains::LeiaDomainT<NumV>;
  explicit LeiaBox(const lang::Program &P) : Dom(P) {}
  DomainT &domain() { return Dom; }
  static void preset(core::SolverOptions &) {}
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<typename DomainT::Value> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkLeia(Dom, G, V, O);
  }
  DomainT Dom;
};

} // namespace

//===----------------------------------------------------------------------===//
// Engine: the domain-typed resident state
//===----------------------------------------------------------------------===//

class Session::EngineBase {
public:
  virtual ~EngineBase() = default;
  virtual AnalyzeReply analyze(const AnalyzeRequest &Req,
                               const std::string &DomainName) = 0;
  /// Applies a body-only edit (ChangedProcs indexes into the new
  /// program's procedures); falls back to reload() when node mapping is
  /// not possible, reporting Reply.FullRebuild.
  virtual void applyEdit(std::unique_ptr<lang::Program> NewProg,
                         const std::string &NewSource,
                         const std::vector<unsigned> &ChangedProcs,
                         EditReply &Reply) = 0;
  virtual void reload(std::unique_ptr<lang::Program> NewProg,
                      std::string NewSource) = 0;
  virtual const lang::Program &program() const = 0;
  virtual unsigned numNodes() const = 0;
};

template <typename Box> class Session::Engine : public Session::EngineBase {
  using D = typename Box::DomainT;
  using Value = typename D::Value;

public:
  Engine(std::unique_ptr<lang::Program> P, std::string Source) {
    reload(std::move(P), std::move(Source));
  }

  void reload(std::unique_ptr<lang::Program> NewProg,
              std::string NewSource) override {
    // The compiled program references the box's domain, which (for BI)
    // references the state space, which references the graph's program:
    // tear down strictly inside-out before rebuilding.
    Compiled.reset();
    TheBox.reset();
    Graph.reset();
    Prog = std::move(NewProg);
    SourceText = std::move(NewSource);
    Graph = std::make_unique<cfg::ProgramGraph>(cfg::ProgramGraph::build(*Prog));
    TheBox = std::make_unique<Box>(*Prog);
    Compiled = std::make_unique<core::CompiledProgram<D>>(*Graph, TheBox->domain());
    LastValues.clear();
    HaveFixpoint = false;
    WarmReady = false;
    Dirty.assign(Graph->numNodes(), 1);
  }

  const lang::Program &program() const override { return *Prog; }
  unsigned numNodes() const override { return Graph->numNodes(); }

  void applyEdit(std::unique_ptr<lang::Program> NewProg,
                 const std::string &NewSource,
                 const std::vector<unsigned> &ChangedProcs,
                 EditReply &Reply) override {
    auto NewGraph =
        std::make_unique<cfg::ProgramGraph>(cfg::ProgramGraph::build(*NewProg));
    const auto OldRanges = procNodeRanges(*Graph);
    const auto NewRanges = procNodeRanges(*NewGraph);
    const unsigned NumProcs = NewGraph->numProcs();
    std::vector<char> Changed(NumProcs, 0);
    for (unsigned P : ChangedProcs)
      if (P < NumProcs)
        Changed[P] = 1;
    bool Mappable =
        OldRanges && NewRanges && Graph->numProcs() == NumProcs;
    if (Mappable)
      for (unsigned P = 0; P != NumProcs; ++P)
        if (!Changed[P] &&
            (*OldRanges)[P].second - (*OldRanges)[P].first !=
                (*NewRanges)[P].second - (*NewRanges)[P].first) {
          Mappable = false;
          break;
        }
    if (!Mappable) {
      reload(std::move(NewProg), NewSource);
      Reply.FullRebuild = true;
      Reply.DirtyNodes = Graph->numNodes();
      Reply.TotalNodes = Graph->numNodes();
      return;
    }

    auto NewBox = std::make_unique<Box>(*NewProg);
    auto NewCompiled =
        std::make_unique<core::CompiledProgram<D>>(*NewGraph, NewBox->domain());

    // Adopt what the edit cannot have touched: per-edge transformers and
    // (when a converged fixpoint is resident) per-node values of every
    // unchanged procedure, remapped by the per-procedure node offset.
    const bool CarryValues =
        HaveFixpoint && LastValues.size() == Graph->numNodes();
    std::vector<Value> NewValues;
    if (CarryValues)
      NewValues.assign(NewGraph->numNodes(), NewBox->domain().bottom());
    std::vector<unsigned> DirtySeeds;
    for (unsigned P = 0; P != NumProcs; ++P) {
      const auto [NewBegin, NewEnd] = (*NewRanges)[P];
      if (Changed[P]) {
        for (unsigned V = NewBegin; V != NewEnd; ++V)
          DirtySeeds.push_back(V);
        continue;
      }
      const unsigned OldBegin = (*OldRanges)[P].first;
      for (unsigned I = 0; I != NewEnd - NewBegin; ++I) {
        const unsigned OldV = OldBegin + I;
        const unsigned NewV = NewBegin + I;
        if (CarryValues)
          NewValues[NewV] = LastValues[OldV];
        const int OldE = Graph->outgoingIndex(OldV);
        const int NewE = NewGraph->outgoingIndex(NewV);
        if (OldE < 0 || NewE < 0)
          continue;
        if (Graph->edges()[OldE].Ctrl.TheKind !=
                cfg::ControlAction::Kind::Seq ||
            NewGraph->edges()[NewE].Ctrl.TheKind !=
                cfg::ControlAction::Kind::Seq)
          continue;
        if (const Value *T =
                Compiled->peekTransformer(static_cast<unsigned>(OldE)))
          NewCompiled->seedTransformer(static_cast<unsigned>(NewE), *T);
      }
    }
    // Everything that can observe the changed bodies — their own nodes
    // plus all transitive dependents (callers) — re-solves from bottom;
    // the rest of the fixpoint is provably unchanged.
    Dirty = cfg::reachableFrom(NewCompiled->dependents(), DirtySeeds);
    WarmReady = CarryValues;
    if (CarryValues) {
      LastValues = std::move(NewValues);
    } else {
      LastValues.clear();
      HaveFixpoint = false;
    }
    Compiled = std::move(NewCompiled);
    TheBox = std::move(NewBox);
    Graph = std::move(NewGraph);
    Prog = std::move(NewProg);
    SourceText = NewSource;

    uint64_t DirtyCount = 0;
    for (char C : Dirty)
      DirtyCount += C != 0;
    Reply.DirtyNodes = DirtyCount;
    Reply.TotalNodes = Graph->numNodes();
  }

  AnalyzeReply analyze(const AnalyzeRequest &Req,
                       const std::string &DomainName) override {
    AnalyzeReply Reply;
    Reply.Domain = DomainName;
    if (Req.Cold) {
      // Forget every resident artifact (fixpoint, transformer cache) but
      // keep the program: the next solve is a true from-scratch baseline.
      auto KeepProg = std::move(Prog);
      auto KeepSource = std::move(SourceText);
      reload(std::move(KeepProg), std::move(KeepSource));
    }
    core::SolverOptions Opts;
    Box::preset(Opts);
    if (Req.Strategy)
      Opts.Strategy = *Req.Strategy;
    if (Req.WideningDelay)
      Opts.WideningDelay = *Req.WideningDelay;
    if (Req.MaxUpdates)
      Opts.MaxUpdates = *Req.MaxUpdates;

    const unsigned NumNodes = Graph->numNodes();
    core::WarmStart<Value> Warm;
    const bool UseWarm = WarmReady && !Req.Cold && HaveFixpoint &&
                         LastValues.size() == NumNodes &&
                         Dirty.size() == NumNodes;
    if (UseWarm) {
      Warm.Values = LastValues;
      Warm.Dirty = Dirty;
    }
    auto Result =
        core::solve(*Compiled, Opts, nullptr, UseWarm ? &Warm : nullptr);
    Reply.SolveSeconds = Result.Stats.SolveSeconds;
    Reply.Stats = Result.Stats;
    Reply.Converged = Result.Stats.Converged;
    Reply.Reuse.Incremental = UseWarm;
    Reply.Reuse.TransformersReused = Compiled->seededTransformers();
    Reply.Reuse.TransformersTotal = countSeqEdges(*Graph);
    Reply.Reuse.SccsSkipped = Result.Stats.SccsSkipped;
    Reply.Reuse.SccsResolved = Result.Stats.SccsResolved;
    Reply.Reuse.NodesReused = Result.Stats.NodesReused;
    Reply.Reuse.NodesTotal = NumNodes;

    checks::CheckerOptions COpts;
    COpts.Converged = Result.Stats.Converged;
    Reply.Checks = TheBox->check(*Graph, Result.Values, COpts);
    Reply.ChecksJson = Reply.Checks.toJson();

    DiagnosticEngine Diags;
    Diags.setSource("<session>", SourceText);
    Diags.setWarningsAsErrors(Req.Werror);
    checks::reportChecks(Reply.Checks, Diags);
    Diags.sortByLocation();
    Reply.DiagnosticsJson = Diags.renderJson();
    if (Diags.hasErrors())
      Reply.Exit = 1;
    else if (!Result.Stats.Converged)
      Reply.Exit = 3;
    else
      Reply.Exit = 0;

    // FNV-1a over every node's rendered value plus the verdicts: two
    // solves agree on the fingerprint iff they computed the same
    // annotation — the daemon's bit-identity witness.
    uint64_t H = 1469598103934665603ull;
    const auto Mix = [&H](std::string_view S) {
      for (unsigned char C : S) {
        H ^= C;
        H *= 1099511628211ull;
      }
    };
    for (unsigned V = 0; V != NumNodes; ++V) {
      Mix(TheBox->domain().toString(Result.Values[V]));
      Mix("\n");
    }
    Mix(Reply.ChecksJson);
    Reply.Fingerprint = fnvFingerprint(H);

    // Retain the fixpoint: re-analyzing without an edit warm-starts with
    // nothing dirty, and the next edit remaps it across graphs. A
    // budget-exhausted partial result is never reused.
    LastValues = std::move(Result.Values);
    HaveFixpoint = Result.Stats.Converged;
    Dirty.assign(NumNodes, 0);
    WarmReady = HaveFixpoint;
    Reply.Ok = true;
    return Reply;
  }

private:
  std::unique_ptr<lang::Program> Prog;
  std::string SourceText;
  std::unique_ptr<cfg::ProgramGraph> Graph;
  std::unique_ptr<Box> TheBox;
  std::unique_ptr<core::CompiledProgram<D>> Compiled;
  /// Last computed per-node values, indexed by the *current* graph.
  std::vector<Value> LastValues;
  /// LastValues is a converged fixpoint (warm-start eligible).
  bool HaveFixpoint = false;
  /// Dirty mask for the next solve; valid when WarmReady.
  std::vector<char> Dirty;
  bool WarmReady = false;
};

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session() = default;
Session::~Session() = default;

LoadReply Session::load(const std::string &Source,
                        const std::string &DomainName,
                        core::NumericBackend Backend) {
  std::lock_guard<std::mutex> Lock(Mu);
  LoadReply R;
  DiagnosticEngine Diags;
  Diags.setSource("<session>", Source);
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  if (!Parsed) {
    Diags.sortByLocation();
    R.ErrorCode = "parse-error";
    R.Error = "the program does not parse";
    R.DiagnosticsJson = Diags.renderJson();
    return R;
  }
  std::unique_ptr<lang::Program> Prog = std::move(Parsed.Prog);
  const std::string Resolved = (DomainName.empty() || DomainName == "auto")
                                   ? detectDomainName(*Prog)
                                   : DomainName;
  if (Resolved != "bi" && Resolved != "mdp" && Resolved != "leia") {
    R.ErrorCode = "unknown-domain";
    R.Error = "unsupported domain '" + Resolved +
              "' (expected auto, bi, mdp, or leia)";
    return R;
  }
  analysis::LintOptions LOpts;
  LOpts.Domain = targetFromName(Resolved);
  analysis::lintProgram(*Prog, Diags, LOpts);
  Diags.sortByLocation();
  R.DiagnosticsJson = Diags.renderJson();
  if (Diags.hasErrors()) {
    R.ErrorCode = "lint-error";
    R.Error = "the program does not lint";
    return R;
  }

  std::unique_ptr<EngineBase> NewEngine;
  if (Resolved == "bi") {
    NewEngine = std::make_unique<Engine<BiBox>>(std::move(Prog), Source);
  } else if (Resolved == "mdp") {
    NewEngine = std::make_unique<Engine<MdpBox>>(std::move(Prog), Source);
  } else {
    switch (Backend) {
    case core::NumericBackend::Poly:
      NewEngine = std::make_unique<Engine<LeiaBox<poly::Polyhedron>>>(
          std::move(Prog), Source);
      break;
    case core::NumericBackend::Ladder:
      NewEngine = std::make_unique<Engine<LeiaBox<poly::LadderValue>>>(
          std::move(Prog), Source);
      break;
    case core::NumericBackend::Zones:
      NewEngine = std::make_unique<Engine<LeiaBox<poly::Zones>>>(
          std::move(Prog), Source);
      break;
    case core::NumericBackend::Intervals:
      NewEngine = std::make_unique<Engine<LeiaBox<poly::Intervals>>>(
          std::move(Prog), Source);
      break;
    }
  }
  TheEngine = std::move(NewEngine);
  Domain = Resolved;
  Numeric = Backend;
  ++TheCounters.Loads;
  R.Ok = true;
  R.Domain = Resolved;
  R.Procs = static_cast<unsigned>(TheEngine->program().Procs.size());
  R.Nodes = TheEngine->numNodes();
  return R;
}

AnalyzeReply Session::analyze(const AnalyzeRequest &Req) {
  std::lock_guard<std::mutex> Lock(Mu);
  AnalyzeReply R;
  if (!TheEngine) {
    R.ErrorCode = "no-program";
    R.Error = "no program loaded in this session";
    return R;
  }
  R = TheEngine->analyze(Req, Domain);
  ++TheCounters.Solves;
  if (R.Reuse.Incremental)
    ++TheCounters.IncrementalSolves;
  return R;
}

EditReply Session::edit(const std::string &NewSource) {
  std::lock_guard<std::mutex> Lock(Mu);
  EditReply R;
  if (!TheEngine) {
    R.ErrorCode = "no-program";
    R.Error = "no program loaded in this session";
    return R;
  }
  DiagnosticEngine Diags;
  Diags.setSource("<edit>", NewSource);
  lang::ParseResult Parsed = lang::parseProgram(NewSource, Diags);
  if (!Parsed) {
    R.ErrorCode = "parse-error";
    R.Error = "the edited program does not parse; "
              "the previous program stays resident";
    return R;
  }
  std::unique_ptr<lang::Program> NewProg = std::move(Parsed.Prog);
  analysis::LintOptions LOpts;
  LOpts.Domain = targetFromName(Domain);
  analysis::lintProgram(*NewProg, Diags, LOpts);
  if (Diags.hasErrors()) {
    R.ErrorCode = "lint-error";
    R.Error = "the edited program does not lint; "
              "the previous program stays resident";
    return R;
  }
  ++TheCounters.Edits;

  // Body-only edits invalidate incrementally; a changed variable table or
  // procedure skeleton voids the node/value mapping and rebuilds.
  const lang::Program &Old = TheEngine->program();
  bool SameShape = Old.Vars.size() == NewProg->Vars.size() &&
                   Old.Procs.size() == NewProg->Procs.size();
  for (size_t I = 0; SameShape && I != Old.Vars.size(); ++I)
    SameShape = Old.Vars[I].Name == NewProg->Vars[I].Name &&
                Old.Vars[I].IsReal == NewProg->Vars[I].IsReal;
  for (size_t P = 0; SameShape && P != Old.Procs.size(); ++P)
    SameShape = Old.Procs[P].Name == NewProg->Procs[P].Name &&
                Old.Procs[P].Body != nullptr &&
                NewProg->Procs[P].Body != nullptr;
  if (!SameShape) {
    for (const lang::Procedure &P : NewProg->Procs)
      R.ChangedProcs.push_back(P.Name);
    TheEngine->reload(std::move(NewProg), NewSource);
    R.FullRebuild = true;
    ++TheCounters.FullRebuilds;
    R.DirtyNodes = TheEngine->numNodes();
    R.TotalNodes = TheEngine->numNodes();
    R.Ok = true;
    return R;
  }

  std::vector<unsigned> ChangedProcs;
  for (unsigned P = 0; P != Old.Procs.size(); ++P)
    if (lang::toString(*Old.Procs[P].Body, Old, 1) !=
        lang::toString(*NewProg->Procs[P].Body, *NewProg, 1))
      ChangedProcs.push_back(P);
  if (ChangedProcs.empty()) {
    // Textually identical bodies: nothing to invalidate, keep every
    // resident artifact (including the fixpoint) untouched.
    R.DirtyNodes = 0;
    R.TotalNodes = TheEngine->numNodes();
    R.Ok = true;
    return R;
  }
  for (unsigned P : ChangedProcs)
    R.ChangedProcs.push_back(Old.Procs[P].Name);
  TheEngine->applyEdit(std::move(NewProg), NewSource, ChangedProcs, R);
  if (R.FullRebuild)
    ++TheCounters.FullRebuilds;
  R.Ok = true;
  return R;
}

Session::Counters Session::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return TheCounters;
}

std::string Session::domainName() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Domain;
}

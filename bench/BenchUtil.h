//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and table-printing helpers shared by the per-table benchmark
/// binaries. Timing follows §6.2: each analysis is run 5 times and the 20%
/// trimmed mean is reported (drop min and max, average the middle three).
///
/// Binaries that opt in (pass argv through extractJsonPath) also accept
/// `--json=<path>` and emit one record per benchmark — name, trimmed-mean
/// seconds, and the fields of core::statsJson — so BENCH_*.json
/// trajectory points can be recorded over time.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_BENCH_BENCHUTIL_H
#define PMAF_BENCH_BENCHUTIL_H

#include "core/Instrumentation.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace pmaf {
namespace bench {

/// Runs \p Fn \p Runs times; returns the 20% trimmed mean in seconds.
template <typename F> double timedTrimmedMean(F &&Fn, int Runs = 5) {
  std::vector<double> Samples;
  for (int I = 0; I != Runs; ++I) {
    auto Start = std::chrono::steady_clock::now();
    Fn();
    auto End = std::chrono::steady_clock::now();
    Samples.push_back(std::chrono::duration<double>(End - Start).count());
  }
  std::sort(Samples.begin(), Samples.end());
  double Sum = 0.0;
  int Kept = 0;
  for (int I = 1; I + 1 < static_cast<int>(Samples.size()); ++I) {
    Sum += Samples[I];
    ++Kept;
  }
  return Kept ? Sum / Kept : Samples.front();
}

/// Prints a horizontal rule of width \p Width.
inline void printRule(int Width) {
  for (int I = 0; I != Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// One benchmark measurement destined for the JSON trajectory file.
struct BenchRecord {
  std::string Name;
  /// 20%-trimmed-mean analysis time.
  double Seconds = 0.0;
  /// Numeric backend of a LEIA bench (empty elsewhere: no "numeric" key).
  std::string NumericBackend;
  /// The stats of one representative analysis as a JSON object
  /// (core::statsJson, or a pmafd reply's "stats"); its fields are
  /// spliced into the record.
  std::string StatsJson;
};

/// A BenchRecord of one analysis's solver stats.
inline BenchRecord solverRecord(std::string Name, double Seconds,
                                const core::SolverStats &Stats,
                                std::string NumericBackend = {}) {
  return {std::move(Name), Seconds, std::move(NumericBackend),
          core::statsJson(Stats)};
}

/// Removes `--json=<path>` from argv (so google-benchmark never sees it)
/// and returns the path, or "" when absent.
inline std::string extractJsonPath(int &Argc, char **Argv) {
  std::string Path;
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      Path = Argv[I] + 7;
    else
      Argv[Out++] = Argv[I];
  }
  Argc = Out;
  return Path;
}

/// Removes `--<name>=<value>` from argv and returns the value, or "" when
/// absent. \p Prefix includes the equals sign, e.g. "--numeric=".
inline std::string extractStringFlag(int &Argc, char **Argv,
                                     const char *Prefix) {
  std::string Value;
  size_t Len = std::strlen(Prefix);
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], Prefix, Len) == 0)
      Value = Argv[I] + Len;
    else
      Argv[Out++] = Argv[I];
  }
  Argc = Out;
  return Value;
}

/// Collects BenchRecords and writes them as a JSON array of objects.
class JsonEmitter {
public:
  void add(BenchRecord Record) { Records.push_back(std::move(Record)); }

  /// Writes the collected records to \p Path; returns false on I/O error.
  /// No-op (returns true) when \p Path is empty.
  bool writeTo(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    std::fputs("[\n", Out);
    for (size_t I = 0; I != Records.size(); ++I) {
      const BenchRecord &R = Records[I];
      std::fprintf(Out, "  {\"name\": \"%s\", \"seconds\": %.9f",
                   escape(R.Name).c_str(), R.Seconds);
      if (!R.NumericBackend.empty())
        std::fprintf(Out, ", \"numeric\": \"%s\"",
                     escape(R.NumericBackend).c_str());
      // Splice the stats object's fields in after the record's own.
      if (R.StatsJson.size() > 2)
        std::fprintf(Out, ", %.*s", int(R.StatsJson.size() - 2),
                     R.StatsJson.c_str() + 1);
      std::fprintf(Out, "}%s\n", I + 1 == Records.size() ? "" : ",");
    }
    std::fputs("]\n", Out);
    return std::fclose(Out) == 0;
  }

private:
  static std::string escape(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out;
  }

  std::vector<BenchRecord> Records;
};

} // namespace bench
} // namespace pmaf

#endif // PMAF_BENCH_BENCHUTIL_H

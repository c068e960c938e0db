//===- tools/pmafd.cpp - The PMAF analysis daemon -------------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pmafd: the standalone analysis daemon. Listens on 127.0.0.1 and
/// serves the length-prefixed JSON protocol of server/Protocol.h;
/// `pmaf serve` is the same daemon reached through the main CLI.
///
///   pmafd [--port=N]
///
/// --port=0 (the default) binds an ephemeral port; the chosen port is
/// printed as "pmafd: listening on 127.0.0.1:PORT" once the daemon is
/// ready, so scripts can parse it. Every solve runs sequentially on its
/// connection's thread. Exit codes: 0 after a clean
/// `shutdown` request, 1 when the listener cannot start, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"
#include "support/NumParse.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

using namespace pmaf;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--port=N]\n"
               "  --port=N       TCP port on 127.0.0.1 (0 = ephemeral; "
               "default 0)\n",
               Argv0);
  return 2;
}

std::optional<uint64_t> parseFlagUnsigned(const char *Flag,
                                          const std::string &Value) {
  std::optional<uint64_t> Parsed = support::parseUnsigned(Value);
  if (!Parsed)
    std::fprintf(stderr,
                 "error: %s expects an unsigned integer, got '%s' "
                 "[invalid-flag-value]\n",
                 Flag, Value.c_str());
  return Parsed;
}

} // namespace

int main(int argc, char **argv) {
  server::DaemonOptions Opts;
  for (int I = 1; I != argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg.rfind("--port=", 0) == 0) {
      std::optional<uint64_t> Port =
          parseFlagUnsigned("--port", Arg.substr(7));
      if (!Port)
        return 2;
      if (*Port > 65535) {
        std::fprintf(stderr,
                     "error: --port expects a value in [0, 65535], got %llu "
                     "[invalid-flag-value]\n",
                     static_cast<unsigned long long>(*Port));
        return 2;
      }
      Opts.Port = static_cast<uint16_t>(*Port);
    } else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage(argv[0]);
    }
  }
  return server::runDaemon(Opts);
}

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "comm/registry.hpp"

/// \file algo_opt.hpp
/// Shared `--algo <name>` command-line handling for the bench binaries:
/// picks the collective algorithm dispatched through
/// comm::CollectiveRegistry (ring, halving, pairwise, rabenseifner,
/// driver_funnel, sparse_ring, or auto for the cost-model tuner).

namespace sparker::bench {

/// Extracts `--algo <name>` / `--algo=<name>` from argv (compacting the
/// array in place, like trace_out_option) and returns the parsed id, or
/// `fallback` when the flag is absent. Unknown names abort with a message
/// listing the valid ones.
inline comm::AlgoId algo_option(int& argc, char** argv,
                                comm::AlgoId fallback = comm::AlgoId::kRing) {
  std::string name;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--algo") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      name = argv[i] + 7;
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  if (name.empty()) return fallback;
  if (auto id = comm::parse_algo(name)) return *id;
  std::fprintf(stderr, "unknown --algo '%s' (expected %s)\n", name.c_str(),
               comm::algo_names().c_str());
  std::exit(2);
}

}  // namespace sparker::bench

// Interactive playground for the communication layer: runs a reduce-scatter
// over the scalable communicator with parameters from the command line and
// prints the simulated time, so you can explore the trade-offs of Figures
// 14 and 15 directly.
//
// Usage:
//   ./build/examples/reduce_scatter_playground
//       [executors=48] [parallelism=4] [msg_mb=256] [topo=1]
//       [algo=auto|ring|halving|pairwise|rabenseifner|driver_funnel|
//             sparse_ring]
//       [backend=sc|bm|mpi]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util/runners.hpp"

using namespace sparker;

int main(int argc, char** argv) {
  bench::RsOptions opt;
  opt.executors = argc > 1 ? std::atoi(argv[1]) : 48;
  opt.parallelism = argc > 2 ? std::atoi(argv[2]) : 4;
  const int msg_mb = argc > 3 ? std::atoi(argv[3]) : 256;
  opt.message_bytes = static_cast<std::uint64_t>(msg_mb) << 20;
  opt.topology_aware = argc > 4 ? std::atoi(argv[4]) != 0 : true;
  std::string algo = argc > 5 ? argv[5] : "ring";
  std::string backend = argc > 6 ? argv[6] : "sc";

  if (auto id = comm::parse_algo(algo)) {
    opt.algo = *id;
  } else {
    std::fprintf(stderr, "unknown algo '%s' (expected %s)\n", algo.c_str(),
                 comm::algo_names().c_str());
    return 1;
  }
  if (backend == "sc") {
    opt.backend = bench::CommBackend::kScalable;
  } else if (backend == "bm") {
    opt.backend = bench::CommBackend::kBlockManager;
  } else if (backend == "mpi") {
    opt.backend = bench::CommBackend::kMpi;
  } else {
    std::fprintf(stderr, "unknown backend '%s'\n", backend.c_str());
    return 1;
  }

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  if (opt.algo == comm::AlgoId::kAuto) {
    std::printf("tuner pick: %s\n",
                comm::to_string(bench::rs_tuner_pick(spec, opt)));
  }
  const double secs = bench::reduce_scatter_seconds(spec, opt);
  std::printf(
      "reduce-scatter: %d executors, P=%d, %d MB, %s, algo=%s, backend=%s\n"
      "simulated time: %.3f s  (%.1f MB/s effective per executor)\n",
      opt.executors, opt.parallelism, msg_mb,
      opt.topology_aware ? "topology-aware" : "by-executor-id", algo.c_str(),
      backend.c_str(), secs,
      static_cast<double>(opt.message_bytes) / 1e6 / secs);
  return 0;
}

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
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"

using namespace sparker;

int main(int argc, char** argv) {
  bench::RsOptions opt;
  int msg_mb = 256, topo = 1;
  std::string backend = "sc";
  const auto backend_of = [&](const std::string& v) -> std::string {
    backend = v;
    if (v == "sc") {
      opt.backend = bench::CommBackend::kScalable;
    } else if (v == "bm") {
      opt.backend = bench::CommBackend::kBlockManager;
    } else if (v == "mpi") {
      opt.backend = bench::CommBackend::kMpi;
    } else {
      return "is not one of sc|bm|mpi";
    }
    return "";
  };
  bench::Cli({{"executors", bench::integer(&opt.executors, 1)},
              {"parallelism", bench::integer(&opt.parallelism, 1)},
              {"msg_mb", bench::integer(&msg_mb, 1)},
              {"topo", bench::integer(&topo)},
              {"algo", bench::algo(&opt.algo)},
              {"backend", backend_of}})
      .parse(argc, argv);
  opt.message_bytes = static_cast<std::uint64_t>(msg_mb) << 20;
  opt.topology_aware = topo != 0;

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
      opt.topology_aware ? "topology-aware" : "by-executor-id",
      comm::to_string(opt.algo), backend.c_str(), secs,
      static_cast<double>(opt.message_bytes) / 1e6 / secs);
  return 0;
}

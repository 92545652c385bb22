// Reproduces Figure 14: reduce-scatter time of the scalable communicator at
// 48 executors / 256 MB message, varying the channel parallelism 1..8, with
// and without topology-aware executor ordering.
// Paper reference points: 1-parallelism 3.04 s -> 8-parallelism 0.99 s
// (3.06x); id-ordered 2.77 s -> hostname-ordered 0.99 s (2.76x) at p=8.

#include <cstdio>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  comm::AlgoId algo = comm::AlgoId::kRing;
  bench::Cli({{"--algo", bench::algo(&algo), "name"}}).parse(argc, argv);
  bench::print_banner("Figure 14",
                      "Reduce-scatter vs parallelism, 48 executors, 256 MB "
                      "(BIC); seconds");
  std::printf("collective algorithm: %s\n", comm::to_string(algo));

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  bench::Table t({"parallelism", "topo-aware (s)", "by-executor-id (s)"});
  double p1_aware = 0, p8_aware = 0, p8_naive = 0;
  for (int p : {1, 2, 4, 8}) {
    bench::RsOptions opt;
    opt.executors = 48;
    opt.parallelism = p;
    opt.message_bytes = 256ull << 20;
    opt.algo = algo;
    opt.topology_aware = true;
    const double aware = bench::reduce_scatter_seconds(spec, opt);
    opt.topology_aware = false;
    const double naive = bench::reduce_scatter_seconds(spec, opt);
    if (p == 1) p1_aware = aware;
    if (p == 8) {
      p8_aware = aware;
      p8_naive = naive;
    }
    t.add_row({std::to_string(p), bench::fmt(aware, 2),
               bench::fmt(naive, 2)});
  }
  t.print();
  bench::JsonReport("fig14_rs_parallelism").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nmeasured: 8-par speedup over 1-par %.2fx (paper 3.06x); "
      "topology-awareness speedup at p=8 %.2fx (paper 2.76x)\n",
      p1_aware / p8_aware, p8_naive / p8_aware);
  return 0;
}

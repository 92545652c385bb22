// Reproduces Figure 15: reduce-scatter scalability of the scalable
// communicator (SC) vs MPI, scaling 6 -> 48 executors (1 -> 8 BIC nodes),
// for 256 KB and 256 MB messages.
// Paper reference points: SC 256 MB grows 784.13 ms -> 993.35 ms (1.27x);
// SC 256 KB grows 1.51 ms -> 7.98 ms (5.30x); MPI scales worse at small
// sizes (its implementation picks a suboptimal algorithm).

#include <cstdio>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  // --algo overrides the SC columns' algorithm; the MPI reference keeps
  // MPICH's own size-based choices (halving short, pairwise long).
  comm::AlgoId sc_algo = comm::AlgoId::kRing;
  bench::Cli({{"--algo", bench::algo(&sc_algo), "name"}}).parse(argc, argv);
  bench::print_banner("Figure 15",
                      "Reduce-scatter scalability, 6..48 executors (BIC)");
  std::printf("SC collective algorithm: %s\n", comm::to_string(sc_algo));

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  bench::Table t({"executors", "SC 256KB (ms)", "MPI 256KB (ms)",
                  "SC 256MB (ms)", "MPI 256MB (ms)"});
  double sc_small_6 = 0, sc_small_48 = 0, sc_big_6 = 0, sc_big_48 = 0;
  for (int execs : {6, 12, 24, 48}) {
    auto run = [&](bench::CommBackend backend, comm::AlgoId algo,
                   std::uint64_t bytes) {
      bench::RsOptions opt;
      opt.executors = execs;
      opt.parallelism = 4;
      opt.topology_aware = true;
      opt.message_bytes = bytes;
      opt.backend = backend;
      opt.algo = algo;
      return 1e3 * bench::reduce_scatter_seconds(spec, opt);
    };
    // MPICH picks recursive halving for short messages and pairwise
    // exchange for long commutative reductions.
    const double sc_small =
        run(bench::CommBackend::kScalable, sc_algo, 256ull << 10);
    const double mpi_small =
        run(bench::CommBackend::kMpi, comm::AlgoId::kHalving, 256ull << 10);
    const double sc_big =
        run(bench::CommBackend::kScalable, sc_algo, 256ull << 20);
    const double mpi_big =
        run(bench::CommBackend::kMpi, comm::AlgoId::kPairwise, 256ull << 20);
    if (execs == 6) {
      sc_small_6 = sc_small;
      sc_big_6 = sc_big;
    }
    if (execs == 48) {
      sc_small_48 = sc_small;
      sc_big_48 = sc_big;
    }
    t.add_row({std::to_string(execs), bench::fmt(sc_small, 2),
               bench::fmt(mpi_small, 2), bench::fmt(sc_big, 1),
               bench::fmt(mpi_big, 1)});
  }
  t.print();
  bench::JsonReport report("fig15_rs_scalability");
  report.add_table("results", t);

  report.with_sim_speed().write();
  std::printf(
      "\nmeasured: SC 256MB 6->48 executors grows %.2fx (paper 1.27x); "
      "SC 256KB grows %.2fx (paper 5.30x)\n",
      sc_big_48 / sc_big_6, sc_small_48 / sc_small_6);
  return 0;
}

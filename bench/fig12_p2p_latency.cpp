// Reproduces Figure 12: point-to-point small-message latency of
// BlockManager-based messaging (BM), the scalable communicator (SC) and
// MPI, between a pair of executors on different BIC nodes.

#include <cstdio>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  bench::Cli({}).parse(argc, argv);
  bench::print_banner(
      "Figure 12",
      "P2P latency: BlockManager vs scalable communicator vs MPI (BIC)");

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  struct Row {
    bench::CommBackend backend;
    double paper_us;
  };
  const Row rows[] = {
      {bench::CommBackend::kBlockManager, 3861.25},
      {bench::CommBackend::kScalable, 72.73},
      {bench::CommBackend::kMpi, 15.94},
  };

  bench::Table t({"transport", "latency (us)", "paper (us)", "vs MPI"});
  const double mpi_us = bench::p2p_latency_us(spec, bench::CommBackend::kMpi);
  for (const Row& r : rows) {
    const double us = bench::p2p_latency_us(spec, r.backend);
    t.add_row({bench::name_of(r.backend), bench::fmt(us, 2),
               bench::fmt(r.paper_us, 2), bench::fmt_times(us / mpi_us, 2)});
  }
  t.print();
  bench::JsonReport("fig12_p2p_latency").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nPaper: BM is 242.24x slower than MPI; SC is 4.56x slower — the\n"
      "latency gap is why Sparker builds its own communication layer.\n");
  return 0;
}

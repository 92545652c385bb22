// Reproduces Figure 13: point-to-point throughput vs message size for the
// scalable communicator with 1/2/4 parallel channels, against MPI, on BIC.
// The paper's reference points: MPI peaks at 1185.43 MB/s; SC with 4
// channels reaches 1151.80 MB/s (97.1% of line rate); a single TCP stream
// cannot saturate the NIC; large JVM messages wobble due to GC.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  bench::Cli({}).parse(argc, argv);
  bench::print_banner("Figure 13",
                      "P2P throughput vs message size; SC parallelism 1/2/4 "
                      "vs MPI (BIC); MB/s");

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  const std::vector<std::uint64_t> sizes = {
      1ull << 10, 16ull << 10, 256ull << 10, 1ull << 20,
      4ull << 20, 16ull << 20, 64ull << 20,  256ull << 20};

  bench::Table t({"msg size", "SC p=1", "SC p=2", "SC p=4", "MPI"});
  double sc4_peak = 0, mpi_peak = 0;
  for (auto bytes : sizes) {
    std::vector<std::string> row;
    if (bytes >= (1ull << 20)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lluMB",
                    static_cast<unsigned long long>(bytes >> 20));
      row.push_back(buf);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lluKB",
                    static_cast<unsigned long long>(bytes >> 10));
      row.push_back(buf);
    }
    for (int p : {1, 2, 4}) {
      const double mbps = bench::p2p_throughput_mbps(
          spec, bench::CommBackend::kScalable, p, bytes);
      if (p == 4) sc4_peak = std::max(sc4_peak, mbps);
      row.push_back(bench::fmt(mbps, 1));
    }
    const double mpi =
        bench::p2p_throughput_mbps(spec, bench::CommBackend::kMpi, 1, bytes);
    mpi_peak = std::max(mpi_peak, mpi);
    row.push_back(bench::fmt(mpi, 1));
    t.add_row(std::move(row));
  }
  t.print();
  bench::JsonReport("fig13_p2p_throughput").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nmeasured peaks: SC(p=4) %.1f MB/s (%.1f%% of MPI %.1f MB/s)\n"
      "paper:          SC(p=4) 1151.8 MB/s (97.1%% of MPI 1185.4 MB/s)\n",
      sc4_peak, 100.0 * sc4_peak / mpi_peak, mpi_peak);
  return 0;
}

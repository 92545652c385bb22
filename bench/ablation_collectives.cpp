// Ablation: reduction-collective algorithms over the same scalable
// communicator, all dispatched through comm::reduce_scatter. The
// split-aggregation interface makes the whole family usable from Spark
// (paper Section 7); this bench shows where each wins: driver funnel
// (latency-optimal, incast-bound), binomial tree, recursive halving
// (log-step), pairwise exchange and ring (bandwidth-optimal), across
// message sizes at 24 executors.
//
// With --tuner, the tuner's pick is timed next to the measured-best
// algorithm per size and the report (ablation_collectives_tuner) records
// the match rate — the same validation tests/tuner_test.cpp enforces.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "bench_util/vec_sai.hpp"
#include "comm/collectives.hpp"

using namespace sparker;

namespace {

double tree_reduce_seconds(const net::ClusterSpec& spec, int executors,
                           std::uint64_t bytes) {
  // Binomial reduce of whole values to rank 0, over SC links.
  sim::Simulator sim;
  bench::SimSpeedScope speed(sim);
  net::FabricParams fp = spec.fabric;
  const int per_host = spec.executors_per_node;
  const int hosts = (executors + per_host - 1) / per_host;
  net::Fabric fabric(sim, fp, hosts);
  auto infos = comm::enumerate_executors(hosts, per_host);
  infos.resize(static_cast<std::size_t>(executors));
  comm::Communicator c(fabric, comm::rank_map_by_hostname(infos),
                       spec.sc_link, 1);
  const int len = 1024;
  const double scale =
      static_cast<double>(bytes) / (len * sizeof(std::int64_t));
  std::vector<bench::Vec> locals(
      static_cast<std::size_t>(executors),
      bench::Vec(static_cast<std::size_t>(len), 1));
  const double merge_bw = spec.rates.merge_bw;
  auto body = [&](int rank) -> sim::Task<void> {
    const auto& local = locals[static_cast<std::size_t>(rank)];
    const comm::SegOps ops =
        bench::vec_sai::seg_ops(local, scale, [merge_bw](std::uint64_t b) {
          return sim::transfer_time(static_cast<double>(b), merge_bw);
        });
    (void)co_await comm::binomial_reduce(c, rank, bench::Vec(local), ops);
  };
  sim.run_task(comm::run_all_ranks(c, body));
  return sim::to_seconds(sim.now());
}

}  // namespace

int main(int argc, char** argv) {
  bool tuner = false;
  bench::Cli({{"--tuner", bench::flag(&tuner)}}).parse(argc, argv);
  bench::print_banner("Ablation: reduction collectives",
                      tuner ? "tuner picks vs measured best (BIC, SC links, "
                              "24 executors); milliseconds"
                            : "ring vs pairwise vs recursive-halving vs "
                              "funnel vs binomial tree (BIC, SC links, 24 "
                              "executors); milliseconds");

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  struct Size {
    const char* label;
    std::uint64_t bytes;
  };
  const Size sizes[] = {{"4KB", 4ull << 10},   {"256KB", 256ull << 10},
                        {"8MB", 8ull << 20},   {"64MB", 64ull << 20},
                        {"256MB", 256ull << 20}};

  auto rs = [&](comm::AlgoId algo, int par, std::uint64_t bytes,
                bench::RsOptions* used = nullptr) {
    bench::RsOptions opt;
    opt.executors = 24;
    opt.parallelism = par;
    opt.message_bytes = bytes;
    opt.algo = algo;
    if (used) *used = opt;
    return 1e3 * bench::reduce_scatter_seconds(spec, opt);
  };

  if (!tuner) {
    bench::Table t({"msg size", "ring p=4", "pairwise", "halving", "funnel",
                    "binomial tree"});
    for (const auto& sz : sizes) {
      t.add_row(
          {sz.label, bench::fmt(rs(comm::AlgoId::kRing, 4, sz.bytes), 2),
           bench::fmt(rs(comm::AlgoId::kPairwise, 1, sz.bytes), 2),
           bench::fmt(rs(comm::AlgoId::kHalving, 1, sz.bytes), 2),
           bench::fmt(rs(comm::AlgoId::kDriverFunnel, 1, sz.bytes), 2),
           bench::fmt(1e3 * tree_reduce_seconds(spec, 24, sz.bytes), 2)});
    }
    t.print();
    bench::JsonReport("ablation_collectives").add_table("results", t).with_sim_speed().write();
    std::printf(
        "\nSmall messages: latency-optimal algorithms (funnel/halving/tree) "
        "win.\nLarge messages: bandwidth-optimal ring/pairwise win by a wide "
        "margin; the funnel and tree root links are the chokepoint — which "
        "is exactly Spark's treeAggregate pathology.\n");
    return 0;
  }

  // --tuner: every registered algorithm (at the engine's parallelism, P=4)
  // vs the tuner's pick.
  bench::Table t({"msg size", "tuner pick", "pick (ms)", "best algo",
                  "best (ms)", "pick/best"});
  int matches = 0, points = 0;
  for (const auto& sz : sizes) {
    bench::RsOptions opt;
    opt.executors = 24;
    opt.parallelism = 4;
    opt.message_bytes = sz.bytes;
    const comm::AlgoId pick = bench::rs_tuner_pick(spec, opt);
    comm::AlgoId best = comm::AlgoId::kRing;
    double best_ms = 1e300, pick_ms = 0;
    for (comm::AlgoId a :
         comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
      const double ms = rs(a, 4, sz.bytes);
      if (a == pick) pick_ms = ms;
      if (ms < best_ms) {
        best_ms = ms;
        best = a;
      }
    }
    ++points;
    if (pick == best || pick_ms <= 1.05 * best_ms) ++matches;
    t.add_row({sz.label, comm::to_string(pick), bench::fmt(pick_ms, 2),
               comm::to_string(best), bench::fmt(best_ms, 2),
               bench::fmt_times(pick_ms / best_ms, 2)});
  }
  t.print();
  std::printf("\ntuner matched measured best (within 5%%) on %d/%d sizes\n",
              matches, points);
  bench::JsonReport("ablation_collectives_tuner")
      .add_table("results", t)
      .set("match_points", static_cast<double>(matches))
      .set("total_points", static_cast<double>(points))
      .with_sim_speed().write();
  return 0;
}

// Ablation: the JVM garbage-collection pause model. The paper observes
// (Section 5.2.1) that the scalable communicator's bandwidth "changes
// unsmoothly" and degrades at large message sizes, attributing it to GC.
// This bench isolates that knob: P2P throughput and end-to-end reduce-
// scatter time with the GC model on vs off.

#include <cstdio>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

using namespace sparker;

int main(int argc, char** argv) {
  bench::Cli({}).parse(argc, argv);
  bench::print_banner("Ablation: JVM GC pauses",
                      "SC p=4 throughput and ring reduce-scatter with the "
                      "GC model on/off (BIC)");

  const net::ClusterSpec spec = net::ClusterSpec::bic();
  bench::Table t({"msg size", "gc on (MB/s)", "gc off (MB/s)", "loss"});
  for (std::uint64_t bytes :
       {4ull << 20, 16ull << 20, 64ull << 20, 256ull << 20}) {
    const double on = bench::p2p_throughput_mbps(
        spec, bench::CommBackend::kScalable, 4, bytes, 32, /*gc=*/true);
    const double off = bench::p2p_throughput_mbps(
        spec, bench::CommBackend::kScalable, 4, bytes, 32, /*gc=*/false);
    char label[32];
    std::snprintf(label, sizeof(label), "%lluMB",
                  static_cast<unsigned long long>(bytes >> 20));
    t.add_row({label, bench::fmt(on, 1), bench::fmt(off, 1),
               bench::fmt(100.0 * (off - on) / off, 1) + "%"});
  }
  t.print();

  std::printf("\nreduce-scatter, 48 executors, 256 MB, p=4:\n");
  net::ClusterSpec gc_off = spec;
  gc_off.fabric.gc.enabled = false;
  bench::RsOptions opt;
  const double with_gc = bench::reduce_scatter_seconds(spec, opt);
  const double without = bench::reduce_scatter_seconds(gc_off, opt);
  std::printf("  gc on: %.3f s   gc off: %.3f s   overhead %.1f%%\n",
              with_gc, without, 100.0 * (with_gc - without) / without);
  bench::JsonReport("ablation_gc")
      .add_table("throughput", t)
      .set("rs_gc_on_s", with_gc)
      .set("rs_gc_off_s", without)
      .with_sim_speed().write();
  std::printf(
      "\nGC pauses are why the paper's Figure 13 curves wobble at large "
      "sizes and why a native (MPI) transport stays smooth.\n");
  return 0;
}

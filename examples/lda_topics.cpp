// Trains EM-LDA (the paper's LDA-N workload shape) on a synthetic
// nytimes-like corpus with Sparker's split aggregation, prints the
// per-topic top words against the planted topics, and compares the
// aggregation time decomposition with vanilla Spark.
//
// Usage:   ./build/examples/lda_topics [iterations] [topics]
//              [--trace-out trace.json]
//
// With --trace-out, the Sparker run records a structured trace written as
// Chrome trace_event JSON (Perfetto-loadable).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "data/generators.hpp"
#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "ml/lda.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace sparker;

int main(int argc, char** argv) {
  std::string trace_out;
  int iterations = 15, topics = 8;
  bench::Cli({{"iterations", bench::integer(&iterations, 1)},
              {"topics", bench::integer(&topics, 1)},
              {"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);

  data::DatasetPreset preset = data::nytimes();
  preset.real_samples = 2400;
  preset.real_features = 800;

  auto run = [&](engine::AggMode mode, bool print_topics) {
    sim::Simulator simulator;
    engine::EngineConfig config;
    config.agg_mode = mode;
    config.trace.enabled =
        !trace_out.empty() && mode == engine::AggMode::kSplit;
    engine::Cluster cluster(simulator, net::ClusterSpec::bic(8), config);
    auto rdd = ml::make_corpus_rdd(preset, cluster.spec().total_cores(),
                                   cluster.num_executors(), 7);
    rdd->materialize();
    ml::LdaConfig cfg;
    cfg.iterations = iterations;
    cfg.num_topics_real = topics;
    auto job = [&]() -> sim::Task<ml::LdaResult> {
      co_return co_await ml::train_lda(cluster, *rdd, preset, cfg);
    };
    ml::LdaResult r = simulator.run_task(job());
    std::printf(
        "%-8s total %7.1f s | driver %5.1f  non-agg %5.1f  agg-compute "
        "%6.1f  agg-reduce %6.1f | loglik %.3e -> %.3e\n",
        mode == engine::AggMode::kSplit ? "Sparker" : "Spark",
        sim::to_seconds(r.breakdown.total()),
        sim::to_seconds(r.breakdown.driver),
        sim::to_seconds(r.breakdown.non_agg),
        sim::to_seconds(r.breakdown.agg_compute),
        sim::to_seconds(r.breakdown.agg_reduce), r.loglik_history.front(),
        r.loglik_history.back());
    if (print_topics) {
      const auto v = preset.real_features;
      std::printf("\ntop words per learned topic (word ids):\n");
      for (int k = 0; k < topics; ++k) {
        std::vector<int> order(static_cast<std::size_t>(v));
        for (std::int64_t w = 0; w < v; ++w) {
          order[static_cast<std::size_t>(w)] = static_cast<int>(w);
        }
        std::partial_sort(order.begin(), order.begin() + 8, order.end(),
                          [&](int a, int b) {
                            return r.beta[static_cast<std::size_t>(k * v + a)] >
                                   r.beta[static_cast<std::size_t>(k * v + b)];
                          });
        std::printf("  topic %2d:", k);
        for (int i = 0; i < 8; ++i) std::printf(" %4d", order[static_cast<std::size_t>(i)]);
        std::printf("\n");
      }
      std::printf(
          "(planted topics concentrate on contiguous word-id bands, so a "
          "well-recovered topic lists neighbouring ids)\n\n");
    }
    if (config.trace.enabled) {
      obs::write_chrome_trace(cluster.trace(), trace_out);
      std::printf("trace written to %s (load it in Perfetto)\n",
                  trace_out.c_str());
    }
    return r.breakdown.total();
  };

  std::printf("EM-LDA on a %s-shaped corpus, %d iterations, K=%d real "
              "(K=100 modeled), 8-node BIC cluster\n\n",
              preset.name.c_str(), iterations, topics);
  const auto sparker = run(engine::AggMode::kSplit, /*print_topics=*/true);
  const auto spark = run(engine::AggMode::kTree, /*print_topics=*/false);
  std::printf("\nend-to-end Sparker speedup: %.2fx\n",
              static_cast<double>(spark) / static_cast<double>(sparker));
  return 0;
}

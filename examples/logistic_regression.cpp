// Trains logistic regression (the paper's LR workloads) on a synthetic
// avazu-shaped dataset, under vanilla Spark and under Sparker, and prints
// the loss curve, training accuracy, and the paper's four-way time
// decomposition for both runs.
//
// Usage:
//   ./build/examples/logistic_regression [iterations] [path.libsvm]
//       [--trace-out trace.json]
//
// With a libsvm file argument, the planted synthetic data is replaced by
// the file's rows (all partitions draw from it round-robin). With
// --trace-out, the Sparker run records a structured trace written as
// Chrome trace_event JSON (Perfetto-loadable).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util/cli.hpp"
#include "data/libsvm.hpp"
#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "ml/train.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace sparker;

namespace {

double accuracy(const ml::DenseVector& w,
                engine::CachedRdd<ml::LabeledPoint>& rdd) {
  int correct = 0, total = 0;
  for (int p = 0; p < rdd.num_partitions(); ++p) {
    for (const auto& row : rdd.partition(p)) {
      const bool predicted = ml::dot(w, row.features) > 0;
      correct += (predicted == (row.label > 0.5));
      ++total;
    }
  }
  return total ? static_cast<double>(correct) / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out, libsvm_path;
  int iterations = 20;
  bench::Cli({{"iterations", bench::integer(&iterations, 1)},
              {"path.libsvm", bench::text(&libsvm_path)},
              {"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);

  data::DatasetPreset preset = data::avazu();
  std::vector<ml::LabeledPoint> file_rows;
  if (!libsvm_path.empty()) {
    file_rows = data::read_libsvm_file(libsvm_path);
    if (file_rows.empty()) {
      std::fprintf(stderr, "no rows in %s\n", libsvm_path.c_str());
      return 1;
    }
    preset.real_samples = static_cast<std::int64_t>(file_rows.size());
    preset.real_features = file_rows.front().features.dim;
    std::printf("loaded %zu rows (dim %lld) from %s\n", file_rows.size(),
                static_cast<long long>(preset.real_features),
                libsvm_path.c_str());
  }

  auto run = [&](engine::AggMode mode) {
    sim::Simulator simulator;
    engine::EngineConfig config;
    config.agg_mode = mode;
    // Trace the Sparker run (the one worth looking at in Perfetto).
    config.trace.enabled =
        !trace_out.empty() && mode == engine::AggMode::kSplit;
    engine::Cluster cluster(simulator, net::ClusterSpec::bic(8), config);
    const int partitions = cluster.spec().total_cores();
    std::unique_ptr<engine::CachedRdd<ml::LabeledPoint>> rdd;
    if (file_rows.empty()) {
      rdd = ml::make_classification_rdd(preset, partitions,
                                        cluster.num_executors(), 42);
    } else {
      const auto& rows = file_rows;
      rdd = std::make_unique<engine::CachedRdd<ml::LabeledPoint>>(
          partitions, cluster.num_executors(), [&rows, partitions](int pid) {
            std::vector<ml::LabeledPoint> part;
            for (std::size_t i = static_cast<std::size_t>(pid);
                 i < rows.size(); i += static_cast<std::size_t>(partitions)) {
              part.push_back(rows[i]);
            }
            return part;
          });
    }
    rdd->materialize();
    ml::TrainConfig cfg;
    cfg.model = ml::ModelKind::kLogisticRegression;
    cfg.iterations = iterations;
    cfg.step_size = 0.5;
    auto job = [&]() -> sim::Task<ml::TrainResult> {
      co_return co_await ml::train_linear(cluster, *rdd, preset, cfg);
    };
    ml::TrainResult r = simulator.run_task(job());
    std::printf(
        "\n%-8s total %7.1f s | driver %5.1f  non-agg %5.1f  agg-compute "
        "%6.1f  agg-reduce %6.1f | accuracy %.3f\n",
        mode == engine::AggMode::kSplit ? "Sparker" : "Spark",
        sim::to_seconds(r.breakdown.total()),
        sim::to_seconds(r.breakdown.driver),
        sim::to_seconds(r.breakdown.non_agg),
        sim::to_seconds(r.breakdown.agg_compute),
        sim::to_seconds(r.breakdown.agg_reduce), accuracy(r.weights, *rdd));
    std::printf("loss curve:");
    for (std::size_t i = 0; i < r.loss_history.size();
         i += std::max<std::size_t>(1, r.loss_history.size() / 8)) {
      std::printf(" %.4f", r.loss_history[i]);
    }
    std::printf(" ... %.4f\n", r.loss_history.back());
    if (config.trace.enabled) {
      obs::write_chrome_trace(cluster.trace(), trace_out);
      std::printf("trace written to %s (load it in Perfetto)\n",
                  trace_out.c_str());
    }
    return r.breakdown.total();
  };

  std::printf("LR on %s-shaped data, %d iterations, 8-node BIC cluster\n",
              preset.name.c_str(), iterations);
  const auto spark = run(engine::AggMode::kTree);
  const auto sparker = run(engine::AggMode::kSplit);
  std::printf("\nend-to-end Sparker speedup: %.2fx\n",
              static_cast<double>(spark) / static_cast<double>(sparker));
  return 0;
}

// Real-code micro-benchmarks (google-benchmark): these measure actual CPU
// time of the library's hot kernels — the serializer, segment merge/split,
// gradient folds, L-BFGS direction — plus the discrete-event simulator's
// event throughput, which bounds how fast the figure benches run.

#include <benchmark/benchmark.h>

#include <any>
#include <chrono>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "comp/sparse.hpp"
#include "data/generators.hpp"
#include "data/presets.hpp"
#include "ml/aggregator.hpp"
#include "ml/lda.hpp"
#include "ml/linalg.hpp"
#include "ml/optimizer.hpp"
#include "net/cluster.hpp"
#include "ser/byte_buffer.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sparker;

void BM_ByteBufferWriteVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n, 1.5);
  for (auto _ : state) {
    ser::ByteBuffer b;
    b.write_vector(v);
    benchmark::DoNotOptimize(b.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_ByteBufferWriteVector)->Range(1 << 10, 1 << 18);

void BM_ByteBufferRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n, 2.5);
  for (auto _ : state) {
    ser::ByteBuffer b;
    b.write_vector(v);
    auto back = b.read_vector<double>();
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_ByteBufferRoundTrip)->Range(1 << 10, 1 << 18);

void BM_SegmentMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::DenseVector a(n, 1.0), b(n, 2.0);
  for (auto _ : state) {
    ml::add_into(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_SegmentMerge)->Range(1 << 10, 1 << 20);

void BM_SplitOp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::DenseVector u(n, 1.0);
  int seg = 0;
  const int nseg = 16;
  for (auto _ : state) {
    auto [lo, hi] =
        ml::slice_bounds(static_cast<std::int64_t>(n), seg, nseg);
    auto v = ml::slice(u, lo, hi);
    benchmark::DoNotOptimize(v.data());
    seg = (seg + 1) % nseg;
  }
}
BENCHMARK(BM_SplitOp)->Range(1 << 12, 1 << 20);

void BM_AdaptiveEncode(benchmark::State& state) {
  // One sparse-ring segment: 2^19 int64 slots over 48 ranks, each slot
  // nonzero with probability range(0)%. Only `encode` is timed, not the
  // input copy it consumes.
  const std::size_t n = 10923;
  const auto percent = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng(7);
  std::vector<std::int64_t> v(n, 0);
  for (auto& x : v) {
    if (rng.next_u64() % 100 < percent) {
      x = static_cast<std::int64_t>(rng.next_u64() | 1);
    }
  }
  for (auto _ : state) {
    std::vector<std::int64_t> in = v;
    const auto t0 = std::chrono::steady_clock::now();
    auto enc = comp::AdaptiveVector<std::int64_t>::encode(std::move(in));
    benchmark::DoNotOptimize(enc);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(std::int64_t)));
}
BENCHMARK(BM_AdaptiveEncode)->Arg(1)->Arg(50)->Arg(80)->UseManualTime();

void BM_LogisticGradientFold(benchmark::State& state) {
  const auto preset = data::avazu();
  const auto model = data::make_planted_model(preset, 3);
  const auto rows =
      data::generate_classification_partition(preset, model, 0, 512, 3);
  ml::DenseVector w(static_cast<std::size_t>(preset.real_features), 0.01);
  ml::DenseVector grad(w.size(), 0.0);
  for (auto _ : state) {
    double loss = 0;
    for (const auto& r : rows) loss += ml::logistic_gradient(w, r, grad);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_LogisticGradientFold);

void BM_LbfgsDirection(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  ml::Lbfgs opt(10);
  sim::Rng rng(5);
  ml::DenseVector w(dim), g(dim);
  for (auto& x : w) x = rng.next_gaussian();
  for (auto _ : state) {
    for (std::size_t i = 0; i < dim; ++i) g[i] = w[i] * 0.9 + 0.1;
    auto dir = opt.direction(w, g);
    ml::axpy(0.1, dir, w);
    benchmark::DoNotOptimize(dir.data());
  }
}
BENCHMARK(BM_LbfgsDirection)->Range(1 << 10, 1 << 16);

void BM_LdaFoldDocument(benchmark::State& state) {
  auto preset = data::enron();
  const auto topics = data::make_planted_topics(preset, 10, 5);
  const auto docs =
      data::generate_corpus_partition(preset, topics, 0, 64, 5);
  const int k = 10;
  const auto v = preset.real_features;
  ml::DenseVector beta(static_cast<std::size_t>(k * v),
                       1.0 / static_cast<double>(v));
  ml::DenseVector flat(static_cast<std::size_t>(k * v) + 2, 0.0);
  for (auto _ : state) {
    for (const auto& d : docs) {
      ml::lda_detail::fold_document(d, beta, k, v, 3, 0.1, flat);
    }
    benchmark::DoNotOptimize(flat.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(docs.size()));
}
BENCHMARK(BM_LdaFoldDocument);

// One corpus as ml::make_corpus_rdd builds it for 192 cores: every
// partition of a 192-way split, from the preset's planted topics.
void BM_CorpusPartition(benchmark::State& state) {
  const auto& preset = state.range(0) == 0 ? data::enron() : data::nytimes();
  const auto topics = data::make_planted_topics(preset, 10, 5);
  const int parts = 192;
  const std::int64_t per_part = preset.real_samples / parts;
  for (auto _ : state) {
    for (int pid = 0; pid < parts; ++pid) {
      auto docs =
          data::generate_corpus_partition(preset, topics, pid, per_part, 5);
      benchmark::DoNotOptimize(docs.data());
    }
  }
  state.SetLabel(preset.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          parts * per_part * preset.real_nnz * 3);
}
BENCHMARK(BM_CorpusPartition)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    auto ping = [](sim::Simulator& sm, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) co_await sm.sleep(10);
    };
    s.spawn(ping(s, 4096));
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatedRingReduceScatter(benchmark::State& state) {
  // Wall-clock cost of simulating one 24-executor, 4-channel, 64 MB ring
  // reduce-scatter (what the figure benches are made of).
  const int n = 24;
  for (auto _ : state) {
    sim::Simulator s;
    net::ClusterSpec spec = net::ClusterSpec::bic(4);
    net::Fabric fabric(s, spec.fabric, 4);
    auto infos = comm::enumerate_executors(4, 6);
    comm::Communicator c(fabric, comm::rank_map_by_hostname(infos),
                         spec.sc_link, 4);
    std::vector<std::vector<std::int64_t>> locals(
        static_cast<std::size_t>(n),
        std::vector<std::int64_t>(1024, 1));
    auto body = [&](int rank) -> sim::Task<void> {
      const auto& local = locals[static_cast<std::size_t>(rank)];
      comm::SegOps ops = bench::vec_sai::seg_ops(local, 8192);  // ~64MB
      ops.split = [&local](int seg, int nseg) {
        const int len = static_cast<int>(local.size());
        const int lo = seg * len / nseg, hi = (seg + 1) * len / nseg;
        return std::any(
            bench::vec_sai::Vec(local.begin() + lo, local.begin() + hi));
      };
      (void)co_await comm::ring_reduce_scatter(c, rank, ops);
    };
    s.run_task(comm::run_all_ranks(c, body));
    benchmark::DoNotOptimize(s.events_processed());
  }
}
BENCHMARK(BM_SimulatedRingReduceScatter)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

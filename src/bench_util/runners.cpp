#include "bench_util/runners.hpp"

#include <cmath>

#include "bench_util/sim_speed.hpp"
#include "bench_util/vec_sai.hpp"
#include "comm/collectives.hpp"
#include "obs/export.hpp"

namespace sparker::bench {

using sim::Simulator;
using sim::Task;
using sim::Time;

double p2p_latency_us(const net::ClusterSpec& spec, CommBackend backend) {
  Simulator sim;
  SimSpeedScope speed(sim);
  net::FabricParams fp = spec.fabric;
  fp.gc.enabled = false;  // tiny messages; GC is irrelevant here
  net::Fabric fabric(sim, fp, 2);
  comm::Communicator c(fabric, {0, 1}, link_of(spec, backend), 1);
  net::Message m;
  m.bytes = 8;
  c.post(0, 1, 0, std::move(m));
  auto recv = [](comm::Communicator& cc, Simulator& s) -> Task<Time> {
    (void)co_await cc.recv(1, 0, 0);
    co_return s.now();
  };
  return sim::to_micros(sim.run_task(recv(c, sim)));
}

double p2p_throughput_mbps(const net::ClusterSpec& spec, CommBackend backend,
                           int parallelism, std::uint64_t bytes, int messages,
                           bool gc) {
  Simulator sim;
  SimSpeedScope speed(sim);
  net::FabricParams fp = spec.fabric;
  fp.gc.enabled = gc && fp.gc.enabled;
  net::Fabric fabric(sim, fp, 2);
  comm::Communicator c(fabric, {0, 1}, link_of(spec, backend), parallelism);
  for (int ch = 0; ch < parallelism; ++ch) {
    for (int i = 0; i < messages; ++i) {
      net::Message m;
      m.bytes = bytes;
      c.post(0, 1, ch, std::move(m));
    }
  }
  // Sustained rate over many back-to-back messages per channel; the
  // pipeline-fill fraction is O(1/messages).
  auto consumer = [](comm::Communicator& cc, int ch, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await cc.recv(1, 0, ch);
  };
  sim.run_task(sim::run_each(sim, parallelism, [&](int ch) {
    return consumer(c, ch, messages);
  }));
  const double total_bytes =
      static_cast<double>(bytes) * parallelism * messages;
  return total_bytes / sim::to_seconds(sim.now()) / 1e6;
}

double reduce_scatter_seconds(const net::ClusterSpec& spec, RsOptions opt) {
  Simulator sim;
  SimSpeedScope speed(sim);
  net::FabricParams fp = spec.fabric;
  const int per_host = spec.executors_per_node;
  const int hosts = (opt.executors + per_host - 1) / per_host;
  net::Fabric fabric(sim, fp, hosts);
  auto infos = comm::enumerate_executors(hosts, per_host);
  infos.resize(static_cast<std::size_t>(opt.executors));
  const std::vector<int> rank_to_host =
      opt.topology_aware ? comm::rank_map_by_hostname(infos)
                         : comm::rank_map_by_executor_id(infos);
  comm::Communicator c(fabric, rank_to_host, link_of(spec, opt.backend),
                       opt.parallelism);

  const int len = 4096;  // real elements per rank (scaled)
  const double bytes_scale =
      static_cast<double>(opt.message_bytes) / (len * sizeof(std::int64_t));
  std::vector<Vec> locals(static_cast<std::size_t>(opt.executors));
  for (int r = 0; r < opt.executors; ++r) {
    auto& v = locals[static_cast<std::size_t>(r)];
    v.resize(len);
    for (int i = 0; i < len; ++i) {
      v[static_cast<std::size_t>(i)] = r * len + i;
    }
  }
  const double merge_bw = spec.rates.merge_bw;
  const comm::AlgoId algo =
      opt.algo == comm::AlgoId::kAuto ? rs_tuner_pick(spec, opt) : opt.algo;
  auto body = [&](int rank) -> Task<void> {
    const Vec& local = locals[static_cast<std::size_t>(rank)];
    const comm::SegOps ops =
        vec_sai::seg_ops(local, bytes_scale, [merge_bw](std::uint64_t b) {
          return sim::transfer_time(static_cast<double>(b), merge_bw);
        });
    (void)co_await comm::reduce_scatter(algo, c, rank, ops);
  };
  sim.run_task(comm::run_all_ranks(c, body));
  return sim::to_seconds(sim.now());
}

comm::AlgoId rs_tuner_pick(const net::ClusterSpec& spec,
                           const RsOptions& opt) {
  return comm::pick_algo(
      comm::CollectiveOp::kReduceScatter,
      comm::cost_inputs(spec, link_of(spec, opt.backend), opt.message_bytes,
                        opt.executors, opt.parallelism));
}

AggBenchResult aggregation_bench(const net::ClusterSpec& spec,
                                 engine::AggMode mode,
                                 std::uint64_t message_bytes,
                                 comm::AlgoId algo) {
  Simulator sim;
  SimSpeedScope speed(sim);
  engine::Cluster cl(sim, spec);
  cl.config().agg_mode = mode;
  cl.config().collective_algo = algo;
  const int partitions = spec.total_cores();
  const int len = 2048;  // real int64s per array (scaled)
  const double bytes_scale =
      static_cast<double>(message_bytes) / (len * sizeof(std::int64_t));
  auto gen = [len](int pid) {
    std::vector<Vec> rows(1);
    rows[0].resize(len);
    for (int i = 0; i < len; ++i) {
      rows[0][static_cast<std::size_t>(i)] = pid * len + i;
    }
    return rows;
  };
  engine::CachedRdd<Vec> rdd(partitions, cl.num_executors(), gen);
  rdd.materialize();

  const double merge_bw = spec.rates.merge_bw;
  engine::TreeAggSpec<Vec, Vec> tree;
  tree.zero = Vec(static_cast<std::size_t>(len), 0);
  tree.seq_op = vec_sai::add;
  tree.comb_op = vec_sai::add;
  tree.bytes = [bytes_scale](const Vec& v) {
    return static_cast<std::uint64_t>(
        static_cast<double>(v.size() * sizeof(std::int64_t)) * bytes_scale);
  };
  tree.partition_cost = [message_bytes, merge_bw](int,
                                                  const std::vector<Vec>& rows) {
    // Summing `rows` arrays of the modeled size at memory bandwidth.
    return sim::transfer_time(
        static_cast<double>(message_bytes) * static_cast<double>(rows.size()),
        merge_bw);
  };

  engine::AggMetrics m;
  if (mode == engine::AggMode::kSplit) {
    engine::SplitAggSpec<Vec, Vec, Vec> split;
    split.base = tree;
    vec_sai::set_callbacks(split);
    auto job = [&]() -> Task<Vec> {
      co_return co_await engine::split_aggregate(cl, rdd, split, &m);
    };
    (void)sim.run_task(job());
  } else {
    auto job = [&]() -> Task<Vec> {
      co_return co_await engine::tree_aggregate(cl, rdd, tree, &m);
    };
    (void)sim.run_task(job());
  }
  AggBenchResult r;
  r.total_s = sim::to_seconds(m.total());
  r.compute_s = sim::to_seconds(m.compute_time());
  r.reduce_s = sim::to_seconds(m.reduce_time());
  return r;
}

E2eResult run_e2e(const net::ClusterSpec& spec, engine::AggMode mode,
                  const ml::Workload& workload, int iterations,
                  const E2eOptions& opt) {
  Simulator sim;
  SimSpeedScope speed(sim);
  engine::EngineConfig cfg;
  cfg.agg_mode = mode;
  cfg.trace.enabled = opt.trace || !opt.trace_out.empty();
  engine::Cluster cl(sim, spec, cfg);
  auto job = [&]() -> Task<ml::WorkloadRun> {
    co_return co_await ml::run_workload(cl, workload, iterations);
  };
  const ml::WorkloadRun run = sim.run_task(job());
  E2eResult r{sim::to_seconds(run.total), run.breakdown, std::nullopt};
  if (cfg.trace.enabled) {
    r.traced = obs::phase_breakdown(cl.trace());
    if (!opt.trace_out.empty()) {
      obs::write_chrome_trace(cl.trace(), opt.trace_out);
    }
  }
  return r;
}

net::ClusterSpec aws_with_cores(int cores) {
  net::ClusterSpec spec = net::ClusterSpec::aws(1);
  if (cores <= 96) {
    // Paper: "We shrink the number of cores for each executor to 4 for
    // intra-node configuration".
    spec.num_nodes = 1;
    spec.cores_per_executor = std::min(4, cores);
    spec.executors_per_node = std::max(1, cores / spec.cores_per_executor);
  } else {
    spec = net::ClusterSpec::aws(cores / 96);
  }
  return spec;
}

net::ClusterSpec bic_with_nodes(int nodes) { return net::ClusterSpec::bic(nodes); }

}  // namespace sparker::bench

#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

/// \file metrics.hpp
/// Named counters, gauges and histograms for the simulated cluster.
///
/// The MetricsRegistry is the cluster-lifetime accumulation point that
/// absorbs what used to live as loose fields scattered across job-local
/// structs: engine jobs publish their per-job AggMetrics into it on
/// completion (see engine/aggregate.cpp), the health monitor mirrors its
/// transition counts, and instrumented layers record latency histograms.
/// AggMetrics itself remains as a thin per-job compatibility view; anything
/// that wants totals across jobs reads the registry.
///
/// The registry is always on (it never touches simulated time, so it cannot
/// perturb results) and fully deterministic: std::map keeps iteration in
/// name order, making to_json() byte-stable across identical runs.

namespace sparker::obs {

/// Fixed-shape log2-bucket histogram of non-negative int64 samples.
/// Bucket b counts samples v with bit_width(v) == b (bucket 0 holds v <= 0).
struct Histogram {
  static constexpr int kBuckets = 64;

  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::array<std::uint64_t, kBuckets> buckets{};

  void observe(std::int64_t v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    int b = 0;
    for (std::uint64_t u = v > 0 ? static_cast<std::uint64_t>(v) : 0; u != 0;
         u >>= 1) {
      ++b;
    }
    ++buckets[static_cast<std::size_t>(b < kBuckets ? b : kBuckets - 1)];
  }

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

class MetricsRegistry {
 public:
  /// Monotonic counter. Returns a stable reference (std::map never moves
  /// nodes), so hot paths may resolve a counter once and bump the int64
  /// directly.
  std::int64_t& counter(const std::string& name) { return counters_[name]; }
  void add(const std::string& name, std::int64_t delta) {
    counters_[name] += delta;
  }
  std::int64_t counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Last-write-wins gauge.
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  double gauge_value(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const Histogram* find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  /// Deterministic JSON snapshot (names sorted; histograms summarized as
  /// count/sum/min/max/mean plus the non-empty log2 buckets).
  std::string to_json() const {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [k, v] : counters_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + k + "\": " + std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [k, v] : gauges_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + k + "\": " + buf;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [k, h] : histograms_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + k + "\": {\"count\": " + std::to_string(h.count) +
             ", \"sum\": " + std::to_string(h.sum);
      if (h.count) {
        out += ", \"min\": " + std::to_string(h.min) +
               ", \"max\": " + std::to_string(h.max);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", h.mean());
        out += ", \"mean\": ";
        out += buf;
        out += ", \"log2_buckets\": {";
        bool bfirst = true;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
          if (!n) continue;
          if (!bfirst) out += ", ";
          bfirst = false;
          out += '"';
          out += std::to_string(b);
          out += "\": ";
          out += std::to_string(n);
        }
        out += "}";
      }
      out += "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sparker::obs

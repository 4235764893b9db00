#pragma once

// Shared plumbing of the repo benchmark: clocks, order statistics, the
// metric report every workload fills, and the in-memory span recorder the
// traced run wraps around its calls into the library.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace skipweb {
namespace api {}
namespace core {}
namespace net {}
namespace persist {}
namespace seq {}
namespace serve {}
namespace util {}
namespace workloads {}
}  // namespace skipweb

namespace perfbench {

namespace api = skipweb::api;
namespace core = skipweb::core;
namespace net = skipweb::net;
namespace persist = skipweb::persist;
namespace seq = skipweb::seq;
namespace serve = skipweb::serve;
namespace util = skipweb::util;
namespace workloads = skipweb::workloads;

using clk = std::chrono::steady_clock;

inline std::uint64_t ns_between(clk::time_point a, clk::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
inline double secs_since(clk::time_point t0) {
  return static_cast<double>(ns_between(t0, clk::now())) * 1e-9;
}

// Nearest-rank quantile (q in [0,1]) of a sample; partially sorts the
// argument in place.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}
template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

// Timings are read from the least-disturbed rounds of a run. Shared hosts
// show slow phases of several seconds (other tenants) in which every round
// runs up to ~1.4x slower; a run spans many rounds, so the fast tail of the
// per-round figures measures the code and the slow phases drop out.
// Rates take the 90th percentile of the rounds, times the 10th.
template <typename T>
double fast_rate(std::vector<T> v) {
  return quantile(v, 0.9);
}
template <typename T>
double fast_time(std::vector<T> v) {
  return quantile(v, 0.1);
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// What one invocation reports. `failed` counts ops the library flagged
// (failed / timed_out / degraded) plus ops whose answer disagreed with the
// oracle; `mismatches` is the oracle share of it.
struct report {
  struct metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  // Prints the metric (with the sample count behind it, when it has one)
  // and records it for the result object.
  void add(std::string name, double value, std::string unit, std::uint64_t samples = 0) {
    say(name, value, unit, samples);
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void say(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) const {
    if (samples != 0) {
      std::printf("  %-40s %14.4f %-6s (n=%llu)\n", name.c_str(), value, unit.c_str(),
                  static_cast<unsigned long long>(samples));
    } else {
      std::printf("  %-40s %14.4f %s\n", name.c_str(), value, unit.c_str());
    }
  }
  // The spread of the per-round rates behind ops_per_s.
  void say_rounds(const std::vector<double>& rates) const {
    if (rates.empty()) return;
    const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    std::printf("  %-40s %14.4f %-6s (min %.4f, max %.4f)\n", "round ops_per_s spread",
                (*hi - *lo) / median(rates), "ratio", *lo, *hi);
  }
  void flag(std::uint64_t flagged, std::uint64_t wrong) {
    failed += flagged + wrong;
    mismatches += wrong;
  }
};

// --- spans --------------------------------------------------------------------

// One recorded span: a call the benchmark made into a library module.
struct span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;      // (thread << 40) | index
  std::uint64_t parent;  // 0 = root
  std::uint64_t op;      // op id within its tape (0 when not per-op)
};

// In-memory span recorder with one buffer per thread (no locking on the
// record path). Spans are kept up to a fixed cap per thread and counted as
// dropped beyond it, so a long traced phase cannot exhaust memory.
class tracer {
 public:
  static constexpr std::size_t cap_per_thread = std::size_t{1} << 21;

  explicit tracer(std::size_t threads) : bufs_(threads), t0_(clk::now()) {
    for (auto& b : bufs_) b.reserve(4096);
  }

  [[nodiscard]] std::uint64_t now_ns() const { return ns_between(t0_, clk::now()); }

  // Opens a span on thread `t`; returns its id for children and close().
  std::uint64_t open(std::size_t t, const char* name, std::uint64_t parent, std::uint64_t op = 0) {
    auto& b = bufs_[t];
    const std::uint64_t id = (static_cast<std::uint64_t>(t) << 40) | (b.size() + 1);
    if (b.size() < cap_per_thread) {
      b.push_back({name, now_ns(), 0, id, parent, op});
    } else {
      ++dropped_;
    }
    return id;
  }
  void close(std::uint64_t id) {
    auto& b = bufs_[id >> 40];
    const std::size_t i = (id & ((std::uint64_t{1} << 40) - 1)) - 1;
    if (i < b.size()) b[i].end_ns = now_ns();
  }

  [[nodiscard]] std::vector<span> all() const {
    std::vector<span> out;
    for (const auto& b : bufs_) out.insert(out.end(), b.begin(), b.end());
    return out;
  }
  // Durations (ns) of every recorded span called `name`.
  [[nodiscard]] std::vector<std::uint64_t> durations(const std::string& name) const {
    std::vector<std::uint64_t> out;
    for (const auto& b : bufs_) {
      for (const auto& s : b) {
        if (name == s.name) out.push_back(s.end_ns - s.start_ns);
      }
    }
    return out;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

  // Counts recorded at the same boundaries as the spans (messages, results,
  // cache hits, ...), accumulated by name; thread-safe.
  void count(const std::string& name, double v) {
    const std::lock_guard lk(counts_mu_);
    counts_[name] += v;
  }
  [[nodiscard]] double counted(const std::string& name) const {
    const std::lock_guard lk(counts_mu_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool write_chrome(const std::string& path, const std::string& context_json) const;
  // Per-name count, total and self time (total minus child coverage).
  void print_summary() const;

 private:
  std::vector<std::vector<span>> bufs_;
  clk::time_point t0_;
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex counts_mu_;
  std::map<std::string, double> counts_;
};

// RAII span; a null tracer makes it a no-op, so traced and untraced runs
// share one code path.
class scoped_span {
 public:
  scoped_span(tracer* tr, std::size_t thread, const char* name, std::uint64_t parent,
              std::uint64_t op = 0)
      : tr_(tr), id_(tr != nullptr ? tr->open(thread, name, parent, op) : 0) {}
  ~scoped_span() {
    if (tr_ != nullptr) tr_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  tracer* tr_;
  std::uint64_t id_;
};

// --- run configuration ----------------------------------------------------------

struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;  // snapshots and trace files go here
};

// One timed phase of a workload: how long to serve, and the tracer (null
// for the untraced run that produces the end-to-end metrics).
struct phase {
  double seconds;
  tracer* tr = nullptr;
  int setups = 3;  // set-up repetitions (search_1m, multidim); hot_mixed sets up every round
};

// Each workload fills `out` with the end-to-end metrics (when `e2e`) and
// counts attempts and failures; returns the measured ops/s for the
// trace-overhead comparison.
double run_search_1m(const run_config& cfg, const phase& ph, report& out, bool e2e);
double run_hot_mixed(const run_config& cfg, const phase& ph, report& out, bool e2e);
double run_multidim(const run_config& cfg, const phase& ph, report& out, bool e2e);

// The traced layer suite: every per-layer metric, measured on the inputs of
// the workload that exercises the layer.
void run_layers(const run_config& cfg, tracer& tr, report& out);

}  // namespace perfbench

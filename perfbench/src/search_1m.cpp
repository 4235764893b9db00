// search_1m: the paper's headline 1-D query at n = 2^20 — bulk-built
// skipweb1d, made restartable through index_options::snapshot_path, served
// from host 0 by serve::executor with 2 workers calling nearest_batch in
// groups of 24, then restarted from the snapshot.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "api/registry.h"
#include "common.h"
#include "inputs.h"
#include "net/network.h"
#include "serve/executor.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kRoundProbes = std::size_t{1} << 18;
constexpr std::size_t kBatch = 24;
constexpr std::size_t kThreads = 2;
constexpr int kMinRounds = 3;
constexpr std::size_t kRestartSample = 4096;
const net::host_id kOrigin{0};

}  // namespace

api::nn_result nn_oracle(const std::vector<std::uint64_t>& sorted, std::uint64_t q) {
  api::nn_result r;
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), q);
  if (it != sorted.begin()) {
    r.has_pred = true;
    r.pred = *(it - 1);
  }
  if (it != sorted.end()) {
    r.has_succ = true;
    r.succ = *it;
  }
  return r;
}

search_inputs make_search_inputs(std::uint64_t seed, std::size_t probes) {
  search_inputs in;
  util::rng r(seed);
  in.keys = workloads::uniform_keys(search_keys, r);
  in.sorted = in.keys;
  std::sort(in.sorted.begin(), in.sorted.end());
  in.probes = workloads::query_stream(in.keys, probes, seed);
  return in;
}

double run_search_1m(const run_config& cfg, const phase& ph, report& out, bool e2e) {
  tracer* tr = ph.tr;
  const auto in = make_search_inputs(cfg.seed, kRoundProbes);
  const std::string path = cfg.work_dir + "/search_1m.snap";
  const auto opts = api::index_options{}.snapshot_path(path);

  // Timed phase. The deployment is set up `setups` times — one make_index
  // call builds, compacts and saves (the snapshot is removed first, or the
  // call would restore instead) — and each deployment serves an equal share
  // of the time in identical rounds over one probe tape. Every round is
  // followed by one restart from the snapshot: a second make_index on the
  // same path restores through mmap, then answers a first query. Spreading
  // the set-ups over the phase samples them across the host's quiet and
  // busy spells, like the rounds.
  const std::size_t n = in.probes.size();
  serve::executor ex(kThreads);
  std::vector<api::nn_result> res(n), first;
  std::vector<std::vector<std::uint32_t>> lat(kThreads);
  std::vector<std::uint32_t> round_lat;
  std::vector<api::op_stats> sums(kThreads);
  std::vector<std::uint64_t> flags(kThreads, 0);
  std::vector<double> rates, p50s, p99s, restarts;
  std::uint64_t wrong = 0, ops = 0, restart_checks = 0;
  double messages_per_op = 0.0, load_per_kop = 0.0, bytes_per_key = 0.0;
  std::vector<double> setups;
  std::unique_ptr<net::network> net;
  std::unique_ptr<api::distributed_index> idx;
  const int deployments = std::max(ph.setups, 1);
  int round = 0;
  const auto phase_t0 = clk::now();
  for (int d = 0; d < deployments; ++d) {
    idx.reset();
    net.reset();
    std::filesystem::remove(path);
    auto keys = in.keys;
    net = std::make_unique<net::network>(1);
    const auto t0 = clk::now();
    {
      const scoped_span sp(tr, 0, "api.make_index", 0);
      idx = api::make_index("skipweb1d", std::move(keys), opts, *net);
    }
    setups.push_back(secs_since(t0));
    if (d == 0) bytes_per_key = idx->footprint().bytes_per_key(search_keys);
    const double until = ph.seconds * (d + 1) / deployments;
    for (; round < kMinRounds || secs_since(phase_t0) < until; ++round) {
      if (round == 0) net->reset_traffic();
      {
        const scoped_span rsp(tr, 0, "serve.run", 0, static_cast<std::uint64_t>(round));
        const auto t0 = clk::now();
        ex.for_slices(n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
          const scoped_span ws(tr, w + 1, "serve.worker_slice", rsp.id());
          auto& l = lat[w];
          l.clear();
          l.reserve(hi - lo);
          api::op_stats sum;
          std::uint64_t fl = 0;
          std::vector<std::uint64_t> group;
          group.reserve(kBatch);
          for (std::size_t base = lo; base < hi; base += kBatch) {
            const std::size_t cnt = std::min(kBatch, hi - base);
            group.assign(in.probes.begin() + static_cast<std::ptrdiff_t>(base),
                         in.probes.begin() + static_cast<std::ptrdiff_t>(base + cnt));
            const auto b0 = clk::now();
            std::vector<api::nn_result> r;
            {
              const scoped_span bs(tr, w + 1, "api.nearest_batch", ws.id(), base);
              r = idx->nearest_batch(group, kOrigin);
            }
            // Every op of a batch completes when the call returns.
            const auto d = static_cast<std::uint32_t>(ns_between(b0, clk::now()));
            for (std::size_t i = 0; i < cnt; ++i) {
              l.push_back(d);
              sum += r[i].stats;
              fl += flagged(r[i].stats) ? 1 : 0;
              res[base + i] = r[i];
            }
          }
          sums[w] = sum;
          flags[w] += fl;
        });
        rates.push_back(static_cast<double>(n) / secs_since(t0));
      }
      ops += n;
      round_lat.clear();
      for (const auto& l : lat) round_lat.insert(round_lat.end(), l.begin(), l.end());
      p50s.push_back(quantile(round_lat, 0.50) * 1e-3);
      p99s.push_back(quantile(round_lat, 0.99) * 1e-3);
      if (round == 0) {
        api::op_stats total;
        for (const auto& s : sums) total += s;
        messages_per_op = static_cast<double>(total.messages) / static_cast<double>(n);
        load_per_kop = static_cast<double>(net->congestion_profile().max_visits) * 1000.0 /
                       static_cast<double>(n);
        first = res;
      } else {
        for (std::size_t i = 0; i < n; ++i) wrong += same_nn(res[i], first[i]) ? 0 : 1;
      }

      net::network rnet(1);
      const auto t0 = clk::now();
      std::unique_ptr<api::distributed_index> ridx;
      api::nn_result r0;
      {
        const scoped_span sp(tr, 0, "api.make_index.restore", 0);
        ridx = api::make_index("skipweb1d", {}, opts, rnet);
      }
      {
        const scoped_span sp(tr, 0, "api.nearest.first", 0);
        r0 = ridx->nearest(in.probes[0], kOrigin);
      }
      restarts.push_back(secs_since(t0));
      // The restarted index must answer as the built one did.
      wrong += same_nn(r0, first[0]) ? 0 : 1;
      const std::size_t sample = round == 0 ? kRestartSample : 0;
      for (std::size_t j = 0; j < sample; ++j) {
        wrong += same_nn(ridx->nearest(in.probes[j], kOrigin), first[j]) ? 0 : 1;
      }
      restart_checks += sample + 1;
    }
  }
  std::filesystem::remove(path);

  // Correctness: the first round's answers against the sorted key set (later
  // rounds were compared with the first above).
  for (std::size_t i = 0; i < n; ++i) {
    wrong += same_nn(first[i], nn_oracle(in.sorted, in.probes[i])) ? 0 : 1;
  }
  std::uint64_t flagged_ops = 0;
  for (const auto f : flags) flagged_ops += f;

  out.attempted += ops + restart_checks;
  out.flag(flagged_ops, wrong);
  const double ops_per_s = fast_rate(rates);
  if (e2e) {
    out.add("ops_per_s", ops_per_s, "1/s", rates.size());
    out.say_rounds(rates);
    out.add("p50_us", fast_time(p50s), "us", ops);
    out.add("p99_us", fast_time(p99s), "us", ops);
    out.add("messages_per_op", messages_per_op, "count", n);
    out.add("max_host_load_per_kop", load_per_kop, "count", n);
    out.add("bytes_per_key", bytes_per_key, "B");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("setup_s", fast_time(setups), "s", setups.size());
    out.add("restart_s", fast_time(restarts), "s", restarts.size());
  }
  return ops_per_s;
}

}  // namespace perfbench

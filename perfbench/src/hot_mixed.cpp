// hot_mixed: bucket_skipweb at n = 2^16 under skewed traffic with updates.
// One serial client issues, from host 0, 80% nearest on Zipf(1.1) stored-key
// probes, 10% inserts of fresh keys and 10% erases of keys it inserted
// itself (LIFO), with serve::route_cache attached (default options) and a
// lognormal(1000 ns, 0.5) per-hop latency model. Every round deploys afresh,
// so every round replays the same tape on the same structure.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "api/registry.h"
#include "common.h"
#include "inputs.h"
#include "net/latency.h"
#include "net/network.h"
#include "serve/route_cache.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kTape = 100000;
constexpr double kZipf = 1.1;
// The probe stream is cut into segments, each Zipf over its own seeded
// popularity order: the hot set drifts, and one run averages over several
// hot sets instead of measuring whichever keys one draw made hot.
constexpr std::size_t kHotSets = 8;
constexpr int kMinRounds = 3;
constexpr std::size_t kRestartSample = 4096;
const net::host_id kOrigin{0};

// Members are destroyed in reverse order: the index, then the network, then
// the cache the network points at.
struct deployment {
  serve::route_cache cache;
  std::unique_ptr<net::network> net;
  std::unique_ptr<api::distributed_index> idx;
};

std::unique_ptr<deployment> deploy(const hot_inputs& in, std::uint64_t seed, tracer* tr,
                                   double& setup_s) {
  auto d = std::make_unique<deployment>();
  d->net = std::make_unique<net::network>(1);
  d->net->set_latency_model(net::latency_model::lognormal(1000, 0.5, seed));
  auto keys = in.keys;
  const auto t0 = clk::now();
  {
    const scoped_span sp(tr, 0, "api.make_index", 0);
    d->idx = api::make_index("bucket_skipweb", std::move(keys),
                             api::index_options{}.route_cache(&d->cache), *d->net);
  }
  setup_s = secs_since(t0);
  return d;
}

api::nn_result set_flanks(const std::set<std::uint64_t>& live, std::uint64_t q) {
  api::nn_result r;
  const auto it = live.upper_bound(q);
  if (it != live.begin()) {
    r.has_pred = true;
    r.pred = *std::prev(it);
  }
  if (it != live.end()) {
    r.has_succ = true;
    r.succ = *it;
  }
  return r;
}

}  // namespace

hot_inputs make_hot_inputs(std::uint64_t seed, std::size_t ops) {
  hot_inputs in;
  util::rng r(seed);
  auto all = workloads::uniform_keys(hot_keys + ops / 4, r);
  in.keys.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(hot_keys));
  const std::vector<std::uint64_t> fresh(all.begin() + static_cast<std::ptrdiff_t>(hot_keys),
                                         all.end());
  std::vector<std::uint64_t> probes;
  for (std::size_t k = 0; k < kHotSets; ++k) {
    const std::uint64_t sub = util::rng::stream(seed, 100 + k).next_u64();
    const auto part = workloads::zipf_query_stream(in.keys, ops / kHotSets + 1, sub, kZipf);
    probes.insert(probes.end(), part.begin(), part.end());
  }
  auto pick = util::rng::stream(seed, 7);
  std::vector<std::uint64_t> mine;  // keys this client inserted, newest last
  std::size_t pi = 0, fi = 0;
  in.tape.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const double u = pick.uniform_real();
    if (u < 0.8 || (mine.empty() && fi == fresh.size())) {
      in.tape.push_back({hot_op::nearest, probes[pi++]});
    } else if ((u < 0.9 || mine.empty()) && fi < fresh.size()) {
      mine.push_back(fresh[fi++]);
      in.tape.push_back({hot_op::insert, mine.back()});
    } else {
      in.tape.push_back({hot_op::erase, mine.back()});
      mine.pop_back();
    }
  }
  return in;
}

double run_hot_mixed(const run_config& cfg, const phase& ph, report& out, bool e2e) {
  tracer* tr = ph.tr;
  const auto in = make_hot_inputs(cfg.seed, kTape);
  const std::size_t n = in.tape.size();
  std::vector<std::uint64_t> initial = in.keys;
  std::sort(initial.begin(), initial.end());

  // The snapshot every round restarts from: a fresh deployment, saved.
  const std::string path = cfg.work_dir + "/hot_mixed.snap";
  std::filesystem::remove(path);
  double unused = 0.0;
  api::save_index_snapshot(*deploy(in, cfg.seed, nullptr, unused)->idx, path);
  const auto ropts = api::index_options{}.snapshot_path(path);

  std::unique_ptr<deployment> dep;
  std::vector<double> setups, rates, p50s, p99s, restarts;
  std::vector<std::uint32_t> lat;
  std::vector<std::uint64_t> sim(n);
  std::vector<api::nn_result> res(n), first;
  std::uint64_t wrong = 0, flagged_ops = 0, ops = 0, restart_checks = 0;
  std::size_t first_size = 0;
  double messages_per_op = 0.0, load_per_kop = 0.0, sim_p99_us = 0.0, bytes_per_key = 0.0;
  const auto phase_t0 = clk::now();
  for (int round = 0; round < kMinRounds || secs_since(phase_t0) < ph.seconds; ++round) {
    dep.reset();
    double setup_s = 0.0;
    dep = deploy(in, cfg.seed, tr, setup_s);
    setups.push_back(setup_s);
    if (round == 0) bytes_per_key = dep->idx->footprint().bytes_per_key(hot_keys);
    dep->net->reset_traffic();
    dep->cache.reset_stats();
    auto& idx = *dep->idx;
    // Per-kind receipt totals, recorded as trace counts after the round.
    api::op_stats by_kind[3];
    std::uint64_t count_kind[3] = {0, 0, 0};
    lat.clear();
    lat.reserve(n);
    {
      const scoped_span rsp(tr, 0, "hot_mixed.round", 0, static_cast<std::uint64_t>(round));
      const auto t0 = clk::now();
      for (std::size_t i = 0; i < n; ++i) {
        const auto& op = in.tape[i];
        const auto o0 = clk::now();
        api::op_stats st;
        switch (op.kind) {
          case hot_op::nearest: {
            const scoped_span sp(tr, 0, "api.nearest", rsp.id(), i);
            res[i] = idx.nearest(op.key, kOrigin);
            st = res[i].stats;
            break;
          }
          case hot_op::insert: {
            const scoped_span sp(tr, 0, "api.insert", rsp.id(), i);
            st = idx.insert(op.key, kOrigin);
            break;
          }
          case hot_op::erase: {
            const scoped_span sp(tr, 0, "api.erase", rsp.id(), i);
            st = idx.erase(op.key, kOrigin);
            break;
          }
        }
        lat.push_back(static_cast<std::uint32_t>(ns_between(o0, clk::now())));
        sim[i] = st.sim_latency_ns;
        flagged_ops += flagged(st) ? 1 : 0;
        by_kind[op.kind] += st;
        ++count_kind[op.kind];
      }
      rates.push_back(static_cast<double>(n) / secs_since(t0));
    }
    ops += n;
    p50s.push_back(quantile(lat, 0.50) * 1e-3);
    p99s.push_back(quantile(lat, 0.99) * 1e-3);
    if (round == 0) {
      const api::op_stats total = by_kind[0] + by_kind[1] + by_kind[2];
      messages_per_op = static_cast<double>(total.messages) / static_cast<double>(n);
      load_per_kop = static_cast<double>(dep->net->congestion_profile().max_visits) * 1000.0 /
                     static_cast<double>(n);
      auto s = sim;
      sim_p99_us = quantile(s, 0.99) * 1e-3;
      first = res;
      first_size = idx.size();
      if (tr != nullptr) {
        tr->count("api.insert.ops", static_cast<double>(count_kind[hot_op::insert]));
        tr->count("api.insert.messages", static_cast<double>(by_kind[hot_op::insert].messages));
        tr->count("api.erase.ops", static_cast<double>(count_kind[hot_op::erase]));
        tr->count("api.erase.messages", static_cast<double>(by_kind[hot_op::erase].messages));
        tr->count("net.sim_ns", static_cast<double>(total.sim_latency_ns));
        tr->count("net.messages", static_cast<double>(total.messages));
        tr->count("net.sim_p99_us", sim_p99_us);
        tr->count("serve.cache_hits", static_cast<double>(dep->cache.hits()));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (in.tape[i].kind == hot_op::nearest) wrong += same_nn(res[i], first[i]) ? 0 : 1;
      }
      wrong += idx.size() == first_size ? 0 : 1;
    }

    // Restart: make_index on the snapshot path restores the fresh
    // deployment, which must answer as the initial key set does.
    net::network rnet(1);
    const auto t0 = clk::now();
    std::unique_ptr<api::distributed_index> ridx;
    api::nn_result r0;
    {
      const scoped_span sp(tr, 0, "api.make_index.restore", 0);
      ridx = api::make_index("bucket_skipweb", {}, ropts, rnet);
    }
    {
      const scoped_span sp(tr, 0, "api.nearest.first", 0);
      r0 = ridx->nearest(in.keys[0], kOrigin);
    }
    restarts.push_back(secs_since(t0));
    wrong += same_nn(r0, nn_oracle(initial, in.keys[0])) ? 0 : 1;
    const std::size_t sample = round == 0 ? kRestartSample : 0;
    for (std::size_t j = 0; j < sample; ++j) {
      const std::uint64_t q = in.keys[j] + 1;
      wrong += same_nn(ridx->nearest(q, kOrigin), nn_oracle(initial, q)) ? 0 : 1;
    }
    restart_checks += sample + 1;
  }
  std::filesystem::remove(path);

  // Correctness: replay the tape against a live std::set.
  std::set<std::uint64_t> live(in.keys.begin(), in.keys.end());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& op = in.tape[i];
    if (op.kind == hot_op::nearest) {
      wrong += same_nn(first[i], set_flanks(live, op.key)) ? 0 : 1;
    } else if (op.kind == hot_op::insert) {
      live.insert(op.key);
    } else {
      live.erase(op.key);
    }
  }
  wrong += first_size == live.size() ? 0 : 1;

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
    out.say("sim_p99_us (latency model; deterministic)", sim_p99_us, "us", n);
  }
  return ops_per_s;
}

}  // namespace perfbench

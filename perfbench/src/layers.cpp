// The traced layer suite. Every per-layer metric comes from spans and
// counts recorded around this file's own calls into the library's public
// functions, on the inputs of the workload that exercises the layer:
//
//   search_1m  the cost ladder — direct core::skipweb_1d → registry
//              distributed_index → nearest_batch → executor T=1 → T=2 — and
//              the persist steps (compact, save, map restore, first query);
//   net        cursor hops and network::commit replayed from receipts the
//              search_1m and hot_mixed queries really committed;
//   hot_mixed  one traced deployment: per-op insert/erase spans, simulated
//              latency and route-cache counts;
//   multidim   one traced deployment: per-op range/NN/top-k/intersect
//              spans, plus direct core::skip_quadtree locate_batch.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "api/registry.h"
#include "common.h"
#include "core/skip_quadtree.h"
#include "core/skipweb_1d.h"
#include "inputs.h"
#include "net/cursor.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/receipt.h"
#include "serve/executor.h"
#include "serve/route_cache.h"

namespace perfbench {

namespace {

constexpr std::size_t kLadderProbes = std::size_t{1} << 17;
constexpr std::size_t kBatch = 24;
constexpr int kReps = 3;              // each ladder step: median of this many passes
constexpr std::size_t kRecorded = 20000;  // receipts recorded for the net ladder
const net::host_id kOrigin{0};

// A hop cache that never absorbs and keeps every committed route: how the
// net ladder obtains real hop sequences through the public seam.
class receipt_recorder final : public net::hop_cache {
 public:
  [[nodiscard]] bool absorbs(net::host_id) const override { return false; }
  [[nodiscard]] std::size_t absorb_depth() const override { return 0; }
  void on_commit(const net::traffic_receipt& r) override {
    std::vector<std::uint32_t> hops;
    hops.reserve(r.size());
    r.for_each([&](net::host_id h) { hops.push_back(h.value); });
    routes.push_back(std::move(hops));
  }
  std::vector<std::vector<std::uint32_t>> routes;
};

// Median wall-clock of kReps runs of `pass`, in ns per `ops`, recorded as
// one span per pass.
double ns_per_op(tracer& tr, const char* name, std::size_t ops, const std::function<void()>& pass) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = clk::now();
    {
      const scoped_span sp(&tr, 0, name, 0, static_cast<std::uint64_t>(r));
      pass();
    }
    v.push_back(static_cast<double>(ns_between(t0, clk::now())) / static_cast<double>(ops));
  }
  return median(v);
}

std::uint64_t total_hops(const std::vector<std::vector<std::uint32_t>>& routes) {
  std::uint64_t h = 0;
  for (const auto& r : routes) h += r.size();
  return h;
}

// One query-plane cursor per recorded route, hopping along it; the cursor's
// destructor commits the receipt.
void replay_routes(net::network& net, const std::vector<std::vector<std::uint32_t>>& routes) {
  for (const auto& route : routes) {
    net::cursor c(net, kOrigin);
    for (const auto h : route) c.move_to(net::host_id{h});
  }
}

std::size_t hosts_for(const std::vector<std::vector<std::uint32_t>>& routes) {
  std::uint32_t top = 0;
  for (const auto& r : routes) {
    for (const auto h : r) top = std::max(top, h);
  }
  return static_cast<std::size_t>(top) + 1;
}

void say_step(const char* step, double ns, double prev) {
  if (prev > 0.0) {
    std::printf("  ladder %-34s %10.1f ns/op  (%+.1f)\n", step, ns, ns - prev);
  } else {
    std::printf("  ladder %-34s %10.1f ns/op\n", step, ns);
  }
}

// --- search_1m: the cost ladder and persist ----------------------------------------

void search_ladder(const run_config& cfg, tracer& tr, report& out,
                   std::vector<std::vector<std::uint32_t>>& routes) {
  const auto in = make_search_inputs(cfg.seed, kLadderProbes);
  const std::size_t n = in.probes.size();
  std::uint64_t wrong = 0;
  std::vector<api::nn_result> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = nn_oracle(in.sorted, in.probes[i]);
  const auto check = [&](const std::vector<api::nn_result>& got) {
    for (std::size_t i = 0; i < n; ++i) wrong += same_nn(got[i], ref[i]) ? 0 : 1;
    out.attempted += n;
  };
  const auto batched = [&](const auto& nearest_batch, std::vector<api::nn_result>& got) {
    std::vector<std::uint64_t> group;
    for (std::size_t base = 0; base < n; base += kBatch) {
      const std::size_t cnt = std::min(kBatch, n - base);
      group.assign(in.probes.begin() + static_cast<std::ptrdiff_t>(base),
                   in.probes.begin() + static_cast<std::ptrdiff_t>(base + cnt));
      auto r = nearest_batch(group);
      std::move(r.begin(), r.end(), got.begin() + static_cast<std::ptrdiff_t>(base));
    }
  };
  std::vector<api::nn_result> got(n);

  // Step 1: the core structure, called directly.
  double core_ns = 0.0;
  {
    net::network cnet(1);
    auto keys = in.keys;
    const auto t0 = clk::now();
    std::unique_ptr<core::skipweb_1d> core;
    {
      const scoped_span sp(&tr, 0, "core.build", 0);
      core = std::make_unique<core::skipweb_1d>(std::move(keys), index_seed, cnet,
                                                core::skipweb_1d::placement::tower);
    }
    out.add("core.build_s", secs_since(t0), "s");
    core->compact();
    const auto fp = core->footprint();
    const auto keys_n = static_cast<double>(search_keys);
    out.add("core.link_bytes_per_key", static_cast<double>(fp.link_bytes) / keys_n, "B");
    out.add("core.arena_bytes_per_key", static_cast<double>(fp.arena_bytes) / keys_n, "B");

    core_ns = ns_per_op(tr, "core.nearest", n, [&] {
      for (std::size_t i = 0; i < n; ++i) got[i] = core->nearest(in.probes[i], kOrigin);
    });
    check(got);
    api::op_stats sum;
    for (const auto& r : got) sum += r.stats;
    out.add("core.nearest_ns", core_ns, "ns", n);
    out.add("core.comparisons_per_op", static_cast<double>(sum.comparisons) / n, "count", n);
    out.add("core.host_visits_per_op", static_cast<double>(sum.host_visits) / n, "count", n);
    const double batch_ns = ns_per_op(tr, "core.nearest_batch", n, [&] {
      batched([&](const std::vector<std::uint64_t>& g) { return core->nearest_batch(g, kOrigin); },
              got);
    });
    check(got);
    out.add("core.nearest_batch_ns_per_op", batch_ns, "ns", n);
    say_step("core::skipweb_1d::nearest", core_ns, 0.0);
    say_step("core::skipweb_1d::nearest_batch", batch_ns, core_ns);

    // Real routes for the net ladder.
    receipt_recorder rec;
    cnet.attach_hop_cache(&rec);
    for (std::size_t i = 0; i < kRecorded; ++i) (void)core->nearest(in.probes[i], kOrigin);
    cnet.attach_hop_cache(nullptr);
    routes = std::move(rec.routes);
  }

  // Steps 2-5: the registry, its batch path, and the executor.
  const std::string path = cfg.work_dir + "/layers_search_1m.snap";
  std::filesystem::remove(path);
  {
    auto rnet = std::make_unique<net::network>(1);
    auto keys = in.keys;
    std::unique_ptr<api::distributed_index> idx;
    {
      const scoped_span sp(&tr, 0, "api.make_index", 0);
      idx = api::make_index("skipweb1d", std::move(keys), api::index_options{}, *rnet);
    }
    const double api_ns = ns_per_op(tr, "api.nearest", n, [&] {
      for (std::size_t i = 0; i < n; ++i) got[i] = idx->nearest(in.probes[i], kOrigin);
    });
    check(got);
    out.add("api.nearest_ns", api_ns, "ns", n);
    out.add("api.adapter_ns", api_ns - core_ns, "ns", n);
    say_step("api distributed_index::nearest", api_ns, core_ns);
    const double api_batch_ns = ns_per_op(tr, "api.nearest_batch", n, [&] {
      batched([&](const std::vector<std::uint64_t>& g) { return idx->nearest_batch(g, kOrigin); },
              got);
    });
    check(got);
    say_step("api distributed_index::nearest_batch", api_batch_ns, api_ns);
    double exec_ns[3] = {0.0, 0.0, 0.0};
    for (const std::size_t t : {std::size_t{1}, std::size_t{2}}) {
      serve::executor ex(t);
      exec_ns[t] = ns_per_op(tr, t == 1 ? "serve.run_nearest.t1" : "serve.run_nearest.t2", n, [&] {
        got = ex.run_nearest(*idx, in.probes, kOrigin, kBatch).results;
      });
      check(got);
    }
    say_step("serve::executor T=1", exec_ns[1], api_batch_ns);
    say_step("serve::executor T=2", exec_ns[2], exec_ns[1]);
    out.add("serve.executor_overhead_ns_per_op", exec_ns[1] - api_batch_ns, "ns", n);
    out.add("serve.scaling_t2", exec_ns[1] / exec_ns[2], "ratio");

    // Worker skew at T=2: each worker's slice is a span.
    {
      serve::executor ex(2);
      std::vector<double> skews;
      for (int r = 0; r < kReps; ++r) {
        std::uint64_t slice_ns[2] = {0, 0};
        const scoped_span job(&tr, 0, "serve.for_slices", 0, static_cast<std::uint64_t>(r));
        ex.for_slices(n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
          const scoped_span ws(&tr, w + 1, "serve.worker_slice", job.id());
          const auto t0 = clk::now();
          std::vector<std::uint64_t> group;
          for (std::size_t base = lo; base < hi; base += kBatch) {
            const std::size_t cnt = std::min(kBatch, hi - base);
            group.assign(in.probes.begin() + static_cast<std::ptrdiff_t>(base),
                         in.probes.begin() + static_cast<std::ptrdiff_t>(base + cnt));
            auto res = idx->nearest_batch(group, kOrigin);
            std::move(res.begin(), res.end(), got.begin() + static_cast<std::ptrdiff_t>(base));
          }
          slice_ns[w] = ns_between(t0, clk::now());
        });
        check(got);
        const auto slow = static_cast<double>(std::max(slice_ns[0], slice_ns[1]));
        const double mean = static_cast<double>(slice_ns[0] + slice_ns[1]) / 2;
        skews.push_back(slow / mean);
      }
      out.add("serve.worker_skew", median(skews), "ratio");
    }

    // Persist: compact, save, then restore through mmap and answer once.
    auto t0 = clk::now();
    {
      const scoped_span sp(&tr, 0, "persist.compact", 0);
      idx->compact();
    }
    out.add("persist.compact_s", secs_since(t0), "s");
    t0 = clk::now();
    {
      const scoped_span sp(&tr, 0, "persist.save", 0);
      api::save_index_snapshot(*idx, path);
    }
    out.add("persist.save_s", secs_since(t0), "s");
    out.add("persist.snapshot_mib",
            static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0), "MiB");
  }
  {
    net::network mnet(1);
    auto t0 = clk::now();
    std::unique_ptr<api::distributed_index> idx;
    {
      const scoped_span sp(&tr, 0, "persist.restore_map", 0);
      idx = api::restore_index(path, persist::restore_mode::map, mnet);
    }
    out.add("persist.restore_map_s", secs_since(t0), "s");
    t0 = clk::now();
    api::nn_result r0;
    {
      const scoped_span sp(&tr, 0, "persist.first_query", 0);
      r0 = idx->nearest(in.probes[0], kOrigin);
    }
    out.add("persist.first_query_us",
            static_cast<double>(ns_between(t0, clk::now())) * 1e-3, "us");
    wrong += same_nn(r0, ref[0]) ? 0 : 1;
    out.attempted += 1;
  }
  std::filesystem::remove(path);
  out.flag(0, wrong);
}

// --- net: cursor hops and commits over recorded routes -----------------------------------

void net_ladder(const run_config& cfg, tracer& tr, report& out,
                const std::vector<std::vector<std::uint32_t>>& search_routes,
                const std::vector<std::vector<std::uint32_t>>& hot_routes) {
  const std::uint64_t hops = total_hops(search_routes);
  net::network hnet(hosts_for(search_routes));
  const auto replay_search = [&] { replay_routes(hnet, search_routes); };
  const double hop_ns = ns_per_op(tr, "net.cursor.move_to", hops, replay_search);
  hnet.set_latency_model(net::latency_model::lognormal(1000, 0.5, cfg.seed));
  const double hop_lat_ns = ns_per_op(tr, "net.cursor.move_to.latency", hops, replay_search);
  hnet.set_latency_model(net::latency_model::none());
  out.add("net.hop_ns", hop_ns, "ns", hops);
  out.add("net.hop_latency_ns", hop_lat_ns, "ns", hops);
  say_step("net cursor hop, model off (per hop)", hop_ns, 0.0);
  say_step("net cursor hop, lognormal model", hop_lat_ns, hop_ns);

  // network::commit of the same receipts, from 1 and from 2 threads.
  std::vector<net::traffic_receipt> receipts(search_routes.size());
  for (std::size_t i = 0; i < search_routes.size(); ++i) {
    for (const auto h : search_routes[i]) receipts[i].record(net::host_id{h});
  }
  const double commit_t1 = ns_per_op(tr, "net.commit.t1", receipts.size(), [&] {
    for (const auto& r : receipts) hnet.commit(r);
  });
  const double commit_t2 = ns_per_op(tr, "net.commit.t2", receipts.size(), [&] {
    std::thread other([&] {
      for (const auto& r : receipts) hnet.commit(r);
    });
    for (const auto& r : receipts) hnet.commit(r);
    other.join();
  });
  out.add("net.commit_ns_t1", commit_t1, "ns", receipts.size());
  out.add("net.commit_ns_t2", commit_t2, "ns", receipts.size());
  say_step("net network::commit, 1 thread", commit_t1, 0.0);
  say_step("net network::commit, 2 threads", commit_t2, commit_t1);

  // Route cache off and on over hot_mixed's Zipf routes (cache trained by
  // an untimed pass first).
  const std::uint64_t hot_hops = total_hops(hot_routes);
  net::network cnet(hosts_for(hot_routes));
  const auto replay_hot = [&] { replay_routes(cnet, hot_routes); };
  const double off_ns = ns_per_op(tr, "net.cursor.move_to.hot", hot_hops, replay_hot);
  serve::route_cache cache;
  cnet.attach_hop_cache(&cache);
  replay_hot();
  const double on_ns = ns_per_op(tr, "net.cursor.move_to.hot.cached", hot_hops, replay_hot);
  cnet.attach_hop_cache(nullptr);
  out.add("serve.cache_absorb_ns", on_ns - off_ns, "ns", hot_hops);
  say_step("net hot_mixed hop, cache off (per hop)", off_ns, 0.0);
  say_step("net hot_mixed hop, route_cache on", on_ns, off_ns);
}

// Zipf nearest routes of the hot_mixed deployment (no latency model, so the
// routes are the cache-free ones).
std::vector<std::vector<std::uint32_t>> hot_routes(const run_config& cfg) {
  const auto in = make_hot_inputs(cfg.seed, kRecorded * 5 / 4);
  receipt_recorder rec;
  net::network hnet(1);
  auto keys = in.keys;
  const auto idx = api::make_index("bucket_skipweb", std::move(keys),
                                   api::index_options{}.route_cache(&rec), hnet);
  rec.routes.clear();  // the build's commits
  for (const auto& op : in.tape) {
    if (op.kind == hot_op::nearest) (void)idx->nearest(op.key, kOrigin);
  }
  hnet.attach_hop_cache(nullptr);
  return std::move(rec.routes);
}

// --- hot_mixed and multidim: one traced deployment each ---------------------------

// The median duration of the spans called `span`, in microseconds.
void add_span_p50(report& out, const tracer& tr, const std::string& metric, const char* span) {
  auto d = tr.durations(span);
  out.add(metric, quantile(d, 0.5) * 1e-3, "us", d.size());
}
double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void hot_layers(const run_config& cfg, tracer& tr, report& out) {
  (void)run_hot_mixed(cfg, phase{0.0, &tr, 1}, out, false);
  add_span_p50(out, tr, "api.insert_us_p50", "api.insert");
  add_span_p50(out, tr, "api.erase_us_p50", "api.erase");
  out.add("api.insert_messages_per_op",
          ratio(tr.counted("api.insert.messages"), tr.counted("api.insert.ops")), "count");
  out.add("api.erase_messages_per_op",
          ratio(tr.counted("api.erase.messages"), tr.counted("api.erase.ops")), "count");
  out.add("net.sim_ns_per_hop", ratio(tr.counted("net.sim_ns"), tr.counted("net.messages")),
          "ns");
  out.add("net.sim_p99_us", tr.counted("net.sim_p99_us"), "us");
  const double hits = tr.counted("serve.cache_hits");
  out.add("serve.cache_hit_rate", ratio(hits, hits + tr.counted("net.messages")), "ratio");
}

void md_layers(const run_config& cfg, tracer& tr, report& out) {
  (void)run_multidim(cfg, phase{0.0, &tr, 1}, out, false);
  // Metric stem (also the prefix of the counts run_multidim records) and
  // the span of the call it measures.
  const std::pair<std::string, const char*> rows[] = {
      {"api.spatial_range", "api.orthogonal_range"},
      {"api.spatial_nn", "api.approx_nn"},
      {"api.string_top_k", "api.top_k"},
      {"api.string_intersect", "api.intersect"}};
  for (const auto& [stem, span] : rows) {
    add_span_p50(out, tr, stem + "_us_p50", span);
    out.add(stem + "_messages_per_result",
            ratio(tr.counted(stem + ".messages"), tr.counted(stem + ".results")), "count");
  }

  // Direct core quadtree, batched point location.
  const auto in = make_md_inputs(cfg.seed);
  std::vector<seq::qpoint<2>> pts, probes;
  for (const auto& p : in.points) pts.push_back(api::from_spatial<2>(p));
  const auto& probes_sp = in.sets[0].locate_probes;
  for (const auto& p : probes_sp) probes.push_back(api::from_spatial<2>(p));
  net::network qnet(64);
  const core::skip_quadtree<2> quad(pts, index_seed, qnet);
  std::vector<bool> found(probes.size());
  const double ns = ns_per_op(tr, "core.quadtree.locate_batch", probes.size(), [&] {
    std::vector<seq::qpoint<2>> group;
    for (std::size_t base = 0; base < probes.size(); base += kBatch) {
      const std::size_t cnt = std::min(kBatch, probes.size() - base);
      group.assign(probes.begin() + static_cast<std::ptrdiff_t>(base),
                   probes.begin() + static_cast<std::ptrdiff_t>(base + cnt));
      const auto res = quad.locate_batch(group, kOrigin);
      for (std::size_t i = 0; i < cnt; ++i) found[base + i] = res[i].is_point;
    }
  });
  out.add("core.quadtree_locate_batch_ns_per_op", ns, "ns", probes.size());
  std::vector<api::spatial_point> sorted = in.points;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const bool stored = std::binary_search(sorted.begin(), sorted.end(), probes_sp[i]);
    wrong += found[i] == stored ? 0 : 1;
  }
  out.attempted += probes.size();
  out.flag(0, wrong);
}

}  // namespace

void run_layers(const run_config& cfg, tracer& tr, report& out) {
  std::printf("layers: search_1m cost ladder (n = %zu keys, %zu probes)\n", search_keys,
              kLadderProbes);
  std::vector<std::vector<std::uint32_t>> search_routes;
  search_ladder(cfg, tr, out, search_routes);
  std::printf("layers: net micro-ladder (%zu recorded routes per workload)\n",
              search_routes.size());
  net_ladder(cfg, tr, out, search_routes, hot_routes(cfg));
  std::printf("layers: hot_mixed traced deployment\n");
  hot_layers(cfg, tr, out);
  std::printf("layers: multidim traced deployment\n");
  md_layers(cfg, tr, out);
}

}  // namespace perfbench

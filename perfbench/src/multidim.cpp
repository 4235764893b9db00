// multidim: one serial client drives two indexes from host 0 — a
// skip_quadtree2 over 2^16 clustered 2-D points (locate_batch of 24,
// small-box orthogonal_range, approx_nn) and a string_skiptrie over 2^14
// log lines (top_k with k = 8 on prefix_stream prefixes, 2-term intersect).
// The op mix below splits the wall-clock about evenly between the two.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string_view>

#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "common.h"
#include "inputs.h"
#include "net/network.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

// Per-round op mix (ops of each kind; locates come in batches of 24). The
// counts put about half the wall-clock on each index, and keep the string
// ops near 2% of all ops so that p99 falls inside the intersect latencies
// rather than on the edge between the two indexes' distributions.
constexpr std::size_t kBatch = 24;
constexpr std::size_t kLocateBatches = 300;
constexpr std::size_t kRanges = 5000;
constexpr std::size_t kNns = 4000;
constexpr std::size_t kTopKs = 160;
constexpr std::size_t kIntersects = 225;
constexpr std::size_t kTopK = 8;
constexpr std::size_t kHosts = 64;
constexpr std::size_t kRestartSample = 256;
const net::host_id kOrigin{0};

enum md_kind : std::uint8_t { k_locate, k_range, k_nn, k_topk, k_intersect };

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}
std::uint64_t digest(const std::vector<api::spatial_point>& v) {
  std::uint64_t h = v.size();
  for (const auto& p : v) h = mix(mix(h, p.x[0]), p.x[1]);
  return h;
}
std::uint64_t digest(const std::vector<std::string>& v) {
  std::uint64_t h = v.size();
  for (const auto& s : v) h = mix(h, std::hash<std::string>{}(s));
  return h;
}

struct deployment {
  std::unique_ptr<net::network> sp_net, str_net;
  std::unique_ptr<api::spatial_index> sp;
  std::unique_ptr<api::string_index> str;
};

api::index_options md_opts() {
  return api::index_options{}.initial_hosts(kHosts);
}

std::unique_ptr<deployment> deploy(const md_inputs& in, tracer* tr, double& setup_s) {
  auto d = std::make_unique<deployment>();
  d->sp_net = std::make_unique<net::network>(1);
  d->str_net = std::make_unique<net::network>(1);
  auto pts = in.points;
  auto lines = in.lines;
  const auto t0 = clk::now();
  {
    const scoped_span sp(tr, 0, "api.make_spatial_index", 0);
    d->sp = api::make_spatial_index("skip_quadtree2", std::move(pts), md_opts(), *d->sp_net);
  }
  {
    const scoped_span sp(tr, 0, "api.make_string_index", 0);
    d->str = api::make_string_index("string_skiptrie", std::move(lines), md_opts(), *d->str_net);
  }
  setup_s = secs_since(t0);
  return d;
}

// Brute-force oracles over sorted copies of the inputs.
struct oracle {
  std::vector<api::spatial_point> pts;  // lexicographic = x-major
  std::vector<std::string> lines;       // lexicographic
  std::map<std::string, std::vector<std::uint32_t>, std::less<>> postings;

  explicit oracle(const md_inputs& in) : pts(in.points), lines(in.lines) {
    std::sort(pts.begin(), pts.end());
    std::sort(lines.begin(), lines.end());
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      auto toks = api::string_tokens(lines[i]);
      std::sort(toks.begin(), toks.end());
      toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
      for (auto& t : toks) postings[t].push_back(i);
    }
  }
  [[nodiscard]] bool stored(const api::spatial_point& p) const {
    return std::binary_search(pts.begin(), pts.end(), p);
  }
  [[nodiscard]] std::vector<api::spatial_point> range(const api::spatial_box& b) const {
    std::vector<api::spatial_point> out;
    api::spatial_point lo{};
    lo.x[0] = b.lo.x[0];
    for (auto it = std::lower_bound(pts.begin(), pts.end(), lo);
         it != pts.end() && it->x[0] <= b.hi.x[0]; ++it) {
      if (it->x[1] >= b.lo.x[1] && it->x[1] <= b.hi.x[1]) out.push_back(*it);
    }
    return out;
  }
  // Squared distance to the nearest stored point: scan outward in x order,
  // stopping once the x gap alone exceeds the best distance.
  [[nodiscard]] api::spatial_dist2 nn_dist2(const api::spatial_point& q) const {
    const auto mid = std::lower_bound(pts.begin(), pts.end(), q);
    api::spatial_dist2 best = ~api::spatial_dist2{0};
    const auto gap2 = [&](const api::spatial_point& p) {
      const std::uint64_t d = p.x[0] > q.x[0] ? p.x[0] - q.x[0] : q.x[0] - p.x[0];
      return static_cast<api::spatial_dist2>(d) * d;
    };
    for (auto it = mid; it != pts.end() && gap2(*it) <= best; ++it) {
      best = std::min(best, api::spatial_point_dist2(*it, q, 2));
    }
    for (auto it = mid; it != pts.begin();) {
      --it;
      if (gap2(*it) > best) break;
      best = std::min(best, api::spatial_point_dist2(*it, q, 2));
    }
    return best;
  }
  [[nodiscard]] std::vector<std::string> top_k(const std::string& prefix) const {
    std::vector<std::string> hits;
    for (auto it = std::lower_bound(lines.begin(), lines.end(), prefix);
         it != lines.end() && std::string_view(*it).substr(0, prefix.size()) == prefix; ++it) {
      hits.push_back(*it);
    }
    std::sort(hits.begin(), hits.end(), [](const std::string& a, const std::string& b) {
      const auto wa = api::string_weight(a), wb = api::string_weight(b);
      return wa != wb ? wa > wb : a < b;
    });
    if (hits.size() > kTopK) hits.resize(kTopK);
    return hits;
  }
  [[nodiscard]] std::vector<std::string> intersect(const std::vector<std::string>& terms) const {
    std::vector<std::uint32_t> acc;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const auto it = postings.find(terms[t]);
      if (it == postings.end()) return {};
      if (t == 0) {
        acc = it->second;
      } else {
        std::vector<std::uint32_t> next;
        std::set_intersection(acc.begin(), acc.end(), it->second.begin(), it->second.end(),
                              std::back_inserter(next));
        acc = std::move(next);
      }
    }
    std::vector<std::string> out;
    for (const auto i : acc) out.push_back(lines[i]);
    return out;
  }
};

}  // namespace

md_inputs make_md_inputs(std::uint64_t seed) {
  md_inputs in;
  util::rng r(seed);
  in.points = workloads::spatial_points(2, md_points, /*clustered=*/true, r);
  in.lines = workloads::log_lines(md_strings, r);
  // Boxes that would hold ~4 points under a uniform spread; the clusters
  // make most of them richer.
  const auto half = static_cast<std::uint64_t>(std::sqrt(4.0 / static_cast<double>(md_points)) *
                                               0.5 * static_cast<double>(seq::coord_span));
  for (std::size_t k = 0; k < md_query_sets; ++k) {
    const std::uint64_t sub = util::rng::stream(seed, 200 + k).next_u64();
    auto pick = util::rng::stream(sub, 9);
    md_queries q;
    for (std::size_t i = 0; i < kLocateBatches * kBatch; ++i) {
      q.locate_probes.push_back(i % 2 == 0 ? in.points[pick.index(in.points.size())]
                                           : workloads::spatial_probe(2, pick));
    }
    for (std::size_t i = 0; i < kRanges; ++i) {
      q.boxes.push_back(api::spatial_box_around(in.points[pick.index(in.points.size())], half, 2));
    }
    q.nn_probes = workloads::spatial_query_stream(2, kNns, sub);
    q.prefixes = workloads::prefix_stream(in.lines, kTopKs, sub);
    for (std::size_t i = 0; i < kIntersects; ++i) {
      auto toks = api::string_tokens(in.lines[pick.index(in.lines.size())]);
      toks.resize(4);  // level, service, verb, resource: the shared vocabularies
      const std::size_t a = pick.index(4);
      const std::size_t b = (a + 1 + pick.index(3)) % 4;
      q.conjunctions.push_back({toks[a], toks[b]});
    }
    in.sets.push_back(std::move(q));
  }
  return in;
}

// Answers of one round, kept whole for the oracle.
struct md_answers {
  std::vector<api::spatial_locate_result> locate;
  std::vector<std::vector<api::spatial_point>> range;
  std::vector<api::spatial_point> nn;
  std::vector<std::vector<std::string>> top_k, intersect;
  std::vector<std::uint64_t> digests;  // one per tape entry
};

double run_multidim(const run_config& cfg, const phase& ph, report& out, bool e2e) {
  tracer* tr = ph.tr;
  const auto in = make_md_inputs(cfg.seed);
  const int sets = static_cast<int>(md_query_sets);

  // A fixed interleaving of the op kinds, shuffled once per seed.
  std::vector<md_kind> tape;
  tape.insert(tape.end(), kLocateBatches, k_locate);
  tape.insert(tape.end(), kRanges, k_range);
  tape.insert(tape.end(), kNns, k_nn);
  tape.insert(tape.end(), kTopKs, k_topk);
  tape.insert(tape.end(), kIntersects, k_intersect);
  {
    auto sh = util::rng::stream(cfg.seed, 10);
    std::shuffle(tape.begin(), tape.end(), sh.engine());
  }
  const std::size_t round_ops = kLocateBatches * kBatch + kRanges + kNns + kTopKs + kIntersects;

  // Timed phase. The deployment is set up `setups` times, and each one
  // serves an equal share of the time (spreading the set-ups over the
  // phase samples them across the host's quiet and busy spells). Round r
  // serves query set r % sets; the first `sets` rounds are the ledger and
  // oracle rounds, later ones must repeat their answers. Every round is
  // followed by one restart from snapshots of the first deployment (the
  // workload never writes, so the served deployment is the saved one).
  const std::string sp_path = cfg.work_dir + "/multidim_spatial.snap";
  const std::string str_path = cfg.work_dir + "/multidim_string.snap";
  std::vector<md_answers> first(md_query_sets);
  std::vector<double> rates, p50s, p99s, restarts;
  std::vector<std::uint32_t> lat;
  std::vector<std::uint64_t> digests(tape.size());
  std::uint64_t wrong = 0, flagged_ops = 0, ops = 0, restart_checks = 0;
  api::op_stats by_kind[5];
  std::uint64_t results[5] = {0, 0, 0, 0, 0};
  std::unique_ptr<deployment> dep;
  std::vector<double> setups;
  double bytes_per_key = 0.0;
  std::uint64_t busiest = 0;
  const int deployments = std::max(ph.setups, 1);
  int round = 0;
  const auto phase_t0 = clk::now();
  for (int d = 0; d < deployments; ++d) {
    dep.reset();
    double setup_s = 0.0;
    dep = deploy(in, tr, setup_s);
    setups.push_back(setup_s);
    if (d == 0) {
      auto fp = dep->sp->footprint();
      fp += dep->str->footprint();
      bytes_per_key = fp.bytes_per_key(md_points + md_strings);
      std::filesystem::remove(sp_path);
      std::filesystem::remove(str_path);
      api::save_spatial_snapshot(*dep->sp, sp_path);
      api::save_string_snapshot(*dep->str, str_path);
      dep->sp_net->reset_traffic();
      dep->str_net->reset_traffic();
    }
    const auto& sp = *dep->sp;
    const auto& str = *dep->str;
    const double until = ph.seconds * (d + 1) / deployments;
    for (; round < sets || secs_since(phase_t0) < until; ++round) {
      const md_queries& q = in.sets[static_cast<std::size_t>(round % sets)];
      md_answers& ans = first[static_cast<std::size_t>(round % sets)];
      const bool ledger = round < sets;
      std::size_t next[5] = {0, 0, 0, 0, 0};
      lat.clear();
      lat.reserve(round_ops);
      {
        const scoped_span rsp(tr, 0, "multidim.round", 0, static_cast<std::uint64_t>(round));
        const auto t0 = clk::now();
        for (std::size_t i = 0; i < tape.size(); ++i) {
          const md_kind kind = tape[i];
          const std::size_t j = next[kind]++;
          const auto o0 = clk::now();
          std::uint64_t h = 0;
          std::size_t done = 1;  // ops completed by this call
          api::op_stats st;
          std::size_t got = 0;
          switch (kind) {
            case k_locate: {
              const std::vector<api::spatial_point> group(
                  q.locate_probes.begin() + static_cast<std::ptrdiff_t>(j * kBatch),
                  q.locate_probes.begin() + static_cast<std::ptrdiff_t>((j + 1) * kBatch));
              std::vector<api::spatial_locate_result> r;
              {
                const scoped_span s(tr, 0, "api.locate_batch", rsp.id(), i);
                r = sp.locate_batch(group, kOrigin);
              }
              done = kBatch;
              for (const auto& x : r) {
                h = mix(mix(h, x.cell), x.found ? 1 : 0);
                st += x.stats;
                flagged_ops += flagged(x.stats) ? 1 : 0;
              }
              got = r.size();
              if (ledger) ans.locate.insert(ans.locate.end(), r.begin(), r.end());
              break;
            }
            case k_range: {
              api::op_result<std::vector<api::spatial_point>> r;
              {
                const scoped_span s(tr, 0, "api.orthogonal_range", rsp.id(), i);
                r = sp.orthogonal_range(q.boxes[j], kOrigin);
              }
              h = digest(r.value);
              st = r.stats;
              got = r.value.size();
              if (ledger) ans.range.push_back(std::move(r.value));
              break;
            }
            case k_nn: {
              api::op_result<api::spatial_point> r;
              {
                const scoped_span s(tr, 0, "api.approx_nn", rsp.id(), i);
                r = sp.approx_nn(q.nn_probes[j], kOrigin);
              }
              h = digest(std::vector<api::spatial_point>{r.value});
              st = r.stats;
              got = 1;
              if (ledger) ans.nn.push_back(r.value);
              break;
            }
            case k_topk: {
              api::op_result<std::vector<std::string>> r;
              {
                const scoped_span s(tr, 0, "api.top_k", rsp.id(), i);
                r = str.top_k(q.prefixes[j], kTopK, kOrigin);
              }
              h = digest(r.value);
              st = r.stats;
              got = r.value.size();
              if (ledger) ans.top_k.push_back(std::move(r.value));
              break;
            }
            case k_intersect: {
              api::op_result<std::vector<std::string>> r;
              {
                const scoped_span s(tr, 0, "api.intersect", rsp.id(), i);
                r = str.intersect(q.conjunctions[j], kOrigin);
              }
              h = digest(r.value);
              st = r.stats;
              got = r.value.size();
              if (ledger) ans.intersect.push_back(std::move(r.value));
              break;
            }
          }
          const auto d = static_cast<std::uint32_t>(ns_between(o0, clk::now()));
          lat.insert(lat.end(), done, d);
          digests[i] = h;
          if (kind != k_locate) flagged_ops += flagged(st) ? 1 : 0;
          if (ledger) {
            by_kind[kind] += st;
            results[kind] += got;
          }
        }
        rates.push_back(static_cast<double>(round_ops) / secs_since(t0));
      }
      ops += round_ops;
      p50s.push_back(quantile(lat, 0.50) * 1e-3);
      p99s.push_back(quantile(lat, 0.99) * 1e-3);
      if (ledger) {
        ans.digests = digests;
      } else {
        for (std::size_t i = 0; i < tape.size(); ++i) wrong += digests[i] == ans.digests[i] ? 0 : 1;
      }
      if (round == sets - 1) {
        busiest = std::max(dep->sp_net->congestion_profile().max_visits,
                           dep->str_net->congestion_profile().max_visits);
      }

      // Restart: restore each index onto a fresh network through the
      // registries' snapshot_path and answer a first query.
      net::network sp_net(1), str_net(1);
      const auto r_t0 = clk::now();
      std::unique_ptr<api::spatial_index> rsp_idx;
      std::unique_ptr<api::string_index> rstr;
      api::spatial_locate_result r0;
      {
        const scoped_span s(tr, 0, "api.make_spatial_index.restore", 0);
        rsp_idx = api::make_spatial_index("skip_quadtree2", {}, md_opts().snapshot_path(sp_path),
                                          sp_net);
      }
      {
        const scoped_span s(tr, 0, "api.make_string_index.restore", 0);
        rstr = api::make_string_index("string_skiptrie", {}, md_opts().snapshot_path(str_path),
                                      str_net);
      }
      {
        const scoped_span s(tr, 0, "api.locate.first", 0);
        r0 = rsp_idx->locate(q.locate_probes[0], kOrigin);
      }
      restarts.push_back(secs_since(r_t0));
      // The restarted indexes must answer as the served ones did.
      wrong += r0.cell == ans.locate[0].cell && r0.found == ans.locate[0].found ? 0 : 1;
      restart_checks += 1;
      if (round == 0) {
        for (std::size_t j = 0; j < kRestartSample; ++j) {
          const auto r = rsp_idx->locate(q.locate_probes[j], kOrigin);
          wrong += r.cell == ans.locate[j].cell && r.found == ans.locate[j].found ? 0 : 1;
        }
        for (std::size_t j = 0; j < ans.top_k.size(); ++j) {
          wrong += rstr->top_k(q.prefixes[j], kTopK, kOrigin).value == ans.top_k[j] ? 0 : 1;
        }
        restart_checks += kRestartSample + ans.top_k.size();
      }
    }
  }
  std::filesystem::remove(sp_path);
  std::filesystem::remove(str_path);

  // Ledger over the first `sets` rounds (one per query set).
  const auto ledger_ops = static_cast<double>(round_ops * md_query_sets);
  api::op_stats total;
  for (const auto& s : by_kind) total += s;
  const double messages_per_op = static_cast<double>(total.messages) / ledger_ops;
  const double load_per_kop = static_cast<double>(busiest) * 1000.0 / ledger_ops;
  if (tr != nullptr) {
    const char* names[5] = {"api.spatial_locate", "api.spatial_range", "api.spatial_nn",
                            "api.string_top_k", "api.string_intersect"};
    for (int k = 0; k < 5; ++k) {
      tr->count(std::string(names[k]) + ".messages", static_cast<double>(by_kind[k].messages));
      tr->count(std::string(names[k]) + ".results", static_cast<double>(results[k]));
    }
  }

  // Correctness: the ledger rounds against brute-force scans.
  const oracle orc(in);
  for (std::size_t k = 0; k < md_query_sets; ++k) {
    const md_queries& q = in.sets[k];
    const md_answers& a = first[k];
    for (std::size_t j = 0; j < a.locate.size(); ++j) {
      wrong += a.locate[j].found == orc.stored(q.locate_probes[j]) ? 0 : 1;
    }
    for (std::size_t j = 0; j < a.range.size(); ++j) {
      wrong += a.range[j] == orc.range(q.boxes[j]) ? 0 : 1;
    }
    for (std::size_t j = 0; j < a.nn.size(); ++j) {
      const auto& p = q.nn_probes[j];
      const bool exact = api::spatial_point_dist2(a.nn[j], p, 2) == orc.nn_dist2(p);
      wrong += orc.stored(a.nn[j]) && exact ? 0 : 1;
    }
    for (std::size_t j = 0; j < a.top_k.size(); ++j) {
      wrong += a.top_k[j] == orc.top_k(q.prefixes[j]) ? 0 : 1;
    }
    for (std::size_t j = 0; j < a.intersect.size(); ++j) {
      wrong += a.intersect[j] == orc.intersect(q.conjunctions[j]) ? 0 : 1;
    }
  }

  out.attempted += ops + restart_checks;
  out.flag(flagged_ops, wrong);
  const double ops_per_s = fast_rate(rates);
  if (e2e) {
    out.add("ops_per_s", ops_per_s, "1/s", rates.size());
    out.say_rounds(rates);
    out.add("p50_us", fast_time(p50s), "us", ops);
    out.add("p99_us", fast_time(p99s), "us", ops);
    out.add("messages_per_op", messages_per_op, "count", round_ops * md_query_sets);
    out.add("max_host_load_per_kop", load_per_kop, "count", round_ops * md_query_sets);
    out.add("bytes_per_key", bytes_per_key, "B");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("setup_s", fast_time(setups), "s", setups.size());
    out.add("restart_s", fast_time(restarts), "s", restarts.size());
  }
  return ops_per_s;
}

}  // namespace perfbench

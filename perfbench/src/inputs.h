#pragma once

// Seeded inputs of the three workloads and their brute-force oracles. The
// inputs are generated with src/workloads/ before any timed phase; the same
// seed gives the same inputs, hence the same ledger counts.

#include <cstdint>
#include <string>
#include <vector>

#include "api/op_stats.h"
#include "api/options.h"
#include "api/spatial_index.h"
#include "common.h"

namespace perfbench {

// The structures' own randomness is a deployment setting, fixed at the
// registry default in every run, so --seed varies the inputs only. One
// structure draw alone moves messages_per_op by ~10% and
// max_host_load_per_kop by ~2x at n = 2^18, which would hide any change.
inline const std::uint64_t index_seed = api::index_options{}.seed();

[[nodiscard]] inline bool flagged(const api::op_stats& s) {
  return s.failed || s.timed_out || s.degraded;
}
[[nodiscard]] inline bool same_nn(const api::nn_result& a, const api::nn_result& b) {
  return a.has_pred == b.has_pred && a.has_succ == b.has_succ &&
         (!a.has_pred || a.pred == b.pred) && (!a.has_succ || a.succ == b.succ);
}
// Flanks of q in a sorted key set: the answer every 1-D backend must give.
[[nodiscard]] api::nn_result nn_oracle(const std::vector<std::uint64_t>& sorted, std::uint64_t q);

// --- search_1m ------------------------------------------------------------------

inline constexpr std::size_t search_keys = std::size_t{1} << 20;

struct search_inputs {
  std::vector<std::uint64_t> keys;    // build order
  std::vector<std::uint64_t> sorted;  // oracle
  std::vector<std::uint64_t> probes;  // between stored keys (workloads::query_stream)
};
[[nodiscard]] search_inputs make_search_inputs(std::uint64_t seed, std::size_t probes);

// --- hot_mixed ------------------------------------------------------------------

inline constexpr std::size_t hot_keys = std::size_t{1} << 16;

struct hot_op {
  enum kind_t : std::uint8_t { nearest, insert, erase } kind;
  std::uint64_t key;
};
struct hot_inputs {
  std::vector<std::uint64_t> keys;
  std::vector<hot_op> tape;  // 80% Zipf(1.1) nearest, 10% fresh insert, 10% LIFO erase
};
[[nodiscard]] hot_inputs make_hot_inputs(std::uint64_t seed, std::size_t ops);

// --- multidim -------------------------------------------------------------------

inline constexpr std::size_t md_points = std::size_t{1} << 16;
inline constexpr std::size_t md_strings = std::size_t{1} << 14;

// One query set of the multidim tape. A run cycles through
// md_query_sets of them, drawn from sub-seeds of --seed, so the ledger
// counts average over more prefixes than one round's tape holds.
struct md_queries {
  std::vector<api::spatial_point> locate_probes;  // half stored points, half random
  std::vector<api::spatial_box> boxes;            // small boxes around stored points
  std::vector<api::spatial_point> nn_probes;
  std::vector<std::string> prefixes;                  // workloads::prefix_stream
  std::vector<std::vector<std::string>> conjunctions;  // 2 tokens of one stored line
};
inline constexpr std::size_t md_query_sets = 8;

struct md_inputs {
  std::vector<api::spatial_point> points;
  std::vector<std::string> lines;
  std::vector<md_queries> sets;
};
[[nodiscard]] md_inputs make_md_inputs(std::uint64_t seed);

}  // namespace perfbench

// perfbench: the repo benchmark's measuring program. perfbench/run.py builds
// it and is the entry point; see perfbench/README.md.
//
//   perfbench --workload search_1m|hot_mixed|multidim --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--commit ID]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and traced (the ratio is the tracing overhead), then the traced
// layer suite, and reports the per-layer metrics; spans are written as
// Chrome trace-event JSON into the work directory.

#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct args {
  std::string workload;
  run_config cfg;
  int trace = 0;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload search_1m|hot_mixed|multidim --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.cfg.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--work-dir") {
      a.cfg.work_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload != "search_1m" && a.workload != "hot_mixed" && a.workload != "multidim") {
    usage("unknown workload");
  }
  if (a.cfg.work_dir.empty()) usage("--work-dir is required");
  if (!(a.cfg.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace is 0 or 1");
  return a;
}

double run_workload(const args& a, const phase& ph, report& out, bool e2e) {
  if (a.workload == "search_1m") return run_search_1m(a.cfg, ph, out, e2e);
  if (a.workload == "hot_mixed") return run_hot_mixed(a.cfg, ph, out, e2e);
  return run_multidim(a.cfg, ph, out, e2e);
}

}  // namespace

int main(int argc, char** argv) {
  const args a = parse(argc, argv);
  // A fixed mmap threshold (glibc otherwise raises it after the first large
  // free): every deployment's arenas come from fresh pages and go back to
  // the kernel when it is torn down, so set-up time and peak RSS do not
  // depend on how many rounds or set-ups ran before.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  char context[512];
  std::snprintf(context, sizeof context,
                "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                "\"nproc\":%d,\"hardware_concurrency\":%u,\"build_type\":\"%s\","
                "\"sw_contracts\":%d,\"commit\":\"%s\"}",
                a.workload.c_str(), static_cast<unsigned long long>(a.cfg.seed), a.cfg.seconds,
                a.trace, nproc, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                SW_CONTRACTS, a.commit.c_str());
  std::printf("context %s\n", context);
  // A contracts-on build times the assertions, not the structures.
  if (SW_CONTRACTS != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a build with SW_CONTRACTS=1\n");
    return 3;
  }

  report rep;
  if (a.trace == 0) {
    std::printf("workload %s: end-to-end\n", a.workload.c_str());
    (void)run_workload(a, phase{a.cfg.seconds}, rep, true);
  } else {
    // The workload twice, half the time each: untraced, then traced.
    tracer wtr(4);
    std::printf("workload %s: untraced then traced\n", a.workload.c_str());
    const double plain = run_workload(a, phase{a.cfg.seconds / 2, nullptr, 1}, rep, false);
    const double traced = run_workload(a, phase{a.cfg.seconds / 2, &wtr, 1}, rep, false);
    tracer ltr(4);
    run_layers(a.cfg, ltr, rep);
    rep.add("trace.ops_ratio", traced / plain, "ratio");
    std::printf("spans (workload %s, traced phase):\n", a.workload.c_str());
    wtr.print_summary();
    std::printf("spans (layer suite):\n");
    ltr.print_summary();
    const std::string stem =
        a.cfg.work_dir + "/trace-" + a.workload + "-" + std::to_string(a.cfg.seed);
    if (!wtr.write_chrome(stem + "-workload.json", context) ||
        !ltr.write_chrome(stem + "-layers.json", context)) {
      std::fprintf(stderr, "perfbench: cannot write trace files under %s\n",
                   a.cfg.work_dir.c_str());
      return 1;
    }
    std::printf("trace files: %s-workload.json %s-layers.json\n", stem.c_str(), stem.c_str());
  }

  const bool correct = rep.mismatches == 0;
  std::printf("failed_frac %.6g (%llu of %llu ops; %llu oracle mismatches)\n",
              static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.mismatches));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  // Any disagreement with the oracle fails the run.
  return correct ? 0 : 1;
}

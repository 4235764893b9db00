#include <cstdio>
#include <map>
#include <unordered_map>

#include "common.h"

namespace perfbench {

bool tracer::write_chrome(const std::string& path, const std::string& context_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", context_json.c_str());
  bool first = true;
  for (const auto& s : all()) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                 first ? "" : ",\n", s.name, static_cast<unsigned long long>(s.id >> 40),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void tracer::print_summary() const {
  const auto spans = all();
  // Child coverage per parent: children on one thread do not overlap, and a
  // child on another thread (an executor worker) is charged to its parent
  // only up to the parent's own duration.
  std::unordered_map<std::uint64_t, std::uint64_t> covered;
  for (const auto& s : spans) {
    if (s.parent != 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  struct agg {
    std::uint64_t count = 0, total = 0, self = 0;
  };
  std::map<std::string, agg> by_name;
  for (const auto& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = covered.find(s.id);
    const std::uint64_t child = it == covered.end() ? 0 : std::min(it->second, dur);
    auto& a = by_name[s.name];
    ++a.count;
    a.total += dur;
    a.self += dur - child;
  }
  std::printf("  %-36s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : by_name) {
    std::printf("  %-36s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(a.count), static_cast<double>(a.total) * 1e-6,
                static_cast<double>(a.self) * 1e-6);
  }
  if (dropped() != 0) {
    std::printf("  (%llu spans beyond the recorder cap were not kept)\n",
                static_cast<unsigned long long>(dropped()));
  }
}

}  // namespace perfbench

#include "bench/micro_report.hpp"

#include <cstdio>
#include <thread>

namespace lrc::bench {
namespace {

std::string source_commit() {
  std::string out;
  const std::string cmd = "git -C \"" LRCSIM_SOURCE_DIR
                          "\" describe --always --dirty --abbrev=12 "
                          "2>/dev/null";
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

}  // namespace

std::string provenance_json() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"commit\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"host_cores\": %u}",
                source_commit().c_str(), LRCSIM_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency());
  return buf;
}

int report_gates(const char* bench, std::initializer_list<Gate> gates) {
  bool all_ok = true;
  std::printf("\n");
  for (const Gate& g : gates) {
    std::printf("  %-36s %s\n", g.name, g.ok ? "ok" : "FAIL");
    all_ok = all_ok && g.ok;
  }
  if (all_ok) return 0;
  std::printf("%s: GATE FAILURE\n", bench);
  return 1;
}

}  // namespace lrc::bench

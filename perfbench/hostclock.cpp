#include "perfbench/hostclock.h"

#include <sched.h>

#include <cstdio>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/pipeline.h"

namespace perfbench {
namespace {

// The probe's private memory: every run starts from the same empty
// arena, so it allocates at the same addresses each time.
alignas(64) unsigned char g_arena[4 << 20];
uint64_t g_sink = 0;  // keeps the probe's result alive

}  // namespace

int64_t RunProbe() {
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  {
    std::pmr::monotonic_buffer_resource arena(
        g_arena, sizeof(g_arena), std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::unordered_map<uint64_t, std::pmr::vector<uint32_t>> table(&pool);
    std::pmr::map<uint64_t, std::pmr::string> tree(&pool);
    char digits[24];
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x % 2048].push_back(static_cast<uint32_t>(x));
      if (i % 3 == 0) {
        int n = std::snprintf(digits, sizeof(digits), "%llu",
                              static_cast<unsigned long long>(x));
        tree.insert_or_assign(x % 4096, std::pmr::string(digits, n, &pool));
      }
      auto it = tree.lower_bound(x % 4096);
      if (it != tree.end()) acc += it->second.size();
    }
  }
  g_sink += acc;
  return NowNs() - start;
}

HostClock::HostClock() {
  RunProbe();  // first touch of the arena and code
  RunProbe();
  probes_ns_.push_back(RunProbe());
  segment_start_ns_ = NowNs();
}

Lap HostClock::Next() {
  Lap lap;
  lap.raw_ns = NowNs() - segment_start_ns_;
  const int64_t probe_ns = RunProbe();
  lap.factor = kProbeNominalNs /
               (0.5 * static_cast<double>(probes_ns_.back() + probe_ns));
  probes_ns_.push_back(probe_ns);
  total_s_ += lap.Seconds();
  raw_ns_ += lap.raw_ns;
  segment_start_ns_ = NowNs();
  return lap;
}

void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench

// Host context: thread budget, LLC size, steal time, memory, and the two
// roof probes (registry-kernel peak, stream triad) measured in the same
// run as the numbers they put in context.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/tasking/parallel_for.hpp"

namespace capowbench {

namespace {

std::size_t parse_cache_size(const std::string& s) {
  std::size_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) v <<= 10;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) v <<= 20;
  return v;
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : 1u;
  // The highest-level cache cpu0 reports.
  int best_level = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lf(dir + "/level"), sf(dir + "/size");
    int level = 0;
    std::string size;
    if (!(lf >> level) || !(sf >> size)) continue;
    if (level >= best_level) {
      best_level = level;
      h.llc_bytes = parse_cache_size(size);
      h.llc_source = dir + "/size";
    }
  }
  if (h.llc_bytes == 0) {
    h.llc_bytes = 32u << 20;
    h.llc_source = "unavailable; assumed 32 MiB";
  }
  return h;
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  unsigned long long v[8] = {};
  for (auto& x : v) f >> x;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_frac(const CpuTimes& before, const CpuTimes& after) {
  const auto total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

CpuPin::CpuPin(std::size_t slot) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count <= 0) return;
  int want = static_cast<int>(slot % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double probe_kernel_peak_gflops() {
  const capow::blas::MicroKernel& k = capow::blas::select_kernel();
  constexpr std::size_t kc = 256;  // (mr + nr) * kc * 8 B stays in L1
  std::vector<double> as(k.mr * kc), bs(kc * k.nr), c(k.mr * k.nr, 0.0);
  for (std::size_t i = 0; i < as.size(); ++i) as[i] = 1.0 + 1e-9 * i;
  for (std::size_t i = 0; i < bs.size(); ++i) bs[i] = 1.0 - 1e-9 * i;
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kIters = 4000;
    const double t0 = now_s();
    for (int it = 0; it < kIters; ++it) {
      k.kernel(as.data(), bs.data(), kc, c.data(), k.nr);
    }
    const double dt = now_s() - t0;
    best = std::max(best, 2.0 * k.mr * k.nr * kc * kIters / dt / 1e9);
  }
  // Keep the accumulations observable.
  volatile double sink = c[0];
  (void)sink;
  return best;
}

StreamResult probe_stream(capow::tasking::ThreadPool& pool,
                          std::size_t llc_bytes) {
  StreamResult r;
  r.array_bytes = 4 * llc_bytes;
  const std::size_t n = r.array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const std::size_t chunks = 4 * (pool.worker_count() + 1);
  const std::size_t per = (n + chunks - 1) / chunks;
  auto over = [&](auto&& body) {
    capow::tasking::parallel_for(
        pool, 0, chunks,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t ch = lo; ch < hi; ++ch) {
            const std::size_t i0 = ch * per;
            const std::size_t i1 = std::min(n, i0 + per);
            if (i0 < i1) body(i0, i1);
          }
        },
        1, capow::tasking::Schedule::kDynamic);
  };
  over([&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = 0.5 + rep;
    const double t0 = now_s();
    over([&](std::size_t i0, std::size_t i1) {
      double* pa = a.get();
      const double* pb = b.get();
      const double* pc = c.get();
      for (std::size_t i = i0; i < i1; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(r.array_bytes) / dt / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  r.gbs = best;
  return r;
}

}  // namespace capowbench

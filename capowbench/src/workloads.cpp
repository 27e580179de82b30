// Seeded call lists and the calls themselves.
//
// Every workload draws its call sizes by stratified sampling: the range
// is cut into equal strata and each stratum gets one seeded draw. Two
// seeds therefore run different shapes and operand values with the same
// size distribution, so per-call percentiles compare across seeds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/summa.hpp"
#include "capow/linalg/random.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capowbench {

using capow::linalg::ConstMatrixView;
using capow::linalg::MatrixView;
using capow::linalg::Xoshiro256;

const char* alg_name(Alg a) noexcept {
  switch (a) {
    case Alg::kGemm: return "gemm";
    case Alg::kStrassen: return "strassen";
    case Alg::kCaps: return "caps";
    case Alg::kSumma: return "summa";
    case Alg::kDistCaps: return "dist_caps";
  }
  return "?";
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_u64(i);
    T tmp = v[i - 1];
    v[i - 1] = v[j];
    v[j] = tmp;
  }
}

// Midpoint of stratum i of `strata` equal strata of [lo, hi], moved by a
// seeded jitter of at most +-jitter.
std::size_t stratum_size(std::size_t lo, std::size_t hi, std::size_t i,
                         std::size_t strata, double jitter,
                         Xoshiro256& rng) {
  const double width = static_cast<double>(hi - lo) / strata;
  const double mid = lo + width * (i + 0.5);
  const double v = mid + rng.uniform(-jitter, jitter);
  return static_cast<std::size_t>(
      std::clamp(std::lround(v), static_cast<long>(lo), static_cast<long>(hi)));
}

// The big-call sizes: midpoints of kBigSizes strata of [lo, hi], moved
// down by a seeded jitter of up to 2% of the range, in seeded order.
// An odd count puts the median call in the middle stratum whenever whole
// cycles run. The jitter only goes down so that no seed pushes a size
// over a power of two (2048 here, 512 for dist-CAPS's halves), which
// would add a recursion level and change the call's cost. Sizes are
// 2 mod 4: even, as dist-CAPS needs, and never a multiple of the 2^L
// that Strassen and CAPS halve by, so every seed's calls pad (the padded
// copies are a fifth of recursive_simd's peak RSS).
constexpr std::size_t kBigSizes = 3;
std::vector<std::size_t> big_sizes(std::size_t lo, std::size_t hi,
                                   Xoshiro256& rng) {
  std::vector<std::size_t> s;
  const double width = static_cast<double>(hi - lo) / kBigSizes;
  for (std::size_t i = 0; i < kBigSizes; ++i) {
    const double v = lo + width * (i + 0.5) - rng.uniform(0, 0.02 * (hi - lo));
    s.push_back(((static_cast<std::size_t>(std::lround(v)) - 2) &
                 ~std::size_t{3}) +
                2);
  }
  shuffle(s, rng);
  return s;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : name) h = fnv1a(h, static_cast<unsigned char>(ch));
  Xoshiro256 rng(fnv1a(h, seed));

  if (name == "gemm_dense") {
    // Blocked GEMM over m, n, k in [1536, 2560]: the geometric mean of
    // each shape sits on a stratum midpoint, its aspect is seeded.
    for (std::size_t s : big_sizes(1536, 2560, rng)) {
      const double r1 = rng.uniform(0.88, 1.12);
      const double r2 = rng.uniform(0.88, 1.12);
      auto dim = [&](double v) {
        return static_cast<std::size_t>(
            std::clamp(std::lround(v), 1536l, 2560l));
      };
      w.calls.push_back({Alg::kGemm, dim(s * r1), dim(s * r2),
                         dim(s / (r1 * r2)), false});
    }
  } else if (name == "recursive_simd") {
    // Strassen then CAPS on each seeded n in [1536, 2560].
    w.simd_base = true;
    for (std::size_t s : big_sizes(1536, 2560, rng)) {
      w.calls.push_back({Alg::kStrassen, s, s, s, false});
      w.calls.push_back({Alg::kCaps, s, s, s, false});
    }
  } else if (name == "small_mixed") {
    // 200 strata of n in [48, 512]. Each run of 10 strata holds 6 GEMM,
    // 2 Strassen and 2 CAPS calls, half of each with ABFT detect.
    constexpr std::size_t kCalls = 200;
    std::vector<Call> calls;
    for (std::size_t g = 0; g < kCalls; g += 10) {
      std::vector<Alg> algs = {Alg::kGemm,     Alg::kGemm,     Alg::kGemm,
                               Alg::kGemm,     Alg::kGemm,     Alg::kGemm,
                               Alg::kStrassen, Alg::kStrassen, Alg::kCaps,
                               Alg::kCaps};
      std::vector<bool> abft = {true, true, true, false, false, false,
                                true, false, true, false};
      // Shuffle ABFT within each algorithm's slots, then the slots.
      for (auto [lo, hi] : {std::pair{0, 6}, std::pair{6, 8},
                            std::pair{8, 10}}) {
        std::vector<bool> part(abft.begin() + lo, abft.begin() + hi);
        shuffle(part, rng);
        std::copy(part.begin(), part.end(), abft.begin() + lo);
      }
      std::vector<std::size_t> slot = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
      shuffle(slot, rng);
      for (std::size_t i = 0; i < 10; ++i) {
        const std::size_t n = stratum_size(48, 512, g + i, kCalls,
                                           0.5 * 464.0 / kCalls, rng);
        calls.push_back({algs[slot[i]], n, n, n, abft[slot[i]]});
      }
    }
    shuffle(calls, rng);
    w.calls = std::move(calls);
  } else if (name == "dist_p4") {
    // SUMMA on a 2x2 grid then dist-CAPS on each seeded n in [768, 1280].
    for (std::size_t s : big_sizes(768, 1280, rng)) {
      w.calls.push_back({Alg::kSumma, s, s, s, false});
      w.calls.push_back({Alg::kDistCaps, s, s, s, false});
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  // The serial subset: every call of small_mixed (a cycle takes about as
  // long as the big workloads' middle calls), elsewhere the calls on the
  // middle size, whose shapes the seed draws. small_mixed's serial order
  // is largest first rather than seeded: the arena pools every buffer it
  // hands out and serves a request from the best-fitting pooled buffer,
  // so in this order the first calls size the pool and the peak RSS
  // follows the largest calls instead of the seed's order of sizes.
  if (name == "small_mixed") {
    for (std::size_t i = 0; i < w.calls.size(); ++i) w.serial.push_back(i);
    std::stable_sort(w.serial.begin(), w.serial.end(),
                     [&](std::size_t x, std::size_t y) {
                       return w.calls[x].flops() > w.calls[y].flops();
                     });
  } else {
    std::vector<double> flops;
    for (const Call& c : w.calls) flops.push_back(c.flops());
    std::sort(flops.begin(), flops.end());
    const double mid = flops[flops.size() / 2];
    for (std::size_t i = 0; i < w.calls.size(); ++i) {
      if (std::fabs(w.calls[i].flops() / mid - 1) < 0.1) w.serial.push_back(i);
    }
  }
  for (const Call& c : w.calls) {
    w.max_m = std::max(w.max_m, c.m);
    w.max_n = std::max(w.max_n, c.n);
    w.max_k = std::max(w.max_k, c.k);
  }
  return w;
}

std::string call_list_digest(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Call& c : w.calls) {
    h = fnv1a(h, static_cast<std::uint64_t>(c.alg));
    h = fnv1a(h, c.m);
    h = fnv1a(h, c.n);
    h = fnv1a(h, c.k);
    h = fnv1a(h, c.abft ? 1 : 0);
  }
  for (std::size_t i : w.serial) h = fnv1a(h, i);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

ConstMatrixView Operands::av(const Call& call) const {
  return {a.data(), call.m, call.k, call.k};
}
ConstMatrixView Operands::bv(const Call& call) const {
  return {b.data(), call.k, call.n, call.n};
}
MatrixView Operands::cv(const Call& call) {
  return {c.data(), call.m, call.n, call.n};
}
void Operands::poison(const Call& call) {
  cv(call).fill(std::numeric_limits<double>::quiet_NaN());
}

Operands make_operands(const Workload& w) {
  Operands ops{capow::linalg::Matrix(w.max_m, w.max_k),
               capow::linalg::Matrix(w.max_k, w.max_n),
               capow::linalg::Matrix(w.max_m, w.max_n)};
  capow::linalg::fill_random(ops.a.view(), w.seed * 2 + 1);
  capow::linalg::fill_random(ops.b.view(), w.seed * 2 + 2);
  ops.c.zero();
  return ops;
}

capow::MatmulOptions matmul_options(const Workload& w, const Call& c,
                                    capow::tasking::ThreadPool* pool) {
  capow::MatmulOptions o;
  o.pool = pool;
  o.algorithm = c.alg == Alg::kStrassen ? capow::core::AlgorithmId::kStrassen
                : c.alg == Alg::kCaps   ? capow::core::AlgorithmId::kCaps
                                        : capow::core::AlgorithmId::kOpenBlas;
  o.abft.mode =
      c.abft ? capow::abft::AbftMode::kDetect : capow::abft::AbftMode::kOff;
  if (w.simd_base) {
    const auto fastest = capow::blas::select_kernel().id;
    o.strassen.base_cutoff = 256;
    o.strassen.base_kernel = fastest;
    o.caps.base_cutoff = 256;
    o.caps.base_kernel = fastest;
  }
  return o;
}

void run_call(const Workload& w, const Call& c, Operands& ops,
              const Executor& ex, const char* rank_span) {
  if (!is_dist(c.alg)) {
    capow::matmul(ops.av(c), ops.bv(c), ops.cv(c),
                  matmul_options(w, c, ex.pool));
    return;
  }
  const int ranks = ex.world->size();
  const int side = static_cast<int>(std::lround(std::sqrt(ranks)));
  const capow::dist::GridSpec grid{side, side, 1};
  ex.world->run([&](capow::dist::Communicator& comm) {
    const capow::telemetry::SpanScope span(rank_span, "bench");
    const bool root = comm.rank() == 0;
    const ConstMatrixView a = root ? ops.av(c) : ConstMatrixView{};
    const ConstMatrixView b = root ? ops.bv(c) : ConstMatrixView{};
    const MatrixView cm = root ? ops.cv(c) : MatrixView{};
    if (c.alg == Alg::kSumma) {
      capow::dist::summa_multiply(comm, grid, a, b, cm);
    } else {
      capow::dist::dist_caps_multiply(comm, a, b, cm);
    }
  });
}

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

}  // namespace capowbench

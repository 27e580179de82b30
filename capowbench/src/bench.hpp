// capow-bench: shared declarations.
//
// The benchmark drives the library only through its public entry points
// (capow::matmul, dist::summa_multiply, dist::dist_caps_multiply) and,
// in the traced pass, through each layer's public functions. Nothing in
// src/ is instrumented for it.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capow/api/matmul.hpp"
#include "capow/dist/comm.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capowbench {

namespace linalg = capow::linalg;

/// What one call runs. The first three go through capow::matmul(); the
/// last two through the dist entry points on a dist::World.
enum class Alg { kGemm, kStrassen, kCaps, kSumma, kDistCaps };
const char* alg_name(Alg a) noexcept;
inline bool is_dist(Alg a) noexcept {
  return a == Alg::kSumma || a == Alg::kDistCaps;
}

/// One library call: C (m x n) = A (m x k) * B (k x n).
struct Call {
  Alg alg = Alg::kGemm;
  std::size_t m = 0, n = 0, k = 0;
  bool abft = false;  ///< ABFT detect mode (small_mixed only)
  double flops() const noexcept {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
};

/// A seeded workload: the call list the closed loop cycles through, the
/// fixed subset replayed on an inline pool for serial_gflops, and the
/// algorithm settings every call of the workload shares.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Call> calls;
  std::vector<std::size_t> serial;  ///< indices into calls
  /// Strassen/CAPS base case: fastest registry kernel at cutoff 256
  /// (recursive_simd) instead of the paper's BOTS kernel at 64.
  bool simd_base = false;
  std::size_t max_m = 0, max_n = 0, max_k = 0;
};

/// Builds the call list; throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);
/// FNV-1a over every call field: two runs with the same digest ran the
/// same calls.
std::string call_list_digest(const Workload& w);

/// Operand storage sized for the largest call; a call views the leading
/// m*k / k*n / m*n elements as contiguous row-major matrices.
struct Operands {
  linalg::Matrix a, b, c;
  linalg::ConstMatrixView av(const Call& c) const;
  linalg::ConstMatrixView bv(const Call& c) const;
  linalg::MatrixView cv(const Call& c);
  /// Fills C's view of `c` with NaN, so a call that leaves any of it
  /// unwritten fails the check instead of passing on an earlier result.
  void poison(const Call& c);
};
Operands make_operands(const Workload& w);

/// matmul() options for a call of workload `w` on `pool`.
capow::MatmulOptions matmul_options(const Workload& w, const Call& c,
                                    capow::tasking::ThreadPool* pool);

/// Where calls execute: a pool for matmul() calls, a World for dist calls.
struct Executor {
  capow::tasking::ThreadPool* pool = nullptr;
  capow::dist::World* world = nullptr;
};
/// Runs one call. Dist calls run on every rank of `ex.world`; rank 0
/// owns the operands. A non-null `rank_span` wraps each rank's body in a
/// telemetry span of that name (the traced pass's dist ledger).
void run_call(const Workload& w, const Call& c, Operands& ops,
              const Executor& ex, const char* rank_span = nullptr);

// ---------------------------------------------------------------- check

/// Norm-wise error model of one call, printed in the run header.
struct ErrorModel {
  double alg_coeff = 0;  ///< ||C^ - AB||_max <= alg_coeff*||A||max||B||max
  bool classical = true;
  std::string text;      ///< the formula with its numbers
};
ErrorModel error_model(const Workload& w, const Call& c);
/// Human-readable statement of the bounds the checks use.
std::string bound_statement();

struct CheckResult {
  bool ok = true;
  double ratio = 0;  ///< worst residual / bound (ok when <= 1)
  std::string what;
};

/// Checks every call outside the timer: a Freivalds residual always,
/// and a full comparison against blas::gemm_reference on the first call
/// of each (algorithm, shape). `pool` parallelizes the reference.
class Checker {
 public:
  explicit Checker(capow::tasking::ThreadPool& pool) : pool_(pool) {}
  CheckResult check(const Workload& w, const Call& c, const Operands& ops,
                    std::uint64_t salt);
  double worst_ratio() const noexcept { return worst_; }
  std::size_t full_checks() const noexcept { return full_checks_; }

 private:
  capow::tasking::ThreadPool& pool_;
  std::vector<std::string> seen_;  ///< (alg, shape) keys already compared
  // The reference of the most recent shape, reused when the next
  // algorithm's first call has the same shape (recursive_simd, dist_p4).
  std::string ref_shape_;
  std::unique_ptr<linalg::Matrix> ref_;
  double worst_ = 0;
  std::size_t full_checks_ = 0;
};

// ---------------------------------------------------------------- host

struct HostInfo {
  unsigned nproc = 0;
  std::size_t llc_bytes = 0;
  std::string llc_source;
};
HostInfo host_info();
/// /proc/stat cpu-line sample for steal accounting.
struct CpuTimes {
  unsigned long long steal = 0, total = 0;
};
CpuTimes read_cpu_times();
double steal_frac(const CpuTimes& before, const CpuTimes& after);
/// Confines the calling thread to one CPU of the process's CPU set while
/// alive (the slot-th allowed CPU, cycled); threads it starts meanwhile,
/// such as a dist::World's ranks, inherit the confinement.
class CpuPin {
 public:
  explicit CpuPin(std::size_t slot);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};
/// Process peak resident set (VmHWM), MiB.
double peak_rss_mb();
/// Process CPU time (user + system), seconds.
double process_cpu_s();

/// Single-thread GFLOP/s of the selected registry kernel on L1-resident
/// packed stripes.
double probe_kernel_peak_gflops();
struct StreamResult {
  double gbs = 0;
  std::size_t array_bytes = 0;
};
/// Triad a = b + s*c over three arrays each >= 4x the LLC, on the pool
/// plus the caller.
StreamResult probe_stream(capow::tasking::ThreadPool& pool,
                          std::size_t llc_bytes);

// ---------------------------------------------------------------- misc

double now_s() noexcept;
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty set.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

}  // namespace capowbench

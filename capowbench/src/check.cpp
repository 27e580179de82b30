// Correctness of every timed call, checked outside the timer.
//
// Freivalds: with a seeded x, the residual r = C^x - A(Bx) must satisfy
//   classical (blocked GEMM, SUMMA), componentwise:
//     |r|_i <= gamma_k (|A||B||x|)_i + gamma_{2(n+k)} ((|A||B| + |C^|)|x|)_i
//   Strassen family (Strassen, CAPS, dist-CAPS), Higham Thm 23.3 on the
//   padded dimension n' with leaves of n0 after L levels:
//     ||C^ - AB||_max <= [12^L (n0^2 + 5 n0) - 5 n'] u ||A||_max ||B||_max
//     |r|_i <= that * ||x||_1 + gamma_{2(n+k)} ((|A||B| + |C^|)|x|)_i
// with u = 2^-53 and gamma_j = j u / (1 - j u).
//
// On the first call of each (algorithm, shape) the whole product is also
// compared with blas::gemm_reference:
//     |C^ - R|_ij <= (alg_coeff + gamma_k k) ||A||_max ||B||_max
// where alg_coeff is gamma_k k (classical) or the Higham factor times u.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/parallel_for.hpp"

namespace capowbench {

namespace {

constexpr double kUnitRoundoff = 0x1p-53;

double gamma(double j) { return j * kUnitRoundoff / (1.0 - j * kUnitRoundoff); }

// Higham's Strassen factor for an n'-dimensional problem with leaves of
// n0 after `levels` halvings.
double higham_factor(double levels, double n0, double padded) {
  return std::pow(12.0, levels) * (n0 * n0 + 5.0 * n0) - 5.0 * padded;
}

}  // namespace

ErrorModel error_model(const Workload& w, const Call& c) {
  ErrorModel e;
  std::ostringstream os;
  if (c.alg == Alg::kGemm || c.alg == Alg::kSumma) {
    e.classical = true;
    e.alg_coeff = gamma(static_cast<double>(c.k)) * static_cast<double>(c.k);
    os << "classical: gamma_k*k = " << e.alg_coeff;
    e.text = os.str();
    return e;
  }
  e.classical = false;
  std::size_t padded = 0, leaf = 0, levels = 0;
  if (c.alg == Alg::kDistCaps) {
    // One distributed Strassen level, then local CAPS at the paper's
    // cutoff on n/2. The 1-rank World of the serial baseline runs local
    // CAPS on all of n, which for even n has the same n', L and n0.
    const std::size_t cutoff = capow::capsalg::CapsOptions{}.base_cutoff;
    const std::size_t h =
        capow::linalg::pad_dimension_for_recursion(c.n / 2, cutoff);
    const std::size_t local = capow::strassen::recursion_levels(h, cutoff);
    padded = 2 * h;
    levels = local + 1;
    leaf = h >> local;
  } else {
    const std::size_t cutoff = w.simd_base ? 256 : 64;
    padded = capow::linalg::pad_dimension_for_recursion(c.n, cutoff);
    levels = capow::strassen::recursion_levels(padded, cutoff);
    leaf = padded >> levels;
  }
  e.alg_coeff = higham_factor(static_cast<double>(levels),
                              static_cast<double>(leaf),
                              static_cast<double>(padded)) *
                kUnitRoundoff;
  os << "strassen (Higham 23.3): n'=" << padded << " L=" << levels
     << " n0=" << leaf << " factor*u = " << e.alg_coeff;
  e.text = os.str();
  return e;
}

std::string bound_statement() {
  return "Freivalds |C^x - A(Bx)|_i <= gamma_k(|A||B||x|)_i [classical] or "
         "[12^L(n0^2+5n0)-5n']u|A|max|B|max|x|_1 [Strassen family, Higham "
         "23.3], + gamma_2(n+k)((|A||B|+|C^|)|x|)_i; first call of each "
         "(algorithm, shape) also |C^-gemm_reference|_ij <= (alg + "
         "gamma_k k)|A|max|B|max; u=2^-53";
}

CheckResult Checker::check(const Workload& w, const Call& c,
                           const Operands& ops, std::uint64_t salt) {
  const auto a = ops.av(c);
  const auto b = ops.bv(c);
  const capow::linalg::ConstMatrixView cm{ops.c.data(), c.m, c.n, c.n};
  const ErrorModel model = error_model(w, c);
  const double amax = capow::linalg::max_abs(a);
  const double bmax = capow::linalg::max_abs(b);
  const double eval = gamma(2.0 * static_cast<double>(c.n + c.k));

  capow::linalg::Xoshiro256 rng(salt * 0x9e3779b97f4a7c15ull + 1);
  std::vector<double> x(c.n), ax(c.n);
  double x1 = 0;
  for (std::size_t j = 0; j < c.n; ++j) {
    x[j] = rng.uniform(-1.0, 1.0);
    ax[j] = std::fabs(x[j]);
    x1 += ax[j];
  }
  // y = Bx, |B||x|; then A y, |A|(|B||x|); then C^x, |C^||x|.
  std::vector<double> y(c.k, 0.0), ay(c.k, 0.0);
  for (std::size_t p = 0; p < c.k; ++p) {
    const double* br = b.row(p);
    double s = 0, t = 0;
    for (std::size_t j = 0; j < c.n; ++j) {
      s += br[j] * x[j];
      t += std::fabs(br[j]) * ax[j];
    }
    y[p] = s;
    ay[p] = t;
  }
  CheckResult res;
  for (std::size_t i = 0; i < c.m; ++i) {
    const double* ar = a.row(i);
    const double* cr = cm.row(i);
    double z = 0, t = 0, wv = 0, s = 0;
    for (std::size_t p = 0; p < c.k; ++p) {
      z += ar[p] * y[p];
      t += std::fabs(ar[p]) * ay[p];
    }
    for (std::size_t j = 0; j < c.n; ++j) {
      wv += cr[j] * x[j];
      s += std::fabs(cr[j]) * ax[j];
    }
    const double alg = model.classical
                           ? gamma(static_cast<double>(c.k)) * t
                           : model.alg_coeff * amax * bmax * x1;
    const double bound = alg + eval * (t + s);
    const double r = std::fabs(wv - z);
    // A NaN residual fails: !(r <= bound).
    const double ratio = bound > 0 ? r / bound : (r == 0 ? 0 : INFINITY);
    if (!(r <= bound)) {
      res.ok = false;
      res.what = "freivalds residual above bound at row " + std::to_string(i);
    }
    if (!(ratio <= res.ratio)) res.ratio = ratio;
  }

  std::ostringstream key;
  key << alg_name(c.alg) << ':' << c.m << 'x' << c.n << 'x' << c.k;
  if (std::find(seen_.begin(), seen_.end(), key.str()) == seen_.end()) {
    seen_.push_back(key.str());
    ++full_checks_;
    std::ostringstream shape;
    shape << c.m << 'x' << c.n << 'x' << c.k;
    if (ref_shape_ != shape.str() || !ref_) {
      ref_ = std::make_unique<capow::linalg::Matrix>(c.m, c.n);
      ref_shape_ = shape.str();
      // Blocked for cache reuse; every block is a gemm_reference call.
      constexpr std::size_t kMb = 64, kKb = 256, kNb = 512;
      const std::size_t blocks = (c.m + kMb - 1) / kMb;
      capow::linalg::MatrixView rv = ref_->view();
      capow::tasking::parallel_for(
          pool_, 0, blocks,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t blk = lo; blk < hi; ++blk) {
              const std::size_t i0 = blk * kMb;
              const std::size_t mi = std::min(kMb, c.m - i0);
              auto rows = rv.block(i0, 0, mi, c.n);
              rows.zero();
              for (std::size_t j0 = 0; j0 < c.n; j0 += kNb) {
                const std::size_t nj = std::min(kNb, c.n - j0);
                for (std::size_t p0 = 0; p0 < c.k; p0 += kKb) {
                  const std::size_t kp = std::min(kKb, c.k - p0);
                  capow::blas::gemm_reference_accumulate(
                      a.block(i0, p0, mi, kp), b.block(p0, j0, kp, nj),
                      rows.block(0, j0, mi, nj));
                }
              }
            }
          },
          1, capow::tasking::Schedule::kDynamic);
    }
    const double tol =
        (model.alg_coeff + gamma(static_cast<double>(c.k)) * c.k) * amax *
        bmax;
    const double diff = capow::linalg::max_abs_diff(cm, ref_->view());
    const double ratio = tol > 0 ? diff / tol : (diff == 0 ? 0 : INFINITY);
    if (!(diff <= tol)) {
      res.ok = false;
      res.what = "differs from gemm_reference by " + std::to_string(diff);
    }
    if (!(ratio <= res.ratio)) res.ratio = ratio;
  }
  worst_ = std::max(worst_, res.ratio);
  return res;
}

}  // namespace capowbench

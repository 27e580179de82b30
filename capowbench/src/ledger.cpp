// The traced pass.
//
// Each traced call runs four times on the same operands:
//   1. capow::matmul() with tracing off           -> wall, busy_frac
//   2. capow::matmul() under a Tracer + Recorder  -> counters, overhead,
//      sim projection, arena/abft/caps/backend counts
//   3. the direct algorithm entry                 -> api.self_us
//   4. a replay of the call's own loop order through each layer's public
//      function, each wrapped in a telemetry::SpanScope   -> the ledger
// and calls of the workload's serial subset are replayed once more on an
// inline pool for the serial ledger. dist calls have no replay: their
// ledger comes from one span per rank plus the World's wait clocks.
// The replay is a copy of the library's loop orders, so each parallel
// replay's exact counts are compared with pass 2's (replay drift).
//
// Ledger, per call: over the window of the replay, every accounted
// thread's time is split into layer self-times, tasking idle (a worker
// outside any task, or a waiter inside TaskGroup::wait), and <untracked>
// (the caller's own code between layer calls). The rows must sum to
// wall x threads; nesting must leave no layer with negative self time.
#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "capow/abft/abft.hpp"
#include "capow/backend/backend.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/partition.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/parallel_for.hpp"
#include "capow/tasking/task_group.hpp"
#include "capow/telemetry/export.hpp"
#include "capow/telemetry/tracer.hpp"
#include "capow/trace/counters.hpp"

namespace capowbench {

namespace {

using capow::blas::ArenaMatrix;
using capow::blas::WorkspaceArena;
using capow::linalg::ConstMatrixView;
using capow::linalg::MatrixView;
using capow::tasking::TaskGroup;
using capow::tasking::ThreadPool;
using Span = capow::telemetry::SpanScope;

constexpr const char* kCat = "bench";

// Layer span names; the ledger rows are these plus two derived rows.
constexpr const char* kPackA = "blas.pack_a";
constexpr const char* kPackB = "blas.pack_b";
constexpr const char* kKernel = "blas.kernel";
constexpr const char* kSmallGemm = "blas.small_gemm";
constexpr const char* kBaseGemm = "strassen.base_gemm";
constexpr const char* kAdd = "linalg.add";  // every O(n^2) elementwise pass
constexpr const char* kAcquire = "arena.acquire";
constexpr const char* kGuard = "abft.guard";
constexpr const char* kVerify = "abft.verify";
constexpr const char* kTask = "tasking.task";
constexpr const char* kWait = "tasking.wait";
constexpr const char* kCall = "call";
constexpr const char* kRank = "dist.rank";
constexpr const char* kIdle = "tasking.idle";
constexpr const char* kUntracked = "<untracked>";

// Spawn-to-start delays of replayed tasks, microseconds.
struct SpawnLog {
  std::mutex mu;
  std::vector<double> us;
  void record(double v) {
    std::lock_guard<std::mutex> lock(mu);
    us.push_back(v);
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return us.size();
  }
};

struct Replay {
  ThreadPool* pool = nullptr;
  WorkspaceArena* arena = nullptr;
  const capow::blas::MicroKernel* base = nullptr;  ///< null: BOTS kernel
  std::size_t cutoff = 64;
  bool caps = false;
  bool abft = false;
  double tolerance = 1e-7;
  std::size_t spawn_depth = 3;
  std::size_t bfs_depth = 4;
  SpawnLog* spawns = nullptr;
  bool parallel() const { return pool != nullptr && pool->concurrency() > 1; }
};

std::int64_t elem_bytes(std::size_t elems, int streams) {
  return static_cast<std::int64_t>(elems * sizeof(double) * streams);
}

// Additions carry the one flop per element the library counts for them;
// copies and zero fills count none.
std::int64_t add_flops(MatrixView d) {
  return static_cast<std::int64_t>(d.size());
}
void t_add(ConstMatrixView a, ConstMatrixView b, MatrixView d) {
  Span s(kAdd, kCat, "bytes", elem_bytes(d.size(), 3), "flops", add_flops(d));
  capow::linalg::add(a, b, d);
}
void t_sub(ConstMatrixView a, ConstMatrixView b, MatrixView d) {
  Span s(kAdd, kCat, "bytes", elem_bytes(d.size(), 3), "flops", add_flops(d));
  capow::linalg::sub(a, b, d);
}
void t_acc(MatrixView d, ConstMatrixView a, bool negate) {
  Span s(kAdd, kCat, "bytes", elem_bytes(d.size(), 3), "flops", add_flops(d));
  if (negate) {
    capow::linalg::sub_inplace(d, a);
  } else {
    capow::linalg::add_inplace(d, a);
  }
}
void t_copy(ConstMatrixView a, MatrixView d) {
  Span s(kAdd, kCat, "bytes", elem_bytes(d.size(), 2));
  capow::linalg::copy(a, d);
}
void t_zero(MatrixView d) {
  Span s(kAdd, kCat, "bytes", elem_bytes(d.size(), 1));
  d.zero();
}
ArenaMatrix lease(WorkspaceArena& arena, std::size_t r, std::size_t c) {
  Span s(kAcquire, kCat);
  return ArenaMatrix(arena, r, c);
}

// Spawns `fn` with a task span and a spawn-to-start sample.
template <typename Fn>
void spawn(TaskGroup& g, const Replay& rp, Fn fn) {
  const double t0 = now_s();
  g.run([&rp, t0, fn]() {
    rp.spawns->record(1e6 * (now_s() - t0));
    Span s(kTask, kCat);
    fn();
  });
}
void wait(TaskGroup& g) {
  Span s(kWait, kCat);
  g.wait();
}

// ------------------------------------------------------------ blas::gemm

void replay_gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                 const Replay& rp) {
  const capow::blas::GemmOptions opts;
  const capow::blas::MicroKernel& kern = capow::blas::resolve_kernel(opts);
  const capow::blas::BlockingParams bp = capow::blas::resolve_blocking(opts);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  auto round_up = [](std::size_t v, std::size_t mul) {
    return (v + mul - 1) / mul * mul;
  };
  t_zero(c);
  for (std::size_t jc = 0; jc < n; jc += bp.nc) {
    const std::size_t nc = std::min(bp.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += bp.kc) {
      const std::size_t kc = std::min(bp.kc, k - pc);
      std::optional<capow::blas::WorkspaceCheckout> bl;
      {
        Span s(kAcquire, kCat);
        bl.emplace(rp.arena->acquire(round_up(nc, bp.nr) * kc));
      }
      {
        Span s(kPackB, kCat);
        kern.pack_b(b, pc, jc, kc, nc, bl->data());
      }
      const std::size_t mblocks = (m + bp.mc - 1) / bp.mc;
      const std::size_t a_cap = round_up(std::min(bp.mc, m), bp.mr) * kc;
      auto body = [&](std::size_t lo, std::size_t hi) {
        Span task(rp.parallel() && mblocks > 1 ? kTask : nullptr, kCat);
        std::optional<capow::blas::WorkspaceCheckout> al;
        {
          Span s(kAcquire, kCat);
          al.emplace(rp.arena->acquire(a_cap));
        }
        for (std::size_t blk = lo; blk < hi; ++blk) {
          const std::size_t ic = blk * bp.mc;
          const std::size_t mc = std::min(bp.mc, m - ic);
          {
            Span s(kPackA, kCat);
            kern.pack_a(a, ic, pc, mc, kc, al->data());
          }
          Span s(kKernel, kCat, "flops",
                 static_cast<std::int64_t>(2 * mc * nc * kc));
          for (std::size_t jr = 0; jr < nc; jr += kern.nr) {
            for (std::size_t ir = 0; ir < mc; ir += kern.mr) {
              capow::blas::run_micro_tile(
                  kern, al->data() + ir * kc, bl->data() + jr * kc, kc, c,
                  ic + ir, jc + jr, std::min(kern.mr, mc - ir),
                  std::min(kern.nr, nc - jr));
            }
          }
        }
      };
      if (rp.parallel() && mblocks > 1) {
        Span s(kWait, kCat);
        capow::tasking::parallel_for(*rp.pool, 0, mblocks, body);
      } else {
        body(0, mblocks);
      }
    }
  }
}

// ---------------------------------------------------- Strassen and CAPS

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const Replay& rp, std::size_t depth);

void leaf(ConstMatrixView a, ConstMatrixView b, MatrixView c,
          const Replay& rp) {
  const auto flops = static_cast<std::int64_t>(2 * a.rows() * a.cols() *
                                               b.cols());
  if (rp.base != nullptr) {
    Span s(kSmallGemm, kCat, "flops", flops);
    capow::blas::small_gemm(a, b, c, *rp.base, *rp.arena);
  } else {
    Span s(kBaseGemm, kCat, "flops", flops);
    capow::strassen::base_gemm(a, b, c);
  }
}

// Operand i of the seven products: A-side and B-side combinations.
using Quads = capow::linalg::Quadrants<ConstMatrixView>;
void operand_a(int i, const Quads& q, MatrixView d) {
  switch (i) {
    case 0: t_add(q.q11, q.q22, d); break;
    case 1: t_add(q.q21, q.q22, d); break;
    case 2: t_copy(q.q11, d); break;
    case 3: t_copy(q.q22, d); break;
    case 4: t_add(q.q11, q.q12, d); break;
    case 5: t_sub(q.q21, q.q11, d); break;
    default: t_sub(q.q12, q.q22, d); break;
  }
}
void operand_b(int i, const Quads& q, MatrixView d) {
  switch (i) {
    case 0: t_add(q.q11, q.q22, d); break;
    case 1: t_copy(q.q11, d); break;
    case 2: t_sub(q.q12, q.q22, d); break;
    case 3: t_sub(q.q21, q.q11, d); break;
    case 4: t_copy(q.q22, d); break;
    case 5: t_add(q.q11, q.q12, d); break;
    default: t_add(q.q21, q.q22, d); break;
  }
}
// Strassen forms no copies: products 3/4 take A11/A22 and 2/5 take
// B11/B22 as they are (CAPS copies them into its BFS buffers).
bool a_is_view(int i) { return i == 2 || i == 3; }
bool b_is_view(int i) { return i == 1 || i == 4; }
ConstMatrixView a_view(int i, const Quads& q) { return i == 2 ? q.q11 : q.q22; }
ConstMatrixView b_view(int i, const Quads& q) { return i == 1 ? q.q11 : q.q22; }

// The paper's combine: C11 = Q1+Q4-Q5+Q7, C12 = Q3+Q5, C21 = Q2+Q4,
// C22 = Q1-Q2+Q3+Q6 (one quadrant, as strassen/caps order it).
void combine_quad(int quadrant, const std::vector<MatrixView>& qv,
                  const capow::linalg::Quadrants<MatrixView>& qc) {
  switch (quadrant) {
    case 0:
      t_add(qv[0], qv[3], qc.q11);
      t_acc(qc.q11, qv[4], true);
      t_acc(qc.q11, qv[6], false);
      break;
    case 1: t_add(qv[2], qv[4], qc.q12); break;
    case 2: t_add(qv[1], qv[3], qc.q21); break;
    default:
      t_sub(qv[0], qv[1], qc.q22);
      t_acc(qc.q22, qv[2], false);
      t_acc(qc.q22, qv[5], false);
      break;
  }
}

// Product i with the top-level ABFT check the algorithms run at depth 0.
void product(ConstMatrixView lhs, ConstMatrixView rhs, MatrixView out,
             const Replay& rp, std::size_t depth) {
  std::optional<capow::abft::AbftGuard> guard;
  if (depth == 0 && rp.abft) {
    Span s(kGuard, kCat);
    guard.emplace(lhs, rhs, *rp.arena, rp.tolerance);
  }
  recurse(lhs, rhs, out, rp, depth + 1);
  if (guard) {
    Span s(kVerify, kCat);
    if (!guard->verify(out).ok) {
      throw capow::abft::AbftError("replay: product check failed");
    }
  }
}

void strassen_level(const Quads& qa, const Quads& qb,
                    const capow::linalg::Quadrants<MatrixView>& qc,
                    std::size_t h, const Replay& rp, std::size_t depth) {
  std::vector<ArenaMatrix> m;
  for (int i = 0; i < 7; ++i) m.push_back(lease(*rp.arena, h, h));
  auto run = [&](int i) {
    std::optional<ArenaMatrix> ta, tb;
    if (!a_is_view(i)) {
      ta.emplace(lease(*rp.arena, h, h));
      operand_a(i, qa, ta->view());
    }
    if (!b_is_view(i)) {
      tb.emplace(lease(*rp.arena, h, h));
      operand_b(i, qb, tb->view());
    }
    product(ta ? ta->cview() : a_view(i, qa),
            tb ? tb->cview() : b_view(i, qb), m[i].view(), rp, depth);
  };
  if (rp.parallel() && depth < rp.spawn_depth) {
    TaskGroup g(*rp.pool);
    for (int i = 0; i < 7; ++i) spawn(g, rp, [&run, i] { run(i); });
    wait(g);
  } else {
    for (int i = 0; i < 7; ++i) run(i);
  }
  std::vector<MatrixView> qv;
  for (auto& x : m) qv.push_back(x.view());
  for (int quadrant = 0; quadrant < 4; ++quadrant) {
    combine_quad(quadrant, qv, qc);
  }
}

void bfs_level(const Quads& qa, const Quads& qb,
               const capow::linalg::Quadrants<MatrixView>& qc, std::size_t h,
               const Replay& rp, std::size_t depth) {
  std::vector<ArenaMatrix> la, lb, q;
  for (int i = 0; i < 7; ++i) {
    la.push_back(lease(*rp.arena, h, h));
    lb.push_back(lease(*rp.arena, h, h));
    q.push_back(lease(*rp.arena, h, h));
  }
  auto stage = [&](int count, auto&& fn) {
    if (rp.parallel()) {
      TaskGroup g(*rp.pool);
      for (int i = 0; i < count; ++i) spawn(g, rp, [&fn, i] { fn(i); });
      wait(g);
    } else {
      for (int i = 0; i < count; ++i) fn(i);
    }
  };
  stage(14, [&](int t) {
    if (t % 2 == 0) {
      operand_a(t / 2, qa, la[t / 2].view());
    } else {
      operand_b(t / 2, qb, lb[t / 2].view());
    }
  });
  stage(7, [&](int i) {
    product(la[i].cview(), lb[i].cview(), q[i].view(), rp, depth);
  });
  std::vector<MatrixView> qv;
  for (auto& x : q) qv.push_back(x.view());
  stage(4, [&](int quadrant) { combine_quad(quadrant, qv, qc); });
}

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const Replay& rp, std::size_t depth) {
  const std::size_t n = a.rows();
  if (n <= rp.cutoff) {
    leaf(a, b, c, rp);
    return;
  }
  const auto qa = capow::linalg::partition(a);
  const auto qb = capow::linalg::partition(b);
  const auto qc = capow::linalg::partition(c);
  const std::size_t h = n / 2;
  if (!rp.caps) {
    strassen_level(qa, qb, qc, h, rp, depth);
  } else if (depth < rp.bfs_depth) {
    bfs_level(qa, qb, qc, h, rp, depth);
  } else {
    // No workload gets here: n <= 2560 at cutoff 256 and n <= 512 at
    // cutoff 64 reach a leaf within four levels, all of them BFS.
    throw std::logic_error("replay: CAPS DFS levels are not replayed");
  }
}

// Entry of the Strassen family: end-to-end guard, padding, recursion.
void replay_recursive(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                      const Replay& rp) {
  std::optional<capow::abft::AbftGuard> guard;
  if (rp.abft) {
    Span s(kGuard, kCat);
    guard.emplace(a, b, *rp.arena, rp.tolerance);
  }
  const std::size_t n = a.rows();
  const std::size_t padded =
      capow::linalg::pad_dimension_for_recursion(n, rp.cutoff);
  if (n <= rp.cutoff) {
    leaf(a, b, c, rp);
  } else if (padded == n) {
    recurse(a, b, c, rp, 0);
  } else {
    ArenaMatrix ap = lease(*rp.arena, padded, padded);
    ArenaMatrix bp = lease(*rp.arena, padded, padded);
    ArenaMatrix cp = lease(*rp.arena, padded, padded);
    {
      Span s(kAdd, kCat, "bytes", elem_bytes(padded * padded, 2));
      capow::linalg::copy_padded(a, ap.view());
      capow::linalg::copy_padded(b, bp.view());
    }
    recurse(ap.cview(), bp.cview(), cp.view(), rp, 0);
    t_copy(cp.cview().block(0, 0, n, n), c);
  }
  if (guard) {
    Span s(kVerify, kCat);
    if (!guard->verify(c).ok) {
      throw capow::abft::AbftError("replay: end-to-end check failed");
    }
  }
}

void replay_call(const Workload& w, const Call& call, Operands& ops,
                 ThreadPool* pool, SpawnLog& spawns) {
  Replay rp;
  rp.pool = pool;
  rp.arena = &WorkspaceArena::process_arena();
  rp.abft = call.abft;
  rp.spawns = &spawns;
  const capow::MatmulOptions mo = matmul_options(w, call, pool);
  const auto a = ops.av(call);
  const auto b = ops.bv(call);
  const auto c = ops.cv(call);
  if (call.alg == Alg::kGemm) {
    std::optional<capow::abft::AbftGuard> guard;
    if (rp.abft) {
      Span s(kGuard, kCat);
      guard.emplace(a, b, *rp.arena, mo.abft.tolerance);
    }
    replay_gemm(a, b, c, rp);
    if (guard) {
      Span s(kVerify, kCat);
      if (!guard->verify(c).ok) {
        throw capow::abft::AbftError("replay: gemm check failed");
      }
    }
    return;
  }
  rp.caps = call.alg == Alg::kCaps;
  const auto base = rp.caps ? mo.caps.base_kernel : mo.strassen.base_kernel;
  rp.base = base ? capow::blas::find_kernel(*base) : nullptr;
  rp.cutoff = rp.caps ? mo.caps.base_cutoff : mo.strassen.base_cutoff;
  rp.spawn_depth = mo.strassen.task_spawn_depth;
  rp.bfs_depth = mo.caps.bfs_cutoff_depth;
  rp.tolerance = mo.abft.tolerance;
  replay_recursive(a, b, c, rp);
}

// Exact counts of one call, from the replay's spans and arena or from the
// library call's arena, Recorder and CapsStats.
struct ReplayCounts {
  std::uint64_t acquires = 0, tasks = 0, syncs = 0, leaves = 0;
  std::uint64_t flops = 0;  ///< leaf products plus one per added element
};

void count_replay(const std::vector<capow::telemetry::TraceEvent>& events,
                  ReplayCounts& c) {
  for (const auto& e : events) {
    if (e.rec.kind != capow::telemetry::EventKind::kSpan ||
        e.rec.name == nullptr) {
      continue;
    }
    const std::string name = e.rec.name;
    if (name == kWait) ++c.syncs;
    if (name == kKernel || name == kSmallGemm || name == kBaseGemm) {
      c.flops += static_cast<std::uint64_t>(e.rec.arg[0]);
      if (name != kKernel) ++c.leaves;
    }
    if (name == kAdd && e.rec.arg_name[1] != nullptr) {
      c.flops += static_cast<std::uint64_t>(e.rec.arg[1]);
    }
  }
}

// Empty when the counts agree, else what differs.
std::string compare_counts(const ReplayCounts& got, const ReplayCounts& want) {
  std::string out;
  auto cmp = [&](const char* what, std::uint64_t g, std::uint64_t w) {
    if (g == w) return;
    out += std::string(out.empty() ? "" : ", ") + what + " replay " +
           std::to_string(g) + " vs library " + std::to_string(w);
  };
  cmp("arena acquires", got.acquires, want.acquires);
  cmp("spawned tasks", got.tasks, want.tasks);
  cmp("syncs", got.syncs, want.syncs);
  cmp("flops", got.flops, want.flops);
  cmp("base products", got.leaves, want.leaves);
  return out;
}

// ----------------------------------------------------------- the ledger

struct Ledger {
  std::map<std::string, double> self_ns;  ///< row -> ns
  double window_ns = 0;
  unsigned threads = 1;
  bool nested_ok = true;  ///< no negative self time, no span escaping
  double total() const {
    double s = 0;
    for (const auto& [k, v] : self_ns) s += v;
    return s;
  }
  bool conserved() const {
    const double want = window_ns * threads;
    return nested_ok && std::fabs(total() - want) <= 1e-9 * want + 1.0;
  }
};

// Builds the ledger of one replay from its spans. `caller` is the tid of
// the thread that ran the replay; `worker_tids` are the pool's.
Ledger build_ledger(const std::vector<capow::telemetry::TraceEvent>& events,
                    std::uint64_t t0, std::uint64_t t1, std::uint64_t caller,
                    unsigned threads,
                    std::map<std::string, std::vector<double>>* samples,
                    std::map<std::string, double>* args) {
  Ledger L;
  L.window_ns = static_cast<double>(t1 - t0);
  L.threads = threads;
  std::map<std::uint64_t, std::vector<const capow::telemetry::EventRecord*>>
      by_tid;
  for (const auto& e : events) {
    if (e.rec.kind != capow::telemetry::EventKind::kSpan) continue;
    if (e.rec.category == nullptr || std::string(e.rec.category) != kCat) {
      continue;
    }
    if (e.rec.t_end_ns <= t0 || e.rec.t_begin_ns >= t1) continue;
    by_tid[e.tid].push_back(&e.rec);
  }
  unsigned seen_threads = 0;
  for (auto& [tid, recs] : by_tid) {
    ++seen_threads;
    std::sort(recs.begin(), recs.end(), [](auto* x, auto* y) {
      return x->t_begin_ns != y->t_begin_ns ? x->t_begin_ns < y->t_begin_ns
                                            : x->t_end_ns > y->t_end_ns;
    });
    // Stack walk: self = duration - direct children.
    struct Open {
      const capow::telemetry::EventRecord* r;
      double child = 0;
    };
    std::vector<Open> stack;
    double covered = 0;
    auto close = [&](const Open& o) {
      const double b = static_cast<double>(std::max(o.r->t_begin_ns, t0));
      const double e = static_cast<double>(std::min(o.r->t_end_ns, t1));
      const double dur = e - b;
      const double self = dur - o.child;
      if (self < -1.0) L.nested_ok = false;
      std::string row = o.r->name;
      if (row == kCall || row == kTask) row = kUntracked;
      if (row == kWait) row = kIdle;
      L.self_ns[row] += self;
      if (samples) (*samples)[o.r->name].push_back(self);
      if (args && o.r->arg_name[0] != nullptr) {
        (*args)[std::string(o.r->name) + "." + o.r->arg_name[0]] +=
            static_cast<double>(o.r->arg[0]);
      }
      if (stack.empty()) {
        covered += dur;
      } else {
        stack.back().child += dur;
      }
    };
    for (const auto* r : recs) {
      while (!stack.empty() && stack.back().r->t_end_ns <= r->t_begin_ns) {
        const Open o = stack.back();
        stack.pop_back();
        close(o);
      }
      if (!stack.empty() && r->t_end_ns > stack.back().r->t_end_ns) {
        L.nested_ok = false;  // overlapping, not nested
      }
      stack.push_back({r});
    }
    while (!stack.empty()) {
      const Open o = stack.back();
      stack.pop_back();
      close(o);
    }
    // A thread's time outside every span: the caller has none (its call
    // span is the window); a worker outside any task is idle.
    const double gap = L.window_ns - covered;
    if (tid == caller) {
      L.self_ns[kUntracked] += gap;
    } else {
      L.self_ns[kIdle] += gap;
    }
  }
  if (by_tid.find(caller) == by_tid.end()) L.nested_ok = false;
  // Accounted threads that never ran a span were idle all window.
  if (seen_threads < threads) {
    L.self_ns[kIdle] += L.window_ns * (threads - seen_threads);
  } else if (seen_threads > threads) {
    L.nested_ok = false;
  }
  return L;
}

// Median delay from submit() to an idle pool until the task starts.
double probe_wake_us(ThreadPool& pool) {
  std::vector<double> us;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::atomic<double> started{0};
    std::atomic<bool> done{false};
    const double t0 = now_s();
    TaskGroup g(pool);
    g.run([&] {
      started.store(now_s());
      done.store(true);
    });
    g.wait();
    if (done.load()) us.push_back(1e6 * (started.load() - t0));
  }
  return median(us);
}

double sim_efficiency(const Workload& w, const Call& c) {
  if (c.alg == Alg::kGemm || c.alg == Alg::kSumma) {
    return capow::blas::kTunedGemmEfficiency;
  }
  return w.simd_base ? capow::blas::kTunedGemmEfficiency
                     : capow::strassen::kBotsBaseKernelEfficiency;
}

}  // namespace

TraceReport run_traced(const TraceInputs& in) {
  const Workload& w = in.w;
  TraceReport rep;
  const bool dist = in.world != nullptr;
  ThreadPool inline_pool(0);
  const capow::machine::MachineSpec model = capow::machine::haswell_e3_1225();
  WorkspaceArena& arena = WorkspaceArena::process_arena();
  const std::uint64_t fallbacks0 =
      capow::backend::BackendRegistry::instance().fallbacks_total();

  // One session sizes the rings of every thread that first traces in it.
  capow::telemetry::Tracer::Options topts;
  topts.ring_capacity = 1u << 17;
  auto session = std::make_unique<capow::telemetry::Tracer>(topts);
  capow::telemetry::ChromeTraceWriter chrome;
  chrome.set_process_name(1, "capow-bench " + w.name);
  std::ofstream jsonl(in.out_dir + "/" + w.name + "-" +
                      std::to_string(w.seed) + ".jsonl");

  std::map<std::string, double> par_ns, ser_ns, args;
  std::map<std::string, std::vector<double>> samples;
  SpawnLog spawns;
  double wall_u = 0, wall_t = 0, cpu_u = 0, par_window = 0, ser_window = 0;
  std::vector<double> api_self_us;
  std::vector<double> replay_ratio;  ///< replay wall / untraced wall
  double flops = 0, dram = 0, tasks = 0, syncs = 0, sim_s_over = 0,
         sim_j = 0;
  double acquires = 0, misses = 0, arena_peak = 0;
  double bfs = 0, dfs = 0, base_products = 0, caps_peak = 0, caps_calls = 0;
  double messages = 0, payload = 0, retrans = 0, recv_wait = 0, barrier = 0,
         active = 0;
  const capow::abft::AbftCounters abft0 = capow::abft::counters();
  std::size_t calls = 0, serial_done = 0;
  double spent = 0;
  const std::size_t max_calls = in.smoke ? 2 : SIZE_MAX;

  for (std::size_t i = 0; spent < in.seconds && calls < max_calls; ++i) {
    const std::size_t idx = i % w.calls.size();
    const Call& call = w.calls[idx];
    const double loop0 = now_s();
    ++calls;
    auto check = [&](const char* what) {
      ++rep.attempted;
      const CheckResult r = in.checker.check(w, call, in.ops, 7919 * i + 17);
      if (!r.ok) {
        ++rep.failed;
        std::printf("  FAILED %s %s: %s\n", alg_name(call.alg), what,
                    r.what.c_str());
      }
    };
    const Executor ex{in.pool, in.world};
    try {
      // 1. untraced
      in.ops.poison(call);
      double cpu0 = process_cpu_s();
      double t = now_s();
      run_call(w, call, in.ops, ex);
      const double wu = now_s() - t;
      cpu_u += process_cpu_s() - cpu0;
      wall_u += wu;
      check("untraced");

      // 2. traced, counted
      capow::trace::Recorder rec;
      capow::capsalg::CapsStats cs;
      arena.reset_stats();
      const capow::blas::ArenaStats a0 = arena.stats();
      double wt = 0;
      in.ops.poison(call);
      {
        capow::telemetry::TracingScope ts(*session);
        capow::trace::RecordingScope rs(rec);
        t = now_s();
        if (dist) {
          run_call(w, call, in.ops, ex);
        } else {
          capow::MatmulOptions mo = matmul_options(w, call, in.pool);
          mo.caps_stats = &cs;
          capow::matmul(in.ops.av(call), in.ops.bv(call), in.ops.cv(call), mo);
        }
        wt = now_s() - t;
      }
      wall_t += wt;
      check("traced");
      const capow::blas::ArenaStats a1 = arena.stats();
      acquires += static_cast<double>(a1.acquires - a0.acquires);
      misses += static_cast<double>(a1.misses - a0.misses);
      arena_peak = std::max(arena_peak, a1.peak_outstanding_bytes / 1048576.0);
      const capow::trace::CostCounters tot = rec.total();
      flops += static_cast<double>(tot.flops);
      dram += static_cast<double>(tot.dram_bytes());
      tasks += static_cast<double>(tot.tasks_spawned);
      syncs += static_cast<double>(tot.syncs);
      const capow::sim::RunResult sim = capow::sim::simulate(
          model,
          capow::sim::profile_from_recorder(rec, alg_name(call.alg),
                                            sim_efficiency(w, call)),
          in.threads);
      sim_s_over += sim.seconds / wt;
      sim_j += sim.energy(capow::machine::PowerPlane::kPackage);
      if (call.alg == Alg::kCaps) {
        bfs += static_cast<double>(cs.bfs_nodes);
        dfs += static_cast<double>(cs.dfs_nodes);
        base_products += static_cast<double>(cs.base_products);
        caps_peak = std::max(caps_peak, cs.peak_buffer_bytes / 1048576.0);
        ++caps_calls;
      }

      if (dist) {
        // 4. the dist ledger: one span per rank, waits from the World.
        capow::telemetry::Tracer tr(topts);
        std::uint64_t t0 = 0, t1 = 0;
        in.ops.poison(call);
        {
          capow::telemetry::TracingScope ts(tr);
          t0 = capow::telemetry::now_ns();
          run_call(w, call, in.ops, ex, kRank);
          t1 = capow::telemetry::now_ns();
        }
        const auto& cm = in.world->comm_stats();
        double waits_ns = 0, ranks_ns = 0;
        for (int r = 0; r < cm.ranks(); ++r) {
          recv_wait += cm.rank(r).recv_wait_ns / 1e6;
          barrier += cm.rank(r).barrier_wait_ns / 1e6;
          active += cm.rank(r).active_ns / 1e6;
          waits_ns += static_cast<double>(cm.rank(r).recv_wait_ns +
                                          cm.rank(r).barrier_wait_ns);
          par_ns["dist.recv_wait"] += cm.rank(r).recv_wait_ns;
          par_ns["dist.barrier_wait"] += cm.rank(r).barrier_wait_ns;
        }
        messages += static_cast<double>(cm.total_messages());
        payload += cm.total_payload_bytes() / 1e6;
        retrans += static_cast<double>(cm.total_retransmits());
        const auto events = tr.collect();
        for (const auto& e : events) {
          if (e.rec.name != nullptr && std::string(e.rec.name) == kRank) {
            ranks_ns += static_cast<double>(std::min(e.rec.t_end_ns, t1) -
                                            std::max(e.rec.t_begin_ns, t0));
          }
        }
        const double window = static_cast<double>(t1 - t0);
        par_ns["dist.compute"] += ranks_ns - waits_ns;
        par_ns[kUntracked] += window * in.threads - ranks_ns;
        par_window += window;
        if (ranks_ns - waits_ns < 0 || window * in.threads < ranks_ns) {
          rep.conserved = false;
        }
        if (calls <= 4) chrome.add_events(events, 1, session->start_ns());
        if (jsonl) {
          capow::telemetry::JsonObject o;
          o.field("call", static_cast<std::uint64_t>(i))
              .field("alg", alg_name(call.alg))
              .field("n", static_cast<std::uint64_t>(call.n))
              .field("ranks", static_cast<std::uint64_t>(in.threads))
              .field("wall_untraced_ms", 1e3 * wu)
              .field("wall_ms", window / 1e6)
              .field("dist.compute_ms", (ranks_ns - waits_ns) / 1e6)
              .field("dist.waits_ms", waits_ns / 1e6)
              .field("<untracked>_ms", (window * in.threads - ranks_ns) / 1e6);
          jsonl << o.str() << '\n';
        }
        check("ledger");
        // Serial baseline of the subset: the 1-rank World on one CPU.
        if (std::find(w.serial.begin(), w.serial.end(), idx) !=
                w.serial.end() &&
            serial_done < w.serial.size() && !in.smoke) {
          in.ops.poison(call);
          double s = 0;
          {
            const CpuPin pin(0);
            const double s0 = now_s();
            run_call(w, call, in.ops, {in.pool, in.serial_world});
            s = now_s() - s0;
          }
          ser_ns["dist.rank_serial"] += 1e9 * s;
          ser_window += 1e9 * s;
          ++serial_done;
          check("serial");
        }
      } else {
        // 3. direct algorithm entry, for api.self_us.
        {
          const capow::MatmulOptions mo = matmul_options(w, call, in.pool);
          in.ops.poison(call);
          t = now_s();
          if (call.alg == Alg::kGemm) {
            capow::blas::GemmOptions g;
            g.pool = in.pool;
            g.arena = &arena;
            if (call.abft) {
              capow::abft::guarded_gemm(in.ops.av(call), in.ops.bv(call),
                                        in.ops.cv(call), g, mo.abft);
            } else {
              capow::blas::gemm(in.ops.av(call), in.ops.bv(call),
                                in.ops.cv(call), g);
            }
          } else if (call.alg == Alg::kStrassen) {
            capow::strassen::StrassenOptions s = mo.strassen;
            s.arena = &arena;
            s.abft = mo.abft;
            capow::strassen::multiply(in.ops.av(call), in.ops.bv(call),
                                      in.ops.cv(call), s, in.pool);
          } else {
            capow::capsalg::CapsOptions o = mo.caps;
            o.arena = &arena;
            o.abft = mo.abft;
            capow::capsalg::multiply(in.ops.av(call), in.ops.bv(call),
                                     in.ops.cv(call), o, in.pool);
          }
          api_self_us.push_back(1e6 * (wu - (now_s() - t)));
          check("direct");
        }
        // 4. replays: parallel always, serial on the subset's first pass.
        const bool serial =
            !in.smoke ? std::find(w.serial.begin(), w.serial.end(), idx) !=
                                w.serial.end() &&
                            serial_done < w.serial.size()
                      : i == 0;
        for (int pass = 0; pass < (serial ? 2 : 1); ++pass) {
          ThreadPool* pool = pass == 0 ? in.pool : &inline_pool;
          const unsigned threads = pass == 0 ? in.threads : 1;
          capow::telemetry::Tracer tr(topts);
          std::uint64_t t0 = 0, t1 = 0;
          in.ops.poison(call);
          const capow::blas::ArenaStats r0 = arena.stats();
          const std::size_t spawned0 = spawns.size();
          {
            capow::telemetry::TracingScope ts(tr);
            Span root(kCall, kCat);
            t0 = capow::telemetry::now_ns();
            replay_call(w, call, in.ops, pool, spawns);
            t1 = capow::telemetry::now_ns();
          }
          const auto events = tr.collect();
          std::uint64_t caller = 0;
          for (const auto& e : events) {
            if (e.rec.name != nullptr && std::string(e.rec.name) == kCall) {
              caller = e.tid;
            }
          }
          Ledger L = build_ledger(events, t0, t1, caller, threads,
                                  pass == 0 ? &samples : nullptr,
                                  pass == 0 ? &args : nullptr);
          if (pass == 0) {
            // The replay must do exactly what the library call of pass 2
            // did, or its per-layer figures describe some other program.
            ReplayCounts got;
            got.acquires = arena.stats().acquires - r0.acquires;
            got.tasks = spawns.size() - spawned0;
            count_replay(events, got);
            ReplayCounts want;
            want.acquires = a1.acquires - a0.acquires;
            want.tasks = tot.tasks_spawned;
            want.syncs = tot.syncs;
            want.flops = tot.flops;
            // Only CAPS reports its base products.
            want.leaves =
                call.alg == Alg::kCaps ? cs.base_products : got.leaves;
            const std::string drift = compare_counts(got, want);
            if (!drift.empty()) {
              rep.replay_matches = false;
              std::printf("  replay drift: %s %zux%zux%zu: %s\n",
                          alg_name(call.alg), call.m, call.n, call.k,
                          drift.c_str());
            }
            replay_ratio.push_back(L.window_ns / 1e9 / wu);
          }
          // Rings are reused across sessions, so wraparound of older
          // sessions' records is expected; this replay lost spans only if
          // it alone filled a thread's ring.
          std::map<std::uint64_t, std::size_t> per_thread;
          for (const auto& e : events) {
            if (++per_thread[e.tid] >= topts.ring_capacity) {
              L.nested_ok = false;
            }
          }
          if (!L.conserved()) {
            rep.conserved = false;
            std::printf("  ledger NOT conserved: %s %zu pass=%d sum=%.0f "
                        "want=%.0f ns\n",
                        alg_name(call.alg), call.n, pass, L.total(),
                        L.window_ns * threads);
          }
          auto& into = pass == 0 ? par_ns : ser_ns;
          for (const auto& [k, v] : L.self_ns) into[k] += v;
          (pass == 0 ? par_window : ser_window) += L.window_ns;
          if (pass == 0 && calls <= 4) {
            chrome.add_events(events, 1, session->start_ns());
          }
          if (jsonl) {
            capow::telemetry::JsonObject o;
            o.field("call", static_cast<std::uint64_t>(i))
                .field("alg", alg_name(call.alg))
                .field("m", static_cast<std::uint64_t>(call.m))
                .field("n", static_cast<std::uint64_t>(call.n))
                .field("k", static_cast<std::uint64_t>(call.k))
                .field("abft", call.abft)
                .field("pass", pass == 0 ? "parallel" : "serial")
                .field("threads", static_cast<std::uint64_t>(threads))
                .field("wall_untraced_ms", 1e3 * wu)
                .field("wall_replay_ms", L.window_ns / 1e6)
                .field("conserved", L.conserved());
            for (const auto& [k, v] : L.self_ns) o.field(k + "_ms", v / 1e6);
            jsonl << o.str() << '\n';
          }
          check(pass == 0 ? "replay" : "serial replay");
        }
        if (serial) ++serial_done;
      }
    } catch (const std::exception& e) {
      ++rep.attempted;
      ++rep.failed;
      std::printf("  FAILED %s %zu: %s\n", alg_name(call.alg), call.n,
                  e.what());
    }
    spent += now_s() - loop0;
  }
  {
    std::ofstream f(in.out_dir + "/" + w.name + "-" + std::to_string(w.seed) +
                    ".trace.json");
    if (f) chrome.write(f);
  }

  const double wake = in.pool ? probe_wake_us(*in.pool) : 0;
  const double steal = steal_frac(in.cpu_begin, read_cpu_times());
  const capow::abft::AbftCounters abft1 = capow::abft::counters();
  const double n = static_cast<double>(calls);
  auto per_call_ms = [&](const char* row) {
    auto it = par_ns.find(row);
    return it == par_ns.end() ? 0.0 : it->second / 1e6 / n;
  };
  auto mean_ns = [&](const char* name) {
    auto it = samples.find(name);
    if (it == samples.end() || it->second.empty()) return 0.0;
    double s = 0;
    for (double v : it->second) s += v;
    return s / static_cast<double>(it->second.size());
  };
  auto sum_ns = [&](const char* name) {
    auto it = samples.find(name);
    double s = 0;
    if (it != samples.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  };
  // Kernel rate per thread against the single-thread probe.
  const char* kernel_row =
      sum_ns(kKernel) > 0 ? kKernel : (sum_ns(kSmallGemm) > 0 ? kSmallGemm
                                                              : nullptr);
  const double kernel_gflops =
      kernel_row ? args[std::string(kernel_row) + ".flops"] /
                       sum_ns(kernel_row)
                 : 0.0;
  const double add_gbs =
      sum_ns(kAdd) > 0 ? args[std::string(kAdd) + ".bytes"] / sum_ns(kAdd)
                       : 0.0;
  const double accounted = par_window * in.threads;
  auto share = [&](const char* row) {
    auto it = par_ns.find(row);
    return it == par_ns.end() || accounted <= 0 ? 0.0
                                                : it->second / accounted;
  };

  rep.metrics = {
      {"api.self_us", median(api_self_us), "us"},
      {"backend.fallbacks",
       static_cast<double>(
           capow::backend::BackendRegistry::instance().fallbacks_total() -
           fallbacks0),
       "count"},
      {"blas.pack_a_ms", per_call_ms(kPackA), "ms"},
      {"blas.pack_b_ms", per_call_ms(kPackB), "ms"},
      {"blas.kernel_ms", per_call_ms(kKernel), "ms"},
      {"blas.kernel_frac_peak",
       in.kernel_peak_gflops > 0 ? kernel_gflops / in.kernel_peak_gflops : 0,
       "ratio"},
      {"blas.small_gemm_ms", per_call_ms(kSmallGemm), "ms"},
      {"arena.acquires", acquires / n, "count"},
      {"arena.misses", misses / n, "count"},
      {"arena.hit_rate", acquires > 0 ? 1.0 - misses / acquires : 1.0,
       "ratio"},
      {"arena.peak_mb", arena_peak, "MiB"},
      {"arena.acquire_ns", mean_ns(kAcquire), "ns"},
      {"linalg.add_ms", per_call_ms(kAdd), "ms"},
      {"linalg.add_gbs", add_gbs, "GB/s"},
      {"strassen.base_gemm_ms", per_call_ms(kBaseGemm), "ms"},
      {"caps.bfs_nodes", caps_calls > 0 ? bfs / caps_calls : 0, "count"},
      {"caps.dfs_nodes", caps_calls > 0 ? dfs / caps_calls : 0, "count"},
      {"caps.base_products",
       caps_calls > 0 ? base_products / caps_calls : 0, "count"},
      {"caps.peak_buffer_mb", caps_peak, "MiB"},
      {"tasking.tasks", tasks / n, "count"},
      {"tasking.syncs", syncs / n, "count"},
      {"tasking.busy_frac",
       wall_u > 0 ? cpu_u / (wall_u * in.threads) : 0, "ratio"},
      {"tasking.spawn_us_p50", percentile(spawns.us, 50), "us"},
      {"tasking.spawn_us_p99", percentile(spawns.us, 99), "us"},
      {"tasking.wake_us", wake, "us"},
      {"tasking.idle_share", share(kIdle), "ratio"},
      {"abft.guard_us", mean_ns(kGuard) / 1e3, "us"},
      {"abft.verify_us", mean_ns(kVerify) / 1e3, "us"},
      {"abft.verifications",
       static_cast<double>(abft1.verifications - abft0.verifications) / n,
       "count"},
      {"abft.retries",
       static_cast<double>(abft1.retried - abft0.retried +
                           abft1.recomputed - abft0.recomputed),
       "count"},
      {"dist.messages", messages / n, "count"},
      {"dist.payload_mb", payload / n, "MB"},
      {"dist.retransmits", retrans / n, "count"},
      {"dist.recv_wait_ms", recv_wait / n, "ms"},
      {"dist.barrier_wait_ms", barrier / n, "ms"},
      {"dist.active_ms", active / n, "ms"},
      {"trace.flops", flops / n, "count"},
      {"trace.dram_mb_computed", dram / 1e6 / n, "MB"},
      {"trace.flops_per_byte", dram > 0 ? flops / dram : 0, "flop/B"},
      {"sim.seconds_over_wall", sim_s_over / n, "ratio"},
      {"sim.pkg_joules", sim_j / n, "J"},
      {"telemetry.overhead", wall_u > 0 ? wall_t / wall_u : 0, "ratio"},
      {"ledger.untracked_share", share(kUntracked), "ratio"},
      {"ledger.replay_wall_ratio", median(replay_ratio), "ratio"},
      {"host.kernel_peak_gflops", in.kernel_peak_gflops, "GFLOP/s"},
      {"host.stream_gbs", in.stream_gbs, "GB/s"},
      {"host.steal_frac", steal, "ratio"},
  };

  // The per-layer table and the two ledgers.
  std::printf("traced pass: %zu calls (%zu serial replays), tracing adds "
              "%.1f%% to matmul() wall\n",
              calls, serial_done, 100.0 * (wall_u > 0 ? wall_t / wall_u - 1
                                                      : 0));
  std::printf("  %-26s %14s %s\n", "layer metric", "value", "unit");
  for (const LayerMetric& m : rep.metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  blas kernel at %.1f%% of the %.2f GFLOP/s probe; linalg "
              "passes at %.2f GB/s per thread vs stream %.2f GB/s over %u "
              "threads (arrays %.0f MiB, llc %.0f MiB)\n",
              100.0 * kernel_gflops / std::max(in.kernel_peak_gflops, 1e-9),
              in.kernel_peak_gflops, add_gbs, in.stream_gbs, in.threads,
              in.stream_array_bytes / 1048576.0, in.llc_bytes / 1048576.0);
  auto print_ledger = [&](const char* title,
                          const std::map<std::string, double>& rows,
                          double window, unsigned threads) {
    const double total = window * threads;
    double sum = 0;
    std::printf("ledger (%s): wall %.3f ms x %u threads\n", title,
                window / 1e6, threads);
    for (const auto& [k, v] : rows) {
      sum += v;
      std::printf("  %-26s %12.3f ms %6.2f%%\n", k.c_str(), v / 1e6,
                  total > 0 ? 100.0 * v / total : 0.0);
    }
    std::printf("  %-26s %12.3f ms vs %.3f ms: %s\n", "sum", sum / 1e6,
                total / 1e6,
                std::fabs(sum - total) <= 1e-9 * total + 1.0 * calls
                    ? "conserved"
                    : "NOT conserved");
    auto it = rows.find(kUntracked);
    std::printf("  <untracked> share %.2f%%\n",
                total > 0 && it != rows.end() ? 100.0 * it->second / total
                                              : 0.0);
  };
  print_ledger("parallel", par_ns, par_window, in.threads);
  if (ser_window > 0) print_ledger("serial", ser_ns, ser_window, 1);
  std::printf("ledger conservation: %s\n",
              rep.conserved ? "ok" : "FAILED");
  // Counts must match exactly; the wall ratio only flags a replay that
  // takes a very different path, since timing noise moves it too.
  const double ratio = median(replay_ratio);
  const bool far = !replay_ratio.empty() && (ratio < 0.5 || ratio > 2.0);
  if (dist) {
    std::printf("replay drift: none (dist calls are not replayed)\n");
  } else {
    std::printf("replay wall / untraced matmul() wall: median %.3f over %zu "
                "calls%s\n",
                ratio, replay_ratio.size(), far ? " (FAR FROM 1)" : "");
    std::printf("replay drift: %s\n",
                rep.replay_matches && !far ? "none" : "FOUND");
  }
  return rep;
}

}  // namespace capowbench

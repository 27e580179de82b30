// capow-bench: closed-loop wall-clock benchmark of capow::matmul() and
// capow::dist.
//
//   capow-bench --workload W --seed N --seconds S --trace 0|1
//               [--smoke] [--out DIR]
//
// One caller issues each library call when the previous one returns.
// --trace 0 times the calls with tracing off and prints the end-to-end
// metrics; --trace 1 runs the separate traced pass and prints the
// per-layer metrics and the ledger. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ledger.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"

namespace capowbench {
namespace {

// Reserved for confirming a later performance claim on inputs nobody
// tuned against; not used while the benchmark or a change is developed.
constexpr std::uint64_t kConfirmSeed = 20150901;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "capow-bench: %s\nusage: capow-bench --workload "
               "{gemm_dense,recursive_simd,small_mixed,dist_p4} --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = val();
      have_workload = true;
    } else if (k == "--seed") {
      const std::string v = val();
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed must be an integer");
    } else if (k == "--seconds") {
      const std::string v = val();
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (k == "--trace") {
      const std::string v = val();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--out") {
      a.out = val();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed after the unit, e.g. the sample count
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-26s %14.6g %s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string samples_note(std::size_t n, double p) {
  return "(n=" + std::to_string(n) + ", " +
         std::to_string(static_cast<std::size_t>(n * (1 - p / 100))) +
         " beyond)";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// Everything set-up builds: operands, the pool, the dist world, and the
// inline pool and 1-rank World for the serial baseline. Serial calls run
// confined to one CPU (CpuPin). The serial dist baseline is a 1-rank
// World (SUMMA on a 1x1 grid, dist-CAPS solved by its leader): four ranks
// time-sharing one CPU evict each other's blocks from the core's caches
// in an order the scheduler picks, so their calls spread by up to 2x
// within a run. The 4-rank figures carry comm, mailboxes and barriers.
struct State {
  std::unique_ptr<Operands> ops;
  std::unique_ptr<capow::tasking::ThreadPool> pool;
  std::unique_ptr<capow::tasking::ThreadPool> inline_pool;
  std::unique_ptr<capow::dist::World> world;
  std::unique_ptr<capow::dist::World> serial_world;
  Executor par() const { return {pool.get(), world.get()}; }
  Executor ser() const { return {inline_pool.get(), serial_world.get()}; }
};

// The smallest call of each algorithm: warm-up resolves kernels and
// first-touches arena buffers without the cost of the biggest call.
std::vector<Call> warmup_calls(const Workload& w) {
  std::map<std::pair<int, bool>, Call> first;
  for (const Call& c : w.calls) {
    const auto key = std::make_pair(static_cast<int>(c.alg), c.abft);
    auto it = first.find(key);
    if (it == first.end() || c.flops() < it->second.flops()) first[key] = c;
  }
  std::vector<Call> out;
  for (const auto& [key, c] : first) out.push_back(c);
  return out;
}

// Set-up `rep` generates operands and warms up on the rep-th CPU, so the
// median over set-ups does not rest on one vCPU's neighbours. The pool
// starts unconfined: its workers must not inherit the confinement.
double setup(const Workload& w, unsigned workers, int ranks, State& st,
             std::size_t rep) {
  st = State{};
  // Return pooled buffers so every set-up pays the arena's first touch.
  capow::blas::WorkspaceArena::process_arena().trim();
  const double t0 = now_s();
  {
    const CpuPin pin(rep);
    st.ops = std::make_unique<Operands>(make_operands(w));
  }
  st.pool = std::make_unique<capow::tasking::ThreadPool>(workers);
  st.inline_pool = std::make_unique<capow::tasking::ThreadPool>(0);
  if (ranks > 0) {
    st.world = std::make_unique<capow::dist::World>(ranks);
    st.serial_world = std::make_unique<capow::dist::World>(1);
  }
  // Warm-up runs serially: it resolves kernels and first-touches arena
  // buffers in a fixed order, so the memory high-water does not depend
  // on how the pool happened to schedule it.
  const CpuPin pin(rep);
  for (const Call& c : warmup_calls(w)) run_call(w, c, *st.ops, st.ser());
  return now_s() - t0;
}

struct Phase {
  const std::vector<std::size_t>* order = nullptr;  ///< indices into calls
  Executor ex;
  bool pin = false;
  std::uint64_t salt = 0;
  std::vector<double> walls;                ///< every call, in order
  std::vector<std::vector<double>> by_pos;  ///< walls per position of order
  std::vector<double> pos_flops;            ///< per position of the order
  std::vector<double> cycle_gflops;         ///< sum flops / sum wall per cycle
  double flops = 0, seconds = 0, cpu_s = 0;
  std::size_t attempted = 0, failed = 0;
};

Phase make_phase(const Workload& w, const std::vector<std::size_t>& order,
                 const Executor& ex, bool pin, std::uint64_t salt) {
  Phase ph;
  ph.order = &order;
  ph.ex = ex;
  ph.pin = pin;
  ph.salt = salt;
  ph.by_pos.resize(order.size());
  for (std::size_t j : order) ph.pos_flops.push_back(w.calls[j].flops());
  return ph;
}

// One cycle of the phase's closed loop: every call of its order, each
// issued when the previous one returns; `max_calls` cuts smoke runs
// short. With `pin`, each call runs confined to one CPU, and a call's CPU
// moves on by one every cycle, so its repeats land on every CPU of the
// process.
void run_cycle(const Workload& w, State& st, Checker& checker, Phase& ph,
               std::size_t max_calls) {
  const std::vector<std::size_t>& order = *ph.order;
  const std::size_t cycle = ph.cycle_gflops.size();
  double cycle_flops = 0, cycle_s = 0;
  for (std::size_t pos = 0; pos < order.size() && ph.attempted < max_calls;
       ++pos) {
    const Call& c = w.calls[order[pos]];
    const std::uint64_t salt = ph.salt + ph.attempted;
    ++ph.attempted;
    st.ops->poison(c);
    std::optional<CpuPin> cpu;
    if (ph.pin) cpu.emplace(pos + cycle);
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    std::string error;
    try {
      run_call(w, c, *st.ops, ph.ex);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double dt = now_s() - t0;
    ph.cpu_s += process_cpu_s() - cpu0;
    cpu.reset();
    ph.seconds += dt;
    ph.walls.push_back(dt);
    ph.by_pos[pos].push_back(dt);
    ph.flops += c.flops();
    cycle_flops += c.flops();
    cycle_s += dt;
    if (error.empty()) {
      const CheckResult r = checker.check(w, c, *st.ops, salt);
      if (!r.ok) error = r.what;
    }
    if (!error.empty()) {
      ++ph.failed;
      std::printf("  FAILED %s %zux%zux%zu: %s\n", alg_name(c.alg), c.m, c.n,
                  c.k, error.c_str());
    }
  }
  if (cycle_s > 0) ph.cycle_gflops.push_back(cycle_flops / cycle_s / 1e9);
}

// A call's figure is the mean of its fastest half of runs. Every cycle
// repeats the same calls; on a shared host, neighbours only ever slow a
// call down (for seconds at a time a co-tenant on a vCPU's sibling or in
// the shared LLC halves single-thread speed, and steal on any one vCPU
// stalls a whole parallel call), so the slow half of a call's runs is
// left out. Half rather than the single fastest run: the fastest of a
// few runs is one sample, which one lucky moment moves. The medians over
// all runs are printed beside. Positions a smoke run never reached are
// left out.
double fast_half_s(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t half = std::max<std::size_t>(1, v.size() / 2);
  double s = 0;
  for (std::size_t i = 0; i < half; ++i) s += v[i];
  return s / static_cast<double>(half);
}
double fast_gflops(const Phase& ph) {
  double flops = 0, s = 0;
  for (std::size_t p = 0; p < ph.by_pos.size(); ++p) {
    if (ph.by_pos[p].empty()) continue;
    flops += ph.pos_flops[p];
    s += fast_half_s(ph.by_pos[p]);
  }
  return s > 0 ? flops / s / 1e9 : 0.0;
}
double fast_p50_s(const Phase& ph) {
  std::vector<double> v;
  for (const std::vector<double>& runs : ph.by_pos) {
    if (!runs.empty()) v.push_back(fast_half_s(runs));
  }
  return median(v);
}
// How many times each call ran (a smoke run's partial cycle counts as one).
std::size_t repeats(const Phase& ph) { return ph.cycle_gflops.size(); }
std::string repeats_note(const Phase& ph) {
  std::size_t reached = 0;
  for (const std::vector<double>& runs : ph.by_pos) reached += !runs.empty();
  return "(median over " + std::to_string(reached) +
         " calls of each call's fastest half of " +
         std::to_string(repeats(ph)) + " runs; median of all " +
         std::to_string(ph.walls.size()) + " runs " +
         fmt(1e3 * median(ph.walls)) + ")";
}

// The smoke run's negative controls: the checker must reject a call that
// was skipped, one that left the C22 quadrant unwritten and one with a
// wrong element, and accept the call itself. A fresh Checker keeps the
// run's record of full comparisons untouched.
bool check_self_test(const Workload& w, State& st) {
  const Call& c = w.calls.front();
  Checker probe(*st.pool);
  struct Case {
    const char* what;
    bool run;
    std::function<void(linalg::MatrixView)> damage;
    bool accept;
  };
  const Case cases[] = {
      {"call skipped", false, [](linalg::MatrixView) {}, false},
      {"C22 left unwritten", true,
       [](linalg::MatrixView v) {
         v.block(v.rows() / 2, v.cols() / 2, v.rows() - v.rows() / 2,
                 v.cols() - v.cols() / 2)
             .fill(std::numeric_limits<double>::quiet_NaN());
       },
       false},
      {"one element off by 1e-3", true,
       [](linalg::MatrixView v) { v(v.rows() / 2, v.cols() / 3) += 1e-3; },
       false},
      {"the call itself", true, [](linalg::MatrixView) {}, true},
  };
  bool ok = true;
  for (const Case& k : cases) {
    st.ops->poison(c);
    if (k.run) run_call(w, c, *st.ops, st.par());
    k.damage(st.ops->cv(c));
    const bool accepted = probe.check(w, c, *st.ops, 3).ok;
    ok &= accepted == k.accept;
    std::printf("  check self-test: %-24s %s%s\n", k.what,
                accepted ? "accepted" : "rejected",
                accepted == k.accept ? "" : " (WRONG)");
  }
  std::printf("check self-test: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const HostInfo host = host_info();
  const bool dist = is_dist(w.calls.front().alg);
  const unsigned workers = host.nproc > 1 ? host.nproc - 1 : 0;
  const int ranks = dist ? 4 : 0;
  const unsigned threads = dist ? static_cast<unsigned>(ranks) : workers + 1;
  const CpuTimes cpu_begin = read_cpu_times();

  std::printf("capow-bench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              args.seconds, args.trace, args.smoke ? " smoke" : "");
  std::printf("  nproc=%u  threads=%u (%s)\n", host.nproc, threads,
              dist ? "4 rank threads; caller blocked in join"
                   : "pool workers + caller");
  if (threads > host.nproc) {
    std::fprintf(stderr,
                 "capow-bench: %u threads requested but nproc is %u; "
                 "refusing to oversubscribe\n",
                 threads, host.nproc);
    return 2;
  }
  std::printf("  calls=%zu  serial subset=%zu  digest=%s\n", w.calls.size(),
              w.serial.size(), call_list_digest(w).c_str());
  std::printf("  reserved confirmation seed=%llu (not used for tuning)\n",
              static_cast<unsigned long long>(kConfirmSeed));
  std::printf("  llc=%.1f MiB (%s)\n", host.llc_bytes / 1048576.0,
              host.llc_source.c_str());
  std::printf("  kernel=%s  bound: %s\n", capow::blas::select_kernel().name,
              bound_statement().c_str());
  for (std::size_t i : w.serial) {
    std::printf("  bound of %s %zux%zux%zu: %s\n", alg_name(w.calls[i].alg),
                w.calls[i].m, w.calls[i].n, w.calls[i].k,
                error_model(w, w.calls[i]).text.c_str());
    if (w.serial.size() > 2) break;
  }

  // Set-up runs at least three times and, when it is cheap, until a
  // second has gone into it, so the median rests on enough samples.
  State st;
  std::vector<double> setups;
  double setup_total = 0;
  while (setups.size() < (args.smoke ? 1u : 3u) ||
         (!args.smoke && setup_total < 1.0 && setups.size() < 50)) {
    setups.push_back(setup(w, workers, ranks, st, setups.size()));
    setup_total += setups.back();
  }
  const int setup_reps = static_cast<int>(setups.size());
  const double setup_s = median(setups);
  // The serial phase starts from an empty arena, so the peak RSS it
  // reaches is set by its own calls, not by what the warm-up left pooled.
  capow::blas::WorkspaceArena::process_arena().trim();

  if (args.smoke && !check_self_test(w, st)) return 1;
  Checker checker(*st.pool);
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;

  if (args.trace == 0) {
    std::vector<std::size_t> all(w.calls.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    Phase ser = make_phase(w, w.serial, st.ser(), true, 1u << 20);
    Phase par = make_phase(w, all, st.par(), false, 1);
    // One serial cycle first, so the memory high-water up to its end
    // leaves out the parallel calls' per-worker buffers, which depend on
    // scheduling; later serial cycles reuse the arena's buffers.
    run_cycle(w, st, checker, ser, args.smoke ? 1 : SIZE_MAX);
    const double rss = peak_rss_mb();
    // Then whole serial and parallel cycles alternate, each time the one
    // that has taken less time, until each has had half of the run.
    // Alternating spreads each phase's repeats over the whole run, so a
    // contention episode of a few seconds slows some repeats of every
    // call instead of every repeat of one phase.
    const double budget = 0.5 * args.seconds;
    while (!args.smoke && (ser.seconds < budget || par.seconds < budget)) {
      run_cycle(w, st, checker, par.seconds <= ser.seconds ? par : ser,
                SIZE_MAX);
    }
    if (args.smoke) run_cycle(w, st, checker, par, 3);
    const double par_rss = peak_rss_mb();
    capow::blas::WorkspaceArena::process_arena().trim();
    const double peak = probe_kernel_peak_gflops();
    const StreamResult stream = probe_stream(*st.pool, host.llc_bytes);
    attempted = par.attempted + ser.attempted;
    failed = par.failed + ser.failed;
    correct = failed == 0;
    const double steal = steal_frac(cpu_begin, read_cpu_times());
    const char* serial_on =
        dist ? "1-rank world on one CPU" : "inline pool on one CPU";

    metrics = {
        {"serial_gflops", fast_gflops(ser), "GFLOP/s",
         std::string("(") + serial_on + ", each call's fastest half of " +
             std::to_string(repeats(ser)) +
             " runs over the CPUs; median cycle " +
             fmt(median(ser.cycle_gflops)) + ")"},
        {"serial_call_p50_ms", 1e3 * fast_p50_s(ser), "ms",
         repeats_note(ser)},
        {"gflops", fast_gflops(par), "GFLOP/s",
         "(" + std::to_string(threads) +
             " threads, each call's fastest half of " +
             std::to_string(repeats(par)) + " runs; median cycle " +
             fmt(median(par.cycle_gflops)) + ")"},
        {"call_p50_ms", 1e3 * fast_p50_s(par), "ms", repeats_note(par)},
        {"setup_s", setup_s, "s",
         "(median of " + std::to_string(setup_reps) + " set-ups)"},
        {"peak_rss_mb", rss, "MiB",
         "(VmHWM through set-up and the first serial cycle)"},
    };
    std::printf("end-to-end, gated (%zu serial calls in %zu cycles, %zu "
                "parallel calls in %zu cycles)\n",
                ser.walls.size(), ser.cycle_gflops.size(), par.walls.size(),
                par.cycle_gflops.size());
    print_metrics(metrics);
    std::printf("  %-26s %14.6g (%zu of %zu)\n", "error_rate",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                failed, attempted);
    std::printf("end-to-end, printed, not gated\n");
    print_metrics({
        {"call_p90_ms", 1e3 * percentile(par.walls, 90), "ms",
         samples_note(par.walls.size(), 90)},
        {"parallel_peak_rss_mb", par_rss, "MiB",
         "(VmHWM at the end of the run)"},
    });
    if (par.walls.size() >= 1000) {
      print_metrics({{"call_p99_ms", 1e3 * percentile(par.walls, 99), "ms",
                      samples_note(par.walls.size(), 99)}});
    }
    for (const Phase* ph : {&par, &ser}) {
      std::printf("  %-26s",
                  ph == &par ? "cycle GFLOP/s" : "serial cycle GFLOP/s");
      for (double g : ph->cycle_gflops) std::printf(" %.4g", g);
      std::printf("\n");
    }
    std::printf("  %-26s %14.6g ms over %d set-ups\n", "setup_s spread",
                1e3 * (*std::max_element(setups.begin(), setups.end()) -
                       *std::min_element(setups.begin(), setups.end())),
                setup_reps);
    std::printf("host\n");
    std::printf("  %-26s %14.6g (CPU s / wall x %u threads)\n",
                "tasking.busy_frac",
                par.seconds > 0 ? par.cpu_s / (par.seconds * threads) : 0.0,
                threads);
    std::printf("  %-26s %14.6g GFLOP/s\n", "host.kernel_peak_gflops", peak);
    std::printf("  %-26s %14.6g GB/s (3 arrays of %.1f MiB each; llc %.1f "
                "MiB)\n",
                "host.stream_gbs", stream.gbs,
                stream.array_bytes / 1048576.0, host.llc_bytes / 1048576.0);
    std::printf("  %-26s %14.6g\n", "host.steal_frac", steal);
    std::printf("  %-26s %14.6g (worst residual / bound; %zu full "
                "gemm_reference comparisons)\n",
                "check.worst_ratio", checker.worst_ratio(),
                checker.full_checks());
  } else {
    const double peak = probe_kernel_peak_gflops();
    const StreamResult stream = probe_stream(*st.pool, host.llc_bytes);
    TraceInputs in{w, *st.ops, st.pool.get(), st.world.get(),
                   st.serial_world.get(), checker, args.seconds, args.smoke,
                   args.out, threads};
    in.kernel_peak_gflops = peak;
    in.stream_gbs = stream.gbs;
    in.stream_array_bytes = stream.array_bytes;
    in.llc_bytes = host.llc_bytes;
    in.cpu_begin = cpu_begin;
    const TraceReport rep = run_traced(in);
    attempted = rep.attempted;
    failed = rep.failed;
    correct = failed == 0 && rep.conserved;
    for (const LayerMetric& m : rep.metrics) {
      metrics.push_back({m.name, m.value, m.unit, ""});
    }
    std::printf("  %-26s %14.6g s (median of %d; not a per-layer metric)\n",
                "setup_s", setup_s, setup_reps);
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace capowbench

int main(int argc, char** argv) {
  const capowbench::Args args = capowbench::parse(argc, argv);
  // A fixed mmap threshold: glibc otherwise raises it after each large
  // free, so whether a freed operand or arena buffer goes back to the OS
  // (and so the peak RSS) would depend on the history of earlier frees.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    return capowbench::run(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "capow-bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capow-bench: %s\n", e.what());
    return 1;
  }
}

// The traced pass: per-layer metrics and the wall-time ledger.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace capowbench {

struct TraceInputs {
  const Workload& w;
  Operands& ops;
  capow::tasking::ThreadPool* pool;  ///< the workload's pool
  capow::dist::World* world;         ///< dist_p4 only
  capow::dist::World* serial_world;  ///< dist_p4's 1-rank World
  Checker& checker;
  double seconds;
  bool smoke;
  std::string out_dir;  ///< Chrome trace and JSONL land here
  unsigned threads;     ///< threads the parallel ledger accounts for
  double kernel_peak_gflops = 0;
  double stream_gbs = 0;
  std::size_t stream_array_bytes = 0;
  std::size_t llc_bytes = 0;
  CpuTimes cpu_begin{};
};

struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

struct TraceReport {
  std::vector<LayerMetric> metrics;  ///< in BENCHMARK.json per_layer order
  bool conserved = true;
  /// Every replay made the same arena acquires, task spawns, syncs, leaf
  /// flops and CAPS base products as the library call it copies.
  bool replay_matches = true;
  std::size_t attempted = 0, failed = 0;
};

TraceReport run_traced(const TraceInputs& in);

}  // namespace capowbench

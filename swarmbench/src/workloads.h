// The benchmark's workloads. Each runs in its own process and returns its
// metrics plus the outcome of its correctness gates.

#ifndef SWARMBENCH_SRC_WORKLOADS_H_
#define SWARMBENCH_SRC_WORKLOADS_H_

#include <string>
#include <vector>

#include "swarmbench/src/common.h"

namespace swarmbench {

struct RunResult {
  std::vector<std::string> errors;  // Correctness-gate failures; empty = correct.
  uint64_t attempted = 0;           // Client requests issued in the timed phase.
  uint64_t failed = 0;              // Requests that never completed successfully.
  Metrics metrics;
  uint32_t value_size = 0;          // For the ladder.
};

// ycsb_b_cached and ycsb_a_miss.
bool IsYcsbWorkload(const std::string& name);
RunResult RunYcsb(const Options& opt, Trace* trace);

// chaos_churn.
RunResult RunChaosChurn(const Options& opt, Trace* trace);

// The layer ladder: N isolated calls per layer boundary, each rung in a fresh
// simulator. Adds ladder.* metrics; returns how many calls failed (none should).
uint64_t RunLadder(const Options& opt, uint32_t value_size, Metrics* out);

}  // namespace swarmbench

#endif  // SWARMBENCH_SRC_WORKLOADS_H_

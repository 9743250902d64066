// swarmbench: the SWARM-KV benchmark program.
//
//   swarmbench --workload <ycsb_b_cached|ycsb_a_miss|chaos_churn> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <file>]
//              [--tiny] [--inject <corrupt-value|stale-read>]
//
// Prints a fingerprint of what it runs, the deterministic figures, and as its
// last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (counters, the layer ladder, tracing overhead), and the
// spans go to --trace-out. Exit code 0 = every correctness gate passed,
// 1 = a gate failed, 2 = bad arguments.
//
// The program reads no environment variables: the bench-suite knobs
// (SWARM_PAPER_CALIBRATION, SWARM_BENCH_OPS, SWARM_BENCH_WARMUP,
// SWARM_BENCH_JSON_DIR) and the chaos-suite ones (CHAOS_*) cannot change what
// it measures. Any that are set are named in the fingerprint as ignored.

#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "swarmbench/src/common.h"
#include "swarmbench/src/workloads.h"

extern char** environ;

namespace swarmbench {
namespace {

// Kept in step with BENCHMARK.json (the benchmark's tests compare them).
const char* const kEndToEnd[] = {
    "get_p50_us",    "get_p99_us",    "update_p50_us",   "update_p99_us",    "tput_mops",
    "ok_ops_pct",    "max_outage_us", "host_ns_per_op", "host_peak_rss_mb", "setup_s",
};

const char* const kPerLayer[] = {
    // sim
    "sim.events_per_op", "sim.coroutine_events_per_op", "sim.frames_per_op", "sim.slab_refills",
    "sim.host_events_per_s", "ladder.event.host_ns",
    // fabric
    "fabric.verbs_per_op", "fabric.cas_per_op", "fabric.bytes_per_op", "fabric.doorbells_per_op",
    "fabric.verbs_per_batch", "fabric.doorbell_splits", "fabric.client_cpu_busy_pct",
    "fabric.stale_landings", "ladder.verb.host_ns", "ladder.verb.virtual_ns",
    // swarm protocol
    "proto.get_rtts_mean", "proto.update_rtts_mean", "proto.get_1rt_pct", "proto.update_1rt_pct",
    "proto.get_inplace_pct", "proto.clock_resyncs", "ladder.quorum_max_write.host_ns",
    "ladder.quorum_max_write.virtual_ns", "ladder.safe_guess_read.host_ns",
    "ladder.safe_guess_read.virtual_ns", "ladder.safe_guess_write.host_ns",
    "ladder.safe_guess_write.virtual_ns", "ladder.trylock.host_ns", "ladder.trylock.virtual_ns",
    // index and client cache
    "index.lookups_per_op", "index.inserts_per_op", "index.removes_per_op", "cache.miss_pct",
    "cache.evictions_per_op", "cache.invalidations", "index.retired_max", "index.retired_final",
    "index.retired_dropped", "ladder.index_lookup.host_ns",
    // kv
    "kv.insert.p50_us", "kv.insert.p99_us", "kv.remove.p50_us", "kv.remove.p99_us",
    "kv.not_found_pct", "kv.failed_ops_pct", "ladder.kv_get_hit.host_ns",
    "ladder.kv_get_hit.virtual_ns", "ladder.kv_get_miss.host_ns", "ladder.kv_get_miss.virtual_ns",
    "ladder.kv_update.host_ns", "ladder.kv_update.virtual_ns",
    // alloc
    "alloc.live_bytes_final", "alloc.high_water_bytes", "alloc.retired_regions_final",
    // recycler and membership
    "recycler.rounds", "recycler.epoch_final", "recycler.horizon_lag_final",
    "recycler.idle_tail_us", "recycler.fenced_clients",
    // repair
    "repair.completed", "repair.aborted", "repair.slots_repaired", "repair.virtual_us_mean",
    // chaos
    "chaos.faults",
    // verify
    "verify.check_host_s", "verify.history_ops", "verify.recorded_pct", "verify.max_window_ops",
    "verify.states", "ladder.lincheck.host_ns",
    // trace
    "trace.overhead_pct",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "swarmbench: %s\nusage: swarmbench --workload <ycsb_b_cached|ycsb_a_miss|"
               "chaos_churn> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--tiny] [--inject <corrupt-value|stale-read>]\n",
               why);
  return 2;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

bool Parse(int argc, char** argv, Options* opt, std::string* why) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        *why = a + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--tiny") {
      opt->tiny = true;
      continue;
    }
    if (!next(&v)) {
      return false;
    }
    char* end = nullptr;
    if (a == "--workload") {
      opt->workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      opt->trace = v == "1";
      if (v != "0" && v != "1") {
        *why = "--trace takes 0 or 1";
        return false;
      }
    } else if (a == "--trace-out") {
      opt->trace_out = v;
    } else if (a == "--inject") {
      opt->inject = v;
      if (v != "corrupt-value" && v != "stale-read") {
        *why = "unknown --inject " + v;
        return false;
      }
    } else {
      *why = "unknown argument " + a;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *why = "bad number for " + a + ": " + v;
      return false;
    }
  }
  if (!have_workload) {
    *why = "--workload is required";
    return false;
  }
  if (!IsYcsbWorkload(opt->workload) && opt->workload != "chaos_churn") {
    *why = "unknown workload " + opt->workload;
    return false;
  }
  if (!(opt->seconds > 0.0)) {
    *why = "--seconds must be positive";
    return false;
  }
  return true;
}

void PrintIgnoredEnv() {
  std::string ignored;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("SWARM_", 0) == 0 || kv.rfind("CHAOS_", 0) == 0) {
      ignored += (ignored.empty() ? "" : ",") + kv.substr(0, kv.find('='));
    }
  }
  std::printf("fingerprint: ignored_env=[%s]\n", ignored.c_str());
}

int Main(int argc, char** argv) {
  const double process_start = HostNow();
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it rises
  // after the first large free, so a later trial's calloc'd memory-node
  // arenas come from the heap and are memset, and peak RSS would depend on
  // what ran earlier in the process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  std::string why;
  if (!Parse(argc, argv, &opt, &why)) {
    return Usage(why.c_str());
  }
  PrintIgnoredEnv();
  Trace trace(opt.trace);
  RunResult res = opt.workload == "chaos_churn" ? RunChaosChurn(opt, &trace) : RunYcsb(opt, &trace);
  if (opt.trace) {
    if (RunLadder(opt, res.value_size, &res.metrics) != 0) {
      res.errors.push_back("a layer-ladder call failed in a fault-free simulator");
    }
    if (!opt.trace_out.empty()) {
      if (trace.WriteJsonl(opt.trace_out, process_start)) {
        std::printf("trace: %zu kv spans written to %s\n", trace.op_spans(),
                    opt.trace_out.c_str());
      } else {
        res.errors.push_back("could not write the trace to " + opt.trace_out);
      }
    }
  }

  // Deterministic figures: every virtual-time metric and count outside the
  // ladder. Equal across runs of one seed, traced or not.
  std::string det;
  for (const Metric& m : res.metrics.all()) {
    if (m.clock != Clock::kHost && m.name.rfind("ladder.", 0) != 0) {
      det += (det.empty() ? "" : ", ") + JsonString(m.name) + ": " + Num(m.value);
    }
  }
  std::printf("deterministic: {%s}\n", det.c_str());

  std::string metrics;
  auto emit = [&](const char* name) {
    const Metric* m = res.metrics.Find(name);
    if (m == nullptr) {
      res.errors.push_back(std::string("metric ") + name + " was not measured");
      return;
    }
    if (!std::isfinite(m->value)) {
      res.errors.push_back(std::string("metric ") + name + " is not a finite number");
      return;
    }
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) + ": {\"value\": " +
               Num(m->value) + ", \"unit\": " + JsonString(m->unit) + "}";
  };
  if (opt.trace) {
    for (const char* name : kPerLayer) {
      emit(name);
    }
  } else {
    for (const char* name : kEndToEnd) {
      emit(name);
    }
  }
  for (const std::string& e : res.errors) {
    std::printf("gate failed: %s\n", e.c_str());
  }
  const bool correct = res.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace swarmbench

int main(int argc, char** argv) { return swarmbench::Main(argc, argv); }

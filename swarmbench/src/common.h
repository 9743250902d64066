// Shared pieces of the SWARM-KV benchmark: run options, the metric list,
// host clocks, self-checking values, the per-op ledger (latency, counters,
// recorded history, spans) and the trace buffer.
//
// Two clocks are kept apart throughout. Virtual time (sim::Time, ns) is what
// the model predicts and is deterministic for a seed; host time (the
// thread's CPU clock) is what running the model costs. Every metric carries
// its clock.

#ifndef SWARMBENCH_SRC_COMMON_H_
#define SWARMBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <span>
#include <string>
#include <vector>

#include "src/kv/kv_types.h"
#include "src/sim/time.h"
#include "src/verify/lincheck.h"

namespace swarmbench {

namespace sim = swarm::sim;
namespace kv = swarm::kv;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // Smoke-test sizes (the benchmark's own tests).
  std::string inject;         // "" | "corrupt-value" | "stale-read" (gate self-tests).
  std::string trace_out;      // Span file for --trace 1 ("" = none).
};

// kVirtual and kCount are deterministic for a seed; kHost is CPU time.
enum class Clock : uint8_t { kVirtual, kCount, kHost };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kCount;
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit, Clock clock) {
    all_.push_back(Metric{std::move(name), value, std::move(unit), clock});
  }
  const std::vector<Metric>& all() const { return all_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> all_;
};

// Host wall clock: the --seconds deadline and the spans of the trace.
inline double HostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host CPU time of the calling thread, in seconds; every host metric is read
// on it. The benchmark runs in one thread, so this is what the run costs
// without the time the thread sat descheduled or throttled while other
// processes on a shared host ran: wall time on such a host swings by tens of
// percent from run to run, CPU time far less. The main thread's clock starts
// with the process.
inline double HostCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Percentile p in (0, 100] of integer-ns samples `v` (sorted in place); 0 if
// empty. Virtual time is quantized to 1 ns and many samples share a value,
// so the estimate interpolates within the tie group holding the rank (the
// grouped-data estimator): it lies within 0.5 ns of the nearest-rank value.
double Percentile(std::vector<int64_t>& v, double p);
double Median(std::vector<double> v);
// Peak resident set (VmHWM) of this process, MiB, since start or since the
// last ResetPeakRss().
double PeakRssMb();
void ResetPeakRss();
double PerOp(double total, uint64_t ops);
double Pct(double part, double whole);

// --- Self-checking values ----------------------------------------------------
//
// A value is [write id : 8][key : 8][filler derived from (id, key)]. Write
// ids are globally unique and nonzero, so a returned value names exactly one
// write; the ledger knows which key each id was written to.
// `out` must hold at least 16 bytes.
void EncodeValueInto(uint64_t id, uint64_t key, std::span<uint8_t> out);

enum class OpKind : uint8_t { kGet = 0, kUpdate, kInsert, kRemove };
const char* OpKindName(OpKind k);

// One virtual-time span per KV call.
struct OpSpan {
  uint64_t op_id = 0;
  uint64_t key = 0;
  OpKind kind = OpKind::kGet;
  sim::Time start = 0;
  sim::Time end = 0;
  int rtts = 0;
  kv::KvStatus status = kv::KvStatus::kOk;
};

// One host-time span around a phase of the run.
struct HostSpan {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Op spans are kept only while `keep_ops` is set (the measured window);
  // traced runs outside it still pay for recording but reuse one buffer.
  void set_keep_ops(bool keep) { keep_ops_ = keep; }
  void AddOp(const OpSpan& s) {
    if (!keep_ops_ && scratch_.size() >= kScratchCap) {
      scratch_.clear();
    }
    (keep_ops_ ? ops_ : scratch_).push_back(s);
  }
  void AddHost(std::string name, double start_s, double end_s) {
    host_.push_back(HostSpan{std::move(name), start_s, end_s});
  }
  size_t op_spans() const { return ops_.size(); }
  // Writes every kept span as one JSON object per line. Returns false on I/O error.
  bool WriteJsonl(const std::string& path, double t0) const;

 private:
  static constexpr size_t kScratchCap = 1 << 16;
  bool enabled_;
  bool keep_ops_ = false;
  std::vector<OpSpan> ops_;
  std::vector<OpSpan> scratch_;
  std::vector<HostSpan> host_;
};

// Scoped host span: records [construction, destruction) when tracing.
class HostPhase {
 public:
  HostPhase(Trace* trace, std::string name)
      : trace_(trace), name_(std::move(name)), start_(HostNow()) {}
  ~HostPhase() {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->AddHost(std::move(name_), start_, HostNow());
    }
  }
  HostPhase(const HostPhase&) = delete;
  HostPhase& operator=(const HostPhase&) = delete;

 private:
  Trace* trace_;
  std::string name_;
  double start_;
};

// Per-op accounting shared by every workload. Each completed KV call goes
// through Complete(): it verifies a returned value, counts the outcome,
// records the call into the linearizability history and, in the measured
// window, its virtual latency and span.
class OpLedger {
 public:
  explicit OpLedger(Trace* trace) : trace_(trace) {}

  // Spans are recorded only while a trace is attached (nullptr = untraced).
  void set_trace(Trace* trace) { trace_ = trace; }
  // Allocates a fresh write id for `key`.
  uint64_t NewWriteId(uint64_t key) {
    key_of_id_.push_back(key);
    return key_of_id_.size() - 1;
  }

  // Checks a returned value against the writes of `key`; returns its write id
  // or 0 (and logs an error) when no write of `key` produced those bytes.
  uint64_t VerifyRead(uint64_t key, std::span<const uint8_t> value);

  // The measured window: latencies, successful completions and (when a trace
  // is attached) kept spans. Outside it ops are only counted and checked.
  void BeginWindow(sim::Time now);
  void EndWindow() { window_ = false; }
  void set_record_history(bool on) { record_history_ = on; }
  // Gate self-test: the next successful get has one byte flipped before it
  // is verified (a store that returned a corrupted value).
  void InjectCorruption() { corrupt_next_get_ = true; }

  void Complete(OpKind kind, uint64_t key, uint64_t write_id, sim::Time start, sim::Time end,
                const kv::KvResult& r);

  // Counters since the last ResetCounts().
  struct Counts {
    uint64_t attempts = 0;
    uint64_t unavailable = 0;
    uint64_t not_found = 0;
    uint64_t gets = 0;
    uint64_t updates = 0;
    uint64_t get_rtts = 0;
    uint64_t update_rtts = 0;
    uint64_t get_1rt = 0;
    uint64_t update_1rt = 0;
    uint64_t get_inplace = 0;
  };
  const Counts& counts() const { return counts_; }
  void ResetCounts() { counts_ = Counts{}; }

  // Window results (valid after EndWindow()).
  std::vector<int64_t>& latencies(OpKind k) { return lat_[static_cast<size_t>(k)]; }
  sim::Time window_start() const { return window_start_; }
  // Completion time of the latest op (the end of a closed-loop phase; the
  // simulator's clock may run on past it through leftover timers).
  sim::Time last_completion() const { return last_end_; }
  // Time without service: the longest interval with no successful
  // completion, taken in each of `slices` equal runs of the window's
  // successful ops (the first also counts the wait from the window's start);
  // the median over slices, in us.
  double OutageUs(int slices) const;

  std::vector<swarm::verify::HistoryOp>& history() { return history_; }
  // Ops completed while the history was being recorded (recorded or not).
  uint64_t history_attempts() const { return history_attempts_; }
  const std::vector<std::string>& errors() const { return errors_; }
  void Error(std::string e) {
    constexpr size_t kMaxErrors = 20;  // A broken store could fail every get.
    if (errors_.size() < kMaxErrors) {
      errors_.push_back(std::move(e));
    } else if (errors_.size() == kMaxErrors) {
      errors_.push_back("(further errors not shown)");
    }
  }

 private:
  Trace* trace_;
  std::vector<uint64_t> key_of_id_{0};  // id 0 = "absent", never written.
  bool window_ = false;
  bool record_history_ = false;
  bool corrupt_next_get_ = false;
  Counts counts_;
  std::vector<int64_t> lat_[4];
  sim::Time window_start_ = 0;
  std::vector<sim::Time> ok_ends_;  // Successful completions in the window.
  sim::Time last_end_ = 0;
  uint64_t next_op_id_ = 0;
  std::vector<swarm::verify::HistoryOp> history_;
  uint64_t history_attempts_ = 0;
  std::vector<std::string> errors_;
};

// Linearizability check of the recorded history; fills the verify.* figures.
struct CheckOutcome {
  bool linearizable = true;
  std::string report;
  swarm::verify::CheckStats stats;
  double host_s = 0.0;
};
CheckOutcome CheckHistory(const std::vector<swarm::verify::HistoryOp>& history, Trace* trace);

// Gate self-test: rewrites one completed read of `history` to return a value
// that a later completed write had already overwritten before the read was
// invoked. Returns false when the history has no such read.
bool InjectStaleRead(std::vector<swarm::verify::HistoryOp>* history);

}  // namespace swarmbench

#endif  // SWARMBENCH_SRC_COMMON_H_

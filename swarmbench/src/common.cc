#include "swarmbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace swarmbench {

using swarm::verify::HistoryOp;

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : all_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

double Percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double target = p / 100.0 * static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::max(std::ceil(target), 1.0)) - 1;
  const int64_t value = v[std::min(rank, v.size() - 1)];
  const auto lo = std::lower_bound(v.begin(), v.end(), value);
  const auto hi = std::upper_bound(v.begin(), v.end(), value);
  const double below = static_cast<double>(lo - v.begin());
  return static_cast<double>(value) - 0.5 + (target - below) / static_cast<double>(hi - lo);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  // Writing 5 to clear_refs resets this process's VmHWM (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Pct(double part, double whole) { return whole == 0.0 ? 0.0 : 100.0 * part / whole; }

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint8_t FillerByte(uint64_t id, uint64_t key, size_t i) {
  return static_cast<uint8_t>(Mix(id * 1315423911ull + key + (i / 8)) >> (8 * (i % 8)));
}

uint64_t Load64(std::span<const uint8_t> b, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}

}  // namespace

void EncodeValueInto(uint64_t id, uint64_t key, std::span<uint8_t> out) {
  std::memcpy(out.data(), &id, 8);
  std::memcpy(out.data() + 8, &key, 8);
  for (size_t i = 16; i < out.size(); ++i) {
    out[i] = FillerByte(id, key, i);
  }
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kGet:
      return "get";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kRemove:
      return "remove";
  }
  return "?";
}

uint64_t OpLedger::VerifyRead(uint64_t key, std::span<const uint8_t> value) {
  if (value.size() < 16) {
    Error("get(" + std::to_string(key) + ") returned " + std::to_string(value.size()) +
          " bytes, shorter than any written value");
    return 0;
  }
  const uint64_t id = Load64(value, 0);
  const uint64_t vkey = Load64(value, 8);
  bool ok = id != 0 && id < key_of_id_.size() && key_of_id_[id] == key && vkey == key;
  for (size_t i = 16; ok && i < value.size(); ++i) {
    ok = value[i] == FillerByte(id, key, i);
  }
  if (!ok) {
    Error("get(" + std::to_string(key) + ") returned a value no write of that key produced (id " +
          std::to_string(id) + ", key field " + std::to_string(vkey) + ")");
    return 0;
  }
  return id;
}

void OpLedger::BeginWindow(sim::Time now) {
  window_ = true;
  window_start_ = now;
  ok_ends_.clear();
  for (auto& v : lat_) {
    v.clear();
  }
}

void OpLedger::Complete(OpKind kind, uint64_t key, uint64_t write_id, sim::Time start,
                        sim::Time end, const kv::KvResult& r) {
  using kv::KvStatus;
  ++counts_.attempts;
  last_end_ = std::max(last_end_, end);
  const bool unavailable = r.status == KvStatus::kUnavailable;
  counts_.unavailable += unavailable ? 1 : 0;
  counts_.not_found += r.status == KvStatus::kNotFound ? 1 : 0;
  if (kind == OpKind::kGet) {
    ++counts_.gets;
    counts_.get_rtts += static_cast<uint64_t>(r.rtts);
    counts_.get_1rt += r.rtts == 1 ? 1 : 0;
    counts_.get_inplace += r.used_inplace ? 1 : 0;
  } else if (kind == OpKind::kUpdate) {
    ++counts_.updates;
    counts_.update_rtts += static_cast<uint64_t>(r.rtts);
    counts_.update_1rt += r.rtts == 1 ? 1 : 0;
  }

  HistoryOp op;
  op.key = key;
  op.invoked = start;
  op.responded = end;
  bool record = true;
  switch (kind) {
    case OpKind::kGet:
      if (unavailable) {
        record = false;  // A failed read constrains nothing.
      } else if (r.status == KvStatus::kOk) {
        if (corrupt_next_get_ && !r.value.empty()) {
          corrupt_next_get_ = false;
          std::vector<uint8_t> bad(r.value.begin(), r.value.end());
          bad.back() ^= 0x5A;
          op.value = VerifyRead(key, bad);
        } else {
          op.value = VerifyRead(key, r.value);
        }
      }
      break;
    case OpKind::kUpdate:
      op.is_write = true;
      op.value = write_id;
      if (unavailable || (r.status == KvStatus::kNotFound && r.ambiguous)) {
        op.pending = true;  // Possibly applied.
      } else if (r.status == KvStatus::kNotFound) {
        op.is_write = false;  // A read of "absent".
        op.value = 0;
      }
      break;
    case OpKind::kInsert:
      op.is_write = true;
      op.value = write_id;
      op.pending = !r.ok();
      break;
    case OpKind::kRemove:
      op.is_write = true;  // A write of "absent".
      op.value = 0;
      if (unavailable) {
        op.pending = true;
      } else if (r.status == KvStatus::kNotFound) {
        op.is_write = false;
      }
      break;
  }
  if (record_history_) {
    ++history_attempts_;
    if (record) {
      history_.push_back(op);
    }
  }

  if (!window_) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->AddOp(OpSpan{next_op_id_++, key, kind, start, end, r.rtts, r.status});
    }
    return;
  }
  if (!unavailable) {
    lat_[static_cast<size_t>(kind)].push_back(end - start);
    ok_ends_.push_back(end);
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->AddOp(OpSpan{next_op_id_++, key, kind, start, end, r.rtts, r.status});
  }
}

double OpLedger::OutageUs(int slices) const {
  std::vector<double> worst;
  const size_t n = ok_ends_.size();
  for (int i = 0; i < slices; ++i) {
    const size_t first = n * static_cast<size_t>(i) / static_cast<size_t>(slices);
    const size_t last = n * static_cast<size_t>(i + 1) / static_cast<size_t>(slices);
    sim::Time prev = first == 0 ? window_start_ : ok_ends_[first - 1];
    sim::Time gap = 0;
    for (size_t j = first; j < last; ++j) {
      gap = std::max(gap, ok_ends_[j] - prev);
      prev = ok_ends_[j];
    }
    worst.push_back(static_cast<double>(gap) / 1e3);
  }
  return Median(worst);
}

CheckOutcome CheckHistory(const std::vector<HistoryOp>& history, Trace* trace) {
  CheckOutcome out;
  const double t0 = HostCpuNow();
  {
    HostPhase span(trace, "lincheck");
    swarm::verify::CheckResult res = swarm::verify::LinearizabilityChecker::CheckReport(history);
    out.linearizable = res.linearizable;
    out.stats = res.stats;
    if (!res.linearizable) {
      out.report = res.Describe(history);
    }
  }
  out.host_s = HostCpuNow() - t0;
  return out;
}

bool InjectStaleRead(std::vector<HistoryOp>* history) {
  struct KeyState {
    const HistoryOp* w1 = nullptr;
    const HistoryOp* w2 = nullptr;
  };
  std::map<uint64_t, KeyState> keys;
  for (HistoryOp& op : *history) {
    if (op.pending) {
      continue;
    }
    KeyState& k = keys[op.key];
    if (op.is_write && op.value != 0) {
      if (k.w1 == nullptr) {
        k.w1 = &op;
      } else if (k.w2 == nullptr && op.invoked > k.w1->responded) {
        k.w2 = &op;
      }
    } else if (!op.is_write && k.w2 != nullptr && op.invoked > k.w2->responded &&
               op.value != k.w1->value) {
      op.value = k.w1->value;  // Returns a value overwritten before it began.
      return true;
    }
  }
  return false;
}

bool Trace::WriteJsonl(const std::string& path, double t0) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const HostSpan& h : host_) {
    std::fprintf(f, "{\"span\":\"host\",\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 h.name.c_str(), h.start_s - t0, h.end_s - t0);
  }
  for (const OpSpan& s : ops_) {
    std::fprintf(f,
                 "{\"span\":\"kv\",\"op\":%llu,\"key\":%llu,\"type\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"rtts\":%d,\"status\":%d}\n",
                 static_cast<unsigned long long>(s.op_id), static_cast<unsigned long long>(s.key),
                 OpKindName(s.kind), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.rtts, static_cast<int>(s.status));
  }
  return std::fclose(f) == 0;
}

}  // namespace swarmbench

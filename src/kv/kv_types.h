// Common key-value store interface shared by SWARM-KV and the three
// baselines (RAW, DM-ABD, FUSEE), so benchmarks and examples can drive any
// of them interchangeably.

#ifndef SWARM_SRC_KV_KV_TYPES_H_
#define SWARM_SRC_KV_KV_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/task.h"

namespace swarm::kv {

// [[nodiscard]] (here and on KvResult): an unread KV status is the
// statically detectable shape of the chaos-found dropped-completion bugs;
// intentional drops go through swarm::DiscardStatus (src/util/discard.h).
enum class [[nodiscard]] KvStatus : uint8_t {
  kOk = 0,
  kNotFound,     // Key absent (never inserted, or deleted).
  kExists,       // Insert found an existing live mapping and updated it.
  kUnavailable,  // Quorum lost / store recovering.
};

struct [[nodiscard]] KvResult {
  KvStatus status = KvStatus::kUnavailable;
  sim::Bytes value;  // For gets (pool-backed: a fresh result is heap-free).
  int rtts = 0;                // Network roundtrips this op consumed.
  bool fast_path = false;      // Completed in the protocol's fast path.
  bool used_inplace = false;   // Gets: value served from in-place data.
  bool cache_hit = false;      // Location served from the client cache.
  // kNotFound only: the op's write may nonetheless have taken effect — a
  // Safe-Guess update that discovered a tombstone AFTER installing its
  // guessed word, which a concurrent reader may still commit. Testing
  // harnesses must treat such an op as possibly-applied, not as a definite
  // observation of absence.
  bool ambiguous = false;

  bool ok() const { return status == KvStatus::kOk || status == KvStatus::kExists; }
};

// One client worker's session with a store: supports one outstanding
// operation at a time (run several sessions for concurrent operations).
//
// Statuses each op may return:
//   Get     kOk (with value), kNotFound, kUnavailable.
//   Update  kOk, kNotFound (key absent; see KvResult::ambiguous),
//           kUnavailable.
//   Insert  kOk (fresh mapping), kExists (updated a live mapping),
//           kUnavailable. Never kNotFound: a tombstoned mapping is
//           overwritten.
//   Remove  kOk, kNotFound, kUnavailable.
// kUnavailable means the op may or may not have taken effect.
class KvSession {
 public:
  virtual ~KvSession() = default;

  virtual sim::Task<KvResult> Get(uint64_t key) = 0;
  virtual sim::Task<KvResult> Update(uint64_t key, std::span<const uint8_t> value) = 0;
  virtual sim::Task<KvResult> Insert(uint64_t key, std::span<const uint8_t> value) = 0;
  virtual sim::Task<KvResult> Remove(uint64_t key) = 0;
};

}  // namespace swarm::kv

#endif  // SWARM_SRC_KV_KV_TYPES_H_

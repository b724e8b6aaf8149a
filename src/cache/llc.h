// Last-level cache model: set-associative, write-back, write-allocate, LRU.
//
// The LLC filters core traffic before it reaches the memory system — the
// paper's §V-C3 sensitivity study sweeps its size (1/2/4/8 MB) to show how
// filtering changes refresh exposure. Timing is not modeled here (hits are
// folded into the core's compute stream); only the miss/writeback traffic
// matters to the memory system.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace rop::cache {

struct LlcConfig {
  std::uint64_t size_bytes = 2ull << 20;  // 2 MB (single-core default)
  std::uint32_t associativity = 16;
};

/// True when `cfg` can be built: a nonzero associativity, and a size that
/// divides into whole sets of lines with a power-of-two set count (the set
/// index is a bit mask) that fits the 32-bit set counter.
[[nodiscard]] bool valid_geometry(const LlcConfig& cfg);

struct LlcAccessResult {
  bool hit = false;
  /// Dirty victim line address evicted by this access's fill, if any.
  std::optional<Address> writeback;
};

struct LlcStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double hit_rate() const {
    return accesses ? static_cast<double>(hits) / static_cast<double>(accesses)
                    : 0.0;
  }
};

class Llc {
 public:
  explicit Llc(const LlcConfig& cfg);

  /// Access a byte address. On a miss the line is allocated immediately
  /// (hit-under-miss is implicit; the fill's DRAM latency is modeled by the
  /// memory system through the core's outstanding-miss tracking).
  LlcAccessResult access(Address addr, bool is_write);

  /// Probe without allocation or LRU update.
  [[nodiscard]] bool contains(Address addr) const;

  /// Mirror this cache's event counts into `registry` under
  /// `prefix` + {accesses,hits,misses,writebacks}. Handles are resolved
  /// here, once; access() then bumps them by pointer.
  void bind_stats(StatRegistry& registry, const std::string& prefix);

  [[nodiscard]] const LlcStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] const LlcConfig& config() const { return cfg_; }

  void reset();

  /// Snapshot serialization: the full tag/LRU array and the stat mirror.
  /// Config-derived geometry and the bound stat handles do not ride.
  template <class Ar>
  void io(Ar& ar) {
    ar(ways_, mru_, clock_, stats_.accesses, stats_.hits, stats_.misses,
       stats_.writebacks);
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
    bool dirty = false;

    template <class Ar>
    void io(Ar& ar) {
      ar(tag, lru, valid, dirty);
    }
  };

  [[nodiscard]] std::uint32_t set_index(Address addr) const;
  [[nodiscard]] std::uint64_t tag_of(Address addr) const;

  struct StatHandles {
    Counter* accesses = nullptr;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* writebacks = nullptr;
  };

  LlcConfig cfg_;
  std::uint32_t num_sets_;
  std::vector<Way> ways_;  // num_sets_ * associativity, row-major by set
  /// Per-set most-recently-touched way: access() probes it with a single
  /// tag compare before falling back to the set scan. Purely an access
  /// accelerator — hit/miss/victim decisions are unchanged by it.
  std::vector<std::uint32_t> mru_;
  std::uint64_t clock_ = 0;
  LlcStats stats_;
  StatHandles h_;  // null until bind_stats
};

}  // namespace rop::cache

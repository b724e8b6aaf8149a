#include "cache/llc.h"

#include <algorithm>

namespace rop::cache {

bool valid_geometry(const LlcConfig& cfg) {
  if (cfg.associativity == 0) return false;
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(cfg.associativity) * kLineBytes;
  const std::uint64_t sets = cfg.size_bytes / set_bytes;
  return cfg.size_bytes % set_bytes == 0 && sets != 0 &&
         (sets & (sets - 1)) == 0 && sets <= UINT32_MAX;
}

Llc::Llc(const LlcConfig& cfg) : cfg_(cfg) {
  ROP_ASSERT(valid_geometry(cfg));
  num_sets_ = static_cast<std::uint32_t>(
      cfg.size_bytes / (std::uint64_t{cfg.associativity} * kLineBytes));
  ways_.resize(static_cast<std::size_t>(num_sets_) * cfg.associativity);
  mru_.assign(num_sets_, 0);
}

std::uint32_t Llc::set_index(Address addr) const {
  return static_cast<std::uint32_t>((addr >> kLineShift) & (num_sets_ - 1));
}

std::uint64_t Llc::tag_of(Address addr) const {
  return (addr >> kLineShift) / num_sets_;
}

bool Llc::contains(Address addr) const {
  const std::uint32_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.associativity];
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Llc::bind_stats(StatRegistry& registry, const std::string& prefix) {
  h_.accesses = registry.counter_handle(prefix + "accesses");
  h_.hits = registry.counter_handle(prefix + "hits");
  h_.misses = registry.counter_handle(prefix + "misses");
  h_.writebacks = registry.counter_handle(prefix + "writebacks");
}

LlcAccessResult Llc::access(Address addr, bool is_write) {
  ++stats_.accesses;
  if (h_.accesses != nullptr) h_.accesses->inc();
  ++clock_;
  const std::uint32_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Way* base = &ways_[static_cast<std::size_t>(set) * cfg_.associativity];

  // MRU fast path: repeated touches to the hottest line in a set resolve
  // with a single tag compare. The set scan below is the slow path.
  {
    Way& mru = base[mru_[set]];
    if (mru.valid && mru.tag == tag) {
      ++stats_.hits;
      if (h_.hits != nullptr) h_.hits->inc();
      mru.lru = clock_;
      if (is_write) mru.dirty = true;
      return LlcAccessResult{true, std::nullopt};
    }
  }

  // Single pass over the set: probe for the tag while tracking the victim
  // a miss would need — the first invalid way, else the strictly-least-lru
  // valid way (lowest index wins ties). Hit/miss/victim decisions are
  // identical to a separate probe loop followed by a victim loop; a miss
  // just stops paying for the second scan.
  constexpr std::uint32_t kNone = ~0u;
  std::uint32_t first_invalid = kNone;
  std::uint32_t lru_way = kNone;
  for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
    Way& way = base[w];
    if (!way.valid) {
      if (first_invalid == kNone) first_invalid = w;
      continue;
    }
    if (way.tag == tag) {
      ++stats_.hits;
      if (h_.hits != nullptr) h_.hits->inc();
      way.lru = clock_;
      if (is_write) way.dirty = true;
      mru_[set] = w;
      return LlcAccessResult{true, std::nullopt};
    }
    if (lru_way == kNone || way.lru < base[lru_way].lru) lru_way = w;
  }

  ++stats_.misses;
  if (h_.misses != nullptr) h_.misses->inc();
  Way* victim = first_invalid != kNone ? &base[first_invalid] : &base[lru_way];

  LlcAccessResult result{false, std::nullopt};
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    if (h_.writebacks != nullptr) h_.writebacks->inc();
    const Address victim_line =
        (victim->tag * num_sets_ + set) << kLineShift;
    result.writeback = victim_line;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = clock_;
  victim->dirty = is_write;
  mru_[set] = static_cast<std::uint32_t>(victim - base);
  return result;
}

void Llc::reset() {
  std::fill(ways_.begin(), ways_.end(), Way{});
  std::fill(mru_.begin(), mru_.end(), 0u);
  clock_ = 0;
  stats_ = LlcStats{};
}

}  // namespace rop::cache

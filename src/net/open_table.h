// Open-addressed hash index for the per-window trackers of the gateway's
// hot loop (`WindowAccumulator`'s active-flow index and distinct-remote
// set).
//
// A window tracker is emptied once per observation window and refilled
// with a few to a few thousand keys (a DDoS window sees thousands of
// distinct flows). A node-based `std::unordered_map` pays a heap node per
// key; this table keeps one flat slot array whose capacity survives
// `clear()`, and clears through the slots it actually used, so emptying it
// costs O(entries), not O(capacity).
//
// Determinism: the table has no iteration interface. Callers read only
// point lookups and `size()`, never slot order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pmiot::net {

/// SplitMix64 finalizer: cheap and well mixed for the few packed bytes a
/// table key holds.
inline std::size_t mix_bits(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

/// Hash for tables keyed by an IPv4 address.
struct IpHash {
  std::size_t operator()(std::uint32_t ip) const noexcept {
    return mix_bits(ip);
  }
};

/// Map from `Key` to `Value`: linear probing over a power-of-two slot
/// array kept at most half full.
template <typename Key, typename Hash, typename Value = std::uint32_t>
class OpenTable {
 public:
  /// Inserts `key` -> `value` unless `key` is present. Returns the stored
  /// value (assignable) and whether this call inserted it. The reference
  /// is valid until the next `try_emplace` or `clear`: growth moves slots.
  std::pair<Value&, bool> try_emplace(const Key& key, Value value) {
    if (2 * (used_.size() + 1) > active_) grow();
    const std::size_t mask = active_ - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot = Slot{key, value, true};
        used_.push_back(static_cast<std::uint32_t>(i));
        return {slot.value, true};
      }
      if (slot.key == key) return {slot.value, false};
    }
  }

  /// Number of keys present.
  std::size_t size() const noexcept { return used_.size(); }

  /// Forgets every key; keeps the slot capacity.
  void clear() noexcept {
    for (const auto i : used_) slots_[i].used = false;
    used_.clear();
  }

  /// `clear`, and probe the smallest table again: keys spread over only
  /// as many slots as they need until growth, while the allocation stays
  /// for that growth. A table reused for many small key sets after one
  /// large one keeps its probes in cache this way.
  void clear_and_shrink() noexcept {
    clear();
    active_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  /// Doubles the probed table (16 slots at first), reusing the allocation
  /// when it is already large enough, and re-inserts every key.
  void grow() {
    moving_.clear();
    for (const auto i : used_) {
      moving_.push_back(slots_[i]);
      slots_[i].used = false;
    }
    used_.clear();
    active_ = std::max<std::size_t>(16, 2 * active_);
    if (slots_.size() < active_) slots_.resize(active_);
    for (const auto& slot : moving_) try_emplace(slot.key, slot.value);
  }

  std::vector<Slot> slots_;          ///< allocation; every slot unused past
                                     ///< the first `active_`
  std::size_t active_ = 0;           ///< probed slots: 0 or a power of two
  std::vector<std::uint32_t> used_;  ///< occupied slot positions
  std::vector<Slot> moving_;         ///< `grow` scratch
};

}  // namespace pmiot::net

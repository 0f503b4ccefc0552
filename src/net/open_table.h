// Open-addressed hash index for the per-window trackers of the gateway's
// hot loop (`FlowTable`'s active-flow index, `WindowAccumulator`'s
// distinct-remote set).
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

/// Map from `Key` to a 32-bit value: linear probing over a power-of-two
/// slot array kept at most half full.
template <typename Key, typename Hash>
class OpenTable {
 public:
  /// Inserts `key` -> `value` unless `key` is present. Returns the stored
  /// value (assignable) and whether this call inserted it. The reference
  /// is valid until the next `try_emplace` or `clear`.
  std::pair<std::uint32_t&, bool> try_emplace(const Key& key,
                                              std::uint32_t value) {
    if (2 * (used_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
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

 private:
  struct Slot {
    Key key{};
    std::uint32_t value = 0;
    bool used = false;
  };

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    std::vector<std::uint32_t> positions;
    positions.swap(used_);
    for (const auto i : positions) try_emplace(old[i].key, old[i].value);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;  ///< occupied slot positions
};

}  // namespace pmiot::net

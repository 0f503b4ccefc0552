// Deterministic observability: process-wide registry of named counters
// and timers.
//
// The determinism contract (README "Determinism contract") extends to
// metrics: counter snapshots are bitwise identical at any
// `PMIOT_THREADS`. Inside a `parallel_for` batch every increment lands
// in a per-shard cell (installed via `par::BatchObserver`); cells are merged
// into the registry totals in shard-index order at batch join. Increments
// outside a batch go straight to the totals in caller program order. Two
// metric families are explicitly *excluded* from the contract and omitted
// from deterministic snapshots: `Timer` spans (wall durations) and the
// per-worker shard counts exported as `par.worker_shards.<w>`.
//
// Everything is gated by the `PMIOT_METRICS` environment switch (any value
// except "0" enables), cached once into a process-wide bool: with metrics
// off, `Counter::add` is a relaxed load and a branch.
//
// Call-site idiom (registration is thread-safe and happens once):
//
//   static obs::Counter& c =
//       obs::MetricsRegistry::instance().counter("net.flow_table.inserts");
//   c.add();
//
// Metric names are dot-separated, `<subsystem>.<component>.<what>`, with
// `<what>` a plural noun for counters (e.g. `ml.tree.nodes_split`).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmiot::obs {

namespace detail {
// Cached PMIOT_METRICS switch. Atomic only so tests can flip it while pool
// workers exist; all loads are relaxed (one plain load on the hot path).
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when metric recording is on (PMIOT_METRICS set and not "0", or
/// overridden by `set_enabled_for_testing`).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Test hook: the env switch is cached before main() runs, so tests toggle
/// recording with this instead. Never call while a batch is in flight.
void set_enabled_for_testing(bool on) noexcept;

class MetricsRegistry;

/// Monotonic event count. `add` inside a `parallel_for` shard accumulates
/// into that shard's cell; outside a batch it hits the total directly.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    if (!enabled()) return;
    add_enabled(delta);
  }

  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::size_t id) noexcept : id_(id) {}
  void add_enabled(std::uint64_t delta) noexcept;

  const std::size_t id_;
  std::atomic<std::uint64_t> value_{0};
};

/// Wall-duration accumulator fed by `ScopedTimer` (src/obs/scoped_timer.h).
/// Durations are scheduling-dependent: timers appear only in
/// nondeterministic snapshots and are excluded from the determinism
/// contract.
class Timer {
 public:
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void record_ns(std::uint64_t ns) noexcept;

 private:
  friend class MetricsRegistry;
  Timer() noexcept = default;

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Point-in-time copy of registry values, sorted by metric name. The
/// `counters` section is covered by the determinism contract; `timers` and
/// `worker_shards` are populated only when
/// `SnapshotOptions::include_nondeterministic` is set.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct TimerValue {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  std::vector<CounterValue> counters;
  // Excluded from the determinism contract:
  std::vector<TimerValue> timers;
  std::vector<CounterValue> worker_shards;  // "par.worker_shards.<w>"
};

struct SnapshotOptions {
  bool include_nondeterministic = false;
};

/// Process-wide metric registry. Registration interns by name (same name ->
/// same object, stable address for the life of the process) and is
/// thread-safe; lookups are intended to be cached in a function-local
/// static at the call site. Constructing the registry also installs the
/// `par::BatchObserver` that gives batches their per-shard counter cells.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);

  /// Empty when metrics are disabled. Never call while a batch is in
  /// flight (totals are merged at batch join).
  Snapshot snapshot(const SnapshotOptions& opts = {}) const;

  /// Zeroes every registered value (registrations themselves persist, so
  /// cached references stay valid). Never call while a batch is in flight.
  void reset_values_for_testing();

 private:
  MetricsRegistry();
  ~MetricsRegistry();

  struct Impl;
  Impl* impl_;
};

/// Human-readable snapshot: one metric per line, deterministic sections
/// first, nondeterministic sections (if present) after a marker line.
std::string to_text(const Snapshot& snap);

/// JSON snapshot following the bench_json.h conventions (escaping, numeric
/// formatting, null for non-finite doubles).
std::string to_json(const Snapshot& snap, std::string_view source);

/// Convenience for benches/examples: when metrics are enabled, prints the
/// full (deterministic + nondeterministic) text snapshot to stderr and
/// writes `METRICS_<name>.json`; a no-op when disabled. Primary bench
/// outputs (stdout, BENCH_*.json) are never touched, so they stay bitwise
/// identical with metrics on and off.
void emit_if_enabled(const std::string& name);

}  // namespace pmiot::obs

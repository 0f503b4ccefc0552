#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/json.h"
#include "common/parallel.h"

namespace pmiot::obs {

namespace detail {

namespace {

bool read_env_enabled() {
  const char* env = std::getenv("PMIOT_METRICS");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

std::atomic<bool> g_enabled{read_env_enabled()};

}  // namespace detail

void set_enabled_for_testing(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Per-shard accumulation cell. Each cell is written by exactly one thread
// at a time (the thread running that shard); the vector grows on demand so
// counters registered mid-batch still work.
struct Cell {
  std::vector<std::uint64_t> counters;  // indexed by counter id
};

// Cell for the shard the current thread is executing, or nullptr outside
// a batch (increments then go straight to the registry totals).
thread_local Cell* tls_cell = nullptr;

// One top-level parallel_for batch: a lazily-filled cell per shard. Slots
// are pre-sized at batch begin, so concurrent shards write disjoint
// entries without reallocation.
struct BatchContext {
  std::size_t begin = 0;
  std::vector<std::unique_ptr<Cell>> cells;
};

constexpr std::size_t kMaxTrackedWorkers = 128;

}  // namespace

struct MetricsRegistry::Impl final : par::BatchObserver {
  mutable std::mutex mu;

  // std::map keeps addresses stable for the life of the process and
  // iterates in name order, which is what snapshots emit.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers;
  std::vector<Counter*> counters_by_id;

  // Batch-shape counters fed by the observer hooks (registered in the
  // MetricsRegistry constructor, so never null once hooks can fire).
  Counter* batches = nullptr;
  Counter* shards = nullptr;

  // How many shards each worker executed; scheduling-dependent, exported
  // as `par.worker_shards.<w>` in nondeterministic snapshots only.
  std::atomic<std::uint64_t> worker_shards[kMaxTrackedWorkers] = {};

  // --- par::BatchObserver ------------------------------------------------

  void* on_batch_begin(std::size_t begin, std::size_t end) override {
    // tls_cell set means this call is nested inside a running shard: its
    // increments belong to the enclosing shard's cell, and the batch is
    // not counted — at width 1 the same call would be a plain inline loop.
    if (!enabled() || tls_cell != nullptr) return nullptr;
    batches->add(1);
    shards->add(end - begin);
    auto* ctx = new BatchContext;
    ctx->begin = begin;
    ctx->cells.resize(end - begin);
    return ctx;
  }

  void on_shard_begin(void* token, std::size_t shard,
                      std::size_t worker) override {
    auto* ctx = static_cast<BatchContext*>(token);
    auto& slot = ctx->cells[shard - ctx->begin];
    slot = std::make_unique<Cell>();
    tls_cell = slot.get();
    worker_shards[std::min(worker, kMaxTrackedWorkers - 1)].fetch_add(
        1, std::memory_order_relaxed);
  }

  void on_shard_end(void* /*token*/, std::size_t /*shard*/) override {
    tls_cell = nullptr;
  }

  void on_batch_end(void* token, bool failed) override {
    // On the inline path a throwing shard skips its on_shard_end; this
    // runs on the same (caller) thread, so clear the cell pointer here.
    tls_cell = nullptr;
    std::unique_ptr<BatchContext> ctx(static_cast<BatchContext*>(token));
    if (failed) return;  // discard wholesale; see audit note below
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& cell : ctx->cells) {
      if (cell == nullptr) continue;  // shard recorded nothing
      for (std::size_t id = 0; id < cell->counters.size(); ++id) {
        counters_by_id[id]->value_.fetch_add(cell->counters[id],
                                             std::memory_order_relaxed);
      }
    }
  }
};

// Exception-path audit (pinned by Obs.FailedBatchDiscardsAllShardCells):
// when an iteration throws, the pool path still runs every remaining
// iteration while the inline (width-1) path stops at the throw — so the
// set of shards that executed differs by width, and merging the surviving
// cells could never be deterministic. The one width-invariant policy is to
// discard the whole batch's cells: counters observe either all of a
// successful batch or none of a failed one, at every pool width.

void Counter::add_enabled(std::uint64_t delta) noexcept {
  if (Cell* cell = tls_cell; cell != nullptr) {
    if (cell->counters.size() <= id_) cell->counters.resize(id_ + 1, 0);
    cell->counters[id_] += delta;
    return;
  }
  value_.fetch_add(delta, std::memory_order_relaxed);
}

void Timer::record_ns(std::uint64_t ns) noexcept {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (prev < ns &&
         !max_ns_.compare_exchange_weak(prev, ns,
                                        std::memory_order_relaxed)) {
  }
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {
  impl_->batches = &counter("par.batches");
  impl_->shards = &counter("par.shards");
}

// The singleton is never destroyed (static storage, process lifetime), but
// keep the destructor well-defined for completeness.
MetricsRegistry::~MetricsRegistry() {
  par::set_batch_observer(nullptr);
  delete impl_;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry;
    // Installed from here so linking pmiot_obs into a static binary can
    // never drop it: every instrumented call site reaches instance() first.
    par::set_batch_observer(r->impl_);
    return r;
  }();
  return *reg;
}

namespace {

// Force registry construction (and observer installation) during static
// initialization. Function-local registration alone would miss any batch
// whose first instrumented call runs *inside* a parallel_for body — the
// observer would not yet exist at on_batch_begin, so the batch (and its
// par.batches / par.shards contribution) would go uncounted. This TU is
// always pulled into the link by the instrumented call sites, so the
// initializer cannot be dropped by static-archive linking.
[[maybe_unused]] const bool g_registry_installed = [] {
  MetricsRegistry::instance();
  return true;
}();

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    const std::size_t id = impl_->counters_by_id.size();
    it = impl_->counters
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(id)))
             .first;
    impl_->counters_by_id.push_back(it->second.get());
  }
  return *it->second;
}

Timer& MetricsRegistry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->timers.find(name);
  if (it == impl_->timers.end()) {
    it = impl_->timers
             .emplace(std::string(name), std::unique_ptr<Timer>(new Timer))
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot(const SnapshotOptions& opts) const {
  Snapshot snap;
  if (!enabled()) return snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.push_back({name, c->value()});
  }
  if (!opts.include_nondeterministic) return snap;
  for (const auto& [name, t] : impl_->timers) {
    snap.timers.push_back({name,
                           t->count_.load(std::memory_order_relaxed),
                           t->total_ns_.load(std::memory_order_relaxed),
                           t->max_ns_.load(std::memory_order_relaxed)});
  }
  for (std::size_t w = 0; w < kMaxTrackedWorkers; ++w) {
    const std::uint64_t n =
        impl_->worker_shards[w].load(std::memory_order_relaxed);
    if (n != 0) {
      snap.worker_shards.push_back(
          {"par.worker_shards." + std::to_string(w), n});
    }
  }
  return snap;
}

void MetricsRegistry::reset_values_for_testing() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, t] : impl_->timers) {
    t->count_.store(0, std::memory_order_relaxed);
    t->total_ns_.store(0, std::memory_order_relaxed);
    t->max_ns_.store(0, std::memory_order_relaxed);
  }
  for (auto& w : impl_->worker_shards) {
    w.store(0, std::memory_order_relaxed);
  }
}

// --- emitters -------------------------------------------------------------

namespace {

void text_counters(std::ostringstream& os,
                   const std::vector<Snapshot::CounterValue>& counters) {
  for (const auto& c : counters) {
    os << "counter " << c.name << ' ' << c.value << '\n';
  }
}

}  // namespace

std::string to_text(const Snapshot& snap) {
  std::ostringstream os;
  text_counters(os, snap.counters);
  if (snap.timers.empty() && snap.worker_shards.empty()) return os.str();
  os << "-- nondeterministic (excluded from the determinism contract) --\n";
  for (const auto& t : snap.timers) {
    os << "timer " << t.name << " count=" << t.count
       << " total_ns=" << t.total_ns << " max_ns=" << t.max_ns << '\n';
  }
  text_counters(os, snap.worker_shards);
  return os.str();
}

std::string to_json(const Snapshot& snap, std::string_view source) {
  std::ostringstream os;
  os << "{\n  \"source\": \"" << json_escape(std::string(source))
     << "\",\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(snap.counters[i].name)
       << "\": " << snap.counters[i].value;
  }
  os << "},\n  \"timers\": [";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    const auto& t = snap.timers[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << json_escape(t.name) << "\", \"count\": " << t.count
       << ", \"total_ns\": " << t.total_ns << ", \"max_ns\": " << t.max_ns
       << '}';
  }
  os << (snap.timers.empty() ? "" : "\n  ") << "],\n  \"worker_shards\": {";
  for (std::size_t i = 0; i < snap.worker_shards.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(snap.worker_shards[i].name)
       << "\": " << snap.worker_shards[i].value;
  }
  os << "}\n}\n";
  return os.str();
}

void emit_if_enabled(const std::string& name) {
  if (!enabled()) return;
  const Snapshot snap = MetricsRegistry::instance().snapshot(
      {.include_nondeterministic = true});
  std::cerr << "-- metrics (" << name << ") --\n" << to_text(snap);
  // PMIOT_BENCH_DIR redirects machine-readable artifacts (here and in
  // bench/bench_json.h) so CI upload steps do not depend on the build
  // directory layout. Default: current working directory.
  std::string path = "METRICS_" + name + ".json";
  if (const char* dir = std::getenv("PMIOT_BENCH_DIR"); dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: could not write " << path << '\n';
    return;
  }
  os << to_json(snap, name);
}

}  // namespace pmiot::obs

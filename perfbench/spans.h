// In-memory span recorder for the benchmark's traced run.
//
// The benchmark re-drives each workload through the layers' public calls
// and wraps every call in a `ScopedSpan`. A span records its name, the
// layer it measures, start and end (seconds since the recorder's epoch),
// the span that caused it, and a request id (the home, cell or grid it
// serves). Spans are kept in memory and summarized after the pass.
//
// Two kinds of span:
//   * stage spans time one call into a layer (`net.extract_rows`,
//     `attack.forest.fit`, ...). Their self time is what the per-layer
//     numbers report.
//   * group spans (layer `kGroup`) are the benchmark's own structure: the
//     root pass and one span per request. They never count as a layer.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover (children may run on other threads). The wall
// attribution splits every instant of the root span evenly among the stage
// spans whose self time covers it, so the per-layer wall shares add up to
// the coverage: the fraction of the traced wall spent inside some stage.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The repository's modules, as the benchmark reports them.
enum class Layer : std::uint8_t {
  kSynth,
  kFleet,
  kNet,
  kMl,
  kCore,
  kDefense,
  kCampaign,
  kPar,
  kGroup,  ///< benchmark structure (root, request); not a layer
};
inline constexpr std::size_t kNumLayers = 8;

/// "synth", "fleet", "net", "ml", "core", "defense", "campaign",
/// "common.par"; "group" for kGroup.
const char* layer_name(Layer layer);

struct Span {
  std::string_view name;  ///< must outlive the recorder (string literals)
  Layer layer = Layer::kGroup;
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< 0 = none
  std::uint64_t request = 0;
  std::uint32_t thread = 0;  ///< small per-process thread number
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Thread-safe span sink. One recorder per traced pass.
class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Seconds since this recorder was constructed (steady clock).
  double now() const;

  std::uint32_t next_id() noexcept { return next_id_.fetch_add(1) + 1; }
  void add(const Span& span);

  /// Every finished span, in completion order.
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::int64_t epoch_ns_ = 0;
  std::atomic<std::uint32_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while recording
};

/// Marker for "take it from the innermost open span on this thread".
inline constexpr std::uint32_t kInheritParent = ~std::uint32_t{0};
inline constexpr std::uint64_t kInheritRequest = ~std::uint64_t{0};

/// RAII span. The parent defaults to the innermost span open on the calling
/// thread; work handed to a pool worker passes its parent explicitly. The
/// request defaults to the parent's (0 at the root).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name, Layer layer,
             std::uint64_t request = kInheritRequest,
             std::uint32_t parent = kInheritParent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return span_.id; }
  std::uint64_t request() const noexcept { return span_.request; }

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// What one traced pass says about its layers.
struct TraceSummary {
  double wall_s = 0.0;     ///< root span duration
  double covered_s = 0.0;  ///< wall time inside some stage's self time
  double coverage = 0.0;   ///< covered_s / wall_s
  /// Per layer: summed self time over every thread (busy time).
  std::array<double, kNumLayers> self_s{};
  /// Per layer: wall time attributed as described above; sums to covered_s.
  std::array<double, kNumLayers> wall_s_by_layer{};
  /// Per stage name: summed inclusive duration and call count.
  std::map<std::string, double, std::less<>> busy_s;
  std::map<std::string, std::uint64_t, std::less<>> calls;
};

/// Summarizes one traced pass: `root` is the pass span (which must be among
/// `spans`) and every other span counts.
TraceSummary summarize(std::span<const Span> spans, std::uint32_t root);

/// Pool utilisation of the parallel phases named `phase`: the summed
/// duration of their direct children over (summed phase wall x threads).
/// 0 when no such phase ran.
double busy_share(std::span<const Span> spans, std::string_view phase,
                  std::size_t threads);

/// Writes `spans` as a Chrome trace-event JSON document (viewable in
/// Perfetto or chrome://tracing): one complete event per span, the layer as
/// its category, and id, parent and request as arguments.
void write_trace_events(std::ostream& os, std::span<const Span> spans);

/// Durations of every span named `name`, in completion order.
std::vector<double> durations(std::span<const Span> spans,
                              std::string_view name);

}  // namespace perfbench

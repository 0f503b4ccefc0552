#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last: (id, request).
thread_local std::vector<std::pair<std::uint32_t, std::uint64_t>> t_open;

std::atomic<std::uint32_t> g_threads{0};

std::uint32_t thread_number() {
  thread_local const std::uint32_t number = g_threads.fetch_add(1);
  return number;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSynth: return "synth";
    case Layer::kFleet: return "fleet";
    case Layer::kNet: return "net";
    case Layer::kMl: return "ml";
    case Layer::kCore: return "core";
    case Layer::kDefense: return "defense";
    case Layer::kCampaign: return "campaign";
    case Layer::kPar: return "common.par";
    case Layer::kGroup: return "group";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

double SpanRecorder::now() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

void SpanRecorder::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, std::string_view name,
                       Layer layer, std::uint64_t request,
                       std::uint32_t parent)
    : recorder_(recorder) {
  span_.name = name;
  span_.layer = layer;
  span_.id = recorder.next_id();
  span_.parent = parent != kInheritParent ? parent
                 : t_open.empty()         ? 0
                                          : t_open.back().first;
  span_.request = request != kInheritRequest ? request
                  : t_open.empty()           ? 0
                                             : t_open.back().second;
  span_.thread = thread_number();
  t_open.emplace_back(span_.id, span_.request);
  span_.start_s = recorder.now();
}

ScopedSpan::~ScopedSpan() {
  span_.end_s = recorder_.now();
  t_open.pop_back();
  recorder_.add(span_);
}

namespace {

/// `span` minus the union of `children` (clipped to the span), as sorted
/// disjoint segments.
std::vector<std::pair<double, double>> self_segments(
    const Span& span, std::vector<std::pair<double, double>> children) {
  for (auto& [a, b] : children) {
    a = std::max(a, span.start_s);
    b = std::min(b, span.end_s);
  }
  std::sort(children.begin(), children.end());
  std::vector<std::pair<double, double>> out;
  double cursor = span.start_s;
  for (const auto& [a, b] : children) {
    if (b <= a) continue;
    if (a > cursor) out.emplace_back(cursor, a);
    cursor = std::max(cursor, b);
  }
  if (span.end_s > cursor) out.emplace_back(cursor, span.end_s);
  return out;
}

}  // namespace

TraceSummary summarize(std::span<const Span> spans, std::uint32_t root) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<double, double>>>
      children;
  const Span* root_span = nullptr;
  for (const auto& s : spans) {
    if (s.id == root) root_span = &s;
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  if (root_span == nullptr) throw std::invalid_argument("root span missing");

  TraceSummary out;
  out.wall_s = root_span->duration_s();

  // Sweep events over the stage spans' self segments: (time, layer, +1/-1).
  struct Event {
    double t;
    int delta;
    std::size_t layer;
  };
  std::vector<Event> events;
  for (const auto& s : spans) {
    if (s.layer == Layer::kGroup) continue;
    const auto layer = static_cast<std::size_t>(s.layer);
    out.busy_s[std::string(s.name)] += s.duration_s();
    ++out.calls[std::string(s.name)];
    const auto it = children.find(s.id);
    const auto segments =
        self_segments(s, it == children.end()
                             ? std::vector<std::pair<double, double>>{}
                             : it->second);
    for (const auto& [a, b] : segments) {
      // Only the part inside the root counts toward the wall.
      const double lo = std::max(a, root_span->start_s);
      const double hi = std::min(b, root_span->end_s);
      out.self_s[layer] += b - a;
      if (hi > lo) {
        events.push_back({lo, +1, layer});
        events.push_back({hi, -1, layer});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.t < y.t; });

  std::array<int, kNumLayers> active{};
  int total_active = 0;
  double prev = root_span->start_s;
  for (const auto& e : events) {
    const double dt = e.t - prev;
    if (dt > 0.0 && total_active > 0) {
      for (std::size_t l = 0; l < kNumLayers; ++l) {
        if (active[l] > 0) {
          out.wall_s_by_layer[l] +=
              dt * static_cast<double>(active[l]) / total_active;
        }
      }
      out.covered_s += dt;
    }
    prev = e.t;
    active[e.layer] += e.delta;
    total_active += e.delta;
  }
  out.coverage = out.wall_s > 0.0 ? out.covered_s / out.wall_s : 0.0;
  return out;
}

double busy_share(std::span<const Span> spans, std::string_view phase,
                  std::size_t threads) {
  std::unordered_map<std::uint32_t, double> phase_wall;
  for (const auto& s : spans) {
    if (s.name == phase) phase_wall.emplace(s.id, s.duration_s());
  }
  double wall = 0.0;
  for (const auto& [id, d] : phase_wall) wall += d;
  double busy = 0.0;
  for (const auto& s : spans) {
    if (phase_wall.count(s.parent) != 0) busy += s.duration_s();
  }
  const double capacity = wall * static_cast<double>(threads);
  return capacity > 0.0 ? busy / capacity : 0.0;
}

void write_trace_events(std::ostream& os, std::span<const Span> spans) {
  os << "{\"traceEvents\": [";
  const char* sep = "\n";
  char buf[512];
  for (const auto& s : spans) {
    // Span names are literals of [a-z0-9._+-]; nothing needs escaping.
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%.*s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"id\": %u, \"parent\": %u, \"request\": %llu}}",
                  sep, static_cast<int>(s.name.size()), s.name.data(),
                  layer_name(s.layer), s.start_s * 1e6, s.duration_s() * 1e6,
                  s.thread, s.id, s.parent,
                  static_cast<unsigned long long>(s.request));
    os << buf;
    sep = ",\n";
  }
  os << "\n]}\n";
}

std::vector<double> durations(std::span<const Span> spans,
                              std::string_view name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(s.duration_s());
  }
  return out;
}

}  // namespace perfbench

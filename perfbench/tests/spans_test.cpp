// Self-time, wall attribution, coverage and busy-share arithmetic of the
// span recorder, on hand-built spans with known answers, plus the recorder
// itself and its trace-event output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

Span make(std::uint32_t id, std::uint32_t parent, Layer layer, double start,
          double end, std::string_view name = "stage") {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(Summarize, SelfTimeSubtractsNestedChildren) {
  // root [0,10]; net [0,4] holds ml [1,2]; core [5,9].
  const std::vector<Span> spans = {
      make(1, 0, Layer::kGroup, 0, 10, "pass"),
      make(2, 1, Layer::kNet, 0, 4, "net.a"),
      make(3, 2, Layer::kMl, 1, 2, "ml.b"),
      make(4, 1, Layer::kCore, 5, 9, "core.c"),
  };
  const auto s = summarize(spans, 1);
  EXPECT_DOUBLE_EQ(s.wall_s, 10.0);
  EXPECT_DOUBLE_EQ(s.self_s[static_cast<std::size_t>(Layer::kNet)], 3.0);
  EXPECT_DOUBLE_EQ(s.self_s[static_cast<std::size_t>(Layer::kMl)], 1.0);
  EXPECT_DOUBLE_EQ(s.self_s[static_cast<std::size_t>(Layer::kCore)], 4.0);
  EXPECT_DOUBLE_EQ(s.covered_s, 8.0);
  EXPECT_DOUBLE_EQ(s.coverage, 0.8);
  EXPECT_DOUBLE_EQ(s.busy_s.at("net.a"), 4.0);  // inclusive
  EXPECT_EQ(s.calls.at("ml.b"), 1u);
}

TEST(Summarize, ConcurrentStagesShareTheWall) {
  // Two threads: net [0,4] and ml [2,6] overlap on [2,4].
  const std::vector<Span> spans = {
      make(1, 0, Layer::kGroup, 0, 8, "pass"),
      make(2, 1, Layer::kNet, 0, 4),
      make(3, 1, Layer::kMl, 2, 6),
  };
  const auto s = summarize(spans, 1);
  const auto net = static_cast<std::size_t>(Layer::kNet);
  const auto ml = static_cast<std::size_t>(Layer::kMl);
  EXPECT_DOUBLE_EQ(s.self_s[net], 4.0);  // busy time is per thread
  EXPECT_DOUBLE_EQ(s.self_s[ml], 4.0);
  EXPECT_DOUBLE_EQ(s.wall_s_by_layer[net], 3.0);  // 2 alone + half of 2
  EXPECT_DOUBLE_EQ(s.wall_s_by_layer[ml], 3.0);
  EXPECT_DOUBLE_EQ(s.covered_s, 6.0);
  EXPECT_DOUBLE_EQ(s.coverage, 0.75);
  double total = 0.0;
  for (const double w : s.wall_s_by_layer) total += w;
  EXPECT_DOUBLE_EQ(total, s.covered_s);
}

TEST(Summarize, PhaseSelfTimeIsTheGapBetweenRequests) {
  // A pool phase [0,10] whose requests (group spans on two workers) cover
  // [1,4] and [3,9]; each request holds one stage.
  const std::vector<Span> spans = {
      make(1, 0, Layer::kGroup, 0, 10, "pass"),
      make(2, 1, Layer::kPar, 0, 10, "common.par.x"),
      make(3, 2, Layer::kGroup, 1, 4, "request"),
      make(4, 2, Layer::kGroup, 3, 9, "request"),
      make(5, 3, Layer::kNet, 1, 4),
      make(6, 4, Layer::kNet, 3, 8),  // 1 s of request glue uncovered
  };
  const auto s = summarize(spans, 1);
  const auto par = static_cast<std::size_t>(Layer::kPar);
  EXPECT_DOUBLE_EQ(s.self_s[par], 2.0);  // [0,1] and [9,10]
  EXPECT_DOUBLE_EQ(s.covered_s, 9.0);    // [8,9] is glue
  EXPECT_DOUBLE_EQ(busy_share(spans, "common.par.x", 2), 9.0 / 20.0);
  EXPECT_DOUBLE_EQ(busy_share(spans, "absent", 2), 0.0);
}

TEST(Summarize, ClipsToTheRoot) {
  const std::vector<Span> spans = {
      make(1, 0, Layer::kGroup, 2, 4, "pass"),
      make(2, 0, Layer::kNet, 0, 3),
  };
  const auto s = summarize(spans, 1);
  EXPECT_DOUBLE_EQ(s.covered_s, 1.0);
  EXPECT_DOUBLE_EQ(s.coverage, 0.5);
  EXPECT_THROW(summarize(spans, 9), std::invalid_argument);
}

TEST(ScopedSpan, RecordsParentsAndRequestsAcrossThreads) {
  SpanRecorder rec;
  std::uint32_t root = 0;
  std::uint32_t inner = 0;
  {
    ScopedSpan pass(rec, "pass", Layer::kGroup, 7);
    root = pass.id();
    {
      ScopedSpan stage(rec, "net.a", Layer::kNet);
      inner = stage.id();
      EXPECT_EQ(stage.request(), 7u);
    }
    std::thread worker([&] {
      ScopedSpan request(rec, "request", Layer::kGroup, 42, root);
      ScopedSpan stage(rec, "ml.b", Layer::kMl);
      EXPECT_EQ(stage.request(), 42u);
    });
    worker.join();
  }
  ASSERT_EQ(rec.spans().size(), 4u);
  for (const auto& s : rec.spans()) {
    EXPECT_LE(s.start_s, s.end_s);
    if (s.id == inner || s.name == "request") {
      EXPECT_EQ(s.parent, root);
    }
    if (s.name == "pass") {
      EXPECT_EQ(s.parent, 0u);
    }
  }
  const auto summary = summarize(rec.spans(), root);
  EXPECT_GE(summary.coverage, 0.0);
  EXPECT_LE(summary.coverage, 1.0);
  EXPECT_EQ(durations(rec.spans(), "ml.b").size(), 1u);

  std::ostringstream trace;
  write_trace_events(trace, rec.spans());
  const std::string text = trace.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(text.find("\"name\": \"ml.b\", \"cat\": \"ml\""),
            std::string::npos);
  EXPECT_NE(text.find("\"request\": 42}"), std::string::npos);
}

}  // namespace
}  // namespace perfbench

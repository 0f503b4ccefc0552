// Failure accounting: a throwing op is counted, not propagated, and the
// ops after it still run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tally.h"

namespace perfbench {
namespace {

TEST(RunOps, CountsFailuresAndContinues) {
  OpTally tally;
  int ran = 0;
  for (int grid = 0; grid < 5; ++grid) {
    run_ops(tally, 1, [&] {
      ++ran;
      if (grid == 1 || grid == 3) throw std::logic_error("degenerate split");
    });
  }
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(tally.attempted, 5u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_DOUBLE_EQ(tally.failed_fraction(), 0.4);
  EXPECT_EQ(tally.first_error, "degenerate split");
}

TEST(RunOps, WholeBatchFailsAsOneUnitOfItsOps) {
  OpTally tally;
  EXPECT_TRUE(run_ops(tally, 100, [] {}));
  EXPECT_FALSE(run_ops(tally, 100, [] { throw 3; }));
  EXPECT_EQ(tally.attempted, 200u);
  EXPECT_EQ(tally.failed, 100u);
  EXPECT_EQ(tally.first_error, "unknown exception");
}

TEST(OpTally, WrongOutputFailsEveryOp) {
  OpTally tally;
  run_ops(tally, 40, [] {});
  EXPECT_DOUBLE_EQ(tally.failed_fraction(), 0.0);
  tally.fail_all("differs from width-1 run");
  EXPECT_EQ(tally.failed, 40u);
  EXPECT_DOUBLE_EQ(tally.failed_fraction(), 1.0);
  EXPECT_EQ(OpTally{}.failed_fraction(), 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace perfbench

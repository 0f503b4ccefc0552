// Tests for the population-scale campaign runner (src/campaign): config
// parsing and canonicalization, the cell-id plan, checkpoint robustness
// (truncation, corruption, duplicates), and bitwise equality of the sharded
// runner with the serial oracle — including interrupt/resume — at several
// pool widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/error.h"
#include "common/parallel.h"
#include "reference/campaign_oracle.h"

namespace pmiot::campaign {
namespace {

/// Small grid the evaluator-driven tests can afford: 2x2 homes, two
/// defenses, two intensities -> 16 cells, one forest fit per home.
CampaignConfig tiny_config() {
  CampaignConfig config;
  config.archetypes = {"commuter", "wfh"};
  config.defenses = {"smoothing", "noise"};
  config.attacks = {"occupancy", "forest"};
  config.intensities = {0.0, 1.0};
  config.homes_per_archetype = 2;
  config.days = 2;
  config.base_seed = 99;
  config.block_homes = 2;
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// --- config -----------------------------------------------------------------

TEST(CampaignConfig, CanonicalTextRoundTrips) {
  const auto config = tiny_config();
  const auto parsed = parse_config(canonical_text(config));
  EXPECT_EQ(parsed.archetypes, config.archetypes);
  EXPECT_EQ(parsed.defenses, config.defenses);
  EXPECT_EQ(parsed.attacks, config.attacks);
  EXPECT_EQ(parsed.intensities, config.intensities);
  EXPECT_EQ(parsed.homes_per_archetype, config.homes_per_archetype);
  EXPECT_EQ(parsed.days, config.days);
  EXPECT_EQ(parsed.base_seed, config.base_seed);
  EXPECT_EQ(parsed.block_homes, config.block_homes);
  EXPECT_EQ(config_hash(parsed), config_hash(config));
}

TEST(CampaignConfig, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(parse_config("not_a_key = 3\n"), InvalidArgument);
  EXPECT_THROW(parse_config("days = many\n"), InvalidArgument);
  EXPECT_THROW(parse_config("homes = 0\n"), InvalidArgument);
}

TEST(CampaignConfig, ParseRejectsHostileNumbers) {
  // A sign strtoull would wrap to 2^64 - 1.
  EXPECT_THROW(parse_config("homes = -1\n"), InvalidArgument);
  EXPECT_THROW(parse_config("seed = -5\n"), InvalidArgument);
  EXPECT_THROW(parse_config("homes = +3\n"), InvalidArgument);
  // Out of range for 64 bits (ERANGE), not clamped to the maximum.
  EXPECT_THROW(parse_config("homes = 99999999999999999999\n"),
               InvalidArgument);
  // Out of range for int, not truncated to 1 by the narrowing.
  EXPECT_THROW(parse_config("days = 4294967297\n"), InvalidArgument);
  EXPECT_THROW(parse_config("days = 2147483648\n"), InvalidArgument);
  // In range for 64 bits, but 3 archetypes x 3 defenses x 5 intensities
  // of that many homes wraps the 64-bit cell count.
  EXPECT_THROW(parse_config("homes = 18446744073709551615\n"),
               InvalidArgument);
  // The largest values that do fit still parse.
  EXPECT_EQ(parse_config("days = 2147483647\n").days, 2147483647);
  EXPECT_EQ(parse_config("seed = 18446744073709551615\n").base_seed,
            18446744073709551615ULL);
}

TEST(CampaignConfig, HashSeparatesGrids) {
  auto a = tiny_config();
  auto b = tiny_config();
  b.base_seed += 1;
  EXPECT_NE(config_hash(a), config_hash(b));
  auto c = tiny_config();
  c.intensities.push_back(0.5);
  EXPECT_NE(config_hash(a), config_hash(c));
}

TEST(CampaignConfig, ArchetypeHomeIsDeterministicAndValidates) {
  const auto a = archetype_home("family", 1, 3, 2017);
  const auto b = archetype_home("family", 1, 3, 2017);
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.appliances.size(), b.appliances.size());
  // A different home index jitters the household.
  const auto c = archetype_home("family", 1, 4, 2017);
  EXPECT_NE(a.name, c.name);
  EXPECT_THROW(archetype_home("mansion", 0, 0, 2017), InvalidArgument);
}

// --- plan -------------------------------------------------------------------

TEST(CampaignPlan, RejectsGridWhoseCellCountOverflows) {
  auto config = tiny_config();
  config.homes_per_archetype = std::size_t{1} << 62;
  config.intensities = {0.0, 0.5, 1.0, 0.25};
  EXPECT_THROW(CampaignPlan{config}, InvalidArgument);
  config.intensities = {0.0};
  config.defenses.resize(1);
  config.archetypes.resize(1);
  EXPECT_EQ(CampaignPlan{config}.total_cells(), std::uint64_t{1} << 62);
}

TEST(CampaignPlan, CellIdDecodeRoundTripsOverTheGrid) {
  const auto config = tiny_config();
  const CampaignPlan plan(config);
  EXPECT_EQ(plan.total_cells(), 16u);
  EXPECT_EQ(plan.payload_doubles(), 3u + config.attacks.size());
  std::uint64_t expected = 0;
  for (std::size_t a = 0; a < plan.archetypes(); ++a) {
    for (std::size_t h = 0; h < plan.homes(); ++h) {
      for (std::size_t d = 0; d < plan.defenses(); ++d) {
        for (std::size_t i = 0; i < plan.intensities(); ++i) {
          const CellRef ref{a, h, d, i};
          const std::uint64_t id = plan.cell_id(ref);
          EXPECT_EQ(id, expected) << "cells must enumerate archetype-major";
          const CellRef back = plan.decode(id);
          EXPECT_EQ(back.archetype, a);
          EXPECT_EQ(back.home, h);
          EXPECT_EQ(back.defense, d);
          EXPECT_EQ(back.intensity, i);
          ++expected;
        }
      }
    }
  }
}

// --- checkpoint format ------------------------------------------------------

/// Checkpoint fixture over synthetic payloads: no evaluator involved, so
/// corruption cases can target exact byte offsets.
class CheckpointFormat : public testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the discovered tests as concurrent
    // processes, and they all share TempDir.
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(std::string("pmiot_campaign_ckpt_") + info->name() +
                      ".bin");
    std::filesystem::remove(path_);
  }

  std::vector<double> payload_for(std::uint64_t cell) const {
    std::vector<double> payload(plan_.payload_doubles());
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<double>(cell) * 10.0 + static_cast<double>(k);
    }
    return payload;
  }

  /// Writes a fresh checkpoint holding cells [0, cells).
  void write_checkpoint(std::uint64_t cells) {
    CheckpointWriter writer(path_, plan_, hash_, config_.base_seed);
    for (std::uint64_t cell = 0; cell < cells; ++cell) {
      writer.append(cell, payload_for(cell));
    }
    writer.flush();
  }

  CheckpointLoad load(std::vector<double>& values,
                      std::vector<std::uint8_t>& done) const {
    values.assign(plan_.total_cells() * plan_.payload_doubles(), 0.0);
    done.assign(plan_.total_cells(), 0);
    return load_checkpoint(path_, plan_, hash_, config_.base_seed, values,
                           done);
  }

  CampaignConfig config_ = tiny_config();
  CampaignPlan plan_{config_};
  std::uint64_t hash_ = config_hash(config_);
  std::string path_;
  std::size_t record_bytes_ = 8 + plan_.payload_doubles() * sizeof(double);
};

TEST_F(CheckpointFormat, MissingFileIsAFreshStart) {
  std::vector<double> values;
  std::vector<std::uint8_t> done;
  const auto load_result = load(values, done);
  EXPECT_FALSE(load_result.exists);
  EXPECT_EQ(load_result.cells, 0u);
}

TEST_F(CheckpointFormat, WriteLoadRoundTripsBitwise) {
  write_checkpoint(5);
  std::vector<double> values;
  std::vector<std::uint8_t> done;
  const auto load_result = load(values, done);
  EXPECT_TRUE(load_result.exists);
  EXPECT_EQ(load_result.cells, 5u);
  EXPECT_EQ(load_result.valid_bytes, 64u + 5u * record_bytes_);
  for (std::uint64_t cell = 0; cell < plan_.total_cells(); ++cell) {
    EXPECT_EQ(done[cell], cell < 5 ? 1 : 0);
  }
  for (std::uint64_t cell = 0; cell < 5; ++cell) {
    const auto expected = payload_for(cell);
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(values[cell * plan_.payload_doubles() + k], expected[k]);
    }
  }
}

TEST_F(CheckpointFormat, IgnoresTrailingPartialRecord) {
  write_checkpoint(4);
  // A kill mid-fwrite leaves a partial tail; loading must keep the four
  // complete records and report valid_bytes at the last record boundary.
  auto bytes = read_bytes(path_);
  bytes.resize(bytes.size() - record_bytes_ / 2);
  write_bytes(path_, bytes);

  std::vector<double> values;
  std::vector<std::uint8_t> done;
  const auto load_result = load(values, done);
  EXPECT_TRUE(load_result.exists);
  EXPECT_EQ(load_result.cells, 3u);
  EXPECT_EQ(load_result.valid_bytes, 64u + 3u * record_bytes_);
  EXPECT_EQ(done[3], 0);
}

TEST_F(CheckpointFormat, RejectsBadMagicVersionAndTruncatedHeader) {
  write_checkpoint(2);
  std::vector<double> values;
  std::vector<std::uint8_t> done;

  auto pristine = read_bytes(path_);

  auto bad_magic = pristine;
  bad_magic[0] ^= 0xff;
  write_bytes(path_, bad_magic);
  EXPECT_THROW(load(values, done), InvalidArgument);

  auto bad_version = pristine;
  bad_version[8] = 2;  // u32 version little-endian
  write_bytes(path_, bad_version);
  EXPECT_THROW(load(values, done), InvalidArgument);

  auto short_header = pristine;
  short_header.resize(32);
  write_bytes(path_, short_header);
  EXPECT_THROW(load(values, done), InvalidArgument);
}

TEST_F(CheckpointFormat, RejectsAnotherCampaignsFile) {
  write_checkpoint(2);
  std::vector<double> values(plan_.total_cells() * plan_.payload_doubles());
  std::vector<std::uint8_t> done(plan_.total_cells());
  // Different config hash / base seed => a different campaign's file.
  EXPECT_THROW(load_checkpoint(path_, plan_, hash_ ^ 1, config_.base_seed,
                               values, done),
               InvalidArgument);
  EXPECT_THROW(load_checkpoint(path_, plan_, hash_, config_.base_seed + 1,
                               values, done),
               InvalidArgument);
}

TEST_F(CheckpointFormat, RejectsRecordOffTheGrid) {
  CheckpointWriter writer(path_, plan_, hash_, config_.base_seed);
  writer.append(plan_.total_cells(), payload_for(0));
  writer.flush();
  std::vector<double> values;
  std::vector<std::uint8_t> done;
  EXPECT_THROW(load(values, done), InvalidArgument);
}

TEST_F(CheckpointFormat, ToleratesIdenticalDuplicatesRejectsConflicts) {
  {
    CheckpointWriter writer(path_, plan_, hash_, config_.base_seed);
    writer.append(3, payload_for(3));
    writer.append(3, payload_for(3));  // replayed record: same bits, fine
    writer.append(5, payload_for(5));
    writer.flush();
  }
  std::vector<double> values;
  std::vector<std::uint8_t> done;
  const auto load_result = load(values, done);
  EXPECT_EQ(load_result.cells, 2u);
  EXPECT_EQ(done[3], 1);
  EXPECT_EQ(done[5], 1);

  {
    CheckpointWriter writer(path_, plan_, hash_, config_.base_seed);
    writer.append(3, payload_for(3));
    writer.append(3, payload_for(4));  // same cell, different payload
    writer.flush();
  }
  EXPECT_THROW(load(values, done), InvalidArgument);
}

// --- runner -----------------------------------------------------------------

TEST(CampaignRun, ShardedMatchesSerialOracleAcrossPoolWidths) {
  const auto config = tiny_config();
  const auto oracle = reference::run_campaign_serial(config);
  EXPECT_EQ(oracle.cells_evaluated, 16u);

  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(width);
    par::ScopedPoolOverride scoped(pool);
    const auto sharded = run_campaign(config);
    EXPECT_EQ(describe_divergence(sharded, oracle), "")
        << "pool width " << width;
  }
}

TEST(CampaignRun, ResumeAfterInterruptMatchesUninterrupted) {
  const auto config = tiny_config();
  const auto uninterrupted = run_campaign(config);

  const std::string path = temp_path("pmiot_campaign_resume.bin");
  std::filesystem::remove(path);

  // Interrupt after 6 cells at one pool width...
  RunOptions first;
  first.checkpoint_path = path;
  first.max_new_cells = 6;
  {
    par::ThreadPool pool(1);
    par::ScopedPoolOverride scoped(pool);
    const auto partial = run_campaign(config, first);
    EXPECT_EQ(partial.cells_evaluated, 6u);
  }

  // ...simulate the kill's torn tail record...
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("torn", 4);
  }

  // ...and resume at a different width. The finished result must be
  // bitwise identical to the uninterrupted run.
  RunOptions second;
  second.checkpoint_path = path;
  second.resume = true;
  par::ThreadPool pool(4);
  par::ScopedPoolOverride scoped(pool);
  const auto resumed = run_campaign(config, second);
  EXPECT_EQ(resumed.cells_resumed, 6u);
  EXPECT_EQ(resumed.cells_evaluated, 10u);
  EXPECT_EQ(describe_divergence(resumed, uninterrupted), "");

  // The frontier artifact built from either result is byte-identical.
  std::ostringstream a, b;
  write_frontier_csv(a, config, build_frontier(resumed));
  write_frontier_csv(b, config, build_frontier(uninterrupted));
  EXPECT_EQ(a.str(), b.str());
  std::filesystem::remove(path);
}

TEST(CampaignRun, ResumeRejectsForeignCheckpoint) {
  const auto config = tiny_config();
  const std::string path = temp_path("pmiot_campaign_foreign.bin");
  std::filesystem::remove(path);
  {
    RunOptions first;
    first.checkpoint_path = path;
    first.max_new_cells = 4;
    (void)run_campaign(config, first);
  }
  auto other = config;
  other.base_seed += 1;
  RunOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  EXPECT_THROW((void)run_campaign(other, resume), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(CampaignRun, FrontierRequiresCompleteResult) {
  const auto config = tiny_config();
  RunOptions partial;
  partial.max_new_cells = 3;
  const auto result = run_campaign(config, partial);
  EXPECT_EQ(result.cells_evaluated, 3u);
  EXPECT_THROW((void)build_frontier(result), InvalidArgument);
}

// The cheapest fuzzer of the whole energy pipeline: the default grid at
// one home per archetype over many seeds. Every run must complete and
// equal its width-1 pool run.
TEST(CampaignSeedSweep, OneHomePerArchetypeCompletesOnSeeds1To32) {
  CampaignConfig config;
  config.homes_per_archetype = 1;
  par::ThreadPool serial(1);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    config.base_seed = seed;
    CampaignResult result;
    ASSERT_NO_THROW(result = run_campaign(config)) << "seed " << seed;
    EXPECT_EQ(std::count(result.done.begin(), result.done.end(), 0), 0)
        << "seed " << seed;
    par::ScopedPoolOverride scoped(serial);
    EXPECT_EQ(describe_divergence(result, run_campaign(config)), "")
        << "seed " << seed;
  }
}

TEST(CampaignRegistries, RejectUnknownNames) {
  EXPECT_THROW((void)make_defense("tinfoil"), InvalidArgument);
  EXPECT_THROW((void)make_attack("psychic"), InvalidArgument);
}

}  // namespace
}  // namespace pmiot::campaign

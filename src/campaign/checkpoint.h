// Campaign checkpoint/resume: append-only binary cell stream.
//
// "pmiotcp" container, version 1: fixed little-endian 64-byte header,
// explicit sizes, validation on every load.
//
//   offset  len  field
//        0    8  magic "pmiotcp\0"
//        8    4  u32 version              (1)
//       12    4  u32 header_bytes        (64)
//       16    8  u64 config_hash          (campaign::config_hash)
//       24    4  u32 payload_doubles      (3 + attacks)
//       28    4  u32 reserved             (0)
//       32    8  u64 total_cells
//       40    8  u64 base_seed
//       48   16  reserved                 (0)
//
// followed by fixed-width records, one per completed cell:
//
//       0    8  u64 cell_id
//       8  8*P  f64 payload[payload_doubles]   (bit-exact doubles)
//
// The driver appends records at block joins in increasing cell order and
// flushes, so a kill leaves at most one trailing partial record. Loading
// ignores that partial tail; resuming truncates the file back to the last
// complete record before appending. Duplicate records with identical
// payloads are tolerated (a crash between fwrite and fflush can replay a
// record); a duplicate with a *different* payload means the file belongs
// to another run and loading throws.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace pmiot::campaign {

/// What load_checkpoint recovered.
struct CheckpointLoad {
  bool exists = false;           ///< file was present and non-empty
  std::uint64_t cells = 0;       ///< distinct cells scattered into `values`
  std::uint64_t valid_bytes = 0; ///< header + all complete records
};

/// Validates `path` against the plan (magic, version, config hash, payload
/// width, cell count, base seed) and scatters every complete record into
/// `values` / `done` (both sized by the plan). Throws InvalidArgument on
/// any mismatch or on conflicting duplicate records; a trailing partial
/// record is ignored. A missing or empty file returns {exists = false}.
CheckpointLoad load_checkpoint(const std::string& path,
                               const CampaignPlan& plan,
                               std::uint64_t config_hash,
                               std::uint64_t base_seed,
                               std::span<double> values,
                               std::span<std::uint8_t> done);

/// Append-side of the format. Construction either starts a fresh file
/// (header only) or, when resuming, truncates to `resume_valid_bytes` and
/// positions at the end. `append` encodes into a buffer preallocated at
/// construction and fwrites — no allocation in steady state (the
/// zero-allocation probe in bench/campaign polices this).
class CheckpointWriter {
 public:
  /// Fresh file: create/truncate `path` and write the header.
  CheckpointWriter(const std::string& path, const CampaignPlan& plan,
                   std::uint64_t config_hash, std::uint64_t base_seed);

  /// Resume: truncate `path` to `load.valid_bytes` (discarding a partial
  /// tail record) and append from there. `load` must come from
  /// load_checkpoint on the same path/plan. Falls back to a fresh file
  /// when the load found nothing.
  CheckpointWriter(const std::string& path, const CampaignPlan& plan,
                   std::uint64_t config_hash, std::uint64_t base_seed,
                   const CheckpointLoad& load);

  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends one cell record. `payload.size() == plan.payload_doubles()`.
  void append(std::uint64_t cell_id, std::span<const double> payload);

  /// Flushes buffered records to the OS (called at block joins, so a kill
  /// loses at most the current block).
  void flush();

  /// Bytes this writer has written (the header of a fresh file, then every
  /// record), for the `campaign.checkpoint.bytes` counter.
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  void open_fresh(const std::string& path, const CampaignPlan& plan,
                  std::uint64_t config_hash, std::uint64_t base_seed);

  std::FILE* file_ = nullptr;
  std::vector<unsigned char> record_buf_;
  std::size_t payload_doubles_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace pmiot::campaign

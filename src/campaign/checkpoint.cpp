#include "campaign/checkpoint.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"

namespace pmiot::campaign {
namespace {

constexpr char kMagic[8] = {'p', 'm', 'i', 'o', 't', 'c', 'p', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 64;

void store_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void store_u64(unsigned char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t le_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t le_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(le_u32(p)) |
         static_cast<std::uint64_t>(le_u32(p + 4)) << 32;
}

std::size_t record_bytes(const CampaignPlan& plan) {
  return 8 + plan.payload_doubles() * sizeof(double);
}

void encode_header(unsigned char* head, const CampaignPlan& plan,
                   std::uint64_t config_hash, std::uint64_t base_seed) {
  std::memset(head, 0, kHeaderBytes);
  std::memcpy(head, kMagic, sizeof kMagic);
  store_u32(head + 8, kVersion);
  store_u32(head + 12, static_cast<std::uint32_t>(kHeaderBytes));
  store_u64(head + 16, config_hash);
  store_u32(head + 24, static_cast<std::uint32_t>(plan.payload_doubles()));
  store_u64(head + 32, plan.total_cells());
  store_u64(head + 40, base_seed);
}

void validate_header(const unsigned char* head, const CampaignPlan& plan,
                     std::uint64_t config_hash, std::uint64_t base_seed) {
  PMIOT_CHECK(std::memcmp(head, kMagic, sizeof kMagic) == 0,
              "not a pmiot campaign checkpoint (bad magic)");
  PMIOT_CHECK(le_u32(head + 8) == kVersion,
              "unsupported campaign checkpoint version");
  PMIOT_CHECK(le_u32(head + 12) == kHeaderBytes,
              "unexpected campaign checkpoint header size");
  PMIOT_CHECK(le_u64(head + 16) == config_hash,
              "checkpoint was written by a different campaign config");
  PMIOT_CHECK(le_u32(head + 24) == plan.payload_doubles(),
              "checkpoint payload width does not match the attack suite");
  PMIOT_CHECK(le_u64(head + 32) == plan.total_cells(),
              "checkpoint cell count does not match the grid");
  PMIOT_CHECK(le_u64(head + 40) == base_seed,
              "checkpoint was written with a different base seed");
}

}  // namespace

CheckpointLoad load_checkpoint(const std::string& path,
                               const CampaignPlan& plan,
                               std::uint64_t config_hash,
                               std::uint64_t base_seed,
                               std::span<double> values,
                               std::span<std::uint8_t> done) {
  PMIOT_CHECK(values.size() == plan.total_cells() * plan.payload_doubles(),
              "values span does not match the plan");
  PMIOT_CHECK(done.size() == plan.total_cells(),
              "done span does not match the plan");

  CheckpointLoad load;
  std::ifstream is(path, std::ios::binary);
  if (!is) return load;
  std::vector<unsigned char> buf(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (buf.empty()) return load;
  PMIOT_CHECK(buf.size() >= kHeaderBytes,
              "truncated campaign checkpoint header");
  validate_header(buf.data(), plan, config_hash, base_seed);
  load.exists = true;

  const std::size_t rec = record_bytes(plan);
  const std::size_t P = plan.payload_doubles();
  const std::size_t complete = (buf.size() - kHeaderBytes) / rec;
  for (std::size_t r = 0; r < complete; ++r) {
    const unsigned char* p = buf.data() + kHeaderBytes + r * rec;
    const std::uint64_t cell = le_u64(p);
    PMIOT_CHECK(cell < plan.total_cells(),
                "campaign checkpoint record addresses a cell off the grid");
    double* out = values.data() + cell * P;
    if (done[cell]) {
      // A replayed record (crash between fwrite and fflush) must agree
      // bitwise with what we already have; anything else is another run's
      // file.
      for (std::size_t k = 0; k < P; ++k) {
        const std::uint64_t bits = le_u64(p + 8 + k * sizeof(double));
        PMIOT_CHECK(bits == std::bit_cast<std::uint64_t>(out[k]),
                    "conflicting duplicate cell record in checkpoint");
      }
      continue;
    }
    for (std::size_t k = 0; k < P; ++k) {
      out[k] = std::bit_cast<double>(le_u64(p + 8 + k * sizeof(double)));
    }
    done[cell] = 1;
    ++load.cells;
  }
  load.valid_bytes = kHeaderBytes + complete * rec;
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CampaignPlan& plan,
                                   std::uint64_t config_hash,
                                   std::uint64_t base_seed) {
  open_fresh(path, plan, config_hash, base_seed);
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CampaignPlan& plan,
                                   std::uint64_t config_hash,
                                   std::uint64_t base_seed,
                                   const CheckpointLoad& load) {
  if (!load.exists) {
    open_fresh(path, plan, config_hash, base_seed);
    return;
  }
  // Drop a partial tail record left by a kill, then append in place.
  std::filesystem::resize_file(path, load.valid_bytes);
  file_ = std::fopen(path.c_str(), "ab");
  PMIOT_CHECK(file_ != nullptr, "cannot reopen campaign checkpoint: " + path);
  payload_doubles_ = plan.payload_doubles();
  record_buf_.resize(record_bytes(plan));
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::open_fresh(const std::string& path,
                                  const CampaignPlan& plan,
                                  std::uint64_t config_hash,
                                  std::uint64_t base_seed) {
  file_ = std::fopen(path.c_str(), "wb");
  PMIOT_CHECK(file_ != nullptr, "cannot create campaign checkpoint: " + path);
  payload_doubles_ = plan.payload_doubles();
  record_buf_.resize(record_bytes(plan));
  unsigned char head[kHeaderBytes];
  encode_header(head, plan, config_hash, base_seed);
  const std::size_t wrote = std::fwrite(head, 1, kHeaderBytes, file_);
  PMIOT_CHECK(wrote == kHeaderBytes, "cannot write checkpoint header");
  bytes_written_ += kHeaderBytes;
  std::fflush(file_);
}

// pmiot: egress — completed cell payloads persist to the local campaign
// checkpoint here; this is the sweep's sanctioned custody boundary.
// pmiot: no-alloc — append runs once per frontier cell on the sweep hot
// path; record_buf_ is sized up front by open_fresh/resume.
void CheckpointWriter::append(std::uint64_t cell_id,
                              std::span<const double> payload) {
  PMIOT_CHECK(payload.size() == payload_doubles_,
              "payload width does not match the checkpoint");
  unsigned char* p = record_buf_.data();
  store_u64(p, cell_id);
  for (std::size_t k = 0; k < payload_doubles_; ++k) {
    store_u64(p + 8 + k * sizeof(double),
              std::bit_cast<std::uint64_t>(payload[k]));
  }
  const std::size_t wrote =
      std::fwrite(record_buf_.data(), 1, record_buf_.size(), file_);
  PMIOT_CHECK(wrote == record_buf_.size(), "cannot append checkpoint record");
  bytes_written_ += wrote;
}

void CheckpointWriter::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace pmiot::campaign

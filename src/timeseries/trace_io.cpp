#include "timeseries/trace_io.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace pmiot::ts {
namespace {

obs::Counter& samples_written_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "timeseries.trace_io.samples_written");
  return c;
}

obs::Counter& samples_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "timeseries.trace_io.samples_read");
  return c;
}

std::string timestamp_of(const TimeSeries& series, std::size_t i) {
  const auto date = series.date_at(i);
  const int minute = series.minute_of_day_at(i);
  // Sized for the full int range of every field: out-of-range dates must
  // round-trip unmangled rather than silently truncate.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d", date.year,
                date.month, date.day, minute / 60, minute % 60);
  return buf;
}

// `getline` splits on '\n' only, so a file written (or edited) with CRLF
// line endings leaves a '\r' on every line. Strip exactly one: trace values
// never contain carriage returns, and stripping more would mask genuinely
// malformed rows.
void strip_trailing_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

CivilDate parse_date(const std::string& text) {
  int year = 0, month = 0, day = 0;
  PMIOT_CHECK(std::sscanf(text.c_str(), "%d-%d-%d", &year, &month, &day) == 3,
              "malformed date: " + text);
  const CivilDate date{year, month, day};
  PMIOT_CHECK(is_valid(date), "invalid date: " + text);
  return date;
}

}  // namespace

void write_csv(std::ostream& os, const TimeSeries& series,
               int value_precision) {
  PMIOT_CHECK(value_precision >= 0 && value_precision <= 17,
              "precision out of range");
  const auto& meta = series.meta();
  os << "# pmiot-trace v1\n"
     << "# start=" << to_string(meta.start_date)
     << " start_minute=" << meta.start_minute
     << " interval_seconds=" << meta.interval_seconds << '\n';
  os << std::fixed << std::setprecision(value_precision);
  for (std::size_t i = 0; i < series.size(); ++i) {
    os << timestamp_of(series, i) << ',' << series[i] << '\n';
  }
  samples_written_counter().add(series.size());
}

TimeSeries read_csv(std::istream& is) {
  std::string line;
  PMIOT_CHECK(static_cast<bool>(std::getline(is, line)),
              "missing pmiot-trace header");
  strip_trailing_cr(line);
  PMIOT_CHECK(line == "# pmiot-trace v1", "missing pmiot-trace header");
  PMIOT_CHECK(static_cast<bool>(std::getline(is, line)),
              "missing metadata line");
  strip_trailing_cr(line);

  char date_buf[16];
  int start_minute = 0, interval_seconds = 0;
  PMIOT_CHECK(std::sscanf(line.c_str(),
                          "# start=%15s start_minute=%d interval_seconds=%d",
                          date_buf, &start_minute, &interval_seconds) == 3,
              "malformed metadata line: " + line);
  TraceMeta meta;
  meta.start_date = parse_date(date_buf);
  meta.start_minute = start_minute;
  meta.interval_seconds = interval_seconds;

  std::vector<double> values;
  TimeSeries probe(meta);  // validates meta; also used for timestamp checks
  while (std::getline(is, line)) {
    strip_trailing_cr(line);
    if (line.empty()) continue;  // tolerates a trailing blank line
    const auto comma = line.find(',');
    PMIOT_CHECK(comma != std::string::npos, "malformed row: " + line);
    const std::string stamp = line.substr(0, comma);
    const std::string value_text = line.substr(comma + 1);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(value_text, &consumed);
    } catch (const std::exception&) {
      throw InvalidArgument("malformed value in row: " + line);
    }
    PMIOT_CHECK(consumed == value_text.size(),
                "trailing junk in row: " + line);
    values.push_back(value);
    // Validate the redundant timestamp against the declared grid.
    probe.push_back(value);
    const auto expected = timestamp_of(probe, values.size() - 1);
    PMIOT_CHECK(stamp == expected,
                "timestamp " + stamp + " does not match declared grid (want " +
                    expected + ")");
  }
  samples_read_counter().add(values.size());
  return TimeSeries(meta, std::move(values));
}

void save_csv(const std::string& path, const TimeSeries& series) {
  std::ofstream os(path);
  PMIOT_CHECK(os.good(), "cannot open for writing: " + path);
  write_csv(os, series);
  PMIOT_CHECK(os.good(), "write failed: " + path);
}

TimeSeries load_csv(const std::string& path) {
  std::ifstream is(path);
  PMIOT_CHECK(is.good(), "cannot open for reading: " + path);
  return read_csv(is);
}

// ---------------------------------------------------------------------------
// Binary columnar container ("pmiotbt", version 1).
//
// All integers are little-endian at fixed offsets; the file is
//
//   offset  size  field
//        0     8  magic "pmiotbt\0"
//        8     4  u32 version                (1)
//       12     4  u32 header_bytes           (64; also the directory offset)
//       16     4  i32 start_year
//       20     4  i32 start_month
//       24     4  i32 start_day
//       28     4  i32 start_minute
//       32     4  i32 interval_seconds
//       36     4  u32 num_columns
//       40     8  u64 num_rows
//       48     8  u64 directory_offset       (== header_bytes in v1)
//       56     8  u64 reserved               (0)
//   ---- directory: num_columns x 40-byte entries ----
//       +0    24  column name, NUL-padded
//      +24     8  u64 column data offset     (8-byte aligned, from file start)
//      +32     8  u64 column byte length
//   ---- column blocks: raw f64 payloads at their directory offsets ----
//
// A TimeSeries writes exactly one column, "value". Readers locate columns
// by name, so future multi-channel traces can append columns without
// breaking v1 readers of the "value" column.
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[8] = {'p', 'm', 'i', 'o', 't', 'b', 't', '\0'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kDirEntryBytes = 40;
constexpr std::size_t kColumnNameBytes = 24;
constexpr char kValueColumn[] = "value";

void store_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v & 0xff);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((v >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  }
}

void store_i32(unsigned char* p, std::int32_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
}

std::uint32_t le_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t le_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

std::int32_t le_i32(const unsigned char* p) {
  return static_cast<std::int32_t>(le_u32(p));
}

/// Parsed directory of a binary trace buffer: the metadata plus the
/// in-buffer location of the "value" column. Everything is bounds-checked
/// against `size` here, so callers can read the column block directly.
struct BinaryLayout {
  TraceMeta meta;
  std::size_t num_rows = 0;
  std::size_t value_offset = 0;  // byte offset of the "value" block
};

BinaryLayout parse_binary_header(const unsigned char* data, std::size_t size) {
  PMIOT_CHECK(size >= kHeaderBytes, "truncated pmiot binary trace header");
  PMIOT_CHECK(std::memcmp(data, kBinaryMagic, sizeof kBinaryMagic) == 0,
              "not a pmiot binary trace (bad magic)");
  const std::uint32_t version = le_u32(data + 8);
  PMIOT_CHECK(version == kBinaryVersion,
              "unsupported pmiot binary trace version " +
                  std::to_string(version));
  const std::uint32_t header_bytes = le_u32(data + 12);
  PMIOT_CHECK(header_bytes == kHeaderBytes,
              "unexpected header size in pmiot binary trace");

  BinaryLayout out;
  out.meta.start_date = CivilDate{le_i32(data + 16), le_i32(data + 20),
                                  le_i32(data + 24)};
  out.meta.start_minute = le_i32(data + 28);
  out.meta.interval_seconds = le_i32(data + 32);
  const std::uint32_t num_columns = le_u32(data + 36);
  const std::uint64_t num_rows = le_u64(data + 40);
  const std::uint64_t dir_offset = le_u64(data + 48);
  PMIOT_CHECK(num_columns >= 1, "pmiot binary trace has no columns");
  PMIOT_CHECK(dir_offset == kHeaderBytes,
              "unexpected directory offset in pmiot binary trace");

  const std::uint64_t dir_end =
      dir_offset + std::uint64_t{num_columns} * kDirEntryBytes;
  PMIOT_CHECK(dir_end <= size, "truncated pmiot binary trace directory");

  for (std::uint32_t c = 0; c < num_columns; ++c) {
    const unsigned char* entry = data + dir_offset + c * kDirEntryBytes;
    // The name field is NUL-padded; require at least one terminator so the
    // comparison below cannot run off the entry.
    PMIOT_CHECK(std::memchr(entry, '\0', kColumnNameBytes) != nullptr,
                "unterminated column name in pmiot binary trace");
    if (std::strcmp(reinterpret_cast<const char*>(entry), kValueColumn) != 0) {
      continue;
    }
    const std::uint64_t offset = le_u64(entry + kColumnNameBytes);
    const std::uint64_t bytes = le_u64(entry + kColumnNameBytes + 8);
    PMIOT_CHECK(offset % alignof(double) == 0,
                "misaligned column block in pmiot binary trace");
    PMIOT_CHECK(bytes == num_rows * sizeof(double),
                "column length disagrees with row count in pmiot binary trace");
    PMIOT_CHECK(offset >= dir_end && offset + bytes <= size,
                "truncated pmiot binary trace column block");
    out.num_rows = static_cast<std::size_t>(num_rows);
    out.value_offset = static_cast<std::size_t>(offset);
    return out;
  }
  throw InvalidArgument("pmiot binary trace has no \"value\" column");
}

/// Copies a column block out of the buffer into doubles. Little-endian
/// hosts take the bulk memcpy; others fall back to per-element assembly of
/// the stored little-endian bit patterns.
std::vector<double> copy_column(const unsigned char* block, std::size_t n) {
  std::vector<double> values(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(values.data(), block, n * sizeof(double));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = std::bit_cast<double>(le_u64(block + i * sizeof(double)));
    }
  }
  return values;
}

}  // namespace

void write_binary(std::ostream& os, const TimeSeries& series) {
  const auto& meta = series.meta();
  const std::size_t n = series.size();
  const std::size_t dir_offset = kHeaderBytes;
  const std::size_t data_offset = dir_offset + kDirEntryBytes;  // 8-aligned
  static_assert((kHeaderBytes + kDirEntryBytes) % alignof(double) == 0);

  unsigned char head[kHeaderBytes + kDirEntryBytes] = {};
  std::memcpy(head, kBinaryMagic, sizeof kBinaryMagic);
  store_u32(head + 8, kBinaryVersion);
  store_u32(head + 12, static_cast<std::uint32_t>(kHeaderBytes));
  store_i32(head + 16, meta.start_date.year);
  store_i32(head + 20, meta.start_date.month);
  store_i32(head + 24, meta.start_date.day);
  store_i32(head + 28, meta.start_minute);
  store_i32(head + 32, meta.interval_seconds);
  store_u32(head + 36, 1);  // num_columns
  store_u64(head + 40, n);
  store_u64(head + 48, dir_offset);
  // head + 56: reserved, already zero.

  unsigned char* entry = head + dir_offset;
  std::memcpy(entry, kValueColumn, sizeof kValueColumn);  // NUL-padded
  store_u64(entry + kColumnNameBytes, data_offset);
  store_u64(entry + kColumnNameBytes + 8, n * sizeof(double));

  os.write(reinterpret_cast<const char*>(head), sizeof head);
  const auto values = series.values();
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) {
      os.write(reinterpret_cast<const char*>(values.data()),
               static_cast<std::streamsize>(n * sizeof(double)));
    }
  } else {
    unsigned char buf[sizeof(double)];
    for (const double v : values) {
      store_u64(buf, std::bit_cast<std::uint64_t>(v));
      os.write(reinterpret_cast<const char*>(buf), sizeof buf);
    }
  }
  PMIOT_CHECK(os.good(), "binary trace write failed");
  samples_written_counter().add(n);
}

TimeSeries read_binary(std::istream& is) {
  std::ostringstream sink;
  sink << is.rdbuf();
  PMIOT_CHECK(!is.bad(), "binary trace read failed");
  const std::string buf = std::move(sink).str();
  const auto* data = reinterpret_cast<const unsigned char*>(buf.data());
  const BinaryLayout layout = parse_binary_header(data, buf.size());
  samples_read_counter().add(layout.num_rows);
  return TimeSeries(layout.meta,
                    copy_column(data + layout.value_offset, layout.num_rows));
}

void save_binary(const std::string& path, const TimeSeries& series) {
  std::ofstream os(path, std::ios::binary);
  PMIOT_CHECK(os.good(), "cannot open for writing: " + path);
  write_binary(os, series);
  PMIOT_CHECK(os.good(), "write failed: " + path);
}

TimeSeries load_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PMIOT_CHECK(is.good(), "cannot open for reading: " + path);
  return read_binary(is);
}

TimeSeries load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PMIOT_CHECK(is.good(), "cannot open for reading: " + path);
  char magic[sizeof kBinaryMagic] = {};
  is.read(magic, sizeof magic);
  if (is.gcount() == static_cast<std::streamsize>(sizeof magic) &&
      std::memcmp(magic, kBinaryMagic, sizeof magic) == 0) {
    is.close();
    return load_binary(path);
  }
  is.clear();
  is.seekg(0);
  return read_csv(is);
}

}  // namespace pmiot::ts


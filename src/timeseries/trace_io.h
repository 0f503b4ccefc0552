// Trace persistence: CSV and binary columnar read/write for TimeSeries.
//
// Two on-disk formats share the same metadata model:
//
//  * CSV ("pmiot-trace v1") — the interchange format downstream users need
//    to bring their own meter data into the library (or export simulated
//    traces to plotting tools). A two-line header carrying the sampling
//    metadata, then one "timestamp,value" row per sample:
//
//      # pmiot-trace v1
//      # start=2017-06-01 start_minute=0 interval_seconds=60
//      2017-06-01T00:00,0.412
//      ...
//
//    Timestamps are redundant (derived from the metadata) but keep the
//    files human- and spreadsheet-readable; the reader validates them
//    against the metadata to catch hand-edited inconsistencies.
//
//  * Binary columnar ("pmiotbt" container, version 1) — the hot ingest
//    format. A fixed 64-byte little-endian header (magic, version, the
//    TraceMeta fields, row count), a column directory, then per-column
//    blocks of raw IEEE-754 doubles at 8-byte-aligned offsets. Values
//    round-trip bit-exactly (including NaN and ±inf, which the CSV format
//    cannot carry), and ingest is a header parse plus one bulk copy per
//    column. Full layout in trace_io.cpp and DESIGN.md.
//
// CSV -> binary -> CSV round-trips are exact: both formats carry the same
// TraceMeta and the binary side stores the parsed doubles bit-for-bit.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "timeseries/timeseries.h"

namespace pmiot::ts {

/// Writes `series` in the pmiot-trace CSV format.
void write_csv(std::ostream& os, const TimeSeries& series,
               int value_precision = 6);

/// Parses a pmiot-trace CSV. Throws InvalidArgument on malformed headers,
/// rows, or timestamps inconsistent with the declared metadata.
TimeSeries read_csv(std::istream& is);

/// Convenience round-trips through files.
void save_csv(const std::string& path, const TimeSeries& series);
TimeSeries load_csv(const std::string& path);

/// Writes `series` as a pmiot binary columnar trace (stream must be opened
/// in binary mode). Values are stored bit-exactly.
void write_binary(std::ostream& os, const TimeSeries& series);

/// Parses a pmiot binary columnar trace. Throws InvalidArgument on a wrong
/// magic, unsupported version, truncated file, or an inconsistent column
/// directory.
TimeSeries read_binary(std::istream& is);

/// Convenience round-trips through files.
void save_binary(const std::string& path, const TimeSeries& series);
TimeSeries load_binary(const std::string& path);

/// Loads either format, sniffing the 8-byte binary magic.
TimeSeries load_trace(const std::string& path);

}  // namespace pmiot::ts

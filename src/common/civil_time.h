// Minimal civil-time utilities for the simulators and solar geometry.
//
// All pmiot traces are indexed by (date, minute-of-day) in *local standard
// time*; the solar module converts to/from UTC using a site's longitude-based
// offset. We deliberately avoid time zones and DST: the paper's analyses
// operate on fixed-offset local clocks, and a full tz database would add
// nothing to the reproduction.
#pragma once

#include <compare>
#include <string>

namespace pmiot {

inline constexpr int kMinutesPerDay = 24 * 60;
inline constexpr int kSecondsPerDay = 24 * 60 * 60;

/// A calendar date (proleptic Gregorian). Aggregate; no invariant beyond
/// "fields describe a real date", validated by the free functions below.
struct CivilDate {
  int year = 2017;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  auto operator<=>(const CivilDate&) const = default;
};

/// True if `date` names a real calendar day.
bool is_valid(const CivilDate& date) noexcept;

/// True for Gregorian leap years.
bool is_leap_year(int year) noexcept;

/// Days in the given month (1..12) of `year`.
int days_in_month(int year, int month);

/// Day-of-year in 1..366. Requires a valid date.
int day_of_year(const CivilDate& date);

/// Days since 1970-01-01 (can be negative). Requires a valid date.
long days_from_epoch(const CivilDate& date);

/// Inverse of days_from_epoch.
CivilDate date_from_epoch_days(long days);

/// Day of week, 0 = Sunday .. 6 = Saturday. Requires a valid date.
int day_of_week(const CivilDate& date);

/// True for Saturday/Sunday.
bool is_weekend(const CivilDate& date);

/// `date` advanced by `n` days (n may be negative).
CivilDate add_days(const CivilDate& date, long n);

/// "YYYY-MM-DD".
std::string to_string(const CivilDate& date);

}  // namespace pmiot

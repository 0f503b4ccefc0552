#include "common/civil_time.h"

#include <array>
#include <cstdio>

#include "common/error.h"

namespace pmiot {
namespace {

constexpr std::array<int, 12> kMonthDays = {31, 28, 31, 30, 31, 30,
                                            31, 31, 30, 31, 30, 31};

}  // namespace

bool is_leap_year(int year) noexcept {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  PMIOT_CHECK(month >= 1 && month <= 12, "month out of range");
  if (month == 2 && is_leap_year(year)) return 29;
  return kMonthDays[static_cast<std::size_t>(month - 1)];
}

bool is_valid(const CivilDate& date) noexcept {
  if (date.month < 1 || date.month > 12) return false;
  if (date.day < 1) return false;
  return date.day <= days_in_month(date.year, date.month);
}

int day_of_year(const CivilDate& date) {
  PMIOT_CHECK(is_valid(date), "invalid date");
  int doy = date.day;
  for (int m = 1; m < date.month; ++m) doy += days_in_month(date.year, m);
  return doy;
}

long days_from_epoch(const CivilDate& date) {
  PMIOT_CHECK(is_valid(date), "invalid date");
  // Howard Hinnant's days-from-civil algorithm.
  int y = date.year;
  const int m = date.month;
  const int d = date.day;
  y -= m <= 2;
  const long era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<long>(doe) - 719468;
}

CivilDate date_from_epoch_days(long z) {
  z += 719468;
  const long era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const long y = static_cast<long>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(d)};
}

int day_of_week(const CivilDate& date) {
  const long days = days_from_epoch(date);
  // 1970-01-01 was a Thursday (= 4).
  long dow = (days + 4) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

bool is_weekend(const CivilDate& date) {
  const int dow = day_of_week(date);
  return dow == 0 || dow == 6;
}

CivilDate add_days(const CivilDate& date, long n) {
  return date_from_epoch_days(days_from_epoch(date) + n);
}

std::string to_string(const CivilDate& date) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", date.year, date.month,
                date.day);
  return buf;
}

}  // namespace pmiot

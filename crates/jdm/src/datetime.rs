//! The `xs:dateTime` subset used by the paper's queries.
//!
//! The paper's queries call `dateTime(data($r("date")))` and then
//! `year-from-dateTime`, `month-from-dateTime`, `day-from-dateTime`
//! (Listings 7–10). GHCN web-service dates in the paper's sample file look
//! like `"20132512T00:00"`. We accept three formats:
//!
//! * `YYYYMMDDTHH:MM` — compact ISO-like (what our data generator emits),
//! * `YYYY-MM-DDTHH:MM[:SS]` — standard ISO-8601 (no time zone),
//! * `YYYYDDMMTHH:MM` — the paper's sample ordering, accepted only when the
//!   middle pair cannot be a month (i.e. > 12), so that valid ISO compact
//!   dates are never mis-read.
//!
//! Every numeric field is ASCII digits, so signed or padded fields such as
//! `+1` are rejected.
//!
//! Time zones are out of scope: the evaluation data has none.

use crate::error::{JdmError, Result};
use std::fmt;

/// A timezone-less Gregorian date-time with minute precision (seconds kept
/// when present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DateTime {
    /// Gregorian year (proleptic; negative = BCE).
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31 (validated against the month).
    pub day: u8,
    /// Hour, 0–23.
    pub hour: u8,
    /// Minute, 0–59.
    pub minute: u8,
    /// Second, 0–59 (no leap seconds).
    pub second: u8,
}

impl DateTime {
    /// Construct, validating field ranges (month 1–12, day 1–31 checked
    /// against the month length, hour < 24, minute/second < 60).
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Result<Self> {
        let dt = DateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
        };
        if !(1..=12).contains(&month) {
            return Err(JdmError::BadDateTime(format!("month {month} out of range")));
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(JdmError::BadDateTime(format!("day {day} out of range")));
        }
        if hour > 23 || minute > 59 || second > 59 {
            return Err(JdmError::BadDateTime(format!(
                "time {hour}:{minute}:{second} out of range"
            )));
        }
        Ok(dt)
    }

    /// Parse any of the accepted formats (see module docs). Every numeric
    /// field is ASCII digits: no sign, no space.
    pub fn parse(s: &str) -> Result<Self> {
        let bad = || JdmError::BadDateTime(s.to_string());
        let b = s.as_bytes();
        // The date ends at the `T`: 8 bytes compact, 10 dashed; the time
        // is `HH:MM` (5 bytes) or `HH:MM:SS` (8).
        let (dashed, t) = match b.len() {
            14 | 17 => (false, 8),
            16 | 19 => (true, 10),
            _ => return Err(bad()),
        };
        let digit = |i: usize| {
            let d = b[i].wrapping_sub(b'0');
            (d < 10).then_some(d)
        };
        let two = |i: usize| Some(digit(i)? * 10 + digit(i + 1)?);
        let fields = || {
            let year = i32::from(two(0)?) * 100 + i32::from(two(2)?);
            let (mid, last) = if dashed {
                (b[4] == b'-' && b[7] == b'-').then_some(())?;
                (two(5)?, two(8)?)
            } else {
                (two(4)?, two(6)?)
            };
            (b[t] == b'T' && b[t + 3] == b':').then_some(())?;
            let (hour, minute) = (two(t + 1)?, two(t + 4)?);
            let second = if b.len() - t == 9 {
                (b[t + 6] == b':').then_some(())?;
                two(t + 7)?
            } else {
                0
            };
            Some((year, mid, last, hour, minute, second))
        };
        let (year, mid, last, hour, minute, second) = fields().ok_or_else(bad)?;
        // YYYY-MM-DD, or YYYYMMDD; fall back to the paper's YYYYDDMM
        // ordering when the middle pair cannot be a month.
        if dashed || (1..=12).contains(&mid) {
            return DateTime::new(year, mid, last, hour, minute, second);
        }
        if (1..=12).contains(&last) {
            return DateTime::new(year, last, mid, hour, minute, second);
        }
        Err(bad())
    }

    /// Days since 0001-01-01 (proleptic Gregorian), for date arithmetic and
    /// a compact sortable encoding.
    pub fn days_from_epoch(&self) -> i64 {
        let y = self.year as i64 - 1;
        let mut days = y * 365 + y.div_euclid(4) - y.div_euclid(100) + y.div_euclid(400);
        days += CUMULATIVE_DAYS[(self.month - 1) as usize] as i64;
        if self.month > 2 && is_leap(self.year) {
            days += 1;
        }
        days + self.day as i64 - 1
    }

    /// Minutes since 0001-01-01T00:00, used as a compact binary encoding.
    pub fn minutes_from_epoch(&self) -> i64 {
        self.days_from_epoch() * 1440 + self.hour as i64 * 60 + self.minute as i64
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

const CUMULATIVE_DAYS: [u16; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

/// Gregorian leap-year test.
pub fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compact_iso() {
        let d = DateTime::parse("20131225T00:00").unwrap();
        assert_eq!((d.year, d.month, d.day), (2013, 12, 25));
    }

    #[test]
    fn parses_dashed_iso_with_seconds() {
        let d = DateTime::parse("2014-01-31T23:59:58").unwrap();
        assert_eq!(
            (d.year, d.month, d.day, d.hour, d.minute, d.second),
            (2014, 1, 31, 23, 59, 58)
        );
    }

    #[test]
    fn parses_paper_sample_ordering() {
        // "20132512T00:00" from Listing 6: day 25, month 12.
        let d = DateTime::parse("20132512T00:00").unwrap();
        assert_eq!((d.year, d.month, d.day), (2013, 12, 25));
    }

    #[test]
    fn fields_are_ascii_digits_only() {
        for s in [
            "20131225T+1:00",
            "2013-+1-25T00:00",
            "+013-12-25T00:00",
            "-001-12-25T00:00",
            "20131225T 1:00",
            "20131225T00:00:0",
            "20131225T00:00Z",
            "2013122500:00",
            "2013-12-25T00:00:00:00",
            "2013\u{e9}25T00:00",
            "",
            "T",
        ] {
            assert_eq!(
                DateTime::parse(s),
                Err(JdmError::BadDateTime(s.to_string())),
                "{s:?}"
            );
        }
        // Well-formed fields out of range keep the range error.
        assert_eq!(
            DateTime::parse("2013-13-25T00:00"),
            Err(JdmError::BadDateTime("month 13 out of range".into()))
        );
        assert_eq!(
            DateTime::parse("20131225T00:00:60"),
            Err(JdmError::BadDateTime("time 0:0:60 out of range".into()))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(DateTime::parse("not a date").is_err());
        assert!(DateTime::parse("20133535T00:00").is_err()); // no month reading works
        assert!(DateTime::parse("20130230T00:00").is_err()); // Feb 30
        assert!(DateTime::parse("20131225T25:00").is_err()); // hour 25
                                                             // "month 13" is readable under the paper's DDMM ordering: Jan 13.
        let d = DateTime::parse("20131301T00:00").unwrap();
        assert_eq!((d.month, d.day), (1, 13));
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2004));
        assert!(!is_leap(2013));
        assert_eq!(days_in_month(2004, 2), 29);
        assert_eq!(days_in_month(2013, 2), 28);
    }

    #[test]
    fn epoch_days_are_monotone() {
        let a = DateTime::parse("20131225T00:00").unwrap();
        let b = DateTime::parse("20131226T00:00").unwrap();
        let c = DateTime::parse("20140101T00:00").unwrap();
        assert_eq!(b.days_from_epoch() - a.days_from_epoch(), 1);
        assert_eq!(c.days_from_epoch() - b.days_from_epoch(), 6);
    }

    #[test]
    fn ordering_matches_chronology() {
        let a = DateTime::parse("2013-12-25T00:00").unwrap();
        let b = DateTime::parse("2013-12-25T00:01").unwrap();
        assert!(a < b);
    }
}

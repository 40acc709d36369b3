//! The correctness oracle: each query's answer computed directly from the
//! generator's items in plain Rust, with no engine code, and the check of an
//! engine result against it.
//!
//! Results compare as canonical row multisets (one string per row, sorted);
//! Q2's scalar compares within [`Q2_REL_TOLERANCE`].

use crate::workload::Query;
use datagen::{SensorSpec, DATA_TYPES};
use jdm::{Item, Number};
use std::collections::HashMap;

/// Relative tolerance of the Q2 average (the engine and the oracle sum in
/// different orders and types).
pub const Q2_REL_TOLERANCE: f64 = 1e-9;

/// One generated measurement, reduced to what the queries read.
#[derive(Debug, Clone, Copy)]
struct Measurement {
    year: u16,
    month: u8,
    day: u8,
    data_type: u8,
    station: u32,
    value: i64,
}

impl Measurement {
    fn date(&self) -> String {
        format!("{:04}{:02}{:02}T00:00", self.year, self.month, self.day)
    }

    fn date_key(&self) -> u32 {
        self.year as u32 * 10_000 + self.month as u32 * 100 + self.day as u32
    }

    /// The canonical row of a whole measurement object.
    fn row(&self) -> String {
        format!(
            "{}|{}|GSW{:06}|{}",
            self.date(),
            DATA_TYPES[self.data_type as usize],
            self.station,
            self.value
        )
    }
}

/// An expected or observed query answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Canonical rows, sorted: a multiset.
    Rows(Vec<String>),
    /// A single number.
    Scalar(f64),
}

/// The generated collection, reduced for answering queries.
pub struct Oracle {
    measurements: Vec<Measurement>,
}

impl Oracle {
    /// Regenerate `spec`'s items and reduce them. Fails if an item does not
    /// have the shape the generator documents.
    pub fn from_spec(spec: &SensorSpec) -> Result<Oracle, String> {
        let files = spec.nodes * spec.files_per_node;
        let mut measurements = Vec::with_capacity(spec.total_measurements());
        for f in 0..files {
            let item = spec.file_item(f);
            let Some(Item::Array(records)) = item.get_key("root") else {
                return Err("file without a root array".into());
            };
            for record in records {
                let Some(Item::Array(results)) = record.get_key("results") else {
                    return Err("record without a results array".into());
                };
                for m in results {
                    measurements.push(reduce(m)?);
                }
            }
        }
        Ok(Oracle { measurements })
    }

    /// Number of measurements in the collection.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// The answer the engine must return for `query`.
    pub fn answer(&self, query: &Query) -> Answer {
        match *query {
            Query::Select { month, day, whole } => {
                let mut rows: Vec<String> = self
                    .measurements
                    .iter()
                    .filter(|m| m.year >= 2003 && m.month == month && m.day == day)
                    .map(|m| if whole { m.row() } else { m.date() })
                    .collect();
                rows.sort_unstable();
                Answer::Rows(rows)
            }
            Query::GroupCount { data_type, .. } => {
                let mut per_date: HashMap<u32, u64> = HashMap::new();
                for m in self
                    .measurements
                    .iter()
                    .filter(|m| m.data_type == data_type)
                {
                    *per_date.entry(m.date_key()).or_default() += 1;
                }
                let mut rows: Vec<String> = per_date.values().map(u64::to_string).collect();
                rows.sort_unstable();
                Answer::Rows(rows)
            }
            Query::JoinAvg => {
                // Per (station, date): count and sum of TMIN and of TMAX
                // values. Every TMIN × TMAX pair of a key joins, so the key
                // adds n_min·n_max pairs and Σ(max − min) over them equals
                // n_min·Σmax − n_max·Σmin.
                let (tmin, tmax) = (0u8, 1u8);
                let mut keys: HashMap<(u32, u32), [i128; 4]> = HashMap::new();
                for m in &self.measurements {
                    let slot = if m.data_type == tmin {
                        0
                    } else if m.data_type == tmax {
                        2
                    } else {
                        continue;
                    };
                    let e = keys.entry((m.station, m.date_key())).or_default();
                    e[slot] += 1;
                    e[slot + 1] += m.value as i128;
                }
                let (mut pairs, mut sum) = (0i128, 0i128);
                for [n_min, s_min, n_max, s_max] in keys.into_values() {
                    pairs += n_min * n_max;
                    sum += n_min * s_max - n_max * s_min;
                }
                Answer::Scalar(sum as f64 / pairs as f64 / 10.0)
            }
        }
    }
}

/// Reduce one generated measurement object, checking its shape.
fn reduce(m: &Item) -> Result<Measurement, String> {
    let field = |k: &str| {
        m.get_key(k)
            .ok_or_else(|| format!("measurement without {k}"))
    };
    let date = field("date")?.as_str().ok_or("date is not a string")?;
    let (year, month, day) = parse_date(date).ok_or_else(|| format!("bad date {date}"))?;
    let dt = field("dataType")?
        .as_str()
        .ok_or("dataType is not a string")?;
    let data_type = DATA_TYPES
        .iter()
        .position(|t| *t == dt)
        .ok_or_else(|| format!("unknown dataType {dt}"))? as u8;
    let st = field("station")?
        .as_str()
        .ok_or("station is not a string")?;
    let station = parse_station(st).ok_or_else(|| format!("bad station {st}"))?;
    let Some(Number::Int(value)) = field("value")?.as_number() else {
        return Err("value is not an integer".into());
    };
    let reduced = Measurement {
        year,
        month,
        day,
        data_type,
        station,
        value,
    };
    // The canonical row must render back to exactly what was generated.
    if reduced.date() != date || format!("GSW{station:06}") != st {
        return Err(format!("{date}/{st} does not round-trip"));
    }
    Ok(reduced)
}

/// `YYYYMMDDT00:00` → (year, month, day).
fn parse_date(s: &str) -> Option<(u16, u8, u8)> {
    let digits = s.strip_suffix("T00:00")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((
        digits[..4].parse().ok()?,
        digits[4..6].parse().ok()?,
        digits[6..].parse().ok()?,
    ))
}

/// `GSW000123` → 123.
fn parse_station(s: &str) -> Option<u32> {
    let digits = s.strip_prefix("GSW")?;
    (digits.len() == 6).then_some(())?;
    digits.parse().ok()
}

/// Reduce an engine result to its canonical answer for `query`.
pub fn canonical(query: &Query, rows: &[Vec<Item>]) -> Result<Answer, String> {
    fn single(row: &[Item]) -> Result<&Item, String> {
        match row {
            [item] => Ok(item),
            other => Err(format!("row with {} fields", other.len())),
        }
    }
    match *query {
        Query::Select { whole, .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let item = single(row)?;
                out.push(if whole {
                    measurement_row(item)?
                } else {
                    item.as_str()
                        .ok_or_else(|| format!("non-string row {}", jdm::text::to_string(item)))?
                        .to_string()
                });
            }
            out.sort_unstable();
            Ok(Answer::Rows(out))
        }
        Query::GroupCount { .. } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                match single(row)?.as_number() {
                    Some(Number::Int(n)) => out.push(n.to_string()),
                    other => return Err(format!("non-integer count {other:?}")),
                }
            }
            out.sort_unstable();
            Ok(Answer::Rows(out))
        }
        Query::JoinAvg => {
            let [row] = rows else {
                return Err(format!("{} rows for a scalar", rows.len()));
            };
            let n = single(row)?.as_number().ok_or("non-numeric Q2 result")?;
            Ok(Answer::Scalar(n.as_f64()))
        }
    }
}

/// The canonical row of a returned measurement object: exactly the four
/// generated keys, in generated order.
fn measurement_row(item: &Item) -> Result<String, String> {
    let Item::Object(pairs) = item else {
        return Err(format!("non-object row {}", jdm::text::to_string(item)));
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| &**k).collect();
    if keys != ["date", "dataType", "station", "value"] {
        return Err(format!("object keys {keys:?}"));
    }
    let text = |i: usize| {
        pairs[i]
            .1
            .as_str()
            .ok_or_else(|| format!("{} is not a string", keys[i]))
    };
    let Some(Number::Int(value)) = pairs[3].1.as_number() else {
        return Err("value is not an integer".into());
    };
    Ok(format!("{}|{}|{}|{}", text(0)?, text(1)?, text(2)?, value))
}

/// Compare an observed answer with the expected one. `Err` describes the
/// first difference.
pub fn compare(expected: &Answer, got: &Answer) -> Result<(), String> {
    match (expected, got) {
        (Answer::Rows(e), Answer::Rows(g)) => {
            if e == g {
                return Ok(());
            }
            if e.len() != g.len() {
                return Err(format!("{} rows, expected {}", g.len(), e.len()));
            }
            let (want, have) = e.iter().zip(g).find(|(a, b)| a != b).expect("rows differ");
            Err(format!("row {have:?} where {want:?} was expected"))
        }
        (Answer::Scalar(e), Answer::Scalar(g)) => {
            if (e - g).abs() <= Q2_REL_TOLERANCE * e.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!("scalar {g}, expected {e}"))
            }
        }
        _ => Err("answer of the wrong kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        let spec = SensorSpec {
            seed: 3,
            records_per_file: 60,
            measurements_per_array: 12,
            ..SensorSpec::default()
        };
        Oracle::from_spec(&spec).unwrap()
    }

    fn rows_of(answer: &Answer) -> &[String] {
        match answer {
            Answer::Rows(r) => r,
            Answer::Scalar(_) => panic!("expected rows"),
        }
    }

    /// Engine-shaped rows for a canonical Q0 answer.
    fn q0_items(answer: &Answer) -> Vec<Vec<Item>> {
        rows_of(answer)
            .iter()
            .map(|r| {
                let f: Vec<&str> = r.split('|').collect();
                vec![Item::Object(vec![
                    ("date".into(), Item::str(f[0])),
                    ("dataType".into(), Item::str(f[1])),
                    ("station".into(), Item::str(f[2])),
                    ("value".into(), Item::int(f[3].parse().unwrap())),
                ])]
            })
            .collect()
    }

    #[test]
    fn matching_rows_pass_in_any_order() {
        let o = oracle();
        let q = Query::Select {
            month: 12,
            day: 25,
            whole: true,
        };
        let expected = o.answer(&q);
        let mut rows = q0_items(&expected);
        rows.reverse();
        assert_eq!(compare(&expected, &canonical(&q, &rows).unwrap()), Ok(()));
    }

    #[test]
    fn oracle_rejects_a_corrupted_row() {
        let o = oracle();
        // Pick a date that has rows in this small collection.
        let q = (1..=12u8)
            .flat_map(|m| (1..=28u8).map(move |d| (m, d)))
            .map(|(month, day)| Query::Select {
                month,
                day,
                whole: true,
            })
            .find(|q| !rows_of(&o.answer(q)).is_empty())
            .expect("some date has rows");
        let expected = o.answer(&q);
        let mut rows = q0_items(&expected);
        let Item::Object(pairs) = &mut rows[0][0] else {
            unreachable!()
        };
        pairs[3].1 = Item::int(pairs[3].1.as_number().unwrap().as_i64().unwrap() + 1);
        assert!(compare(&expected, &canonical(&q, &rows).unwrap()).is_err());
        // A dropped row and a duplicated row are caught as well.
        let mut rows = q0_items(&expected);
        rows.pop();
        assert!(compare(&expected, &canonical(&q, &rows).unwrap()).is_err());
        let mut rows = q0_items(&expected);
        rows.push(rows[0].clone());
        assert!(compare(&expected, &canonical(&q, &rows).unwrap()).is_err());
        // An extra key is not the generated measurement.
        let mut rows = q0_items(&expected);
        let Item::Object(pairs) = &mut rows[0][0] else {
            unreachable!()
        };
        pairs.push(("extra".into(), Item::int(1)));
        assert!(canonical(&q, &rows).is_err());
    }

    #[test]
    fn oracle_rejects_a_wrong_q2_scalar() {
        let o = oracle();
        let Answer::Scalar(avg) = o.answer(&Query::JoinAvg) else {
            panic!("Q2 is a scalar")
        };
        assert!(avg > 0.0, "TMAX exceeds TMIN by construction");
        let row = |v: f64| vec![vec![Item::double(v)]];
        let ok = canonical(&Query::JoinAvg, &row(avg * (1.0 + 1e-12))).unwrap();
        assert_eq!(compare(&Answer::Scalar(avg), &ok), Ok(()));
        let wrong = canonical(&Query::JoinAvg, &row(avg * (1.0 + 1e-6))).unwrap();
        assert!(compare(&Answer::Scalar(avg), &wrong).is_err());
        assert!(canonical(&Query::JoinAvg, &[]).is_err());
    }

    #[test]
    fn q2_oracle_matches_a_brute_force_join() {
        let o = oracle();
        let (mut sum, mut pairs) = (0i64, 0i64);
        for a in o.measurements.iter().filter(|m| m.data_type == 0) {
            for b in o.measurements.iter().filter(|m| m.data_type == 1) {
                if a.station == b.station && a.date_key() == b.date_key() {
                    sum += b.value - a.value;
                    pairs += 1;
                }
            }
        }
        let expected = Answer::Scalar(sum as f64 / pairs as f64 / 10.0);
        assert_eq!(compare(&expected, &o.answer(&Query::JoinAvg)), Ok(()));
    }

    #[test]
    fn group_counts_add_up_to_the_type_total() {
        let o = oracle();
        for data_type in 0..DATA_TYPES.len() as u8 {
            let q = Query::GroupCount {
                data_type,
                optimized: false,
            };
            let total: u64 = rows_of(&o.answer(&q))
                .iter()
                .map(|r| r.parse::<u64>().unwrap())
                .sum();
            let expected = o
                .measurements
                .iter()
                .filter(|m| m.data_type == data_type)
                .count();
            assert_eq!(total as usize, expected);
        }
    }
}

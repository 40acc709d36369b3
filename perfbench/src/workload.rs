//! The benchmark's workloads: collection shape, engine shape and the query
//! stream each client sends.

use datagen::rng::StdRng;
use datagen::SensorSpec;
use vxq_core::queries;

/// One evaluation query with its literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Q0 (`whole`: returns the measurement) or Q0b (returns its date):
    /// readings from 2003 on dated `month`/`day`.
    Select { month: u8, day: u8, whole: bool },
    /// Q1 (`optimized == false`) or Q1b: per date, the number of
    /// measurements of type `DATA_TYPES[data_type]`.
    GroupCount { data_type: u8, optimized: bool },
    /// Q2: average TMAX − TMIN over the (station, date) self-join, div 10.
    JoinAvg,
}

impl Query {
    /// The paper's own literals for a query type.
    pub fn canonical(ty: &str) -> Query {
        match ty {
            "Q0" => Query::Select {
                month: 12,
                day: 25,
                whole: true,
            },
            "Q0b" => Query::Select {
                month: 12,
                day: 25,
                whole: false,
            },
            "Q1" => Query::GroupCount {
                data_type: 0,
                optimized: false,
            },
            "Q1b" => Query::GroupCount {
                data_type: 0,
                optimized: true,
            },
            "Q2" => Query::JoinAvg,
            other => panic!("unknown query type {other}"),
        }
    }

    /// The paper's name for this query's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Query::Select { whole: true, .. } => "Q0",
            Query::Select { whole: false, .. } => "Q0b",
            Query::GroupCount {
                optimized: false, ..
            } => "Q1",
            Query::GroupCount {
                optimized: true, ..
            } => "Q1b",
            Query::JoinAvg => "Q2",
        }
    }

    /// The JSONiq text: the paper's query with this query's literals. The
    /// canonical literals give the paper's text unchanged.
    pub fn text(&self) -> String {
        match *self {
            Query::Select { month, day, whole } => {
                let base = if whole { queries::Q0 } else { queries::Q0B };
                substitute(
                    &substitute(
                        base,
                        "($datetime) eq 12",
                        &format!("($datetime) eq {month}"),
                    ),
                    "($datetime) eq 25",
                    &format!("($datetime) eq {day}"),
                )
            }
            Query::GroupCount {
                data_type,
                optimized,
            } => {
                let base = if optimized { queries::Q1B } else { queries::Q1 };
                let dt = datagen::DATA_TYPES[data_type as usize];
                substitute(base, "eq \"TMIN\"", &format!("eq \"{dt}\""))
            }
            Query::JoinAvg => queries::Q2.to_string(),
        }
    }
}

/// Replace the one occurrence of `from` in `text`.
fn substitute(text: &str, from: &str, to: &str) -> String {
    assert_eq!(
        text.matches(from).count(),
        1,
        "query literal {from:?} must occur once"
    );
    text.replacen(from, to, 1)
}

/// A workload: the collection, the engine shape and the query stream.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Generator target size in bytes.
    pub target_bytes: usize,
    pub files: usize,
    pub measurements_per_array: usize,
    pub partitions: usize,
    /// Operator memory budget in bytes (0 = unlimited).
    pub memory_budget: usize,
    /// Query types the stream draws from.
    pub types: &'static [&'static str],
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "select-scan",
        target_bytes: 16 << 20,
        files: 4,
        measurements_per_array: 30,
        partitions: 1,
        memory_budget: 0,
        types: &["Q0", "Q0b"],
        setup_reps: 5,
    },
    Workload {
        name: "aggregate-join",
        target_bytes: 16 << 20,
        files: 4,
        measurements_per_array: 30,
        partitions: 2,
        memory_budget: 4 << 20,
        types: &["Q1", "Q1b", "Q2"],
        setup_reps: 3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generator spec for `seed`.
    pub fn spec(&self, seed: u64) -> SensorSpec {
        SensorSpec {
            seed,
            ..SensorSpec::sized(
                self.target_bytes,
                1,
                self.files,
                self.measurements_per_array,
            )
        }
    }

    /// Identifies the collection's shape in cache directory names.
    pub fn shape_key(&self, spec: &SensorSpec) -> String {
        format!(
            "f{}-r{}-m{}-st{}-y{}+{}",
            spec.files_per_node,
            spec.records_per_file,
            spec.measurements_per_array,
            spec.stations,
            spec.start_year,
            spec.years
        )
    }

    /// Each query type once, with the paper's literals.
    pub fn canonical_queries(&self) -> Vec<Query> {
        self.types.iter().map(|t| Query::canonical(t)).collect()
    }

    /// The workload's types in turn with the paper's literals.
    pub fn stream(&self) -> QueryStream {
        QueryStream {
            types: self.types,
            literals: None,
            next: 0,
        }
    }

    /// The workload's types in turn, starting at `client`, with literals
    /// drawn under `seed` with skewed popularity: the traffic the
    /// service-layer burst sends.
    pub fn mixed_stream(&self, seed: u64, client: usize) -> QueryStream {
        // Popularity ranks are shared by all clients of a run; the draws
        // are each client's own.
        let mut shared = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_7175);
        let days: Vec<(u8, u8)> = (1..=12u8)
            .flat_map(|m| (1..=28u8).map(move |d| (m, d)))
            .collect();
        let literals = Literals {
            dates: Zipf::new(days, &mut shared),
            data_types: Zipf::new((0..datagen::DATA_TYPES.len() as u8).collect(), &mut shared),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client as u64),
        };
        QueryStream {
            types: self.types,
            literals: Some(literals),
            next: client,
        }
    }
}

/// Zipf exponent of literal popularity in mixed streams.
const ZIPF_S: f64 = 1.0;

/// Popularity-skewed draws over a seeded permutation of candidates.
struct Zipf<T> {
    ranked: Vec<T>,
    cdf: Vec<f64>,
}

impl<T: Copy> Zipf<T> {
    fn new(mut candidates: Vec<T>, rng: &mut StdRng) -> Self {
        // Fisher–Yates: which literal is most popular depends on the seed.
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=candidates.len())
            .map(|k| {
                acc += 1.0 / (k as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            ranked: candidates,
            cdf,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> T {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let k = self.cdf.partition_point(|&c| c <= u);
        self.ranked[k.min(self.ranked.len() - 1)]
    }
}

/// Seeded literal draws of a mixed stream.
struct Literals {
    rng: StdRng,
    dates: Zipf<(u8, u8)>,
    data_types: Zipf<u8>,
}

/// The deterministic, endless sequence of queries one client sends.
pub struct QueryStream {
    types: &'static [&'static str],
    literals: Option<Literals>,
    next: usize,
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let query = Query::canonical(self.types[self.next % self.types.len()]);
        self.next += 1;
        let Some(l) = &mut self.literals else {
            return Some(query);
        };
        Some(match query {
            Query::Select { whole, .. } => {
                let (month, day) = l.dates.draw(&mut l.rng);
                Query::Select { month, day, whole }
            }
            Query::GroupCount { optimized, .. } => Query::GroupCount {
                data_type: l.data_types.draw(&mut l.rng),
                optimized,
            },
            Query::JoinAvg => Query::JoinAvg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn canonical_literals_give_the_paper_text() {
        for (ty, text) in queries::SENSOR_QUERIES {
            assert_eq!(Query::canonical(ty).text(), text);
            assert_eq!(Query::canonical(ty).type_name(), ty);
        }
    }

    #[test]
    fn literals_are_substituted() {
        let q = Query::Select {
            month: 3,
            day: 7,
            whole: false,
        };
        let text = q.text();
        assert!(text.contains("month-from-dateTime($datetime) eq 3"));
        assert!(text.contains("day-from-dateTime($datetime) eq 7"));
        let q = Query::GroupCount {
            data_type: 2,
            optimized: true,
        };
        assert!(q.text().contains("eq \"WIND\""));
    }

    #[test]
    fn mixed_streams_repeat_per_seed_and_differ_across_seeds() {
        let w = Workload::by_name("select-scan").unwrap();
        let a: Vec<Query> = w.mixed_stream(7, 0).take(200).collect();
        let b: Vec<Query> = w.mixed_stream(7, 0).take(200).collect();
        let c: Vec<Query> = w.mixed_stream(8, 0).take(200).collect();
        let d: Vec<Query> = w.mixed_stream(7, 1).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mixed_stream_outgrows_the_plan_cache_and_is_skewed() {
        let w = Workload::by_name("select-scan").unwrap();
        let qs: Vec<Query> = w.mixed_stream(1, 0).take(2000).collect();
        let texts: HashSet<String> = qs.iter().map(Query::text).collect();
        assert!(texts.len() > 64, "only {} distinct texts", texts.len());
        assert!(texts.len() < qs.len() / 2, "no repeats: {}", texts.len());
        let types: HashSet<&str> = qs.iter().map(Query::type_name).collect();
        assert_eq!(types.len(), 2);
        // On aggregate-join only Q1/Q1b carry a literal.
        let w = Workload::by_name("aggregate-join").unwrap();
        let texts: HashSet<String> = w.mixed_stream(1, 0).take(2000).map(|q| q.text()).collect();
        assert_eq!(texts.len(), 2 * datagen::DATA_TYPES.len() + 1);
    }

    #[test]
    fn fixed_streams_interleave_types() {
        let w = Workload::by_name("aggregate-join").unwrap();
        let names: Vec<&str> = w.stream().take(4).map(|q| q.type_name()).collect();
        assert_eq!(names, ["Q1", "Q1b", "Q2", "Q1"]);
    }
}

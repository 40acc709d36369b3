//! Incremental aggregators and their two-step (partial/merge) forms.
//!
//! Each aggregator runs its argument's program per input tuple and folds
//! the resulting items into its state — the post-group-by-rules
//! execution model ("incrementally calculate ... as each item of the
//! sequence is fetched", §4.3). The `Merge*` forms implement the second
//! step of Algebricks' two-step aggregation: partials computed per
//! partition, merged at the destination partition.

use crate::program::{Evaluator, Program};
use crate::rtexpr::{number_or_err, RtExpr, View};
use algebra::expr::AggFunc;
use dataflow::ops::eval::{Aggregator, AggregatorFactory};
use dataflow::{DataflowError, TupleRef};
use jdm::binary::write_item;
use jdm::{Item, Number};
use std::cmp::Ordering;
use std::sync::Arc;

/// Factory producing one aggregator per group / partition.
pub struct AggFactory {
    pub func: AggFunc,
    /// The argument, lowered once and shared by every aggregator.
    pub arg: Arc<Program>,
}

impl AggFactory {
    pub fn new(func: AggFunc, arg: &RtExpr) -> Self {
        AggFactory {
            func,
            arg: Arc::new(Program::expr(arg)),
        }
    }
}

impl AggregatorFactory for AggFactory {
    fn create(&self) -> Box<dyn Aggregator> {
        let arg = || Evaluator::new(self.arg.clone());
        match self.func {
            AggFunc::Count => Box::new(CountAgg { arg: arg(), n: 0 }),
            AggFunc::MergeCount | AggFunc::MergeSum => Box::new(SumAgg {
                arg: arg(),
                total: Number::Int(0),
                any: false,
            }),
            AggFunc::Sum => Box::new(SumAgg {
                arg: arg(),
                total: Number::Int(0),
                any: false,
            }),
            AggFunc::Avg => Box::new(AvgAgg {
                arg: arg(),
                total: Number::Int(0),
                n: 0,
                partial: false,
            }),
            AggFunc::PartialAvg => Box::new(AvgAgg {
                arg: arg(),
                total: Number::Int(0),
                n: 0,
                partial: true,
            }),
            AggFunc::MergeAvg => Box::new(MergeAvgAgg {
                arg: arg(),
                total: Number::Int(0),
                n: 0,
            }),
            AggFunc::Min | AggFunc::MergeMin => Box::new(MinMaxAgg {
                arg: arg(),
                best: None,
                want_min: true,
            }),
            AggFunc::Max | AggFunc::MergeMax => Box::new(MinMaxAgg {
                arg: arg(),
                best: None,
                want_min: false,
            }),
            AggFunc::Sequence => Box::new(SeqAgg {
                arg: arg(),
                items: Vec::new(),
            }),
        }
    }
}

/// `count`: counts items (a per-tuple empty sequence contributes 0).
struct CountAgg {
    arg: Evaluator,
    n: i64,
}

impl Aggregator for CountAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        self.n += self.arg.with_value(t, None, |v| Ok(v.sequence_len()))? as i64;
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        write_item(&Item::int(self.n), out);
        Ok(())
    }
}

/// `sum` — also serves as `merge-count` / `merge-sum` (merging partial
/// counts *is* summing them).
struct SumAgg {
    arg: Evaluator,
    total: Number,
    any: bool,
}

impl Aggregator for SumAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        let (total, any) = (&mut self.total, &mut self.any);
        self.arg.with_value(t, None, |v| {
            for it in v.iter_sequence() {
                *total = total.add(number_or_err(it, "sum aggregate")?);
                *any = true;
            }
            Ok(())
        })
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        write_item(&Item::Number(self.total), out);
        Ok(())
    }
}

/// `avg`, or its two-step local form emitting an `{"sum","count"}`
/// partial object.
struct AvgAgg {
    arg: Evaluator,
    total: Number,
    n: i64,
    partial: bool,
}

impl Aggregator for AvgAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        let (total, n) = (&mut self.total, &mut self.n);
        self.arg.with_value(t, None, |v| {
            for it in v.iter_sequence() {
                *total = total.add(number_or_err(it, "avg aggregate")?);
                *n += 1;
            }
            Ok(())
        })
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        let item = if self.partial {
            Item::Object(vec![
                ("sum".into(), Item::Number(self.total)),
                ("count".into(), Item::int(self.n)),
            ])
        } else if self.n == 0 {
            Item::empty()
        } else {
            Item::Number(self.total.div(Number::Int(self.n)))
        };
        write_item(&item, out);
        Ok(())
    }
}

/// Merge `{"sum","count"}` partials into the final average.
struct MergeAvgAgg {
    arg: Evaluator,
    total: Number,
    n: i64,
}

impl Aggregator for MergeAvgAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        let (total, n) = (&mut self.total, &mut self.n);
        self.arg.with_value(t, None, |v| {
            for it in v.iter_sequence() {
                let sum = it
                    .get_key("sum")
                    .and_then(View::as_number)
                    .ok_or_else(|| DataflowError::Eval("avg partial missing sum".into()))?;
                let count = it
                    .get_key("count")
                    .and_then(View::as_number)
                    .and_then(Number::as_i64)
                    .ok_or_else(|| DataflowError::Eval("avg partial missing count".into()))?;
                *total = total.add(sum);
                *n += count;
            }
            Ok(())
        })
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        let item = if self.n == 0 {
            Item::empty()
        } else {
            Item::Number(self.total.div(Number::Int(self.n)))
        };
        write_item(&item, out);
        Ok(())
    }
}

/// `min` / `max` (self-merging: the merge form is the same fold).
struct MinMaxAgg {
    arg: Evaluator,
    best: Option<Item>,
    want_min: bool,
}

impl Aggregator for MinMaxAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        let (best, want_min) = (&mut self.best, self.want_min);
        self.arg.with_value(t, None, |v| {
            for it in v.iter_sequence() {
                let it = it.to_item()?;
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = it.total_cmp(b);
                        (want_min && ord == Ordering::Less)
                            || (!want_min && ord == Ordering::Greater)
                    }
                };
                if better {
                    *best = Some(it);
                }
            }
            Ok(())
        })
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        write_item(
            self.best.as_ref().unwrap_or(&Item::Sequence(Vec::new())),
            out,
        );
        Ok(())
    }
}

/// The pre-rewrite `AGGREGATE sequence`: buffers every item. Reports its
/// state size so the memory tracker sees what the group-by rules remove.
struct SeqAgg {
    arg: Evaluator,
    items: Vec<Item>,
}

impl Aggregator for SeqAgg {
    fn step(&mut self, t: &TupleRef<'_>) -> Result<(), DataflowError> {
        let items = &mut self.items;
        self.arg.with_value(t, None, |v| {
            for it in v.iter_sequence() {
                items.push(it.to_item()?);
            }
            Ok(())
        })
    }

    fn finish(&mut self, out: &mut Vec<u8>) -> Result<(), DataflowError> {
        write_item(&Item::Sequence(std::mem::take(&mut self.items)), out);
        Ok(())
    }

    fn state_size(&self) -> usize {
        self.items.iter().map(Item::heap_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::frame::frames_from_rows;
    use jdm::binary::{to_bytes, ItemRef};

    fn run(func: AggFunc, arg: RtExpr, rows: Vec<Vec<Item>>) -> Item {
        let factory = AggFactory::new(func, &arg);
        let mut agg = factory.create();
        let encoded: Vec<Vec<Vec<u8>>> = rows
            .iter()
            .map(|r| r.iter().map(to_bytes).collect())
            .collect();
        for f in frames_from_rows(&encoded, 4096) {
            for t in f.tuples() {
                agg.step(&t).unwrap();
            }
        }
        let mut out = Vec::new();
        agg.finish(&mut out).unwrap();
        ItemRef::new(&out).unwrap().to_item().unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Vec<Item>> {
        vals.iter().map(|&v| vec![Item::int(v)]).collect()
    }

    #[test]
    fn count_counts_items_not_tuples() {
        assert_eq!(
            run(AggFunc::Count, RtExpr::Field(0), ints(&[1, 2, 3])),
            Item::int(3)
        );
        // Empty sequences contribute nothing.
        let rows = vec![vec![Item::empty()], vec![Item::int(1)], vec![Item::empty()]];
        assert_eq!(run(AggFunc::Count, RtExpr::Field(0), rows), Item::int(1));
        // A sequence of 2 contributes 2.
        let rows = vec![vec![Item::seq([Item::int(1), Item::int(2)])]];
        assert_eq!(run(AggFunc::Count, RtExpr::Field(0), rows), Item::int(2));
    }

    #[test]
    fn sum_avg_min_max() {
        assert_eq!(
            run(AggFunc::Sum, RtExpr::Field(0), ints(&[5, 7, -2])),
            Item::int(10)
        );
        assert_eq!(
            run(AggFunc::Avg, RtExpr::Field(0), ints(&[2, 4])),
            Item::double(3.0)
        );
        assert_eq!(
            run(AggFunc::Min, RtExpr::Field(0), ints(&[5, -1, 3])),
            Item::int(-1)
        );
        assert_eq!(
            run(AggFunc::Max, RtExpr::Field(0), ints(&[5, -1, 3])),
            Item::int(5)
        );
        assert!(run(AggFunc::Avg, RtExpr::Field(0), vec![]).is_empty_sequence());
    }

    #[test]
    fn two_step_count_equals_single_step() {
        // Partition the input, count locally, merge globally.
        let all: Vec<i64> = (0..100).collect();
        let single = run(AggFunc::Count, RtExpr::Field(0), ints(&all));

        let mut partials = Vec::new();
        for chunk in all.chunks(33) {
            partials.push(vec![run(AggFunc::Count, RtExpr::Field(0), ints(chunk))]);
        }
        let merged = run(AggFunc::MergeCount, RtExpr::Field(0), partials);
        assert_eq!(single, merged);
    }

    #[test]
    fn two_step_avg_equals_single_step() {
        let all: Vec<i64> = (1..=10).collect();
        let single = run(AggFunc::Avg, RtExpr::Field(0), ints(&all));
        let mut partials = Vec::new();
        for chunk in all.chunks(3) {
            partials.push(vec![run(
                AggFunc::PartialAvg,
                RtExpr::Field(0),
                ints(chunk),
            )]);
        }
        let merged = run(AggFunc::MergeAvg, RtExpr::Field(0), partials);
        assert_eq!(single, merged);
    }

    #[test]
    fn sequence_agg_buffers_everything() {
        let got = run(AggFunc::Sequence, RtExpr::Field(0), ints(&[1, 2, 3]));
        assert_eq!(got, Item::seq([Item::int(1), Item::int(2), Item::int(3)]));
    }
}

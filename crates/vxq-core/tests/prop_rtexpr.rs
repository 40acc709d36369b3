//! Property tests for the runtime expression layer: navigation over the
//! binary tuple encoding must agree with direct tree-model navigation,
//! running an expression's program over a borrowed tuple field must give
//! the same bytes (or the same error) as a tree evaluator over the decoded
//! field, and a fused ASSIGN/SELECT run must produce the frames its steps
//! produce one operator at a time.

use algebra::expr::Function;
use dataflow::frame::{frames_from_rows, Frame};
use dataflow::ops::{BoxWriter, FrameWriter, FusedOp};
use dataflow::DataflowError;
use jdm::binary::{to_bytes, ItemRef};
use jdm::{Item, Number};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use vxq_core::program::{Evaluator, Program, Step};
use vxq_core::rtexpr::{apply, keys_or_members, value_step, RtExpr, View};

fn arb_json(depth: u32) -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        (-1000i64..1000).prop_map(Item::int),
        "[a-z]{0,6}".prop_map(Item::str),
    ];
    leaf.prop_recursive(depth, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Item::Array),
            prop::collection::vec(("[a-d]{1,2}", inner), 0..4).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

/// Run `e`'s program over a one-field tuple holding `field`: the result's
/// bytes, or the error.
fn run_program(e: &RtExpr, field: &Item) -> Result<Vec<u8>, DataflowError> {
    let rows = vec![vec![to_bytes(field)]];
    let frames = frames_from_rows(&rows, 64 * 1024);
    let mut ev = Evaluator::new(Arc::new(Program::expr(e)));
    ev.with_value(&frames[0].tuple(0), None, |v| {
        let mut out = Vec::new();
        v.write(&mut out);
        Ok(out)
    })
}

/// Evaluate `value(Field(0), key)` through the full tuple machinery.
fn eval_value_via_tuple(item: &Item, key: &Item) -> Item {
    let e = RtExpr::Call(
        Function::Value,
        vec![RtExpr::Field(0), RtExpr::Const(key.clone())],
    );
    let bytes = run_program(&e, item).expect("value never fails");
    ItemRef::new(&bytes)
        .and_then(|r| r.to_item())
        .expect("decodes")
}

/// The oracle: a recursive tree evaluator over decoded items, built from
/// `rtexpr::apply` alone, so it shares no evaluation machinery with the
/// programs it checks. Arguments evaluate left to right before the call.
fn tree_eval(e: &RtExpr, field0: &Item) -> Result<Item, DataflowError> {
    match e {
        RtExpr::Field(0) => Ok(field0.clone()),
        RtExpr::Field(i) => panic!("one-field tuples only, got field {i}"),
        RtExpr::Const(item) => Ok(item.clone()),
        RtExpr::Canon(inner) => tree_eval(inner, field0).map(canon),
        RtExpr::Call(f, args) => {
            let args = args
                .iter()
                .map(|a| tree_eval(a, field0))
                .collect::<Result<Vec<_>, _>>()?;
            apply(*f, args)
        }
    }
}

/// Key canonicalization over trees: singleton sequences unwrap, doubles
/// holding exact integers narrow.
fn canon(item: Item) -> Item {
    match item {
        Item::Sequence(mut v) if v.len() == 1 => canon(v.pop().expect("one member")),
        Item::Number(n @ Number::Double(_)) => n.as_i64().map_or(item, Item::int),
        other => other,
    }
}

/// `value` over trees, for the oracle side.
fn tree_value_step(item: &Item, key: &Item) -> Item {
    value_step(View::Tree(item), View::Tree(key))
        .and_then(|v| v.into_item())
        .expect("value never fails")
}

fn date(s: &str) -> Item {
    Item::DateTime(jdm::DateTime::parse(s).expect("a valid date"))
}

/// Strings `dateTime()` parses — in every accepted shape, around the
/// December 25, 2003 that Q0 selects — and strings it rejects.
fn arb_date_string() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just("20031225T06:30"),
        Just("20021225T00:00"),
        Just("20031224T23:59"),
        Just("2003-12-25T00:00:00"),
        Just("20032512T00:00"),
        Just("20031332T00:00"),
        Just("2003-12-25"),
        Just("+2003-12-25T00:00"),
    ]
    .prop_map(Item::str)
}

/// Values from a small domain — keys `a`/`b`, short strings over `a`/`b`,
/// small numbers, signed zeros and NaN, date strings and dateTimes — plus
/// sequences (at the top and nested), so value steps hit, comparisons tie,
/// and sequence mapping, flattening and existential comparison are all
/// exercised.
fn arb_value() -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        (-1i64..3).prop_map(Item::int),
        (-1i64..3).prop_map(|i| Item::double(i as f64)),
        Just(Item::double(0.5)),
        prop_oneof![Just(f64::NAN), Just(-0.0)].prop_map(Item::double),
        "[ab]{0,2}".prop_map(Item::str),
        "[ab]{1,2}".prop_map(Item::str),
        arb_date_string(),
        arb_date_string(),
        Just(date("20031225T00:00")),
        Just(Item::empty()),
    ];
    let nested = leaf.clone().prop_recursive(2, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Item::Array),
            prop::collection::vec(("[ab]{1,1}", inner.clone()), 0..4).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
            prop::collection::vec(inner, 0..4).prop_map(Item::Sequence),
        ]
    });
    // Half the inputs are a bare atomic, which comparisons see directly.
    prop_oneof![leaf, nested]
}

/// `0 div 0`: a NaN the program folds into a constant.
fn nan() -> RtExpr {
    RtExpr::Call(
        Function::Div,
        vec![RtExpr::Const(Item::int(0)), RtExpr::Const(Item::int(0))],
    )
}

/// `cmp(a, b)`, or the same comparison with its sides swapped.
fn compare((f, a, b, swap): (Function, RtExpr, RtExpr, bool)) -> RtExpr {
    RtExpr::Call(f, if swap { vec![b, a] } else { vec![a, b] })
}

/// Expressions over one input (`Field(0)`): paths of value steps with
/// present and missing keys and positions, keys-or-members and key
/// canonicalization; comparisons of paths against literals of every type
/// (on either side, NaN included) and against each other; date parts of
/// `dateTime(path)` against literals; boolean connectives and counts over
/// them.
fn arb_expr() -> impl Strategy<Value = RtExpr> {
    arb_expr_of(true)
}

/// [`arb_expr`] without `dateTime()`: expressions that never fail.
fn arb_total_expr() -> impl Strategy<Value = RtExpr> {
    arb_expr_of(false)
}

fn arb_expr_of(dates: bool) -> impl Strategy<Value = RtExpr> {
    let literal = prop_oneof![
        "[ab]{0,2}".prop_map(Item::str),
        "[ab]{1,1}".prop_map(Item::str),
        (-1i64..4).prop_map(Item::int),
        Just(Item::double(1.0)),
        prop_oneof![Just(0.0), Just(-0.0), Just(0.5)].prop_map(Item::double),
        any::<bool>().prop_map(Item::Boolean),
        Just(Item::Null),
        Just(Item::empty()),
        Just(date("20031225T00:00")),
    ];
    let literal = prop_oneof![
        literal.clone().prop_map(RtExpr::Const),
        literal.prop_map(RtExpr::Const),
        Just(nan()),
    ];
    let key = prop_oneof![
        "[ab]{1,1}".prop_map(Item::str),
        "[ab]{1,1}".prop_map(Item::str),
        (0i64..3).prop_map(Item::int),
    ];
    let step = prop_oneof![
        key.prop_map(Some),
        Just(None), // keys-or-members
    ];
    let path = (prop::collection::vec(step, 0..3), any::<bool>()).prop_map(|(steps, canon)| {
        let e = steps.into_iter().fold(RtExpr::Field(0), |e, s| match s {
            Some(k) => RtExpr::Call(Function::Value, vec![e, RtExpr::Const(k)]),
            None => RtExpr::Call(Function::KeysOrMembers, vec![e]),
        });
        if canon {
            RtExpr::Canon(Box::new(e))
        } else {
            RtExpr::Call(Function::Data, vec![e])
        }
    });
    let cmp = prop_oneof![
        Just(Function::Eq),
        Just(Function::Ne),
        Just(Function::Lt),
        Just(Function::Le),
        Just(Function::Gt),
        Just(Function::Ge),
    ];
    let operand = prop_oneof![path.clone(), literal.clone()];
    // Mostly a path against an operand; sometimes two literals, folded.
    let lhs = prop_oneof![path.clone(), path.clone(), path.clone(), literal];
    let comparison = (cmp.clone(), lhs, operand, any::<bool>()).prop_map(compare);
    // `year/month/day-from-dateTime(dateTime(p))` against a literal near
    // Q0's constants, or `dateTime(p)` against a dateTime, `p` mostly the
    // input itself so the date strings of `arb_value` reach `dateTime()`.
    let date_path = prop_oneof![Just(RtExpr::Field(0)), Just(RtExpr::Field(0)), path.clone()];
    let accessor = prop_oneof![
        Just(Some(Function::YearFromDateTime)),
        Just(Some(Function::MonthFromDateTime)),
        Just(Some(Function::DayFromDateTime)),
        Just(None),
    ];
    let date_literal = prop_oneof![
        prop_oneof![Just(2003), Just(12), Just(25), Just(2002), Just(24)].prop_map(Item::int),
        prop_oneof![Just(2003.0), Just(12.5)].prop_map(Item::double),
        Just(date("20031225T06:30")),
        Just(Item::str("2003")),
    ];
    let date_literal = prop_oneof![
        date_literal.clone().prop_map(RtExpr::Const),
        date_literal.prop_map(RtExpr::Const),
        Just(nan()),
    ];
    let date_comparison = ((cmp, accessor), date_path, date_literal, any::<bool>()).prop_map(
        |((f, accessor), p, lit, swap)| {
            let d = RtExpr::Call(Function::DateTime, vec![p]);
            let lhs = match accessor {
                Some(part) => RtExpr::Call(part, vec![d]),
                None => d,
            };
            compare((f, lhs, lit, swap))
        },
    );
    let comparison = if dates {
        prop_oneof![comparison.clone(), comparison, date_comparison]
    } else {
        comparison.boxed()
    };
    // Connectives nest: `and`/`or` of one to three operands, which may be
    // connectives themselves (programs flatten nested `and`s and `or`s).
    let connective =
        prop_oneof![comparison.clone(), path.clone()].prop_recursive(2, 16, 3, |inner| {
            (
                prop_oneof![Just(Function::And), Just(Function::Or)],
                prop::collection::vec(inner, 1..4),
            )
                .prop_map(|(f, args)| RtExpr::Call(f, args))
        });
    prop_oneof![
        path.clone(),
        comparison.clone(),
        comparison.clone(),
        (comparison.clone(), comparison.clone())
            .prop_map(|(a, b)| RtExpr::Call(Function::And, vec![a, b])),
        (comparison, path.clone()).prop_map(|(a, b)| RtExpr::Call(Function::Or, vec![a, b])),
        connective,
        path.clone()
            .prop_map(|p| RtExpr::Call(Function::Not, vec![p])),
        path.prop_map(|p| RtExpr::Call(Function::Count, vec![p])),
    ]
}

/// `e` with its reads of field 0 redirected to field `to`.
fn reading(e: &RtExpr, to: usize) -> RtExpr {
    match e {
        RtExpr::Field(0) => RtExpr::Field(to),
        RtExpr::Call(f, args) => RtExpr::Call(*f, args.iter().map(|a| reading(a, to)).collect()),
        RtExpr::Canon(inner) => RtExpr::Canon(Box::new(reading(inner, to))),
        other => other.clone(),
    }
}

/// A frame as received: its size and its tuples' bytes.
type LoggedFrame = (usize, Vec<Vec<u8>>);

/// Records every frame it receives, tuple bytes and all.
#[derive(Clone, Default)]
struct FrameLog(Arc<Mutex<Vec<LoggedFrame>>>);

impl FrameWriter for FrameLog {
    fn open(&mut self) -> dataflow::Result<()> {
        Ok(())
    }
    fn next_frame(&mut self, frame: &Frame) -> dataflow::Result<()> {
        let tuples = frame.tuples().map(|t| t.bytes().to_vec()).collect();
        self.0.lock().unwrap().push((frame.size(), tuples));
        Ok(())
    }
    fn close(&mut self) -> dataflow::Result<()> {
        Ok(())
    }
}

/// Push `rows` through a chain of fused operators, one per group of
/// `steps`: the frames that come out, or the first error.
fn run_chain(rows: &[Vec<Item>], groups: &[&[Step<'_>]]) -> Result<Vec<LoggedFrame>, String> {
    const FRAME: usize = 512;
    let log = FrameLog::default();
    let mut op: BoxWriter = Box::new(log.clone());
    for steps in groups.iter().rev() {
        let program = Arc::new(Program::run(steps));
        op = Box::new(FusedOp::new(
            program.name(),
            Box::new(Evaluator::new(program)),
            FRAME,
            op,
        ));
    }
    let encoded: Vec<Vec<Vec<u8>>> = rows
        .iter()
        .map(|r| r.iter().map(to_bytes).collect())
        .collect();
    let mut run = || -> dataflow::Result<()> {
        op.open()?;
        for f in frames_from_rows(&encoded, FRAME) {
            op.next_frame(&f)?;
        }
        op.close()
    };
    run().map_err(|e| e.to_string())?;
    let frames = log.0.lock().unwrap().clone();
    Ok(frames)
}

/// Field 1 of a fused-run row: dates `dateTime()` parses, and values it
/// rejects (a malformed string, a number) or maps to the empty sequence.
fn arb_date_field() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just(Item::str("20131225T06:30")),
        Just(Item::str("20040101T00:00")),
        Just(Item::str("not-a-date")),
        Just(Item::int(7)),
        Just(Item::empty()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn value_step_through_tuples_matches_tree(item in arb_json(3), key in "[a-d]{1,2}") {
        let via_tuple = eval_value_via_tuple(&item, &Item::str(key.as_str()));
        let direct = tree_value_step(&item, &Item::str(key.as_str()));
        prop_assert_eq!(via_tuple, direct);
    }

    #[test]
    fn index_value_step_matches_tree(item in arb_json(3), idx in -2i64..6) {
        let key = Item::Number(Number::Int(idx));
        let via_tuple = eval_value_via_tuple(&item, &key);
        let direct = tree_value_step(&item, &key);
        prop_assert_eq!(via_tuple, direct);
    }

    #[test]
    fn kom_flattening_matches_manual(items in prop::collection::vec(arb_json(2), 0..5)) {
        let seq = Item::Sequence(items.clone());
        let got = keys_or_members(View::Tree(&seq)).expect("keys-or-members never fails");
        let expected = Item::seq(
            items.iter().map(|it| Item::Sequence(it.keys_or_members().collect())),
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn borrowed_evaluation_matches_decoded_evaluation(item in arb_value(), e in arb_expr()) {
        let borrowed = run_program(&e, &item);
        // Oracle: decode the field, then evaluate the tree over it.
        let decoded = ItemRef::new(&to_bytes(&item)).and_then(|r| r.to_item()).expect("decodes");
        let over_tree = tree_eval(&e, &decoded).map(|v| to_bytes(&v));
        match (borrowed, over_tree) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?}", e),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("{e:?}: program {a:?} vs tree {b:?}"),
        }
    }

    #[test]
    fn fused_run_matches_one_operator_per_step(
        rows in prop::collection::vec((arb_value(), arb_date_field()), 0..40),
        first in arb_total_expr(),
        parse_date in any::<bool>(),
        cond in arb_total_expr(),
        cond_reads_assigned in any::<bool>(),
        second in arb_total_expr(),
        second_reads_assigned in any::<bool>(),
    ) {
        // Input tuples are (value, date field); the run is assign → select
        // → assign, adding fields 2 and 3. The first assign either computes
        // over field 0 or parses field 1, failing on some rows; the later
        // steps read field 0 or the first assign's field 2, and never fail
        // (when tuples fail in different steps the fused run reports the
        // first failing tuple, separate operators the earliest step).
        let rows: Vec<Vec<Item>> = rows.into_iter().map(|(v, d)| vec![v, d]).collect();
        let first = if parse_date {
            RtExpr::Call(Function::DateTime, vec![RtExpr::Field(1)])
        } else {
            first
        };
        let cond = if cond_reads_assigned { reading(&cond, 2) } else { cond };
        let second = if second_reads_assigned { reading(&second, 2) } else { second };
        let steps = [
            Step::Assign { expr: &first, field: 2 },
            Step::Select(&cond),
            Step::Assign { expr: &second, field: 3 },
        ];
        let fused = run_chain(&rows, &[&steps]);
        let split = run_chain(&rows, &[&steps[..1], &steps[1..2], &steps[2..]]);
        prop_assert_eq!(fused, split);
    }

    #[test]
    fn comparisons_are_antisymmetric(a in arb_json(1), b in arb_json(1)) {
        // eq(a,b) == eq(b,a); lt(a,b) implies gt(b,a) for atomics.
        let eval = |f: Function, x: &Item, y: &Item| -> bool {
            vxq_core::rtexpr::apply(f, vec![x.clone(), y.clone()])
                .expect("comparison never fails")
                .as_bool()
                .expect("comparisons yield booleans")
        };
        prop_assert_eq!(eval(Function::Eq, &a, &b), eval(Function::Eq, &b, &a));
        if !matches!(a, Item::Array(_) | Item::Object(_))
            && !matches!(b, Item::Array(_) | Item::Object(_))
            && eval(Function::Lt, &a, &b)
        {
            prop_assert!(eval(Function::Gt, &b, &a));
        }
    }

    #[test]
    fn count_equals_sequence_length(items in prop::collection::vec(arb_json(1), 0..8)) {
        let seq = Item::Sequence(items.clone());
        let got = vxq_core::rtexpr::apply(Function::Count, vec![seq]).expect("count");
        prop_assert_eq!(got, Item::int(items.len() as i64));
    }
}

/// An assign that fails on a tuple the following select would drop still
/// fails the fused run, as it fails the first of the separate operators.
#[test]
fn fused_run_surfaces_an_assign_error_on_a_dropped_tuple() {
    let rows = vec![
        vec![Item::Boolean(true), Item::str("20131225T06:30")],
        vec![Item::Boolean(false), Item::str("not-a-date")],
        vec![Item::Boolean(true), Item::str("20040101T00:00")],
    ];
    let parse = RtExpr::Call(Function::DateTime, vec![RtExpr::Field(1)]);
    let keep = RtExpr::Field(0);
    let year = RtExpr::Call(Function::YearFromDateTime, vec![RtExpr::Field(2)]);
    let steps = [
        Step::Assign {
            expr: &parse,
            field: 2,
        },
        Step::Select(&keep),
        Step::Assign {
            expr: &year,
            field: 3,
        },
    ];
    let fused = run_chain(&rows, &[&steps]);
    let split = run_chain(&rows, &[&steps[..1], &steps[1..2], &steps[2..]]);
    assert!(fused.is_err(), "the bad date must fail the run: {fused:?}");
    assert_eq!(fused, split);

    // Without the bad row both keep the two selected tuples.
    let good = [rows[0].clone(), rows[2].clone()];
    let fused = run_chain(&good, &[&steps]).expect("runs");
    assert_eq!(fused.iter().map(|(_, t)| t.len()).sum::<usize>(), 2);
    assert_eq!(
        Ok(fused),
        run_chain(&good, &[&steps[..1], &steps[1..2], &steps[2..]])
    );
}

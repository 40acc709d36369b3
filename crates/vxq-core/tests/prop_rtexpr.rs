//! Property tests for the runtime expression layer: navigation over the
//! binary tuple encoding must agree with direct tree-model navigation, and
//! evaluating an expression over a borrowed tuple field must give the same
//! bytes as decoding the field and evaluating over the tree.

use algebra::expr::Function;
use dataflow::frame::frames_from_rows;
use jdm::binary::{to_bytes, ItemRef};
use jdm::{Item, Number};
use proptest::prelude::*;
use vxq_core::rtexpr::{keys_or_members, value_step, RtExpr, View, EXTRA_FIELD};

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

/// Evaluate `value(Field(0), key)` through the full tuple machinery.
fn eval_value_via_tuple(item: &Item, key: &Item) -> Item {
    let rows = vec![vec![to_bytes(item)]];
    let frames = frames_from_rows(&rows, 64 * 1024);
    let t = frames[0].tuple(0);
    let e = RtExpr::Call(
        Function::Value,
        vec![RtExpr::Field(0), RtExpr::Const(key.clone())],
    );
    e.eval(&t)
        .and_then(|v| v.into_item())
        .expect("value never fails")
}

/// `value` over trees, for the oracle side.
fn tree_value_step(item: &Item, key: &Item) -> Item {
    value_step(View::Tree(item), View::Tree(key))
        .and_then(|v| v.into_item())
        .expect("value never fails")
}

/// Values from a small domain — keys `a`/`b`, short strings over `a`/`b`,
/// small numbers — plus sequences (at the top and nested), so value steps
/// hit, comparisons tie, and sequence mapping, flattening and existential
/// comparison are all exercised.
fn arb_value() -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        (-1i64..3).prop_map(Item::int),
        (-1i64..3).prop_map(|i| Item::double(i as f64)),
        Just(Item::double(0.5)),
        "[ab]{0,2}".prop_map(Item::str),
        "[ab]{1,2}".prop_map(Item::str),
        Just(Item::empty()),
    ];
    leaf.prop_recursive(2, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Item::Array),
            prop::collection::vec(("[ab]{1,1}", inner.clone()), 0..4).prop_map(|pairs| {
                Item::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
            prop::collection::vec(inner, 0..4).prop_map(Item::Sequence),
        ]
    })
}

/// Expressions over one input (`Field(0)`): paths of value steps with
/// present and missing keys and positions, keys-or-members and key
/// canonicalization; comparisons of paths against literals of every type
/// and against each other; boolean connectives and counts over them.
fn arb_expr() -> impl Strategy<Value = RtExpr> {
    let literal = prop_oneof![
        "[ab]{0,2}".prop_map(Item::str),
        "[ab]{1,1}".prop_map(Item::str),
        (-1i64..4).prop_map(Item::int),
        Just(Item::double(1.0)),
        any::<bool>().prop_map(Item::Boolean),
        Just(Item::Null),
        Just(Item::empty()),
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
    let operand = prop_oneof![path.clone(), literal.prop_map(RtExpr::Const)];
    let comparison = (cmp, path.clone(), operand).prop_map(|(f, a, b)| RtExpr::Call(f, vec![a, b]));
    prop_oneof![
        path.clone(),
        comparison.clone(),
        (comparison.clone(), comparison.clone())
            .prop_map(|(a, b)| RtExpr::Call(Function::And, vec![a, b])),
        (comparison.clone(), path.clone())
            .prop_map(|(a, b)| RtExpr::Call(Function::Or, vec![a, b])),
        path.clone()
            .prop_map(|p| RtExpr::Call(Function::Not, vec![p])),
        path.prop_map(|p| RtExpr::Call(Function::Count, vec![p])),
    ]
}

/// The same expression reading the subplan's extra item instead of field 0.
fn over_extra(e: &RtExpr) -> RtExpr {
    match e {
        RtExpr::Field(0) => RtExpr::Field(EXTRA_FIELD),
        RtExpr::Call(f, args) => RtExpr::Call(*f, args.iter().map(over_extra).collect()),
        RtExpr::Canon(inner) => RtExpr::Canon(Box::new(over_extra(inner))),
        other => other.clone(),
    }
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
        let rows = vec![vec![to_bytes(&item)]];
        let frames = frames_from_rows(&rows, 64 * 1024);
        let t = frames[0].tuple(0);
        let borrowed = e.eval(&t).map(|v| {
            let mut out = Vec::new();
            v.write(&mut out);
            out
        });
        // Oracle: decode the field, then evaluate over the tree.
        let decoded = ItemRef::new(t.field(0)).and_then(|r| r.to_item()).expect("decodes");
        let e_tree = over_extra(&e);
        let over_tree = e_tree.eval_with(&t, Some(View::Tree(&decoded))).map(|v| {
            let mut out = Vec::new();
            v.write(&mut out);
            out
        });
        match (borrowed, over_tree) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?}", e),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("{e:?}: borrowed {a:?} vs decoded {b:?}"),
        }
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

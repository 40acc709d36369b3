//! Differential property tests for the tape→binary writer: for random JSON
//! text, `StructuralIndex::write_binary` must emit exactly the bytes of
//! encoding the event parser's tree (`to_bytes(&parse_item(..))`), under
//! every available stage-1 kernel and for every value node of the tape.
//! The event parser is the independent oracle: it shares only the string
//! and number routines with the index builder.
//!
//! The generator writes JSON text directly rather than printing `Item`s,
//! so it reaches what a printer never emits: escapes of every kind,
//! surrogate pairs, keys that are duplicates only after unescaping,
//! integers past `i64`, exponent doubles, odd whitespace and deep nesting.

use jdm::binary::to_bytes;
use jdm::index::{StructuralIndex, TapeKind};
use jdm::parse::parse_item;
use jdm::stage1::{available_kernels, Kernel, Stage1Mode};
use proptest::prelude::*;

fn mode_for(kernel: Kernel) -> Stage1Mode {
    match kernel {
        Kernel::Scalar => Stage1Mode::Scalar,
        Kernel::Swar => Stage1Mode::Swar,
        Kernel::Sse2 => Stage1Mode::Sse2,
        Kernel::Avx2 => Stage1Mode::Avx2,
    }
}

/// Check the writer against the oracle on `doc` under every kernel: the
/// root and every other value node (each compared with the tree parsed
/// from that node's span).
fn assert_writer_matches_oracle(doc: &str) {
    let buf = doc.as_bytes();
    let expect = to_bytes(&parse_item(buf).expect("generated JSON parses"));
    for kernel in available_kernels() {
        let index = StructuralIndex::build_with(buf, mode_for(kernel)).expect("index builds");
        let mut got = Vec::new();
        index.write_binary(buf, index.root(), &mut got).unwrap();
        assert_eq!(got, expect, "kernel {} on {doc:?}", kernel.label());
        for node in 1..index.len() {
            if matches!(
                index.tape()[node].kind,
                TapeKind::Key | TapeKind::ObjectClose | TapeKind::ArrayClose
            ) {
                continue;
            }
            let (s, e) = index.span(node);
            got.clear();
            index.write_binary(buf, node, &mut got).unwrap();
            let sub = to_bytes(&parse_item(&buf[s..e]).unwrap());
            assert_eq!(got, sub, "kernel {} node {node} of {doc:?}", kernel.label());
        }
    }
}

/// Whitespace between tokens: none, or a short run of every kind.
fn ws() -> impl Strategy<Value = String> {
    prop_oneof![Just(String::new()), "[ \t\n\r]{1,3}"]
}

/// One piece of string content, already escaped for JSON text.
fn string_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ,:{}]{0,8}",
        // Non-ASCII text with the characters that need escaping escaped.
        "\\PC{0,4}".prop_map(|s| s.replace('\\', "\\\\").replace('"', "\\\"")),
        prop_oneof![
            Just("\\\""),
            Just("\\\\"),
            Just("\\/"),
            Just("\\b"),
            Just("\\f"),
            Just("\\n"),
            Just("\\r"),
            Just("\\t"),
            Just("\\u0000"),
            Just("\\u0041"),
            Just("\\u00e9"),
            Just("\\u20AC"),
            Just("\\uD83D\\uDE00"),
            Just("\\udbff\\udfff"),
            Just("grüße"),
            Just("日本"),
        ]
        .prop_map(String::from),
    ]
}

fn string_lit() -> impl Strategy<Value = String> {
    prop::collection::vec(string_piece(), 0..4).prop_map(|parts| format!("\"{}\"", parts.concat()))
}

/// Keys from a tiny alphabet, sometimes spelled with an escape, so
/// duplicates (also duplicates only after unescaping) are common.
fn key_lit() -> impl Strategy<Value = String> {
    prop_oneof![
        "[abc]{1,1}".prop_map(|k| format!("\"{k}\"")),
        Just("\"\\u0061\"".to_string()),
        Just("\"\"".to_string()),
        Just("\"k\\u00e9y\"".to_string()),
    ]
}

fn number_lit() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<i64>().prop_map(|i| i.to_string()),
        (-9i64..10).prop_map(|i| i.to_string()),
        Just("-0".to_string()),
        // Integers past i64 widen to doubles.
        ("[1-9]{1,1}", "[0-9]{19,24}", any::<bool>())
            .prop_map(|(a, b, neg)| format!("{}{a}{b}", if neg { "-" } else { "" })),
        (
            (-999i64..1000, 0u32..1000),
            ("[eE]{1,1}", "[+-]{0,1}", 0u32..300)
        )
            .prop_map(|((m, f), (e, sign, exp))| format!("{m}.{f}{e}{sign}{exp}")),
        (-99i64..100, 0u32..100_000).prop_map(|(m, f)| format!("{m}.{f:05}")),
    ]
}

fn leaf() -> BoxedStrategy<String> {
    prop_oneof![
        Just("null".to_string()),
        Just("true".to_string()),
        Just("false".to_string()),
        Just("[]".to_string()),
        Just("{}".to_string()),
        number_lit(),
        string_lit(),
    ]
}

fn json_text(depth: u32) -> impl Strategy<Value = String> {
    leaf().prop_recursive(depth, 64, 5, |inner| {
        let member = (ws(), inner.clone(), ws()).prop_map(|(a, v, b)| format!("{a}{v}{b}"));
        let pair = ((ws(), key_lit(), ws()), (ws(), inner))
            .prop_map(|((a, k, b), (c, v))| format!("{a}{k}{b}:{c}{v}"));
        prop_oneof![
            prop::collection::vec(member, 0..5).prop_map(|m| format!("[{}]", m.join(","))),
            prop::collection::vec(pair, 0..5).prop_map(|p| format!("{{{}}}", p.join(","))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn writer_matches_event_parser_oracle(doc in json_text(4), pre in ws(), post in ws()) {
        assert_writer_matches_oracle(&format!("{pre}{doc}{post}"));
    }

    #[test]
    fn writer_handles_deep_nesting(depth in 1usize..400, objects in any::<bool>(), inner in leaf()) {
        let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
        let doc = format!("{}{inner}{}", open.repeat(depth), close.repeat(depth));
        let buf = doc.as_bytes();
        let expect = to_bytes(&parse_item(buf).unwrap());
        for kernel in available_kernels() {
            let index = StructuralIndex::build_with(buf, mode_for(kernel)).unwrap();
            let mut got = Vec::new();
            index.write_binary(buf, index.root(), &mut got).unwrap();
            prop_assert_eq!(&got, &expect, "kernel {}", kernel.label());
        }
    }
}

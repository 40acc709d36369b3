//! Flat evaluation allocates nothing per tuple: the Q0 run — ASSIGN
//! `dateTime(data($r("date")))`, then SELECT on its year, month and day —
//! runs over 10k tuples without a single heap allocation once its register
//! file and output buffer have been sized by a first pass; so do Q1's
//! filter against a string constant and a program too large to keep its
//! registers on the stack.
//!
//! The counting allocator is this test binary's global allocator and counts
//! per thread, so each test sees only its own allocations.

use algebra::expr::Function;
use dataflow::frame::frames_from_rows;
use dataflow::ops::{NewFields, TupleProgram};
use jdm::binary::to_bytes;
use jdm::Item;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vxq_core::program::{Evaluator, Program, Step};
use vxq_core::rtexpr::{RtExpr, View};

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn call(f: Function, args: Vec<RtExpr>) -> RtExpr {
    RtExpr::Call(f, args)
}

#[test]
fn q0_program_allocates_nothing_per_tuple() {
    const TUPLES: usize = 10_000;
    // Q0-shaped measurements; every 50th is dated December 25 in a year
    // the predicate keeps, so the kept-tuple path (writing the assigned
    // dateTime) runs too.
    let rows: Vec<Vec<Vec<u8>>> = (0..TUPLES)
        .map(|i| {
            let date = if i % 50 == 0 {
                format!("{}1225T00:00", 2003 + i % 7)
            } else {
                format!("{}{:02}{:02}T00:00", 1995 + i % 20, 1 + i % 12, 1 + i % 28)
            };
            let record = Item::Object(vec![
                ("date".into(), Item::str(date)),
                ("dataType".into(), Item::str("TMIN")),
                ("station".into(), Item::str(format!("GSW{:06}", i % 40))),
                ("value".into(), Item::int(i as i64 % 300 - 150)),
            ]);
            vec![to_bytes(&record)]
        })
        .collect();
    let frames = frames_from_rows(&rows, 32 * 1024);

    let date = call(
        Function::DateTime,
        vec![call(
            Function::Data,
            vec![call(
                Function::Value,
                vec![RtExpr::Field(0), RtExpr::Const(Item::str("date"))],
            )],
        )],
    );
    let part = |f, lit: i64, cmp| {
        call(
            cmp,
            vec![
                call(f, vec![RtExpr::Field(1)]),
                RtExpr::Const(Item::int(lit)),
            ],
        )
    };
    let predicate = call(
        Function::And,
        vec![
            call(
                Function::And,
                vec![
                    part(Function::YearFromDateTime, 2003, Function::Ge),
                    part(Function::MonthFromDateTime, 12, Function::Eq),
                ],
            ),
            part(Function::DayFromDateTime, 25, Function::Eq),
        ],
    );
    let program = Program::run(&[
        Step::Assign {
            expr: &date,
            field: 1,
        },
        Step::Select(&predicate),
    ]);
    let mut eval = Evaluator::new(Arc::new(program));
    let mut fields = NewFields::default();
    let mut pass = || {
        let mut kept = 0;
        for frame in &frames {
            for t in frame.tuples() {
                fields.clear();
                if TupleProgram::eval(&mut eval, &t, &mut fields).expect("evaluates") {
                    kept += 1;
                }
            }
        }
        kept
    };

    let warm = pass();
    let before = allocations();
    let kept = pass();
    let made = allocations() - before;
    assert_eq!(kept, warm);
    assert_eq!(kept, TUPLES / 50, "every December 25 from 2003 on is kept");
    assert_eq!(made, 0, "{made} allocations over {TUPLES} tuples");
}

#[test]
fn q1_string_filter_allocates_nothing_per_tuple() {
    const TUPLES: usize = 10_000;
    let types = ["TMIN", "TMAX", "PRCP", "TMI", "TMINX"];
    let rows: Vec<Vec<Vec<u8>>> = (0..TUPLES)
        .map(|i| {
            let record = Item::Object(vec![
                ("date".into(), Item::str("20131225T00:00")),
                ("dataType".into(), Item::str(types[i % types.len()])),
                ("station".into(), Item::str(format!("GSW{:06}", i % 40))),
            ]);
            vec![to_bytes(&record)]
        })
        .collect();
    let frames = frames_from_rows(&rows, 32 * 1024);
    // SELECT data($r("dataType")) eq "TMIN"
    let cond = call(
        Function::Eq,
        vec![
            call(
                Function::Data,
                vec![call(
                    Function::Value,
                    vec![RtExpr::Field(0), RtExpr::Const(Item::str("dataType"))],
                )],
            ),
            RtExpr::Const(Item::str("TMIN")),
        ],
    );
    let mut eval = Evaluator::new(Arc::new(Program::run(&[Step::Select(&cond)])));
    let mut fields = NewFields::default();
    let mut pass = || {
        let mut kept = 0;
        for frame in &frames {
            for t in frame.tuples() {
                fields.clear();
                if TupleProgram::eval(&mut eval, &t, &mut fields).expect("evaluates") {
                    kept += 1;
                }
            }
        }
        kept
    };

    let warm = pass();
    let before = allocations();
    let kept = pass();
    let made = allocations() - before;
    assert_eq!(kept, warm);
    assert_eq!(kept, TUPLES / types.len(), "only TMIN is kept");
    assert_eq!(made, 0, "{made} allocations over {TUPLES} tuples");
}

#[test]
fn heap_register_file_is_reused_across_tuples() {
    const TUPLES: usize = 10_000;
    let rows: Vec<Vec<Vec<u8>>> = (0..TUPLES)
        .map(|i| {
            vec![to_bytes(&Item::Object(vec![(
                "n".into(),
                Item::int(i as i64 % 300),
            )]))]
        })
        .collect();
    let frames = frames_from_rows(&rows, 32 * 1024);
    // `$0("n") le 0 or $0("n") le 10 or … le 150`: sixteen comparisons.
    let any = call(
        Function::Or,
        (0..16)
            .map(|i| {
                call(
                    Function::Le,
                    vec![
                        call(
                            Function::Value,
                            vec![RtExpr::Field(0), RtExpr::Const(Item::str("n"))],
                        ),
                        RtExpr::Const(Item::int(i * 10)),
                    ],
                )
            })
            .collect(),
    );
    let program = Program::expr(&any);
    assert!(program.registers_on_heap());
    let mut eval = Evaluator::new(Arc::new(program));
    let mut pass = || {
        let mut kept = 0;
        for frame in &frames {
            for t in frame.tuples() {
                if eval
                    .with_value(&t, None, |v| Ok(matches!(v, View::Bool(true))))
                    .expect("evaluates")
                {
                    kept += 1;
                }
            }
        }
        kept
    };

    let warm = pass();
    let before = allocations();
    let kept = pass();
    let made = allocations() - before;
    assert_eq!(kept, warm);
    assert_eq!(kept, TUPLES / 300 * 151 + 151.min(TUPLES % 300));
    assert_eq!(made, 0, "{made} allocations over {TUPLES} tuples");
}

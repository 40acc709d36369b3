//! Flat evaluation: runtime expressions lowered once, at compile time,
//! into register programs.
//!
//! A [`Program`] is a `Vec` of ops in evaluation order. Each op reads its
//! operands — earlier registers or program constants — and, unless it is
//! a guard, writes one new register. Registers are `Copy` slots, on the
//! stack for small programs and otherwise in a file an [`Evaluator`]
//! reuses from tuple to tuple; owned values sit in the evaluator's arena.
//! So running a program neither walks a tree nor allocates for scalar
//! work:
//!
//! * each distinct tuple field is read and validated
//!   ([`ItemRef::new`](jdm::binary::ItemRef::new)) once per tuple, at its
//!   first use;
//! * constants are resolved once per program: a call whose arguments are
//!   all constants is folded, identity coercions (`promote`, `data`,
//!   `treat`, `iterate`) alias their argument, a `value` step's
//!   constant key is resolved once, and a comparison with an atomic
//!   constant is one typed op with the constant unboxed;
//! * scalars sit unboxed in registers ([`View`]); only constructed
//!   sequences, arrays and objects are owned [`Item`]s.
//!
//! A run of consecutive ASSIGN and SELECT steps of a stage chain compiles
//! into one program ([`Program::run`]): an assigned value stays in its
//! register for the later steps, a select becomes a guard that drops the
//! tuple unless its predicate is the boolean `true` item, and
//! the assigned registers are the program's outputs, written only for the
//! tuples every guard keeps. Every argument is evaluated, in the tree's
//! left-to-right order, before its function applies — `and`/`or`
//! included — so results, error kinds and error messages are those of the
//! expression tree.

use crate::rtexpr::{
    arity_error, call1, call2, canonicalize, compare, compare_const, connective, ebv, flipped,
    number_or_err, select, value_step, Atom, RtExpr, Selector, Val, View, EXTRA_FIELD,
};
use algebra::expr::{AggFunc, Function};
use dataflow::ops::{NewFields, ScalarEvaluator, TupleProgram};
use dataflow::{DataflowError, Result, TupleRef};
use jdm::binary::ItemRef;
use jdm::{Item, Number};
use std::sync::Arc;

/// An operand: a register or a program constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Reg(u32),
    Const(u32),
}

/// One instruction.
#[derive(Debug, Clone)]
enum Op {
    /// Read and validate tuple field `i`.
    Field(usize),
    /// The subplan's per-member item ([`EXTRA_FIELD`]).
    Extra,
    /// `value` with a constant key.
    Select(Src, Selector<Box<str>>),
    /// `value` with a computed key.
    Value(Src, Src),
    Compare(Function, Src, Src),
    /// A comparison with an atomic constant: `cmp(func(arg), constant)`,
    /// or `cmp(arg, constant)` without `func`, with no register for
    /// `func(arg)`. A constant on the left is lowered to the right with
    /// the comparison flipped.
    CompareConst {
        cmp: Function,
        func: Option<Function>,
        arg: Src,
        constant: Atom,
    },
    /// `and` / `or` over every argument.
    Connective(Function, Box<[Src]>),
    /// Any other function of one argument.
    Call1(Function, Src),
    /// Any other function of two arguments.
    Call2(Function, Src, Src),
    Canon(Src),
    /// A call with the wrong number of arguments: fails when reached,
    /// before evaluating any argument.
    Fail(Function),
    /// SELECT: drop the tuple unless the operand is the boolean `true`.
    Guard(Src),
    /// SELECT on a conjunction: drop the tuple unless every operand's
    /// effective boolean value is true — exactly when the `and` of them
    /// is the boolean `true`.
    GuardAll(Box<[Src]>),
    /// SUBPLAN: fold `func` over `body` evaluated once per member of `seq`
    /// (each member is the body's [`EXTRA_FIELD`]).
    Subplan {
        func: AggFunc,
        seq: Src,
        body: Box<Program>,
    },
}

/// A lowered expression or run of steps. Immutable and shared by the
/// tasks of a stage; each task runs it through its own [`Evaluator`].
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    consts: Vec<Item>,
    outputs: Vec<Src>,
    /// Registers written: one per value op.
    regs: usize,
    name: &'static str,
}

/// One step of a fused run.
#[derive(Debug, Clone, Copy)]
pub enum Step<'e> {
    /// Add `expr`'s value to the tuple as field `field` (the tuple's
    /// width when the step runs).
    Assign { expr: &'e RtExpr, field: usize },
    /// Keep the tuple only when `cond` is the boolean `true`.
    Select(&'e RtExpr),
}

/// Lowering state.
#[derive(Default)]
struct Builder {
    ops: Vec<Op>,
    consts: Vec<Item>,
    regs: u32,
    /// Field index → where its value is (tuple reads, and the fields
    /// assigned earlier in the run).
    fields: Vec<(usize, Src)>,
}

impl Builder {
    fn push(&mut self, op: Op) -> Src {
        self.ops.push(op);
        self.regs += 1;
        Src::Reg(self.regs - 1)
    }

    fn constant(&mut self, item: Item) -> Src {
        self.consts.push(item);
        Src::Const(self.consts.len() as u32 - 1)
    }

    fn field(&mut self, i: usize) -> Src {
        if let Some(&(_, src)) = self.fields.iter().find(|(f, _)| *f == i) {
            return src;
        }
        let src = self.push(if i == EXTRA_FIELD {
            Op::Extra
        } else {
            Op::Field(i)
        });
        self.fields.push((i, src));
        src
    }

    fn const_item(&self, s: Src) -> Option<&Item> {
        match s {
            Src::Const(i) => Some(&self.consts[i as usize]),
            Src::Reg(_) => None,
        }
    }

    /// Emit `op`, or fold it into a constant when every operand is one and
    /// it evaluates without error (an error stays an op, raised per tuple
    /// as the tree would).
    fn op(&mut self, op: Op, f: Function, args: &[Src]) -> Src {
        let folded = args
            .iter()
            .map(|&a| self.const_item(a).cloned())
            .collect::<Option<Vec<Item>>>()
            .and_then(|items| crate::rtexpr::apply(f, items).ok());
        match folded {
            Some(item) => self.constant(item),
            None => self.push(op),
        }
    }

    fn lower(&mut self, e: &RtExpr) -> Src {
        use Function::*;
        match e {
            RtExpr::Field(i) => self.field(*i),
            RtExpr::Const(item) => self.constant(item.clone()),
            RtExpr::Canon(inner) => {
                let a = self.lower(inner);
                let folded = self
                    .const_item(a)
                    .and_then(|c| canonicalize(View::Tree(c)).into_item().ok());
                match folded {
                    Some(c) => self.constant(c),
                    None => self.push(Op::Canon(a)),
                }
            }
            RtExpr::Call(f @ (And | Or), _) => {
                let args = self.lower_operands(*f, e);
                self.op(Op::Connective(*f, args.clone().into()), *f, &args)
            }
            RtExpr::Call(f @ (Eq | Ne | Ge | Le | Gt | Lt), args) if args.len() == 2 => {
                self.lower_compare(*f, &args[0], &args[1])
            }
            RtExpr::Call(f, args) => match args.as_slice() {
                [a] => {
                    let a = self.lower(a);
                    match f {
                        Promote | Data | TreatItem | Iterate => a,
                        _ => self.op(Op::Call1(*f, a), *f, &[a]),
                    }
                }
                [a, b] => {
                    let a = self.lower(a);
                    let b = self.lower(b);
                    let op = match (f, self.const_item(b)) {
                        (Value, Some(key)) => Op::Select(a, owned_selector(key)),
                        (Value, None) => Op::Value(a, b),
                        _ => Op::Call2(*f, a, b),
                    };
                    self.op(op, *f, &[a, b])
                }
                _ => self.push(Op::Fail(*f)),
            },
        }
    }

    /// `cmp(a, b)`. When one side folds to an atomic constant and the
    /// other does not, this is one [`Op::CompareConst`] over the other
    /// side, which also absorbs that side's function of one argument. The
    /// constant side has no ops, so the order of evaluation is the tree's.
    fn lower_compare(&mut self, cmp: Function, a: &RtExpr, b: &RtExpr) -> Src {
        use Function::*;
        let typed = match (folded(a), folded(b)) {
            (None, Some(c)) => Atom::of(&c).map(|c| (cmp, a, c)),
            (Some(c), None) => Atom::of(&c).map(|c| (flipped(cmp), b, c)),
            _ => None,
        };
        let Some((cmp, other, constant)) = typed else {
            let a = self.lower(a);
            let b = self.lower(b);
            return self.op(Op::Compare(cmp, a, b), cmp, &[a, b]);
        };
        let (func, arg) = match other {
            RtExpr::Call(f, inner)
                if inner.len() == 1
                    && !matches!(f, Promote | Data | TreatItem | Iterate | And | Or) =>
            {
                (Some(*f), self.lower(&inner[0]))
            }
            other => (None, self.lower(other)),
        };
        self.push(Op::CompareConst {
            cmp,
            func,
            arg,
            constant,
        })
    }

    /// The operands of connective `f` at `e`, with nested applications
    /// of `f` flattened: `and(and(a, b), c)` is `and(a, b, c)` (the inner
    /// result is a boolean, its own effective boolean value), evaluating
    /// `a`, `b`, `c` in the same order.
    fn lower_operands(&mut self, f: Function, e: &RtExpr) -> Vec<Src> {
        let mut out = Vec::new();
        let mut pending = vec![e];
        while let Some(e) = pending.pop() {
            match e {
                RtExpr::Call(g, args) if *g == f => pending.extend(args.iter().rev()),
                other => out.push(self.lower(other)),
            }
        }
        out
    }

    fn finish(self, outputs: Vec<Src>, name: &'static str) -> Program {
        Program {
            ops: self.ops,
            consts: self.consts,
            outputs,
            regs: self.regs as usize,
            name,
        }
    }
}

/// The constant `e` folds to; `None` when it reads a field, or when
/// evaluating it fails (it then stays ops that fail per tuple).
fn folded(e: &RtExpr) -> Option<Item> {
    fn reads_field(e: &RtExpr) -> bool {
        match e {
            RtExpr::Field(_) => true,
            RtExpr::Const(_) => false,
            RtExpr::Call(_, args) => args.iter().any(reads_field),
            RtExpr::Canon(inner) => reads_field(inner),
        }
    }
    if reads_field(e) {
        return None;
    }
    let mut b = Builder::default();
    match b.lower(e) {
        Src::Const(i) => Some(b.consts.swap_remove(i as usize)),
        Src::Reg(_) => None,
    }
}

/// A `value` step's constant key, resolved.
fn owned_selector(key: &Item) -> Selector<Box<str>> {
    match Selector::of(View::Tree(key)) {
        Selector::Key(k) => Selector::Key(k.into()),
        Selector::Pos(p) => Selector::Pos(p),
        Selector::Nothing => Selector::Nothing,
    }
}

impl Program {
    /// One expression; its value is the only output.
    pub fn expr(e: &RtExpr) -> Program {
        let mut b = Builder::default();
        let out = b.lower(e);
        b.finish(vec![out], "EXPR")
    }

    /// A fused run of ASSIGN/SELECT steps: its outputs are the assigned
    /// values, in step order.
    pub fn run(steps: &[Step<'_>]) -> Program {
        let mut b = Builder::default();
        let mut outputs = Vec::new();
        for step in steps {
            match *step {
                Step::Assign { expr, field } => {
                    let value = b.lower(expr);
                    b.fields.push((field, value));
                    outputs.push(value);
                }
                Step::Select(cond @ RtExpr::Call(Function::And, _)) => {
                    let all = b.lower_operands(Function::And, cond);
                    b.ops.push(Op::GuardAll(all.into()));
                }
                Step::Select(cond) => {
                    let keep = b.lower(cond);
                    b.ops.push(Op::Guard(keep));
                }
            }
        }
        let assigns = !outputs.is_empty();
        let selects = outputs.len() < steps.len();
        let name = match (assigns, selects, steps.first()) {
            (true, true, Some(Step::Select(_))) => "SELECT+ASSIGN",
            (true, true, _) => "ASSIGN+SELECT",
            (false, _, _) => "SELECT",
            (true, false, _) => "ASSIGN",
        };
        b.finish(outputs, name)
    }

    /// A compiled SUBPLAN: fold `func` over `arg` evaluated once per item
    /// of `seq`, with the item bound to [`EXTRA_FIELD`].
    pub fn subplan(func: AggFunc, seq: &RtExpr, arg: &RtExpr) -> Program {
        let mut b = Builder::default();
        let seq = b.lower(seq);
        let out = b.push(Op::Subplan {
            func,
            seq,
            body: Box::new(Program::expr(arg)),
        });
        b.finish(vec![out], "SUBPLAN")
    }

    /// The operator name of what this program computes (`ASSIGN`,
    /// `SELECT`, `ASSIGN+SELECT`, `SELECT+ASSIGN`, `SUBPLAN`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether a run keeps its register file on the heap: the program has
    /// more registers than fit on the stack.
    pub fn registers_on_heap(&self) -> bool {
        self.regs > STACK_REGS
    }

    /// An operand (constants with their scalars unboxed).
    #[inline]
    fn view<'r>(&'r self, regs: Regs<'r, '_>, s: Src) -> View<'r> {
        match s {
            Src::Reg(i) => match regs.slots[i as usize] {
                Slot::View(v) => v,
                Slot::Owned(k) => View::Tree(&regs.owned[k as usize]),
            },
            Src::Const(i) => View::Tree(&self.consts[i as usize]).atom(),
        }
    }

    /// An operand whose result may be borrowed by the op's result: shared
    /// data (tuple, plan) outlives the registers, an owned register does
    /// not.
    #[inline]
    fn input<'r, 'a>(&'a self, regs: Regs<'r, 'a>, s: Src) -> Input<'r, 'a> {
        match s {
            Src::Reg(i) => match regs.slots[i as usize] {
                Slot::View(v) => Input::Shared(v),
                Slot::Owned(k) => Input::Local(&regs.owned[k as usize]),
            },
            Src::Const(i) => Input::Shared(View::Tree(&self.consts[i as usize])),
        }
    }

    /// Run every op over `tuple`, writing value op `k`'s result to
    /// `slots[k]` (owned values go to `owned`). `false` when a guard
    /// dropped the tuple.
    fn exec<'a>(
        &'a self,
        slots: &mut [Slot<'a>],
        owned: &mut Vec<Item>,
        tuple: &TupleRef<'a>,
        extra: Option<View<'a>>,
        body_buffers: &mut Option<Box<Buffers>>,
    ) -> Result<bool> {
        let mut k = 0;
        for op in &self.ops {
            let regs = Regs {
                slots: &slots[..k],
                owned,
            };
            let val = match op {
                Op::Field(i) => Val::Borrowed(View::Ref(
                    ItemRef::new(tuple.field(*i))
                        .map_err(|e| DataflowError::Eval(format!("bad field {i}: {e}")))?,
                )),
                Op::Extra => Val::Borrowed(
                    extra.ok_or_else(|| DataflowError::Eval("extra field unbound".into()))?,
                ),
                Op::Select(base, sel) => match self.input(regs, *base) {
                    Input::Shared(v) => select(v, sel)?,
                    // The selected part cannot outlive its owner: copy it out.
                    Input::Local(item) => select(View::Tree(item), sel)?.into_owned()?,
                },
                Op::Value(base, key) => {
                    let key = self.view(regs, *key);
                    match self.input(regs, *base) {
                        Input::Shared(v) => value_step(v, key)?,
                        Input::Local(item) => value_step(View::Tree(item), key)?.into_owned()?,
                    }
                }
                Op::Compare(f, a, b) => Val::Borrowed(View::Bool(compare(
                    *f,
                    self.view(regs, *a),
                    self.view(regs, *b),
                ))),
                Op::CompareConst {
                    cmp,
                    func,
                    arg,
                    constant,
                } => Val::Borrowed(View::Bool(compare_const(
                    *cmp,
                    *func,
                    self.view(regs, *arg),
                    constant,
                )?)),
                Op::Connective(f, args) => Val::Borrowed(View::Bool(connective(
                    *f,
                    args.iter().map(|a| self.view(regs, *a)),
                ))),
                Op::Call1(f, a) => call1(*f, self.view(regs, *a))?,
                Op::Call2(f, a, b) => call2(*f, self.view(regs, *a), self.view(regs, *b))?,
                Op::Canon(a) => match self.input(regs, *a) {
                    Input::Shared(v) => canonicalize(v),
                    Input::Local(item) => canonicalize(View::Tree(item)).into_owned()?,
                },
                Op::Fail(f) => return arity_error(*f),
                Op::Guard(a) => {
                    if !self.view(regs, *a).is_true() {
                        return Ok(false);
                    }
                    continue;
                }
                Op::GuardAll(args) => {
                    if !args.iter().all(|a| ebv(self.view(regs, *a))) {
                        return Ok(false);
                    }
                    continue;
                }
                Op::Subplan { func, seq, body } => {
                    let mut fold = SubplanFold::new(*func);
                    let buffers = body_buffers.get_or_insert_with(Default::default);
                    for member in self.view(regs, *seq).iter_sequence() {
                        body.run_in(buffers, tuple, Some(member), |out| match out {
                            Some(out) => fold.add(out.view(0)),
                            None => Ok(()),
                        })?;
                    }
                    Val::from_item(fold.finish()?)
                }
            };
            slots[k] = match val {
                Val::Borrowed(v) => Slot::View(v),
                Val::Owned(item) => {
                    owned.push(item);
                    Slot::Owned(owned.len() as u32 - 1)
                }
            };
            k += 1;
        }
        Ok(true)
    }

    /// Run over `tuple` in a register file from `buffers` — on the stack
    /// when the program is small — then `f` of the outputs (`None` when a
    /// guard dropped the tuple).
    fn run_in<'a, R>(
        &'a self,
        buffers: &mut Buffers,
        tuple: &TupleRef<'a>,
        extra: Option<View<'a>>,
        f: impl FnOnce(Option<Outputs<'_>>) -> Result<R>,
    ) -> Result<R> {
        let Buffers { heap, owned, body } = buffers;
        owned.clear();
        let finish = |slots: &mut [Slot<'a>]| {
            let kept = self.exec(slots, owned, tuple, extra, body)?;
            f(kept.then_some(Outputs {
                program: self,
                regs: Regs { slots, owned },
            }))
        };
        if !self.registers_on_heap() {
            finish(&mut [Slot::View(View::Null); STACK_REGS])
        } else {
            // Reuse the heap file's buffer for this run's lifetime: it is
            // emptied first, so no register crosses runs, and collecting an
            // emptied `Vec` into one of the same layout keeps its buffer.
            let mut slots: Vec<Slot<'a>> = std::mem::take(heap)
                .into_iter()
                .map(|_| unreachable!("emptied"))
                .collect();
            slots.resize(self.regs, Slot::View(View::Null));
            let out = finish(&mut slots);
            slots.clear();
            *heap = slots.into_iter().map(|_| unreachable!("emptied")).collect();
            out
        }
    }
}

/// An operand, seen by an op whose result may borrow from it.
enum Input<'r, 'a> {
    /// Data that outlives the register file.
    Shared(View<'a>),
    /// An owned register.
    Local(&'r Item),
}

/// Programs with at most this many registers keep them on the stack.
const STACK_REGS: usize = 8;

/// One register: `Copy`, so a register file needs no clearing. An owned
/// value lives in the file's `owned` arena.
#[derive(Debug, Clone, Copy)]
enum Slot<'a> {
    View(View<'a>),
    Owned(u32),
}

/// The registers written so far, and the owned values they index.
#[derive(Clone, Copy)]
struct Regs<'r, 'a> {
    slots: &'r [Slot<'a>],
    owned: &'r [Item],
}

/// What running a program keeps between tuples: the register file of a
/// program too large for the stack, the owned-value arena, and the same
/// for a SUBPLAN's body.
#[derive(Debug, Default)]
struct Buffers {
    heap: Vec<Slot<'static>>,
    owned: Vec<Item>,
    body: Option<Box<Buffers>>,
}

/// The fold of a compiled SUBPLAN's aggregate.
struct SubplanFold {
    func: AggFunc,
    count: i64,
    sum: Number,
    n: i64,
    best: Option<Item>,
    items: Vec<Item>,
}

impl SubplanFold {
    fn new(func: AggFunc) -> Self {
        SubplanFold {
            func,
            count: 0,
            sum: Number::Int(0),
            n: 0,
            best: None,
            items: Vec::new(),
        }
    }

    fn add(&mut self, v: View<'_>) -> Result<()> {
        for it in v.iter_sequence() {
            self.count += 1;
            match self.func {
                AggFunc::Sum | AggFunc::Avg => {
                    self.sum = self.sum.add(number_or_err(it, "aggregate")?);
                    self.n += 1;
                }
                AggFunc::Min | AggFunc::Max => {
                    let it = it.to_item()?;
                    let better = match &self.best {
                        None => true,
                        Some(b) => {
                            let ord = it.total_cmp(b);
                            (self.func == AggFunc::Min && ord.is_lt())
                                || (self.func == AggFunc::Max && ord.is_gt())
                        }
                    };
                    if better {
                        self.best = Some(it);
                    }
                }
                AggFunc::Sequence => self.items.push(it.to_item()?),
                _ => {}
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Item> {
        Ok(match self.func {
            AggFunc::Count => Item::int(self.count),
            AggFunc::Sum => Item::Number(self.sum),
            AggFunc::Avg => {
                if self.n == 0 {
                    Item::empty()
                } else {
                    Item::Number(self.sum.div(Number::Int(self.n)))
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or_else(Item::empty),
            AggFunc::Sequence => Item::Sequence(self.items),
            other => {
                return Err(DataflowError::Eval(format!(
                    "unsupported subplan aggregate {}",
                    other.name()
                )))
            }
        })
    }
}

/// Runs a shared [`Program`] with its own register buffers.
#[derive(Debug)]
pub struct Evaluator {
    program: Arc<Program>,
    buffers: Buffers,
}

/// The outputs of a program run that kept its tuple.
pub struct Outputs<'r> {
    program: &'r Program,
    regs: Regs<'r, 'r>,
}

impl<'r> Outputs<'r> {
    /// Number of outputs.
    pub(crate) fn len(&self) -> usize {
        self.program.outputs.len()
    }

    /// Output `i`.
    pub fn view(&self, i: usize) -> View<'r> {
        self.program.view(self.regs, self.program.outputs[i])
    }
}

impl Evaluator {
    pub fn new(program: Arc<Program>) -> Self {
        Evaluator {
            program,
            buffers: Buffers::default(),
        }
    }

    /// Run over `tuple`, with `extra` bound to [`EXTRA_FIELD`]: `None` when
    /// a guard dropped the tuple, otherwise `f` of the outputs.
    pub fn run<R>(
        &mut self,
        tuple: &TupleRef<'_>,
        extra: Option<View<'_>>,
        f: impl FnOnce(Outputs<'_>) -> Result<R>,
    ) -> Result<Option<R>> {
        self.program.run_in(&mut self.buffers, tuple, extra, |out| {
            out.map(f).transpose()
        })
    }

    /// Evaluate an expression program: `f` of its value.
    pub fn with_value<R>(
        &mut self,
        tuple: &TupleRef<'_>,
        extra: Option<View<'_>>,
        f: impl FnOnce(View<'_>) -> Result<R>,
    ) -> Result<R> {
        self.run(tuple, extra, |out| f(out.view(0)))?
            .ok_or_else(|| DataflowError::Eval("expression program has a guard".into()))
    }
}

/// A fused ASSIGN/SELECT run: outputs become the new fields.
impl TupleProgram for Evaluator {
    fn eval(&mut self, tuple: &TupleRef<'_>, fields: &mut NewFields) -> Result<bool> {
        let kept = self.run(tuple, None, |out| {
            for i in 0..out.len() {
                fields.push(|buf| out.view(i).write(buf));
            }
            Ok(())
        })?;
        Ok(kept.is_some())
    }
}

/// An expression program as a sort key.
impl ScalarEvaluator for Evaluator {
    fn eval(&mut self, tuple: &TupleRef<'_>, out: &mut Vec<u8>) -> Result<()> {
        self.with_value(tuple, None, |v| {
            v.write(out);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::{LogicalExpr, LogicalOp, RuleConfig, RuleSet, VarId};
    use dataflow::frame::frames_from_rows;
    use jdm::binary::to_bytes;

    /// Run `program` over one tuple of `fields`: the outputs' items, or
    /// `None` when a guard dropped the tuple.
    fn run(program: Program, fields: &[Item]) -> Option<Vec<Item>> {
        let rows = vec![fields.iter().map(to_bytes).collect()];
        let frames = frames_from_rows(&rows, 64 * 1024);
        let mut ev = Evaluator::new(Arc::new(program));
        ev.run(&frames[0].tuple(0), None, |out| {
            (0..out.len()).map(|i| out.view(i).to_item()).collect()
        })
        .unwrap()
    }

    fn call(f: Function, args: Vec<RtExpr>) -> RtExpr {
        RtExpr::Call(f, args)
    }

    fn key(field: usize, k: &str) -> RtExpr {
        call(
            Function::Value,
            vec![RtExpr::Field(field), RtExpr::Const(Item::str(k))],
        )
    }

    #[test]
    fn fields_are_read_once_and_constants_fold() {
        // `$0("a") + (2 * 3)` twice: one field read, the product folded.
        let six = call(
            Function::Mul,
            vec![RtExpr::Const(Item::int(2)), RtExpr::Const(Item::int(3))],
        );
        let sum = call(Function::Add, vec![key(0, "a"), six]);
        let both = call(Function::Eq, vec![sum.clone(), sum]);
        let program = Program::expr(&both);
        let fields = program
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Field(_)))
            .count();
        assert_eq!(fields, 1, "{:?}", program.ops);
        // The two additions remain; the product is a constant.
        let calls = program
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Call2(Function::Add, ..)))
            .count();
        assert_eq!(calls, 2, "{:?}", program.ops);
        assert!(program.consts.contains(&Item::int(6)));
        let obj = Item::Object(vec![("a".into(), Item::int(1))]);
        assert_eq!(run(program, &[obj]), Some(vec![Item::Boolean(true)]));
    }

    #[test]
    fn equal_constants_of_different_types_stay_apart() {
        // ASSIGN $1 := $0 + 1; $2 := $0 + 1.0; $3 := 1; $4 := 1.0;
        // $5 := 0.0; $6 := -0.0; $7 := 1 * 1.0 (folded) — numerically
        // equal constants, distinct encodings.
        let plus = |lit| call(Function::Add, vec![RtExpr::Field(0), RtExpr::Const(lit)]);
        let exprs = [
            plus(Item::int(1)),
            plus(Item::double(1.0)),
            RtExpr::Const(Item::int(1)),
            RtExpr::Const(Item::double(1.0)),
            RtExpr::Const(Item::double(0.0)),
            RtExpr::Const(Item::double(-0.0)),
            call(
                Function::Mul,
                vec![
                    RtExpr::Const(Item::int(1)),
                    RtExpr::Const(Item::double(1.0)),
                ],
            ),
        ];
        let steps: Vec<Step> = exprs
            .iter()
            .enumerate()
            .map(|(i, expr)| Step::Assign { expr, field: i + 1 })
            .collect();
        let got = run(Program::run(&steps), &[Item::int(2)]).unwrap();
        let want = [
            Item::int(3),
            Item::double(3.0),
            Item::int(1),
            Item::double(1.0),
            Item::double(0.0),
            Item::double(-0.0),
            Item::double(1.0),
        ];
        // `Item`'s equality compares numbers by value; compare encodings.
        let bytes = |items: &[Item]| items.iter().map(to_bytes).collect::<Vec<_>>();
        assert_eq!(bytes(&got), bytes(&want), "{got:?}");
    }

    #[test]
    fn a_run_reads_assigned_fields_from_registers_and_guards() {
        // ASSIGN $1 := $0("n"); SELECT $1 ge 2; ASSIGN $2 := $1 + 1
        let n = key(0, "n");
        let keep = call(
            Function::Ge,
            vec![RtExpr::Field(1), RtExpr::Const(Item::int(2))],
        );
        let next = call(
            Function::Add,
            vec![RtExpr::Field(1), RtExpr::Const(Item::int(1))],
        );
        let steps = [
            Step::Assign { expr: &n, field: 1 },
            Step::Select(&keep),
            Step::Assign {
                expr: &next,
                field: 2,
            },
        ];
        let obj = |v| Item::Object(vec![("n".into(), Item::int(v))]);
        assert_eq!(Program::run(&steps).name(), "ASSIGN+SELECT");
        assert_eq!(
            run(Program::run(&steps), &[obj(5)]),
            Some(vec![Item::int(5), Item::int(6)])
        );
        assert_eq!(run(Program::run(&steps), &[obj(1)]), None);
    }

    #[test]
    fn a_guard_keeps_only_the_boolean_true_item() {
        for (value, kept) in [
            (Item::Boolean(true), true),
            (Item::Boolean(false), false),
            (Item::seq([Item::Boolean(true), Item::Boolean(true)]), false),
            (Item::empty(), false),
            (Item::Null, false),
            (Item::int(1), false),
        ] {
            let cond = RtExpr::Field(0);
            let program = Program::run(&[Step::Select(&cond)]);
            assert_eq!(
                run(program, std::slice::from_ref(&value)).is_some(),
                kept,
                "{value:?}"
            );
        }
        // On a conjunction the guard reads each operand's effective
        // boolean value, as `and` does.
        let cond = call(Function::And, vec![RtExpr::Field(0), RtExpr::Field(1)]);
        let program = || Program::run(&[Step::Select(&cond)]);
        assert!(program().ops.iter().any(|op| matches!(op, Op::GuardAll(_))));
        let truthy = Item::Array(vec![]);
        assert!(run(program(), &[Item::Boolean(true), truthy]).is_some());
        assert!(run(program(), &[Item::Boolean(true), Item::empty()]).is_none());
    }

    #[test]
    fn large_programs_keep_registers_on_the_heap() {
        // Sixteen comparisons: more registers than fit on the stack.
        let cmps = (0..16)
            .map(|i| {
                call(
                    Function::Le,
                    vec![key(0, "n"), RtExpr::Const(Item::int(i * 10))],
                )
            })
            .collect();
        let any = call(Function::Or, cmps);
        let program = Arc::new(Program::expr(&any));
        assert!(program.registers_on_heap());
        let rows: Vec<Vec<Vec<u8>>> = [5, 500, 155]
            .iter()
            .map(|&n| vec![to_bytes(&Item::Object(vec![("n".into(), Item::int(n))]))])
            .collect();
        let frames = frames_from_rows(&rows, 64 * 1024);
        let mut ev = Evaluator::new(program);
        let got: Vec<bool> = frames[0]
            .tuples()
            .map(|t| ev.with_value(&t, None, |v| Ok(v.is_true())).unwrap())
            .collect();
        assert_eq!(got, [true, false, false]);
    }

    /// `query`'s optimized SELECT condition, each variable read as the
    /// tuple field numbered by its first appearance.
    fn select_condition(query: &str, rules: RuleConfig) -> RtExpr {
        fn lower(e: &LogicalExpr, vars: &mut Vec<VarId>) -> RtExpr {
            match e {
                LogicalExpr::Var(v) => RtExpr::Field(match vars.iter().position(|x| x == v) {
                    Some(i) => i,
                    None => {
                        vars.push(*v);
                        vars.len() - 1
                    }
                }),
                LogicalExpr::Const(item) => RtExpr::Const(item.clone()),
                LogicalExpr::Call(f, args) => {
                    RtExpr::Call(*f, args.iter().map(|a| lower(a, vars)).collect())
                }
            }
        }
        let mut plan = jsoniq::compile(query).expect("compiles");
        RuleSet::for_config(rules).optimize(&mut plan);
        let mut cond = None;
        plan.root.visit(&mut |op| {
            if let LogicalOp::Select { cond: c, .. } = op {
                assert!(cond.replace(c.clone()).is_none(), "one select");
            }
        });
        lower(&cond.expect("a select"), &mut Vec::new())
    }

    #[test]
    fn q0_guards_are_three_typed_date_comparisons() {
        use crate::queries::{Q0, Q0B};
        let date = |s| Item::DateTime(jdm::DateTime::parse(s).unwrap());
        for (query, rules) in [
            (Q0, RuleConfig::all()),
            (Q0B, RuleConfig::all()),
            (Q0, RuleConfig::none()),
        ] {
            let cond = select_condition(query, rules);
            let program = Program::run(&[Step::Select(&cond)]);
            let typed = program
                .ops
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        Op::CompareConst {
                            func: Some(
                                Function::YearFromDateTime
                                    | Function::MonthFromDateTime
                                    | Function::DayFromDateTime
                            ),
                            constant: Atom::Num(Number::Int(_)),
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(typed, 3, "{:?}", program.ops);
            assert!(
                program.ops.iter().all(|op| matches!(
                    op,
                    Op::Field(_) | Op::CompareConst { .. } | Op::GuardAll(_)
                )),
                "{:?}",
                program.ops
            );
            let kept = |d| run(program.clone(), &[date(d)]).is_some();
            assert!(kept("20031225T00:00"));
            assert!(!kept("20021225T00:00"));
            assert!(!kept("20031224T00:00"));
            assert!(!kept("20031125T00:00"));
        }
    }

    #[test]
    fn a_constant_on_the_left_flips_the_comparison() {
        // `2003 le year-from-dateTime($0)` is `year-from-dateTime($0) ge 2003`.
        let year = call(Function::YearFromDateTime, vec![RtExpr::Field(0)]);
        let e = call(Function::Le, vec![RtExpr::Const(Item::int(2003)), year]);
        let program = Program::expr(&e);
        assert!(
            matches!(
                program.ops.as_slice(),
                [
                    Op::Field(0),
                    Op::CompareConst {
                        cmp: Function::Ge,
                        func: Some(Function::YearFromDateTime),
                        arg: Src::Reg(0),
                        constant: Atom::Num(Number::Int(2003)),
                    }
                ]
            ),
            "{:?}",
            program.ops
        );
        for (d, want) in [("20021231T23:59", false), ("20030101T00:00", true)] {
            let d = Item::DateTime(jdm::DateTime::parse(d).unwrap());
            assert_eq!(run(program.clone(), &[d]), Some(vec![Item::Boolean(want)]));
        }
    }

    #[test]
    fn non_atomic_constants_keep_the_general_comparison() {
        for (constant, field, eq) in [
            (Item::empty(), Item::empty(), false),
            (Item::Array(vec![Item::int(1)]), Item::int(1), false),
            (Item::seq([Item::int(1), Item::int(2)]), Item::int(2), true),
        ] {
            let e = call(
                Function::Eq,
                vec![RtExpr::Field(0), RtExpr::Const(constant.clone())],
            );
            let program = Program::expr(&e);
            assert!(
                matches!(program.ops.as_slice(), [Op::Field(0), Op::Compare(..)]),
                "{:?}",
                program.ops
            );
            assert_eq!(
                run(program, &[field]),
                Some(vec![Item::Boolean(eq)]),
                "{constant:?}"
            );
        }
    }

    #[test]
    fn subplan_folds_its_body_over_each_member() {
        let members = Item::seq((1..=4).map(|v| Item::Object(vec![("v".into(), Item::int(v))])));
        let body = key(EXTRA_FIELD, "v");
        for (func, expected) in [
            (AggFunc::Count, Item::int(4)),
            (AggFunc::Sum, Item::int(10)),
            (AggFunc::Max, Item::int(4)),
            (AggFunc::Avg, Item::double(2.5)),
        ] {
            let program = Program::subplan(func, &RtExpr::Field(0), &body);
            assert_eq!(program.name(), "SUBPLAN");
            assert_eq!(
                run(program, std::slice::from_ref(&members)),
                Some(vec![expected]),
                "{func:?}"
            );
        }
        let program = Program::subplan(AggFunc::Sum, &RtExpr::Field(0), &body);
        assert_eq!(run(program, &[Item::empty()]), Some(vec![Item::int(0)]));
    }
}

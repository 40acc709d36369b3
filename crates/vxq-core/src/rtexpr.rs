//! Runtime expressions: logical expressions with variables resolved to
//! tuple field indices, and the JSONiq semantics of every function they
//! call.
//!
//! An [`RtExpr`] is never walked at run time: [`crate::program`] lowers it
//! once into a flat register program. This module holds what the program
//! computes with — values and the functions over them.
//!
//! A value is a [`Val`]: a borrowed [`View`] or an owned tree. Scalars
//! (null, booleans, numbers, dateTimes, borrowed strings) are views held
//! unboxed. A field read is a view of the tuple's bytes ([`View::Ref`]), a
//! literal a view of the plan's tree ([`View::Tree`]), and `value` over an
//! object or array returns a view of the selected part. Only values the
//! evaluator constructs as containers — sequences, `keys-or-members`
//! results, copies out of other owned values — become [`Val::Owned`]
//! trees. A serialized view's bytes are copied verbatim into the output
//! tuple; everything else is encoded.
//!
//! JSONiq sequence semantics are implemented faithfully where the paper's
//! queries exercise them:
//!
//! * `value` and `keys-or-members` **map over sequences** (a path step on
//!   a sequence applies to each item and concatenates);
//! * value comparisons on empty sequences are `false` (a missing key
//!   never matches), comparisons over sequences are existential, and NaN
//!   is unordered (of the six comparisons only `ne` holds);
//! * arithmetic propagates the empty sequence.
//!
//! Data that breaks an operator's typing (a bad `dateTime` string,
//! arithmetic on strings, …) fails with [`DataflowError::Eval`].

use algebra::expr::Function;
use dataflow::{DataflowError, Result};
use jdm::binary::{
    tag, write_bool, write_datetime, write_item, write_number, write_string, ItemRef, MemberIter,
};
use jdm::{DateTime, Item, Number};
use std::cmp::Ordering;

/// Sentinel field index: the "extra" item supplied by subplan evaluation
/// (the per-item variable of a nested UNNEST).
pub const EXTRA_FIELD: usize = usize::MAX;

/// A compiled runtime expression.
#[derive(Debug, Clone)]
pub enum RtExpr {
    /// Read tuple field `i` (or the subplan extra item).
    Field(usize),
    /// Literal.
    Const(Item),
    /// Function application.
    Call(Function, Vec<RtExpr>),
    /// Evaluate and canonicalize for *byte-equality* contexts (group-by
    /// and join keys): exchanges and hash tables compare serialized
    /// bytes, so values that are JSONiq-equal must serialize identically.
    /// Doubles holding exact integers become integers; singleton
    /// sequences unwrap.
    Canon(Box<RtExpr>),
}

/// A borrowed item: an unboxed scalar, an item serialized inside a tuple,
/// or a tree in the plan or in an owned value.
#[derive(Debug, Clone, Copy)]
pub enum View<'a> {
    Null,
    Bool(bool),
    Num(Number),
    DateTime(DateTime),
    Str(&'a str),
    /// A serialized item (a tuple field, or a part of one).
    Ref(ItemRef<'a>),
    /// A tree item (a literal, or a part of an owned value).
    Tree(&'a Item),
}

/// The result of evaluating an expression: one register of a program.
#[derive(Debug, Clone)]
pub enum Val<'a> {
    /// A scalar, or a view of data that outlives the evaluation.
    Borrowed(View<'a>),
    /// A value the evaluator constructed.
    Owned(Item),
}

impl<'a> Val<'a> {
    /// The empty sequence.
    pub fn empty() -> Val<'a> {
        Val::Owned(Item::empty())
    }

    /// A tree item, with its scalars unboxed.
    pub fn from_item(item: Item) -> Val<'a> {
        match item {
            Item::Null => Val::Borrowed(View::Null),
            Item::Boolean(b) => Val::Borrowed(View::Bool(b)),
            Item::Number(n) => Val::Borrowed(View::Num(n)),
            Item::DateTime(d) => Val::Borrowed(View::DateTime(d)),
            other => Val::Owned(other),
        }
    }

    /// Borrow as a view.
    pub fn view(&self) -> View<'_> {
        match self {
            Val::Borrowed(v) => *v,
            Val::Owned(item) => View::Tree(item),
        }
    }

    /// The value as a tree item (decodes a serialized view).
    pub fn into_item(self) -> Result<Item> {
        match self {
            Val::Borrowed(v) => v.to_item(),
            Val::Owned(item) => Ok(item),
        }
    }

    /// The same value, borrowing nothing: used when a result would borrow
    /// from an owned value that does not outlive it.
    pub(crate) fn into_owned(self) -> Result<Val<'static>> {
        Ok(match self {
            Val::Borrowed(View::Null) => Val::Borrowed(View::Null),
            Val::Borrowed(View::Bool(b)) => Val::Borrowed(View::Bool(b)),
            Val::Borrowed(View::Num(n)) => Val::Borrowed(View::Num(n)),
            Val::Borrowed(View::DateTime(d)) => Val::Borrowed(View::DateTime(d)),
            Val::Borrowed(v) => Val::Owned(v.to_item()?),
            Val::Owned(item) => Val::Owned(item),
        })
    }

    /// Append the serialized value to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        self.view().write(out)
    }
}

impl<'a> View<'a> {
    /// Decode into a tree item.
    pub fn to_item(self) -> Result<Item> {
        Ok(match self {
            View::Null => Item::Null,
            View::Bool(b) => Item::Boolean(b),
            View::Num(n) => Item::Number(n),
            View::DateTime(d) => Item::DateTime(d),
            View::Str(s) => Item::str(s),
            View::Ref(r) => r.to_item()?,
            View::Tree(item) => item.clone(),
        })
    }

    /// Append the serialized item to `out`: a serialized view's bytes are
    /// copied verbatim, a scalar is encoded exactly as its tree would be.
    pub fn write(self, out: &mut Vec<u8>) {
        match self {
            View::Null => out.push(tag::NULL),
            View::Bool(b) => write_bool(b, out),
            View::Num(n) => write_number(n, out),
            View::DateTime(d) => write_datetime(d, out),
            View::Str(s) => write_string(s.as_bytes(), out),
            View::Ref(r) => out.extend_from_slice(r.bytes()),
            View::Tree(item) => write_item(item, out),
        }
    }

    /// The members when this is a sequence; `None` for any other item.
    fn sequence_members(self) -> Option<Members<'a>> {
        match self {
            View::Ref(r) if r.tag() == tag::SEQUENCE => Some(Members::Ref(r.members())),
            View::Tree(Item::Sequence(v)) => Some(Members::Tree(v.iter())),
            _ => None,
        }
    }

    /// Iterate as a sequence (a non-sequence item is a singleton).
    pub fn iter_sequence(self) -> Members<'a> {
        self.sequence_members().unwrap_or(Members::One(Some(self)))
    }

    /// Number of items when viewed as a sequence.
    pub fn sequence_len(self) -> usize {
        match self {
            View::Ref(r) if r.tag() == tag::SEQUENCE => r.count().unwrap_or(0),
            View::Tree(item) => item.sequence_len(),
            _ => 1,
        }
    }

    /// True for the empty sequence.
    fn is_empty_sequence(self) -> bool {
        self.sequence_members().is_some() && self.sequence_len() == 0
    }

    /// The scalar this item holds, unboxed; arrays, objects, sequences
    /// (and malformed scalars) stay [`View::Ref`] / [`View::Tree`].
    #[inline(always)]
    pub(crate) fn atom(self) -> View<'a> {
        match self {
            View::Ref(r) => match r.tag() {
                tag::NULL => View::Null,
                tag::TRUE | tag::FALSE => View::Bool(r.tag() == tag::TRUE),
                tag::INT | tag::DOUBLE => r.as_number().map_or(self, View::Num),
                tag::STRING => r.as_str().map_or(self, View::Str),
                tag::DATETIME => r.as_datetime().map_or(self, View::DateTime),
                _ => self,
            },
            View::Tree(item) => match item {
                Item::Null => View::Null,
                Item::Boolean(b) => View::Bool(*b),
                Item::Number(n) => View::Num(*n),
                Item::String(s) => View::Str(s),
                Item::DateTime(d) => View::DateTime(*d),
                Item::Array(_) | Item::Object(_) | Item::Sequence(_) => self,
            },
            scalar => scalar,
        }
    }

    /// True when this is the boolean `true` item (a select keeps a tuple
    /// only then: a sequence holding `true` does not count).
    #[inline]
    pub(crate) fn is_true(self) -> bool {
        matches!(self.atom(), View::Bool(true))
    }

    /// Numeric payload.
    pub fn as_number(self) -> Option<Number> {
        match self.atom() {
            View::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Object member `key` (first occurrence wins).
    pub fn get_key(self, key: &str) -> Option<View<'a>> {
        match self {
            View::Ref(r) => r.get_key(key).map(View::Ref),
            View::Tree(item) => item.get_key(key).map(View::Tree),
            _ => None,
        }
    }

    /// Array member at the 1-based position `pos`.
    fn get_position(self, pos: i64) -> Option<View<'a>> {
        match self {
            View::Ref(r) if r.tag() == tag::ARRAY && pos >= 1 => {
                r.member((pos - 1) as usize).map(View::Ref)
            }
            View::Tree(item) => item.get_position(pos).map(View::Tree),
            _ => None,
        }
    }
}

/// Iterator over the items of a [`View`] seen as a sequence; see
/// [`View::iter_sequence`].
pub enum Members<'a> {
    Ref(MemberIter<'a>),
    Tree(std::slice::Iter<'a, Item>),
    One(Option<View<'a>>),
}

impl<'a> Iterator for Members<'a> {
    type Item = View<'a>;

    fn next(&mut self) -> Option<View<'a>> {
        match self {
            Members::Ref(it) => it.next().map(View::Ref),
            Members::Tree(it) => it.next().map(View::Tree),
            Members::One(v) => v.take(),
        }
    }
}

/// Canonicalize for byte-equality key contexts: unwrap singleton
/// sequences and narrow exact-integer doubles.
pub(crate) fn canonicalize(view: View<'_>) -> Val<'_> {
    if let Some(mut members) = view.sequence_members() {
        if let (Some(one), None) = (members.next(), members.next()) {
            return canonicalize(one);
        }
        return Val::Borrowed(view);
    }
    match view.as_number() {
        Some(n @ Number::Double(_)) => n.as_i64().map_or(Val::Borrowed(view), |i| {
            Val::Borrowed(View::Num(Number::Int(i)))
        }),
        _ => Val::Borrowed(view),
    }
}

/// Apply a function to tree items, for callers holding trees (constant
/// folding, tests); programs apply the same functions to views.
pub fn apply(f: Function, args: Vec<Item>) -> Result<Item> {
    use Function::*;
    let out = match (f, args.as_slice()) {
        (And | Or, args) => boolean(connective(f, args.iter().map(View::Tree))),
        (Promote | Data | TreatItem | Iterate, [_]) => {
            return Ok(args.into_iter().next().expect("one argument"))
        }
        (Value, [a, b]) => value_step(View::Tree(a), View::Tree(b))?.into_owned()?,
        (_, [a]) => call1(f, View::Tree(a))?,
        (_, [a, b]) => call2(f, View::Tree(a), View::Tree(b))?,
        _ => return arity_error(f),
    };
    out.into_item()
}

pub(crate) fn arity_error<T>(f: Function) -> Result<T> {
    Err(DataflowError::Eval(format!(
        "{f:?}: wrong number of arguments"
    )))
}

/// `and` / `or` over evaluated arguments. Every argument was evaluated
/// (no short-circuit), as with every other function.
pub(crate) fn connective<'a>(f: Function, args: impl Iterator<Item = View<'a>>) -> bool {
    let and = f == Function::And;
    let mut acc = and;
    for a in args {
        let b = ebv(a);
        acc = if and { acc && b } else { acc || b };
    }
    acc
}

/// Apply a function of one argument whose result borrows nothing from it
/// (the identity coercions are resolved before a program runs).
#[inline]
pub(crate) fn call1(f: Function, a: View<'_>) -> Result<Val<'static>> {
    use Function::*;
    match f {
        Not => Ok(boolean(!ebv(a))),
        DateTime => datetime(a),
        YearFromDateTime | MonthFromDateTime | DayFromDateTime => date_part(f, a),
        _ => call1_other(f, a),
    }
}

/// [`call1`] for the functions without an inline fast path.
fn call1_other(f: Function, a: View<'_>) -> Result<Val<'static>> {
    use Function::*;
    match f {
        KeysOrMembers => Ok(Val::Owned(keys_or_members(a)?)),
        Count => Ok(Val::Borrowed(View::Num(Number::Int(
            a.sequence_len() as i64
        )))),
        Sum => {
            let mut total = Number::Int(0);
            for it in a.iter_sequence() {
                total = total.add(number_or_err(it, "sum()")?);
            }
            Ok(Val::Borrowed(View::Num(total)))
        }
        Avg => {
            let mut total = Number::Int(0);
            let mut n = 0i64;
            for it in a.iter_sequence() {
                total = total.add(number_or_err(it, "avg()")?);
                n += 1;
            }
            Ok(if n == 0 {
                Val::empty()
            } else {
                Val::Borrowed(View::Num(total.div(Number::Int(n))))
            })
        }
        Min | Max => {
            let mut best: Option<Item> = None;
            for it in a.iter_sequence() {
                let it = it.to_item()?;
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let ord = it.total_cmp(b);
                        (f == Min && ord == Ordering::Less)
                            || (f == Max && ord == Ordering::Greater)
                    }
                };
                if better {
                    best = Some(it);
                }
            }
            Ok(best.map_or_else(Val::empty, Val::from_item))
        }
        Collection | JsonDoc => Err(DataflowError::Eval(
            "collection()/json-doc() must be compiled to a scan, not evaluated".into(),
        )),
        _ => arity_error(f),
    }
}

/// Apply a function of two arguments whose result borrows nothing from
/// them (`value` is [`value_step`]).
pub(crate) fn call2(f: Function, a: View<'_>, b: View<'_>) -> Result<Val<'static>> {
    use Function::*;
    match f {
        Eq | Ne | Ge | Le | Gt | Lt => Ok(boolean(compare(f, a, b))),
        Add | Sub | Mul | Div | IDiv => arith(f, a, b),
        _ => arity_error(f),
    }
}

fn boolean<'a>(b: bool) -> Val<'a> {
    Val::Borrowed(View::Bool(b))
}

/// `dateTime()`: parse a string (or pass a dateTime through).
#[inline]
pub(crate) fn datetime(a: View<'_>) -> Result<Val<'static>> {
    match a.atom() {
        View::Str(s) => jdm::DateTime::parse(s)
            .map(|d| Val::Borrowed(View::DateTime(d)))
            .map_err(|e| DataflowError::Eval(e.to_string())),
        View::DateTime(d) => Ok(Val::Borrowed(View::DateTime(d))),
        _ => datetime_of_any(a),
    }
}

/// [`datetime`] over sequences and wrongly typed items.
#[cold]
fn datetime_of_any(a: View<'_>) -> Result<Val<'static>> {
    let Some(v) = singleton(a) else {
        return Ok(Val::empty());
    };
    match v.atom() {
        View::Str(s) => jdm::DateTime::parse(s)
            .map(|d| Val::Borrowed(View::DateTime(d)))
            .map_err(|e| DataflowError::Eval(e.to_string())),
        View::DateTime(d) => Ok(Val::Borrowed(View::DateTime(d))),
        _ => Err(DataflowError::Eval(format!(
            "dateTime() expects a string, got {}",
            v.to_item()?
        ))),
    }
}

/// `year-from-dateTime` / `month-from-dateTime` / `day-from-dateTime`.
#[inline]
pub(crate) fn date_part(f: Function, a: View<'_>) -> Result<Val<'static>> {
    match a.atom() {
        View::DateTime(d) => Ok(Val::Borrowed(View::Num(Number::Int(part_of(f, d))))),
        _ => date_part_of_any(f, a),
    }
}

/// [`date_part`] over sequences and wrongly typed items.
#[cold]
fn date_part_of_any(f: Function, a: View<'_>) -> Result<Val<'static>> {
    let Some(v) = singleton(a) else {
        return Ok(Val::empty());
    };
    match v.atom() {
        View::DateTime(d) => Ok(Val::Borrowed(View::Num(Number::Int(part_of(f, d))))),
        _ => Err(DataflowError::Eval(format!(
            "dateTime accessor expects a dateTime, got {}",
            v.to_item()?
        ))),
    }
}

fn part_of(f: Function, d: DateTime) -> i64 {
    match f {
        Function::YearFromDateTime => d.year as i64,
        Function::MonthFromDateTime => d.month as i64,
        Function::DayFromDateTime => d.day as i64,
        _ => unreachable!("not a date accessor"),
    }
}

/// The number in `it`, or an evaluation error naming the operator.
pub(crate) fn number_or_err(it: View<'_>, op: &str) -> Result<Number> {
    match it.as_number() {
        Some(n) => Ok(n),
        None => Err(DataflowError::Eval(format!(
            "{op} over non-number {}",
            it.to_item()?
        ))),
    }
}

/// What a `value` step selects, resolved from its key argument.
#[derive(Debug, Clone)]
pub(crate) enum Selector<K> {
    /// An object member.
    Key(K),
    /// A 1-based array position.
    Pos(i64),
    /// Nothing (a key that is neither a string nor an integer).
    Nothing,
}

impl<'a> Selector<&'a str> {
    /// Resolve a `value` step's key argument.
    pub(crate) fn of(key: View<'a>) -> Self {
        match key.atom() {
            View::Str(k) => Selector::Key(k),
            View::Num(n) => n.as_i64().map_or(Selector::Nothing, Selector::Pos),
            _ => Selector::Nothing,
        }
    }
}

/// JSONiq `value` step, mapping over sequences. Over an object or array
/// the result is a view of the selected part.
pub fn value_step<'a>(base: View<'a>, key: View<'_>) -> Result<Val<'a>> {
    select(base, &Selector::of(key))
}

/// [`value_step`] with its key already resolved.
#[inline]
pub(crate) fn select<'a, K: AsRef<str>>(base: View<'a>, sel: &Selector<K>) -> Result<Val<'a>> {
    match base.sequence_members() {
        None => Ok(select_one(base, sel)),
        Some(members) => select_each(members, sel),
    }
}

/// A `value` step mapped over the members of a sequence.
fn select_each<'a, K: AsRef<str>>(members: Members<'a>, sel: &Selector<K>) -> Result<Val<'a>> {
    let mut out = Vec::new();
    for m in members {
        let v = select(m, sel)?;
        if !v.view().is_empty_sequence() {
            out.push(v.into_item()?);
        }
    }
    Ok(Val::Owned(Item::seq(out)))
}

/// A `value` step on one item.
#[inline]
fn select_one<'a, K: AsRef<str>>(base: View<'a>, sel: &Selector<K>) -> Val<'a> {
    let hit = match *sel {
        Selector::Key(ref k) => base.get_key(k.as_ref()),
        Selector::Pos(i) => base.get_position(i),
        Selector::Nothing => None,
    };
    hit.map_or_else(Val::empty, Val::Borrowed)
}

/// JSONiq `keys-or-members`, mapping over sequences.
pub fn keys_or_members(base: View<'_>) -> Result<Item> {
    let mut out = Vec::new();
    for_each_key_or_member(base, &mut |v| {
        out.push(v.into_item()?);
        Ok(())
    })?;
    Ok(Item::Sequence(out))
}

/// Visit the items of `keys-or-members(base)` in order: array members as
/// views, object keys as borrowed strings.
pub(crate) fn for_each_key_or_member<'a>(
    base: View<'a>,
    visit: &mut dyn FnMut(Val<'a>) -> Result<()>,
) -> Result<()> {
    if let Some(members) = base.sequence_members() {
        for m in members {
            for_each_key_or_member(m, visit)?;
        }
        return Ok(());
    }
    match base {
        View::Ref(r) => match r.tag() {
            tag::ARRAY => r
                .members()
                .try_for_each(|m| visit(Val::Borrowed(View::Ref(m)))),
            tag::OBJECT => (0..r.count().unwrap_or(0)).try_for_each(|i| {
                let (k, _) = r
                    .pair(i)
                    .ok_or_else(|| DataflowError::Eval("bad object pair".into()))?;
                visit(Val::Borrowed(View::Str(k)))
            }),
            _ => Ok(()),
        },
        View::Tree(Item::Array(members)) => members
            .iter()
            .try_for_each(|m| visit(Val::Borrowed(View::Tree(m)))),
        View::Tree(Item::Object(pairs)) => pairs
            .iter()
            .try_for_each(|(k, _)| visit(Val::Borrowed(View::Str(k)))),
        _ => Ok(()),
    }
}

/// Effective boolean value (the subset we need: booleans, emptiness).
#[inline]
pub(crate) fn ebv(v: View<'_>) -> bool {
    match v {
        View::Bool(b) => b,
        _ => ebv_of_any(v),
    }
}

fn ebv_of_any(v: View<'_>) -> bool {
    match v.atom() {
        View::Bool(b) => b,
        View::Null => false,
        View::Ref(_) | View::Tree(_) => match v.sequence_members() {
            Some(mut members) => members.next().map(ebv).unwrap_or(false),
            None => true,
        },
        _ => true,
    }
}

/// Unwrap a singleton sequence; `None` for the empty sequence.
fn singleton(v: View<'_>) -> Option<View<'_>> {
    match v.sequence_members() {
        Some(mut members) => match (members.next(), members.next()) {
            (Some(one), None) => singleton(one),
            _ => None,
        },
        None => Some(v),
    }
}

/// Value comparison: atomics compare by type (NaN is unordered: only `ne`
/// holds); empty sequences never match; proper sequences compare
/// existentially (any pair).
#[inline]
pub(crate) fn compare(f: Function, lhs: View<'_>, rhs: View<'_>) -> bool {
    let ord = match (lhs.atom(), rhs.atom()) {
        (View::Num(a), View::Num(b)) => a.partial_num_cmp(b),
        (View::Str(a), View::Str(b)) => Some(a.cmp(b)),
        (View::Bool(a), View::Bool(b)) => Some(a.cmp(&b)),
        (View::DateTime(a), View::DateTime(b)) => Some(a.cmp(&b)),
        (View::Null, View::Null) => Some(Ordering::Equal),
        _ => return compare_mixed(f, lhs, rhs),
    };
    holds(f, ord)
}

/// An atomic constant, unboxed once when a program is built: what a
/// comparison with a constant compares against.
#[derive(Debug, Clone)]
pub(crate) enum Atom {
    Null,
    Bool(bool),
    Num(Number),
    DateTime(DateTime),
    Str(Box<str>),
}

impl Atom {
    /// `item` when it is atomic; `None` for arrays, objects and sequences.
    pub(crate) fn of(item: &Item) -> Option<Atom> {
        Some(match item {
            Item::Null => Atom::Null,
            Item::Boolean(b) => Atom::Bool(*b),
            Item::Number(n) => Atom::Num(*n),
            Item::DateTime(d) => Atom::DateTime(*d),
            Item::String(s) => Atom::Str(s.clone()),
            Item::Array(_) | Item::Object(_) | Item::Sequence(_) => return None,
        })
    }

    fn view(&self) -> View<'_> {
        match self {
            Atom::Null => View::Null,
            Atom::Bool(b) => View::Bool(*b),
            Atom::Num(n) => View::Num(*n),
            Atom::DateTime(d) => View::DateTime(*d),
            Atom::Str(s) => View::Str(s),
        }
    }
}

/// `cmp(func(arg), c)` — `cmp(arg, c)` without `func` — for an atomic
/// constant `c`. A date accessor over a dateTime, and a comparison of an
/// atomic of `c`'s type, run inline; everything else is [`call1`] and
/// [`compare`].
#[inline]
pub(crate) fn compare_const(
    cmp: Function,
    func: Option<Function>,
    arg: View<'_>,
    c: &Atom,
) -> Result<bool> {
    use Function::*;
    let lhs = match (func, arg.atom()) {
        (None, lhs) => lhs,
        (Some(f @ (YearFromDateTime | MonthFromDateTime | DayFromDateTime)), View::DateTime(d)) => {
            View::Num(Number::Int(part_of(f, d)))
        }
        (Some(f), _) => return Ok(compare(cmp, call1(f, arg)?.view(), c.view())),
    };
    let ord = match (lhs, c) {
        (View::Num(a), Atom::Num(b)) => a.partial_num_cmp(*b),
        (View::Str(a), Atom::Str(b)) => Some(a.as_bytes().cmp(b.as_bytes())),
        (View::DateTime(a), Atom::DateTime(b)) => Some(a.cmp(b)),
        (View::Bool(a), Atom::Bool(b)) => Some(a.cmp(b)),
        (View::Null, Atom::Null) => Some(Ordering::Equal),
        _ => return Ok(compare(cmp, lhs, c.view())),
    };
    Ok(holds(cmp, ord))
}

/// The comparison that holds for `b cmp a` exactly when `cmp` holds for
/// `a cmp b`.
pub(crate) fn flipped(cmp: Function) -> Function {
    use Function::*;
    match cmp {
        Lt => Gt,
        Gt => Lt,
        Le => Ge,
        Ge => Le,
        Eq | Ne => cmp,
        _ => unreachable!("not a comparison"),
    }
}

/// [`compare`] when the two sides are not atomics of one type.
fn compare_mixed(f: Function, lhs: View<'_>, rhs: View<'_>) -> bool {
    if let Some(mut ls) = lhs.sequence_members() {
        return ls.any(|l| compare(f, l, rhs));
    }
    if let Some(mut rs) = rhs.sequence_members() {
        return rs.any(|r| compare(f, lhs, r));
    }
    // JSONiq compares strings to numbers etc. as an error; a filter
    // context treats that as non-match.
    f == Function::Ne
}

/// Whether comparison `f` holds for two items ordered `ord`; `None` is
/// unordered (a NaN), for which only `ne` holds.
#[inline]
fn holds(f: Function, ord: Option<Ordering>) -> bool {
    let Some(ord) = ord else {
        return f == Function::Ne;
    };
    match f {
        Function::Eq => ord == Ordering::Equal,
        Function::Ne => ord != Ordering::Equal,
        Function::Lt => ord == Ordering::Less,
        Function::Le => ord != Ordering::Greater,
        Function::Gt => ord == Ordering::Greater,
        Function::Ge => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

fn arith(f: Function, lhs: View<'_>, rhs: View<'_>) -> Result<Val<'static>> {
    let (Some(l), Some(r)) = (singleton(lhs), singleton(rhs)) else {
        return Ok(Val::empty());
    };
    let (Some(a), Some(b)) = (l.as_number(), r.as_number()) else {
        return Err(DataflowError::Eval(format!(
            "arithmetic on non-numbers: {} and {}",
            l.to_item()?,
            r.to_item()?
        )));
    };
    let out = match f {
        Function::Add => a.add(b),
        Function::Sub => a.sub(b),
        Function::Mul => a.mul(b),
        Function::Div => a.div(b),
        Function::IDiv => a
            .idiv(b)
            .ok_or_else(|| DataflowError::Eval("idiv by zero".into()))?,
        _ => unreachable!("not arithmetic"),
    };
    Ok(Val::Borrowed(View::Num(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdm::parse::parse_item;

    fn obj(src: &str) -> Item {
        parse_item(src.as_bytes()).unwrap()
    }

    fn value_step(base: &Item, key: &Item) -> Item {
        super::value_step(View::Tree(base), View::Tree(key))
            .and_then(Val::into_item)
            .unwrap()
    }

    #[test]
    fn value_step_on_objects_arrays_sequences() {
        let o = obj(r#"{"a": 1, "b": [10, 20]}"#);
        assert_eq!(value_step(&o, &Item::str("a")), Item::int(1));
        assert!(value_step(&o, &Item::str("zz")).is_empty_sequence());
        let arr = obj("[10, 20, 30]");
        assert_eq!(value_step(&arr, &Item::int(1)), Item::int(10)); // 1-based
        assert!(value_step(&arr, &Item::int(0)).is_empty_sequence());
        // Sequence mapping: ({"k":1}, {"k":2})("k") = (1, 2)
        let seq = Item::seq([obj(r#"{"k":1}"#), obj(r#"{"k":2}"#), obj(r#"{"x":9}"#)]);
        assert_eq!(
            value_step(&seq, &Item::str("k")),
            Item::seq([Item::int(1), Item::int(2)])
        );
    }

    #[test]
    fn kom_maps_and_flattens() {
        let seq = Item::seq([obj("[1,2]"), obj("[3]")]);
        assert_eq!(
            keys_or_members(View::Tree(&seq)).unwrap(),
            Item::seq([Item::int(1), Item::int(2), Item::int(3)])
        );
    }

    #[test]
    fn comparisons_handle_empty_and_mixed() {
        let t = |f, a: &Item, b: &Item| compare(f, View::Tree(a), View::Tree(b));
        assert!(t(Function::Eq, &Item::str("x"), &Item::str("x")));
        assert!(!t(Function::Eq, &Item::empty(), &Item::str("x")));
        assert!(t(Function::Ne, &Item::str("x"), &Item::int(1))); // mixed types
        assert!(!t(Function::Eq, &Item::str("x"), &Item::int(1)));
        assert!(t(Function::Ge, &Item::int(2003), &Item::int(2003)));
        assert!(t(
            Function::Lt,
            &Item::DateTime(DateTime::parse("20131225T00:00").unwrap()),
            &Item::DateTime(DateTime::parse("20140101T00:00").unwrap())
        ));
        // Existential over sequences.
        let seq = Item::seq([Item::int(1), Item::int(5)]);
        assert!(t(Function::Eq, &seq, &Item::int(5)));
        assert!(!t(Function::Eq, &seq, &Item::int(9)));
    }

    #[test]
    fn scalar_aggregates() {
        let seq = Item::seq([Item::int(2), Item::int(4), Item::int(6)]);
        assert_eq!(
            apply(Function::Count, vec![seq.clone()]).unwrap(),
            Item::int(3)
        );
        assert_eq!(
            apply(Function::Sum, vec![seq.clone()]).unwrap(),
            Item::int(12)
        );
        assert_eq!(
            apply(Function::Avg, vec![seq.clone()]).unwrap(),
            Item::double(4.0)
        );
        assert_eq!(
            apply(Function::Min, vec![seq.clone()]).unwrap(),
            Item::int(2)
        );
        assert_eq!(apply(Function::Max, vec![seq]).unwrap(), Item::int(6));
        assert_eq!(
            apply(Function::Count, vec![Item::empty()]).unwrap(),
            Item::int(0)
        );
        assert!(apply(Function::Avg, vec![Item::empty()])
            .unwrap()
            .is_empty_sequence());
        // count of a non-sequence item is 1 (singleton).
        assert_eq!(
            apply(Function::Count, vec![Item::int(7)]).unwrap(),
            Item::int(1)
        );
    }

    #[test]
    fn datetime_pipeline() {
        let s = Item::str("20131225T06:30");
        let dt = apply(Function::DateTime, vec![s]).unwrap();
        assert_eq!(
            apply(Function::YearFromDateTime, vec![dt.clone()]).unwrap(),
            Item::int(2013)
        );
        assert_eq!(
            apply(Function::MonthFromDateTime, vec![dt.clone()]).unwrap(),
            Item::int(12)
        );
        assert_eq!(
            apply(Function::DayFromDateTime, vec![dt]).unwrap(),
            Item::int(25)
        );
        // Empty propagates.
        assert!(apply(Function::DateTime, vec![Item::empty()])
            .unwrap()
            .is_empty_sequence());
    }

    #[test]
    fn arithmetic_and_div() {
        assert_eq!(
            apply(Function::Sub, vec![Item::int(30), Item::int(4)]).unwrap(),
            Item::int(26)
        );
        assert_eq!(
            apply(Function::Div, vec![Item::int(5), Item::int(2)]).unwrap(),
            Item::double(2.5)
        );
        assert!(apply(Function::Add, vec![Item::empty(), Item::int(1)])
            .unwrap()
            .is_empty_sequence());
        assert!(apply(Function::Add, vec![Item::str("x"), Item::int(1)]).is_err());
    }

    /// Run `e` as a program over one tuple of `fields`: `check` of its
    /// value.
    fn eval_over<R>(e: &RtExpr, fields: &[Item], check: impl FnOnce(View<'_>) -> R) -> R {
        use crate::program::{Evaluator, Program};
        use dataflow::frame::frames_from_rows;
        use jdm::binary::to_bytes;
        let rows = vec![fields.iter().map(to_bytes).collect()];
        let frames = frames_from_rows(&rows, 1024);
        let mut ev = Evaluator::new(std::sync::Arc::new(Program::expr(e)));
        ev.with_value(&frames[0].tuple(0), None, |v| Ok(check(v)))
            .unwrap()
    }

    /// The value of `e` as a program over one tuple of `fields`.
    fn eval_row(e: &RtExpr, fields: &[Item]) -> Item {
        eval_over(e, fields, |v| v.to_item().unwrap())
    }

    #[test]
    fn nan_is_unordered_in_every_comparison() {
        use Function::*;
        let int = |i| RtExpr::Const(Item::int(i));
        let div = |a, b| RtExpr::Call(Div, vec![a, b]);
        // Field 0 holds 0 and field 1 holds 1: `$0 div $0` is a NaN
        // computed per tuple, `0 div 0` a NaN folded at compile time.
        let reg_nan = || div(RtExpr::Field(0), RtExpr::Field(0));
        let reg_one = || RtExpr::Field(1);
        let const_nan = || div(int(0), int(0));
        const OPS: [Function; 6] = [Eq, Ne, Lt, Le, Gt, Ge];
        const UNORDERED: [bool; 6] = [false, true, false, false, false, false];
        let cases = [
            // Register against register.
            (reg_nan(), reg_nan(), UNORDERED),
            (reg_nan(), reg_one(), UNORDERED),
            (reg_one(), reg_nan(), UNORDERED),
            // Register against constant, on either side.
            (reg_nan(), int(1), UNORDERED),
            (int(1), reg_nan(), UNORDERED),
            (reg_one(), const_nan(), UNORDERED),
            (const_nan(), reg_one(), UNORDERED),
            (reg_nan(), const_nan(), UNORDERED),
            // Folded constants.
            (const_nan(), const_nan(), UNORDERED),
            (const_nan(), int(1), UNORDERED),
            // Ordered numbers, for contrast.
            (reg_one(), int(2), [false, true, true, true, false, false]),
            (int(2), reg_one(), [false, true, false, false, true, true]),
            (
                reg_one(),
                RtExpr::Const(Item::double(1.0)),
                [true, false, false, true, false, true],
            ),
        ];
        let row = [Item::int(0), Item::int(1)];
        for (lhs, rhs, want) in cases {
            for (f, want) in OPS.into_iter().zip(want) {
                let e = RtExpr::Call(f, vec![lhs.clone(), rhs.clone()]);
                assert_eq!(eval_row(&e, &row), Item::Boolean(want), "{e:?}");
                // `apply` over the operands' values agrees.
                let args = vec![eval_row(&lhs, &row), eval_row(&rhs, &row)];
                assert_eq!(apply(f, args).unwrap(), Item::Boolean(want), "{e:?}");
            }
        }
    }

    #[test]
    fn field_eval_reads_tuples() {
        let e = RtExpr::Call(
            Function::Value,
            vec![RtExpr::Field(0), RtExpr::Const(Item::str("k"))],
        );
        // The field read and the value step borrow from the tuple.
        eval_over(&e, &[obj(r#"{"k": 42}"#)], |v| {
            assert!(matches!(v, View::Ref(_)), "{v:?}");
            assert_eq!(v.to_item().unwrap(), Item::int(42));
        });
    }

    #[test]
    fn canon_narrows_borrowed_doubles_and_unwraps_singletons() {
        use jdm::binary::to_bytes;
        for (field, canonical) in [
            (Item::double(2.0), Item::int(2)),
            (Item::double(2.5), Item::double(2.5)),
            (Item::seq([Item::double(-3.0)]), Item::int(-3)),
            (Item::seq([Item::str("k")]), Item::str("k")),
            (
                Item::seq([Item::int(1), Item::int(2)]),
                Item::seq([Item::int(1), Item::int(2)]),
            ),
        ] {
            let mut out = Vec::new();
            eval_over(
                &RtExpr::Canon(Box::new(RtExpr::Field(0))),
                std::slice::from_ref(&field),
                |v| v.write(&mut out),
            );
            assert_eq!(out, to_bytes(&canonical), "{field:?}");
        }
    }

    #[test]
    fn data_errors_are_evaluation_errors() {
        for (f, args) in [
            (Function::DateTime, vec![Item::str("not-a-date")]),
            (Function::DateTime, vec![Item::int(3)]),
            (Function::YearFromDateTime, vec![Item::str("x")]),
            (Function::Add, vec![Item::str("x"), Item::int(1)]),
            (Function::IDiv, vec![Item::int(1), Item::int(0)]),
            (Function::Sum, vec![Item::seq([Item::int(1), Item::Null])]),
            (Function::Avg, vec![Item::str("x")]),
        ] {
            match apply(f, args) {
                Err(DataflowError::Eval(msg)) => assert!(!msg.contains("compile"), "{msg}"),
                other => panic!("{f:?}: expected an evaluation error, got {other:?}"),
            }
        }
    }
}

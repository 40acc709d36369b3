//! Runtime expressions: logical expressions with variables resolved to
//! tuple field indices, evaluated over binary tuples.
//!
//! A field read never decodes the field: it is a borrowed [`ItemRef`]
//! view ([`View::Ref`]). A literal is borrowed from the plan
//! ([`View::Tree`]), and `value` over an object or array returns a view
//! of the selected part. Comparisons, `dateTime()`, the date accessors and
//! the effective boolean value read scalars out of views. Only values the
//! evaluator constructs — sequences, arithmetic, casts, aggregates —
//! become [`Val::Owned`] trees. A view's bytes are copied verbatim into
//! the output tuple; only owned results are encoded.
//!
//! JSONiq sequence semantics are implemented faithfully where the paper's
//! queries exercise them:
//!
//! * `value` and `keys-or-members` **map over sequences** (a path step on
//!   a sequence applies to each item and concatenates);
//! * value comparisons on empty sequences are `false` (a missing key
//!   never matches), and comparisons over sequences are existential;
//! * arithmetic propagates the empty sequence.
//!
//! Data that breaks an operator's typing (a bad `dateTime` string,
//! arithmetic on strings, …) fails with [`DataflowError::Eval`].

use algebra::expr::Function;
use dataflow::{DataflowError, Result, TupleRef};
use jdm::binary::{tag, write_item, ItemRef, MemberIter};
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

/// A borrowed item: serialized inside a tuple, or a tree in the plan or in
/// an owned value.
#[derive(Debug, Clone, Copy)]
pub enum View<'a> {
    /// A serialized item (a tuple field, or a part of one).
    Ref(ItemRef<'a>),
    /// A tree item (a literal, or a part of an owned value).
    Tree(&'a Item),
}

/// The result of evaluating an expression.
#[derive(Debug, Clone)]
pub enum Val<'a> {
    /// A view of data that outlives the evaluation.
    Borrowed(View<'a>),
    /// A value the evaluator constructed.
    Owned(Item),
}

impl<'a> Val<'a> {
    /// The empty sequence.
    pub fn empty() -> Val<'a> {
        Val::Owned(Item::empty())
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

    /// Append the serialized value to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        self.view().write(out)
    }
}

/// A scalar read out of either representation.
#[derive(Debug, Clone, Copy)]
enum Atom<'a> {
    Null,
    Bool(bool),
    Num(Number),
    Str(&'a str),
    DateTime(DateTime),
    /// Arrays, objects and sequences.
    Other,
}

impl<'a> View<'a> {
    /// Decode into a tree item.
    pub fn to_item(self) -> Result<Item> {
        match self {
            View::Ref(r) => Ok(r.to_item()?),
            View::Tree(item) => Ok(item.clone()),
        }
    }

    /// Append the serialized item to `out`: a serialized view's bytes are
    /// copied verbatim.
    pub fn write(self, out: &mut Vec<u8>) {
        match self {
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
            View::Ref(_) => 1,
            View::Tree(item) => item.sequence_len(),
        }
    }

    /// True for the empty sequence.
    fn is_empty_sequence(self) -> bool {
        self.sequence_members().is_some() && self.sequence_len() == 0
    }

    #[inline]
    fn atom(self) -> Atom<'a> {
        match self {
            View::Ref(r) => match r.tag() {
                tag::NULL => Atom::Null,
                tag::TRUE | tag::FALSE => Atom::Bool(r.tag() == tag::TRUE),
                tag::INT | tag::DOUBLE => r.as_number().map_or(Atom::Other, Atom::Num),
                tag::STRING => r.as_str().map_or(Atom::Other, Atom::Str),
                tag::DATETIME => r.as_datetime().map_or(Atom::Other, Atom::DateTime),
                _ => Atom::Other,
            },
            View::Tree(item) => match item {
                Item::Null => Atom::Null,
                Item::Boolean(b) => Atom::Bool(*b),
                Item::Number(n) => Atom::Num(*n),
                Item::String(s) => Atom::Str(s),
                Item::DateTime(d) => Atom::DateTime(*d),
                Item::Array(_) | Item::Object(_) | Item::Sequence(_) => Atom::Other,
            },
        }
    }

    /// Numeric payload.
    pub fn as_number(self) -> Option<Number> {
        match self.atom() {
            Atom::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Object member `key` (first occurrence wins).
    pub fn get_key(self, key: &str) -> Option<View<'a>> {
        match self {
            View::Ref(r) => r.get_key(key).map(View::Ref),
            View::Tree(item) => item.get_key(key).map(View::Tree),
        }
    }

    /// Array member at the 1-based position `pos`.
    fn get_position(self, pos: i64) -> Option<View<'a>> {
        match self {
            View::Ref(r) if r.tag() == tag::ARRAY && pos >= 1 => {
                r.member((pos - 1) as usize).map(View::Ref)
            }
            View::Ref(_) => None,
            View::Tree(item) => item.get_position(pos).map(View::Tree),
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

impl RtExpr {
    /// Evaluate over a tuple.
    pub fn eval<'a>(&'a self, tuple: &TupleRef<'a>) -> Result<Val<'a>> {
        self.eval_with(tuple, None)
    }

    /// Evaluate with an optional extra item bound to [`EXTRA_FIELD`].
    pub fn eval_with<'a>(
        &'a self,
        tuple: &TupleRef<'a>,
        extra: Option<View<'a>>,
    ) -> Result<Val<'a>> {
        match self {
            RtExpr::Field(i) => {
                if *i == EXTRA_FIELD {
                    return extra
                        .map(Val::Borrowed)
                        .ok_or_else(|| DataflowError::Eval("extra field unbound".into()));
                }
                let field = ItemRef::new(tuple.field(*i))
                    .map_err(|e| DataflowError::Eval(format!("bad field {i}: {e}")))?;
                Ok(Val::Borrowed(View::Ref(field)))
            }
            RtExpr::Const(item) => Ok(Val::Borrowed(View::Tree(item))),
            RtExpr::Canon(inner) => match inner.eval_with(tuple, extra)? {
                Val::Borrowed(v) => Ok(canonicalize(v)),
                // The canonical form may be a part of its owner: copy it out.
                Val::Owned(item) => Ok(Val::Owned(canonicalize(View::Tree(&item)).into_item()?)),
            },
            // Arguments evaluate left to right, all of them, before the
            // function applies. Applying by arity passes them by value: no
            // heap vector, and the recursion through the expression tree
            // stays in this small frame rather than one shared match over
            // every function.
            RtExpr::Call(f @ (Function::And | Function::Or), args) => {
                connective(*f, args.iter().map(|a| a.eval_with(tuple, extra)))
            }
            RtExpr::Call(f, args) => match args.as_slice() {
                [a] => apply1(*f, a.eval_with(tuple, extra)?),
                [a, b] => {
                    let a = a.eval_with(tuple, extra)?;
                    apply2(*f, a, b.eval_with(tuple, extra)?)
                }
                _ => arity_error(*f),
            },
        }
    }
}

/// Canonicalize for byte-equality key contexts: unwrap singleton
/// sequences and narrow exact-integer doubles.
fn canonicalize(view: View<'_>) -> Val<'_> {
    if let Some(mut members) = view.sequence_members() {
        if let (Some(one), None) = (members.next(), members.next()) {
            return canonicalize(one);
        }
        return Val::Borrowed(view);
    }
    match view.as_number() {
        Some(n @ Number::Double(_)) => n
            .as_i64()
            .map_or(Val::Borrowed(view), |i| Val::Owned(Item::int(i))),
        _ => Val::Borrowed(view),
    }
}

/// Apply a function to tree items (for callers holding trees; the
/// evaluator itself passes views).
pub fn apply(f: Function, args: Vec<Item>) -> Result<Item> {
    let mut args = args.into_iter().map(Val::Owned);
    let out = match (f, args.len()) {
        (Function::And | Function::Or, _) => connective(f, args.map(Ok)),
        (_, 1) => apply1(f, args.next().expect("one argument")),
        (_, 2) => {
            let a = args.next().expect("two arguments");
            apply2(f, a, args.next().expect("two arguments"))
        }
        _ => arity_error(f),
    };
    out?.into_item()
}

fn arity_error<'a>(f: Function) -> Result<Val<'a>> {
    Err(DataflowError::Eval(format!(
        "{f:?}: wrong number of arguments"
    )))
}

/// `and` / `or` over any number of arguments. Every argument is evaluated
/// (no short-circuit), as with every other function.
fn connective<'a>(f: Function, args: impl Iterator<Item = Result<Val<'a>>>) -> Result<Val<'a>> {
    let and = f == Function::And;
    let mut acc = and;
    for a in args {
        let b = ebv(a?.view());
        acc = if and { acc && b } else { acc || b };
    }
    Ok(boolean(acc))
}

/// Apply a function of one argument.
fn apply1(f: Function, a: Val<'_>) -> Result<Val<'_>> {
    use Function::*;
    match f {
        KeysOrMembers => Ok(Val::Owned(keys_or_members(a.view())?)),
        // Coercion scaffolding: identity on our data model (see the path
        // rules — removing these is a pure win, never a semantic change).
        Promote | Data | TreatItem | Iterate => Ok(a),
        Not => Ok(boolean(!ebv(a.view()))),
        DateTime => {
            let Some(v) = singleton(a.view()) else {
                return Ok(Val::empty());
            };
            match v.atom() {
                Atom::Str(s) => jdm::DateTime::parse(s)
                    .map(|d| Val::Owned(Item::DateTime(d)))
                    .map_err(|e| DataflowError::Eval(e.to_string())),
                Atom::DateTime(d) => Ok(Val::Owned(Item::DateTime(d))),
                _ => Err(DataflowError::Eval(format!(
                    "dateTime() expects a string, got {}",
                    v.to_item()?
                ))),
            }
        }
        YearFromDateTime | MonthFromDateTime | DayFromDateTime => {
            let Some(v) = singleton(a.view()) else {
                return Ok(Val::empty());
            };
            match v.atom() {
                Atom::DateTime(d) => Ok(Val::Owned(Item::int(date_part(f, d)))),
                _ => Err(DataflowError::Eval(format!(
                    "dateTime accessor expects a dateTime, got {}",
                    v.to_item()?
                ))),
            }
        }
        Count => Ok(Val::Owned(Item::int(a.view().sequence_len() as i64))),
        Sum => {
            let mut total = Number::Int(0);
            for it in a.view().iter_sequence() {
                total = total.add(number_or_err(it, "sum()")?);
            }
            Ok(Val::Owned(Item::Number(total)))
        }
        Avg => {
            let mut total = Number::Int(0);
            let mut n = 0i64;
            for it in a.view().iter_sequence() {
                total = total.add(number_or_err(it, "avg()")?);
                n += 1;
            }
            Ok(if n == 0 {
                Val::empty()
            } else {
                Val::Owned(Item::Number(total.div(Number::Int(n))))
            })
        }
        Min | Max => {
            let mut best: Option<Item> = None;
            for it in a.view().iter_sequence() {
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
            Ok(best.map_or_else(Val::empty, Val::Owned))
        }
        Collection | JsonDoc => Err(DataflowError::Eval(
            "collection()/json-doc() must be compiled to a scan, not evaluated".into(),
        )),
        _ => arity_error(f),
    }
}

/// Apply a function of two arguments.
fn apply2<'a>(f: Function, a: Val<'a>, b: Val<'a>) -> Result<Val<'a>> {
    use Function::*;
    match f {
        Value => match a {
            Val::Borrowed(base) => value_step(base, b.view()),
            // The selected part cannot outlive its owner: copy it out.
            Val::Owned(item) => Ok(Val::Owned(
                value_step(View::Tree(&item), b.view())?.into_item()?,
            )),
        },
        Eq | Ne | Ge | Le | Gt | Lt => Ok(boolean(compare(f, a.view(), b.view()))),
        Add | Sub | Mul | Div | IDiv => arith(f, a.view(), b.view()),
        _ => arity_error(f),
    }
}

fn boolean<'a>(b: bool) -> Val<'a> {
    Val::Owned(Item::Boolean(b))
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

/// JSONiq `value` step, mapping over sequences. Over an object or array
/// the result is a view of the selected part.
pub fn value_step<'a>(base: View<'a>, key: View<'_>) -> Result<Val<'a>> {
    if let Some(members) = base.sequence_members() {
        let mut out = Vec::new();
        for m in members {
            let v = value_step(m, key)?;
            if !v.view().is_empty_sequence() {
                out.push(v.into_item()?);
            }
        }
        return Ok(Val::Owned(Item::seq(out)));
    }
    let hit = match key.atom() {
        Atom::Str(k) => base.get_key(k),
        Atom::Num(n) => n.as_i64().and_then(|i| base.get_position(i)),
        _ => None,
    };
    Ok(hit.map_or_else(Val::empty, Val::Borrowed))
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
/// views, object keys as owned strings.
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
                visit(Val::Owned(Item::str(k)))
            }),
            _ => Ok(()),
        },
        View::Tree(Item::Array(members)) => members
            .iter()
            .try_for_each(|m| visit(Val::Borrowed(View::Tree(m)))),
        View::Tree(Item::Object(pairs)) => pairs
            .iter()
            .try_for_each(|(k, _)| visit(Val::Owned(Item::String(k.clone())))),
        View::Tree(_) => Ok(()),
    }
}

/// Effective boolean value (the subset we need: booleans, emptiness).
fn ebv(v: View<'_>) -> bool {
    match v.atom() {
        Atom::Bool(b) => b,
        Atom::Null => false,
        Atom::Other => match v.sequence_members() {
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

/// Value comparison: atomics compare by type; empty sequences never
/// match; proper sequences compare existentially (any pair).
fn compare(f: Function, lhs: View<'_>, rhs: View<'_>) -> bool {
    let ord = match (lhs.atom(), rhs.atom()) {
        (Atom::Num(a), Atom::Num(b)) => a.num_cmp(b),
        (Atom::Str(a), Atom::Str(b)) => a.cmp(b),
        (Atom::Bool(a), Atom::Bool(b)) => a.cmp(&b),
        (Atom::DateTime(a), Atom::DateTime(b)) => a.cmp(&b),
        (Atom::Null, Atom::Null) => Ordering::Equal,
        _ => {
            if let Some(mut ls) = lhs.sequence_members() {
                return ls.any(|l| compare(f, l, rhs));
            }
            if let Some(mut rs) = rhs.sequence_members() {
                return rs.any(|r| compare(f, lhs, r));
            }
            // JSONiq compares strings to numbers etc. as an error; a
            // filter context treats that as non-match.
            return f == Function::Ne;
        }
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

fn arith<'a>(f: Function, lhs: View<'_>, rhs: View<'_>) -> Result<Val<'a>> {
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
    Ok(Val::Owned(Item::Number(out)))
}

fn date_part(f: Function, d: DateTime) -> i64 {
    match f {
        Function::YearFromDateTime => d.year as i64,
        Function::MonthFromDateTime => d.month as i64,
        Function::DayFromDateTime => d.day as i64,
        _ => unreachable!("not a date accessor"),
    }
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

    #[test]
    fn field_eval_reads_tuples() {
        use dataflow::frame::frames_from_rows;
        use jdm::binary::to_bytes;
        let rows = vec![vec![to_bytes(&obj(r#"{"k": 42}"#))]];
        let frames = frames_from_rows(&rows, 1024);
        let t = frames[0].tuple(0);
        let e = RtExpr::Call(
            Function::Value,
            vec![RtExpr::Field(0), RtExpr::Const(Item::str("k"))],
        );
        // The field read and the value step borrow from the tuple.
        let v = e.eval(&t).unwrap();
        assert!(matches!(v, Val::Borrowed(View::Ref(_))), "{v:?}");
        assert_eq!(v.into_item().unwrap(), Item::int(42));
    }

    #[test]
    fn canon_narrows_borrowed_doubles_and_unwraps_singletons() {
        use dataflow::frame::frames_from_rows;
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
            let rows = vec![vec![to_bytes(&field)]];
            let frames = frames_from_rows(&rows, 1024);
            let t = frames[0].tuple(0);
            let mut out = Vec::new();
            RtExpr::Canon(Box::new(RtExpr::Field(0)))
                .eval(&t)
                .unwrap()
                .write(&mut out);
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

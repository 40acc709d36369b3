//! JSON numbers with a total order.
//!
//! JSON does not distinguish integers from doubles, but query processing
//! wants exact integer arithmetic for counts and indexes, so [`Number`]
//! keeps the two representations separate and widens only when necessary —
//! the same behaviour as VXQuery's `xs:integer`/`xs:double` promotion.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A JSON number: either an exact 64-bit integer or an IEEE double.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Exact integer.
    Int(i64),
    /// IEEE-754 double. NaN is not constructible from JSON text, only by
    /// arithmetic (`0 div 0`): value comparisons treat it as unordered
    /// ([`Number::partial_num_cmp`]), the total order sorts it last.
    Double(f64),
}

impl Number {
    /// The value as a double, widening integers.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Double(d) => d,
        }
    }

    /// The value as an integer if it is exactly representable.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Double(d) if d.fract() == 0.0 && d.abs() < 9.007_199_254_740_992e15 => {
                Some(d as i64)
            }
            Number::Double(_) => None,
        }
    }

    /// True if the two numbers compare equal under numeric promotion
    /// (`1 eq 1.0` is true in JSONiq).
    #[inline]
    pub fn num_eq(self, other: Number) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }

    /// Numeric comparison under promotion, as value comparisons see it
    /// (XQuery's `op:numeric-*`): `None` when either side is NaN, which is
    /// unordered.
    #[inline]
    pub fn partial_num_cmp(self, other: Number) -> Option<Ordering> {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => Some(a.cmp(&b)),
            _ => self.as_f64().partial_cmp(&other.as_f64()),
        }
    }

    /// Numeric comparison under promotion, a total order for sorting and
    /// `min`/`max`: NaN equals NaN and sorts after everything else.
    #[inline]
    pub fn num_cmp(self, other: Number) -> Ordering {
        self.partial_num_cmp(other)
            .unwrap_or_else(|| self.as_f64().is_nan().cmp(&other.as_f64().is_nan()))
    }

    /// Addition with integer-exactness preserved when both sides are ints
    /// and the sum does not overflow. (Named after the XQuery operator;
    /// intentionally not the `std::ops` trait — these can fail/widen.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Number) -> Number {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => match a.checked_add(b) {
                Some(s) => Number::Int(s),
                None => Number::Double(a as f64 + b as f64),
            },
            _ => Number::Double(self.as_f64() + other.as_f64()),
        }
    }

    /// Subtraction (same promotion policy as [`Number::add`]).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Number) -> Number {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => match a.checked_sub(b) {
                Some(s) => Number::Int(s),
                None => Number::Double(a as f64 - b as f64),
            },
            _ => Number::Double(self.as_f64() - other.as_f64()),
        }
    }

    /// Multiplication (same promotion policy as [`Number::add`]).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Number) -> Number {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => match a.checked_mul(b) {
                Some(s) => Number::Int(s),
                None => Number::Double(a as f64 * b as f64),
            },
            _ => Number::Double(self.as_f64() * other.as_f64()),
        }
    }

    /// XQuery `div`: always a double (per spec, `div` on integers yields a
    /// decimal; we approximate decimals with doubles).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Number) -> Number {
        Number::Double(self.as_f64() / other.as_f64())
    }

    /// XQuery `idiv`: integer division, truncating toward zero.
    pub fn idiv(self, other: Number) -> Option<Number> {
        match (self.as_i64(), other.as_i64()) {
            (Some(_), Some(0)) => None,
            (Some(a), Some(b)) => Some(Number::Int(a / b)),
            _ => {
                let q = self.as_f64() / other.as_f64();
                if q.is_finite() {
                    Some(Number::Int(q.trunc() as i64))
                } else {
                    None
                }
            }
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        self.num_cmp(*other) == Ordering::Equal
    }
}
impl Eq for Number {}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Number {
    fn cmp(&self, other: &Self) -> Ordering {
        self.num_cmp(*other)
    }
}

impl Hash for Number {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Numbers that compare equal must hash equal: hash the double bits
        // of the canonical value, mapping -0.0 to +0.0, and integers that
        // fit exactly through the integer path.
        match self.as_i64() {
            Some(i) => {
                state.write_u8(0);
                state.write_i64(i);
            }
            None => {
                let d = self.as_f64();
                let d = if d == 0.0 { 0.0 } else { d };
                state.write_u8(1);
                state.write_u64(d.to_bits());
            }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    // Keep a trailing ".0" marker off — JSON output of 2.0
                    // as "2" is valid JSON and matches most serializers'
                    // shortest-round-trip behaviour closely enough.
                    write!(f, "{d}")
                } else {
                    write!(f, "{d}")
                }
            }
        }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}
impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number::Double(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(n: Number) -> u64 {
        let mut h = DefaultHasher::new();
        n.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_double_equality_promotes() {
        assert_eq!(Number::Int(1), Number::Double(1.0));
        assert_ne!(Number::Int(1), Number::Double(1.5));
    }

    #[test]
    fn equal_numbers_hash_equal() {
        assert_eq!(hash_of(Number::Int(42)), hash_of(Number::Double(42.0)));
        assert_eq!(hash_of(Number::Double(0.0)), hash_of(Number::Double(-0.0)));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Number::Double(2.5),
            Number::Int(3),
            Number::Int(-1),
            Number::Double(f64::NAN),
            Number::Double(0.0),
        ];
        v.sort();
        assert_eq!(v[0], Number::Int(-1));
        assert_eq!(v[1], Number::Double(0.0));
        assert_eq!(v[2], Number::Double(2.5));
        assert_eq!(v[3], Number::Int(3));
        assert!(v[4].as_f64().is_nan());
    }

    #[test]
    fn nan_is_unordered_for_value_comparisons() {
        let nan = Number::Double(f64::NAN);
        assert_eq!(nan.partial_num_cmp(nan), None);
        assert_eq!(nan.partial_num_cmp(Number::Int(1)), None);
        assert_eq!(Number::Double(1.0).partial_num_cmp(nan), None);
        assert_eq!(
            Number::Int(1).partial_num_cmp(Number::Double(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Number::Double(-0.0).partial_num_cmp(Number::Int(0)),
            Some(Ordering::Equal)
        );
        // The total order still places NaN, equal to itself, last.
        assert_eq!(nan.num_cmp(nan), Ordering::Equal);
        assert_eq!(nan.num_cmp(Number::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(Number::Double(f64::INFINITY).num_cmp(nan), Ordering::Less);
    }

    #[test]
    fn arithmetic_preserves_ints() {
        assert_eq!(Number::Int(2).add(Number::Int(3)), Number::Int(5));
        assert_eq!(Number::Int(2).mul(Number::Int(3)), Number::Int(6));
        assert_eq!(Number::Int(7).sub(Number::Int(9)), Number::Int(-2));
        match Number::Int(1).div(Number::Int(2)) {
            Number::Double(d) => assert_eq!(d, 0.5),
            _ => panic!("div must produce a double"),
        }
    }

    #[test]
    fn overflow_widens_to_double() {
        let big = Number::Int(i64::MAX);
        match big.add(Number::Int(1)) {
            Number::Double(d) => assert!(d >= i64::MAX as f64),
            Number::Int(_) => panic!("expected widening"),
        }
    }

    #[test]
    fn idiv_truncates_and_rejects_zero() {
        assert_eq!(Number::Int(7).idiv(Number::Int(2)), Some(Number::Int(3)));
        assert_eq!(Number::Int(-7).idiv(Number::Int(2)), Some(Number::Int(-3)));
        assert_eq!(Number::Int(7).idiv(Number::Int(0)), None);
    }

    #[test]
    fn as_i64_rejects_fractions() {
        assert_eq!(Number::Double(2.0).as_i64(), Some(2));
        assert_eq!(Number::Double(2.5).as_i64(), None);
        assert_eq!(Number::Double(1e300).as_i64(), None);
    }
}

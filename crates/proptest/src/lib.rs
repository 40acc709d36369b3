//! Vendored, dependency-free subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so this crate implements
//! exactly the surface the workspace's property tests use: the `proptest!`
//! macro, `Strategy` with `prop_map`/`prop_recursive`/`boxed`, `Just`,
//! `any`, `prop_oneof!`, `prop::collection::vec`, `prop::num::f64::NORMAL`,
//! simple regex-class string strategies (`"[a-z]{1,6}"`, `"\\PC{0,8}"`),
//! integer range strategies, tuple strategies, and
//! `ProptestConfig::with_cases`.
//!
//! Semantics: each test runs `cases` iterations with values drawn from a
//! deterministic per-test RNG (seeded from the test name), so failures are
//! reproducible run-to-run. The `PROPTEST_SEED` environment variable — a
//! number, or `random` for a fresh one per process — is mixed into every
//! per-test seed, so a CI leg can explore new cases; a failing case prints
//! the seed to replay it with. Unlike real proptest there is no shrinking —
//! on failure the offending inputs are printed verbatim.

use std::ops::Range;
use std::rc::Rc;
use std::sync::OnceLock;

/// The run seed from `PROPTEST_SEED`: 0 (the default, also when unset)
/// keeps each test's name-derived stream; any other value is mixed into
/// every per-test seed. `random` draws a seed per process.
pub fn run_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| match std::env::var("PROPTEST_SEED") {
        Err(_) => 0,
        Ok(v) if v.trim().is_empty() => 0,
        Ok(v) if v.trim() == "random" => random_seed(),
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a number or `random`, got {v:?}")),
    })
}

/// A non-zero seed from the clock and the process's hash randomness.
fn random_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    h.write_u128(now);
    h.write_u32(std::process::id());
    h.finish().max(1)
}

/// Deterministic generator: SplitMix64.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name so every test has its own reproducible stream,
    /// mixed with the [`run_seed`].
    pub fn for_test(name: &str) -> Self {
        Self::for_test_with(name, run_seed())
    }

    /// Seed from a test name and a run seed (0 leaves the name's stream).
    pub fn for_test_with(name: &str, run_seed: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if run_seed != 0 {
            h ^= TestRng { state: run_seed }.next_u64();
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift rejection-free mapping is fine for test data.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A generator of values of one type.
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        U: 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        BoxedStrategy::new(move |rng| f(self.new_value(rng)))
    }

    /// Depth-bounded recursion: at each level pick either the leaf (`self`)
    /// or one level of `recurse` applied to the previous strategy.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let mut strat = self.clone().boxed();
        for _ in 0..depth.max(1) {
            let leaf = self.clone().boxed();
            let deeper = recurse(strat).boxed();
            strat = BoxedStrategy::new(move |rng| {
                // Bias toward containers so recursion is exercised, but keep
                // bare leaves reachable at every level.
                if rng.below(4) == 0 {
                    leaf.new_value(rng)
                } else {
                    deeper.new_value(rng)
                }
            });
        }
        strat
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy::new(move |rng| self.new_value(rng))
    }
}

/// Type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    gen: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen: self.gen.clone(),
        }
    }
}

impl<T: 'static> BoxedStrategy<T> {
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy { gen: Rc::new(f) }
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

/// Uniform pick among boxed alternatives (backs `prop_oneof!`).
pub fn union<T: 'static>(options: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
    BoxedStrategy::new(move |rng| {
        let i = rng.below(options.len() as u64) as usize;
        options[i].new_value(rng)
    })
}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `any::<T>()` for the primitive types the tests draw.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(std::marker::PhantomData)
    }
}

pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// String strategies from a small regex subset: `[class]{m,n}` where the
/// class holds literal chars and ranges (`a-z`, ` -~`), plus `\PC{m,n}`
/// for arbitrary non-control unicode.
impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_pattern(self);
        let len = min + rng.below((max - min + 1) as u64) as usize;
        let mut out = String::with_capacity(len);
        for _ in 0..len {
            out.push(match &chars {
                CharClass::Set(set) => set[rng.below(set.len() as u64) as usize],
                CharClass::AnyNonControl => loop {
                    if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                        if !c.is_control() {
                            break c;
                        }
                    }
                },
            });
        }
        out
    }
}

enum CharClass {
    Set(Vec<char>),
    AnyNonControl,
}

fn bad_pattern(pat: &str) -> ! {
    panic!(
        "unsupported pattern {pat:?} (vendored proptest supports [class]{{m,n}} and \\PC{{m,n}})"
    )
}

fn parse_pattern(pat: &str) -> (CharClass, usize, usize) {
    let (class, rest) = if let Some(rest) = pat.strip_prefix("\\PC") {
        (CharClass::AnyNonControl, rest)
    } else if let Some(stripped) = pat.strip_prefix('[') {
        let end = stripped.find(']').unwrap_or_else(|| bad_pattern(pat));
        let body: Vec<char> = stripped[..end].chars().collect();
        let mut set = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
                assert!(lo <= hi, "bad class range in {pat:?}");
                for c in lo..=hi {
                    set.push(char::from_u32(c).unwrap());
                }
                i += 3;
            } else {
                set.push(body[i]);
                i += 1;
            }
        }
        assert!(!set.is_empty(), "empty class in {pat:?}");
        (CharClass::Set(set), &stripped[end + 1..])
    } else {
        bad_pattern(pat)
    };
    let counts = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| bad_pattern(pat));
    let (m, n) = counts.split_once(',').unwrap_or((counts, counts));
    let min: usize = m.trim().parse().unwrap_or_else(|_| bad_pattern(pat));
    let max: usize = n.trim().parse().unwrap_or_else(|_| bad_pattern(pat));
    assert!(min <= max, "bad repetition in {pat:?}");
    (class, min, max)
}

macro_rules! tuple_strategy {
    ($(($($s:ident $i:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));

/// `prop::collection` / `prop::num` namespaces.
pub mod collection {
    use super::{BoxedStrategy, Strategy};
    use std::ops::Range;

    /// Vector of values with length drawn from `size`.
    pub fn vec<S>(element: S, size: Range<usize>) -> BoxedStrategy<Vec<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        BoxedStrategy::new(move |rng| {
            let len = size.start + rng.below((size.end - size.start) as u64) as usize;
            (0..len).map(|_| element.new_value(rng)).collect()
        })
    }
}

pub mod num {
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// Strategy for normal (finite, non-subnormal) doubles.
        #[derive(Clone, Copy)]
        pub struct Normal;

        pub const NORMAL: Normal = Normal;

        impl Strategy for Normal {
            type Value = f64;
            fn new_value(&self, rng: &mut TestRng) -> f64 {
                loop {
                    let v = f64::from_bits(rng.next_u64());
                    if v.is_normal() {
                        return v;
                    }
                }
            }
        }
    }
}

pub mod test_runner {
    /// Run configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{BoxedStrategy, Just, Strategy};

    pub mod prop {
        pub use crate::collection;
        pub use crate::num;
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @with ($config) $($rest)* }
    };
    (@with ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::new_value(&($strategy), &mut rng);)+
                // Render inputs up front: the body may move them.
                let mut inputs = String::new();
                $(inputs.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $body
                }));
                if let Err(payload) = result {
                    eprintln!(
                        "proptest: case {case} of {} failed (PROPTEST_SEED={}) with inputs:\n{inputs}",
                        stringify!($name),
                        $crate::run_seed(),
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest! { @with ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = (-5i64..7).new_value(&mut rng);
            assert!((-5..7).contains(&v));
            let u = (1usize..3).new_value(&mut rng);
            assert!((1..3).contains(&u));
        }
    }

    #[test]
    fn regex_classes_match() {
        let mut rng = crate::TestRng::for_test("regex");
        for _ in 0..200 {
            let s = "[a-z]{1,6}".new_value(&mut rng);
            assert!((1..=6).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "[ -~]{0,12}".new_value(&mut rng);
            assert!(t.chars().all(|c| (' '..='~').contains(&c)));
            let u = "\\PC{0,8}".new_value(&mut rng);
            assert!(u.chars().all(|c| !c.is_control()));
            assert!(u.chars().count() <= 8);
        }
    }

    #[test]
    fn oneof_union_draws_all_arms() {
        let mut rng = crate::TestRng::for_test("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.new_value(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn run_seed_zero_keeps_the_name_stream_and_others_change_it() {
        let draw = |seed| crate::TestRng::for_test_with("t", seed).next_u64();
        let mut plain = crate::TestRng::for_test_with("t", 0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h ^= b't' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        assert_eq!(plain.next_u64(), crate::TestRng { state: h }.next_u64());
        assert_ne!(draw(0), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_eq!(draw(7), draw(7));
    }

    #[test]
    fn normal_doubles_are_normal() {
        let mut rng = crate::TestRng::for_test("normal");
        for _ in 0..200 {
            assert!(prop::num::f64::NORMAL.new_value(&mut rng).is_normal());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_runnable_tests(
            v in prop::collection::vec(any::<u8>(), 0..10),
            s in "[a-d]{1,2}",
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!(!s.is_empty() && s.len() <= 2);
        }
    }
}

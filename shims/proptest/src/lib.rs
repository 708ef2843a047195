#![allow(dead_code, unused_imports, clippy::redundant_closure_call)]
//! Offline shim for `proptest`.
//!
//! The build environment cannot reach a crates registry, so this crate
//! reimplements the proptest 1.x API subset used by this workspace's
//! property tests: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_recursive` / `boxed`, range and tuple strategies, [`Just`],
//! `any::<T>()`, `collection::vec`, `array::uniform4`, a character-class
//! string strategy (`"[a-z0-9]{1,20}"`), weighted `prop_oneof!`, and the
//! `proptest!` test macro.
//!
//! Semantics differ from real proptest in one deliberate way: there is no
//! shrinking and no persisted failure seeds. Each test runs a fixed number
//! of cases drawn from a deterministic per-case RNG stream, so failures
//! reproduce exactly across runs while the harness stays a few hundred
//! lines.
//!
//! [`Just`]: strategy::Just

#![forbid(unsafe_code)]

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Per-test configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps the debug-mode test
            // suite quick while still exercising the properties broadly.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG handed to strategies while generating one case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// RNG for case number `case` of the test named `test_name`.
        ///
        /// Seeding from the test name keeps different properties on
        /// different streams even at the same case index.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                inner: StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }
    }

    impl RngCore for TestRng {
        fn next_u32(&mut self) -> u32 {
            self.inner.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: `generate` draws one
    /// sample directly and nothing shrinks.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds recursive values: `recurse` receives a strategy for the
        /// previous level and returns one that may nest it. `depth` bounds
        /// the nesting; `_desired_size` and `_expected_branch_size` are
        /// accepted for API parity but unused (no size-driven shrinking
        /// here).
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let base = self.boxed();
            let mut level = base.clone();
            for _ in 0..depth {
                let deeper = recurse(level).boxed();
                let leaf = base.clone();
                level = BoxedStrategy {
                    sample: Arc::new(move |rng: &mut TestRng| {
                        // Lean towards recursion so depth is actually
                        // explored; leaves still appear at every level.
                        if rng.gen_range(0u32..4) == 0 {
                            leaf.generate(rng)
                        } else {
                            deeper.generate(rng)
                        }
                    }),
                };
            }
            level
        }

        /// Type-erases this strategy behind a cloneable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let strat = self;
            BoxedStrategy {
                sample: Arc::new(move |rng: &mut TestRng| strat.generate(rng)),
            }
        }
    }

    /// Cloneable type-erased strategy.
    pub struct BoxedStrategy<V> {
        sample: Arc<dyn Fn(&mut TestRng) -> V>,
    }

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                sample: Arc::clone(&self.sample),
            }
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            (self.sample)(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;

        fn generate(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted union of same-valued strategies; built by `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total_weight: u64,
    }

    impl<V> Union<V> {
        /// Builds a union from `(weight, strategy)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total_weight: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(
                total_weight > 0,
                "prop_oneof! needs a positive total weight"
            );
            Union { arms, total_weight }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.gen_range(0..self.total_weight);
            for (weight, arm) in &self.arms {
                if pick < *weight as u64 {
                    return arm.generate(rng);
                }
                pick -= *weight as u64;
            }
            unreachable!("weighted pick within total weight")
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
    }

    /// Character-class string strategy: `&str` patterns like
    /// `"[a-z0-9]{1,20}"` generate matching strings.
    ///
    /// Supported syntax is the subset the workspace tests use: literal
    /// characters, `[...]` classes containing literals and `x-y` ranges
    /// (`-` last in the class is a literal), and `{n}` / `{m,n}` repetition
    /// after a class or literal.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            let chars: Vec<char> = self.chars().collect();
            let mut i = 0;
            while i < chars.len() {
                let choices: Vec<char> = if chars[i] == '[' {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                            assert!(lo <= hi, "bad range in class: {self}");
                            set.extend((lo..=hi).filter_map(char::from_u32));
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in pattern: {self}");
                    i += 1; // consume ']'
                    set
                } else {
                    let c = chars[i];
                    i += 1;
                    vec![c]
                };
                let (min, max) = if i < chars.len() && chars[i] == '{' {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .map(|p| i + p)
                        .unwrap_or_else(|| panic!("unterminated repetition in pattern: {self}"));
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((m, n)) => (
                            m.trim().parse::<usize>().expect("repetition lower bound"),
                            n.trim().parse::<usize>().expect("repetition upper bound"),
                        ),
                        None => {
                            let n = body.trim().parse::<usize>().expect("repetition count");
                            (n, n)
                        }
                    }
                } else {
                    (1, 1)
                };
                assert!(!choices.is_empty(), "empty character class in: {self}");
                let count = rng.gen_range(min..=max);
                for _ in 0..count {
                    out.push(choices[rng.gen_range(0..choices.len())]);
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }

    arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<f64>()
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Default)]
    pub struct Any<T> {
        _marker: PhantomData<fn() -> T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for vectors; built by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `[V; 4]`; built by [`uniform4`].
    pub struct Uniform4<S> {
        element: S,
    }

    impl<S: Strategy> Strategy for Uniform4<S> {
        type Value = [S::Value; 4];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; 4] {
            [
                self.element.generate(rng),
                self.element.generate(rng),
                self.element.generate(rng),
                self.element.generate(rng),
            ]
        }
    }

    /// Arrays of four values drawn from `element`.
    pub fn uniform4<S: Strategy>(element: S) -> Uniform4<S> {
        Uniform4 { element }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property body (panics on failure; no
/// shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Picks among strategies, optionally weighted (`3 => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` body runs
/// for `cases` random inputs (default 64, or `#![proptest_config(...)]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config($cfg) $($rest)*);
    };
    (@with_config($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut runner_rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case as u64);
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut runner_rng);
                )+
                // As in real proptest, the body runs in a Result-returning
                // closure so properties may `return Ok(())` early.
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    Ok(())
                })();
                if let Err(message) = outcome {
                    panic!("property {} failed: {message}", stringify!($name));
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy as _;
    use crate::test_runner::TestRng;

    #[test]
    fn string_pattern_generates_matching_chars() {
        let mut rng = TestRng::for_case("string_pattern", 0);
        for case in 0..200 {
            let mut rng2 = TestRng::for_case("string_pattern", case);
            let s = "[a-z0-9]{1,20}".generate(&mut rng2);
            assert!((1..=20).contains(&s.len()), "len {}", s.len());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
        let s = "[a-zA-Z0-9._-]{1,64}".generate(&mut rng);
        assert!((1..=64).contains(&s.len()));
        assert!(s
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let strat = prop_oneof![
            9 => Just(true),
            1 => Just(false),
        ];
        let hits = (0..1000)
            .filter(|&i| {
                let mut rng = TestRng::for_case("weights", i);
                strat.generate(&mut rng)
            })
            .count();
        assert!((820..980).contains(&hits), "hits {hits}");
    }

    #[test]
    fn recursive_strategy_terminates_and_nests() {
        #[derive(Debug)]
        enum Tree {
            Leaf(u64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 1..4).prop_map(Tree::Node)
            });
        let mut max_depth = 0;
        for case in 0..200 {
            let mut rng = TestRng::for_case("recursive", case);
            let t = strat.generate(&mut rng);
            let d = depth(&t);
            assert!(d <= 3, "depth {d} exceeds bound");
            max_depth = max_depth.max(d);
        }
        assert!(max_depth >= 2, "recursion never nested (max {max_depth})");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself: multiple args, trailing comma, weighted arms.
        #[test]
        fn macro_wires_args(
            x in 0u32..10,
            v in crate::collection::vec(any::<u8>(), 0..5),
            flag in any::<bool>(),
        ) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 5);
            prop_assert_eq!(flag, flag);
        }
    }
}

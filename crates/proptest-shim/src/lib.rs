//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! this API-compatible subset instead of fetching the real crate. It
//! covers exactly what the repository's property tests use: the
//! `proptest!` macro (with an optional `#![proptest_config(..)]` header),
//! integer-range / `Just` / tuple / `any::<T>()` strategies,
//! `proptest::collection::vec`, `prop_oneof!`, and the `prop_assert*`
//! macros.
//!
//! Sampling is fully deterministic: each test case draws from a
//! [`TestRng`] seeded from the test's module path and the case index, so
//! failures reproduce bit-identically across runs and machines. There is
//! no shrinking — a failing case panics with the sampled values visible
//! in the assertion message.

#![forbid(unsafe_code)]

/// How many cases each property runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` sampled cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic splitmix64 generator seeding each sampled case.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// The generator for case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Value generators.
pub mod strategy {
    use super::TestRng;
    use std::ops::Range;

    /// Something that can produce values of `Self::Value` from a [`TestRng`].
    pub trait Strategy {
        /// The produced value type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// A strategy producing one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    /// Strategy for the full value domain of `T` (see [`any`]).
    #[derive(Debug, Default, Clone, Copy)]
    pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

    /// Types usable with [`any`].
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }
    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() as u8
        }
    }
    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() as u32
        }
    }
    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64()
        }
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over the full domain of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(std::marker::PhantomData)
    }

    /// A uniform choice among boxed alternatives (see `prop_oneof!`).
    pub struct Union<T>(Vec<Box<dyn Strategy<Value = T>>>);

    impl<T> Union<T> {
        /// An empty union; populate with [`Union::push`].
        pub fn empty() -> Self {
            Self(Vec::new())
        }

        /// Adds one alternative.
        pub fn push<S: Strategy<Value = T> + 'static>(&mut self, s: S) {
            self.0.push(Box::new(s));
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "empty prop_oneof!");
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].sample(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// A strategy producing `Vec`s with length drawn from `len` and
    /// elements drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + if span == 0 { 0 } else { rng.below(span) as usize };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Glob import mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, Just, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, TestRng};
}

/// Re-export so `proptest::strategy::Just` style paths also work.
pub use strategy::{any, Just, Strategy};

/// Asserts a condition inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// A uniform choice among the listed strategies (all must produce the
/// same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let mut union = $crate::strategy::Union::empty();
        $( union.push($s); )+
        union
    }};
}

/// Declares deterministic property tests; mirrors proptest's macro shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn holds(x in 0u64..100) { prop_assert!(x < 100); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        cfg = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for __case in 0..config.cases {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $( let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng); )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::for_case("t", 0);
        let mut b = TestRng::for_case("t", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategy_stays_in_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = TestRng::for_case("vec", 0);
        for _ in 0..100 {
            let v = collection::vec(any::<bool>(), 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_draws_from_every_arm() {
        let s = prop_oneof![Just(0u64), 7u64..9];
        let mut rng = TestRng::for_case("oneof", 0);
        let mut seen_zero = false;
        let mut seen_range = false;
        for _ in 0..200 {
            match s.sample(&mut rng) {
                0 => seen_zero = true,
                7 | 8 => seen_range = true,
                other => panic!("impossible sample {other}"),
            }
        }
        assert!(seen_zero && seen_range);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 1u32..50, flips in collection::vec(any::<bool>(), 0..4)) {
            prop_assert!((1..50).contains(&x));
            prop_assert!(flips.len() < 4);
        }
    }
}

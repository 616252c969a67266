//! Offline stand-in for the subset of the `proptest` crate this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal property-testing harness with the same surface
//! syntax: the [`proptest!`] macro over `arg in strategy` parameters,
//! [`prop_assert!`]/[`prop_assert_eq!`], range and [`any`](arbitrary::any) strategies,
//! [`prop::collection::vec`], and [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate: cases are drawn from a
//! deterministic per-test seed (derived from the test name) and
//! **failing cases are not shrunk** — the failing inputs are printed
//! as drawn. That is a debugging convenience lost, not a soundness
//! loss: the properties checked are identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Strategy constructors, mirroring the `proptest::prop` paths.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s whose length is drawn from `len` and
    /// whose elements are drawn from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Builds a [`VecStrategy`]; mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.usize_in(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `any::<T>()` support, mirroring `proptest::arbitrary`.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a whole-domain default strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<A>(PhantomData<A>);

    /// Whole-domain strategy for `A`; mirrors `proptest::prelude::any`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;

        fn sample(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The `prop::` namespace (`prop::collection::vec`, ...).
pub mod prop {
    pub use crate::collection;
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, $($fmt)*);
    }};
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over many drawn cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let mut dump = ::std::string::String::new();
                $(dump.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}:\n{}\ninputs:\n{}",
                        stringify!($name), case + 1, cfg.cases, e, dump
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// The harness draws values inside the requested ranges.
        #[test]
        fn ranges_hold(x in -50i64..=49, y in 1u32..7, v in prop::collection::vec(0i32..10, 2..5)) {
            prop_assert!((-50..=49).contains(&x));
            prop_assert!((1..7).contains(&y));
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&e| (0..10).contains(&e)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Config form parses and bounds the case count.
        #[test]
        fn config_form_works(w in any::<u32>()) {
            prop_assert_eq!(u64::from(w), u64::from(w));
        }
    }

    #[test]
    #[should_panic(expected = "property `failing` failed")]
    fn failures_panic_with_inputs() {
        proptest! {
            fn failing(x in 0i32..10) {
                prop_assert!(x < 0, "x was {x}");
            }
        }
        failing();
    }
}

//! # erebor-testkit — hermetic in-tree test & bench harness
//!
//! The workspace's replacement for `proptest`, `criterion` and `rand`:
//! a fully deterministic, zero-external-dependency harness so the whole
//! evaluation pipeline builds and runs offline.
//!
//! * [`rng`] — the ChaCha20-keystream [`rng::TestRng`] (same construction
//!   as the monitor's boot DRBG) with integer/float range helpers.
//! * [`prop`] — seeded property testing with greedy byte-stream
//!   shrinking; `EREBOR_PT_SEED` / `EREBOR_PT_CASES` overrides.
//! * [`bench`] — criterion-compatible micro-bench harness with warmup,
//!   calibrated iteration counts, mean/p50/p99 stats, JSON output and
//!   declared floors/ceilings that fail the run.
//! * [`json`] — a tiny JSON writer for machine-readable stat dumps, and
//!   a syntax validator tests run over every emitted document.
//!
//! Migrated proptest suites keep their source shape: import
//! `use erebor_testkit::prelude::*;` and alias
//! `use erebor_testkit as proptest;` so `proptest::collection::vec(..)`
//! paths keep resolving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;

pub use prop::collection;

/// Everything a property-test file needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::prop::{
        any, Arbitrary, BoxedStrategy, CaseError, Config, Just, ProptestConfig, Source, Strategy,
    };
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests. Mirrors `proptest!`:
///
/// ```
/// use erebor_testkit::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # fn main() {}
/// ```
///
/// An optional `#![proptest_config(ProptestConfig::with_cases(n))]`
/// header overrides the case count for every test in the block.
// The `#[test]` in the example is the macro's actual input syntax, not a
// unit test smuggled into a doctest — the doctest only needs to compile.
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::prop::Config::default()) $($rest)* }
    };
}

/// Internal muncher for [`proptest!`]. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      #[test]
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let __cfg = $cfg;
            $crate::prop::run(
                &__cfg,
                stringify!($name),
                |__src| -> ::std::result::Result<(), $crate::prop::CaseError> {
                    $(let $arg = $crate::prop::Strategy::generate(&($strat), __src);)+
                    $body
                    ::std::result::Result::Ok(())
                },
                |__src| {
                    let mut __out = ::std::string::String::new();
                    $(
                        let $arg = $crate::prop::Strategy::generate(&($strat), __src);
                        __out.push_str(&::std::format!(
                            "  {} = {:?}\n", stringify!($arg), &$arg
                        ));
                        let _ = &$arg;
                    )+
                    __out
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::prop::OneOf {
            options: ::std::vec![
                $($crate::prop::Strategy::boxed($strat)),+
            ],
        }
    };
}

/// Assert inside a property; failure aborts the case (and shrinks).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::prop::CaseError::Fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)*);
    }};
}

/// Discard the current case unless `cond` holds (does not count toward
/// the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::prop::CaseError::Reject(
                ::std::format!("assumption failed: {}", stringify!($cond)),
            ));
        }
    };
}

/// Bundle bench functions into a group (criterion-compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Entry point running bench groups and emitting the JSON summary
/// (criterion-compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

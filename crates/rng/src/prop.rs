//! Minimal in-repo property-testing harness (the hermetic replacement for
//! `proptest`).
//!
//! A property is an ordinary `#[test]` that draws its inputs from a seeded
//! [`crate::Rng`] and runs its body over a fixed number of cases. The
//! [`props!`](crate::props) macro generates the loop; on failure it reports the case
//! number and the concrete inputs (shrink-free: the inputs are printed
//! verbatim, no minimisation), then re-raises the panic so the test fails
//! normally. The case stream is derived from the property's name, so runs
//! are fully deterministic and a reported failure can be pinned as an
//! explicit regression test.
//!
//! # Example
//!
//! ```
//! lisa_rng::props! {
//!     cases = 32;
//!
//!     /// Addition commutes.
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```

use crate::Rng;

/// Derives the per-property base seed from its name (FNV-1a), so every
/// property gets an independent but reproducible case stream.
pub fn seed_for(name: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Fresh input generator for case `case` of a property. Each case reseeds,
/// so a failure depends only on (property name, case index) — not on how
/// many values earlier cases consumed.
pub fn case_rng(name: &str, case: u32) -> Rng {
    Rng::seed_from_u64(seed_for(name) ^ (u64::from(case) << 32))
}

/// Prints the shrink-free failure report for a property case.
pub fn report(name: &str, case: u32, cases: u32, inputs: &str) {
    eprintln!(
        "property `{name}` failed at case {case}/{cases} with inputs: {inputs}\n\
         (deterministic: the stream derives from the property name; pin this \
         case as a named regression test)"
    );
}

/// Declares seeded property tests.
///
/// Each `fn name(arg in range, ...) { body }` item becomes a `#[test]`
/// running `cases` iterations; `arg in range` draws through
/// [`Rng::gen_range`], so any range accepted there works. Use plain
/// `assert!`/`assert_eq!` in the body.
#[macro_export]
macro_rules! props {
    (
        cases = $cases:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $range:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __cases: u32 = $cases;
                for __case in 0..__cases {
                    let mut __rng = $crate::prop::case_rng(stringify!($name), __case);
                    $(let $arg = __rng.gen_range($range);)+
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| $body),
                    );
                    if let Err(__panic) = __outcome {
                        let mut __inputs = String::new();
                        $(
                            if !__inputs.is_empty() {
                                __inputs.push_str(", ");
                            }
                            __inputs.push_str(concat!(stringify!($arg), " = "));
                            __inputs.push_str(&format!("{:?}", $arg));
                        )+
                        $crate::prop::report(
                            stringify!($name), __case, __cases, &__inputs,
                        );
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(seed_for("alpha"), seed_for("beta"));
        assert_eq!(seed_for("alpha"), seed_for("alpha"));
    }

    #[test]
    fn case_rngs_are_independent_and_stable() {
        let mut a = case_rng("prop", 0);
        let mut b = case_rng("prop", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = case_rng("prop", 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    mod macro_usage {
        crate::props! {
            cases = 16;

            /// The macro wires ranges and bodies correctly.
            fn generated_inputs_are_in_range(x in 5u64..10, y in 0usize..=3) {
                assert!((5..10).contains(&x));
                assert!(y <= 3);
            }

            /// Multiple arguments draw from one per-case stream.
            fn supports_float_ranges(p in 0.0f64..1.0, q in -2.0f64..2.0) {
                assert!((0.0..1.0).contains(&p));
                assert!((-2.0..2.0).contains(&q));
            }
        }
    }

    #[test]
    fn failing_property_panics() {
        let result = std::panic::catch_unwind(|| {
            let cases = 8u32;
            for case in 0..cases {
                let mut rng = case_rng("always_fails", case);
                let x = rng.gen_range(0u64..100);
                assert!(x > 1000, "impossible");
            }
        });
        assert!(result.is_err());
    }
}

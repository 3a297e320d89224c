//! A minimal property-testing harness: seeded case generation, shrinking on
//! failure, and `prop_assert!`-style macros.
//!
//! The workspace's integration suites were written against `proptest`; this
//! module keeps the testing *discipline* (random structured inputs, many
//! cases, counterexample minimization, reproducible seeds) without the
//! external crate. The moving parts:
//!
//! - a test is a closure `Fn(&T) -> CaseResult` over inputs produced by a
//!   generator closure `Fn(&mut Rng) -> T`;
//! - each case draws from an [`Rng`] seeded by `splitmix(run_seed, case)`,
//!   so any failure is reproducible from the numbers in the panic message
//!   (`KGM_PROP_SEED` re-runs a whole suite under a chosen seed and
//!   `KGM_PROP_CASES` scales the case count);
//! - on failure, a caller-supplied shrinker proposes smaller inputs and the
//!   harness greedily descends to a local minimum before reporting;
//! - [`prop_assume!`] rejects uninteresting cases, which are regenerated
//!   (bounded) rather than counted as passes.

use crate::rng::{split_mix64, Rng};
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

/// Why a case did not pass.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The case does not satisfy a precondition (`prop_assume!`); the
    /// harness regenerates instead of failing.
    Reject(String),
    /// The property is false for this input.
    Fail(String),
}

impl CaseError {
    /// Build a failure.
    pub fn fail(message: impl Into<String>) -> CaseError {
        CaseError::Fail(message.into())
    }

    /// Build a rejection.
    pub fn reject(message: impl Into<String>) -> CaseError {
        CaseError::Reject(message.into())
    }
}

/// Result of one property invocation.
pub type CaseResult = std::result::Result<(), CaseError>;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases that must pass.
    pub cases: usize,
    /// Seed of the whole run (per-case seeds derive from it).
    pub seed: u64,
    /// Cap on shrink candidates tried after a failure.
    pub max_shrink_steps: usize,
    /// Cap on regenerations per case when `prop_assume!` rejects.
    pub max_rejects: usize,
}

const DEFAULT_SEED: u64 = 0x6b67_6d5f_7072_6f70; // "kgm_prop"

impl Default for Config {
    fn default() -> Self {
        let env_u64 = |k: &str| std::env::var(k).ok().and_then(|v| v.parse().ok());
        Config {
            cases: env_u64("KGM_PROP_CASES")
                .map(|v: u64| v as usize)
                .unwrap_or(64),
            seed: env_u64("KGM_PROP_SEED").unwrap_or(DEFAULT_SEED),
            max_shrink_steps: 400,
            max_rejects: 1_000,
        }
    }
}

impl Config {
    /// Default config with an explicit case count (still overridable by
    /// `KGM_PROP_CASES`, which always wins so CI can scale suites globally).
    pub fn with_cases(cases: usize) -> Config {
        let mut c = Config::default();
        if std::env::var("KGM_PROP_CASES").is_err() {
            c.cases = cases;
        }
        c
    }
}

/// Run `prop` on `cases` inputs drawn from `gen`, shrinking counterexamples
/// with `shrink`. Panics with a reproduction recipe on failure.
///
/// `shrink` proposes *simpler* candidates for a failing input (e.g. shorter
/// vectors); pass [`no_shrink`] when minimization is not useful.
pub fn check<T, G, S, P>(name: &str, config: &Config, gen: G, shrink: S, prop: P)
where
    T: Debug,
    G: Fn(&mut Rng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> CaseResult,
{
    let run_prop = |input: &T| -> CaseResult {
        match panic::catch_unwind(AssertUnwindSafe(|| prop(input))) {
            Ok(r) => r,
            Err(payload) => Err(CaseError::fail(format!(
                "panicked: {}",
                panic_message(&payload)
            ))),
        }
    };

    let mut rejects_total = 0usize;
    for case in 0..config.cases {
        let mut s = config.seed.wrapping_add(case as u64);
        let case_seed = split_mix64(&mut s);
        // Regenerate on prop_assume! rejection, from sub-seeds of the case.
        let mut attempt_seed = case_seed;
        let (input, failure) = loop {
            let mut rng = Rng::seed_from_u64(attempt_seed);
            let input = gen(&mut rng);
            match run_prop(&input) {
                Ok(()) => break (input, None),
                Err(CaseError::Fail(m)) => break (input, Some(m)),
                Err(CaseError::Reject(_)) => {
                    rejects_total += 1;
                    if rejects_total > config.max_rejects {
                        panic!(
                            "[prop] {name}: too many rejected cases ({}); \
                             loosen prop_assume! or tighten the generator",
                            rejects_total
                        );
                    }
                    attempt_seed = split_mix64(&mut attempt_seed);
                }
            }
        };
        let Some(message) = failure else { continue };

        // Greedy shrink: repeatedly move to the first failing candidate.
        // Keep the original (pre-shrink) input around: the minimized case is
        // what a human debugs, but the original is what the seed reproduces,
        // so the report must carry both to be copy-pasteable from CI logs.
        let original = format!("{input:?}");
        let original_msg = message.clone();
        let mut minimal = input;
        let mut minimal_msg = message;
        let mut steps = 0usize;
        'outer: while steps < config.max_shrink_steps {
            for candidate in shrink(&minimal) {
                steps += 1;
                if steps >= config.max_shrink_steps {
                    break 'outer;
                }
                if let Err(CaseError::Fail(m)) = run_prop(&candidate) {
                    minimal = candidate;
                    minimal_msg = m;
                    continue 'outer;
                }
            }
            break; // no candidate fails: local minimum reached
        }
        let minimal = format!("{minimal:?}");
        let original_part = if minimal == original && minimal_msg == original_msg {
            String::new() // shrinking made no progress: one report is enough
        } else {
            format!("original input (seed {case_seed:#x}): {original}\n{original_msg}\n")
        };
        panic!(
            "[prop] {name}: case {case}/{} FAILED\n\
             seed: {} (case seed {case_seed:#x}, {steps} shrink steps)\n\
             minimal input: {minimal}\n\
             {minimal_msg}\n\
             {original_part}\
             reproduce with: KGM_PROP_SEED={} KGM_PROP_CASES={} cargo test",
            config.cases,
            config.seed,
            config.seed,
            case + 1
        );
    }
}

/// Shrinker that proposes nothing (disables minimization).
pub fn no_shrink<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Candidate simplifications of a vector: first half, second half, and each
/// single-element removal — the standard quickcheck-style schedule that
/// makes fast progress on long inputs and fine progress near the minimum.
pub fn shrink_vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if v.is_empty() {
        return out;
    }
    if v.len() > 1 {
        out.push(v[..v.len() / 2].to_vec());
        out.push(v[v.len() / 2..].to_vec());
    }
    for i in 0..v.len() {
        let mut w = v.to_vec();
        w.remove(i);
        out.push(w);
    }
    out
}

/// Candidate simplifications of a non-negative integer: 0, then halving.
pub fn shrink_usize(n: usize) -> Vec<usize> {
    if n == 0 {
        Vec::new()
    } else if n == 1 {
        vec![0]
    } else {
        vec![0, n / 2, n - 1]
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Fail the property unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the property unless `left == right`, showing both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                l, r
            )));
        }
    }};
}

/// Fail the property unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l != r) {
            return Err($crate::prop::CaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}",
                l
            )));
        }
    }};
}

/// Reject the case (regenerate) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> Config {
        Config {
            cases: 64,
            seed: 1,
            max_shrink_steps: 400,
            max_rejects: 1_000,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0;
        check(
            "sum_commutes",
            &quiet_cfg(),
            |rng| (rng.gen_range(0i64..100), rng.gen_range(0i64..100)),
            no_shrink,
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        seen += 1; // reaching here means no panic
        assert_eq!(seen, 1);
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let err = panic::catch_unwind(|| {
            check(
                "vec_never_long",
                &quiet_cfg(),
                |rng| {
                    let n = rng.gen_range(0usize..20);
                    (0..n).map(|_| rng.gen_range(0i64..5)).collect::<Vec<_>>()
                },
                |v| shrink_vec(v),
                |v| {
                    prop_assert!(v.len() < 3, "len = {}", v.len());
                    Ok(())
                },
            )
        })
        .unwrap_err();
        let msg = panic_message(&err).to_string();
        assert!(msg.contains("FAILED"), "{msg}");
        assert!(msg.contains("KGM_PROP_SEED="), "{msg}");
        // The repro line pins the failing case index via KGM_PROP_CASES so
        // the whole line can be copy-pasted from a CI log.
        assert!(msg.contains("KGM_PROP_CASES="), "{msg}");
        // When shrinking changed the input, the original case and its seed
        // are reported alongside the minimized one.
        assert!(msg.contains("original input (seed 0x"), "{msg}");
        // Shrinking must land on the minimal counterexample length (3).
        assert!(msg.contains("minimal input"), "{msg}");
        let after = msg.split("minimal input: ").nth(1).unwrap();
        let line = after.lines().next().unwrap();
        let commas = line.matches(',').count();
        assert!(commas <= 2, "shrunk to 3 elements, got: {line}");
    }

    #[test]
    fn panics_inside_property_are_failures() {
        let err = panic::catch_unwind(|| {
            check(
                "panicky",
                &quiet_cfg(),
                |rng| rng.gen_range(0u32..10),
                no_shrink,
                |&v| {
                    assert!(v < 100, "impossible");
                    if v > 1_000 {
                        return Ok(());
                    }
                    panic!("inner boom {v}");
                },
            )
        })
        .unwrap_err();
        let msg = panic_message(&err);
        assert!(msg.contains("panicked: inner boom"), "{msg}");
    }

    #[test]
    fn assume_regenerates_instead_of_failing() {
        check(
            "only_even_inputs",
            &quiet_cfg(),
            |rng| rng.gen_range(0u64..1000),
            no_shrink,
            |&v| {
                prop_assume!(v % 2 == 0);
                prop_assert_eq!(v % 2, 0);
                Ok(())
            },
        );
    }

    #[test]
    fn unsatisfiable_assume_is_reported() {
        let err = panic::catch_unwind(|| {
            check(
                "never",
                &Config {
                    max_rejects: 20,
                    ..quiet_cfg()
                },
                |rng| rng.gen_range(0u64..10),
                no_shrink,
                |_| {
                    prop_assume!(false);
                    Ok(())
                },
            )
        })
        .unwrap_err();
        assert!(panic_message(&err).contains("too many rejected cases"));
    }

    #[test]
    fn same_seed_generates_same_cases() {
        let collect = || {
            let all = std::cell::RefCell::new(Vec::new());
            check(
                "collector",
                &quiet_cfg(),
                |rng| rng.gen_range(0u64..1_000_000),
                no_shrink,
                |&v| {
                    all.borrow_mut().push(v);
                    Ok(())
                },
            );
            all.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn shrink_helpers_propose_simpler_values() {
        assert!(shrink_vec(&[1, 2, 3, 4]).iter().all(|v| v.len() < 4));
        assert!(shrink_vec::<u8>(&[]).is_empty());
        assert_eq!(shrink_usize(0), Vec::<usize>::new());
        assert!(shrink_usize(10).contains(&5));
    }
}

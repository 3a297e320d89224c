//! Environment-variable configuration that fails loudly.
//!
//! Every `KGM_*` knob used to be read with `.parse().ok()`, so a typo like
//! `KGM_DEADLINE_MS=5s` silently meant "no deadline" — the opposite of what
//! the operator asked for. [`parsed`] keeps the knobs optional (unset is
//! still `None`) but makes a *malformed* value visible twice: a stderr
//! warning naming the variable, the rejected value, and the expected shape,
//! plus a `config.env.invalid` telemetry counter that run reports and tests
//! can assert on. The malformed value is then ignored (the caller's default
//! applies) so a bad environment degrades a run instead of aborting it.

use std::str::FromStr;

/// Read and parse `key` from the environment.
///
/// - unset → `None`, silently (an absent knob is the normal case);
/// - parses → `Some(value)` (surrounding whitespace is tolerated);
/// - malformed → `None`, after bumping the `config.env.invalid` counter and
///   printing a stderr warning that names the variable, the offending
///   value, and `expected` (a human description like `"milliseconds (an
///   unsigned integer)"`).
pub fn parsed<T: FromStr>(key: &str, expected: &str) -> Option<T> {
    let raw = std::env::var(key).ok()?;
    match raw.trim().parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            invalid(key, &raw, expected);
            None
        }
    }
}

/// Report one malformed configuration value: `config.env.invalid` counter
/// plus a stderr note. Public so callers with extra validation (e.g. "must
/// be ≥ 1") can reject a parseable-but-out-of-range value the same way.
pub fn invalid(key: &str, raw: &str, expected: &str) {
    crate::telemetry::counter_add("config.env.invalid", 1);
    eprintln!("warning: ignoring {key}={raw:?}: expected {expected}");
}

/// Serializes the unit tests that read, bump or clear the process-global
/// `config.env.invalid` counter. The harness runs tests on parallel threads,
/// so another test's bump or registry reset could land between one test's
/// before and after readings. Non-poisoning, so a failing test does not
/// cascade.
#[cfg(test)]
pub(crate) static INVALID_COUNTER: crate::sync::Mutex<()> = crate::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry;

    fn invalid_count() -> i64 {
        telemetry::snapshot()
            .counters
            .get("config.env.invalid")
            .copied()
            .unwrap_or(0)
    }

    // Each test uses a unique variable name: env vars are process-global
    // and the test harness runs tests concurrently.

    #[test]
    fn unset_is_silently_none() {
        let _serial = INVALID_COUNTER.lock();
        let before = invalid_count();
        assert_eq!(parsed::<usize>("KGM_TEST_ENV_UNSET", "an integer"), None);
        assert_eq!(invalid_count(), before);
    }

    #[test]
    fn well_formed_values_parse_with_whitespace() {
        let _serial = INVALID_COUNTER.lock();
        std::env::set_var("KGM_TEST_ENV_OK", " 42 ");
        let before = invalid_count();
        assert_eq!(parsed::<u64>("KGM_TEST_ENV_OK", "an integer"), Some(42));
        assert_eq!(invalid_count(), before);
        std::env::remove_var("KGM_TEST_ENV_OK");
    }

    #[test]
    fn malformed_values_warn_and_count() {
        let _serial = INVALID_COUNTER.lock();
        std::env::set_var("KGM_TEST_ENV_BAD", "5s");
        let before = invalid_count();
        assert_eq!(
            parsed::<u64>("KGM_TEST_ENV_BAD", "milliseconds (an unsigned integer)"),
            None
        );
        assert_eq!(invalid_count(), before + 1, "config.env.invalid must tick");
        std::env::remove_var("KGM_TEST_ENV_BAD");
    }
}

//! Golden snapshot testing: compare generated text against a checked-in
//! file, with an explicit bless workflow.
//!
//! A snapshot test renders some artefact (an MTV compilation, an SSST
//! translation, a DDL script) to a string and calls [`assert_snapshot`]
//! with the path of its golden file. The comparison is byte-exact:
//!
//! - **normal runs** fail with a line diff when the artefact drifts from
//!   the golden, so any semantic change in a generator becomes a
//!   reviewable diff;
//! - **`KGM_BLESS=1`** regenerates the golden in place (creating parent
//!   directories) instead of comparing — the workflow after an
//!   *intentional* change;
//! - **`KGM_GOLDEN_FROZEN=1`** (set by CI) forbids blessing and turns a
//!   *missing* golden into an error, so snapshots can never be silently
//!   (re)created on a build machine.

use std::fs;
use std::path::Path;

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false)
}

/// A compact line diff of `expected` vs `actual` for failure messages:
/// every differing line as `-expected` / `+actual`, capped to keep panics
/// readable.
fn line_diff(expected: &str, actual: &str) -> String {
    const MAX_LINES: usize = 40;
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    for i in 0..e.len().max(a.len()) {
        let el = e.get(i).copied();
        let al = a.get(i).copied();
        if el == al {
            continue;
        }
        if shown >= MAX_LINES {
            out.push_str("  ... (diff truncated)\n");
            break;
        }
        if let Some(l) = el {
            out.push_str(&format!("  -{:>4} | {l}\n", i + 1));
        }
        if let Some(l) = al {
            out.push_str(&format!("  +{:>4} | {l}\n", i + 1));
        }
        shown += 1;
    }
    out
}

/// Compare `actual` against the golden file at `path`.
///
/// Behaviour is governed by two environment variables (see the module
/// docs): `KGM_BLESS=1` rewrites the golden instead of comparing, and
/// `KGM_GOLDEN_FROZEN=1` forbids blessing and missing goldens. Panics on
/// mismatch with a line diff and the bless recipe.
pub fn assert_snapshot(path: impl AsRef<Path>, actual: &str) {
    let path = path.as_ref();
    let bless = env_flag("KGM_BLESS");
    let frozen = env_flag("KGM_GOLDEN_FROZEN");
    if bless && frozen {
        panic!(
            "[snapshot] {}: KGM_BLESS=1 while KGM_GOLDEN_FROZEN=1 — \
             blessing goldens is forbidden in CI",
            path.display()
        );
    }
    if bless {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("[snapshot] mkdir {}: {e}", dir.display()));
        }
        // Skip the write when the content is already identical, so a bless
        // run on a clean tree leaves mtimes (and `git status`) untouched.
        if fs::read_to_string(path).ok().as_deref() != Some(actual) {
            fs::write(path, actual)
                .unwrap_or_else(|e| panic!("[snapshot] write {}: {e}", path.display()));
        }
        return;
    }
    let expected = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => panic!(
            "[snapshot] {}: cannot read golden ({e})\n\
             bless it with: KGM_BLESS=1 cargo test",
            path.display()
        ),
    };
    if expected != actual {
        panic!(
            "[snapshot] {}: output differs from golden\n{}\
             accept the change with: KGM_BLESS=1 cargo test",
            path.display(),
            line_diff(&expected, actual)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Serialize env-mutating tests (the process environment is global).
    fn with_env<R>(pairs: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
        use crate::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock();
        let saved: Vec<(String, Option<String>)> = pairs
            .iter()
            .map(|(k, _)| (k.to_string(), std::env::var(k).ok()))
            .collect();
        for (k, v) in pairs {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        let out = f();
        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(&k, v),
                None => std::env::remove_var(&k),
            }
        }
        out
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kgm_snapshot_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn bless_creates_then_match_passes() {
        let p = tmp_path("bless");
        let _ = fs::remove_file(&p);
        with_env(
            &[("KGM_BLESS", Some("1")), ("KGM_GOLDEN_FROZEN", None)],
            || assert_snapshot(&p, "hello\nworld\n"),
        );
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello\nworld\n");
        with_env(&[("KGM_BLESS", None), ("KGM_GOLDEN_FROZEN", None)], || {
            assert_snapshot(&p, "hello\nworld\n")
        });
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn mismatch_panics_with_line_diff() {
        let p = tmp_path("diff");
        fs::write(&p, "same\nold line\n").unwrap();
        let err = with_env(&[("KGM_BLESS", None), ("KGM_GOLDEN_FROZEN", None)], || {
            catch_unwind(AssertUnwindSafe(|| assert_snapshot(&p, "same\nnew line\n"))).unwrap_err()
        });
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("differs from golden"), "{msg}");
        assert!(msg.contains("old line"), "{msg}");
        assert!(msg.contains("new line"), "{msg}");
        assert!(msg.contains("KGM_BLESS=1"), "{msg}");
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn frozen_mode_rejects_bless_and_missing_goldens() {
        let p = tmp_path("frozen");
        let _ = fs::remove_file(&p);
        // Bless under frozen must panic…
        let err = with_env(
            &[("KGM_BLESS", Some("1")), ("KGM_GOLDEN_FROZEN", Some("1"))],
            || catch_unwind(AssertUnwindSafe(|| assert_snapshot(&p, "x"))).unwrap_err(),
        );
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("forbidden in CI"), "{msg}");
        assert!(!p.exists(), "frozen bless must not write the golden");
        // …and a missing golden is an error, not a silent create.
        let err = with_env(
            &[("KGM_BLESS", None), ("KGM_GOLDEN_FROZEN", Some("1"))],
            || catch_unwind(AssertUnwindSafe(|| assert_snapshot(&p, "x"))).unwrap_err(),
        );
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cannot read golden"), "{msg}");
    }

    #[test]
    fn diff_is_truncated_on_long_outputs() {
        let expected: String = (0..100).map(|i| format!("e{i}\n")).collect();
        let actual: String = (0..100).map(|i| format!("a{i}\n")).collect();
        let d = line_diff(&expected, &actual);
        assert!(d.contains("diff truncated"));
        assert!(d.lines().count() <= 2 * 40 + 1);
    }
}

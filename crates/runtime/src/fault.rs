//! Deterministic fault injection — off by default, zero-dep like
//! [`crate::rng`] and [`crate::telemetry`].
//!
//! Production code marks *injection sites* with [`should_inject`] (or the
//! message-building convenience [`trip`]). A site fires only when the
//! process is armed, either through the environment:
//!
//! ```text
//! KGM_FAULT=<site>:<prob>:<seed>     # e.g. KGM_FAULT=chase.insert:0.05:42
//! ```
//!
//! or programmatically via [`set`] (tests). `<site>` names one injection
//! site (`*` arms every site), `<prob>` is the per-call injection
//! probability in `[0, 1]`, and `<seed>` makes the decision sequence
//! deterministic: the n-th check of a given site under a given seed always
//! produces the same verdict, regardless of wall clock or thread
//! interleaving of *other* sites. Arming (or re-arming) resets the call
//! counter, so a test can replay the exact same fault schedule twice.
//!
//! Known sites (grep for the literal to find the code path):
//!
//! | site           | layer       | effect when fired                         |
//! |----------------|-------------|-------------------------------------------|
//! | `chase.insert` | kgm-vadalog | `KgmError::Internal` from the insert loop |
//! | `chase.shard`  | kgm-vadalog | panic inside a shard worker (exercises `catch_unwind`) |
//! | `csv.import`   | kgm-pgstore | `KgmError::Internal` before parsing       |
//!
//! The disarmed fast path is one relaxed atomic load — cheap enough to sit
//! on the chase's per-fact insert path.

use crate::rng::split_mix64;
use crate::sync::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// One armed fault: a site pattern, a per-call probability and the seed of
/// the deterministic decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Injection-site name, or `*` to match every site.
    pub site: String,
    /// Per-call injection probability in `[0, 1]`.
    pub prob: f64,
    /// Seed of the decision stream (same seed ⇒ same verdict sequence).
    pub seed: u64,
}

impl FaultConfig {
    /// Parse the `KGM_FAULT` spec `<site>:<prob>:<seed>`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "expected <site>:<prob>:<seed>, got {} field(s) in `{spec}`",
                parts.len()
            ));
        }
        let site = parts[0].trim();
        if site.is_empty() {
            return Err("empty site name".to_string());
        }
        let prob: f64 = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad probability `{}`", parts[1]))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("probability {prob} outside [0, 1]"));
        }
        let seed: u64 = parts[2]
            .trim()
            .parse()
            .map_err(|_| format!("bad seed `{}`", parts[2]))?;
        Ok(FaultConfig {
            site: site.to_string(),
            prob,
            seed,
        })
    }
}

/// Fast disarmed-path gate: checked before anything else.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The armed config (read under `ARMED`).
static CONFIG: RwLock<Option<FaultConfig>> = RwLock::new(None);
/// Per-arming call counter driving the deterministic decision stream.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Process-lifetime totals (monotonic; callers take deltas).
static CHECKED: AtomicU64 = AtomicU64::new(0);
static INJECTED: AtomicU64 = AtomicU64::new(0);
/// One-shot environment initialization ([`set`] pre-empts it).
static INIT: OnceLock<()> = OnceLock::new();

fn ensure_env_init() {
    INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("KGM_FAULT") {
            let spec = spec.trim();
            if !spec.is_empty() {
                match FaultConfig::parse(spec) {
                    Ok(cfg) => apply(Some(cfg)),
                    Err(e) => eprintln!("KGM_FAULT ignored: {e}"),
                }
            }
        }
    });
}

fn apply(cfg: Option<FaultConfig>) {
    // Order matters: publish the config before flipping the gate on, and
    // flip it off before clearing, so readers never see an armed gate with
    // no config.
    if cfg.is_none() {
        ARMED.store(false, Ordering::Release);
    }
    CALLS.store(0, Ordering::Relaxed);
    let armed = cfg.is_some();
    *CONFIG.write() = cfg;
    if armed {
        ARMED.store(true, Ordering::Release);
    }
}

/// Arm (`Some`) or disarm (`None`) fault injection for the whole process,
/// overriding any `KGM_FAULT` environment spec. Re-arming resets the call
/// counter, so the decision stream replays identically.
pub fn set(cfg: Option<FaultConfig>) {
    let _ = INIT.set(()); // suppress a later env re-initialization
    apply(cfg);
}

/// Total site checks made while armed (process lifetime, monotonic).
pub fn checked_total() -> u64 {
    CHECKED.load(Ordering::Relaxed)
}

/// Total faults injected (process lifetime, monotonic).
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Should the fault at `site` fire now? Deterministic given the armed
/// `(site, prob, seed)` and the number of matching checks so far.
pub fn should_inject(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        ensure_env_init();
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
    }
    let guard = CONFIG.read();
    let Some(cfg) = guard.as_ref() else {
        return false;
    };
    if cfg.site != "*" && cfg.site != site {
        return false;
    }
    CHECKED.fetch_add(1, Ordering::Relaxed);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    // Independent draw per call: mix seed, site and call index through
    // split_mix64 and compare the top 53 bits against the probability.
    let mut state = cfg
        .seed
        .wrapping_add(site_hash(site))
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let draw = (split_mix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    let fire = draw < cfg.prob;
    if fire {
        INJECTED.fetch_add(1, Ordering::Relaxed);
        crate::telemetry::counter_add("fault.injected", 1);
    }
    fire
}

/// [`should_inject`] plus the canonical error message: `Some("injected
/// fault at <site>")` when the site fires. Callers wrap the message in
/// their layer's error type.
pub fn trip(site: &str) -> Option<String> {
    should_inject(site).then(|| format!("injected fault at {site}"))
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a, enough to decorrelate site names in the seed mix.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    /// The armed config is process-global; tests that arm it must not
    /// interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let cfg = FaultConfig::parse("chase.insert:0.25:42").unwrap();
        assert_eq!(cfg.site, "chase.insert");
        assert!((cfg.prob - 0.25).abs() < 1e-12);
        assert_eq!(cfg.seed, 42);
        assert_eq!(FaultConfig::parse("*:1:0").unwrap().site, "*");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultConfig::parse("").is_err());
        assert!(FaultConfig::parse("site:0.5").is_err(), "missing seed");
        assert!(FaultConfig::parse("site:1.5:1").is_err(), "prob > 1");
        assert!(FaultConfig::parse("site:-0.1:1").is_err(), "prob < 0");
        assert!(FaultConfig::parse("site:x:1").is_err(), "non-numeric prob");
        assert!(
            FaultConfig::parse("site:0.5:x").is_err(),
            "non-numeric seed"
        );
        assert!(FaultConfig::parse(":0.5:1").is_err(), "empty site");
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = LOCK.lock();
        set(None);
        for _ in 0..1000 {
            assert!(!should_inject("chase.insert"));
        }
        assert!(trip("chase.insert").is_none());
    }

    #[test]
    fn probability_bounds_are_exact() {
        let _g = LOCK.lock();
        set(Some(FaultConfig::parse("s:0:7").unwrap()));
        assert!((0..500).all(|_| !should_inject("s")), "prob 0 never fires");
        set(Some(FaultConfig::parse("s:1:7").unwrap()));
        assert!((0..500).all(|_| should_inject("s")), "prob 1 always fires");
        set(None);
    }

    #[test]
    fn decision_stream_is_deterministic_and_site_scoped() {
        let _g = LOCK.lock();
        let arm = || set(Some(FaultConfig::parse("s:0.3:99").unwrap()));
        arm();
        let a: Vec<bool> = (0..200).map(|_| should_inject("s")).collect();
        arm(); // re-arming resets the call counter
        let b: Vec<bool> = (0..200).map(|_| should_inject("s")).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&x| x), "prob 0.3 over 200 calls should fire");
        assert!(!a.iter().all(|&x| x), "…but not every time");
        // A different site never fires under a site-scoped config.
        arm();
        assert!((0..200).all(|_| !should_inject("other")));
        // The wildcard site arms everything.
        set(Some(FaultConfig::parse("*:1:1").unwrap()));
        assert!(should_inject("anything"));
        assert_eq!(
            trip("x").as_deref(),
            Some("injected fault at x"),
            "trip builds the canonical message"
        );
        set(None);
    }

    #[test]
    fn counters_accumulate() {
        let _g = LOCK.lock();
        set(Some(FaultConfig::parse("c:1:5").unwrap()));
        let (c0, i0) = (checked_total(), injected_total());
        for _ in 0..10 {
            should_inject("c");
        }
        assert_eq!(checked_total() - c0, 10);
        assert_eq!(injected_total() - i0, 10);
        set(None);
    }
}

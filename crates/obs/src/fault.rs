//! Deterministic, scenario-scriptable fault injection.
//!
//! Production code is sprinkled with *named fault sites* — single calls to
//! [`check`] at the exact point where an I/O operation can fail in the real
//! world (`wal.fsync`, `page.read`, `net.connect`, …). When injection is
//! disabled (the default) a site costs one relaxed atomic load and nothing
//! else; no rules are parsed, no locks are taken. When a *fault spec* is
//! installed via [`configure`] (or [`configure_from_env`] reading the
//! `FAULT_SPEC` environment variable, surfaced as `simrank-serve
//! --fault-spec`), matching sites fire scripted failures deterministically.
//!
//! # Spec grammar
//!
//! A spec is a `;`-separated list of rules. Each rule is
//!
//! ```text
//! SITE=TRIGGER[:N][:ACTION[:ARG]]
//! ```
//!
//! * `SITE` — one of the constants in [`sites`] (unknown names are rejected
//!   so typos fail fast).
//! * `TRIGGER` — when the rule fires, counted per rule over that rule's own
//!   hits of the site:
//!   * `always` — every hit.
//!   * `nth:N` — exactly the N-th hit (1-based), once.
//!   * `every:N` — every N-th hit (the N-th, 2N-th, …).
//!   * `after:N` — every hit after the first N.
//!   * `prob:F` — each hit independently with probability `F` (`0.0..=1.0`),
//!     drawn from a seeded [SplitMix64] stream so runs are reproducible.
//! * `ACTION` — what firing does (default `error`):
//!   * `error` — the site reports an injected I/O failure.
//!   * `torn` — like `error`, but the caller is asked to model a *torn*
//!     operation (e.g. a partially persisted WAL frame, as after power loss
//!     mid-write). Only meaningful at sites that document support for it.
//!   * `delay:MS` — sleep `MS` milliseconds, then let the operation proceed
//!     (and keep evaluating later rules for the same site).
//! * The pseudo-rule `seed=N` seeds the `prob` RNG (default seed `0`).
//!
//! Example: `wal.fsync=every:7:torn;page.read=prob:0.01;seed=42`.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Canonical fault-site names. Production code passes these to [`check`];
/// specs reference them on the left-hand side of rules.
pub mod sites {
    /// The WAL append's `fsync` (durability point of a commit). Supports the
    /// `torn` action: the store leaves a partial frame on disk, modelling
    /// power loss mid-append.
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// Snapshot file creation/write (the `snapshot-<epoch>.snap.tmp` file).
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// A page read from an `epoch-<N>.pages` file into the buffer pool.
    pub const PAGE_READ: &str = "page.read";
    /// Page checksum verification — firing reports the page as corrupt
    /// even though the bytes on disk are fine (bit-rot modelling).
    pub const PAGE_CRC: &str = "page.crc";
    /// Establishing a TCP connection to a remote shard.
    pub const NET_CONNECT: &str = "net.connect";
    /// Reading a reply line from a remote shard.
    pub const NET_READ: &str = "net.read";
    /// Sending a request line to a remote shard.
    pub const NET_WRITE: &str = "net.write";
}

/// Every site name accepted in a spec, used to reject typos at parse time.
const KNOWN_SITES: &[&str] = &[
    sites::WAL_FSYNC,
    sites::SNAPSHOT_WRITE,
    sites::PAGE_READ,
    sites::PAGE_CRC,
    sites::NET_CONNECT,
    sites::NET_READ,
    sites::NET_WRITE,
];

/// How a fired fault should fail, as seen by the instrumented call site.
///
/// `delay` actions never surface here — [`check`] sleeps internally and the
/// operation proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Fail the operation with an injected error.
    Error,
    /// Fail the operation *and* leave it partially applied (torn write).
    /// Sites that don't document torn support treat this as [`Failure::Error`].
    Torn,
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    Always,
    Nth(u64),
    Every(u64),
    After(u64),
    Prob(f64),
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Error,
    Torn,
    Delay(Duration),
}

struct Rule {
    site: &'static str,
    trigger: Trigger,
    action: Action,
    hits: AtomicU64,
}

struct Plan {
    rules: Vec<Rule>,
    rng: u64,
}

/// Fast-path gate: one relaxed load when injection is off.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn intern_site(name: &str) -> Option<&'static str> {
    KNOWN_SITES.iter().copied().find(|s| *s == name)
}

fn parse_rule(rule: &str) -> Result<Rule, String> {
    let (site_name, value) = rule
        .split_once('=')
        .ok_or_else(|| format!("fault rule '{rule}' is missing '='"))?;
    let site = intern_site(site_name.trim())
        .ok_or_else(|| format!("unknown fault site '{}'", site_name.trim()))?;
    let mut parts = value.trim().split(':');
    let trigger_name = parts.next().unwrap_or("");
    let mut arg = |what: &str| {
        parts
            .next()
            .ok_or_else(|| format!("trigger '{trigger_name}' at {site} needs a {what} argument"))
    };
    let trigger = match trigger_name {
        "always" => Trigger::Always,
        "nth" | "every" | "after" => {
            let n: u64 = arg("count")?
                .parse()
                .map_err(|_| format!("bad count in fault rule '{rule}'"))?;
            if n == 0 && trigger_name != "after" {
                return Err(format!("count must be >= 1 in fault rule '{rule}'"));
            }
            match trigger_name {
                "nth" => Trigger::Nth(n),
                "every" => Trigger::Every(n),
                _ => Trigger::After(n),
            }
        }
        "prob" => {
            let p: f64 = arg("probability")?
                .parse()
                .map_err(|_| format!("bad probability in fault rule '{rule}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability out of [0,1] in fault rule '{rule}'"));
            }
            Trigger::Prob(p)
        }
        other => return Err(format!("unknown fault trigger '{other}' in rule '{rule}'")),
    };
    let action = match parts.next() {
        None => Action::Error,
        Some("error") => Action::Error,
        Some("torn") => Action::Torn,
        Some("delay") => {
            let ms: u64 = parts
                .next()
                .ok_or_else(|| format!("delay action needs ':MS' in fault rule '{rule}'"))?
                .parse()
                .map_err(|_| format!("bad delay milliseconds in fault rule '{rule}'"))?;
            Action::Delay(Duration::from_millis(ms))
        }
        Some(other) => return Err(format!("unknown fault action '{other}' in rule '{rule}'")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("trailing ':{extra}' in fault rule '{rule}'"));
    }
    Ok(Rule {
        site,
        trigger,
        action,
        hits: AtomicU64::new(0),
    })
}

/// Parse `spec` and install it as the process-wide fault plan, enabling
/// injection. An empty (or all-whitespace) spec is equivalent to [`reset`].
///
/// # Errors
///
/// Returns a human-readable message if any rule fails to parse; the
/// previously installed plan (if any) is left untouched in that case.
pub fn configure(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    let mut seed = 0u64;
    for rule in spec.split(';') {
        let rule = rule.trim();
        if rule.is_empty() {
            continue;
        }
        if let Some(value) = rule.strip_prefix("seed=") {
            seed = value
                .trim()
                .parse()
                .map_err(|_| format!("bad seed in fault rule '{rule}'"))?;
            continue;
        }
        rules.push(parse_rule(rule)?);
    }
    let mut plan = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    if rules.is_empty() {
        *plan = None;
        ENABLED.store(false, Ordering::Relaxed);
    } else {
        *plan = Some(Plan { rules, rng: seed });
        ENABLED.store(true, Ordering::Relaxed);
    }
    Ok(())
}

/// Install a fault plan from the `FAULT_SPEC` environment variable, if set.
///
/// # Errors
///
/// Propagates [`configure`]'s parse errors; absent/empty `FAULT_SPEC` is Ok.
pub fn configure_from_env() -> Result<(), String> {
    match std::env::var("FAULT_SPEC") {
        Ok(spec) => configure(&spec),
        Err(_) => Ok(()),
    }
}

/// Remove any installed fault plan and disable injection.
pub fn reset() {
    let mut plan = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *plan = None;
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether a fault plan is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Evaluate one hit of the named fault site.
///
/// Returns `None` when the operation should proceed normally — always the
/// case when injection is disabled, at the cost of a single relaxed atomic
/// load. `delay` actions sleep here and then fall through to later rules, so
/// callers only ever observe [`Failure::Error`] / [`Failure::Torn`].
pub fn check(site: &str) -> Option<Failure> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let mut delay = None;
    {
        let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let plan = guard.as_mut()?;
        let mut fired = None;
        for rule in &plan.rules {
            if rule.site != site {
                continue;
            }
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
            let fires = match rule.trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => hit == n,
                Trigger::Every(n) => hit % n == 0,
                Trigger::After(n) => hit > n,
                Trigger::Prob(p) => {
                    let draw = splitmix64(&mut plan.rng) >> 11;
                    (draw as f64) < p * (1u64 << 53) as f64
                }
            };
            if !fires {
                continue;
            }
            match rule.action {
                Action::Error => fired = Some(Failure::Error),
                Action::Torn => fired = Some(Failure::Torn),
                Action::Delay(d) => {
                    delay = Some(delay.map_or(d, |acc: Duration| acc + d));
                    continue;
                }
            }
            break;
        }
        if let Some(failure) = fired {
            if let Some(d) = delay {
                drop(guard);
                std::thread::sleep(d);
            }
            return Some(failure);
        }
    }
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    None
}

/// Total hits recorded for `site` across all rules (0 when disabled or the
/// site has no rules). Useful for harness assertions.
pub fn hits(site: &str) -> u64 {
    let plan = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    plan.as_ref().map_or(0, |p| {
        p.rules
            .iter()
            .filter(|r| r.site == site)
            .map(|r| r.hits.load(Ordering::Relaxed))
            .sum()
    })
}

/// Build an `io::Error` for an injected failure at `site`, tagged so it is
/// recognisable in logs and assertions.
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` runs tests in threads,
    // so every test that installs a plan serialises on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = guard();
        reset();
        assert!(!enabled());
        assert_eq!(check(sites::WAL_FSYNC), None);
        assert_eq!(hits(sites::WAL_FSYNC), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _g = guard();
        configure("wal.fsync=nth:3").unwrap();
        assert_eq!(check(sites::WAL_FSYNC), None);
        assert_eq!(check(sites::WAL_FSYNC), None);
        assert_eq!(check(sites::WAL_FSYNC), Some(Failure::Error));
        assert_eq!(check(sites::WAL_FSYNC), None);
        assert_eq!(hits(sites::WAL_FSYNC), 4);
        reset();
    }

    #[test]
    fn every_fires_periodically_with_action() {
        let _g = guard();
        configure("wal.fsync=every:2:torn").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| check(sites::WAL_FSYNC).is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(check(sites::WAL_FSYNC), None);
        assert_eq!(check(sites::WAL_FSYNC), Some(Failure::Torn));
        reset();
    }

    #[test]
    fn after_fires_on_every_later_hit() {
        let _g = guard();
        configure("page.read=after:2").unwrap();
        assert_eq!(check(sites::PAGE_READ), None);
        assert_eq!(check(sites::PAGE_READ), None);
        assert_eq!(check(sites::PAGE_READ), Some(Failure::Error));
        assert_eq!(check(sites::PAGE_READ), Some(Failure::Error));
        reset();
    }

    #[test]
    fn prob_is_seeded_and_deterministic() {
        let _g = guard();
        let run = |seed: u64| -> Vec<bool> {
            configure(&format!("net.read=prob:0.5;seed={seed}")).unwrap();
            let out = (0..64).map(|_| check(sites::NET_READ).is_some()).collect();
            reset();
            out
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must reproduce the same firing pattern");
        assert_ne!(a, c, "different seeds should diverge");
        let fires = a.iter().filter(|f| **f).count();
        assert!((16..=48).contains(&fires), "p=0.5 wildly off: {fires}/64");
    }

    #[test]
    fn prob_extremes_never_and_always_fire() {
        let _g = guard();
        configure("net.write=prob:0.0;net.connect=prob:1.0").unwrap();
        for _ in 0..32 {
            assert_eq!(check(sites::NET_WRITE), None);
            assert_eq!(check(sites::NET_CONNECT), Some(Failure::Error));
        }
        reset();
    }

    #[test]
    fn sites_are_independent() {
        let _g = guard();
        configure("wal.fsync=always").unwrap();
        assert_eq!(check(sites::SNAPSHOT_WRITE), None);
        assert_eq!(check(sites::WAL_FSYNC), Some(Failure::Error));
        reset();
    }

    #[test]
    fn delay_falls_through_to_later_rules() {
        let _g = guard();
        configure("net.read=always:delay:1;net.read=nth:2").unwrap();
        let before = std::time::Instant::now();
        assert_eq!(check(sites::NET_READ), None);
        assert_eq!(check(sites::NET_READ), Some(Failure::Error));
        assert!(before.elapsed() >= Duration::from_millis(2));
        reset();
    }

    #[test]
    fn empty_spec_disables() {
        let _g = guard();
        configure("wal.fsync=always").unwrap();
        assert!(enabled());
        configure("  ").unwrap();
        assert!(!enabled());
    }

    #[test]
    fn bad_specs_are_rejected_and_leave_plan_untouched() {
        let _g = guard();
        configure("wal.fsync=nth:1").unwrap();
        for bad in [
            "wal.fsync",                // missing '='
            "bogus.site=always",        // unknown site
            "wal.fsync=sometimes",      // unknown trigger
            "wal.fsync=nth",            // missing count
            "wal.fsync=nth:0",          // zero count
            "wal.fsync=nth:x",          // non-numeric count
            "wal.fsync=prob:1.5",       // probability out of range
            "wal.fsync=always:explode", // unknown action
            "wal.fsync=always:delay",   // delay without ms
            "wal.fsync=always:error:9", // trailing junk
            "seed=zebra",               // bad seed
        ] {
            assert!(configure(bad).is_err(), "spec '{bad}' should be rejected");
        }
        // The good plan survived all the failed installs.
        assert_eq!(check(sites::WAL_FSYNC), Some(Failure::Error));
        reset();
    }

    #[test]
    fn injected_errors_are_tagged() {
        let err = injected_io_error(sites::PAGE_READ);
        assert!(err.to_string().contains("injected fault at page.read"));
    }
}

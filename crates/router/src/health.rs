//! Per-shard health tracking: the closed → open → half-open circuit breaker.
//!
//! Every shard the router fans out to gets one [`Breaker`]. The router asks
//! [`Breaker::allow`] before sending anything to the shard and reports the
//! outcome back with [`Breaker::record_success`] / [`Breaker::record_failure`]
//! — only *unavailability* counts as failure (connect/read errors, timeouts);
//! a malformed reply is a bug to surface, not an outage to route around.
//!
//! State machine:
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ───────────────────────────────────▶ Open
//!     ▲                                          │ cool-down expires
//!     │ trial succeeds                           ▼ (exponential backoff
//!     └────────────────────────────────────── HalfOpen     + jitter)
//!                    trial fails: back to Open, backoff doubled
//! ```
//!
//! While `Open`, every [`Breaker::allow`] fails fast — a down shard costs
//! the router a memory read instead of a connect timeout per request. When
//! the cool-down expires the breaker admits exactly **one** trial
//! ([`Admission::Trial`], `HalfOpen`); its outcome decides between closing
//! and re-opening with a doubled cool-down. A trial is always a `ping`: the
//! background prober ([`ShardRouter::start_health_probes`]) sends its own on
//! its own clock, so a shard heals even when no client traffic is flowing,
//! and a client request admitted as the trial is preceded by one, so it
//! never waits out a wedged shard's read deadline.
//!
//! [`ShardRouter::start_health_probes`]: crate::ShardRouter::start_health_probes
//!
//! Backoff is exponential (`backoff_base * 2^(opens-1)`, capped at
//! `backoff_max`) with ±20% deterministic jitter from a per-breaker seeded
//! generator, so a fleet of routers does not re-probe a recovering shard in
//! lockstep.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for every [`Breaker`] a router creates.
///
/// The defaults favor fast CI-visible transitions while staying sane in
/// production: 3 strikes, 200 ms first cool-down, 2 s cap, 500 ms probe
/// cadence.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive unavailability failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Cool-down after the first trip; doubles per consecutive re-open.
    pub backoff_base: Duration,
    /// Cool-down ceiling.
    pub backoff_max: Duration,
    /// Cadence of the background `ping` prober.
    pub probe_interval: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            backoff_base: Duration::from_millis(200),
            backoff_max: Duration::from_millis(2_000),
            probe_interval: Duration::from_millis(500),
        }
    }
}

/// The three breaker states, exported for stats and metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fail fast until the cool-down expires.
    Open,
    /// Cool-down expired: one trial request is in flight (or allowed).
    HalfOpen,
}

impl BreakerState {
    /// Stable wire name, used in `stats` and logs.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric gauge encoding: 0 closed, 1 half-open, 2 open (monotone in
    /// badness, so `max()` over shards is a fleet-health signal).
    pub fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// What [`Breaker::allow`] decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Closed: send the request.
    Pass,
    /// The cool-down expired and this caller holds the single half-open
    /// trial: it must `ping` the shard and report the outcome, which closes
    /// or re-opens the breaker.
    Trial,
    /// Open, or another trial is in flight: fail fast without sending.
    Refused,
}

/// If a half-open trial has not reported back after this long, assume its
/// thread died and admit another trial rather than wedging half-open.
const STALE_TRIAL: Duration = Duration::from_secs(90);

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Consecutive opens since the last close, drives the exponential.
    opens: u32,
    open_until: Instant,
    trial_started: Option<Instant>,
    rng: u64,
}

/// One shard's circuit breaker. All methods are cheap and thread-safe.
pub struct Breaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Breaker {
    /// A closed breaker. `seed` decorrelates jitter across breakers (the
    /// router passes the shard index).
    pub fn new(config: BreakerConfig, seed: u64) -> Self {
        Breaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opens: 0,
                open_until: Instant::now(),
                trial_started: None,
                rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
            }),
        }
    }

    /// Current cool-down for the n-th consecutive open (1-based):
    /// `base * 2^(n-1)` capped at `backoff_max`, jittered ±20%.
    fn cooldown(&self, inner: &mut BreakerInner) -> Duration {
        let doublings = inner.opens.saturating_sub(1).min(16);
        let raw = self
            .config
            .backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.config.backoff_max);
        // Jitter in [0.8, 1.2): 53-bit uniform draw scaled into the band.
        let unit = (splitmix64(&mut inner.rng) >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(0.8 + 0.4 * unit)
    }

    /// May a request be sent to this shard right now?
    ///
    /// Closed: [`Admission::Pass`]. Open: [`Admission::Refused`] until the
    /// cool-down expires — the expiring call itself transitions to half-open
    /// and is admitted as the single [`Admission::Trial`]. Half-open: a
    /// trial only if none is in flight.
    pub fn allow(&self) -> Admission {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        match inner.state {
            BreakerState::Closed => Admission::Pass,
            BreakerState::Open => {
                if now < inner.open_until {
                    return Admission::Refused;
                }
                inner.state = BreakerState::HalfOpen;
                inner.trial_started = Some(now);
                Admission::Trial
            }
            BreakerState::HalfOpen => match inner.trial_started {
                Some(started) if now.duration_since(started) < STALE_TRIAL => Admission::Refused,
                _ => {
                    inner.trial_started = Some(now);
                    Admission::Trial
                }
            },
        }
    }

    /// The shard answered (any protocol-level reply counts — even an error
    /// reply proves the process is alive and serving).
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.consecutive_failures = 0;
        inner.opens = 0;
        inner.trial_started = None;
        inner.state = BreakerState::Closed;
    }

    /// The shard was unavailable (connect/read failure or timeout).
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            // A failed trial re-opens immediately with a longer cool-down.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            inner.opens = inner.opens.saturating_add(1);
            inner.state = BreakerState::Open;
            inner.trial_started = None;
            let cooldown = self.cooldown(&mut inner);
            inner.open_until = Instant::now() + cooldown;
        }
    }

    /// The current state (for stats, metrics gauges, and probe decisions).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_millis(80),
            probe_interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = Breaker::new(fast_config(), 0);
        for _ in 0..2 {
            assert_eq!(b.allow(), Admission::Pass);
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.allow(), Admission::Pass);
    }

    #[test]
    fn success_resets_the_strike_count() {
        let b = Breaker::new(fast_config(), 1);
        b.record_failure();
        b.record_failure();
        b.record_success();
        assert_eq!(b.consecutive_failures(), 0);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn opens_at_threshold_and_fails_fast() {
        let b = Breaker::new(fast_config(), 2);
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.allow(), Admission::Refused, "open breaker must fail fast");
    }

    #[test]
    fn half_opens_after_cooldown_and_closes_on_success() {
        let b = Breaker::new(fast_config(), 3);
        for _ in 0..3 {
            b.record_failure();
        }
        // Cool-down for the first open is <= 80ms * 1.2.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(
            b.allow(),
            Admission::Trial,
            "expired cool-down admits one trial"
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(
            b.allow(),
            Admission::Refused,
            "only one trial while half-open"
        );
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.allow(), Admission::Pass);
    }

    #[test]
    fn failed_trial_reopens_with_longer_cooldown() {
        let b = Breaker::new(fast_config(), 4);
        for _ in 0..3 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(b.allow(), Admission::Trial);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Immediately after re-opening the (now doubled) cool-down holds.
        assert_eq!(b.allow(), Admission::Refused);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = fast_config();
        let b = Breaker::new(cfg, 5);
        let mut inner = b.inner.lock().unwrap();
        inner.opens = 1;
        let first = b.cooldown(&mut inner);
        inner.opens = 2;
        let second = b.cooldown(&mut inner);
        inner.opens = 30; // far past the cap
        let capped = b.cooldown(&mut inner);
        drop(inner);
        assert!(first >= Duration::from_millis(16) && first <= Duration::from_millis(24));
        assert!(second >= Duration::from_millis(32) && second <= Duration::from_millis(48));
        assert!(
            capped <= Duration::from_millis(96),
            "cap exceeded: {capped:?}"
        );
    }

    #[test]
    fn state_gauge_is_monotone_in_badness() {
        assert_eq!(BreakerState::Closed.gauge(), 0.0);
        assert_eq!(BreakerState::HalfOpen.gauge(), 1.0);
        assert_eq!(BreakerState::Open.gauge(), 2.0);
        assert_eq!(BreakerState::Open.name(), "open");
    }
}

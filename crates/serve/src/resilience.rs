//! Client-side resilience: retries with decorrelated-jitter backoff and
//! per-target circuit breaking over the framed TCP protocol.
//!
//! The [`RetryPolicy`] spaces attempts with *decorrelated jitter*
//! (`sleep = min(cap, uniform(base, prev * 3))`), which spreads retry
//! storms better than plain exponential backoff while still growing
//! geometrically in expectation. Jitter randomness derives from the
//! simulator's SplitMix64 ([`lite_sparksim::fault::mix64`]), so a fixed
//! seed reproduces an exact retry schedule.
//!
//! The [`CircuitBreaker`] is a windowed failure-rate breaker with the
//! classic three states: Closed (all traffic), Open (no traffic until a
//! cooldown passes), HalfOpen (a bounded probe quota decides whether the
//! target recovered). Every method takes an explicit `now: Instant`, so
//! tests — including the property tests — drive synthetic clocks instead
//! of sleeping.
//!
//! [`ResilientClient`] composes both over [`Client`]:
//! one breaker per target address, reconnect on torn frames or dead
//! connections, protocol-v2 negotiation on every fresh connection, and
//! retry across targets until the policy is exhausted.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use lite_sparksim::fault::{mix64, unit64};

use crate::client::{Client, ClientBuilder};
use crate::proto::{self, ErrorCode, PROTOCOL_VERSION};

// ---------------------------------------------------------------------------
// Retry with decorrelated jitter

/// Retry schedule: total attempts plus the backoff shape between them.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: usize,
    /// Smallest sleep between attempts.
    pub base: Duration,
    /// Largest sleep between attempts.
    pub cap: Duration,
    /// Seed for the jitter stream; a fixed seed reproduces the schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based), given the previous
    /// sleep: decorrelated jitter, `min(cap, uniform(base, prev * 3))`.
    /// Always within `[base, cap]` (assuming `base <= cap`; an inverted
    /// pair collapses to `cap`).
    pub fn backoff(&self, attempt: usize, prev: Duration) -> Duration {
        let cap = self.cap.max(self.base);
        let hi = prev.saturating_mul(3).clamp(self.base, cap);
        let u = unit64(mix64(self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        (self.base + hi.saturating_sub(self.base).mul_f64(u)).min(cap)
    }

    /// Run `op` until it succeeds or the attempts are exhausted, sleeping
    /// the jittered backoff between failures. `op` receives the 0-based
    /// attempt index.
    pub fn run<T, E>(&self, mut op: impl FnMut(usize) -> Result<T, E>) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut prev = self.base;
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= attempts => return Err(e),
                Err(_) => {
                    let d = self.backoff(attempt, prev);
                    prev = d;
                    std::thread::sleep(d);
                    attempt += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Outcomes in the rolling failure-rate window.
    pub window: usize,
    /// Outcomes required before the breaker may open (avoids opening on
    /// the first failure of a cold window).
    pub min_samples: usize,
    /// Open when the windowed failure rate reaches this fraction.
    pub failure_threshold: f64,
    /// How long an Open breaker blocks before admitting probes.
    pub cooldown: Duration,
    /// Requests admitted in HalfOpen before a verdict: all must succeed
    /// to close; any failure reopens.
    pub probe_quota: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown: Duration::from_millis(200),
            probe_quota: 2,
        }
    }
}

/// The breaker's admission state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally; outcomes feed the failure window.
    Closed,
    /// Rejecting everything until the cooldown elapses.
    Open,
    /// Admitting up to `probe_quota` probes to test recovery.
    HalfOpen,
}

/// Lifetime transition counts (for assertions and operator visibility).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Closed/HalfOpen → Open.
    pub opened: u64,
    /// Open → HalfOpen.
    pub half_opened: u64,
    /// HalfOpen → Closed (all probes succeeded).
    pub closed: u64,
}

/// A windowed failure-rate circuit breaker. All methods take an explicit
/// `now` so tests can drive a synthetic clock; production callers pass
/// `Instant::now()`.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Rolling outcome window, `true` = failure.
    window: VecDeque<bool>,
    opened_at: Option<Instant>,
    /// Probes admitted since entering HalfOpen.
    probes_admitted: usize,
    /// Probe successes since entering HalfOpen.
    probe_successes: usize,
    transitions: BreakerTransitions,
}

impl CircuitBreaker {
    /// A Closed breaker with an empty window.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            opened_at: None,
            probes_admitted: 0,
            probe_successes: 0,
            transitions: BreakerTransitions::default(),
        }
    }

    /// Current state, after applying any cooldown expiry at `now` (an Open
    /// breaker past its cooldown reports HalfOpen only once `allow` runs;
    /// this accessor is side-effect free).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime transition counts.
    pub fn transitions(&self) -> BreakerTransitions {
        self.transitions
    }

    /// Windowed failure rate in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().filter(|&&f| f).count() as f64 / self.window.len() as f64
    }

    /// May a request proceed at `now`? Open→HalfOpen happens here once
    /// the cooldown elapses; HalfOpen admits at most `probe_quota`
    /// requests until their outcomes arrive.
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let expired =
                    self.opened_at.is_some_and(|at| now.duration_since(at) >= self.config.cooldown);
                if !expired {
                    return false;
                }
                self.state = BreakerState::HalfOpen;
                self.transitions.half_opened += 1;
                self.probes_admitted = 0;
                self.probe_successes = 0;
                self.admit_probe()
            }
            BreakerState::HalfOpen => self.admit_probe(),
        }
    }

    fn admit_probe(&mut self) -> bool {
        if self.probes_admitted < self.config.probe_quota.max(1) {
            self.probes_admitted += 1;
            true
        } else {
            false
        }
    }

    /// Report a successful outcome.
    pub fn on_success(&mut self, _now: Instant) {
        match self.state {
            BreakerState::Closed => self.push_outcome(false),
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.probe_quota.max(1) {
                    // Every probe came back healthy: close with a clean
                    // window so stale failures cannot instantly reopen.
                    self.state = BreakerState::Closed;
                    self.transitions.closed += 1;
                    self.window.clear();
                    self.opened_at = None;
                }
            }
            // A success finishing after the breaker reopened carries no
            // signal about the *current* outage.
            BreakerState::Open => {}
        }
    }

    /// Report a failed outcome; may open the breaker.
    pub fn on_failure(&mut self, now: Instant) {
        match self.state {
            BreakerState::Closed => {
                self.push_outcome(true);
                if self.window.len() >= self.config.min_samples.max(1)
                    && self.failure_rate() >= self.config.failure_threshold
                {
                    self.trip(now);
                }
            }
            // Any probe failure means the target has not recovered.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.transitions.opened += 1;
        self.opened_at = Some(now);
        self.probes_admitted = 0;
        self.probe_successes = 0;
    }

    fn push_outcome(&mut self, failed: bool) {
        if self.window.len() >= self.config.window.max(1) {
            self.window.pop_front();
        }
        self.window.push_back(failed);
    }
}

// ---------------------------------------------------------------------------
// Resilient client

/// Why a [`ResilientClient`] request ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a non-retryable rejection (bad request,
    /// cold app): retrying the same request cannot help.
    Rejected(ErrorCode),
    /// Every attempt failed. `last` is the final wire error code, or
    /// `None` when the last failure was transport-level (torn frame,
    /// refused connection) or an open breaker.
    Exhausted {
        /// Attempts made.
        attempts: usize,
        /// Last structured wire error, if the transport survived.
        last: Option<ErrorCode>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(code) => write!(f, "rejected: {}", code.name()),
            ClientError::Exhausted { attempts, last: Some(code) } => {
                write!(f, "exhausted after {attempts} attempts (last: {})", code.name())
            }
            ClientError::Exhausted { attempts, last: None } => {
                write!(f, "exhausted after {attempts} attempts (transport failures)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

struct Target {
    addr: SocketAddr,
    breaker: CircuitBreaker,
    conn: Option<Client>,
}

/// A retrying, circuit-breaking, reconnecting client over the framed
/// protocol. Holds one breaker and one (lazily re-established, v2
/// negotiated) connection per target address.
pub struct ResilientClient {
    targets: Vec<Target>,
    policy: RetryPolicy,
    /// Rotates the starting target so load spreads when several are
    /// healthy.
    cursor: usize,
}

impl ResilientClient {
    /// A client over one or more equivalent targets.
    pub fn new(
        addrs: Vec<SocketAddr>,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) -> ResilientClient {
        ResilientClient {
            targets: addrs
                .into_iter()
                .map(|addr| Target {
                    addr,
                    breaker: CircuitBreaker::new(breaker.clone()),
                    conn: None,
                })
                .collect(),
            policy,
            cursor: 0,
        }
    }

    /// A client over a single target.
    pub fn single(
        addr: SocketAddr,
        policy: RetryPolicy,
        breaker: BreakerConfig,
    ) -> ResilientClient {
        ResilientClient::new(vec![addr], policy, breaker)
    }

    /// The breaker state per target, in construction order.
    pub fn breaker_states(&self) -> Vec<(SocketAddr, BreakerState)> {
        self.targets.iter().map(|t| (t.addr, t.breaker.state())).collect()
    }

    /// Transition counts summed across targets.
    pub fn breaker_transitions(&self) -> BreakerTransitions {
        let mut sum = BreakerTransitions::default();
        for t in &self.targets {
            sum.opened += t.breaker.transitions().opened;
            sum.half_opened += t.breaker.transitions().half_opened;
            sum.closed += t.breaker.transitions().closed;
        }
        sum
    }

    /// Issue one typed request with retries, backoff, reconnection, and
    /// circuit breaking. A structured [`proto::Response::Error`] either
    /// counts against the retry budget (retryable codes) or surfaces
    /// immediately as [`ClientError::Rejected`] (bad request, cold app);
    /// transport failures drop the connection and reconnect next attempt.
    pub fn call(&mut self, request: &proto::Request) -> Result<proto::Response, ClientError> {
        self.run_attempts(|conn| {
            let resp = conn.call(request).map_err(|_| Attempt::Transport)?;
            match resp {
                proto::Response::Error { code, .. } => Err(Attempt::classify(code)),
                ok => Ok(ok),
            }
        })
    }

    /// The shared attempt loop: backoff between attempts, breaker-gated
    /// round-robin target choice, lazy (re)connection, and breaker
    /// feedback driven by how `once` fails.
    fn run_attempts<T>(
        &mut self,
        mut once: impl FnMut(&mut Client) -> Result<T, Attempt>,
    ) -> Result<T, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut prev = self.policy.base;
        let mut last_code: Option<ErrorCode> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let d = self.policy.backoff(attempt - 1, prev);
                prev = d;
                std::thread::sleep(d);
            }
            let now = Instant::now();
            let Some(idx) = self.pick_target(now) else {
                // Every breaker is open: count the attempt, wait, retry —
                // a cooldown may expire before the policy is exhausted.
                continue;
            };
            let outcome = Self::connect_target(&mut self.targets[idx]).and_then(&mut once);
            match outcome {
                Ok(value) => {
                    self.targets[idx].breaker.on_success(Instant::now());
                    return Ok(value);
                }
                Err(Attempt::Transport) => {
                    // Torn frame, dead or refused connection: the session
                    // is unusable; reconnect on the next attempt.
                    self.targets[idx].conn = None;
                    self.targets[idx].breaker.on_failure(Instant::now());
                }
                Err(Attempt::Retryable(code)) => {
                    last_code = Some(code);
                    self.targets[idx].breaker.on_failure(Instant::now());
                }
                Err(Attempt::Fatal(code)) => {
                    // The service is healthy — the request itself was
                    // refused. Feed the breaker a success and stop.
                    self.targets[idx].breaker.on_success(Instant::now());
                    return Err(ClientError::Rejected(code));
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last: last_code })
    }

    /// The next target whose breaker admits a request, round-robin.
    fn pick_target(&mut self, now: Instant) -> Option<usize> {
        let n = self.targets.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if self.targets[idx].breaker.allow(now) {
                self.cursor = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Ensure `target` holds a live, negotiated connection and borrow it.
    fn connect_target(target: &mut Target) -> Result<&mut Client, Attempt> {
        if target.conn.is_none() {
            // The JSON envelope, on every fresh connection: the chaos
            // scenario's committed numbers are of this path.
            let client = ClientBuilder::new()
                .protocol(PROTOCOL_VERSION)
                .connect(target.addr)
                .map_err(|_| Attempt::Transport)?;
            target.conn = Some(client);
        }
        target.conn.as_mut().ok_or(Attempt::Transport)
    }
}

/// One attempt's failure mode (internal).
enum Attempt {
    /// Connection-level failure; reconnect next time.
    Transport,
    /// Structured error worth retrying (overload, deadline, shutdown...).
    Retryable(ErrorCode),
    /// Structured error retrying cannot fix.
    Fatal(ErrorCode),
}

impl Attempt {
    /// Sort a structured error code into retryable vs fatal.
    fn classify(code: ErrorCode) -> Attempt {
        match code {
            ErrorCode::BadRequest | ErrorCode::ColdApp => Attempt::Fatal(code),
            retryable => Attempt::Retryable(retryable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown: Duration::from_millis(50),
            probe_quota: 2,
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(t0));
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Open, "2/2 failures past min_samples");
        assert!(!b.allow(t0), "open rejects immediately");
        assert!(!b.allow(t0 + Duration::from_millis(49)), "open rejects inside cooldown");
        let t1 = t0 + Duration::from_millis(51);
        assert!(b.allow(t1), "cooldown expiry admits the first probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allow(t1), "second probe within quota");
        assert!(!b.allow(t1), "quota exhausted until outcomes arrive");
        b.on_success(t1);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one of two probes back");
        b.on_success(t1);
        assert_eq!(b.state(), BreakerState::Closed, "all probes healthy");
        let tr = b.transitions();
        assert_eq!((tr.opened, tr.half_opened, tr.closed), (1, 1, 1));
    }

    #[test]
    fn halfopen_failure_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        b.on_failure(t0);
        b.on_failure(t0);
        let t1 = t0 + Duration::from_millis(60);
        assert!(b.allow(t1));
        b.on_failure(t1);
        assert_eq!(b.state(), BreakerState::Open, "probe failure reopens");
        assert!(!b.allow(t1 + Duration::from_millis(49)), "cooldown restarted from reopen");
        assert!(b.allow(t1 + Duration::from_millis(51)));
        assert_eq!(b.transitions().opened, 2);
    }

    #[test]
    fn below_threshold_failures_keep_the_breaker_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig { failure_threshold: 0.9, ..cfg() });
        let t0 = Instant::now();
        for i in 0..20 {
            if i % 2 == 0 {
                b.on_failure(t0);
            } else {
                b.on_success(t0);
            }
            assert_eq!(b.state(), BreakerState::Closed, "50% < 90% threshold");
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let p = RetryPolicy::default();
        let q = RetryPolicy::default();
        let mut prev = p.base;
        for attempt in 0..12 {
            let a = p.backoff(attempt, prev);
            let b = q.backoff(attempt, prev);
            assert_eq!(a, b, "same seed, same schedule");
            prev = a;
        }
        let shifted = RetryPolicy { seed: 1, ..RetryPolicy::default() };
        let differs = (0..12).any(|i| shifted.backoff(i, p.base) != p.backoff(i, p.base));
        assert!(differs, "different seeds should jitter differently");
    }

    #[test]
    fn retry_run_stops_on_success_and_exhausts_on_failure() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            seed: 7,
        };
        let mut calls = 0;
        let ok: Result<u32, ()> = p.run(|attempt| {
            calls += 1;
            if attempt == 1 {
                Ok(42)
            } else {
                Err(())
            }
        });
        assert_eq!(ok, Ok(42));
        assert_eq!(calls, 2);

        let mut calls = 0;
        let err: Result<(), u32> = p.run(|_| {
            calls += 1;
            Err(calls)
        });
        assert_eq!(err, Err(3), "last error surfaces after all attempts");
    }
}

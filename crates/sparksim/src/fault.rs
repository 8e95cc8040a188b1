//! Deterministic, seedable fault injection.
//!
//! A [`FaultInjector`] is a shared, thread-safe decision oracle: callers at
//! well-known *fault points* ask "does fault `kind` fire for key `key`?"
//! and the answer is a pure function of `(injector seed, kind, key)` — the
//! same seeded injector wounds a run the same way every time, independent
//! of thread interleaving at unrelated fault points. That is what makes a
//! chaos scenario debuggable: a failure found under seed 7 is reproduced
//! under seed 7.
//!
//! The taxonomy (see DESIGN.md "Resilience"):
//!
//! * **service wounds** — [`FaultKind::UpdaterPanic`] (the background
//!   retrainer dies mid-update), [`FaultKind::SwapDelay`] /
//!   [`FaultKind::SwapFail`] (slow or aborted snapshot publication),
//!   [`FaultKind::ScoreFail`] (NECS scoring unavailable),
//!   [`FaultKind::TornFrame`] (a TCP response is cut mid-frame and the
//!   connection dropped) and [`FaultKind::RequestDelay`] (injected request
//!   latency);
//! * **input wounds** — [`mutate_bytes`], the seeded byte mutator the soak
//!   tests drive over every input boundary (wire frames, index files, JSONL).
//!
//! Fault points read an `Option<Arc<FaultInjector>>` field
//! (`ServeConfig::faults`); when the option is `None` the hook is one
//! branch and the host code path is the un-instrumented one.
//!
//! An injector can be [`disarm`](FaultInjector::disarm)ed and re-armed at
//! runtime: chaos drills use this to model a fault *storm* that ends
//! mid-run (the recovery half of a circuit-breaker Open → HalfOpen →
//! Closed cycle needs the world to actually heal).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64: the per-key hash behind the execution engine's task skew,
/// dataset seed derivation, backoff jitter and fault rolls — deterministic
/// randomness from `(seed, key)` pairs, independent of evaluation order.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform (0,1) from a hash (53-bit mantissa, never exactly 0 or 1).
#[inline]
pub fn unit64(h: u64) -> f64 {
    ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// One seeded hostile rewrite of `bytes`, for soaking an input boundary: a
/// few bit flips, a truncation, a four-byte length field (at the front half
/// the time, either endianness) inflated or deflated, a splice into the tail
/// of `other`, or appended garbage. Pure in `(seed, bytes, other)`.
pub fn mutate_bytes(seed: u64, bytes: &[u8], other: &[u8]) -> Vec<u8> {
    let mut h = seed;
    let mut next = move || {
        h = mix64(h);
        h
    };
    let at = |r: u64, len: usize| (r % len.max(1) as u64) as usize;
    let mut out = bytes.to_vec();
    match next() % 5 {
        0 if !out.is_empty() => {
            for _ in 0..1 + next() % 4 {
                let i = at(next(), out.len());
                out[i] ^= 1 << (next() % 8);
            }
        }
        1 => out.truncate(at(next(), out.len())),
        2 if out.len() >= 4 => {
            let i = if next() % 2 == 0 { 0 } else { at(next(), out.len() - 3) };
            let len =
                [0, u32::MAX, 1 << 30, (next() % (4 * out.len() as u64)) as u32][at(next(), 4)];
            let field = if next() % 2 == 0 { len.to_be_bytes() } else { len.to_le_bytes() };
            out[i..i + 4].copy_from_slice(&field);
        }
        3 => {
            out.truncate(at(next(), out.len()));
            out.extend_from_slice(&other[at(next(), other.len())..]);
        }
        _ => out.extend((0..1 + next() % 64).map(|_| next() as u8)),
    }
    out
}

/// Number of fault kinds (array sizes below).
pub const NUM_FAULT_KINDS: usize = 6;

/// Everything the injector knows how to break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultKind {
    /// The background updater panics mid-retrain.
    UpdaterPanic = 0,
    /// Snapshot publication stalls for the configured delay.
    SwapDelay = 1,
    /// A finished retrain is discarded instead of swapped in.
    SwapFail = 2,
    /// NECS candidate scoring fails for one request.
    ScoreFail = 3,
    /// A TCP response frame is truncated mid-write and the connection dies.
    TornFrame = 4,
    /// A request is held for the configured delay before processing.
    RequestDelay = 5,
}

impl FaultKind {
    /// Per-kind salt so the same key rolls independently per kind. The
    /// base is the value every committed chaos seed was chosen against.
    fn salt(self) -> u64 {
        0xFA01_7004 + self as u64
    }
}

/// Deterministic fault decision oracle. See the module docs.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    armed: AtomicBool,
    probs: [f64; NUM_FAULT_KINDS],
    delays: [Duration; NUM_FAULT_KINDS],
    fired: [AtomicU64; NUM_FAULT_KINDS],
    /// Monotone counter for fault points without a natural key (e.g. a TCP
    /// connection deciding whether to tear the next frame).
    keys: AtomicU64,
}

impl FaultInjector {
    /// An armed injector with every probability at zero (fires nothing
    /// until `with`/`with_delay` raise probabilities).
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            armed: AtomicBool::new(true),
            probs: [0.0; NUM_FAULT_KINDS],
            delays: [Duration::ZERO; NUM_FAULT_KINDS],
            fired: Default::default(),
            keys: AtomicU64::new(0),
        }
    }

    /// Builder: set the firing probability of one kind (clamped to [0,1]).
    pub fn with(mut self, kind: FaultKind, prob: f64) -> FaultInjector {
        self.probs[kind as usize] = prob.clamp(0.0, 1.0);
        self
    }

    /// Builder: probability plus the delay injected when the kind fires
    /// (only meaningful for `SwapDelay` / `RequestDelay`).
    pub fn with_delay(mut self, kind: FaultKind, prob: f64, delay: Duration) -> FaultInjector {
        self.delays[kind as usize] = delay;
        self.with(kind, prob)
    }

    /// Stop firing (all `fires` return false) without dropping the
    /// injector: models the end of a fault storm.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Resume firing after [`disarm`](FaultInjector::disarm).
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the injector is currently armed.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Does `kind` fire for `key`? Pure in `(seed, kind, key)` while
    /// armed; counts every firing.
    pub fn fires(&self, kind: FaultKind, key: u64) -> bool {
        let p = self.probs[kind as usize];
        if p <= 0.0 || !self.armed() {
            return false;
        }
        if p < 1.0 && unit64(mix64(self.seed ^ kind.salt() ^ mix64(key))) >= p {
            return false;
        }
        self.fired[kind as usize].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// [`fires`](FaultInjector::fires), returning the configured delay on a
    /// firing (for latency-shaped kinds).
    pub fn fire_delay(&self, kind: FaultKind, key: u64) -> Option<Duration> {
        if self.fires(kind, key) {
            Some(self.delays[kind as usize])
        } else {
            None
        }
    }

    /// A fresh key for fault points without a natural one. Monotone, so
    /// decisions stay deterministic per (seed, arrival order).
    pub fn next_key(&self) -> u64 {
        self.keys.fetch_add(1, Ordering::Relaxed)
    }

    /// How many times `kind` has fired since construction.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.fired[kind as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_key() {
        let a = FaultInjector::new(7).with(FaultKind::ScoreFail, 0.5);
        let b = FaultInjector::new(7).with(FaultKind::ScoreFail, 0.5);
        for key in 0..1000 {
            assert_eq!(a.fires(FaultKind::ScoreFail, key), b.fires(FaultKind::ScoreFail, key));
        }
        assert_eq!(a.fired(FaultKind::ScoreFail), b.fired(FaultKind::ScoreFail));
        // A different seed gives a different firing set (overwhelmingly).
        let c = FaultInjector::new(8).with(FaultKind::ScoreFail, 0.5);
        let diff = (0..1000)
            .filter(|&k| a.fires(FaultKind::ScoreFail, k) != c.fires(FaultKind::ScoreFail, k))
            .count();
        assert!(diff > 100, "seeds 7 and 8 differ on only {diff}/1000 keys");
    }

    #[test]
    fn kinds_roll_independently() {
        let inj =
            FaultInjector::new(3).with(FaultKind::SwapFail, 0.5).with(FaultKind::TornFrame, 0.5);
        let diff = (0..1000)
            .filter(|&k| inj.fires(FaultKind::SwapFail, k) != inj.fires(FaultKind::TornFrame, k))
            .count();
        assert!(diff > 100, "kinds agree on {}/1000 keys", 1000 - diff);
    }

    #[test]
    fn probability_is_roughly_honored() {
        let inj = FaultInjector::new(11).with(FaultKind::ScoreFail, 0.2);
        let hits = (0..10_000).filter(|&k| inj.fires(FaultKind::ScoreFail, k)).count();
        assert!((1500..2500).contains(&hits), "p=0.2 fired {hits}/10000");
        assert_eq!(inj.fired(FaultKind::ScoreFail) as usize, hits);
    }

    #[test]
    fn zero_probability_and_disarm_never_fire() {
        let inj = FaultInjector::new(1).with(FaultKind::TornFrame, 1.0);
        assert!(inj.fires(FaultKind::TornFrame, 0));
        assert!(!inj.fires(FaultKind::RequestDelay, 0), "unset kind must not fire");
        inj.disarm();
        assert!(!inj.fires(FaultKind::TornFrame, 1));
        inj.arm();
        assert!(inj.fires(FaultKind::TornFrame, 1));
        assert_eq!(inj.fired(FaultKind::TornFrame), 2);
    }

    #[test]
    fn fire_delay_returns_configured_delay() {
        let inj = FaultInjector::new(2).with_delay(
            FaultKind::RequestDelay,
            1.0,
            Duration::from_millis(5),
        );
        assert_eq!(inj.fire_delay(FaultKind::RequestDelay, 9), Some(Duration::from_millis(5)));
        assert_eq!(inj.fire_delay(FaultKind::SwapDelay, 9), None);
    }

    #[test]
    fn next_key_is_monotone() {
        let inj = FaultInjector::new(0);
        assert_eq!(inj.next_key(), 0);
        assert_eq!(inj.next_key(), 1);
    }
}

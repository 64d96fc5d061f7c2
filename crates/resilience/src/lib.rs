//! `lexcache-resilience` — request-level resilience primitives for the
//! open-loop queue core.
//!
//! PR 9's queue layer *measures* overload; this crate supplies the
//! mechanisms that react to it, all deterministic and RNG-free:
//!
//! * [`CircuitBreaker`] — a per-station Closed → Open → HalfOpen state
//!   machine driven by rolling per-slot failure-rate / p99-sojourn
//!   windows, with deterministic probe admission in HalfOpen and a
//!   drain-state interlock (a draining station is never probed);
//! * [`retry`] — stateless exponential backoff with seeded jitter and
//!   failover-station selection, hashed from
//!   `(seed ⊕ salt, slot, request, attempt)` via the same splitmix64
//!   chain the workload's arrival stream uses — never an episode RNG,
//!   so serial-vs-parallel byte-identity is preserved by construction;
//! * [`Admission`] — slot-granularity admission control (per-station
//!   token bucket + backlog threshold) with priority-aware shedding:
//!   low-priority arrivals shed first, everything sheds past twice the
//!   threshold.
//!
//! The crate is pure `std` (like `lexcache-runner` and `lexlint`) so
//! its state machines are testable in isolation; `lexcache-queue`
//! wires them into the event loop and `lexcache-core` feeds breaker
//! weights into the caching LP exactly like `Draining(k)` columns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

/// The 64-bit golden-ratio increment used by every hash chain here and
/// by `mec_workload::arrivals` (the two must stay in sync so the retry
/// side-stream provably never collides into the arrival stream's
/// *structure* — different salts keep the streams independent).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One round of the splitmix64 output function (Steele, Lea & Flood) —
/// bit-for-bit the finalizer `mec_workload::arrivals` uses for the
/// arrival-offset stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod retry {
    //! Deterministic retry scheduling: exponential backoff with seeded
    //! jitter and failover-station selection, all stateless hashes of
    //! `(seed, slot, request, attempt)`.

    use super::{splitmix64, GOLDEN_GAMMA};

    /// Exponent cap for the backoff doubling — attempts are bounded by
    /// a small retry budget anyway, this only guards the shift.
    const MAX_BACKOFF_EXP: u32 = 20;

    /// The raw 64-bit hash of one retry coordinate. Mirrors the
    /// arrival-offset chain (`seed ⊕ mix(slot)`, then one golden-ratio
    /// fold per coordinate) with the attempt folded in last.
    pub fn mix(seed: u64, slot: usize, request: usize, attempt: u32) -> u64 {
        let mut h = seed ^ splitmix64(slot as u64);
        h = splitmix64(h.wrapping_add((request as u64).wrapping_mul(GOLDEN_GAMMA)));
        splitmix64(h.wrapping_add((attempt as u64).wrapping_mul(GOLDEN_GAMMA)))
    }

    /// A uniform draw in `[0, 1)` from the retry coordinate — the top
    /// 53 bits of the hash, the exact dyadic-rational construction the
    /// arrival stream uses.
    pub fn jitter_unit(seed: u64, slot: usize, request: usize, attempt: u32) -> f64 {
        (mix(seed, slot, request, attempt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Backoff before re-enqueueing the retry of failed attempt
    /// `attempt` (0-based): `base · 2^attempt + jitter · u`, with `u`
    /// the seeded uniform above. Deterministic, strictly positive when
    /// `base_ms` is.
    pub fn backoff_ms(
        base_ms: f64,
        jitter_ms: f64,
        seed: u64,
        slot: usize,
        request: usize,
        attempt: u32,
    ) -> f64 {
        let exp = attempt.min(MAX_BACKOFF_EXP);
        base_ms * (1u64 << exp) as f64 + jitter_ms * jitter_unit(seed, slot, request, attempt)
    }

    /// The station a retry fails over to: a deterministic pick among
    /// the other `n_stations - 1` stations (uniform in the hash), or
    /// `home` itself when it is the only station. The pick is salted
    /// away from the jitter hash so backoff and placement are
    /// independent coordinates.
    pub fn failover_station(
        seed: u64,
        slot: usize,
        request: usize,
        attempt: u32,
        home: usize,
        n_stations: usize,
    ) -> usize {
        assert!(home < n_stations, "home station out of range");
        if n_stations <= 1 {
            return home;
        }
        let h = mix(seed ^ 0x517c_c1b7_2722_0a95, slot, request, attempt);
        let pick = (h % (n_stations as u64 - 1)) as usize;
        if pick >= home {
            pick + 1
        } else {
            pick
        }
    }
}

/// Tunables of one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerParams {
    /// Rolling window length in slots; the breaker only trips once the
    /// window is full.
    pub window: usize,
    /// Trip when windowed `failures / arrivals` reaches this fraction
    /// (with at least one failure observed).
    pub fail_rate: f64,
    /// Trip when the worst per-slot p99 sojourn in the window reaches
    /// this many ms; 0 disables the latency trigger.
    pub p99_ms: f64,
    /// Slots spent Open (shedding everything) before probing.
    pub open_slots: u32,
    /// Arrivals admitted per HalfOpen slot as probes; the rest shed.
    pub probes: u32,
}

impl BreakerParams {
    fn validate(&self) {
        assert!(self.window >= 1, "breaker window must be at least 1 slot");
        assert!(
            self.fail_rate > 0.0 && self.fail_rate <= 1.0,
            "breaker fail rate must be in (0, 1], got {}",
            self.fail_rate
        );
        assert!(
            self.p99_ms.is_finite() && self.p99_ms >= 0.0,
            "breaker p99 threshold must be finite and >= 0"
        );
        assert!(self.open_slots >= 1, "breaker must stay open >= 1 slot");
        assert!(self.probes >= 1, "half-open needs at least one probe");
    }
}

/// Where a [`CircuitBreaker`] sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every arrival is admitted, the rolling window records
    /// evidence.
    Closed,
    /// Tripped: every arrival sheds for the contained number of
    /// remaining slots.
    Open(u32),
    /// Probing: the first `probes` arrivals of the slot are admitted,
    /// the rest shed; a clean probe slot closes, a failed one reopens.
    HalfOpen,
}

/// One slot of evidence for a station's breaker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotSample {
    /// Arrivals routed at the station this slot (admitted or not).
    pub arrivals: u64,
    /// Failures charged to the station this slot: waiting-room drops
    /// plus deadline misses. Sheds are *not* failures — they are the
    /// breaker's own output and would self-latch it open.
    pub failures: u64,
    /// p99 sojourn of the station's completions this slot, ms.
    pub p99_ms: f64,
}

/// A per-station circuit breaker over rolling per-slot evidence.
///
/// Lifecycle: `Closed` trips to `Open(open_slots)` when the full
/// window's failure rate or worst p99 crosses its threshold; `Open`
/// counts down and then probes as `HalfOpen`; a clean probed slot
/// closes the breaker, a failure during probing reopens it. The drain
/// interlock keeps a Draining station un-probed: `Open` holds instead
/// of transitioning to `HalfOpen`, and a breaker already `HalfOpen`
/// when the drain notice lands demotes back to `Open` before any probe
/// can be admitted.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    params: BreakerParams,
    state: BreakerState,
    window: VecDeque<SlotSample>,
    probes_left: u32,
}

impl CircuitBreaker {
    /// A closed breaker with an empty evidence window.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are out of range (zero window, fail
    /// rate outside `(0, 1]`, zero open slots or probes).
    pub fn new(params: BreakerParams) -> Self {
        params.validate();
        CircuitBreaker {
            params,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            probes_left: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True while every arrival sheds.
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open(_))
    }

    /// The soft LP column down-weight this breaker contributes,
    /// mirroring the `1 + 1/k` shape of `Draining(k)`: a Closed
    /// breaker is free (1.0), HalfOpen charges 1.5 (probing, route
    /// little), Open charges 2.0 (shedding, route nothing you care
    /// about).
    pub fn weight(&self) -> f64 {
        match self.state {
            BreakerState::Closed => 1.0,
            BreakerState::HalfOpen => 1.5,
            BreakerState::Open(_) => 2.0,
        }
    }

    /// Slot-start hook: refills the HalfOpen probe budget and enforces
    /// the drain interlock (HalfOpen + draining demotes to `Open(1)` so
    /// the doomed station is never probed).
    pub fn begin_slot(&mut self, draining: bool) {
        if self.state == BreakerState::HalfOpen {
            if draining {
                self.state = BreakerState::Open(1);
                self.probes_left = 0;
            } else {
                self.probes_left = self.params.probes;
            }
        }
    }

    /// Per-arrival admission gate. Closed admits, Open sheds, HalfOpen
    /// admits while probe budget remains (consuming one probe).
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open(_) => false,
            BreakerState::HalfOpen => {
                if self.probes_left > 0 {
                    self.probes_left -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Slot-end hook: consumes the slot's evidence and transitions.
    pub fn end_slot(&mut self, sample: SlotSample, draining: bool) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(sample);
                while self.window.len() > self.params.window {
                    self.window.pop_front();
                }
                if self.window.len() == self.params.window && self.window_trips() {
                    self.state = BreakerState::Open(self.params.open_slots);
                    self.window.clear();
                }
            }
            BreakerState::Open(k) => {
                if k > 1 {
                    self.state = BreakerState::Open(k - 1);
                } else if draining {
                    // Drain interlock: hold Open, re-check next slot.
                    self.state = BreakerState::Open(1);
                } else {
                    self.state = BreakerState::HalfOpen;
                }
            }
            BreakerState::HalfOpen => {
                if sample.failures > 0 {
                    self.state = BreakerState::Open(self.params.open_slots);
                } else if sample.arrivals > 0 {
                    self.state = BreakerState::Closed;
                }
                // No arrivals → nothing learned, keep probing.
            }
        }
    }

    fn window_trips(&self) -> bool {
        let arrivals: u64 = self.window.iter().map(|s| s.arrivals).sum();
        let failures: u64 = self.window.iter().map(|s| s.failures).sum();
        let worst_p99 = self.window.iter().map(|s| s.p99_ms).fold(0.0f64, f64::max);
        let rate_trip = failures > 0
            && arrivals > 0
            && failures as f64 >= self.params.fail_rate * arrivals as f64;
        let p99_trip = self.params.p99_ms > 0.0 && worst_p99 >= self.params.p99_ms;
        rate_trip || p99_trip
    }
}

/// Tunables of the slot-granularity [`Admission`] gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionParams {
    /// Station backlog at which low-priority arrivals shed; at twice
    /// this backlog everything sheds. 0 disables the backlog gate.
    pub backlog_threshold: usize,
    /// Per-station arrival budget per slot; once exhausted,
    /// low-priority arrivals shed (high-priority overdraft). 0
    /// disables the token gate.
    pub tokens_per_slot: u32,
}

/// Priority-aware admission control: a per-station token bucket
/// refilled each slot plus a backlog threshold, shedding low-priority
/// work first so goodput degrades instead of collapsing.
#[derive(Debug, Clone)]
pub struct Admission {
    params: AdmissionParams,
    tokens: Vec<u32>,
}

impl Admission {
    /// A gate over `n_stations` stations with full buckets.
    pub fn new(n_stations: usize, params: AdmissionParams) -> Self {
        Admission {
            params,
            tokens: vec![params.tokens_per_slot; n_stations],
        }
    }

    /// Slot-start hook: refills every bucket.
    pub fn begin_slot(&mut self) {
        for t in &mut self.tokens {
            *t = self.params.tokens_per_slot;
        }
    }

    /// Decides one arrival at `station` given the station's current
    /// backlog. Sheds (returns false) low-priority work at the backlog
    /// threshold or on an empty bucket, and everything at twice the
    /// threshold.
    pub fn admit(&mut self, station: usize, backlog: usize, high_priority: bool) -> bool {
        let thr = self.params.backlog_threshold;
        if thr > 0 {
            if backlog >= 2 * thr {
                return false;
            }
            if backlog >= thr && !high_priority {
                return false;
            }
        }
        if self.params.tokens_per_slot > 0 {
            if self.tokens[station] > 0 {
                self.tokens[station] -= 1;
            } else if !high_priority {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BreakerParams {
        BreakerParams {
            window: 3,
            fail_rate: 0.5,
            p99_ms: 0.0,
            open_slots: 2,
            probes: 1,
        }
    }

    fn failing_slot() -> SlotSample {
        SlotSample {
            arrivals: 10,
            failures: 8,
            p99_ms: 0.0,
        }
    }

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs of the Steele–Lea–Flood generator seeded
        // at 0 (same vector the workload arrival stream is built on).
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(splitmix64(0)), 0xa706_dd2f_4d19_7e6f);
    }

    #[test]
    fn jitter_is_deterministic_and_in_unit_range() {
        for attempt in 0..4 {
            let a = retry::jitter_unit(42, 7, 3, attempt);
            let b = retry::jitter_unit(42, 7, 3, attempt);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((0.0..1.0).contains(&a));
        }
        assert_ne!(
            retry::jitter_unit(42, 7, 3, 0).to_bits(),
            retry::jitter_unit(42, 7, 3, 1).to_bits(),
            "attempts must draw distinct jitter"
        );
    }

    #[test]
    fn backoff_doubles_with_attempt() {
        let at = |a| retry::backoff_ms(10.0, 0.0, 1, 1, 1, a);
        assert_eq!(at(0), 10.0);
        assert_eq!(at(1), 20.0);
        assert_eq!(at(2), 40.0);
        let jittered = retry::backoff_ms(10.0, 5.0, 1, 1, 1, 0);
        assert!((10.0..15.0).contains(&jittered));
    }

    #[test]
    fn failover_avoids_home_and_stays_in_range() {
        for request in 0..50 {
            let target = retry::failover_station(9, 3, request, 0, 2, 5);
            assert!(target < 5);
            assert_ne!(target, 2, "failover must leave the failed station");
        }
        assert_eq!(
            retry::failover_station(9, 3, 0, 0, 0, 1),
            0,
            "single-station networks can only retry in place"
        );
    }

    #[test]
    fn breaker_trips_only_on_a_full_window() {
        let mut b = CircuitBreaker::new(params());
        b.end_slot(failing_slot(), false);
        b.end_slot(failing_slot(), false);
        assert_eq!(b.state(), BreakerState::Closed, "window not full yet");
        b.end_slot(failing_slot(), false);
        assert_eq!(b.state(), BreakerState::Open(2));
        assert!(!b.admit());
    }

    #[test]
    fn open_counts_down_then_probes_then_closes() {
        let mut b = CircuitBreaker::new(params());
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        assert!(b.is_open());
        b.end_slot(SlotSample::default(), false); // Open(2) → Open(1)
        assert_eq!(b.state(), BreakerState::Open(1));
        b.end_slot(SlotSample::default(), false); // Open(1) → HalfOpen
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.begin_slot(false);
        assert!(b.admit(), "first arrival is the probe");
        assert!(!b.admit(), "second arrival exceeds the probe budget");
        b.end_slot(
            SlotSample {
                arrivals: 1,
                failures: 0,
                p99_ms: 2.0,
            },
            false,
        );
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_for_the_full_penalty() {
        let mut b = CircuitBreaker::new(params());
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        b.end_slot(SlotSample::default(), false);
        b.end_slot(SlotSample::default(), false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.end_slot(
            SlotSample {
                arrivals: 1,
                failures: 1,
                p99_ms: 0.0,
            },
            false,
        );
        assert_eq!(b.state(), BreakerState::Open(2));
    }

    #[test]
    fn empty_probe_slot_keeps_probing() {
        let mut b = CircuitBreaker::new(params());
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        b.end_slot(SlotSample::default(), false);
        b.end_slot(SlotSample::default(), false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.end_slot(SlotSample::default(), false);
        assert_eq!(b.state(), BreakerState::HalfOpen, "no evidence, no verdict");
    }

    #[test]
    fn p99_threshold_trips_without_failures() {
        let mut b = CircuitBreaker::new(BreakerParams {
            p99_ms: 100.0,
            ..params()
        });
        let slow = SlotSample {
            arrivals: 5,
            failures: 0,
            p99_ms: 150.0,
        };
        for _ in 0..3 {
            b.end_slot(slow, false);
        }
        assert!(b.is_open(), "latency alone must trip the breaker");
    }

    #[test]
    fn draining_station_is_never_probed() {
        let mut b = CircuitBreaker::new(params());
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        b.end_slot(SlotSample::default(), false); // Open(2) → Open(1)
        b.end_slot(SlotSample::default(), true); // drain holds it Open
        assert_eq!(b.state(), BreakerState::Open(1));
        // A breaker already HalfOpen when the notice lands demotes
        // before any probe can be admitted.
        b.end_slot(SlotSample::default(), false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.begin_slot(true);
        assert_eq!(b.state(), BreakerState::Open(1));
        assert!(!b.admit());
    }

    #[test]
    fn weights_mirror_the_drain_shape() {
        let mut b = CircuitBreaker::new(params());
        assert_eq!(b.weight(), 1.0);
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        assert_eq!(b.weight(), 2.0);
        b.end_slot(SlotSample::default(), false);
        b.end_slot(SlotSample::default(), false);
        assert_eq!(b.weight(), 1.5);
    }

    #[test]
    fn sheds_are_not_failures_so_open_does_not_self_latch() {
        let mut b = CircuitBreaker::new(params());
        for _ in 0..3 {
            b.end_slot(failing_slot(), false);
        }
        // While Open the station sheds everything: arrivals but no
        // failures. The countdown must still reach HalfOpen.
        b.end_slot(
            SlotSample {
                arrivals: 20,
                failures: 0,
                p99_ms: 0.0,
            },
            false,
        );
        b.end_slot(
            SlotSample {
                arrivals: 20,
                failures: 0,
                p99_ms: 0.0,
            },
            false,
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn admission_sheds_low_priority_first() {
        let mut a = Admission::new(
            1,
            AdmissionParams {
                backlog_threshold: 4,
                tokens_per_slot: 0,
            },
        );
        assert!(a.admit(0, 3, false), "under threshold admits everyone");
        assert!(!a.admit(0, 4, false), "threshold sheds low priority");
        assert!(a.admit(0, 4, true), "high priority rides through");
        assert!(!a.admit(0, 8, true), "twice the threshold sheds everyone");
    }

    #[test]
    fn token_bucket_refills_each_slot() {
        let mut a = Admission::new(
            2,
            AdmissionParams {
                backlog_threshold: 0,
                tokens_per_slot: 2,
            },
        );
        assert!(a.admit(0, 0, false));
        assert!(a.admit(0, 0, false));
        assert!(!a.admit(0, 0, false), "bucket exhausted");
        assert!(a.admit(0, 0, true), "high priority overdrafts");
        assert!(a.admit(1, 0, false), "buckets are per station");
        a.begin_slot();
        assert!(a.admit(0, 0, false), "refilled");
    }

    #[test]
    #[should_panic(expected = "fail rate")]
    fn zero_fail_rate_is_rejected() {
        CircuitBreaker::new(BreakerParams {
            fail_rate: 0.0,
            ..params()
        });
    }
}

//! Static in-flight admission cap (DESIGN.md §5k).
//!
//! [`AdmissionGate`] counts the EXPANDs currently inside one engine (= one
//! shard) and refuses a new one with [`ShedReason::Queue`] once the count
//! reaches the cap. The cap is the engine's
//! [`DegradePolicy::max_inflight_expands`](crate::engine::DegradePolicy::max_inflight_expands),
//! passed in on every [`AdmissionGate::try_admit`]; the policy only changes
//! under `&mut Engine`, so the gate holds no copy of it that could go
//! stale. DESIGN.md §5k gives the measurements behind a static cap rather
//! than an adaptive one.
//!
//! The gate is one atomic counter: no locks, no clock, no thread-locals —
//! which is what lets the interleave model checker explore concurrent
//! admit/release schedules exhaustively (`tests/interleave_models.rs`).

use crate::sync::{AtomicUsize, Ordering};

/// Why a request was refused before reaching the solver. The typed reason
/// flows into the flight recorder (2-bit `shed` field), the Prometheus
/// exposition (`bionav_shed_total{reason=...}`), and [`ServeStats`]
/// (`shed_expands` / `deadline_rejects` / `breaker_rejects`), so an
/// operator can tell queue pressure from deadline misses from a tripped
/// breaker without correlating logs.
///
/// [`ServeStats`]: crate::engine::ServeStats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission gate's in-flight limit was reached (queue pressure).
    Queue = 0,
    /// The request's end-to-end deadline had already expired on arrival.
    Deadline = 1,
    /// The target shard's circuit breaker is open.
    Breaker = 2,
}

impl ShedReason {
    /// Number of shed reasons.
    pub const COUNT: usize = 3;

    /// Every reason, in discriminant order.
    pub const ALL: [ShedReason; ShedReason::COUNT] =
        [ShedReason::Queue, ShedReason::Deadline, ShedReason::Breaker];

    /// Stable snake_case name used as the Prometheus `reason` label value
    /// and in decoded flight-recorder records.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Queue => "queue",
            ShedReason::Deadline => "deadline",
            ShedReason::Breaker => "breaker",
        }
    }
}

/// The in-flight EXPAND counter for one engine (= one shard).
#[derive(Debug, Default)]
pub struct AdmissionGate {
    /// Requests currently inside the gate.
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// An empty gate.
    pub fn new() -> Self {
        AdmissionGate::default()
    }

    /// Requests currently admitted and not yet released.
    pub fn inflight(&self) -> usize {
        // Relaxed: gauge read; may transiently lag in-flight transitions.
        self.inflight.load(Ordering::Relaxed)
    }

    /// Tries to admit one request under `limit` in-flight requests (0
    /// disables the gate). On success the returned guard holds the
    /// in-flight slot until dropped; `None` means the caller must shed
    /// with [`ShedReason::Queue`].
    pub fn try_admit(&self, limit: usize) -> Option<AdmitGuard<'_>> {
        // Relaxed: the counter is the only shared state; the optimistic
        // increment is undone before returning when over the limit.
        let prev = self.inflight.fetch_add(1, Ordering::Relaxed);
        if limit != 0 && prev >= limit {
            // Relaxed: undo of the optimistic increment above.
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(AdmitGuard(self))
    }
}

/// RAII in-flight slot from [`AdmissionGate::try_admit`]; dropping it
/// releases the slot (panic-safe, so a caught solver panic still balances
/// the books).
#[derive(Debug)]
pub struct AdmitGuard<'a>(&'a AdmissionGate);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        // Relaxed: pairs with the optimistic increment in try_admit.
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_names_are_stable_label_values() {
        assert_eq!(ShedReason::ALL.len(), ShedReason::COUNT);
        assert_eq!(ShedReason::Queue.name(), "queue");
        assert_eq!(ShedReason::Deadline.name(), "deadline");
        assert_eq!(ShedReason::Breaker.name(), "breaker");
        for r in ShedReason::ALL {
            assert!(r.name().chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn gate_admits_to_the_limit_and_releases_on_drop() {
        let gate = AdmissionGate::new();
        let g1 = gate.try_admit(2).expect("first slot");
        let g2 = gate.try_admit(2).expect("second slot");
        assert!(gate.try_admit(2).is_none(), "third must shed");
        assert_eq!(gate.inflight(), 2);
        drop(g1);
        let g3 = gate.try_admit(2).expect("released slot is reusable");
        drop(g2);
        drop(g3);
        assert_eq!(gate.inflight(), 0, "books balance after drops");
    }

    #[test]
    fn zero_limit_disables_the_gate() {
        let gate = AdmissionGate::new();
        let guards: Vec<_> = (0..64)
            .map(|_| gate.try_admit(0).expect("no cap"))
            .collect();
        assert_eq!(gate.inflight(), 64);
        drop(guards);
        assert_eq!(gate.inflight(), 0);
    }
}

//! The three workloads. Offered rates are fixed numbers, never
//! recalibrated per run; see the README for how they were chosen.

/// Paper scale every workload runs at.
pub const SCALE: f64 = 1.0;

/// Mean think time of every workload. An assumption, not a measured
/// figure: the paper and Best Trail model the walk, not the pauses in it.
/// People pause for seconds, but at seconds a session of ten steps would
/// outlast a 10-second window, so time is compressed about a
/// hundredfold. By Little's law this keeps only about 30 (cold-browse)
/// to 150–190 (hot-deep, overload) sessions open at once, where human
/// pauses would keep thousands; `client.live_sessions` reports the
/// number, and the README says what it leaves unmeasured.
pub const THINK_MEAN_NS: u64 = 20_000_000;

/// How a session walks after its open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A geometric EXPAND/SHOWRESULTS walk.
    Deep {
        /// Probability of another step after each step.
        expand_continue: f64,
        /// Probability a follow-up step is a SHOWRESULTS.
        explore_bias: f64,
    },
    /// 1–3 EXPANDs, then one SHOWRESULTS.
    Browse,
}

/// One workload's tier shape and session mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Engine shards in the tier.
    pub shards: usize,
    /// Tree-cache slots per shard.
    pub slots: usize,
    /// Offered open-loop session arrival rate.
    pub rate_per_s: f64,
    /// Zipf skew over the ten Table I queries (0 = uniform).
    pub zipf_s: f64,
    /// Session walk shape.
    pub shape: Shape,
    /// Mean exponential think time before each follow-up step.
    pub think_mean_ns: u64,
    /// Whether OPEN and EXPAND carry `now + SLO target` wire deadlines.
    pub deadlines: bool,
    /// Sessions replayed closed-loop, untimed, before the window.
    pub warm_sessions: usize,
}

impl Spec {
    /// Whether the tier has a tree slot for every Table I query, so that
    /// after warm-up no tree should ever be evicted.
    pub fn resident(&self) -> bool {
        self.shards * self.slots >= bionav_workload::paper_queries().len()
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Spec; 3] = [
    Spec {
        name: "hot-deep",
        shards: 2,
        slots: 8,
        rate_per_s: 900.0,
        zipf_s: 1.0,
        // About 8 EXPANDs and 2 SHOWRESULTS per session.
        shape: Shape::Deep {
            expand_continue: 0.9,
            explore_bias: 0.2,
        },
        think_mean_ns: THINK_MEAN_NS,
        deadlines: false,
        warm_sessions: 400,
    },
    Spec {
        name: "cold-browse",
        shards: 1,
        slots: 8,
        rate_per_s: 450.0,
        zipf_s: 0.0,
        shape: Shape::Browse,
        think_mean_ns: THINK_MEAN_NS,
        deadlines: false,
        warm_sessions: 300,
    },
    Spec {
        name: "overload",
        shards: 1,
        slots: 8,
        rate_per_s: 1600.0,
        zipf_s: 0.0,
        shape: Shape::Browse,
        think_mean_ns: THINK_MEAN_NS,
        deadlines: true,
        warm_sessions: 300,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

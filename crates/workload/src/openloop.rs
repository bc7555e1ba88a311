//! Open-loop load plans for the serving tier.
//!
//! A *closed-loop* driver (issue a request, wait, issue the next) lets a
//! slow server throttle its own load generator, hiding overload behind
//! coordinated omission: the latencies it records are only for the requests
//! it got around to sending. This module generates the schedule *up front*
//! — Poisson arrivals at a fixed rate, Zipf popularity over the ten Table I
//! queries, Markov EXPLORE/EXPAND sessions with think-time pauses — so a
//! load generator (`wirebench`) can replay it open-loop and measure every
//! session's latency from its **intended** arrival instant, whether or not
//! the server was ready for it.
//!
//! Everything is deterministic in [`OpenLoopConfig::seed`].

use crate::spec::paper_queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for one open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Master seed; the whole plan is deterministic in it.
    pub seed: u64,
    /// Mean session arrival rate (Poisson) in sessions per second.
    pub arrival_rate_per_sec: f64,
    /// Length of the arrival window; sessions whose intended start falls
    /// past it are not generated (in-flight ones still run to completion).
    pub duration_ns: u64,
    /// Zipf skew over the ten paper queries: popularity of the rank-`k`
    /// query is proportional to `1 / (k+1)^zipf_s`. Zero is uniform.
    pub zipf_s: f64,
    /// Probability a session takes another step after the current one
    /// (geometric session length; the paper's oracle user averages a
    /// handful of EXPANDs per query).
    pub expand_continue: f64,
    /// Probability a follow-up step is an EXPLORE (show results) rather
    /// than another EXPAND.
    pub explore_bias: f64,
    /// Mean think-time pause before each follow-up step (exponential).
    pub think_mean_ns: u64,
}

impl OpenLoopConfig {
    /// A small, fast default for tests and CI-scale sweeps.
    pub fn test_size(seed: u64) -> Self {
        OpenLoopConfig {
            seed,
            arrival_rate_per_sec: 200.0,
            duration_ns: 500_000_000,
            zipf_s: 1.0,
            expand_continue: 0.6,
            explore_bias: 0.3,
            think_mean_ns: 2_000_000,
        }
    }
}

/// One step of a generated session, after the opening query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// EXPAND the frontier node the driver is currently looking at.
    Expand,
    /// EXPLORE: show the results attached to the current node.
    Explore,
}

/// One scheduled step: a think-time pause, then the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStep {
    /// Pause before issuing this step, relative to the previous reply.
    pub think_ns: u64,
    /// What the step does.
    pub op: SessionOp,
}

/// One scheduled session: when it was *supposed* to start, which query it
/// opens, and the Markov chain of steps it walks afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Intended arrival instant, relative to the start of the run.
    /// Latency must be measured from here, not from the actual send.
    pub intended_start_ns: u64,
    /// Name of the Table I query this session opens (see
    /// [`paper_queries`]).
    pub query: String,
    /// Steps after the open; always contains at least one EXPAND.
    pub steps: Vec<SessionStep>,
}

/// Generate the full open-loop schedule: Poisson arrivals over the window,
/// each opening a Zipf-popular query and walking a geometric Markov chain
/// of EXPAND/EXPLORE steps. Plans come back sorted by intended start.
pub fn generate(cfg: &OpenLoopConfig) -> Vec<SessionPlan> {
    assert!(
        cfg.arrival_rate_per_sec > 0.0,
        "open-loop rate must be positive"
    );
    let queries = paper_queries();
    // Cumulative Zipf weights over the query list, in listed order.
    let weights: Vec<f64> = (0..queries.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_s))
        .collect();
    let total_weight: f64 = weights.iter().sum();

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0907_1009); // ICDE'09
    let mean_gap_ns = 1e9 / cfg.arrival_rate_per_sec;
    let mut plans = Vec::new();
    let mut clock_ns = 0.0f64;
    loop {
        clock_ns += exp_sample(&mut rng, mean_gap_ns);
        if clock_ns >= cfg.duration_ns as f64 {
            break;
        }
        let query = queries[zipf_pick(&mut rng, &weights, total_weight)]
            .name
            .clone();
        plans.push(SessionPlan {
            intended_start_ns: clock_ns as u64,
            query,
            steps: markov_steps(&mut rng, cfg),
        });
    }
    plans
}

/// Exponential sample with the given mean (inverse-CDF of −ln(U)·mean).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    // gen::<f64>() is in [0, 1); flip to (0, 1] so ln() never sees zero.
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() * mean
}

/// Pick an index by cumulative Zipf weight.
fn zipf_pick(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    let mut roll = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        roll -= w;
        if roll <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Walk the EXPLORE/EXPAND Markov chain: the session always EXPANDs once
/// (that is the operation under SLO), then keeps going with probability
/// `expand_continue`, mixing in EXPLOREs per `explore_bias`, pausing an
/// exponential think time before each follow-up.
fn markov_steps(rng: &mut StdRng, cfg: &OpenLoopConfig) -> Vec<SessionStep> {
    let mut steps = vec![SessionStep {
        think_ns: 0,
        op: SessionOp::Expand,
    }];
    while rng.gen::<f64>() < cfg.expand_continue {
        let op = if rng.gen::<f64>() < cfg.explore_bias {
            SessionOp::Explore
        } else {
            SessionOp::Expand
        };
        steps.push(SessionStep {
            think_ns: exp_sample(rng, cfg.think_mean_ns as f64) as u64,
            op,
        });
        if steps.len() >= 32 {
            break; // geometric tail guard; real sessions are short
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let cfg = OpenLoopConfig::test_size(11);
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = OpenLoopConfig::test_size(12);
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn arrivals_match_the_requested_rate() {
        let cfg = OpenLoopConfig {
            arrival_rate_per_sec: 1_000.0,
            duration_ns: 2_000_000_000,
            ..OpenLoopConfig::test_size(7)
        };
        let plans = generate(&cfg);
        // Expect ~2000 arrivals; Poisson sd is ~45, allow 5 sigma.
        let n = plans.len() as i64;
        assert!((n - 2_000).abs() < 250, "got {n} arrivals");
        // Sorted by construction, inside the window.
        for w in plans.windows(2) {
            assert!(w[0].intended_start_ns <= w[1].intended_start_ns);
        }
        assert!(plans.last().unwrap().intended_start_ns < cfg.duration_ns);
    }

    #[test]
    fn popularity_is_zipf_skewed_toward_the_head_query() {
        let cfg = OpenLoopConfig {
            arrival_rate_per_sec: 2_000.0,
            duration_ns: 2_000_000_000,
            zipf_s: 1.0,
            ..OpenLoopConfig::test_size(3)
        };
        let plans = generate(&cfg);
        let head = paper_queries()[0].name.clone();
        let tail = paper_queries()[9].name.clone();
        let count = |q: &str| plans.iter().filter(|p| p.query == q).count();
        assert!(
            count(&head) > 3 * count(&tail),
            "head {} vs tail {}",
            count(&head),
            count(&tail)
        );
        // Every generated query is one of the ten.
        let names: Vec<String> = paper_queries().into_iter().map(|q| q.name).collect();
        assert!(plans.iter().all(|p| names.contains(&p.query)));
    }

    #[test]
    fn sessions_always_open_with_an_expand_and_stay_short() {
        for plan in generate(&OpenLoopConfig::test_size(5)) {
            assert_eq!(plan.steps[0].op, SessionOp::Expand);
            assert_eq!(plan.steps[0].think_ns, 0);
            assert!(plan.steps.len() <= 32);
        }
        // With expand_continue > 0 some sessions must be multi-step, and
        // some follow-ups must be EXPLOREs.
        let plans = generate(&OpenLoopConfig::test_size(5));
        assert!(plans.iter().any(|p| p.steps.len() > 1));
        assert!(plans
            .iter()
            .flat_map(|p| &p.steps)
            .any(|s| s.op == SessionOp::Explore));
    }
}

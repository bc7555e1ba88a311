//! Session plans: who arrives when, what they open, which nodes they
//! click, and what the server must answer.
//!
//! Arrivals, query popularity and the EXPAND/SHOWRESULTS walk come from
//! [`bionav_workload::openloop::generate`], deterministic in the seed.
//! Concrete node ids come from walking a local reference [`Session`] over
//! the same dataset and [`CostParams`], with one [`CutCache`] per query as
//! the engine keeps. So every planned EXPAND targets an expandable
//! component, and every step carries the exact reply the server owes.

use std::collections::HashMap;
use std::sync::Arc;

use bionav_cli::Dataset;
use bionav_core::session::{CutCache, Session};
use bionav_core::{CostParams, NavNodeId, NavigationTree, SharedTree};
use bionav_workload::openloop::{self, OpenLoopConfig, SessionOp, SessionStep};
use bionav_workload::paper_queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{Shape, Spec};

/// Capacity of each reference cut memo (the engine's per-tree bound).
const CUT_CACHE_CAPACITY: usize = 4096;

/// One wire operation after the open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// EXPAND this node.
    Expand(u32),
    /// SHOWRESULTS on this node.
    Show(u32),
    /// Close the session.
    Close,
}

/// The reply a step must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Visible nodes as `(node id, component distinct citations)`, in the
    /// engine's order.
    Nodes(Vec<(u32, u64)>),
    /// A citation list, by length and order-sensitive digest.
    Citations {
        /// Number of citations.
        len: usize,
        /// [`digest`] of the ids in order.
        digest: u64,
    },
    /// `Closed`.
    Closed,
}

/// One planned step: a think time after the previous reply, then the op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Pause after the previous reply before this step is due.
    pub think_ns: u64,
    /// What to send.
    pub op: Op,
    /// What the server must answer.
    pub expect: Expect,
}

/// One planned session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Intended OPEN time, relative to the start of the window.
    pub start_ns: u64,
    /// The keyword query to open.
    pub query: String,
    /// The roots `Opened` must list.
    pub roots: Vec<(u32, u64)>,
    /// Steps after the open; the last is always [`Op::Close`].
    pub steps: Vec<Step>,
}

impl SessionPlan {
    /// EXPAND steps in this plan.
    pub fn expands(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, Op::Expand(_)))
            .count()
    }
}

/// FNV-1a over a citation id list (order-sensitive).
pub fn digest(ids: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Reference trees and cut memos, one per query, built on first use.
pub struct Reference<'a> {
    dataset: &'a Dataset,
    params: CostParams,
    trees: HashMap<String, (SharedTree, Arc<CutCache>)>,
}

impl<'a> Reference<'a> {
    /// An empty reference over `dataset`.
    pub fn new(dataset: &'a Dataset, params: CostParams) -> Self {
        Reference {
            dataset,
            params,
            trees: HashMap::new(),
        }
    }

    /// A fresh reference session over `query` plus the query's shared cut
    /// memo. Panics on a query without results: plans only use the ten
    /// Table I queries, which all have results.
    pub fn open(&mut self, query: &str) -> (Session<SharedTree>, Arc<CutCache>) {
        let dataset = self.dataset;
        let (tree, cuts) = self.trees.entry(query.to_string()).or_insert_with(|| {
            // The tree the shipped serve builder makes: keyword search,
            // then the navigation tree over the hits.
            let hits = dataset.index.query(query);
            assert!(!hits.is_empty(), "query {query:?} has no results");
            let tree = NavigationTree::build(&dataset.hierarchy, &dataset.store, &hits.citations);
            (Arc::new(tree), Arc::new(CutCache::new(CUT_CACHE_CAPACITY)))
        });
        (
            Session::new(Arc::clone(tree), self.params.clone()),
            Arc::clone(cuts),
        )
    }
}

/// The wire view of a session's visible nodes.
pub fn visible(session: &Session<SharedTree>) -> Vec<(u32, u64)> {
    session
        .visualize()
        .iter()
        .map(|v| (v.node.0, u64::from(v.component_distinct)))
        .collect()
}

/// Whether `node` is a visible root whose component can be cut.
pub fn expandable(session: &Session<SharedTree>, node: u32) -> bool {
    let node = NavNodeId(node);
    session.active().is_visible(node) && session.component_size(node) > 1
}

/// The walk a plan draws before node ids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    Expand,
    Show,
}

/// Exponential sample with mean `mean_ns`.
fn exp_ns(rng: &mut StdRng, mean_ns: u64) -> u64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    (-u.ln() * mean_ns as f64) as u64
}

/// Generates the plans of one window: arrivals in `[0, seconds)`, each
/// walked against its own reference on one of `threads` planning threads.
/// Every session draws from its own seeded stream, so the plans are
/// deterministic in `seed` whatever the thread count.
pub fn generate(
    dataset: &Dataset,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Vec<SessionPlan> {
    let keywords: HashMap<String, String> = paper_queries()
        .into_iter()
        .map(|q| (q.name, q.keywords))
        .collect();
    // Browse walks draw their own steps below; the generated chain is
    // then a single EXPAND that is ignored.
    let (expand_continue, explore_bias) = match spec.shape {
        Shape::Deep {
            expand_continue,
            explore_bias,
        } => (expand_continue, explore_bias),
        Shape::Browse => (0.0, 0.0),
    };
    let cfg = OpenLoopConfig {
        seed,
        arrival_rate_per_sec: spec.rate_per_s,
        duration_ns: (seconds * 1e9) as u64,
        zipf_s: spec.zipf_s,
        expand_continue,
        explore_bias,
        think_mean_ns: spec.think_mean_ns,
    };
    let arrivals = openloop::generate(&cfg);
    let threads = threads.clamp(1, arrivals.len().max(1));
    let chunk = arrivals.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = arrivals
            .chunks(chunk)
            .enumerate()
            .map(|(c, arrivals)| {
                let keywords = &keywords;
                s.spawn(move || {
                    let mut reference = Reference::new(dataset, CostParams::default());
                    arrivals
                        .iter()
                        .enumerate()
                        .map(|(i, arrival)| {
                            let index = (c * chunk + i) as u64;
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ 0x0B10_AA57 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                            let draws = draws(spec, &arrival.steps, &mut rng);
                            let query = keywords
                                .get(&arrival.query)
                                .cloned()
                                .unwrap_or_else(|| arrival.query.clone());
                            walk(
                                &mut reference,
                                arrival.intended_start_ns,
                                query,
                                &draws,
                                &mut rng,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("planning thread panicked"))
            .collect()
    })
}

/// The walk shape of one session: deep walks keep the generated
/// EXPAND/SHOWRESULTS chain; browse walks are 1–3 EXPANDs and one
/// SHOWRESULTS.
fn draws(spec: &Spec, steps: &[SessionStep], rng: &mut StdRng) -> Vec<(u64, Draw)> {
    match spec.shape {
        Shape::Deep { .. } => steps
            .iter()
            .map(|s| {
                let draw = match s.op {
                    SessionOp::Expand => Draw::Expand,
                    SessionOp::Explore => Draw::Show,
                };
                (s.think_ns, draw)
            })
            .collect(),
        Shape::Browse => {
            let expands = rng.gen_range(1..=3usize);
            (0..=expands)
                .map(|i| {
                    let draw = if i < expands {
                        Draw::Expand
                    } else {
                        Draw::Show
                    };
                    (exp_ns(rng, spec.think_mean_ns), draw)
                })
                .collect()
        }
    }
}

/// Walks one session against the reference, choosing node ids: an EXPAND
/// goes to an expandable node among those the previous step revealed
/// (else anywhere visible); a walk with nothing left to expand stops there.
fn walk(
    reference: &mut Reference<'_>,
    start_ns: u64,
    query: String,
    draws: &[(u64, Draw)],
    rng: &mut StdRng,
) -> SessionPlan {
    let (mut session, cuts) = reference.open(&query);
    let roots = visible(&session);
    let mut focus: Vec<u32> = roots.iter().map(|&(n, _)| n).collect();
    let mut steps = Vec::with_capacity(draws.len() + 1);
    for &(think_ns, draw) in draws {
        match draw {
            Draw::Expand => {
                let mut candidates: Vec<u32> = focus
                    .iter()
                    .copied()
                    .filter(|&n| expandable(&session, n))
                    .collect();
                if candidates.is_empty() {
                    candidates = visible(&session)
                        .into_iter()
                        .map(|(n, _)| n)
                        .filter(|&n| expandable(&session, n))
                        .collect();
                }
                if candidates.is_empty() {
                    break;
                }
                let node = candidates[rng.gen_range(0..candidates.len())];
                let revealed = session
                    .expand_cached(NavNodeId(node), &cuts)
                    .expect("expandable components cut");
                let nodes: Vec<(u32, u64)> = revealed
                    .iter()
                    .map(|&n| (n.0, u64::from(session.component_distinct(n))))
                    .collect();
                focus = nodes.iter().map(|&(n, _)| n).collect();
                steps.push(Step {
                    think_ns,
                    op: Op::Expand(node),
                    expect: Expect::Nodes(nodes),
                });
            }
            Draw::Show => {
                let node = focus[rng.gen_range(0..focus.len())];
                let ids = session
                    .show_results(NavNodeId(node))
                    .expect("focused nodes are visible");
                steps.push(Step {
                    think_ns,
                    op: Op::Show(node),
                    expect: Expect::Citations {
                        len: ids.len(),
                        digest: digest(ids.iter().map(|c| u64::from(c.0))),
                    },
                });
            }
        }
    }
    steps.push(Step {
        think_ns: 0,
        op: Op::Close,
        expect: Expect::Closed,
    });
    SessionPlan {
        start_ns,
        query,
        roots,
        steps,
    }
}

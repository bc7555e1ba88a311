//! Property-based equivalence suite for the single-pass EXPAND pipeline
//! (ISSUE 2).
//!
//! The optimized planner ([`bionav_core::edgecut::heuristic::plan_component`])
//! restructured the hot path: one partitioning loop, one reduced-problem
//! build, one exact solve whose memo is retained inside the returned
//! [`ReducedPlan`]. The historical two-pass pipeline is kept verbatim in
//! [`bionav_core::edgecut::heuristic::reference`] precisely so this suite
//! can assert, over *generated* hierarchies:
//!
//! 1. identical `ExpandOutcome`s (cut, reduced size, fallback flag, and
//!    bit-identical `estimated_cost`) and identical retained plans;
//! 2. retained-memo cuts ([`ReducedPlan::cut`]) bit-identical to throwaway
//!    solves ([`ReducedPlan::cut_uncached`]) across whole mask cascades;
//! 3. identical replayed navigations — full-expansion [`Session`] replays
//!    produce equal action logs and equal [`NavOutcome`] totals against
//!    reference-driven replays, with plan reuse both off and on;
//! 4. identical partitions from the binary search over the threshold
//!    ladder ([`partition::partition_until_in`]) and the linear walk kept
//!    in [`partition::reference`], on trees of up to 200 nodes whose long
//!    ladders the small trees above never reach;
//! 5. a part count that never increases with the threshold `M` — the
//!    monotonicity the search's exactness rests on.
//!
//! Together with the counter-instrumented test in `heuristic.rs` (one
//! partition run + one solve per fresh EXPAND, zero for retained ones),
//! this is the acceptance evidence that the tail-latency work changed
//! *when* the solver runs, never *what* it computes.

use std::collections::HashMap;
use std::sync::Arc;

use bionav_core::active::ActiveTree;
use bionav_core::edgecut::heuristic::{self, reference, PlannedCut, ReducedPlan};
use bionav_core::edgecut::partition;
use bionav_core::scratch::NavScratch;
use bionav_core::session::Session;
use bionav_core::sim::NavOutcome;
use bionav_core::{CostParams, NavNodeId, NavigationTree, Planner};
use bionav_medline::{Citation, CitationId, CitationStore};
use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
use proptest::prelude::*;

/// A generated concept hierarchy: a pre-order parent vector plus a
/// citation count per node.
#[derive(Debug, Clone)]
struct TreeSpec {
    /// `parents[i - 1] % i` is the parent of node `i` (node 0 is the root).
    parents: Vec<usize>,
    /// Citations annotated with node `i`'s descriptor.
    cites: Vec<u32>,
}

fn tree_spec() -> impl Strategy<Value = TreeSpec> {
    (3usize..22).prop_flat_map(|n| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        // Mix empty, small, and threshold-crossing citation loads so both
        // the pinned (p = 0 / p = 1) and interpolated EXPAND-probability
        // regimes appear.
        let cites = proptest::collection::vec(0u32..15, n);
        (parents, cites).prop_map(|(parents, cites)| TreeSpec { parents, cites })
    })
}

/// Larger trees for the partitioner properties: up to 280 concepts, a mix
/// of long chains and bushy fan-out, and heavy-tailed citation counts with
/// many zero-citation concepts. Uncited leaves drop out of the navigation
/// tree, which leaves up to about 200 nodes; uncited inner nodes stay with
/// the weight floor of 1.
fn big_tree_spec() -> impl Strategy<Value = TreeSpec> {
    (2usize..=280).prop_flat_map(|n| {
        // Mode 0 hangs node i under node i - 1 (a chain link); any other
        // mode picks a uniformly random earlier node.
        let parents = proptest::collection::vec((0u8..4, 0usize..n), n - 1).prop_map(|draws| {
            draws
                .into_iter()
                .enumerate()
                .map(|(j, (mode, r))| if mode == 0 { j } else { r })
                .collect()
        });
        let cites = proptest::collection::vec((0u32..10, 0u32..1000), n).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(tier, r)| match tier {
                    0..=2 => 0,
                    3..=6 => 1 + r % 5,
                    7..=8 => r % 50,
                    _ => r,
                })
                .collect()
        });
        (parents, cites).prop_map(|(parents, cites)| TreeSpec { parents, cites })
    })
}

/// Components to partition: the whole tree, the whole tree minus a few
/// hidden subtrees (members with non-member children), and the subtree of
/// the root's first child (a component rooted below the tree root).
fn partition_components(nav: &NavigationTree) -> Vec<Vec<NavNodeId>> {
    let full: Vec<NavNodeId> = nav.iter_preorder().collect();
    let mut hidden = vec![false; nav.len()];
    for &n in full.iter().skip(5).step_by(9) {
        for d in nav.subtree_nodes(n) {
            hidden[d.index()] = true;
        }
    }
    let holey: Vec<NavNodeId> = full
        .iter()
        .copied()
        .filter(|n| !hidden[n.index()])
        .collect();
    let mut out = vec![full, holey];
    if let Some(&c) = nav.children(NavNodeId::ROOT).first() {
        out.push(nav.subtree_nodes(c));
    }
    out
}

/// Materializes the spec as a real navigation tree via the MeSH + MEDLINE
/// pipeline (tree numbers encode the generated shape).
fn build_nav(spec: &TreeSpec) -> NavigationTree {
    let n = spec.parents.len() + 1;
    let mut tns: Vec<TreeNumber> = Vec::with_capacity(n);
    tns.push(TreeNumber::parse("A01").expect("root tree number"));
    let mut child_ord = vec![0usize; n];
    for i in 1..n {
        let p = spec.parents[i - 1] % i;
        child_ord[p] += 1;
        tns.push(tns[p].child(&format!("{:03}", 100 + child_ord[p])));
    }
    let descs: Vec<Descriptor> = (0..n)
        .map(|i| {
            Descriptor::new(
                DescriptorId(i as u32 + 1),
                format!("concept-{i}"),
                vec![tns[i].clone()],
            )
        })
        .collect();
    let h = ConceptHierarchy::from_descriptors(&descs).expect("generated hierarchy is valid");

    let mut store = CitationStore::new();
    let mut results = Vec::new();
    let mut next = 1u32;
    let mut add = |concept: u32, store: &mut CitationStore, results: &mut Vec<CitationId>| {
        store
            .insert(Citation::new(
                CitationId(next),
                "t",
                vec![],
                vec![DescriptorId(concept)],
                vec![],
            ))
            .expect("fresh citation id");
        results.push(CitationId(next));
        next += 1;
    };
    for (i, &c) in spec.cites.iter().enumerate() {
        for _ in 0..c {
            add(i as u32 + 1, &mut store, &mut results);
        }
    }
    if results.is_empty() {
        // Degenerate all-zero draw: give the root one citation so the
        // navigation tree is non-empty.
        add(1, &mut store, &mut results);
    }
    NavigationTree::build(&h, &store, &results)
}

/// The (max_partitions, planner) grid every property runs over.
fn configs() -> Vec<CostParams> {
    let mut out = Vec::new();
    for k in [2usize, 4, 10] {
        for planner in [Planner::Exhaustive, Planner::Recursive] {
            let mut p = CostParams::default().with_max_partitions(k);
            p.planner = planner;
            out.push(p);
        }
    }
    out
}

fn assert_outcomes_match(a: &heuristic::ExpandOutcome, b: &heuristic::ExpandOutcome) {
    assert_eq!(a.cut, b.cut, "cuts diverge");
    assert_eq!(a.reduced_size, b.reduced_size, "reduced sizes diverge");
    assert_eq!(a.fallback, b.fallback, "fallback flags diverge");
    assert!(
        a.estimated_cost.to_bits() == b.estimated_cost.to_bits()
            || (a.estimated_cost.is_nan() && b.estimated_cost.is_nan()),
        "estimated costs diverge: {} vs {}",
        a.estimated_cost,
        b.estimated_cost
    );
}

fn assert_planned_match(a: &PlannedCut, b: &PlannedCut) {
    assert_eq!(a.cut, b.cut, "planned cuts diverge");
    assert_eq!(a.upper_mask, b.upper_mask, "upper masks diverge");
    assert_eq!(a.lowers, b.lowers, "lower masks diverge");
}

/// Mirrors `Session::register_plan` for the reference-driven replay.
fn register(
    plans: &mut HashMap<NavNodeId, (Arc<ReducedPlan>, u64)>,
    plan: &Arc<ReducedPlan>,
    upper_root: NavNodeId,
    upper_mask: u64,
    lowers: &[(NavNodeId, u64)],
) {
    let mut put = |root: NavNodeId, mask: u64| {
        if mask.count_ones() > 1 {
            plans.insert(root, (plan.clone(), mask));
        } else {
            plans.remove(&root);
        }
    };
    put(upper_root, upper_mask);
    for &(root, mask) in lowers {
        put(root, mask);
    }
}

/// Fully expands `nav` with the production pipeline (plan reuse per
/// `params`), then SHOWRESULTS on every node; returns the log and totals.
fn replay_production(nav: &NavigationTree, params: &CostParams) -> (Vec<String>, NavOutcome) {
    let mut session = Session::new(nav, params.clone());
    let mut guard = 0usize;
    while let Some(hidden) = nav
        .iter_preorder()
        .find(|&n| !session.active().is_visible(n))
    {
        let root = session.active().component_root_of(hidden);
        session.expand(root).expect("multi-node component expands");
        guard += 1;
        assert!(guard <= nav.len(), "production replay failed to progress");
    }
    for node in nav.iter_preorder() {
        session.show_results(node).expect("all nodes visible");
    }
    let log: Vec<String> = session.log().iter().map(|a| format!("{a:?}")).collect();
    (log, session.cost().clone())
}

/// Fully expands `nav` driving the session with cuts from the kept-for-test
/// two-pass reference pipeline. With `reuse` set, retained plans are
/// mirrored via `ReducedPlan::cut_uncached` (throwaway memos), i.e. the
/// reference replay never benefits from the retained solver memo.
fn replay_reference(
    nav: &NavigationTree,
    params: &CostParams,
    reuse: bool,
) -> (Vec<String>, NavOutcome) {
    let mut session = Session::new(nav, params.clone());
    let mut plans: HashMap<NavNodeId, (Arc<ReducedPlan>, u64)> = HashMap::new();
    let mut guard = 0usize;
    while let Some(hidden) = nav
        .iter_preorder()
        .find(|&n| !session.active().is_visible(n))
    {
        let root = session.active().component_root_of(hidden);
        let mut done = false;
        if reuse {
            if let Some((plan, mask)) = plans.get(&root).cloned() {
                if let Some(pc) = plan.cut_uncached(mask, params) {
                    session
                        .expand_with(root, &pc.cut)
                        .expect("planned cut is valid");
                    register(&mut plans, &plan, root, pc.upper_mask, &pc.lowers);
                    done = true;
                } else {
                    plans.remove(&root);
                }
            }
        }
        if !done {
            let comp = session.active().component_nodes(nav, root);
            let (out, planned) =
                reference::plan_component(nav, &comp, params).expect("component expands");
            session
                .expand_with(root, &out.cut)
                .expect("reference cut is valid");
            plans.remove(&root);
            if reuse {
                if let Some((plan, pc)) = planned {
                    let plan = Arc::new(plan);
                    register(&mut plans, &plan, root, pc.upper_mask, &pc.lowers);
                }
            }
        }
        guard += 1;
        assert!(guard <= nav.len(), "reference replay failed to progress");
    }
    for node in nav.iter_preorder() {
        session.show_results(node).expect("all nodes visible");
    }
    let log: Vec<String> = session.log().iter().map(|a| format!("{a:?}")).collect();
    (log, session.cost().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: the single-pass pipeline's outcome and retained plan are
    /// identical to the two-pass reference's, for every config.
    #[test]
    fn single_pass_planning_matches_the_two_pass_reference(spec in tree_spec()) {
        let nav = build_nav(&spec);
        let active = ActiveTree::new(&nav);
        let comp = active.component_nodes(&nav, NavNodeId::ROOT);
        for params in configs() {
            let fast = heuristic::plan_component(&nav, &comp, &params);
            let slow = reference::plan_component(&nav, &comp, &params);
            match (&fast, &slow) {
                (None, None) => {}
                (Some((fo, fp)), Some((so, sp))) => {
                    assert_outcomes_match(fo, so);
                    match (fp, sp) {
                        (None, None) => {}
                        (Some((fplan, fcut)), Some((splan, scut))) => {
                            prop_assert_eq!(fplan.len(), splan.len());
                            prop_assert_eq!(fplan.full_mask(), splan.full_mask());
                            assert_planned_match(fcut, scut);
                        }
                        _ => prop_assert!(false, "plan retention diverges for {:?}", params),
                    }
                }
                _ => prop_assert!(false, "outcome presence diverges for {:?}", params),
            }
        }
    }

    /// Property 2: retained-memo cuts equal throwaway-solver cuts over the
    /// whole cascade of sub-component masks a plan can be asked about, and
    /// the memo actually accumulates entries while serving them.
    #[test]
    fn retained_memo_cuts_match_uncached_solves(spec in tree_spec()) {
        let nav = build_nav(&spec);
        let active = ActiveTree::new(&nav);
        let comp = active.component_nodes(&nav, NavNodeId::ROOT);
        for params in configs() {
            let Some((_, Some((plan, first)))) = heuristic::plan_component(&nav, &comp, &params)
            else {
                continue;
            };
            let mut queue: Vec<u64> = vec![plan.full_mask(), first.upper_mask];
            queue.extend(first.lowers.iter().map(|&(_, m)| m));
            let mut steps = 0usize;
            while let Some(mask) = queue.pop() {
                if mask.count_ones() <= 1 {
                    continue;
                }
                steps += 1;
                prop_assert!(steps <= 4 * plan.len() * plan.len(), "mask cascade runaway");
                let cached = plan.cut(mask, &params);
                let uncached = plan.cut_uncached(mask, &params);
                match (&cached, &uncached) {
                    (None, None) => {}
                    (Some(c), Some(u)) => {
                        assert_planned_match(c, u);
                        queue.push(c.upper_mask);
                        queue.extend(c.lowers.iter().map(|&(_, m)| m));
                    }
                    _ => prop_assert!(false, "cut presence diverges on mask {mask:#b}"),
                }
            }
            prop_assert!(plan.memo_len() > 0, "memo never accumulated");
        }
    }

    /// Property 3: full-expansion replays — identical action logs and
    /// `NavOutcome` totals against the reference-driven session, with plan
    /// reuse off (every EXPAND fresh) and on (retained cuts in play).
    #[test]
    fn session_replays_match_the_reference_pipeline(spec in tree_spec()) {
        let nav = build_nav(&spec);
        for base in configs() {
            for reuse in [false, true] {
                let mut params = base.clone();
                params.reuse_plans = reuse;
                let (fast_log, fast_total) = replay_production(&nav, &params);
                let (slow_log, slow_total) = replay_reference(&nav, &params, reuse);
                prop_assert_eq!(&fast_log, &slow_log, "logs diverge (reuse={})", reuse);
                prop_assert_eq!(&fast_total, &slow_total, "totals diverge (reuse={})", reuse);
            }
        }
    }
}

proptest! {
    /// Property 4: the ladder search returns exactly the partitions of the
    /// linear walk, for every budget k the solver accepts, on every kind of
    /// component, with one arena reused across all calls.
    #[test]
    fn ladder_search_matches_the_linear_walk(spec in big_tree_spec()) {
        let nav = build_nav(&spec);
        let mut scratch = NavScratch::new();
        for comp in partition_components(&nav) {
            for k in 2..=19 {
                let search = partition::partition_until_in(&nav, &comp, k, &mut scratch);
                let linear = partition::reference::partition_until(&nav, &comp, k);
                prop_assert_eq!(search, linear, "k={} |comp|={}", k, comp.len());
            }
        }
    }

    /// Property 5: one clustering pass never leaves more parts at a larger
    /// threshold. Sweeps M from 1 to W(C) in steps of about 6%.
    #[test]
    fn part_count_is_non_increasing_in_m(spec in big_tree_spec()) {
        let nav = build_nav(&spec);
        let mut scratch = NavScratch::new();
        for comp in partition_components(&nav) {
            let total: u64 = comp
                .iter()
                .map(|&n| u64::from(nav.results_count(n)).max(1))
                .sum();
            let mut prev = usize::MAX;
            let mut m = 1u64;
            loop {
                let count = partition::partition_component_in(&nav, &comp, m, &mut scratch).len();
                prop_assert!(count <= prev, "M={} gave {} parts after {}", m, count, prev);
                prev = count;
                if m >= total {
                    prop_assert_eq!(count, 1, "M = W(C) leaves one part");
                    break;
                }
                m = (m + m / 16).max(m + 1).min(total);
            }
        }
    }
}

/// Deterministic spot-check (fast, runs even with proptest filtered out):
/// a bushy skewed tree where the heuristic makes non-trivial choices.
#[test]
fn equivalence_on_a_fixed_bushy_tree() {
    let spec = TreeSpec {
        // Root with four branches, two of them two-deep chains.
        parents: vec![0, 0, 0, 0, 1, 5, 2, 7, 3, 3, 4],
        cites: vec![1, 9, 13, 2, 11, 6, 14, 0, 3, 8, 5, 12],
    };
    let nav = build_nav(&spec);
    assert!(nav.len() >= 4, "fixture tree unexpectedly pruned");
    for params in configs() {
        let active = ActiveTree::new(&nav);
        let comp = active.component_nodes(&nav, NavNodeId::ROOT);
        let fast = heuristic::plan_component(&nav, &comp, &params);
        let slow = reference::plan_component(&nav, &comp, &params);
        assert_eq!(fast.is_some(), slow.is_some());
        if let (Some((fo, _)), Some((so, _))) = (&fast, &slow) {
            assert_outcomes_match(fo, so);
        }
        for reuse in [false, true] {
            let mut p = params.clone();
            p.reuse_plans = reuse;
            let (fast_log, fast_total) = replay_production(&nav, &p);
            let (slow_log, slow_total) = replay_reference(&nav, &p, reuse);
            assert_eq!(fast_log, slow_log);
            assert_eq!(fast_total, slow_total);
        }
    }
}

//! Bottom-up tree partitioning (paper §VI, after Kundu & Misra's
//! minimum-cardinality tree partitioning).
//!
//! Heuristic-ReducedOpt shrinks a component subtree to at most `k`
//! connected partitions so the exact solver can run on the partition
//! (super-node) tree in interactive time. The algorithm processes the tree
//! bottom-up: each node accumulates the weight of its still-attached
//! children clusters and, while its cluster exceeds the weight threshold
//! `M`, detaches the heaviest child cluster as a finished partition. The
//! paper sets `M = W(C)/k` and re-runs with a gradually increased `M` until
//! at most `k` partitions remain.
//!
//! Node weights are `max(1, |R(n)|)` — the paper uses `|R(n)|`, and in a
//! navigation tree every non-root node carries results; the floor of 1 only
//! matters for the (possibly empty) root and keeps zero-weight chains from
//! producing unbounded partition counts.
//!
//! # Searching the M ladder
//!
//! The reduction loop's thresholds form a fixed ladder: `M₀ = max(W/k, 1)`,
//! then `M + max(M/7, 1)` while below `W`, then `W` itself. Walking it
//! linearly stops at the first rung whose pass leaves ≤ `k` partitions.
//! [`partition_until_in`] binary-searches the rung index instead, which
//! stops at the same rung because the part count never increases as `M`
//! rises:
//!
//! * Call a partition *valid for `M`* when every part is connected and
//!   weighs ≤ `M` or is a single node. A partition valid for `M` is valid
//!   for every larger `M`, so the minimum number of parts over valid
//!   partitions is non-increasing in `M`.
//! * One pass attains that minimum. A node heavier than `M` is a singleton
//!   in every valid partition; the pass isolates it too, because its
//!   cluster stays above `M` until every child is detached, and a parent
//!   detaches such a cluster before any lighter one. On the pieces left
//!   between those nodes every weight is ≤ `M`, and there Kundu & Misra's
//!   exchange argument applies: detaching the heaviest child clusters
//!   first leaves the lightest possible cluster attached upward with the
//!   fewest detachments.
//!
//! The last rung `W` always qualifies (no cluster outweighs the whole
//! component, so nothing detaches), so the search needs at most
//! ⌈log₂ L⌉ passes over an `L`-rung ladder, plus one re-run of the
//! accepted rung when it was not the last one probed. The linear walk
//! survives only as the test oracle [`reference::partition_until`];
//! `tests/plan_equivalence.rs` checks search ≡ linear and the monotone part
//! count on generated trees.
//!
//! # Allocation discipline
//!
//! Each call stamps component membership in the [`NavScratch`]'s
//! [`NodeMap`] once and builds a component-local child CSR (offsets into
//! a flat array of component indices) plus the local node weights. A pass
//! then touches only those arrays: it copies the child lists into a work
//! buffer, walks the component in reverse pre-order, and never probes a
//! non-member child or re-stamps the map. Only the accepted pass
//! materializes [`Partition`] values. The plain entry points wrap the
//! `*_in` forms with a throwaway arena and produce bit-identical output.

use crate::edgecut::counters;
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::{NavScratch, NodeMap, PartitionArena};

/// One connected partition of a component subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The shallowest node of the partition (its connection point upward).
    pub root: NavNodeId,
    /// Every member node, in navigation pre-order (root first).
    pub nodes: Vec<NavNodeId>,
    /// Total weight `Σ max(1, |R(n)|)`.
    pub weight: u64,
}

fn node_weight(nav: &NavigationTree, n: NavNodeId) -> u64 {
    u64::from(nav.results_count(n)).max(1)
}

/// Stamps component membership (node slot → component index) into `map`
/// and builds the component-local child CSR and node weights in `arena`.
/// Returns the component weight `W(C)`.
fn load_component(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    map: &mut NodeMap,
    arena: &mut PartitionArena,
) -> u64 {
    map.begin(nav.len());
    for (i, &n) in comp.iter().enumerate() {
        map.set(n.index(), i as u32);
    }
    arena.kid_start.clear();
    arena.kids.clear();
    arena.weight.clear();
    let mut total = 0;
    for &n in comp {
        arena.kid_start.push(arena.kids.len() as u32);
        arena
            .kids
            .extend(nav.children(n).iter().filter_map(|c| map.get(c.index())));
        let w = node_weight(nav, n);
        arena.weight.push(w);
        total += w;
    }
    arena.kid_start.push(arena.kids.len() as u32);
    // Every slot is written (children before parents) before it is read.
    arena.cluster_weight.resize(comp.len(), 0);
    total
}

/// Runs one bottom-up clustering pass with threshold `max_weight` over the
/// component loaded by [`load_component`].
///
/// On return `arena.detached` holds the component indices of the partition
/// roots — the component root (index 0) last.
fn cluster_pass(arena: &mut PartitionArena, max_weight: u64) {
    counters::note_cluster_pass();
    let PartitionArena {
        kid_start,
        kids,
        weight,
        cluster_weight,
        work,
        detached,
        ..
    } = arena;
    work.clear();
    work.extend_from_slice(kids);
    detached.clear();

    // Pre-order guarantees children come after parents; process in reverse.
    // work[start..end] holds node i's still-attached child cluster roots.
    for i in (0..weight.len()).rev() {
        let start = kid_start[i] as usize;
        let mut end = kid_start[i + 1] as usize;
        let mut w = weight[i]
            + work[start..end]
                .iter()
                .map(|&c| cluster_weight[c as usize])
                .sum::<u64>();
        while w > max_weight && start < end {
            // Detach the heaviest child cluster as a finished partition.
            // `max_by_key` keeps the *last* maximum on ties, and moving the
            // segment's last live slot into the hole is `Vec::swap_remove`,
            // so every tie breaks as in `reference`'s per-node lists.
            let (pos, &heaviest) = work[start..end]
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| cluster_weight[c as usize])
                // lint: allow(no-unwrap) — the while condition just checked
                // that the live segment is non-empty
                .expect("non-empty");
            end -= 1;
            work[start + pos] = work[end];
            w -= cluster_weight[heaviest as usize];
            detached.push(heaviest as usize);
        }
        cluster_weight[i] = w;
    }
    detached.push(0); // the root's remaining cluster
}

/// Materializes the partitions recorded in `arena.detached` by the most
/// recent clustering pass over the same `comp`/`map` state.
fn materialize(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    map: &NodeMap,
    arena: &mut PartitionArena,
) -> Vec<Partition> {
    // partition_of[i]: partition id of comp[i]; u32::MAX = unassigned.
    arena.partition_of.clear();
    arena.partition_of.resize(comp.len(), u32::MAX);
    for (pid, &root_idx) in arena.detached.iter().enumerate() {
        arena.partition_of[root_idx] = pid as u32;
    }
    // Pre-order pass: a node inherits its parent's partition unless it is a
    // partition root itself.
    for (i, &n) in comp.iter().enumerate().skip(1) {
        if arena.partition_of[i] != u32::MAX {
            continue;
        }
        // lint: allow(no-unwrap) — skip(1) leaves only non-root members,
        // whose nav parents exist by tree construction
        let parent = nav.parent(n).expect("non-root nodes have parents");
        let pi = map
            .get(parent.index())
            // lint: allow(no-unwrap) — components are parent-closed: the
            // stamped map covers every member's parent (debug-checked below)
            .expect("parents of non-root component members are in the component")
            as usize;
        debug_assert!(
            arena.partition_of[pi] != u32::MAX,
            "pre-order invariant: the parent was assigned before its child"
        );
        arena.partition_of[i] = arena.partition_of[pi];
    }

    let mut parts: Vec<Partition> = arena
        .detached
        .iter()
        .map(|&ri| Partition {
            root: comp[ri],
            nodes: Vec::new(),
            weight: 0,
        })
        .collect();
    for (i, &n) in comp.iter().enumerate() {
        let pid = arena.partition_of[i];
        debug_assert_ne!(pid, u32::MAX, "every node lands in a partition");
        parts[pid as usize].nodes.push(n);
        parts[pid as usize].weight += node_weight(nav, n);
    }
    // Root partition first, the rest in pre-order of their roots.
    parts.sort_by_key(|p| {
        if p.root == comp[0] {
            (0, p.root.0)
        } else {
            (1, p.root.0)
        }
    });
    parts
}

/// Partitions the component given by `comp` (its nodes in navigation
/// pre-order, `comp[0]` being the component root) with weight threshold
/// `max_weight`. Every partition is connected; partitions may exceed
/// `max_weight` only when a single node does.
pub fn partition_component(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    max_weight: u64,
) -> Vec<Partition> {
    let mut scratch = NavScratch::new();
    partition_component_in(nav, comp, max_weight, &mut scratch)
}

/// [`partition_component`] with a caller-owned scratch arena; allocates
/// nothing beyond the returned partitions once the arena has warmed up.
pub fn partition_component_in(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    max_weight: u64,
    scratch: &mut NavScratch,
) -> Vec<Partition> {
    assert!(!comp.is_empty(), "cannot partition an empty component");
    let (map, arena) = scratch.parts();
    load_component(nav, comp, map, arena);
    cluster_pass(arena, max_weight.max(1));
    materialize(nav, comp, map, arena)
}

/// Fills `ladder` with the reduction loop's thresholds for a component of
/// weight `total` and budget `k`: `max(W/k, 1)`, then steps of
/// `max(M/7, 1)` while below `W`, then `W`. Always at least two rungs.
pub(crate) fn fill_ladder(ladder: &mut Vec<u64>, total: u64, k: usize) {
    ladder.clear();
    let mut m = (total / k as u64).max(1);
    loop {
        ladder.push(m);
        // 15% steps track the smallest M reaching ≤ k reasonably closely,
        // which keeps the reduced tree as fine-grained as allowed.
        m = (m + m / 7).max(m + 1);
        if m >= total {
            ladder.push(total.max(1));
            return;
        }
    }
}

/// The paper's reduction loop: the smallest threshold on the ladder from
/// `M = W(C)/k` to `W(C)` that leaves at most `k` partitions.
pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
    let mut scratch = NavScratch::new();
    partition_until_in(nav, comp, k, &mut scratch)
}

/// [`partition_until`] with a caller-owned scratch arena. Binary-searches
/// the ladder (see the module docs); probes only count detached clusters,
/// and partitions are materialized once for the accepted threshold.
pub fn partition_until_in(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    k: usize,
    scratch: &mut NavScratch,
) -> Vec<Partition> {
    assert!(k >= 1);
    assert!(!comp.is_empty(), "cannot partition an empty component");
    counters::note_partition_run();
    let (map, arena) = scratch.parts();
    let total = load_component(nav, comp, map, arena);
    fill_ladder(&mut arena.ladder, total, k);
    // Smallest qualifying rung index; the last rung always qualifies.
    let (mut lo, mut hi) = (0, arena.ladder.len() - 1);
    let mut probed = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let m = arena.ladder[mid];
        cluster_pass(arena, m);
        probed = Some(mid);
        if arena.detached.len() <= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if probed != Some(lo) {
        let m = arena.ladder[lo];
        cluster_pass(arena, m);
    }
    materialize(nav, comp, map, arena)
}

/// The linear ladder walk with a per-pass membership re-stamp and per-node
/// child lists, kept verbatim from before the search as the oracle for
/// [`partition_until`] (`tests/plan_equivalence.rs`) and as the input of
/// [`heuristic::reference`](crate::edgecut::heuristic::reference). **Not
/// used in serving.** Do not optimize it; its value is fidelity.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Pass-local state of the historical clustering pass.
    #[derive(Default)]
    struct LinearState {
        cluster_weight: Vec<u64>,
        cluster_children: Vec<Vec<usize>>,
    }

    /// The historical `cluster_pass`: re-stamps membership and rebuilds
    /// every node's child-cluster list from `nav` on each call.
    fn cluster_pass(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        max_weight: u64,
        map: &mut NodeMap,
        state: &mut LinearState,
        detached: &mut Vec<usize>,
    ) {
        map.begin(nav.len());
        for (i, &n) in comp.iter().enumerate() {
            map.set(n.index(), i as u32);
        }
        if state.cluster_weight.len() < comp.len() {
            state.cluster_weight.resize(comp.len(), 0);
            state.cluster_children.resize(comp.len(), Vec::new());
        }
        for (i, &n) in comp.iter().enumerate() {
            state.cluster_weight[i] = node_weight(nav, n);
            state.cluster_children[i].clear();
        }
        detached.clear();
        for i in (0..comp.len()).rev() {
            for &c in nav.children(comp[i]) {
                if let Some(ci) = map.get(c.index()) {
                    let ci = ci as usize;
                    state.cluster_children[i].push(ci);
                    state.cluster_weight[i] += state.cluster_weight[ci];
                }
            }
            while state.cluster_weight[i] > max_weight && !state.cluster_children[i].is_empty() {
                let (pos, &heaviest) = state.cluster_children[i]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| state.cluster_weight[c])
                    // lint: allow(no-unwrap) — the while condition just
                    // checked cluster_children[i] is non-empty
                    .expect("non-empty");
                state.cluster_children[i].swap_remove(pos);
                let w = state.cluster_weight[heaviest];
                state.cluster_weight[i] -= w;
                detached.push(heaviest);
            }
        }
        detached.push(0);
    }

    /// The linear reduction loop: one full pass per rung, from
    /// `M = W(C)/k` upward, stopping at the first rung with ≤ `k` parts.
    pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
        assert!(k >= 1);
        assert!(!comp.is_empty(), "cannot partition an empty component");
        let mut scratch = NavScratch::new();
        let mut state = LinearState::default();
        let total: u64 = comp.iter().map(|&n| node_weight(nav, n)).sum();
        let mut m = (total / k as u64).max(1);
        let (map, arena) = scratch.parts();
        loop {
            cluster_pass(nav, comp, m.max(1), map, &mut state, &mut arena.detached);
            if arena.detached.len() <= k {
                return materialize(nav, comp, map, arena);
            }
            m = (m + m / 7).max(m + 1);
            if m >= total {
                cluster_pass(
                    nav,
                    comp,
                    total.max(1),
                    map,
                    &mut state,
                    &mut arena.detached,
                );
                return materialize(nav, comp, map, arena);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::{Citation, CitationId, CitationStore};
    use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    /// Builds a navigation tree shaped like the descriptor list, attaching
    /// `counts[i]` fresh citations to descriptor `i+1`.
    fn nav_with(shape: &[(&str, &str)], counts: &[u32]) -> NavigationTree {
        let descs: Vec<Descriptor> = shape
            .iter()
            .enumerate()
            .map(|(i, (label, t))| Descriptor::new(DescriptorId(i as u32 + 1), *label, vec![tn(t)]))
            .collect();
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        let mut next = 1u32;
        let mut results = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                store
                    .insert(Citation::new(
                        CitationId(next),
                        "t",
                        vec![],
                        vec![DescriptorId(i as u32 + 1)],
                        vec![],
                    ))
                    .unwrap();
                results.push(CitationId(next));
                next += 1;
            }
        }
        NavigationTree::build(&h, &store, &results)
    }

    fn chain_tree() -> NavigationTree {
        nav_with(
            &[
                ("a", "A01"),
                ("b", "A01.100"),
                ("c", "A01.100.100"),
                ("d", "A01.100.100.100"),
            ],
            &[4, 4, 4, 4],
        )
    }

    #[test]
    fn partitions_cover_exactly_and_are_connected() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 5);
        let mut all: Vec<NavNodeId> = parts.iter().flat_map(|p| p.nodes.clone()).collect();
        all.sort();
        let mut expected: Vec<NavNodeId> = comp.clone();
        expected.sort();
        assert_eq!(
            all, expected,
            "partitions must cover the component exactly once"
        );
        for p in &parts {
            // Connectivity: every member other than the partition root has
            // its navigation parent inside the same partition.
            for &n in &p.nodes {
                if n != p.root {
                    let parent = nav.parent(n).unwrap();
                    assert!(p.nodes.contains(&parent), "partition must be connected");
                }
            }
        }
    }

    #[test]
    fn weight_threshold_is_respected_when_splittable() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for m in [4u64, 5, 8, 9, 100] {
            let parts = partition_component(&nav, &comp, m);
            for p in &parts {
                assert!(
                    p.weight <= m || p.nodes.len() == 1,
                    "partition weight {} exceeds M={m} with {} nodes",
                    p.weight,
                    p.nodes.len()
                );
            }
        }
    }

    #[test]
    fn huge_threshold_gives_one_partition() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1_000);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].root, NavNodeId::ROOT);
    }

    #[test]
    fn tiny_threshold_isolates_every_node() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1);
        assert_eq!(parts.len(), comp.len());
    }

    #[test]
    fn root_partition_comes_first() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for m in [1u64, 4, 9, 1000] {
            let parts = partition_component(&nav, &comp, m);
            assert_eq!(parts[0].root, comp[0]);
        }
    }

    #[test]
    fn partition_until_meets_the_bound() {
        // A wider tree: root with 4 branches of 3 nodes each.
        let nav = nav_with(
            &[
                ("a", "A01"),
                ("a1", "A01.100"),
                ("a2", "A01.100.100"),
                ("b", "B01"),
                ("b1", "B01.100"),
                ("b2", "B01.100.100"),
                ("c", "C01"),
                ("c1", "C01.100"),
                ("c2", "C01.100.100"),
                ("d", "D01"),
                ("d1", "D01.100"),
                ("d2", "D01.100.100"),
            ],
            &[3, 5, 2, 4, 1, 6, 2, 2, 2, 7, 1, 1],
        );
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for k in [2usize, 3, 5, 8, 10] {
            let parts = partition_until(&nav, &comp, k);
            assert!(parts.len() <= k, "k={k} gave {} partitions", parts.len());
            assert!(!parts.is_empty());
        }
    }

    #[test]
    fn single_node_component_is_one_partition() {
        let nav = chain_tree();
        let leaf = nav
            .iter_preorder()
            .find(|&n| nav.children(n).is_empty())
            .unwrap();
        let parts = partition_component(&nav, &[leaf], 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].nodes, vec![leaf]);
        let parts = partition_until(&nav, &[leaf], 10);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn oversize_single_nodes_become_their_own_partition() {
        // One node carries far more weight than the threshold; it cannot be
        // split, so it stands alone and the invariant "weight ≤ M unless a
        // single node" holds.
        let nav = nav_with(
            &[("a", "A01"), ("heavy", "A01.100"), ("b", "A01.200")],
            &[2, 50, 2],
        );
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 5);
        let heavy = nav.find_by_label("heavy").unwrap();
        let heavy_part = parts.iter().find(|p| p.nodes.contains(&heavy)).unwrap();
        assert_eq!(heavy_part.nodes, vec![heavy]);
        assert!(heavy_part.weight > 5);
    }

    #[test]
    fn weights_floor_at_one_for_the_empty_root() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1);
        let root_part = parts.iter().find(|p| p.root == NavNodeId::ROOT).unwrap();
        assert_eq!(root_part.weight, 1); // the root has no results
    }

    #[test]
    fn partitioning_a_subcomponent_works() {
        let nav = chain_tree();
        // Component = subtree of the first child of root.
        let sub_root = nav.children(NavNodeId::ROOT)[0];
        let comp = nav.subtree_nodes(sub_root);
        let parts = partition_component(&nav, &comp, 6);
        assert!(parts.len() >= 2);
        assert_eq!(parts[0].root, sub_root);
        let n: usize = parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(n, comp.len());
    }

    #[test]
    fn arena_reuse_matches_fresh_scratch() {
        // Re-using one arena across many calls with different thresholds
        // and components must give the same answer as throwaway state.
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let sub_root = nav.children(NavNodeId::ROOT)[0];
        let sub = nav.subtree_nodes(sub_root);
        let mut scratch = NavScratch::new();
        for m in [1u64, 4, 5, 8, 9, 100, 1000] {
            let fresh = partition_component(&nav, &comp, m);
            let reused = partition_component_in(&nav, &comp, m, &mut scratch);
            assert_eq!(fresh, reused, "M={m} full component");
            let fresh = partition_component_in(&nav, &sub, m, &mut NavScratch::new());
            let reused = partition_component_in(&nav, &sub, m, &mut scratch);
            assert_eq!(fresh, reused, "M={m} subcomponent");
        }
        for k in [1usize, 2, 3, 7, 50] {
            let fresh = partition_until(&nav, &comp, k);
            let reused = partition_until_in(&nav, &comp, k, &mut scratch);
            assert_eq!(fresh, reused, "k={k}");
        }
    }
}

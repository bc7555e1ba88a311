//! Interactive navigation sessions (paper §VII, the on-line navigation
//! subsystem).
//!
//! A [`Session`] wraps an [`ActiveTree`] with the four user actions of the
//! navigation model — EXPAND, SHOWRESULTS, IGNORE, BACKTRACK — keeps an
//! action log, and tallies the §III user cost as the session progresses.
//! EXPAND runs Heuristic-ReducedOpt; the raw cut API is also exposed for
//! clients that drive their own cuts (tests, the optimal-algorithm
//! ablation).
//!
//! ```
//! use bionav_core::session::Session;
//! use bionav_core::{CostParams, NavNodeId, NavigationTree};
//! use bionav_medline::{Citation, CitationId, CitationStore};
//! use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
//!
//! // A two-concept hierarchy and two annotated citations.
//! let hierarchy = ConceptHierarchy::from_descriptors(&[
//!     Descriptor::new(DescriptorId(1), "Apoptosis", vec![TreeNumber::parse("G16").unwrap()]),
//!     Descriptor::new(DescriptorId(2), "Necrosis", vec![TreeNumber::parse("G17").unwrap()]),
//! ])?;
//! let mut store = CitationStore::new();
//! store.insert(Citation::new(CitationId(1), "a", vec![], vec![DescriptorId(1)], vec![])).unwrap();
//! store.insert(Citation::new(CitationId(2), "b", vec![], vec![DescriptorId(2)], vec![])).unwrap();
//!
//! let nav = NavigationTree::build(&hierarchy, &store, &[CitationId(1), CitationId(2)]);
//! let mut session = Session::new(&nav, CostParams::default());
//! let revealed = session.expand(NavNodeId::ROOT).unwrap();
//! assert!(!revealed.is_empty());
//! let listed = session.show_results(revealed[0]).unwrap();
//! assert!(!listed.is_empty());
//! # Ok::<(), bionav_mesh::MeshError>(())
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// CutCache's lock and counters go through the sync shim so the interleave
// model tests explore the production insert/get/validate paths (§5d).
use crate::sync::{AtomicU64, Mutex, Ordering};

use bionav_medline::CitationId;

use crate::active::{ActiveTree, EdgeCut, EdgeCutError, VisNode};
use crate::cost::CostParams;
use crate::edgecut::heuristic::{plan_component_with, ReducedPlan};
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::NavScratch;
use crate::sim::NavOutcome;

/// A retained reduced tree plus the unit mask describing one of its
/// sub-components (keyed by the component's root in [`Session::plans`]).
///
/// Plans are retained behind an [`Arc`] (not `Rc`): sessions must be
/// `Send` so the serving engine can park them in a shared table and resume
/// them from any worker thread.
#[derive(Debug, Clone)]
struct PlanEntry {
    plan: Arc<ReducedPlan>,
    mask: u64,
}

/// A bounded, thread-safe memo of `component → EdgeCut` decisions, shared
/// **across sessions** over the same navigation tree (the serving engine
/// keeps one per cached tree).
///
/// Heuristic-ReducedOpt is a pure function of `(tree, component, params)`,
/// so for a fixed tree and fixed engine params the cut chosen for a
/// component is fully determined by the component's node list. Faceted
/// search engines exploit exactly this by caching per-query doc-set
/// layouts across refinements; here it means the *first* session over a
/// query pays the partition+solve for each component it expands, and every
/// later session replaying the same navigation state gets the identical
/// cut from one hash lookup. Results are bit-identical by construction —
/// the cache stores the exact `EdgeCut` the fresh pipeline computed.
///
/// Keys are `(hash, len)` fingerprints of the component's pre-order node
/// list. A hash collision would hand a cut belonging to a different
/// component to [`Session::expand_cached`]; the session validates every
/// cached cut against the live component (`ActiveTree` cut validation) and
/// falls back to a fresh solve when it does not apply, so a collision
/// costs one failed validation, never a wrong navigation.
///
/// Memory is bounded: once `capacity` distinct components are cached,
/// further misses compute fresh without inserting (no LRU churn on the hot
/// path; components of one tree are few). Hit/miss counters are relaxed
/// atomics for engine telemetry.
#[derive(Debug, Default)]
pub struct CutCache {
    map: Mutex<HashMap<(u64, u32), EdgeCut>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl CutCache {
    /// An empty cache holding at most `capacity` distinct components.
    pub fn new(capacity: usize) -> Self {
        CutCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// Number of memoized components.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh solve.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached cuts refused by [`ActiveTree`] validation — fingerprint
    /// collisions that handed a foreign cut to this component. Expected to
    /// stay zero in practice; the serve path recovers with a fresh solve
    /// either way, so this is a diagnostic tally, not an error count.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Records one refused cached cut (see [`CutCache::collisions`]).
    pub(crate) fn note_collision(&self) {
        // Relaxed: diagnostic tally only; nothing is ordered against it.
        self.collisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes the hit/miss/collision counters, keeping the memoized cuts
    /// (for telemetry-window resets).
    pub fn reset_counters(&self) {
        // Relaxed: counter window reset; per-counter coherence suffices.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.collisions.store(0, Ordering::Relaxed);
    }

    /// Fingerprint of a component's pre-order node list.
    fn fingerprint(comp: &[NavNodeId]) -> (u64, u32) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        comp.hash(&mut h);
        (h.finish(), comp.len() as u32)
    }

    fn get(&self, fp: (u64, u32)) -> Option<EdgeCut> {
        let hit = self.map.lock().get(&fp).cloned();
        // Relaxed: hit/miss tallies are telemetry; the map lock above is
        // what orders the lookup itself.
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn put(&self, fp: (u64, u32), cut: &EdgeCut) {
        // An empty cut expands nothing; memoizing one would turn a
        // transient planner decline into a permanent no-op for every
        // session hitting this fingerprint. Refuse instead of trusting
        // the caller.
        debug_assert!(!cut.is_empty(), "never memoize an empty cut");
        if cut.is_empty() {
            return;
        }
        let mut map = self.map.lock();
        if map.len() < self.capacity || map.contains_key(&fp) {
            map.insert(fp, cut.clone());
        }
    }
}

/// Model-checker hooks: the interleave models (`tests/interleave_models.rs`)
/// drive the private fingerprint/get/put protocol directly, so the explored
/// code is the production code, not a replica.
#[cfg(interleave)]
impl CutCache {
    /// [`CutCache::get`] keyed by a component node list (model tests only).
    pub fn model_get(&self, comp: &[NavNodeId]) -> Option<EdgeCut> {
        self.get(Self::fingerprint(comp))
    }

    /// [`CutCache::put`] keyed by a component node list (model tests only).
    pub fn model_put(&self, comp: &[NavNodeId], cut: &EdgeCut) {
        self.put(Self::fingerprint(comp), cut)
    }
}

/// One logged user action.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Action {
    /// The user expanded `node`, revealing `revealed` new concepts.
    Expand {
        /// The expanded component root.
        node: NavNodeId,
        /// The lower roots the EdgeCut revealed.
        revealed: Vec<NavNodeId>,
    },
    /// The user listed the citations of `node`'s component.
    ShowResults {
        /// The inspected component root.
        node: NavNodeId,
        /// How many citations were listed.
        count: u32,
    },
    /// The user dismissed `node` as uninteresting.
    Ignore {
        /// The dismissed node.
        node: NavNodeId,
    },
    /// The user undid the last expansion.
    Backtrack,
}

/// An interactive BioNav navigation over one query result.
///
/// Generic over how the navigation tree is held: `T` is any
/// `Borrow<NavigationTree>` — a plain `&NavigationTree` for borrowing
/// callers (the common case; type inference keeps `Session::new(&nav, …)`
/// working unchanged) or an `Arc<NavigationTree>` for the serving engine,
/// whose sessions outlive any one stack frame and hop across worker
/// threads.
#[derive(Debug)]
pub struct Session<T: Borrow<NavigationTree>> {
    nav: T,
    active: ActiveTree,
    params: CostParams,
    log: Vec<Action>,
    cost: NavOutcome,
    /// Retained reduced trees per component root
    /// ([`CostParams::reuse_plans`]). Cleared on BACKTRACK — the undo
    /// invalidates the masks.
    plans: HashMap<NavNodeId, PlanEntry>,
    /// Reusable EXPAND scratch arena (DESIGN.md §5c). Holds no navigation
    /// state, hence not part of [`SessionState`]; rebuilt empty on restore.
    scratch: NavScratch,
    /// Reusable component-node buffer for the EXPAND hot path.
    comp_buf: Vec<NavNodeId>,
}

impl<T: Borrow<NavigationTree>> Session<T> {
    /// Starts a session on `nav`; initially only the root is visible.
    pub fn new(nav: T, params: CostParams) -> Self {
        let active = ActiveTree::new(nav.borrow());
        Session {
            nav,
            active,
            params,
            log: Vec::new(),
            cost: NavOutcome::default(),
            plans: HashMap::new(),
            scratch: NavScratch::new(),
            comp_buf: Vec::new(),
        }
    }

    /// The underlying navigation tree.
    pub fn nav(&self) -> &NavigationTree {
        self.nav.borrow()
    }

    /// The current active tree (read-only state).
    pub fn active(&self) -> &ActiveTree {
        &self.active
    }

    /// Distinct citations in the component rooted at the visible `node`.
    pub fn component_distinct(&self, node: NavNodeId) -> u32 {
        self.active.component_distinct(self.nav.borrow(), node)
    }

    /// Number of hidden nodes (including `node`) in `node`'s component.
    pub fn component_size(&self, node: NavNodeId) -> usize {
        self.active.component_size(node)
    }

    /// EXPAND: runs Heuristic-ReducedOpt on `node`'s component, applies the
    /// cut, and returns the newly revealed concepts.
    ///
    /// With [`CostParams::reuse_plans`] set, a component that came out of a
    /// previous expansion is cut using that expansion's retained reduced
    /// tree (§VI-B) instead of being re-partitioned; once the retained view
    /// of a component shrinks to one supernode, the session falls back to a
    /// fresh partitioning.
    pub fn expand(&mut self, node: NavNodeId) -> Result<Vec<NavNodeId>, EdgeCutError> {
        self.expand_impl(node, None)
    }

    /// [`Session::expand`] consulting a cross-session [`CutCache`] first.
    ///
    /// The serving engine passes the cut cache of the session's (shared)
    /// navigation tree: a component another session already expanded is cut
    /// identically from one lookup instead of a fresh partition+solve. The
    /// cache is only consulted with [`CostParams::reuse_plans`] off —
    /// plan-reusing sessions already answer follow-ups from their retained
    /// [`ReducedPlan`]s, and short-circuiting them here would skip the plan
    /// registration those follow-ups depend on.
    pub fn expand_cached(
        &mut self,
        node: NavNodeId,
        cuts: &CutCache,
    ) -> Result<Vec<NavNodeId>, EdgeCutError> {
        self.expand_impl(node, Some(cuts))
    }

    fn expand_impl(
        &mut self,
        node: NavNodeId,
        cuts: Option<&CutCache>,
    ) -> Result<Vec<NavNodeId>, EdgeCutError> {
        if !self.active.is_visible(node) {
            return Err(EdgeCutError::NotAComponentRoot(node));
        }
        if self.params.reuse_plans {
            if let Some(entry) = self.plans.get(&node).cloned() {
                if let Some(planned) = entry.plan.cut(entry.mask, &self.params) {
                    let revealed = self.expand_with(node, &planned.cut)?;
                    self.register_plan(node, &entry.plan, planned.upper_mask, &planned.lowers);
                    return Ok(revealed);
                }
                // Plan exhausted for this component: fall through to a
                // fresh partitioning below.
                self.plans.remove(&node);
            }
        }
        // Single-pass pipeline: reuse the session's component buffer and
        // scratch arena; the plan (with its retained solver memo) and the
        // applied cut come from the same partition+solve run.
        let mut comp = std::mem::take(&mut self.comp_buf);
        self.active
            .component_nodes_into(self.nav.borrow(), node, &mut comp);
        // Cross-session memo (engine sessions, reuse_plans off): identical
        // components take the identical cut another session computed.
        let fp = match cuts {
            Some(cache) if !self.params.reuse_plans => {
                let fp = CutCache::fingerprint(&comp);
                // Failpoint: the cut-cache probe (DESIGN.md §5f). An
                // injected `Error` skips the probe — observably a forced
                // miss; the fresh solve below recomputes the bit-identical
                // cut, so costs are unchanged (chaos-tested).
                let probed = match crate::fault::hit(crate::fault::FailSite::CutCacheProbe) {
                    Some(crate::fault::Fault::Panic) => {
                        crate::fault::injected_panic(crate::fault::FailSite::CutCacheProbe)
                    }
                    Some(_) => None,
                    None => {
                        let _sp = crate::trace::span(crate::trace::Stage::CutCacheLookup);
                        cache.get(fp)
                    }
                };
                if let Some(cut) = probed {
                    if let Ok(revealed) = self.expand_with(node, &cut) {
                        self.comp_buf = comp;
                        return Ok(revealed);
                    }
                    // Fingerprint collision handed us a foreign cut and
                    // validation refused it: tally the collision and solve
                    // fresh below. The memoized entry stays (it is correct
                    // for the component that wrote it).
                    cache.note_collision();
                    debug_assert!(
                        !cut.is_empty(),
                        "cache handed out an empty cut; put() must refuse those"
                    );
                }
                Some(fp)
            }
            _ => None,
        };
        // First planning touch of a cold component: materialize its lazy
        // subtree bitsets here, at a defined point before the solve, so
        // `Stage::Materialize` time never smears into `Stage::Solve` spans
        // (cut-cache hits above return without paying this).
        self.nav.borrow().materialize_for(comp.iter().copied());
        let planned =
            plan_component_with(self.nav.borrow(), &comp, &self.params, &mut self.scratch);
        self.comp_buf = comp;
        let Some((outcome, planned)) = planned else {
            return Err(EdgeCutError::EmptyCut); // singleton: nothing to expand
        };
        let revealed = self.expand_with(node, &outcome.cut)?;
        if let (Some(cache), Some(fp)) = (cuts, fp) {
            cache.put(fp, &outcome.cut);
        }
        if self.params.reuse_plans {
            if let Some((plan, cut)) = planned {
                let plan = Arc::new(plan);
                self.register_plan(node, &plan, cut.upper_mask, &cut.lowers);
            }
        }
        Ok(revealed)
    }

    /// Records plan entries for the upper and lower components of a cut.
    fn register_plan(
        &mut self,
        upper_root: NavNodeId,
        plan: &Arc<ReducedPlan>,
        upper_mask: u64,
        lowers: &[(NavNodeId, u64)],
    ) {
        let mut put = |root: NavNodeId, mask: u64| {
            if mask.count_ones() > 1 {
                self.plans.insert(
                    root,
                    PlanEntry {
                        plan: plan.clone(),
                        mask,
                    },
                );
            } else {
                self.plans.remove(&root);
            }
        };
        put(upper_root, upper_mask);
        for &(root, mask) in lowers {
            put(root, mask);
        }
    }

    /// EXPAND with a caller-supplied cut (validated like any EdgeCut).
    pub fn expand_with(
        &mut self,
        node: NavNodeId,
        cut: &EdgeCut,
    ) -> Result<Vec<NavNodeId>, EdgeCutError> {
        self.active
            .expand_in(self.nav.borrow(), node, cut, &mut self.scratch)?;
        // A manual cut changes this component in ways a retained reduced
        // tree does not describe; drop its plan so the next automatic
        // EXPAND re-partitions instead of proposing a stale (and possibly
        // invalid) cut. Note `expand()` re-registers entries *after*
        // calling this method, so plan-driven cuts are unaffected.
        self.plans.remove(&node);
        let revealed = cut.lower_roots().to_vec();
        self.cost.expands += 1;
        self.cost.revealed += revealed.len();
        self.log.push(Action::Expand {
            node,
            revealed: revealed.clone(),
        });
        Ok(revealed)
    }

    /// The degradation ladder's fallback rung (DESIGN.md §5f): the static
    /// show-all-children cut — reveal every hidden child of `node`, ranked
    /// like the paper's GoPubMed-style baseline
    /// ([`baseline::ranked_children`](crate::baseline::ranked_children)).
    /// O(children) work, no solver; always applicable to an expandable
    /// component, and validated like any other [`EdgeCut`] by the active
    /// tree (a degraded cut is never allowed to corrupt navigation state).
    pub fn expand_static(&mut self, node: NavNodeId) -> Result<Vec<NavNodeId>, EdgeCutError> {
        if !self.active.is_visible(node) {
            return Err(EdgeCutError::NotAComponentRoot(node));
        }
        let cut: Vec<NavNodeId> = crate::baseline::ranked_children(self.nav.borrow(), node)
            .into_iter()
            .filter(|&c| !self.active.is_visible(c))
            .collect();
        if cut.is_empty() {
            // Singleton component: nothing to reveal (same contract as the
            // exact pipeline's typed decline).
            return Err(EdgeCutError::EmptyCut);
        }
        self.expand_with(node, &EdgeCut::new(cut))
    }

    /// SHOWRESULTS: lists the PMIDs of `node`'s component.
    pub fn show_results(&mut self, node: NavNodeId) -> Result<Vec<CitationId>, EdgeCutError> {
        if !self.active.is_visible(node) {
            return Err(EdgeCutError::NotAComponentRoot(node));
        }
        let set = self.active.component_set(self.nav.borrow(), node);
        let ids: Vec<CitationId> = set.iter().map(|i| self.nav().citation_id(i)).collect();
        self.cost.results_inspected += ids.len();
        self.log.push(Action::ShowResults {
            node,
            count: ids.len() as u32,
        });
        Ok(ids)
    }

    /// IGNORE: records that the user dismissed a revealed concept. Costs
    /// nothing extra — examining the label was already paid at reveal time.
    pub fn ignore(&mut self, node: NavNodeId) {
        self.log.push(Action::Ignore { node });
    }

    /// BACKTRACK: undoes the most recent expansion. The cost already paid
    /// is *not* refunded — the user spent that effort (§III charges every
    /// examined concept).
    pub fn backtrack(&mut self) -> Result<(), EdgeCutError> {
        self.active.backtrack()?;
        self.cost.expands += 1; // the undo click is itself an action
        self.plans.clear(); // retained masks no longer describe components
        self.log.push(Action::Backtrack);
        Ok(())
    }

    /// The current visualization (Definition 5).
    pub fn visualize(&self) -> Vec<VisNode> {
        self.active.visualize(self.nav.borrow())
    }

    /// The accumulated §III cost of the session so far.
    pub fn cost(&self) -> &NavOutcome {
        &self.cost
    }

    /// The full action log.
    pub fn log(&self) -> &[Action] {
        &self.log
    }

    /// Exports the session's persistable state (active tree, action log,
    /// cost tally). The navigation tree itself is *not* included — the
    /// online system (§VII) rebuilds it from the query and re-attaches the
    /// state; retained reduced-tree plans are rebuilt lazily on the next
    /// EXPAND.
    pub fn export_state(&self) -> SessionState {
        SessionState {
            active: self.active.clone(),
            log: self.log.clone(),
            cost: self.cost.clone(),
        }
    }

    /// Restores a session from persisted state over `nav`, which must be
    /// the same navigation tree the state was exported from (same query,
    /// same store). Returns `None` when the state does not fit the tree.
    pub fn restore(nav: T, params: CostParams, state: SessionState) -> Option<Session<T>> {
        if !state.active.fits(nav.borrow()) {
            return None;
        }
        Some(Session {
            nav,
            active: state.active,
            params,
            log: state.log,
            cost: state.cost,
            plans: HashMap::new(),
            scratch: NavScratch::new(),
            comp_buf: Vec::new(),
        })
    }
}

/// The serializable part of a [`Session`] (everything except the navigation
/// tree it runs over); see [`Session::export_state`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SessionState {
    /// Component assignments and the BACKTRACK stack.
    pub active: ActiveTree,
    /// The action log.
    pub log: Vec<Action>,
    /// The accumulated §III cost.
    pub cost: NavOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::corpus::{self, CorpusConfig};
    use bionav_medline::InvertedIndex;
    use bionav_mesh::synth::{self, sanitizer_scaled, SynthConfig};

    /// Fixture sizes honor `BIONAV_SANITIZER_SCALE` so instrumented runs
    /// shrink; the default scale of 1.0 leaves them untouched.
    fn session_nav() -> NavigationTree {
        let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(400, 48))).unwrap();
        let store = corpus::generate(
            &h,
            &CorpusConfig {
                n_citations: sanitizer_scaled(600, 64),
                ..CorpusConfig::default()
            },
        );
        let index = InvertedIndex::build(&store);
        let busiest = h
            .iter_preorder()
            .skip(1)
            .max_by_key(|&n| {
                h.node(n)
                    .descriptor()
                    .map(|d| store.observed_count(d))
                    .unwrap_or(0)
            })
            .unwrap();
        let results = index.query(h.node(busiest).label()).citations;
        NavigationTree::build(&h, &store, &results)
    }

    #[test]
    fn expand_show_results_flow() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        assert!(!revealed.is_empty());
        assert_eq!(s.cost().expands, 1);
        assert_eq!(s.cost().revealed, revealed.len());
        let ids = s.show_results(revealed[0]).unwrap();
        assert!(!ids.is_empty());
        assert_eq!(s.cost().results_inspected, ids.len());
        assert_eq!(s.log().len(), 2);
    }

    #[test]
    fn expanding_hidden_nodes_fails() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        // A node inside a lower component is not visible.
        let inner = nav
            .iter_preorder()
            .find(|&n| !s.active().is_visible(n))
            .expect("some node is hidden");
        assert!(matches!(
            s.expand(inner),
            Err(EdgeCutError::NotAComponentRoot(_))
        ));
        let _ = revealed;
    }

    #[test]
    fn backtrack_restores_but_keeps_cost() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        let spent = s.cost().clone();
        s.backtrack().unwrap();
        assert!(!s.active().is_visible(revealed[0]));
        assert_eq!(s.cost().revealed, spent.revealed, "no refunds");
        assert_eq!(
            s.cost().expands,
            spent.expands + 1,
            "the undo click is paid"
        );
        assert!(matches!(s.log().last(), Some(Action::Backtrack)));
    }

    #[test]
    fn ignore_is_logged_and_free() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        let before = s.cost().clone();
        s.ignore(revealed[0]);
        assert_eq!(s.cost(), &before);
        assert!(matches!(s.log().last(), Some(Action::Ignore { .. })));
    }

    #[test]
    fn plan_reuse_answers_follow_up_expansions() {
        let nav = session_nav();
        let params = CostParams {
            reuse_plans: true,
            ..CostParams::default()
        };
        let mut s = Session::new(&nav, params);
        let first = s.expand(NavNodeId::ROOT).unwrap();
        assert!(!first.is_empty());
        // Re-expanding the root must come from the retained plan (the root
        // component's entry exists and holds >1 unit) — observable as a
        // valid cut without error, repeatedly until exhaustion.
        let mut guard = 0;
        while s.component_size(NavNodeId::ROOT) > 1 {
            s.expand(NavNodeId::ROOT).unwrap();
            guard += 1;
            assert!(guard < nav.len(), "reuse expansion loop must terminate");
        }
        // Lower components are expandable too (plan or fresh).
        if let Some(&n) = first.iter().find(|&&n| s.component_size(n) > 1) {
            s.expand(n).unwrap();
        }
    }

    #[test]
    fn plan_reuse_and_fresh_sessions_both_terminate_everywhere() {
        let nav = session_nav();
        for reuse in [false, true] {
            let params = CostParams {
                reuse_plans: reuse,
                ..CostParams::default()
            };
            let mut s = Session::new(&nav, params);
            let mut guard = 0;
            while let Some(root) = nav
                .iter_preorder()
                .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1)
            {
                s.expand(root).unwrap();
                guard += 1;
                assert!(guard <= 2 * nav.len(), "reuse={reuse}: no termination");
            }
            for n in nav.iter_preorder() {
                assert!(s.active().is_visible(n), "reuse={reuse}");
            }
        }
    }

    #[test]
    fn backtrack_clears_retained_plans() {
        let nav = session_nav();
        let params = CostParams {
            reuse_plans: true,
            ..CostParams::default()
        };
        let mut s = Session::new(&nav, params);
        s.expand(NavNodeId::ROOT).unwrap();
        s.backtrack().unwrap();
        // After the undo, the next expansion re-plans from scratch and the
        // whole navigation still works.
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        assert!(!revealed.is_empty());
    }

    #[test]
    fn sessions_persist_and_restore() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        s.ignore(revealed[0]);
        let listed = s.show_results(revealed[0]).unwrap();

        // Round-trip the state through JSON (what a web tier would store).
        let json = serde_json::to_string(&s.export_state()).unwrap();
        let state: SessionState = serde_json::from_str(&json).unwrap();
        let mut restored =
            Session::restore(&nav, CostParams::default(), state).expect("state fits its own tree");

        assert_eq!(restored.cost(), s.cost());
        assert_eq!(restored.log(), s.log());
        assert_eq!(restored.visualize(), s.visualize());
        // The restored session keeps working: SHOWRESULTS agrees, BACKTRACK
        // unwinds the pre-snapshot expansion.
        assert_eq!(restored.show_results(revealed[0]).unwrap(), listed);
        restored.backtrack().unwrap();
        assert!(!restored.active().is_visible(revealed[0]));
    }

    #[test]
    fn restore_rejects_foreign_trees() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        s.expand(NavNodeId::ROOT).unwrap();
        let state = s.export_state();
        // A tree from a different query (different size) must be rejected.
        let other = {
            use bionav_medline::{Citation, CitationId, CitationStore};
            use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
            let h = ConceptHierarchy::from_descriptors(&[Descriptor::new(
                DescriptorId(1),
                "only",
                vec![TreeNumber::parse("A01").unwrap()],
            )])
            .unwrap();
            let mut store = CitationStore::new();
            store
                .insert(Citation::new(
                    CitationId(1),
                    "t",
                    vec![],
                    vec![DescriptorId(1)],
                    vec![],
                ))
                .unwrap();
            NavigationTree::build(&h, &store, &[CitationId(1)])
        };
        assert!(Session::restore(&other, CostParams::default(), state).is_none());
    }

    /// Builds a navigation tree over a hand-shaped hierarchy: one
    /// descriptor per tree number, one citation attached to each.
    fn shaped_tree(tree_numbers: &[&str]) -> NavigationTree {
        use bionav_medline::{Citation, CitationId, CitationStore};
        use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
        let descriptors: Vec<Descriptor> = tree_numbers
            .iter()
            .enumerate()
            .map(|(i, tn)| {
                Descriptor::new(
                    DescriptorId(i as u32 + 1),
                    format!("d{i}"),
                    vec![TreeNumber::parse(tn).unwrap()],
                )
            })
            .collect();
        let h = ConceptHierarchy::from_descriptors(&descriptors).unwrap();
        let mut store = CitationStore::new();
        let mut ids = Vec::new();
        for i in 0..tree_numbers.len() {
            let id = CitationId(i as u32 + 1);
            store
                .insert(Citation::new(
                    id,
                    format!("t{i}"),
                    vec![],
                    vec![DescriptorId(i as u32 + 1)],
                    vec![],
                ))
                .unwrap();
            ids.push(id);
        }
        NavigationTree::build(&h, &store, &ids)
    }

    #[test]
    fn restore_rejects_same_size_foreign_trees() {
        use crate::active::EdgeCut;
        // Regression: `ActiveTree::fits` used to check only tree *size*, so
        // a state exported from one query restored cleanly onto any
        // equally-sized tree of a different query — and later expansions
        // then navigated garbage components. The strengthened check
        // validates every component assignment against the target tree's
        // actual parent structure.
        let chain = shaped_tree(&["A01", "A01.100", "A01.100.100"]);
        let star = shaped_tree(&["A01", "B01", "C01"]);
        assert_eq!(chain.len(), star.len(), "fixture trees must be equal-sized");

        let mut s = Session::new(&chain, CostParams::default());
        // Force the cut below d0: components {root, d0} and {d1, d2}.
        s.expand_with(NavNodeId::ROOT, &EdgeCut::new(vec![NavNodeId(2)]))
            .unwrap();
        let state = s.export_state();

        // In the star, node 3's parent is the root — a different component
        // — so the assignment is not connected there and must be rejected,
        // even though the sizes agree.
        assert!(
            Session::restore(&star, CostParams::default(), state.clone()).is_none(),
            "same-size foreign tree must be rejected"
        );
        // Sanity: the very same state still restores onto its own tree.
        assert!(Session::restore(&chain, CostParams::default(), state).is_some());
    }

    #[test]
    fn manual_cuts_invalidate_retained_plans() {
        // Regression: with reuse_plans on, an automatic EXPAND retains a
        // plan for the root component; a manual cut then changes that
        // component. The next automatic EXPAND must re-partition rather
        // than replay the stale plan (which could propose nodes that are
        // no longer in the component).
        let nav = session_nav();
        let params = CostParams {
            reuse_plans: true,
            ..CostParams::default()
        };
        let mut s = Session::new(&nav, params);
        let revealed = s.expand(NavNodeId::ROOT).unwrap();
        // Manually detach some node still hidden inside the root component.
        let hidden_child = nav
            .children(NavNodeId::ROOT)
            .iter()
            .copied()
            .find(|&c| !s.active().is_visible(c));
        if let Some(c) = hidden_child {
            s.expand_with(NavNodeId::ROOT, &EdgeCut::new(vec![c]))
                .unwrap();
        }
        // Every further automatic expansion of the root must keep working
        // until the component is exhausted.
        let mut guard = 0;
        while s.component_size(NavNodeId::ROOT) > 1 {
            s.expand(NavNodeId::ROOT).unwrap();
            guard += 1;
            assert!(guard < nav.len(), "stale plan wedged the session");
        }
        let _ = revealed;
    }

    #[test]
    fn expand_static_reveals_every_hidden_child() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let revealed = s.expand_static(NavNodeId::ROOT).unwrap();
        // Rung 2 is the GoPubMed-style baseline: all of the root's
        // children come out at once, every one now visible.
        let children = nav.children(NavNodeId::ROOT);
        assert_eq!(revealed.len(), children.len());
        for &c in children {
            assert!(s.active().is_visible(c));
        }
        // The degraded cut went through ActiveTree validation like any
        // other cut: the state round-trips restore.
        let state = s.export_state();
        assert!(Session::restore(&nav, CostParams::default(), state).is_some());
        // Hidden / singleton nodes keep their typed errors.
        assert!(matches!(
            s.expand_static(NavNodeId::ROOT),
            Err(EdgeCutError::EmptyCut) | Ok(_)
        ));
        let hidden = nav.iter_preorder().find(|&n| !s.active().is_visible(n));
        if let Some(hidden) = hidden {
            assert!(matches!(
                s.expand_static(hidden),
                Err(EdgeCutError::NotAComponentRoot(_))
            ));
        }
    }

    #[test]
    fn manual_cut_via_expand_with() {
        let nav = session_nav();
        let mut s = Session::new(&nav, CostParams::default());
        let child = nav.children(NavNodeId::ROOT)[0];
        let revealed = s
            .expand_with(NavNodeId::ROOT, &EdgeCut::new(vec![child]))
            .unwrap();
        assert_eq!(revealed, vec![child]);
        assert!(s.active().is_visible(child));
    }
}

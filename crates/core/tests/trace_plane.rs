//! Integration tests for the observability plane (DESIGN.md §5e):
//!
//! * per-stage breakdown counts consistent with [`edgecut::counters`],
//! * `serve-reset` atomically clears stage histograms, counters, AND the
//!   trace ring (the stale-sample regression the issue requires),
//! * `ServeStats::to_json` round-trips,
//! * Prometheus exposition shape (`# TYPE` lines, cumulative buckets),
//! * Chrome trace JSON shape.
//!
//! Tests that flip the process-global trace toggle or clear the global
//! ring serialize behind `TRACE_LOCK`.

#![cfg(not(interleave))]
#![forbid(unsafe_code)]

use std::sync::Arc;

use bionav_core::edgecut::counters;
use bionav_core::trace::{self, Stage};
use bionav_core::{CostParams, Engine, NavNodeId, NavigationTree, ServeStats, SharedTree};
use bionav_medline::corpus::{self, CorpusConfig};
use bionav_medline::InvertedIndex;
use bionav_mesh::synth::{self, sanitizer_scaled, SynthConfig};

/// Serializes tests that mutate process-global trace state (the ring and
/// the enable toggle) — `Engine::reset_stats` clears the global ring, so
/// even toggle-free tests that count ring events take this.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The engine-fixture recipe shared with `engine.rs`'s unit tests: a small
/// synthetic hierarchy + corpus, trees built per keyword on demand.
fn fixture_engine() -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
    let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
    let store = corpus::generate(
        &h,
        &CorpusConfig {
            n_citations: sanitizer_scaled(400, 64),
            ..CorpusConfig::default()
        },
    );
    let index = InvertedIndex::build(&store);
    Engine::new(
        move |query: &str| {
            let results = index.query(query).citations;
            if results.is_empty() {
                return None;
            }
            Some(Arc::new(NavigationTree::build(&h, &store, &results)))
        },
        CostParams::default(),
        4,
    )
}

/// A query whose navigation tree has more than one node (so EXPAND does
/// real planning work).
fn multi_node_query(engine: &Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>) -> String {
    let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
    h.iter_preorder()
        .skip(1)
        .map(|n| h.node(n).label().to_string())
        .find(|label| engine.tree_for(label).is_some_and(|t| t.len() > 3))
        .expect("some label has a multi-node tree")
}

fn stage_count(stats: &ServeStats, stage: Stage) -> u64 {
    stats
        .stages
        .iter()
        .find(|s| s.stage == stage.name())
        .map(|s| s.count)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Stage counts vs edgecut::counters (the acceptance criterion)
// ---------------------------------------------------------------------------

#[test]
fn stage_breakdown_counts_match_edgecut_counters() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);

    // Fresh EXPAND: exactly one partition run + one solve, and the stage
    // breakdown must agree with the edgecut counters — the capture tape
    // records every span (sampling only thins the ring), so these counts
    // are exact, not sampled.
    counters::reset();
    let a = engine.open_session(&query).unwrap();
    let first = engine.expand(a, NavNodeId::ROOT).unwrap().revealed;
    let stats = engine.stats();
    assert_eq!(
        counters::partition_runs(),
        1,
        "fresh expand partitions once"
    );
    let partitions = counters::partition_runs();
    let solves = counters::plan_solves();
    assert_eq!(
        stage_count(&stats, Stage::Partition),
        partitions,
        "partition span count must equal edgecut::counters::partition_runs: {:?}",
        stats.stages
    );
    assert_eq!(
        stage_count(&stats, Stage::Solve),
        solves,
        "solve span count must equal edgecut::counters::plan_solves"
    );
    assert_eq!(
        stage_count(&stats, Stage::ReducedBuild),
        solves,
        "every fresh solve builds one reduced problem"
    );
    assert_eq!(stage_count(&stats, Stage::Expand), 1);
    assert_eq!(stage_count(&stats, Stage::OpenSession), 1);
    assert_eq!(stage_count(&stats, Stage::ApplyCut), 1);
    assert_eq!(
        stage_count(&stats, Stage::CutCacheLookup),
        1,
        "first expand probes the cut cache once"
    );
    assert!(
        stage_count(&stats, Stage::LockWait) >= 2,
        "cache + session-table acquisitions must be spanned"
    );
    engine.close_session(a).unwrap();

    // Repeat component over a new session: served from the cut cache —
    // no new partition/solve spans, but one more cut-cache probe.
    counters::reset();
    let b = engine.open_session(&query).unwrap();
    let second = engine.expand(b, NavNodeId::ROOT).unwrap().revealed;
    assert_eq!(second, first);
    assert_eq!(counters::partition_runs(), 0);
    let stats = engine.stats();
    assert_eq!(
        stage_count(&stats, Stage::Partition),
        partitions,
        "cut-cache hit must not add a partition span"
    );
    assert_eq!(stage_count(&stats, Stage::Solve), solves);
    assert_eq!(stage_count(&stats, Stage::CutCacheLookup), 2);
    assert_eq!(stage_count(&stats, Stage::Expand), 2);
    assert_eq!(stats.cut_cache_hits, 1);
    assert_eq!(stats.cut_cache_misses, 1);
    engine.close_session(b).unwrap();
}

#[test]
fn run_script_and_replay_feed_the_stage_family() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let jobs = vec![
        (query.clone(), vec![bionav_core::ScriptOp::ExpandFully]),
        (query.clone(), vec![bionav_core::ScriptOp::ExpandFully]),
    ];
    let out = engine.replay(&jobs, 2);
    assert!(out.iter().all(|o| o.is_ok()));
    let stats = engine.stats();
    assert_eq!(stage_count(&stats, Stage::Replay), 1);
    assert_eq!(stage_count(&stats, Stage::RunScript), 2);
    assert!(stage_count(&stats, Stage::Expand) >= 2);
    assert_eq!(
        stage_count(&stats, Stage::Expand) as usize,
        stats.expand_count,
        "stage family and EXPAND histogram must agree on the op count"
    );
}

// ---------------------------------------------------------------------------
// Satellite: reset semantics (no stale samples leak across windows)
// ---------------------------------------------------------------------------

#[test]
fn reset_stats_clears_stages_and_ring_in_one_pass() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_sample_every(1);
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let before = engine.stats();
    assert!(!before.stages.is_empty());
    assert!(
        !trace::ring_snapshot().is_empty(),
        "enabled tracing must emit ring events"
    );
    let pushed_before = before.trace_events;
    assert!(pushed_before > 0);

    engine.reset_stats();
    trace::set_enabled(false);

    // One atomic pass: stage histograms, sums, counters, AND the ring.
    let after = engine.stats();
    assert!(
        after.stages.is_empty(),
        "stale stage samples leaked: {:?}",
        after.stages
    );
    assert_eq!(after.expand_count, 0);
    assert!(trace::ring_snapshot().is_empty(), "ring events leaked");
    assert!(
        after.trace_events >= pushed_before,
        "the push counter is monotone across resets"
    );

    // Recording across the reset boundary: the next window only holds the
    // new window's samples.
    let _ = engine.expand(id, NavNodeId::ROOT);
    let next = engine.stats();
    assert_eq!(stage_count(&next, Stage::Expand), 1);
    assert_eq!(next.expand_count, 1);
    for s in &next.stages {
        assert!(
            s.count <= 2,
            "stage {} carried stale samples across the reset: {}",
            s.stage,
            s.count
        );
    }
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: ServeStats::to_json round-trip
// ---------------------------------------------------------------------------

#[test]
fn serve_stats_json_round_trips() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let stats = engine.stats();
    assert!(!stats.stages.is_empty());

    let json = stats.to_json().expect("stats snapshot serializes");
    assert!(json.contains("\"expand_p99_us\""));
    assert!(json.contains("\"stages\""));
    assert!(json.contains("\"partition\""));
    let parsed = ServeStats::from_json(&json).expect("round-trip parses");
    assert_eq!(parsed.expand_count, stats.expand_count);
    assert_eq!(parsed.sessions_opened, stats.sessions_opened);
    assert_eq!(parsed.trace_events, stats.trace_events);
    assert_eq!(parsed.stages.len(), stats.stages.len());
    for (a, b) in parsed.stages.iter().zip(&stats.stages) {
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.count, b.count);
        assert_eq!(a.p99_us, b.p99_us);
    }
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

#[test]
fn prometheus_exposition_has_types_and_monotone_buckets() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let text = engine.prometheus_text();

    // The exact # TYPE lines CI smoke-greps for.
    for line in [
        "# TYPE bionav_expand_latency_seconds histogram",
        "# TYPE bionav_stage_latency_seconds histogram",
        "# TYPE bionav_tree_cache_lookups_total counter",
        "# TYPE bionav_cut_cache_lookups_total counter",
        "# TYPE bionav_sessions_opened_total counter",
        "# TYPE bionav_sessions_active gauge",
        "# TYPE bionav_trace_events_total counter",
        "# TYPE bionav_degraded_expands_total counter",
        "# TYPE bionav_shed_expands_total counter",
        "# TYPE bionav_session_panics_total counter",
        "# TYPE bionav_sessions_quarantined gauge",
        "# TYPE bionav_slo_burn_rate gauge",
    ] {
        assert!(text.contains(line), "missing exposition line: {line}");
    }
    // Every (verb, window) SLO series is exported even before any burn.
    for series in [
        "bionav_slo_burn_rate{verb=\"open\",window=\"total\"}",
        "bionav_slo_burn_rate{verb=\"open\",window=\"recent\"}",
        "bionav_slo_burn_rate{verb=\"expand\",window=\"total\"}",
        "bionav_slo_burn_rate{verb=\"expand\",window=\"recent\"}",
    ] {
        assert!(text.contains(series), "missing SLO series: {series}");
    }
    assert!(text.contains("bionav_stage_latency_seconds_bucket{stage=\"partition\",le="));
    assert!(text.contains("bionav_stage_latency_seconds_count{stage=\"partition\"} 1"));
    assert!(text.contains("le=\"+Inf\""));
    // The fault plane is silent on this clean path but still exposed.
    assert!(text.contains("bionav_degraded_expands_total{rung=\"static\"} 0"));
    let rungs = text
        .lines()
        .filter(|l| l.starts_with("bionav_degraded_expands_total{"))
        .count();
    assert_eq!(rungs, 1, "the static cut is the only degraded rung");
    assert!(text.contains("bionav_shed_expands_total 0"));

    // Cumulative histogram buckets must be monotone non-decreasing.
    let mut prev: Option<u64> = None;
    for line in text.lines() {
        if line.starts_with("bionav_expand_latency_seconds_bucket") {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket line ends in a count");
            if let Some(p) = prev {
                assert!(v >= p, "bucket series not cumulative: {line}");
            }
            prev = Some(v);
        }
    }
    assert_eq!(
        prev,
        Some(1),
        "+Inf bucket must equal the 1 recorded EXPAND"
    );
    engine.close_session(id).unwrap();
}

#[test]
fn chrome_trace_export_is_loadable_event_json() {
    let _g = trace_lock();
    let engine = fixture_engine();
    // Probe for the fixture query BEFORE enabling tracing: `tree_for` is
    // not a request verb, so its cache-probe spans carry no request id
    // and would dilute the rid assertions below.
    let query = multi_node_query(&engine);
    trace::clear_ring();
    trace::set_enabled(true);
    trace::set_sample_every(1);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    trace::set_enabled(false);

    let json = trace::chrome_trace_json();
    let events: Vec<bionav_core::trace::export::ChromeEvent> =
        serde_json::from_str(&json).expect("chrome trace parses as an event array");
    assert!(!events.is_empty(), "traced EXPAND must produce events");
    for e in &events {
        assert!(e.ph == "B" || e.ph == "E", "unexpected phase {}", e.ph);
        assert_eq!(e.cat, "bionav");
        assert!(e.ts >= 0.0);
        assert_ne!(
            e.args.rid, 0,
            "every serve-path span must carry its request id ({})",
            e.name
        );
    }
    assert!(
        events.iter().any(|e| e.name == "partition"),
        "per-stage spans missing from the trace"
    );
    assert!(events.iter().any(|e| e.name == "expand"));
    // The open and the EXPAND were separate requests, so the trace must
    // carry (at least) two distinct request ids.
    let rids: std::collections::HashSet<u64> = events.iter().map(|e| e.args.rid).collect();
    assert!(rids.len() >= 2, "distinct requests share a rid: {rids:?}");
    // Begin/End balance per thread (the exporter drops orphans).
    let mut depth = std::collections::HashMap::new();
    for e in &events {
        let d = depth.entry(e.tid).or_insert(0i64);
        *d += if e.ph == "B" { 1 } else { -1 };
        assert!(*d >= 0, "unmatched End for tid {}", e.tid);
    }
    engine.close_session(id).unwrap();
    trace::clear_ring();
}

// ---------------------------------------------------------------------------
// Overhead contract: disabled tracing records nothing anywhere
// ---------------------------------------------------------------------------

#[test]
fn disabled_tracing_emits_no_ring_events_from_the_serve_path() {
    let _g = trace_lock();
    trace::set_enabled(false);
    trace::clear_ring();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let before = trace::ring_pushed();
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    engine.close_session(id).unwrap();
    assert_eq!(
        trace::ring_pushed(),
        before,
        "tracing-off must keep the serve path off the ring entirely"
    );
    // …while the per-stage metrics (capture tape) still work.
    assert!(!engine.stats().stages.is_empty());
}

//! Trace and metrics exporters (DESIGN.md §5e).
//!
//! Two dependency-free output formats:
//!
//! * [`prometheus_text`] — the Prometheus text exposition format
//!   (`# HELP`/`# TYPE`, cumulative histogram buckets derived from the
//!   [`LatencyHistogram`](crate::telemetry::LatencyHistogram) log-linear
//!   geometry via `count_at_or_below`, monotone counters, one gauge).
//! * [`chrome_trace`] — Chrome trace-event JSON in the *JSON Array
//!   Format* (a bare array of `B`/`E` duration events), loadable in
//!   Perfetto and `chrome://tracing`.

use std::collections::HashMap;
use std::fmt::Write as _;

use serde::Serialize;

use super::ring::{SpanEvent, SpanKind};
use super::{Stage, StageMetrics};
use crate::engine::ServeStats;
use crate::telemetry::HistogramSnapshot;

/// Histogram `le` ladder in nanoseconds: powers of two from 1 µs to
/// ~16.8 s, which brackets every latency the serve path can plausibly
/// produce. Finite buckets are printed as seconds; `+Inf` closes the
/// ladder.
pub fn bucket_ladder_ns() -> impl Iterator<Item = u64> {
    (0..=24u32).map(|i| 1000u64 << i)
}

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Static label values in this module are all escape-free identifiers;
/// this exists for values that flow in from outside (and is what the
/// escaping edge-case tests pin down).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Joins a view's base labels (e.g. `shard="0"`, possibly empty) with a
/// metric's own labels (e.g. `result="hit"`, possibly empty) into one
/// brace-ready label body.
fn join_labels(base: &str, extra: &str) -> String {
    match (base.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => extra.to_string(),
        (false, true) => base.to_string(),
        (false, false) => format!("{base},{extra}"),
    }
}

fn write_series(out: &mut String, metric: &str, labels: &str, value: impl std::fmt::Display) {
    if labels.is_empty() {
        let _ = writeln!(out, "{metric} {value}");
    } else {
        let _ = writeln!(out, "{metric}{{{labels}}} {value}");
    }
}

fn write_histogram(
    out: &mut String,
    metric: &str,
    labels: &str,
    snap: &HistogramSnapshot,
    sum_ns: u64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    for le_ns in bucket_ladder_ns() {
        let le = le_ns as f64 / 1e9;
        let c = snap.count_at_or_below(le_ns);
        let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"{le}\"}} {c}");
    }
    let _ = writeln!(
        out,
        "{metric}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.total()
    );
    write_series(out, &format!("{metric}_sum"), labels, sum_ns as f64 / 1e9);
    write_series(out, &format!("{metric}_count"), labels, snap.total());
}

/// One exposition unit for [`prometheus_text_views`]: a label set (empty
/// for the classic single-engine exposition, `shard="i"` per shard) plus
/// an owned copy of everything the exposition needs. Owned snapshots —
/// rather than a borrow of [`StageMetrics`] — so a *merged* cross-shard
/// view can be synthesized by folding per-shard views together.
#[derive(Clone)]
pub struct MetricsView {
    /// Label body prepended to every series (no braces), e.g. `shard="0"`.
    /// Empty for an unlabeled exposition.
    pub labels: String,
    /// Counter/gauge snapshot.
    pub stats: ServeStats,
    /// End-to-end EXPAND latency snapshot.
    pub expand: HistogramSnapshot,
    /// Per-stage `(latency snapshot, exact sum in ns)` in [`Stage::ALL`]
    /// order — always [`Stage::COUNT`] entries, idle stages included, so
    /// the exposition shape is stable.
    pub stage_snaps: Vec<(HistogramSnapshot, u64)>,
}

impl MetricsView {
    /// Builds a view by snapshotting a live [`StageMetrics`].
    pub fn new(
        labels: String,
        stats: ServeStats,
        expand: HistogramSnapshot,
        stages: &StageMetrics,
    ) -> Self {
        let stage_snaps = Stage::ALL
            .iter()
            .map(|&s| (stages.snapshot(s), stages.sum_ns(s)))
            .collect();
        MetricsView {
            labels,
            stats,
            expand,
            stage_snaps,
        }
    }

    /// Folds `other`'s latency distributions into `self` (EXPAND histogram
    /// plus every per-stage histogram and sum). Counter merging is the
    /// caller's business — `ShardedEngine` already merges [`ServeStats`]
    /// for its `stats()` and reuses that here.
    pub fn merge_latency(&mut self, other: &MetricsView) {
        self.expand.merge(&other.expand);
        for (mine, theirs) in self.stage_snaps.iter_mut().zip(other.stage_snaps.iter()) {
            mine.0.merge(&theirs.0);
            mine.1 += theirs.1;
        }
    }
}

/// Render a full Prometheus text-format exposition of the engine's serving
/// telemetry: the end-to-end EXPAND histogram, the per-stage latency
/// family (all [`Stage`]s, including idle ones, so the exposition shape is
/// stable), the cache/session counters, and the monotone trace-event
/// counter.
pub fn prometheus_text(
    stats: &ServeStats,
    expand: &HistogramSnapshot,
    stages: &StageMetrics,
) -> String {
    prometheus_text_views(&[MetricsView::new(
        String::new(),
        stats.clone(),
        expand.clone(),
        stages,
    )])
}

/// Render one exposition covering every view: each metric family's
/// `# HELP`/`# TYPE` header appears exactly once, followed by one series
/// (or histogram) per view carrying that view's labels. This is what lets
/// a [`ShardedEngine`](crate::shard::ShardedEngine) expose `shard="i"`
/// series without emitting duplicate headers, which Prometheus rejects.
pub fn prometheus_text_views(views: &[MetricsView]) -> String {
    let mut out = String::with_capacity(16 * 1024 * views.len().max(1));

    let _ = writeln!(
        out,
        "# HELP bionav_expand_latency_seconds End-to-end EXPAND latency."
    );
    let _ = writeln!(out, "# TYPE bionav_expand_latency_seconds histogram");
    for v in views {
        write_histogram(
            &mut out,
            "bionav_expand_latency_seconds",
            &v.labels,
            &v.expand,
            v.expand.approx_sum(),
        );
    }

    let _ = writeln!(
        out,
        "# HELP bionav_stage_latency_seconds Per-stage serve-path span latency."
    );
    let _ = writeln!(out, "# TYPE bionav_stage_latency_seconds histogram");
    for v in views {
        for (stage, (snap, sum_ns)) in Stage::ALL.iter().zip(v.stage_snaps.iter()) {
            let labels = join_labels(&v.labels, &format!("stage=\"{}\"", stage.name()));
            write_histogram(
                &mut out,
                "bionav_stage_latency_seconds",
                &labels,
                snap,
                *sum_ns,
            );
        }
    }

    // Counter/gauge families: (metric, help, type, per-view series fn).
    struct Family {
        metric: &'static str,
        help: &'static str,
        kind: &'static str,
        series: fn(&ServeStats) -> Vec<(&'static str, u64)>,
    }
    let families = [
        Family {
            metric: "bionav_tree_cache_lookups_total",
            help: "Navigation-tree cache lookups by result.",
            kind: "counter",
            series: |s| {
                vec![
                    ("result=\"hit\"", s.cache_hits),
                    ("result=\"miss\"", s.cache_misses),
                ]
            },
        },
        Family {
            metric: "bionav_tree_cache_evictions_total",
            help: "Trees dropped by LRU pressure.",
            kind: "counter",
            series: |s| vec![("", s.cache_evictions)],
        },
        Family {
            metric: "bionav_cut_cache_lookups_total",
            help: "Cross-session cut-cache lookups by result.",
            kind: "counter",
            series: |s| {
                vec![
                    ("result=\"hit\"", s.cut_cache_hits),
                    ("result=\"miss\"", s.cut_cache_misses),
                ]
            },
        },
        Family {
            metric: "bionav_sessions_opened_total",
            help: "Sessions ever opened.",
            kind: "counter",
            series: |s| vec![("", s.sessions_opened)],
        },
        Family {
            metric: "bionav_sessions_closed_total",
            help: "Sessions ever closed.",
            kind: "counter",
            series: |s| vec![("", s.sessions_closed)],
        },
        Family {
            metric: "bionav_sessions_active",
            help: "Sessions currently parked in the table.",
            kind: "gauge",
            series: |s| vec![("", s.sessions_active as u64)],
        },
        Family {
            metric: "bionav_degraded_expands_total",
            help: "EXPANDs answered by the graceful-degradation ladder, \
                   by rung (DESIGN.md \u{a7}5f).",
            kind: "counter",
            series: |s| vec![("rung=\"static\"", s.degraded_static)],
        },
        Family {
            metric: "bionav_shed_expands_total",
            help: "EXPANDs refused by the admission gate.",
            kind: "counter",
            series: |s| vec![("", s.shed_expands)],
        },
        Family {
            metric: "bionav_shed_total",
            help: "Requests refused by the overload-control plane, by \
                   typed reason (DESIGN.md \u{a7}5k).",
            kind: "counter",
            // Exhaustive over [`crate::admission::ShedReason`] so a new
            // reason cannot ship without a series (label values are the
            // variants' `name()` strings: queue = admission gate,
            // deadline = expired on arrival).
            series: |s| {
                crate::admission::ShedReason::ALL
                    .iter()
                    .map(|r| match r {
                        crate::admission::ShedReason::Queue => ("reason=\"queue\"", s.shed_expands),
                        crate::admission::ShedReason::Deadline => {
                            ("reason=\"deadline\"", s.deadline_rejects)
                        }
                    })
                    .collect()
            },
        },
        Family {
            metric: "bionav_deadline_rejects_total",
            help: "Requests whose end-to-end deadline had already expired \
                   on arrival (rejected before any solver work).",
            kind: "counter",
            series: |s| vec![("", s.deadline_rejects)],
        },
        Family {
            metric: "bionav_admission_limit",
            help: "Admission-gate in-flight EXPAND cap.",
            kind: "gauge",
            series: |s| vec![("", s.admission_limit)],
        },
        Family {
            metric: "bionav_session_panics_total",
            help: "Session operations that panicked and were caught \
                   (the session is quarantined).",
            kind: "counter",
            series: |s| vec![("", s.session_panics)],
        },
        Family {
            metric: "bionav_sessions_quarantined",
            help: "Poisoned sessions still parked in the table \
                   (drained by close_session).",
            kind: "gauge",
            series: |s| vec![("", s.sessions_quarantined as u64)],
        },
        Family {
            metric: "bionav_trace_events_total",
            help: "Span events ever pushed to the trace ring.",
            kind: "counter",
            series: |s| vec![("", s.trace_events)],
        },
    ];
    for f in &families {
        let _ = writeln!(out, "# HELP {} {}", f.metric, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.metric, f.kind);
        for v in views {
            for (extra, value) in (f.series)(&v.stats) {
                write_series(&mut out, f.metric, &join_labels(&v.labels, extra), value);
            }
        }
    }

    // The SLO monitor (DESIGN.md §5j): one gauge series per burn row. The
    // verb/window values come from stats data, so they go through the
    // label-value escaper.
    let _ = writeln!(
        out,
        "# HELP bionav_slo_burn_rate Error-budget burn rate per SLO verb \
         and window (1.0 = burning exactly at the objective)."
    );
    let _ = writeln!(out, "# TYPE bionav_slo_burn_rate gauge");
    for v in views {
        for b in &v.stats.slo_burn {
            let extra = format!(
                "verb=\"{}\",window=\"{}\"",
                escape_label_value(&b.verb),
                escape_label_value(&b.window)
            );
            write_series(
                &mut out,
                "bionav_slo_burn_rate",
                &join_labels(&v.labels, &extra),
                b.burn_rate,
            );
        }
    }

    out
}

/// One Chrome trace-event object. Field names follow the Trace Event
/// Format verbatim (the vendored serde has no rename support, so the
/// struct fields *are* the wire names).
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct ChromeEvent {
    /// Event name — the [`Stage::name`] of the span.
    pub name: String,
    /// Event category (constant `"bionav"`).
    pub cat: String,
    /// Phase: `"B"` (span begin) or `"E"` (span end).
    pub ph: String,
    /// Timestamp in microseconds since the trace epoch.
    pub ts: f64,
    /// Process id (constant 1 — single-process engine).
    pub pid: u64,
    /// Trace thread id of the emitting worker.
    pub tid: u64,
    /// Event arguments — the request-context join columns.
    pub args: ChromeArgs,
}

/// The `args` object on every [`ChromeEvent`]: what joins a span back to
/// its originating request (and to the flight-recorder entry carrying the
/// same id).
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct ChromeArgs {
    /// Originating request id; 0 when the span ran outside any request
    /// scope.
    pub rid: u64,
}

/// Render ring events as Chrome trace-event JSON (JSON Array Format).
///
/// The ring overwrites oldest events, so a snapshot can open with `End`
/// events whose `Begin` was overwritten; Perfetto rejects such stacks, so
/// unmatched leading `End`s are dropped per thread (depth counter).
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut depth: HashMap<u16, u64> = HashMap::new();
    let mut out: Vec<ChromeEvent> = Vec::with_capacity(events.len());
    for e in events {
        let (ph, keep) = match e.kind {
            SpanKind::Begin => {
                *depth.entry(e.tid).or_insert(0) += 1;
                ("B", true)
            }
            SpanKind::End => {
                let d = depth.entry(e.tid).or_insert(0);
                if *d == 0 {
                    // Begin was overwritten by the ring wrap: drop.
                    ("E", false)
                } else {
                    *d -= 1;
                    ("E", true)
                }
            }
        };
        if !keep {
            continue;
        }
        let name = Stage::from_index(e.stage)
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| format!("stage_{}", e.stage));
        out.push(ChromeEvent {
            name,
            cat: "bionav".to_string(),
            ph: ph.to_string(),
            ts: e.ns as f64 / 1_000.0,
            pid: 1,
            tid: u64::from(e.tid),
            args: ChromeArgs { rid: e.rid },
        });
    }
    // Serializing a Vec of plain structs into a String cannot fail; fall
    // back to an empty array rather than panicking in an exporter.
    serde_json::to_string(&out).unwrap_or_else(|_| "[]".to_string())
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_and_spans_the_serve_range() {
        let ladder: Vec<u64> = bucket_ladder_ns().collect();
        assert_eq!(ladder.len(), 25);
        assert_eq!(ladder[0], 1_000); // 1 µs
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder[24] > 16_000_000_000); // > 16 s
    }

    #[test]
    fn chrome_trace_emits_valid_pairs_and_drops_orphan_ends() {
        let events = vec![
            // Orphaned End (its Begin was overwritten): must be dropped.
            SpanEvent {
                seq: 0,
                stage: Stage::Solve as u8,
                kind: SpanKind::End,
                tid: 1,
                ns: 500,
                rid: 0,
            },
            SpanEvent {
                seq: 1,
                stage: Stage::Partition as u8,
                kind: SpanKind::Begin,
                tid: 1,
                ns: 1_000,
                rid: 42,
            },
            SpanEvent {
                seq: 2,
                stage: Stage::Partition as u8,
                kind: SpanKind::End,
                tid: 1,
                ns: 3_000,
                rid: 42,
            },
        ];
        let json = chrome_trace(&events);
        let parsed: Vec<ChromeEvent> = serde_json::from_str(&json).expect("exporter emits JSON");
        assert_eq!(parsed.len(), 2, "orphan End must be dropped");
        assert_eq!(parsed[0].ph, "B");
        assert_eq!(parsed[0].name, "partition");
        assert_eq!(parsed[0].ts, 1.0);
        assert_eq!(parsed[0].args.rid, 42, "request id joins through args");
        assert_eq!(parsed[1].ph, "E");
        assert_eq!(parsed[1].ts, 3.0);
        assert_eq!(parsed[1].tid, 1);
        assert_eq!(parsed[1].args.rid, 42);
    }

    #[test]
    fn chrome_trace_of_nothing_is_an_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        // Compound: every special char in one value, already-escaped-looking
        // input is escaped again (the escaper is not idempotent-by-parsing).
        assert_eq!(escape_label_value("\\\"\n"), r#"\\\"\n"#);
        assert_eq!(escape_label_value(r"\n"), r"\\n");
    }

    /// A zeroed counters snapshot with a couple of SLO burn rows — enough
    /// for exposition-shape tests without a live engine.
    fn stats_fixture() -> ServeStats {
        ServeStats {
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_entries: 0,
            cache_capacity: 1,
            cache_hit_rate: 0.0,
            cut_cache_hits: 0,
            cut_cache_misses: 0,
            sessions_opened: 0,
            sessions_closed: 0,
            sessions_active: 0,
            sessions_quarantined: 0,
            session_panics: 0,
            degraded_expands: 0,
            degraded_myopic: 0,
            degraded_static: 0,
            shed_expands: 0,
            deadline_rejects: 0,
            breaker_rejects: 0,
            admission_limit: 0,
            expand_count: 0,
            expand_p50_us: 0.0,
            expand_p95_us: 0.0,
            expand_p99_us: 0.0,
            elapsed_secs: 0.0,
            sessions_per_sec: 0.0,
            slo_burn: crate::slo::SloVerb::ALL
                .iter()
                .flat_map(|v| {
                    [crate::slo::WINDOW_TOTAL, crate::slo::WINDOW_RECENT]
                        .into_iter()
                        .map(|w| crate::slo::SloBurn {
                            verb: v.name().to_string(),
                            window: w.to_string(),
                            burn_rate: 0.5,
                            target_p99_ms: 25.0,
                            good: 199,
                            total: 200,
                        })
                })
                .collect(),
            stages: Vec::new(),
            trace_events: 0,
        }
    }

    #[test]
    fn sharded_exposition_has_one_header_per_family_and_slo_series() {
        let expand = crate::telemetry::LatencyHistogram::new().snapshot();
        let stages = StageMetrics::new();
        let views: Vec<MetricsView> = (0..3)
            .map(|i| {
                MetricsView::new(
                    format!("shard=\"{i}\""),
                    stats_fixture(),
                    expand.clone(),
                    &stages,
                )
            })
            .collect();
        let text = prometheus_text_views(&views);
        // Exactly one HELP and one TYPE line per family, shards or not.
        for line in text.lines().filter(|l| l.starts_with('#')) {
            let count = text.lines().filter(|l| *l == line).count();
            assert_eq!(count, 1, "duplicate header line: {line}");
        }
        // Every family that appears as a series has exactly one TYPE line.
        let type_of = |metric: &str| {
            text.lines()
                .filter(|l| l.starts_with(&format!("# TYPE {metric} ")))
                .count()
        };
        assert_eq!(type_of("bionav_slo_burn_rate"), 1);
        assert_eq!(type_of("bionav_expand_latency_seconds"), 1);
        // One SLO series per shard × verb × window, each fully labeled.
        for i in 0..3 {
            for verb in crate::slo::SloVerb::ALL {
                for window in [crate::slo::WINDOW_TOTAL, crate::slo::WINDOW_RECENT] {
                    let series = format!(
                        "bionav_slo_burn_rate{{shard=\"{i}\",verb=\"{}\",window=\"{window}\"}} 0.5",
                        verb.name()
                    );
                    assert!(text.contains(&series), "missing series: {series}");
                }
            }
        }
    }

    #[test]
    fn overload_plane_series_carry_shed_reasons_and_shard_labels() {
        let mut stats = stats_fixture();
        stats.shed_expands = 3;
        stats.deadline_rejects = 7;
        stats.admission_limit = 42;
        let views = vec![MetricsView::new(
            "shard=\"1\"".to_string(),
            stats,
            crate::telemetry::LatencyHistogram::new().snapshot(),
            &StageMetrics::new(),
        )];
        let text = prometheus_text_views(&views);
        // One series per ShedReason, every reason name present even when
        // its counter is nonzero/zero — the exposition shape is stable.
        for reason in crate::admission::ShedReason::ALL {
            assert!(
                text.contains(&format!(
                    "bionav_shed_total{{shard=\"1\",reason=\"{}\"}}",
                    reason.name()
                )),
                "missing shed reason series: {}",
                reason.name()
            );
        }
        assert!(text.contains("bionav_shed_total{shard=\"1\",reason=\"queue\"} 3"));
        assert!(text.contains("bionav_shed_total{shard=\"1\",reason=\"deadline\"} 7"));
        assert!(text.contains("bionav_deadline_rejects_total{shard=\"1\"} 7"));
        assert!(text.contains("bionav_admission_limit{shard=\"1\"} 42"));
        // Gauge/counter kinds are declared correctly, exactly once.
        assert!(text.contains("# TYPE bionav_admission_limit gauge"));
        assert!(text.contains("# TYPE bionav_shed_total counter"));
    }

    #[test]
    fn exposition_round_trips_through_a_text_format_parser() {
        // A minimal text-exposition parser: TYPE declarations must precede
        // their series, label bodies must re-parse (quotes balanced after
        // unescaping), and every sample line must be `name{labels} value`.
        let views = vec![MetricsView::new(
            "shard=\"0\"".to_string(),
            stats_fixture(),
            crate::telemetry::LatencyHistogram::new().snapshot(),
            &StageMetrics::new(),
        )];
        let text = prometheus_text_views(&views);
        let mut typed: Vec<String> = Vec::new();
        let mut samples = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let metric = parts.next().expect("TYPE names a metric").to_string();
                let kind = parts.next().expect("TYPE has a kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown kind {kind}"
                );
                assert!(!typed.contains(&metric), "duplicate TYPE for {metric}");
                typed.push(metric);
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            samples += 1;
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {value}");
            let name = match name_labels.split_once('{') {
                Some((name, labels)) => {
                    let body = labels.strip_suffix('}').expect("balanced braces");
                    for pair in body.split("\",") {
                        let (k, v) = pair.split_once("=\"").expect("label is key=\"value\"");
                        assert!(!k.is_empty() && !k.contains('"'), "bad label key {k}");
                        let v = v.strip_suffix('"').unwrap_or(v);
                        assert!(!v.contains('\n'), "raw newline in label value {v}");
                    }
                    name
                }
                None => name_labels,
            };
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                typed.contains(&family.to_string()),
                "series {name} appears before its TYPE declaration"
            );
        }
        assert!(samples > 50, "exposition unexpectedly small: {samples}");
    }
}

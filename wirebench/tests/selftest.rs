//! Self-tests of the benchmark's own machinery, on a small dataset.

use std::sync::{Arc, OnceLock};

use bionav_cli::Dataset;
use bionav_core::trace::now_ns;
use bionav_core::{CostParams, NavNodeId};
use wirebench::client::{self, Drive, Mode, Outcome};
use wirebench::plan::{self, expandable, Expect, Op, Reference, SessionPlan};
use wirebench::report::{self, CompareError, Metric, Provenance, RunResult};
use wirebench::stats::{beyond, nearest_rank, p99_supported, sliced_median, Sorted};
use wirebench::tier::{self, Server};
use wirebench::workloads::{self, Spec};

/// A small Table I dataset, built once per test binary.
fn dataset() -> &'static Arc<Dataset> {
    static DATA: OnceLock<Arc<Dataset>> = OnceLock::new();
    DATA.get_or_init(|| Arc::new(Dataset::workload(0.12)))
}

fn spec(name: &str) -> Spec {
    workloads::by_name(name).expect("known workload").clone()
}

fn plans(name: &str, seed: u64, threads: usize) -> Vec<SessionPlan> {
    let mut spec = spec(name);
    spec.rate_per_s = 200.0;
    plan::generate(dataset(), &spec, seed, 0.5, threads)
}

#[test]
fn plans_are_deterministic_in_the_seed_and_differ_across_seeds() {
    for name in ["hot-deep", "cold-browse"] {
        let a = plans(name, 11, 2);
        assert!(!a.is_empty(), "{name}: no sessions planned");
        assert_eq!(a, plans(name, 11, 2), "{name}: same seed, same plans");
        assert_eq!(
            a,
            plans(name, 11, 3),
            "{name}: thread count must not matter"
        );
        assert_ne!(
            a,
            plans(name, 12, 2),
            "{name}: another seed, another schedule"
        );
    }
}

#[test]
fn every_planned_expand_targets_an_expandable_component() {
    for name in ["hot-deep", "cold-browse"] {
        let mut reference = Reference::new(dataset(), CostParams::default());
        let mut expands = 0;
        for p in plans(name, 5, 2) {
            let (mut session, cuts) = reference.open(&p.query);
            assert_eq!(plan::visible(&session), p.roots);
            for step in &p.steps {
                match (step.op, &step.expect) {
                    (Op::Expand(node), Expect::Nodes(want)) => {
                        assert!(
                            expandable(&session, node),
                            "{name}: EXPAND({node}) is a leaf"
                        );
                        let got = session
                            .expand_cached(NavNodeId(node), &cuts)
                            .expect("planned EXPANDs succeed");
                        assert!(!got.is_empty());
                        assert_eq!(
                            got.iter().map(|n| n.0).collect::<Vec<_>>(),
                            want.iter().map(|&(n, _)| n).collect::<Vec<_>>()
                        );
                        expands += 1;
                    }
                    (Op::Show(node), Expect::Citations { len, .. }) => {
                        assert_eq!(session.show_results(NavNodeId(node)).unwrap().len(), *len);
                    }
                    (Op::Close, Expect::Closed) => {}
                    other => panic!("{name}: step and expectation disagree: {other:?}"),
                }
            }
            assert_eq!(p.steps.last().map(|s| s.op), Some(Op::Close));
        }
        assert!(expands > 0, "{name}: no EXPANDs planned");
    }
}

#[test]
fn browse_sessions_expand_one_to_three_times_then_show_results() {
    for p in plans("cold-browse", 3, 2) {
        let ops: Vec<Op> = p.steps.iter().map(|s| s.op).collect();
        let expands = p.expands();
        assert!((1..=3).contains(&expands), "{ops:?}");
        assert_eq!(ops.len(), expands + 2, "{ops:?}");
        assert!(matches!(ops[expands], Op::Show(_)), "{ops:?}");
        assert!(matches!(ops[expands + 1], Op::Close), "{ops:?}");
    }
}

#[test]
fn nearest_rank_percentiles_and_the_ten_beyond_rule() {
    let s = Sorted::new((1..=100).rev().collect());
    assert_eq!(s.p50(), 50);
    assert_eq!(s.p99(), 99);
    assert_eq!(s.quantile(10_000), 100);
    assert_eq!(Sorted::new(vec![7]).p99(), 7);
    assert_eq!(Sorted::default().p99(), 0);
    assert_eq!(nearest_rank(1000, 9_900), 990);
    assert_eq!(beyond(1000, 9_900), 10);
    assert!(!p99_supported(999), "999 samples leave 9 beyond p99");
    assert!(p99_supported(1000));
    assert!(!p99_supported(0));
}

#[test]
fn sliced_median_ignores_one_bad_slice() {
    // Four slices of [0, 400): one slow burst in the second.
    let samples: Vec<(u64, u64)> = (0..400u64)
        .map(|t| (t, if (100..200).contains(&t) { 1_000 } else { 10 }))
        .collect();
    assert_eq!(sliced_median(&samples, 0, 400, 4, |s| s.p99() as f64), 10.0);
}

fn result(seed: u64, git_rev: &str) -> RunResult {
    RunResult {
        provenance: Provenance {
            workload: "hot-deep".into(),
            scale: 1.0,
            shards: 2,
            tree_slots: 8,
            available_parallelism: 2,
            connections: 2,
            git_rev: git_rev.into(),
            profile: "release".into(),
            seed,
            offered_rate: 1500.0,
            run_seconds: 8.0,
            traced: false,
        },
        correct: true,
        attempted: 10,
        failed: 0,
        metrics: vec![Metric {
            name: "expand_p50_ms".into(),
            value: 1.5,
            unit: "ms".into(),
            samples: 10,
        }],
        extra: Vec::new(),
    }
}

#[test]
fn compare_refuses_results_made_differently() {
    let base = result(1, "aaa");
    // Another code revision is what a comparison is for.
    let rows = report::compare(&base, &result(1, "bbb")).expect("same provenance compares");
    assert_eq!(rows, vec![("expand_p50_ms".into(), "ms".into(), 1.5, 1.5)]);
    // Another seed is not.
    let err = report::compare(&base, &result(2, "aaa")).unwrap_err();
    assert!(
        matches!(&err, CompareError::Provenance(f) if f.len() == 1 && f[0].starts_with("seed"))
    );
    assert_eq!(err.exit_code(), report::EXIT_PROVENANCE);
}

#[test]
fn compare_command_exits_with_the_typed_code() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, r: &RunResult| {
        let path = dir.join(name);
        std::fs::write(&path, serde_json::to_string(r).unwrap()).unwrap();
        path
    };
    let a = write("wirebench-a.json", &result(1, "aaa"));
    let b = write("wirebench-b.json", &result(2, "aaa"));
    let c = write("wirebench-c.json", &result(1, "ccc"));
    let code = |x: &std::path::Path, y: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_wirebench"))
            .arg("compare")
            .arg(x)
            .arg(y)
            .output()
            .unwrap()
            .status
            .code()
    };
    assert_eq!(code(&a, &c), Some(0));
    assert_eq!(code(&a, &b), Some(i32::from(report::EXIT_PROVENANCE)));
    assert_eq!(
        code(&a, &dir.join("missing.json")),
        Some(i32::from(report::EXIT_BAD_INPUT))
    );
}

#[test]
fn summary_line_has_exactly_the_four_keys() {
    assert_eq!(
        result(1, "x").summary_line(),
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {\"expand_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
    );
}

#[test]
fn open_loop_replies_over_the_wire_match_the_reference() {
    let plans = plans("hot-deep", 9, 2);
    let server = Server::start(tier::shipped(dataset(), 2, 8), Arc::clone(dataset())).unwrap();
    let t0 = now_ns() + 5_000_000;
    let report = client::drive(
        server.addr,
        Drive {
            plans: plans.iter().collect(),
            mode: Mode::Open { t0 },
            deadlines: false,
            capture: 0,
            give_up_ns: t0 + 60_000_000_000,
        },
    );
    server.stop();
    assert_eq!(report.transport_error, None);
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    let want: usize = plans.iter().map(|p| 1 + p.steps.len()).sum();
    assert_eq!(
        report.records.len(),
        want,
        "every planned request was answered"
    );
    assert!(report.records.iter().all(|r| r.outcome == Outcome::Ok));
    assert_eq!(report.sessions_done as usize, plans.len());
}

//! Criterion benches for Heuristic-ReducedOpt — the Fig 10 measurement:
//! time per EXPAND action on each workload query's initial component.
//!
//! Scale via `BIONAV_BENCH_SCALE` (default 0.25; 1.0 = paper scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bionav_bench::build_workload;
use bionav_core::edgecut::heuristic::expand_component;
use bionav_core::edgecut::partition::{partition_until, reference};
use bionav_core::{CostParams, NavNodeId};

fn bench_scale() -> f64 {
    std::env::var("BIONAV_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// Fig 10 analog: one Heuristic-ReducedOpt EXPAND of the root component.
fn bench_expand(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let params = CostParams::default();
    let mut group = c.benchmark_group("heuristic_expand");
    for q in &workload.queries {
        let run = workload.run_query(&q.spec.name);
        let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(&q.spec.name),
            &comp,
            |b, comp| {
                b.iter(|| expand_component(black_box(&run.nav), black_box(comp), &params));
            },
        );
    }
    group.finish();
}

/// The partitioning stage alone (the non-exponential half of the heuristic):
/// the shipped ladder search beside the linear ladder walk it replaced, on
/// the same components, with the same partitions out. Both arms start from
/// a fresh scratch arena per call.
fn bench_partition(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let mut group = c.benchmark_group("k_partition");
    for name in ["prothymosin", "follistatin", "lbetat2"] {
        let run = workload.run_query(name);
        let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
        group.bench_with_input(BenchmarkId::new("search", name), &comp, |b, comp| {
            b.iter(|| partition_until(black_box(&run.nav), black_box(comp), 10));
        });
        group.bench_with_input(BenchmarkId::new("linear", name), &comp, |b, comp| {
            b.iter(|| reference::partition_until(black_box(&run.nav), black_box(comp), 10));
        });
    }
    group.finish();
}

/// Partition-budget sweep on one query (ablation B latency axis).
fn bench_expand_k_sweep(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let run = workload.run_query("prothymosin");
    let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
    let mut group = c.benchmark_group("expand_k_sweep");
    for k in [4usize, 8, 10, 12, 14] {
        let params = CostParams {
            max_opt_nodes: 18,
            ..CostParams::default()
        }
        .with_max_partitions(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| expand_component(black_box(&run.nav), black_box(&comp), &params));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expand, bench_partition, bench_expand_k_sweep);
criterion_main!(benches);

//! One benchmark run: set up, plan, check the wire oracle, drive the
//! timed window, and turn what was seen into metrics.

use std::path::Path;
use std::sync::Arc;

use bionav_cli::serve::ServeEngine;
use bionav_cli::Dataset;
use bionav_core::trace::{self, flightrec, now_ns};
use bionav_core::{ServeStats, Stage};
use bionav_proto::{encode_reply, Conn};

use crate::client::{self, ConnReport, Drive, Mode, Outcome, Record, Verb};
use crate::oracle;
use crate::plan::{self, SessionPlan};
use crate::report::{self, Metric, Provenance, RunResult};
use crate::stats::{median_f64, p99_supported, sliced_median, Sorted};
use crate::tier::{self, BuildTimes, Server};
use crate::workloads::{Spec, SCALE};

/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Length of each closed-loop peak burst, seconds.
pub const PEAK_SECONDS: f64 = 0.5;
/// Peak bursts per tier. An untraced run makes them on every tier it sets
/// up and reports their median. Each burst opens new connections, and so
/// new client and server threads; on hot-deep, bursts of one run differ by
/// up to a third (see the README), so the median needs many draws.
const PEAK_BURSTS: usize = 3;
/// Slices of the window; a p99 is the median of the slice p99s.
const P99_SLICES: usize = 4;
/// Request frames and replies kept for the offline proto timing.
const CAPTURE: usize = 4_000;
/// Where results and trace artifacts go, relative to the repo root.
pub const RESULTS_DIR: &str = "wirebench/results";

/// Parsed command line of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub spec: &'static Spec,
    /// Workload seed.
    pub seed: u64,
    /// Arrival window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut spec, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    spec = Some(
                        crate::workloads::by_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value:?}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            spec: spec.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Client threads and loopback connections: one per available core.
pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Sessions the warm-up replays, from a seed disjoint from the window's.
fn warm_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_F00D
}

/// Drives `plans` over [`connections`] loopback connections, one client
/// thread each; session `i` rides connection `i % connections`.
fn drive_all(
    server: &Server,
    plans: &[SessionPlan],
    mode: Mode,
    deadlines: bool,
    capture: usize,
    give_up_ns: u64,
) -> Seen {
    let conns = connections();
    let cpu0 = client::process_cpu_ns();
    let reports: Vec<ConnReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let drive = Drive {
                    plans: plans.iter().skip(c).step_by(conns).collect(),
                    mode,
                    deadlines,
                    capture: capture / conns,
                    give_up_ns,
                };
                s.spawn(move || client::drive(server.addr, drive))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnReport {
                    transport_error: Some("client thread panicked".into()),
                    ..ConnReport::default()
                })
            })
            .collect()
    });
    let mut seen = Seen {
        server_cpu_ns: client::process_cpu_ns() - cpu0,
        ..Seen::default()
    };
    for r in reports {
        seen.records.extend(r.records);
        seen.encode_ns += r.encode_ns;
        seen.decode_ns += r.decode_ns;
        seen.reply_bytes += r.reply_bytes;
        seen.sessions_done += r.sessions_done;
        seen.session_ns += r.session_ns;
        seen.problems.extend(r.problems);
        seen.problems.extend(r.transport_error);
        seen.captured.extend(r.captured);
        seen.server_cpu_ns = seen.server_cpu_ns.saturating_sub(r.cpu_ns);
    }
    seen
}

/// Replays every warm-up plan once, closed loop, untimed.
fn warm_up(server: &Server, warm: &[SessionPlan]) -> Seen {
    drive_all(
        server,
        warm,
        Mode::Closed {
            until_ns: u64::MAX,
            once: true,
        },
        false,
        0,
        now_ns() + 120_000_000_000,
    )
}

/// Everything the client threads saw, merged.
#[derive(Debug, Default)]
struct Seen {
    records: Vec<Record>,
    encode_ns: u64,
    decode_ns: u64,
    reply_bytes: u64,
    sessions_done: u64,
    session_ns: u64,
    problems: Vec<String>,
    captured: Vec<(Vec<u8>, bionav_proto::Reply)>,
    /// CPU time the server side used while the clients ran: the process's
    /// CPU time minus the client threads'.
    server_cpu_ns: u64,
}

impl Seen {
    fn count(&self, pred: impl Fn(&Record) -> bool) -> u64 {
        self.records.iter().filter(|r| pred(r)).count() as u64
    }

    /// Requests that did not get their correct answer and were not a
    /// typed overload refusal.
    fn failed(&self) -> u64 {
        self.count(|r| matches!(r.outcome, Outcome::Failed | Outcome::Mismatch))
    }

    /// The served (answered, possibly degraded) requests of one verb.
    fn served(&self, verb: Verb) -> impl Iterator<Item = &Record> {
        self.records
            .iter()
            .filter(move |r| r.verb == verb && matches!(r.outcome, Outcome::Ok | Outcome::Degraded))
    }

    /// Nearest-rank statistics of `f` over the served requests of a verb.
    fn sorted(&self, verb: Verb, f: impl Fn(&Record) -> u64) -> Sorted {
        Sorted::new(self.served(verb).map(f).collect())
    }
}

/// The open-loop timed window over `plans`, starting shortly after now.
fn window(server: &Server, plans: &[SessionPlan], args: &Args) -> (Seen, u64, u64) {
    let t0 = now_ns() + 20_000_000;
    let give_up = t0 + ((args.seconds + 60.0) * 1e9) as u64;
    let capture = if args.trace { CAPTURE } else { 0 };
    let seen = drive_all(
        server,
        plans,
        Mode::Open { t0 },
        args.spec.deadlines,
        capture,
        give_up,
    );
    let end = seen.records.iter().map(|r| r.done_ns).max().unwrap_or(t0);
    (seen, t0, end)
}

/// One closed-loop peak burst: sessions completed per second with zero
/// think time.
fn peak(server: &Server, plans: &[SessionPlan]) -> (f64, Seen) {
    let t0 = now_ns();
    let until = t0 + (PEAK_SECONDS * 1e9) as u64;
    let seen = drive_all(
        server,
        plans,
        Mode::Closed {
            until_ns: until,
            once: false,
        },
        false,
        0,
        until + 60_000_000_000,
    );
    let closes = seen.count(|r| r.verb == Verb::Close && r.done_ns <= until);
    (closes as f64 / PEAK_SECONDS, seen)
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        samples,
    }
}

fn count(name: &str, n: u64) -> Metric {
    metric(name, n as f64, "count", 0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A stage's `(count, p50 µs, p99 µs, total ms)` from a stats snapshot.
fn stage(stats: &ServeStats, s: Stage) -> (u64, f64, f64, f64) {
    stats
        .stages
        .iter()
        .find(|st| st.stage == s.name())
        .map_or((0, 0.0, 0.0, 0.0), |st| {
            (st.count, st.p50_us, st.p99_us, st.total_ms)
        })
}

/// The end-to-end metrics of an untraced window starting at `t0` whose
/// last reply came at `end`: what the window served, and at what CPU cost.
fn end_to_end(seen: &Seen, t0: u64, end: u64) -> Vec<Metric> {
    let attempted = seen.records.len() as u64;
    let good = seen.count(Record::good);
    let span = secs(end.saturating_sub(t0)).max(1e-9);
    vec![
        metric(
            "server_cpu_us_per_req",
            cpu_per_req_us(seen),
            "us",
            attempted,
        ),
        metric("goodput_rps", good as f64 / span, "req/s", good),
        metric("slo_ok_frac", ratio(good, attempted), "ratio", attempted),
    ]
}

/// Server CPU time per attempted request, microseconds.
fn cpu_per_req_us(seen: &Seen) -> f64 {
    ratio(seen.server_cpu_ns, seen.records.len() as u64) / 1e3
}

/// The wall-clock view of an untraced window of `seconds` from `t0`:
/// latency from intended send to reply read (p50 over the window, p99 the
/// median of the sub-window p99s), and the shares of requests that missed
/// their objective and of EXPANDs answered degraded.
fn latencies(seen: &Seen, t0: u64, seconds: f64) -> Vec<Metric> {
    let t1 = t0 + (seconds * 1e9) as u64;
    let mut m = Vec::new();
    for (verb, name) in [(Verb::Open, "open"), (Verb::Expand, "expand")] {
        let samples: Vec<(u64, u64)> = seen
            .served(verb)
            .map(|r| (r.intended_ns, r.latency_ns()))
            .collect();
        let n = samples.len() as u64;
        let all = Sorted::new(samples.iter().map(|&(_, l)| l).collect());
        let p99 = sliced_median(&samples, t0, t1, P99_SLICES, |s| ms(s.p99()));
        m.push(metric(&format!("{name}_p50_ms"), ms(all.p50()), "ms", n));
        m.push(metric(&format!("{name}_p99_ms"), p99, "ms", n));
    }
    let attempted = seen.records.len() as u64;
    m.push(metric(
        "slo_miss_frac",
        1.0 - ratio(seen.count(Record::good), attempted),
        "ratio",
        attempted,
    ));
    let expands = seen.served(Verb::Expand).count() as u64;
    m.push(metric(
        "degraded_frac",
        ratio(
            seen.count(|r| r.verb == Verb::Expand && r.outcome == Outcome::Degraded),
            expands,
        ),
        "ratio",
        expands,
    ));
    m
}

/// Sets up a tier: the shipped one, or the timing one when `times` is
/// given. Returns the server and the seconds spent after the dataset was
/// built (tier, listener, warm-up).
fn start(
    spec: &Spec,
    dataset: Arc<Dataset>,
    times: Option<&Arc<BuildTimes>>,
    warm: &[SessionPlan],
    problems: &mut Vec<String>,
) -> Result<(Server, f64), String> {
    let t = now_ns();
    let engine: ServeEngine = match times {
        Some(times) => tier::timed(&dataset, spec.shards, spec.slots, times),
        None => tier::shipped(&dataset, spec.shards, spec.slots),
    };
    let server = Server::start(engine, dataset).map_err(|e| format!("listen: {e}"))?;
    let seen = warm_up(&server, warm);
    problems.extend(seen.problems.iter().map(|p| format!("warm-up: {p}")));
    if seen.failed() > 0 {
        problems.push(format!("warm-up: {} failed requests", seen.failed()));
    }
    server.engine.reset_stats();
    Ok((server, secs(now_ns() - t)))
}

/// Builds the dataset, timed.
fn build_dataset() -> (Arc<Dataset>, f64) {
    let t = now_ns();
    let dataset = Arc::new(Dataset::workload(SCALE));
    (dataset, secs(now_ns() - t))
}

/// Plans the window and the warm-up against a reference over `dataset`.
fn make_plans(dataset: &Dataset, args: &Args) -> (Vec<SessionPlan>, Vec<SessionPlan>) {
    let spec = args.spec;
    let threads = connections();
    let plans = plan::generate(dataset, spec, args.seed, args.seconds, threads);
    let warm_secs = spec.warm_sessions as f64 / spec.rate_per_s;
    let warm = plan::generate(dataset, spec, warm_seed(args.seed), warm_secs, threads);
    (plans, warm)
}

/// Runs the benchmark once and returns its result. `Err` means the run
/// could not be carried out at all.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let spec = args.spec;
    let mut problems: Vec<String> = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();

    let (dataset, first_data_s) = build_dataset();
    let tp = now_ns();
    let (plans, warm) = make_plans(&dataset, args);
    let plan_s = secs(now_ns() - tp);
    let expands: usize = plans.iter().map(SessionPlan::expands).sum();
    eprintln!(
        "planned {} sessions ({} EXPANDs) + {} warm-up sessions in {plan_s:.2} s",
        plans.len(),
        expands,
        warm.len()
    );

    let to = now_ns();
    let verdict = oracle::run()?;
    eprintln!(
        "wire oracle: {} queries, {} replies, {} mismatches in {:.2} s",
        verdict.queries,
        verdict.replies,
        verdict.mismatches.len(),
        secs(now_ns() - to)
    );

    let (attempted, failed);
    let mut extra = Vec::new();
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut peaks = Vec::with_capacity(SETUPS * PEAK_BURSTS);
        let mut peak_sessions = 0;
        let mut burst = |server: &Server, problems: &mut Vec<String>| {
            for _ in 0..PEAK_BURSTS {
                let (rate, seen) = peak(server, &plans);
                problems.extend(seen.problems.iter().map(|p| format!("peak: {p}")));
                if seen.failed() > 0 {
                    problems.push(format!("peak: {} failed requests", seen.failed()));
                }
                peaks.push(rate);
                peak_sessions += seen.sessions_done;
            }
        };
        let mut dataset = Some((dataset, first_data_s));
        let mut live = None;
        for k in 0..SETUPS {
            let (data, data_s) = dataset.take().unwrap_or_else(build_dataset);
            let (server, rest_s) = start(spec, data, None, &warm, &mut problems)?;
            setups.push(data_s + rest_s);
            if k + 1 < SETUPS {
                burst(&server, &mut problems);
                server.stop();
            } else {
                live = Some(server);
            }
        }
        let server = live.ok_or("no set-up ran")?;
        let (seen, t0, end) = window(&server, &plans, args);
        let stats = server.engine.stats();
        burst(&server, &mut problems);
        server.stop();

        check_window(spec, &seen, &stats, &mut problems);
        metrics.push(metric("setup_s", median_f64(&setups), "s", SETUPS as u64));
        metrics.extend(end_to_end(&seen, t0, end));
        extra = latencies(&seen, t0, args.seconds);
        metrics.push(metric(
            "peak_sessions_s",
            median_f64(&peaks),
            "sessions/s",
            peak_sessions,
        ));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB", 0));
        eprintln!("set-ups: {setups:.3?} s (planning excluded: {plan_s:.2} s)");
        eprintln!("peak bursts: {peaks:.0?} sessions/s");
        attempted = seen.records.len() as u64;
        failed = seen.failed();
    } else {
        // Both tiers are built and warmed before anything is timed, and
        // the traced window runs between two untraced ones over the same
        // plans, so that what changes over a run (heap growth, host speed)
        // falls on both sides of trace.overhead.
        let (plain_server, _) = start(spec, dataset.clone(), None, &warm, &mut problems)?;
        let times = Arc::new(BuildTimes::default());
        let (server, _) = start(spec, dataset, Some(&times), &warm, &mut problems)?;
        let (before, before_t0, _) = window(&plain_server, &plans, args);
        check_window(spec, &before, &plain_server.engine.stats(), &mut problems);

        tier::lock(&times.esearch).clear();
        tier::lock(&times.navtree).clear();
        trace::set_enabled(true);
        flightrec::reset_flight();
        let (seen, _, _) = window(&server, &plans, args);
        trace::set_enabled(false);
        let stats = server.engine.stats();
        let per_shard: Vec<ServeStats> = (0..server.engine.shard_count())
            .map(|s| server.engine.shard_stats(s))
            .collect();
        write_artifacts(args, &server.engine);
        server.stop();
        check_window(spec, &seen, &stats, &mut problems);

        plain_server.engine.reset_stats();
        let (after, _, _) = window(&plain_server, &plans, args);
        check_window(spec, &after, &plain_server.engine.stats(), &mut problems);
        plain_server.stop();

        metrics = latencies(&before, before_t0, args.seconds);
        metrics.extend(per_layer(
            &seen,
            &stats,
            &per_shard,
            &times,
            [&before, &after],
        ));
        attempted = seen.records.len() as u64;
        failed = seen.failed();
    }

    let root = Path::new(".");
    let result = RunResult {
        provenance: Provenance {
            workload: spec.name.into(),
            scale: SCALE,
            shards: spec.shards,
            tree_slots: spec.slots,
            available_parallelism: connections(),
            connections: connections(),
            git_rev: report::git_rev(root),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            seed: args.seed,
            offered_rate: spec.rate_per_s,
            run_seconds: args.seconds,
            traced: args.trace,
        },
        correct: problems.is_empty() && verdict.mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        extra,
    };
    for p in problems.iter().chain(&verdict.mismatches) {
        eprintln!("MISMATCH {p}");
    }
    Ok(result)
}

/// Window-level validity checks that make a run incorrect.
fn check_window(spec: &Spec, seen: &Seen, stats: &ServeStats, problems: &mut Vec<String>) {
    problems.extend(seen.problems.iter().cloned());
    if seen.failed() > 0 {
        problems.push(format!("{} failed requests in the window", seen.failed()));
    }
    if spec.resident() && stats.cache_evictions > 0 {
        problems.push(format!(
            "{} evicted {} trees after warm-up; its working set must stay resident",
            spec.name, stats.cache_evictions
        ));
    }
    for verb in [Verb::Open, Verb::Expand] {
        let n = seen.served(verb).count();
        if !p99_supported(n) {
            eprintln!("warning: {verb:?} has {n} samples; its p99 has fewer than ten beyond it");
        }
    }
}

/// Writes the traced run's Chrome trace, flight-recorder dump and
/// Prometheus exposition beside its results.
fn write_artifacts(args: &Args, engine: &ServeEngine) {
    let stem = format!("{RESULTS_DIR}/{}-seed{}", args.spec.name, args.seed);
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    for (suffix, body) in [
        ("trace.json", trace::chrome_trace_json()),
        ("flightrec.json", flightrec::flightrec_json()),
        ("prom", engine.prometheus_text()),
    ] {
        if let Err(e) = std::fs::write(format!("{stem}.{suffix}"), body) {
            eprintln!("could not write {stem}.{suffix}: {e}");
        }
    }
}

/// The per-layer ledger of a traced window.
fn per_layer(
    seen: &Seen,
    stats: &ServeStats,
    per_shard: &[ServeStats],
    times: &BuildTimes,
    plain: [&Seen; 2],
) -> Vec<Metric> {
    let mut m = Vec::new();
    let sent = seen.records.len() as u64;

    // client
    let lag = Sorted::new(
        seen.records
            .iter()
            .map(|r| r.sent_ns.saturating_sub(r.intended_ns))
            .collect(),
    );
    m.push(metric(
        "client.lag_p99_ms",
        ms(lag.p99()),
        "ms",
        lag.len() as u64,
    ));
    m.push(count("client.sent", sent));
    m.push(count("client.failed", seen.failed()));
    // Little's law: open sessions on the server, averaged over the window.
    let first = seen
        .records
        .iter()
        .map(|r| r.intended_ns)
        .min()
        .unwrap_or(0);
    let last = seen.records.iter().map(|r| r.done_ns).max().unwrap_or(0);
    m.push(metric(
        "client.live_sessions",
        ratio(seen.session_ns, last.saturating_sub(first)),
        "sessions",
        seen.sessions_done,
    ));

    // proto: the client's own encode/decode plus the server side re-run
    // offline over this run's captured frames.
    let (mut server_decode, mut server_encode) = (0u64, 0u64);
    let mut conn = Conn::new();
    for (frame, reply) in &seen.captured {
        let t = now_ns();
        let _ = conn.feed_bytes(frame);
        let t1 = now_ns();
        let _ = encode_reply(reply);
        server_encode += now_ns() - t1;
        server_decode += t1 - t;
    }
    let captured = seen.captured.len() as u64;
    let per = |total: u64, n: u64| ratio(total, n) / 1e3;
    m.push(metric(
        "proto.encode_us",
        per(seen.encode_ns, sent) + per(server_encode, captured),
        "us",
        captured,
    ));
    m.push(metric(
        "proto.decode_us",
        per(seen.decode_ns, sent) + per(server_decode, captured),
        "us",
        captured,
    ));
    m.push(metric(
        "proto.reply_bytes_mean",
        ratio(seen.reply_bytes, sent),
        "bytes",
        sent,
    ));

    // serve: client round trip minus the engine's own stage time.
    let (open_n, open_p50, open_p99, _) = stage(stats, Stage::OpenSession);
    let (expand_n, expand_p50, expand_p99, _) = stage(stats, Stage::Expand);
    let open_rtt = seen.sorted(Verb::Open, Record::rtt_ns);
    let expand_rtt = seen.sorted(Verb::Expand, Record::rtt_ns);
    m.push(metric(
        "serve.open_wire_us_p50",
        open_rtt.p50() as f64 / 1e3 - open_p50,
        "us",
        open_rtt.len() as u64,
    ));
    m.push(metric(
        "serve.expand_wire_us_p50",
        expand_rtt.p50() as f64 / 1e3 - expand_p50,
        "us",
        expand_rtt.len() as u64,
    ));

    // shard
    let opens: Vec<u64> = per_shard.iter().map(|s| s.sessions_opened).collect();
    let mean = ratio(opens.iter().sum(), opens.len() as u64);
    let max = opens.iter().copied().max().unwrap_or(0) as f64;
    m.push(metric(
        "shard.open_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
        opens.len() as u64,
    ));

    // engine
    let lookups = stats.cache_hits + stats.cache_misses;
    let (_, _, _, lock_ms) = stage(stats, Stage::LockWait);
    m.push(metric("engine.open_us_p50", open_p50, "us", open_n));
    m.push(metric("engine.open_us_p99", open_p99, "us", open_n));
    m.push(metric("engine.expand_us_p50", expand_p50, "us", expand_n));
    m.push(metric("engine.expand_us_p99", expand_p99, "us", expand_n));
    m.push(metric(
        "engine.tree_hit_ratio",
        ratio(stats.cache_hits, lookups),
        "ratio",
        lookups,
    ));
    m.push(count("engine.tree_lookups", lookups));
    m.push(count("engine.tree_evictions", stats.cache_evictions));
    m.push(metric("engine.lock_wait_ms", lock_ms, "ms", 0));
    for (name, n) in [
        ("engine.deadline_rejects", stats.deadline_rejects),
        ("engine.degraded_myopic", stats.degraded_myopic),
        ("engine.degraded_static", stats.degraded_static),
        ("admission.shed", stats.shed_expands),
        ("admission.limit_final", stats.admission_limit),
        ("breaker.rejects", stats.breaker_rejects),
    ] {
        m.push(count(name, n));
    }

    // medline, navtree: timed inside the benchmark's own tree builder.
    for (layer, samples) in [
        ("medline.esearch", tier::lock(&times.esearch).clone()),
        ("navtree.build", tier::lock(&times.navtree).clone()),
    ] {
        let s = Sorted::new(samples);
        let n = s.len() as u64;
        m.push(metric(
            &format!("{layer}_us_p50"),
            s.p50() as f64 / 1e3,
            "us",
            n,
        ));
        m.push(metric(
            &format!("{layer}_us_p99"),
            s.p99() as f64 / 1e3,
            "us",
            n,
        ));
        m.push(count(&format!("{layer}_n"), n));
    }

    // edgecut: stage counts, never the per-tree cut-memo counters (those
    // vanish with evicted trees).
    let (partitions, _, partition_p99, partition_ms) = stage(stats, Stage::Partition);
    let (_, _, _, reduced_ms) = stage(stats, Stage::ReducedBuild);
    let (_, _, _, solve_ms) = stage(stats, Stage::Solve);
    m.push(metric(
        "edgecut.partition_ms",
        partition_ms,
        "ms",
        partitions,
    ));
    m.push(metric(
        "edgecut.partition_us_p99",
        partition_p99,
        "us",
        partitions,
    ));
    m.push(metric("edgecut.reduced_build_ms", reduced_ms, "ms", 0));
    m.push(metric("edgecut.solve_ms", solve_ms, "ms", 0));
    m.push(metric(
        "edgecut.fresh_ratio",
        ratio(partitions, expand_n),
        "ratio",
        expand_n,
    ));
    m.push(count("edgecut.expand_n", expand_n));

    // session
    for (name, s) in [
        ("session.apply_cut_ms", Stage::ApplyCut),
        ("session.materialize_ms", Stage::Materialize),
        ("session.cut_cache_ms", Stage::CutCacheLookup),
    ] {
        let (n, _, _, total) = stage(stats, s);
        m.push(metric(name, total, "ms", n));
    }

    // trace: the traced window against the mean of the untraced windows
    // run before and after it over the same plans.
    let expand_p50 = |s: &Seen| s.sorted(Verb::Expand, Record::latency_ns).p50() as f64;
    let mean = |f: &dyn Fn(&Seen) -> f64| (f(plain[0]) + f(plain[1])) / 2.0;
    let over = |traced: f64, untraced: f64| {
        if untraced > 0.0 {
            traced / untraced
        } else {
            0.0
        }
    };
    m.push(metric(
        "trace.overhead",
        over(expand_p50(seen), mean(&expand_p50)),
        "ratio",
        0,
    ));
    m.push(metric(
        "trace.cpu_overhead",
        over(cpu_per_req_us(seen), mean(&cpu_per_req_us)),
        "ratio",
        0,
    ));

    m
}

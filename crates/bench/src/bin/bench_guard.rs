//! CI latency guard over the serving bench.
//!
//! ```text
//! bench_guard BASELINE.json CURRENT.json [--factor F]
//!             [--overhead-factor G] [--overhead-slack S]
//!             [--sharded SWEEP.json] [--sharded-factor H]
//! bench_guard --sharded SWEEP.json            # sharded gate alone
//! ```
//!
//! Four gates:
//!
//! * **Regression** — compares `stats.expand_p99_us` between the committed
//!   baseline and a fresh `reproduce serve` run, exiting non-zero when the
//!   current p99 exceeds `F ×` the baseline (default 2.0).
//! * **Cold open** — the same `F ×` comparison over `open_session_p99_us`,
//!   so the lazy-embedding cold path cannot quietly regress back to the
//!   eager full-bitset build.
//! * **Tracing overhead** (enabled by `--overhead-factor`) — compares the
//!   current run's `traced_expand_p99_us` against its own
//!   `untraced_expand_p99_us`, failing when
//!   `traced > untraced × G + S µs` (slack default 100 µs, because at
//!   microsecond scale a multiplicative bound alone is noise-dominated).
//!   Note this gates the *enabled*-tracing cost; the dormant-site cost
//!   (a single relaxed atomic load per span site) is bounded above by it.
//! * **Shard scaling** (enabled by `--sharded`) — reads a fresh
//!   `reproduce serve-sharded` sweep and requires the 4-shard tier to
//!   deliver at least `H ×` the 1-shard sessions/sec (default 2.0).
//!   Both figures come from the *same* file and machine, so the gate is
//!   a self-relative scaling check — robust to host speed — and it keeps
//!   the sharded tier from quietly collapsing back to a routing veneer
//!   over one engine.
//!
//! Kept deliberately free of a JSON tree type: the vendored serde_json is
//! serialize-first, so the fields we gate on are scanned out of the text.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// Pulls the numeric value of `"key": <number>` out of a JSON document.
/// Enough for the flat telemetry block `reproduce serve` writes; not a
/// general JSON parser. The needle includes the quotes, so
/// `expand_p99_us` never matches inside `traced_expand_p99_us`.
fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load_field(path: &str, key: &str) -> Result<f64, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    extract_number(&doc, key).ok_or_else(|| format!("{path}: no {key} field"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut factor = 2.0f64;
    let mut overhead_factor: Option<f64> = None;
    let mut overhead_slack = 100.0f64;
    let mut sharded: Option<String> = None;
    let mut sharded_factor = 2.0f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--factor" => {
                i += 1;
                factor = match argv.get(i).and_then(|v| v.parse().ok()) {
                    Some(f) if f > 0.0 => f,
                    _ => {
                        eprintln!("error: --factor needs a positive number");
                        return ExitCode::from(2);
                    }
                };
            }
            "--overhead-factor" => {
                i += 1;
                overhead_factor = match argv.get(i).and_then(|v| v.parse().ok()) {
                    Some(f) if f > 0.0 => Some(f),
                    _ => {
                        eprintln!("error: --overhead-factor needs a positive number");
                        return ExitCode::from(2);
                    }
                };
            }
            "--overhead-slack" => {
                i += 1;
                overhead_slack = match argv.get(i).and_then(|v| v.parse().ok()) {
                    Some(s) if s >= 0.0 => s,
                    _ => {
                        eprintln!("error: --overhead-slack needs a non-negative number of µs");
                        return ExitCode::from(2);
                    }
                };
            }
            "--sharded" => {
                i += 1;
                sharded = match argv.get(i) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("error: --sharded needs a SWEEP.json path");
                        return ExitCode::from(2);
                    }
                };
            }
            "--sharded-factor" => {
                i += 1;
                sharded_factor = match argv.get(i).and_then(|v| v.parse().ok()) {
                    Some(f) if f > 0.0 => f,
                    _ => {
                        eprintln!("error: --sharded-factor needs a positive number");
                        return ExitCode::from(2);
                    }
                };
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    // The shard-scaling gate is self-contained (both figures live in the
    // sweep file), so it can run with or without the baseline/current pair.
    if let Some(sweep) = &sharded {
        let (s1, s4) = match (
            load_field(sweep, "sharded_sessions_per_sec_1"),
            load_field(sweep, "sharded_sessions_per_sec_4"),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                for err in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("error: {err}");
                }
                return ExitCode::from(2);
            }
        };
        let sbound = s1 * sharded_factor;
        println!(
            "bench_guard: sharded sessions/sec — 1 shard {s1:.1}, 4 shards {s4:.1}, bound {sbound:.1} ({sharded_factor:.2}×)"
        );
        if s4 < sbound {
            eprintln!(
                "bench_guard: FAIL — the 4-shard tier delivers less than {sharded_factor:.2}× the 1-shard sessions/sec"
            );
            return ExitCode::FAILURE;
        }
        if paths.is_empty() {
            println!("bench_guard: ok");
            return ExitCode::SUCCESS;
        }
    }
    let [baseline, current] = paths.as_slice() else {
        eprintln!(
            "usage: bench_guard BASELINE.json CURRENT.json [--factor F] \
             [--overhead-factor G] [--overhead-slack S] \
             [--sharded SWEEP.json] [--sharded-factor H]"
        );
        return ExitCode::from(2);
    };

    let (base, cur) = match (
        load_field(baseline, "expand_p99_us"),
        load_field(current, "expand_p99_us"),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };

    let bound = base * factor;
    println!(
        "bench_guard: expand_p99_us baseline {base:.1} µs, current {cur:.1} µs, bound {bound:.1} µs ({factor:.2}×)"
    );
    if cur > bound {
        eprintln!("bench_guard: FAIL — serve EXPAND p99 regressed more than {factor:.2}× over the committed baseline");
        return ExitCode::FAILURE;
    }

    let (obase, ocur) = match (
        load_field(baseline, "open_session_p99_us"),
        load_field(current, "open_session_p99_us"),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let obound = obase * factor;
    println!(
        "bench_guard: open_session_p99_us baseline {obase:.1} µs, current {ocur:.1} µs, bound {obound:.1} µs ({factor:.2}×)"
    );
    if ocur > obound {
        eprintln!("bench_guard: FAIL — cold-open p99 regressed more than {factor:.2}× over the committed baseline");
        return ExitCode::FAILURE;
    }

    if let Some(g) = overhead_factor {
        let (untraced, traced) = match (
            load_field(current, "untraced_expand_p99_us"),
            load_field(current, "traced_expand_p99_us"),
        ) {
            (Ok(u), Ok(t)) => (u, t),
            (u, t) => {
                for err in [u.err(), t.err()].into_iter().flatten() {
                    eprintln!("error: {err}");
                }
                return ExitCode::from(2);
            }
        };
        let obound = untraced * g + overhead_slack;
        println!(
            "bench_guard: tracing overhead — untraced p99 {untraced:.1} µs, traced p99 {traced:.1} µs, bound {obound:.1} µs ({g:.2}× + {overhead_slack:.0} µs slack)"
        );
        if traced > obound {
            eprintln!(
                "bench_guard: FAIL — enabling span tracing costs more than {g:.2}× + {overhead_slack:.0} µs on the serve EXPAND p99"
            );
            return ExitCode::FAILURE;
        }
    }

    println!("bench_guard: ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::extract_number;

    #[test]
    fn extracts_the_gated_field() {
        let doc = r#"{ "stats": { "expand_count": 180, "expand_p99_us": 9568.256, "x": 1 } }"#;
        assert_eq!(extract_number(doc, "expand_p99_us"), Some(9568.256));
        assert_eq!(extract_number(doc, "expand_count"), Some(180.0));
        assert_eq!(extract_number(doc, "missing"), None);
    }

    #[test]
    fn handles_exponent_and_trailing_brace() {
        let doc = r#"{"expand_p99_us": 1.5e3}"#;
        assert_eq!(extract_number(doc, "expand_p99_us"), Some(1500.0));
    }

    #[test]
    fn overhead_fields_do_not_collide_with_the_baseline_field() {
        // The serve report carries all three; the quoted needle keeps the
        // scans distinct even though the names share a suffix.
        let doc = r#"{
            "untraced_expand_p99_us": 100.5,
            "traced_expand_p99_us": 104.25,
            "stats": { "expand_p99_us": 100.5 }
        }"#;
        assert_eq!(extract_number(doc, "untraced_expand_p99_us"), Some(100.5));
        assert_eq!(extract_number(doc, "traced_expand_p99_us"), Some(104.25));
        assert_eq!(extract_number(doc, "expand_p99_us"), Some(100.5));
    }

    #[test]
    fn sharded_sweep_keys_scan_without_colliding() {
        // BENCH_sharded.json carries a `sweep` array whose rows all hold a
        // bare `sessions_per_sec`; the shard-suffixed flat keys must land
        // on the top-level figures only.
        let doc = r#"{
            "sweep": [
                { "shards": 1, "sessions_per_sec": 100.0 },
                { "shards": 4, "sessions_per_sec": 250.0 }
            ],
            "sharded_sessions_per_sec_1": 100.0,
            "sharded_sessions_per_sec_4": 250.0
        }"#;
        assert_eq!(
            extract_number(doc, "sharded_sessions_per_sec_1"),
            Some(100.0)
        );
        assert_eq!(
            extract_number(doc, "sharded_sessions_per_sec_4"),
            Some(250.0)
        );
        assert_eq!(extract_number(doc, "sharded_sessions_per_sec_8"), None);
    }

    #[test]
    fn cold_open_field_does_not_collide_with_its_sub_stages() {
        // The serve report also carries the hit/cold sub-stage p99s and the
        // per-stage rows (`"stage": "open_session"`); the quoted needle must
        // land on the top-level aggregate only.
        let doc = r#"{
            "open_session_hit_p99_us": 40.25,
            "open_session_cold_p99_us": 1900.75,
            "open_session_p99_us": 1200.5,
            "stats": { "stages": [ { "stage": "open_session", "p99_us": 1200.5 } ] }
        }"#;
        assert_eq!(extract_number(doc, "open_session_p99_us"), Some(1200.5));
        assert_eq!(extract_number(doc, "open_session_hit_p99_us"), Some(40.25));
        assert_eq!(
            extract_number(doc, "open_session_cold_p99_us"),
            Some(1900.75)
        );
    }
}

//! `wirebench --workload NAME --seed N --seconds S --trace 0|1` runs the
//! benchmark once; `wirebench compare BASE.json NEW.json` compares two
//! result files made the same way. Run from the repository root.

use std::path::Path;
use std::process::ExitCode;

use wirebench::report::{self, RunResult};
use wirebench::run::{self, Args, RESULTS_DIR};

fn print(result: &RunResult) {
    for m in result.metrics.iter().chain(&result.extra) {
        let n = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!("{:<28} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
}

fn save(result: &RunResult, args: &Args) {
    let path = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}.json",
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(RESULTS_DIR)
        .map_err(|e| e.to_string())
        .and_then(|()| serde_json::to_string_pretty(result).map_err(|e| e.to_string()))
        .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
    match written {
        Ok(()) => eprintln!("result written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn compare(base: &str, new: &str) -> ExitCode {
    let loaded =
        report::load(Path::new(base)).and_then(|b| report::load(Path::new(new)).map(|n| (b, n)));
    let rows = loaded.and_then(|(b, n)| report::compare(&b, &n));
    match rows {
        Ok(rows) => {
            println!(
                "{:<28} {:>14} {:>14} {:>8}",
                "metric", "base", "new", "new/base"
            );
            for (name, unit, b, n) in rows {
                let r = if b != 0.0 { n / b } else { f64::NAN };
                println!("{name:<28} {b:>14.4} {n:>14.4} {r:>8.3}  {unit}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("refusing to compare: {e:?}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [base, new] => compare(base, new),
            _ => {
                eprintln!("usage: wirebench compare BASE.json NEW.json");
                ExitCode::from(report::EXIT_BAD_INPUT)
            }
        };
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: wirebench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(result) => {
            print(&result);
            save(&result, &args);
            println!("{}", result.summary_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("served answers differ from the reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

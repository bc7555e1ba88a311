//! Result files: provenance, metrics, and the compare step.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// How a result was made. Two results are comparable only when every
/// field except [`Provenance::git_rev`] agrees: that one names the code
/// under test, which is what a comparison is about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Paper scale of the dataset.
    pub scale: f64,
    /// Engine shards.
    pub shards: usize,
    /// Tree-cache slots per shard.
    pub tree_slots: usize,
    /// `std::thread::available_parallelism` of the host.
    pub available_parallelism: usize,
    /// Client threads and loopback connections.
    pub connections: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: String,
    /// Workload seed.
    pub seed: u64,
    /// Offered open-loop session rate.
    pub offered_rate: f64,
    /// Length of the arrival window, seconds.
    pub run_seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

impl Provenance {
    /// Fields that differ between two results, ignoring the code identity.
    pub fn mismatches(&self, other: &Provenance) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{name}: {a} vs {b}"));
            }
        };
        check("workload", self.workload.clone(), other.workload.clone());
        check("scale", self.scale.to_string(), other.scale.to_string());
        check("shards", self.shards.to_string(), other.shards.to_string());
        check(
            "tree_slots",
            self.tree_slots.to_string(),
            other.tree_slots.to_string(),
        );
        check(
            "available_parallelism",
            self.available_parallelism.to_string(),
            other.available_parallelism.to_string(),
        );
        check(
            "connections",
            self.connections.to_string(),
            other.connections.to_string(),
        );
        check("profile", self.profile.clone(), other.profile.clone());
        check("seed", self.seed.to_string(), other.seed.to_string());
        check(
            "offered_rate",
            self.offered_rate.to_string(),
            other.offered_rate.to_string(),
        );
        check(
            "run_seconds",
            self.run_seconds.to_string(),
            other.run_seconds.to_string(),
        );
        check("traced", self.traced.to_string(), other.traced.to_string());
        out
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value (0 where the value is not a statistic).
    pub samples: u64,
}

/// One run's result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// How the run was made.
    pub provenance: Provenance,
    /// Whether every served answer matched the reference.
    pub correct: bool,
    /// Requests attempted in the timed window.
    pub attempted: u64,
    /// Requests that failed (see the README for what counts).
    pub failed: u64,
    /// The metrics of the summary line, in print order.
    pub metrics: Vec<Metric>,
    /// Further numbers printed and saved for people but left out of the
    /// summary line (the wall-clock latencies of an untraced run).
    pub extra: Vec<Metric>,
}

impl RunResult {
    /// The one-line summary printed last: `correct`, `attempted`, `failed`
    /// and every metric as `{"value", "unit"}`.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Exit code of a refused comparison: the two results were made
/// differently.
pub const EXIT_PROVENANCE: u8 = 3;
/// Exit code of a comparison that could not read its inputs.
pub const EXIT_BAD_INPUT: u8 = 2;

/// Why a comparison was refused.
#[derive(Debug, PartialEq)]
pub enum CompareError {
    /// A result file could not be read or parsed.
    BadInput(String),
    /// The results were made differently; the fields are listed.
    Provenance(Vec<String>),
}

impl CompareError {
    /// The process exit code for this refusal.
    pub fn exit_code(&self) -> u8 {
        match self {
            CompareError::BadInput(_) => EXIT_BAD_INPUT,
            CompareError::Provenance(_) => EXIT_PROVENANCE,
        }
    }
}

/// Compares two results metric by metric as `(name, unit, base, new)`,
/// refusing when their provenance differs.
pub fn compare(
    base: &RunResult,
    new: &RunResult,
) -> Result<Vec<(String, String, f64, f64)>, CompareError> {
    let diff = base.provenance.mismatches(&new.provenance);
    if !diff.is_empty() {
        return Err(CompareError::Provenance(diff));
    }
    Ok(base
        .metrics
        .iter()
        .filter_map(|b| {
            new.metrics
                .iter()
                .find(|n| n.name == b.name)
                .map(|n| (b.name.clone(), b.unit.clone(), b.value, n.value))
        })
        .collect())
}

/// Reads a result file.
pub fn load(path: &Path) -> Result<RunResult, CompareError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CompareError::BadInput(format!("{}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| CompareError::BadInput(format!("{}: {e}", path.display())))
}

/// `git rev-parse HEAD` in `root`, or `unknown` when `root` is not the
/// top of a git checkout (an enclosing repository does not count).
pub fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

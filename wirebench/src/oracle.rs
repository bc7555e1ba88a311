//! The wire differential oracle.
//!
//! Replays the ten Table I oracle navigations (expand the component that
//! covers the target until the target is visible, then SHOWRESULTS) over
//! a loopback socket, and checks two things: every wire reply equals the
//! local reference `Session`'s, and that session's per-query costs equal
//! the ones committed in `BENCH_serve.json`. Together they say the socket
//! path reproduces the committed navigation costs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use bionav_cli::Dataset;
use bionav_core::session::Session;
use bionav_core::{CostParams, NavNodeId, NavigationTree};
use bionav_proto::{encode_request, Reply, ReplyReader, Request};
use bionav_workload::{Workload, WorkloadConfig};
use serde::Deserialize;

use crate::tier::{shipped, Server};

/// Scale the committed `BENCH_serve.json` was made at.
pub const SCALE: f64 = 0.25;

/// The committed serve artifact, read at build time.
const COMMITTED: &str = include_str!("../../BENCH_serve.json");

/// One committed per-query row.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct CostRow {
    /// Query name.
    pub name: String,
    /// EXPANDs in the oracle script.
    pub expands: usize,
    /// Interaction cost.
    pub interaction_cost: usize,
    /// Total cost.
    pub total_cost: usize,
}

/// The per-query rows committed in `BENCH_serve.json`.
pub fn committed() -> Result<Vec<CostRow>, String> {
    #[derive(Deserialize)]
    struct Artifact {
        queries: Vec<CostRow>,
    }
    serde_json::from_str::<Artifact>(COMMITTED)
        .map(|a| a.queries)
        .map_err(|e| format!("BENCH_serve.json: {e}"))
}

/// What one oracle pass found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Queries replayed.
    pub queries: usize,
    /// Wire replies compared.
    pub replies: usize,
    /// Every disagreement, described.
    pub mismatches: Vec<String>,
}

/// One blocking request/reply exchange.
fn call(stream: &mut TcpStream, reader: &mut ReplyReader, req: &Request) -> Result<Reply, String> {
    stream
        .write_all(&encode_request(req))
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server hung up".into());
        }
        let mut replies = reader.feed_bytes(&buf[..n]).map_err(|e| e.to_string())?;
        if let Some(r) = replies.pop() {
            return Ok(r);
        }
    }
}

/// A step of an oracle script.
enum Step {
    Expand(NavNodeId),
    Show(NavNodeId),
}

/// Builds the workload at [`SCALE`], serves it, and replays every oracle
/// script over one loopback connection.
pub fn run() -> Result<Verdict, String> {
    let committed = committed()?;
    let workload = Workload::build(&WorkloadConfig::scaled(SCALE));
    let params = CostParams::default();
    let mut verdict = Verdict::default();

    // Scripts and their reference costs, from the workload's own trees.
    let mut scripts: Vec<(String, NavigationTree, Vec<Step>)> = Vec::new();
    for q in &workload.queries {
        let run = workload.run_query(&q.spec.name);
        let mut session = Session::new(&run.nav, params.clone());
        let mut steps = Vec::new();
        while !session.active().is_visible(run.target) {
            let root = session.active().component_root_of(run.target);
            session
                .expand(root)
                .map_err(|e| format!("{}: oracle expand refused: {e}", q.spec.name))?;
            steps.push(Step::Expand(root));
            if steps.len() > run.nav.len() {
                return Err(format!("{}: oracle navigation does not end", q.spec.name));
            }
        }
        session
            .show_results(run.target)
            .map_err(|e| format!("{}: {e}", q.spec.name))?;
        steps.push(Step::Show(run.target));
        let got = CostRow {
            name: q.spec.name.clone(),
            expands: session.cost().expands,
            interaction_cost: session.cost().interaction_cost(),
            total_cost: session.cost().total_cost(),
        };
        match committed.iter().find(|r| r.name == got.name) {
            Some(want) if *want == got => {}
            want => verdict
                .mismatches
                .push(format!("cost of {}: {got:?}, committed {want:?}", got.name)),
        }
        scripts.push((q.spec.keywords.clone(), run.nav, steps));
    }
    if scripts.len() != committed.len() {
        verdict.mismatches.push(format!(
            "{} oracle queries, {} committed",
            scripts.len(),
            committed.len()
        ));
    }

    let dataset = Arc::new(Dataset {
        hierarchy: workload.hierarchy,
        store: workload.store,
        index: workload.index,
        origin: format!("ICDE 2009 evaluation workload (scale {SCALE})"),
        suggestion: None,
    });
    let server = Server::start(shipped(&dataset, 1, 8), Arc::clone(&dataset))
        .map_err(|e| format!("oracle server: {e}"))?;
    let outcome = replay(server.addr, &scripts, &params, &mut verdict);
    server.stop();
    outcome.map(|()| verdict)
}

fn replay(
    addr: SocketAddr,
    scripts: &[(String, NavigationTree, Vec<Step>)],
    params: &CostParams,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = ReplyReader::new();
    let wire = |nodes: &[bionav_proto::WireNode]| -> Vec<(u32, u64)> {
        nodes.iter().map(|n| (n.node, n.count)).collect()
    };
    for (query, nav, steps) in scripts {
        let mut session = Session::new(nav, params.clone());
        let want: Vec<(u32, u64)> = session
            .visualize()
            .iter()
            .map(|v| (v.node.0, u64::from(v.component_distinct)))
            .collect();
        let reply = call(
            &mut stream,
            &mut reader,
            &Request::Open {
                query: query.clone(),
            },
        )?;
        let Reply::Opened { session: id, roots } = reply else {
            verdict
                .mismatches
                .push(format!("{query}: open got {reply:?}"));
            continue;
        };
        verdict.queries += 1;
        verdict.replies += 1;
        if wire(&roots) != want {
            verdict.mismatches.push(format!("{query}: roots differ"));
        }
        for (i, step) in steps.iter().enumerate() {
            let (reply, ok) = match *step {
                Step::Expand(node) => {
                    let want: Vec<(u32, u64)> = session
                        .expand(node)
                        .map_err(|e| e.to_string())?
                        .iter()
                        .map(|&n| (n.0, u64::from(session.component_distinct(n))))
                        .collect();
                    let req = Request::Expand {
                        session: id,
                        node: node.0,
                    };
                    let reply = call(&mut stream, &mut reader, &req)?;
                    let ok = matches!(&reply, Reply::Expanded { revealed, degraded: false }
                        if wire(revealed) == want);
                    (reply, ok)
                }
                Step::Show(node) => {
                    let want: Vec<u64> = session
                        .show_results(node)
                        .map_err(|e| e.to_string())?
                        .iter()
                        .map(|c| u64::from(c.0))
                        .collect();
                    let req = Request::ShowResults {
                        session: id,
                        node: node.0,
                    };
                    let reply = call(&mut stream, &mut reader, &req)?;
                    let ok = matches!(&reply, Reply::Results { citations } if *citations == want);
                    (reply, ok)
                }
            };
            verdict.replies += 1;
            if !ok {
                verdict
                    .mismatches
                    .push(format!("{query}: step {i} got {reply:?}"));
            }
        }
        let reply = call(&mut stream, &mut reader, &Request::Close { session: id })?;
        if reply != Reply::Closed {
            verdict
                .mismatches
                .push(format!("{query}: close got {reply:?}"));
        }
    }
    Ok(())
}

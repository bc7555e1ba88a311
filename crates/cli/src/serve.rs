//! The blocking TCP front end over the sharded serving tier.
//!
//! All protocol logic lives in `bionav-proto`'s sans-IO [`Conn`] state
//! machine; this module is the thin transport shim the ISSUE 7 design
//! calls for — read bytes, feed the state machine, apply requests to the
//! [`ShardedEngine`], write whatever bytes the machine queued. One thread
//! per connection (the tier itself is the concurrency story; a connection
//! is a cheap blocking reader).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bionav_core::trace::flightrec;
use bionav_core::{NavNodeId, RequestCtx, ShardSessionId, ShardedEngine, Verb};
use bionav_proto::{Conn, Event, Reply, Request, WireCtx, WireNode};

use crate::repl::ReplBuilder;
use crate::Dataset;

/// The serving tier a connection handler talks to.
pub type ServeEngine = ShardedEngine<ReplBuilder>;

/// Connections ever accepted (`bionav_conn_accepted_total`).
static CONN_ACCEPTED: AtomicU64 = AtomicU64::new(0);
/// Currently open connections (`bionav_conn_active`).
static CONN_ACTIVE: AtomicU64 = AtomicU64::new(0);
/// Intact frames whose payload failed to decode
/// (`bionav_frames_malformed_total`).
static FRAMES_MALFORMED: AtomicU64 = AtomicU64::new(0);

/// RAII guard over the connection gauge: counts the accept on
/// construction, decrements the active gauge on drop — including the
/// unwind path of a panicking handler thread, so the gauge can't leak.
struct ConnGauge;

impl ConnGauge {
    fn accept() -> Self {
        // Ordering: Relaxed — monotonic telemetry counters; nothing is
        // published through them.
        CONN_ACCEPTED.fetch_add(1, Ordering::Relaxed);
        // Ordering: Relaxed — same advisory telemetry contract.
        CONN_ACTIVE.fetch_add(1, Ordering::Relaxed);
        ConnGauge
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        // Ordering: Relaxed — advisory gauge decrement, never synchronizes.
        CONN_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The front end's own Prometheus families, appended to the engine
/// exposition by the wire `PROM` verb.
fn conn_metrics_text() -> String {
    format!(
        "# HELP bionav_conn_accepted_total Connections accepted by the TCP front end.\n\
         # TYPE bionav_conn_accepted_total counter\n\
         bionav_conn_accepted_total {}\n\
         # HELP bionav_conn_active Currently open front-end connections.\n\
         # TYPE bionav_conn_active gauge\n\
         bionav_conn_active {}\n\
         # HELP bionav_frames_malformed_total Intact frames whose payload was not a valid request.\n\
         # TYPE bionav_frames_malformed_total counter\n\
         bionav_frames_malformed_total {}\n",
        // Ordering: Relaxed — scrape-time reads of advisory counters.
        CONN_ACCEPTED.load(Ordering::Relaxed),
        // Ordering: Relaxed — same contract as above.
        CONN_ACTIVE.load(Ordering::Relaxed),
        // Ordering: Relaxed — same contract as above.
        FRAMES_MALFORMED.load(Ordering::Relaxed),
    )
}

/// The flight-recorder verb a wire request runs under. Exhaustive on
/// purpose: a new `Request` variant fails to compile until it is
/// classified here, and the `cargo xtask analyze` coverage matrix checks
/// every verb appears (ctx propagation leg).
fn verb_of(req: &Request) -> Verb {
    match req {
        Request::Open { .. } => Verb::Open,
        Request::Expand { .. } => Verb::Expand,
        Request::ShowResults { .. } => Verb::ShowResults,
        Request::Close { .. } => Verb::Close,
        Request::Stats => Verb::Stats,
        Request::Prom => Verb::Prom,
        Request::Debug => Verb::Debug,
    }
}

/// Builds the server-side [`RequestCtx`] for one decoded request: honor
/// the client's envelope fields when present (0 = unset), mint a fresh
/// process-unique request id otherwise so legacy bare frames are traced
/// too.
fn wire_request_ctx(wire: Option<WireCtx>) -> RequestCtx {
    let wire = wire.unwrap_or_default();
    RequestCtx {
        request_id: if wire.request_id != 0 {
            wire.request_id
        } else {
            flightrec::mint_request_id()
        },
        session: (wire.session != 0).then_some(wire.session),
        deadline_ns: wire.deadline_ns,
    }
}

/// Accepts connections forever, one handler thread each. The bound
/// address is already printed by the caller (so tests can bind port 0 and
/// read the real port); this function only returns on an accept error.
pub fn serve(listener: TcpListener, engine: Arc<ServeEngine>, dataset: Arc<Dataset>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let engine = Arc::clone(&engine);
                let dataset = Arc::clone(&dataset);
                std::thread::spawn(move || handle_connection(stream, &engine, &dataset));
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                return;
            }
        }
    }
}

/// Drives one connection to EOF or a fatal protocol error. Every decoded
/// request gets exactly one reply, in order; malformed frames get a
/// [`Reply::Error`] and the connection keeps going (the framing layer
/// already resynchronized past them).
fn handle_connection(mut stream: TcpStream, engine: &ServeEngine, dataset: &Dataset) {
    let _gauge = ConnGauge::accept();
    let mut conn = Conn::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return, // EOF or torn transport
            Ok(n) => n,
        };
        let events = match conn.feed_bytes(&buf[..n]) {
            Ok(events) => events,
            Err(_) => return, // oversized frame: the prefix can't be trusted
        };
        for event in events {
            let reply = match event {
                Event::Request(req, wire) => {
                    // The wire front end is where request contexts are
                    // minted: every span, degradation decision, and
                    // flight-recorder entry downstream carries this id.
                    let ctx = wire_request_ctx(wire);
                    let _scope = flightrec::request_scope(ctx, verb_of(&req));
                    apply(req, engine, dataset)
                }
                Event::Malformed(msg) => {
                    // Ordering: Relaxed — monotonic telemetry counter.
                    FRAMES_MALFORMED.fetch_add(1, Ordering::Relaxed);
                    Reply::Error { message: msg }
                }
            };
            conn.enqueue_reply(&reply);
        }
        if conn.outbound_len() > 0 && stream.write_all(&conn.take_outbound()).is_err() {
            return;
        }
    }
}

/// Maps a typed engine refusal to its wire reply. An admission-cap shed
/// ([`EngineError::Overloaded`](bionav_core::EngineError::Overloaded)) is
/// the one retryable refusal, so it gets [`Reply::Throttled`] with the
/// protocol's 1 ms floor as its hint: the cap frees a slot as soon as any
/// in-flight EXPAND finishes. Everything else is a plain [`Reply::Error`].
fn error_reply(e: bionav_core::EngineError) -> Reply {
    match e {
        bionav_core::EngineError::Overloaded => Reply::Throttled {
            message: e.to_string(),
            retry_after_ms: 1,
        },
        _ => Reply::Error {
            message: e.to_string(),
        },
    }
}

/// Applies one request to the tier and renders the reply.
fn apply(req: Request, engine: &ServeEngine, dataset: &Dataset) -> Reply {
    match req {
        Request::Open { query } => match engine.open_session(&query) {
            Err(e) => error_reply(e),
            Ok(id) => {
                let roots = engine
                    .with_session(id, |s| {
                        s.visualize()
                            .iter()
                            .map(|v| WireNode {
                                node: v.node.0,
                                label: s.nav().label(v.node).to_string(),
                                count: u64::from(v.component_distinct),
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Reply::Opened {
                    session: id.to_bits(),
                    roots,
                }
            }
        },
        Request::Expand { session, node } => {
            let id = ShardSessionId::from_bits(session);
            match engine.expand(id, NavNodeId(node)) {
                Err(e) => error_reply(e),
                Ok(reply) => {
                    let revealed = engine
                        .with_session(id, |s| {
                            reply
                                .revealed
                                .iter()
                                .map(|&n| WireNode {
                                    node: n.0,
                                    label: s.nav().label(n).to_string(),
                                    count: u64::from(s.component_distinct(n)),
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    Reply::Expanded {
                        revealed,
                        degraded: reply.degraded.is_some(),
                    }
                }
            }
        }
        Request::ShowResults { session, node } => {
            let id = ShardSessionId::from_bits(session);
            match engine.with_session(id, |s| s.show_results(NavNodeId(node))) {
                None => Reply::Error {
                    message: format!("unknown session {id}"),
                },
                Some(Err(e)) => Reply::Error {
                    message: e.to_string(),
                },
                Some(Ok(ids)) => Reply::Results {
                    citations: ids.into_iter().map(|c| u64::from(c.0)).collect(),
                },
            }
        }
        Request::Close { session } => {
            match engine.close_session(ShardSessionId::from_bits(session)) {
                Ok(_) => Reply::Closed,
                Err(e) => error_reply(e),
            }
        }
        Request::Stats => match engine.stats().to_json() {
            Ok(json) => Reply::Stats { json },
            Err(e) => Reply::Error {
                message: format!("stats serialization failed: {e}"),
            },
        },
        Request::Prom => {
            // The dataset is unused by the pure telemetry verbs, but the
            // handler keeps it so citation-enriching verbs (titles in
            // SHOWRESULTS replies, say) slot in without a signature change.
            let _ = dataset;
            let mut text = engine.prometheus_text();
            text.push_str(&conn_metrics_text());
            Reply::Prom { text }
        }
        Request::Debug => Reply::Flight {
            json: flightrec::flightrec_json(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::sharded_engine;
    use bionav_core::CostParams;

    fn tier() -> (Arc<ServeEngine>, Arc<Dataset>, String) {
        let dataset = Arc::new(Dataset::demo(7, 250));
        let query = dataset.suggestion.clone().expect("demo suggests a query");
        let engine = Arc::new(sharded_engine(&dataset, CostParams::default(), 2, 8));
        (engine, dataset, query)
    }

    /// The handler logic is sans-IO testable too: apply requests directly,
    /// no socket anywhere.
    #[test]
    fn apply_covers_the_full_session_verbs() {
        let (engine, dataset, query) = tier();
        let opened = apply(
            Request::Open {
                query: query.clone(),
            },
            &engine,
            &dataset,
        );
        let Reply::Opened { session, roots } = opened else {
            panic!("expected Opened, got {opened:?}");
        };
        assert!(!roots.is_empty());
        let root = roots[0].node;

        let expanded = apply(
            Request::Expand {
                session,
                node: root,
            },
            &engine,
            &dataset,
        );
        let Reply::Expanded { revealed, .. } = expanded else {
            panic!("expected Expanded, got {expanded:?}");
        };
        assert!(!revealed.is_empty());

        let shown = apply(
            Request::ShowResults {
                session,
                node: revealed[0].node,
            },
            &engine,
            &dataset,
        );
        assert!(matches!(shown, Reply::Results { ref citations } if !citations.is_empty()));

        let stats = apply(Request::Stats, &engine, &dataset);
        assert!(matches!(stats, Reply::Stats { ref json } if json.contains("sessions_opened")));
        let prom = apply(Request::Prom, &engine, &dataset);
        let Reply::Prom { ref text } = prom else {
            panic!("expected Prom, got {prom:?}");
        };
        assert!(text.contains("shard=\"1\""));
        // The front end's own families ride along on the wire PROM verb.
        assert!(text.contains("# TYPE bionav_conn_accepted_total counter"));
        assert!(text.contains("# TYPE bionav_conn_active gauge"));
        assert!(text.contains("# TYPE bionav_frames_malformed_total counter"));

        let debug = apply(Request::Debug, &engine, &dataset);
        let Reply::Flight { ref json } = debug else {
            panic!("expected Flight, got {debug:?}");
        };
        let records: Vec<bionav_core::FlightRecord> =
            serde_json::from_str(json).expect("flight dump parses");
        // The verbs applied above ran without a front-end scope, so the
        // engine minted ids itself; every record carries a nonzero one.
        assert!(records.iter().all(|r| r.request_id != 0));

        assert_eq!(
            apply(Request::Close { session }, &engine, &dataset),
            Reply::Closed
        );
        // Closing again, forged ids, bad queries: typed errors, not panics.
        assert!(matches!(
            apply(Request::Close { session }, &engine, &dataset),
            Reply::Error { .. }
        ));
        assert!(matches!(
            apply(
                Request::Expand {
                    session: u64::MAX,
                    node: 0
                },
                &engine,
                &dataset
            ),
            Reply::Error { .. }
        ));
        assert!(matches!(
            apply(
                Request::Open {
                    query: "zzzznonexistenttoken".into()
                },
                &engine,
                &dataset
            ),
            Reply::Error { .. }
        ));
    }

    /// Forged packed session ids arriving over the wire — out-of-range
    /// shard field, 48-bit local-id boundary patterns — are typed
    /// `Reply::Error`s on every session verb; the connection (and the
    /// tier) must survive all of them.
    #[test]
    fn forged_wire_session_ids_get_typed_errors_on_every_verb() {
        let (engine, dataset, query) = tier();
        let genuine = match apply(Request::Open { query }, &engine, &dataset) {
            Reply::Opened { session, .. } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        let local_mask: u64 = (1 << 48) - 1;
        let forgeries = [
            u64::MAX,                                             // max shard, max local
            u64::from(u16::MAX) << 48,                            // max shard, local 0
            (u64::from(u16::MAX) << 48) | (genuine & local_mask), // real local, forged shard
            (genuine & !local_mask) | local_mask,                 // real shard, boundary local
        ];
        for forged in forgeries {
            assert!(
                matches!(
                    apply(
                        Request::Expand {
                            session: forged,
                            node: 0
                        },
                        &engine,
                        &dataset
                    ),
                    Reply::Error { .. }
                ),
                "Expand({forged:#x})"
            );
            assert!(
                matches!(
                    apply(
                        Request::ShowResults {
                            session: forged,
                            node: 0
                        },
                        &engine,
                        &dataset
                    ),
                    Reply::Error { .. }
                ),
                "ShowResults({forged:#x})"
            );
            assert!(
                matches!(
                    apply(Request::Close { session: forged }, &engine, &dataset),
                    Reply::Error { .. }
                ),
                "Close({forged:#x})"
            );
        }
        // The genuine session outlived every forgery.
        assert_eq!(
            apply(Request::Close { session: genuine }, &engine, &dataset),
            Reply::Closed
        );
    }

    /// Envelope fields are honored verbatim; bare/zeroed frames get a
    /// server-minted nonzero id instead.
    #[test]
    fn wire_ctx_minting_honors_the_envelope_and_fills_gaps() {
        let full = wire_request_ctx(Some(WireCtx {
            request_id: 0xFACE,
            session: 7,
            deadline_ns: 99,
        }));
        assert_eq!(full.request_id, 0xFACE);
        assert_eq!(full.session, Some(7));
        assert_eq!(full.deadline_ns, 99);

        let bare = wire_request_ctx(None);
        assert_ne!(bare.request_id, 0, "bare frames get a minted id");
        assert_eq!(bare.session, None);
        assert_eq!(bare.deadline_ns, 0);

        let zeroed = wire_request_ctx(Some(WireCtx::default()));
        assert_ne!(zeroed.request_id, 0);
        assert_ne!(zeroed.request_id, bare.request_id, "ids are unique");
    }

    /// Every wire `Request` variant classifies to the matching flight
    /// verb (the analyzer's ctx-propagation leg anchors on this table).
    #[test]
    fn verb_of_covers_every_wire_request() {
        let cases = [
            (Request::Open { query: "q".into() }, Verb::Open),
            (
                Request::Expand {
                    session: 1,
                    node: 2,
                },
                Verb::Expand,
            ),
            (
                Request::ShowResults {
                    session: 1,
                    node: 2,
                },
                Verb::ShowResults,
            ),
            (Request::Close { session: 1 }, Verb::Close),
            (Request::Stats, Verb::Stats),
            (Request::Prom, Verb::Prom),
            (Request::Debug, Verb::Debug),
        ];
        for (req, verb) in cases {
            assert_eq!(verb_of(&req), verb, "{req:?}");
        }
    }

    /// A front-end scope around `apply` lands the client-chosen request
    /// id in the flight recorder — the end-to-end propagation contract.
    #[test]
    fn wire_scope_threads_the_client_request_id_into_the_recorder() {
        let (engine, dataset, query) = tier();
        let ctx = wire_request_ctx(Some(WireCtx {
            request_id: 0xD0_0DFEED,
            session: 0,
            deadline_ns: 0,
        }));
        let reply = {
            let _scope = flightrec::request_scope(ctx, Verb::Open);
            apply(Request::Open { query }, &engine, &dataset)
        };
        assert!(matches!(reply, Reply::Opened { .. }));
        let mine: Vec<_> = flightrec::flight_snapshot()
            .into_iter()
            .filter(|e| e.request_id == 0xD0_0DFEED)
            .collect();
        assert_eq!(mine.len(), 1, "exactly one summary for the wire request");
        assert_eq!(mine[0].verb, Verb::Open);
        assert!(mine[0].shard.is_some(), "the owning shard was noted");
    }

    /// ISSUE 10 regression: a wire request whose envelope deadline has
    /// already expired is rejected before *any* solver work — the typed
    /// refusal and shed reason land in the flight recorder, and the
    /// request's flight entry shows zero time in every solver stage.
    #[test]
    fn expired_wire_deadline_is_rejected_before_any_solver_work() {
        let (engine, dataset, query) = tier();
        // A live session opened without a deadline, so only the EXPAND
        // under test can be rejected.
        let opened = apply(
            Request::Open {
                query: query.clone(),
            },
            &engine,
            &dataset,
        );
        let Reply::Opened { session, roots } = opened else {
            panic!("expected Opened, got {opened:?}");
        };
        let shard = ShardSessionId::from_bits(session).shard();
        let rejects0 = engine.shard_stats(shard).deadline_rejects;

        // deadline_ns = 1: expired since (practically) the trace epoch.
        let rid = 0xDEAD_1111_u64;
        let ctx = wire_request_ctx(Some(WireCtx {
            request_id: rid,
            session,
            deadline_ns: 1,
        }));
        let reply = {
            let _scope = flightrec::request_scope(ctx, Verb::Expand);
            apply(
                Request::Expand {
                    session,
                    node: roots[0].node,
                },
                &engine,
                &dataset,
            )
        };
        assert!(
            matches!(reply, Reply::Error { ref message } if message.contains("deadline")),
            "expected a typed deadline refusal, got {reply:?}"
        );
        assert_eq!(
            engine.shard_stats(shard).deadline_rejects,
            rejects0 + 1,
            "the shard counted the deadline reject"
        );

        // The flight entry for this request id carries the typed shed
        // reason and error, and never entered a solver stage.
        let mine: Vec<_> = flightrec::flight_snapshot()
            .into_iter()
            .filter(|e| e.request_id == rid)
            .collect();
        assert_eq!(mine.len(), 1, "exactly one flight entry for the reject");
        let e = &mine[0];
        assert_eq!(e.shed_name(), "deadline");
        assert_eq!(e.error_name(), "deadline_exceeded");
        for stage in [
            bionav_core::Stage::Solve,
            bionav_core::Stage::Partition,
            bionav_core::Stage::ReducedBuild,
        ] {
            assert_eq!(
                e.stage_us[stage as usize],
                0,
                "no {} work after an expired-on-arrival reject",
                stage.name()
            );
        }

        // The session is untouched: the same EXPAND without a deadline
        // succeeds afterwards.
        let ok = apply(
            Request::Expand {
                session,
                node: roots[0].node,
            },
            &engine,
            &dataset,
        );
        assert!(matches!(ok, Reply::Expanded { .. }), "got {ok:?}");
        assert_eq!(
            apply(Request::Close { session }, &engine, &dataset),
            Reply::Closed
        );
    }

    /// A wire EXPAND whose deadline falls inside the engine's headroom is
    /// answered by the static show-all-children cut: `degraded: true`, and
    /// the root's hidden children in `ranked_children` order. A stall past
    /// the deadline before the engine door is a correct typed reject, so
    /// the test retries on it.
    #[test]
    fn near_deadline_wire_expand_gets_the_static_cut() {
        use bionav_core::engine::DEADLINE_HEADROOM_NS;
        let (engine, dataset, query) = tier();
        let opened = apply(Request::Open { query }, &engine, &dataset);
        let Reply::Opened { session, roots } = opened else {
            panic!("expected Opened, got {opened:?}");
        };
        let id = ShardSessionId::from_bits(session);
        let root = NavNodeId(roots[0].node);
        let hidden: Vec<u32> = engine
            .with_session(id, |s| {
                bionav_core::baseline::ranked_children(s.nav(), root)
                    .into_iter()
                    .filter(|&c| !s.active().is_visible(c))
                    .map(|c| c.0)
                    .collect()
            })
            .expect("session is parked");
        assert!(!hidden.is_empty(), "the demo root has hidden children");

        let mut retries = 0;
        let reply = loop {
            let ctx = wire_request_ctx(Some(WireCtx {
                request_id: 0,
                session,
                deadline_ns: bionav_core::trace::now_ns() + DEADLINE_HEADROOM_NS / 2,
            }));
            let _scope = flightrec::request_scope(ctx, Verb::Expand);
            match apply(
                Request::Expand {
                    session,
                    node: root.0,
                },
                &engine,
                &dataset,
            ) {
                Reply::Error { message } if message.contains("deadline") && retries < 1_000 => {
                    retries += 1
                }
                other => break other,
            }
        };
        let Reply::Expanded { revealed, degraded } = reply else {
            panic!("expected Expanded, got {reply:?}");
        };
        assert!(degraded, "the static rung answered");
        let revealed: Vec<u32> = revealed.iter().map(|n| n.node).collect();
        assert_eq!(revealed, hidden);
        let stats = engine.shard_stats(id.shard());
        assert_eq!(stats.degraded_static, 1);
        assert_eq!(stats.deadline_rejects, retries);
        assert_eq!(
            apply(Request::Close { session }, &engine, &dataset),
            Reply::Closed
        );
    }

    /// `error_reply` maps admission-cap sheds to `Throttled` (1 ms hint,
    /// `engine overloaded` message) and every other refusal to `Error`.
    #[test]
    fn admission_sheds_become_throttled_replies() {
        match error_reply(bionav_core::EngineError::Overloaded) {
            Reply::Throttled {
                message,
                retry_after_ms,
            } => {
                assert!(message.starts_with("engine overloaded"), "{message}");
                assert_eq!(retry_after_ms, 1);
            }
            other => panic!("expected Throttled, got {other:?}"),
        }
        assert!(matches!(
            error_reply(bionav_core::EngineError::DeadlineExceeded),
            Reply::Error { .. }
        ));
        // A forged id yields the engine's own typed UnknownSession.
        let tier = bionav_core::ShardedEngine::new(1, |_| {
            bionav_core::Engine::new(
                |_: &str| -> Option<bionav_core::SharedTree> { None },
                bionav_core::CostParams::default(),
                1,
            )
        });
        let unknown = tier
            .close_session(bionav_core::ShardSessionId::from_bits(u64::MAX))
            .unwrap_err();
        assert!(matches!(
            unknown,
            bionav_core::EngineError::UnknownSession(_)
        ));
        assert!(matches!(error_reply(unknown), Reply::Error { .. }));
    }

    /// The connection gauge balances accepts against drops — including
    /// nothing-read connections — and the malformed counter only moves on
    /// malformed frames.
    #[test]
    fn conn_counters_balance_and_render() {
        // Ordering: Relaxed — test-only snapshot reads of advisory counters.
        let accepted0 = CONN_ACCEPTED.load(Ordering::Relaxed);
        {
            let _g = ConnGauge::accept();
            let _h = ConnGauge::accept();
            // Ordering: Relaxed — same contract as above.
            assert!(CONN_ACTIVE.load(Ordering::Relaxed) >= 2);
        }
        // Ordering: Relaxed — same contract as above.
        assert_eq!(CONN_ACCEPTED.load(Ordering::Relaxed), accepted0 + 2);
        let text = conn_metrics_text();
        for family in [
            "bionav_conn_accepted_total",
            "bionav_conn_active",
            "bionav_frames_malformed_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
            assert!(text.contains(&format!("\n{family} ")), "{family} sample");
        }
    }
}

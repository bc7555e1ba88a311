//! The load generator: one event-driven thread per loopback connection.
//!
//! The thread owns one nonblocking socket and a timer heap of
//! `(intended time, session, step)`. It sends every step that is due,
//! pipelined behind whatever is still in flight, reads replies in order,
//! checks each against its plan, and schedules the session's next step at
//! reply time + think time. Between events it blocks in `ppoll` until the
//! socket is ready or the next step is due, so no thread ever sleeps
//! through a think time, and a late send shows up as lag.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

use bionav_core::trace::now_ns;
use bionav_core::{SloVerb, SLOS};
use bionav_proto::{encode_request_ctx, Reply, ReplyReader, Request, WireCtx};

use crate::plan::{Expect, Op, SessionPlan};

/// The wire verb of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// OPEN.
    Open,
    /// EXPAND.
    Expand,
    /// SHOWRESULTS.
    Show,
    /// CLOSE.
    Close,
}

impl Verb {
    /// The verb's latency objective in nanoseconds, if it has one.
    pub fn slo_ns(self) -> Option<u64> {
        match self {
            Verb::Open => Some(SLOS[SloVerb::Open as usize].target_p99_ns),
            Verb::Expand => Some(SLOS[SloVerb::Expand as usize].target_p99_ns),
            Verb::Show | Verb::Close => None,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The exact expected reply.
    Ok,
    /// An EXPAND answered by the degradation ladder.
    Degraded,
    /// A typed overload refusal: expired deadline, shed, or open breaker.
    Refused,
    /// Any other error reply.
    Failed,
    /// A reply that differs from the reference.
    Mismatch,
}

/// One request, timed on the trace clock.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The request's verb.
    pub verb: Verb,
    /// How it ended.
    pub outcome: Outcome,
    /// When the plan meant to send it.
    pub intended_ns: u64,
    /// When the generator sent it.
    pub sent_ns: u64,
    /// When its reply was read.
    pub done_ns: u64,
}

impl Record {
    /// Latency from intended send to reply read.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.intended_ns)
    }

    /// Round trip from actual send to reply read.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }

    /// Whether the request succeeded within its verb's objective.
    pub fn good(&self) -> bool {
        matches!(self.outcome, Outcome::Ok | Outcome::Degraded)
            && self
                .verb
                .slo_ns()
                .is_none_or(|slo| self.latency_ns() <= slo)
    }
}

/// How sessions are released.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Open loop: every session opens at `t0 + start_ns`, follow-ups come
    /// a think time after the previous reply.
    Open {
        /// Window start on the trace clock.
        t0: u64,
    },
    /// Closed loop: one session at a time per connection, zero think time.
    /// No session starts after `until_ns`; with `once`, each plan runs
    /// exactly once, otherwise plans are reused round-robin.
    Closed {
        /// Last instant a new session may start.
        until_ns: u64,
        /// Run each plan once instead of cycling.
        once: bool,
    },
}

/// What one connection's load generator does.
pub struct Drive<'a> {
    /// The sessions this connection carries.
    pub plans: Vec<&'a SessionPlan>,
    /// Release mode.
    pub mode: Mode,
    /// Attach `intended + SLO target` deadlines to OPEN and EXPAND.
    pub deadlines: bool,
    /// Keep the first this-many request frames and replies.
    pub capture: usize,
    /// Give up (as a transport failure) past this trace-clock instant.
    pub give_up_ns: u64,
}

/// What one connection's load generator saw.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Every request, in reply order.
    pub records: Vec<Record>,
    /// Time spent in `encode_request_ctx`.
    pub encode_ns: u64,
    /// Time spent in `ReplyReader::feed_bytes`.
    pub decode_ns: u64,
    /// Reply frame bytes read (prefix included).
    pub reply_bytes: u64,
    /// Sessions that reached their close.
    pub sessions_done: u64,
    /// Summed time sessions stayed open on the server, from the open reply
    /// to the close reply.
    pub session_ns: u64,
    /// The first few mismatch and failure descriptions.
    pub problems: Vec<String>,
    /// Captured `(request frame, reply)` pairs.
    pub captured: Vec<(Vec<u8>, Reply)>,
    /// Set when the connection broke or the run timed out.
    pub transport_error: Option<String>,
    /// CPU time the driving thread used.
    pub cpu_ns: u64,
}

/// Problem descriptions kept per connection.
const MAX_PROBLEMS: usize = 8;

/// `Reverse((due, live session, step))`; step 0 is the open, `k + 1` is
/// `steps[k]`, [`ABORT`] is a close after a refused or degraded reply.
type Due = Reverse<(u64, u32, u32)>;

/// Step code of an early close.
const ABORT: u32 = u32::MAX;

struct Live {
    plan: usize,
    server: u64,
    /// When the open reply was read.
    opened_ns: u64,
}

struct InFlight {
    live: u32,
    step: u32,
    verb: Verb,
    intended_ns: u64,
    sent_ns: u64,
    frame: Option<Vec<u8>>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: a valid out-pointer to a timespec.
    unsafe {
        clock_gettime(clock, &mut ts);
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this process has used, all threads, ended ones included.
/// Unlike wall time it does not grow while the host runs someone else.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Blocks until the socket is readable (or writable, if asked) or
/// `timeout_ns` passes.
fn wait(stream: &TcpStream, want_write: bool, timeout_ns: u64) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and a null signal mask
    // (which ppoll documents as "keep the current mask").
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Checks a reply against the plan.
fn judge(verb: Verb, expect: Option<&Expect>, roots: &[(u32, u64)], reply: &Reply) -> Outcome {
    let nodes = |wire: &[bionav_proto::WireNode]| -> Vec<(u32, u64)> {
        wire.iter().map(|w| (w.node, w.count)).collect()
    };
    match (verb, reply) {
        (Verb::Open, Reply::Opened { roots: got, .. }) => {
            if nodes(got) == roots {
                Outcome::Ok
            } else {
                Outcome::Mismatch
            }
        }
        (Verb::Expand, Reply::Expanded { degraded: true, .. }) => Outcome::Degraded,
        (Verb::Expand, Reply::Expanded { revealed, .. }) => match expect {
            Some(Expect::Nodes(want)) if nodes(revealed) == *want => Outcome::Ok,
            _ => Outcome::Mismatch,
        },
        (Verb::Show, Reply::Results { citations }) => match expect {
            Some(Expect::Citations { len, digest }) => {
                if citations.len() == *len
                    && crate::plan::digest(citations.iter().copied()) == *digest
                {
                    Outcome::Ok
                } else {
                    Outcome::Mismatch
                }
            }
            _ => Outcome::Mismatch,
        },
        (Verb::Close, Reply::Closed) => Outcome::Ok,
        (_, Reply::Throttled { .. }) => Outcome::Refused,
        // The wire carries these refusals as plain error text: the prefixes
        // are `EngineError::DeadlineExceeded` and `EngineError::Overloaded`
        // as displayed.
        (_, Reply::Error { message })
            if message.starts_with("request deadline expired")
                || message.starts_with("engine overloaded") =>
        {
            Outcome::Refused
        }
        (_, Reply::Error { .. }) => Outcome::Failed,
        _ => Outcome::Mismatch,
    }
}

/// Connects, drives every plan to completion, and reports what it saw.
pub fn drive(addr: SocketAddr, d: Drive<'_>) -> ConnReport {
    let cpu0 = thread_cpu_ns();
    let mut report = ConnReport::default();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    });
    let outcome = match connected {
        Ok(stream) => run(&stream, &d, &mut report),
        Err(e) => Err(format!("connect: {e}")),
    };
    report.transport_error = outcome.err();
    report.cpu_ns = thread_cpu_ns() - cpu0;
    report
}

/// Closed loop: starts the next session, if one is due.
fn start_next(d: &Drive<'_>, live: &mut Vec<Live>, heap: &mut BinaryHeap<Due>, at: u64) {
    let Mode::Closed { until_ns, once } = d.mode else {
        return;
    };
    if at >= until_ns || (once && live.len() >= d.plans.len()) || d.plans.is_empty() {
        return;
    }
    live.push(Live {
        plan: live.len() % d.plans.len(),
        server: 0,
        opened_ns: 0,
    });
    heap.push(Reverse((at, (live.len() - 1) as u32, 0)));
}

/// The request a step sends.
fn request(plan: &SessionPlan, step: u32, server: u64) -> (Verb, Request) {
    if step == 0 {
        let query = plan.query.clone();
        return (Verb::Open, Request::Open { query });
    }
    let op = if step == ABORT {
        Op::Close
    } else {
        plan.steps[step as usize - 1].op
    };
    match op {
        Op::Expand(node) => (
            Verb::Expand,
            Request::Expand {
                session: server,
                node,
            },
        ),
        Op::Show(node) => (
            Verb::Show,
            Request::ShowResults {
                session: server,
                node,
            },
        ),
        Op::Close => (Verb::Close, Request::Close { session: server }),
    }
}

fn run(mut stream: &TcpStream, d: &Drive<'_>, report: &mut ConnReport) -> Result<(), String> {
    let mut heap: BinaryHeap<Due> = BinaryHeap::new();
    let mut live: Vec<Live> = Vec::new();
    match d.mode {
        Mode::Open { t0 } => {
            for (i, p) in d.plans.iter().enumerate() {
                live.push(Live {
                    plan: i,
                    server: 0,
                    opened_ns: 0,
                });
                heap.push(Reverse((t0 + p.start_ns, i as u32, 0)));
            }
        }
        Mode::Closed { .. } => start_next(d, &mut live, &mut heap, now_ns()),
    }
    let think = |ns: u64| match d.mode {
        Mode::Open { .. } => ns,
        Mode::Closed { .. } => 0,
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut reader = ReplyReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut request_id = 0u64;

    loop {
        // Send everything that is due.
        let now = now_ns();
        while let Some(&Reverse((due, li, step))) = heap.peek() {
            if due > now {
                break;
            }
            heap.pop();
            let l = &live[li as usize];
            let (verb, req) = request(d.plans[l.plan], step, l.server);
            request_id += 1;
            let deadline_ns = match verb.slo_ns() {
                Some(slo) if d.deadlines => due + slo,
                _ => 0,
            };
            let ctx = WireCtx {
                request_id,
                session: l.server,
                deadline_ns,
            };
            let t = now_ns();
            let frame = encode_request_ctx(ctx, &req);
            let sent_ns = now_ns();
            report.encode_ns += sent_ns - t;
            out.extend_from_slice(&frame);
            let keep = report.captured.len() + inflight.len() < d.capture;
            inflight.push_back(InFlight {
                live: li,
                step,
                verb,
                intended_ns: due,
                sent_ns,
                frame: keep.then_some(frame),
            });
        }

        // Write what the socket takes.
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => return Err("write returned 0".into()),
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }

        // Read and judge whatever replies arrived.
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            let done_ns = now_ns();
            report.reply_bytes += n as u64;
            let replies = reader
                .feed_bytes(&buf[..n])
                .map_err(|e| format!("reply stream: {e}"))?;
            report.decode_ns += now_ns() - done_ns;
            for reply in replies {
                let f = inflight.pop_front().ok_or("reply without a request")?;
                let l = &mut live[f.live as usize];
                let plan = d.plans[l.plan];
                let step =
                    (f.step != 0 && f.step != ABORT).then(|| &plan.steps[f.step as usize - 1]);
                let outcome = judge(f.verb, step.map(|s| &s.expect), &plan.roots, &reply);
                if let (Verb::Open, Reply::Opened { session, .. }) = (f.verb, &reply) {
                    l.server = *session;
                    l.opened_ns = done_ns;
                }
                if f.verb == Verb::Close && l.server != 0 {
                    report.session_ns += done_ns - l.opened_ns;
                }
                if matches!(outcome, Outcome::Mismatch | Outcome::Failed)
                    && report.problems.len() < MAX_PROBLEMS
                {
                    report.problems.push(format!(
                        "{outcome:?} on {:?} of {:?} step {}: got {reply:?}",
                        f.verb, plan.query, f.step
                    ));
                }
                report.records.push(Record {
                    verb: f.verb,
                    outcome,
                    intended_ns: f.intended_ns,
                    sent_ns: f.sent_ns,
                    done_ns,
                });
                if let Some(frame) = f.frame {
                    report.captured.push((frame, reply));
                }
                // Schedule what this session does next.
                let next = match (f.verb, outcome) {
                    (Verb::Close, _) => None,
                    (Verb::Open, Outcome::Ok) => Some((1, think(plan.steps[0].think_ns))),
                    (_, Outcome::Ok) => {
                        let k = f.step as usize; // steps[k] is next
                        Some((k as u32 + 1, think(plan.steps[k].think_ns)))
                    }
                    // A refused or degraded reply ends the plan; an opened
                    // session is still closed.
                    _ if l.server != 0 => Some((ABORT, 0)),
                    _ => None,
                };
                match next {
                    Some((step, pause)) => heap.push(Reverse((done_ns + pause, f.live, step))),
                    None => {
                        report.sessions_done += 1;
                        start_next(d, &mut live, &mut heap, done_ns);
                    }
                }
            }
        }

        if heap.is_empty() && inflight.is_empty() && out.is_empty() {
            return Ok(());
        }
        let now = now_ns();
        if now > d.give_up_ns {
            return Err(format!(
                "gave up with {} requests in flight and {} steps due",
                inflight.len(),
                heap.len()
            ));
        }
        let until_due = heap
            .peek()
            .map_or(100_000_000, |&Reverse((due, _, _))| due.saturating_sub(now));
        if until_due > 0 {
            wait(stream, !out.is_empty(), until_due.min(100_000_000));
        }
    }
}

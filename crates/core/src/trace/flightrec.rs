//! Black-box flight recorder + request-context plane (DESIGN.md §5j).
//!
//! Two cooperating pieces:
//!
//! 1. **Request scopes** — a [`RequestCtx`] minted at a front end (the
//!    wire handler in `serve.rs`, the REPL) or by [`ensure_scope`] inside
//!    the engine, held in a thread-local while the request executes. Span
//!    sites read [`current_request_id`] into the trace ring's `rid`
//!    column, the degradation ladder reads [`current_deadline_ns`], and
//!    the engine/fault plane deposit outcome notes ([`note_cache`],
//!    [`note_rung`], [`note_error`], [`note_fault`], [`note_stage`]).
//! 2. **The flight ring** — a fixed-memory seqlock ring ([`FlightRing`])
//!    of the last N *completed* request summaries. Each slot packs the
//!    request id, verb, shard, cache/degrade/error/fault outcome, total
//!    latency, and a per-[`Stage`] microsecond breakdown into
//!    `4 + STAGE_WORDS` `u64` atomics — no allocation after construction,
//!    the same footprint discipline as [`super::ring::SpanRing`].
//!
//! The recorder dumps automatically (once per reason per telemetry
//! window) when a session is quarantined after a panic or an EXPAND is
//! shed, and on demand via the `Request::Debug` wire verb and the REPL
//! `flightrec` command ([`flightrec_json`]).
//!
//! Under `--cfg interleave` the ambient scope plumbing compiles to no-ops
//! (like [`super::span`]); the [`FlightRing`] slot protocol itself is
//! explored by a dedicated model over a local ring in
//! `tests/interleave_models.rs`.

use crate::sync::{AtomicU64, Ordering};
use crate::trace::Stage;
use serde::{Deserialize, Serialize};

#[cfg(not(interleave))]
use std::cell::RefCell;
#[cfg(not(interleave))]
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Request context & verbs
// ---------------------------------------------------------------------------

/// The context one request carries end-to-end: wire envelope → shard →
/// engine → spans → flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// Unique id for this request (never 0 for a live scope; front ends
    /// mint from a process counter when the client supplied none).
    pub request_id: u64,
    /// The packed shard session id the request concerns, if any.
    pub session: Option<u64>,
    /// Absolute deadline in trace-epoch nanoseconds (0 = none). The
    /// engine rejects an expired one at the door and answers an EXPAND
    /// whose deadline is within
    /// [`DEADLINE_HEADROOM_NS`](crate::engine::DEADLINE_HEADROOM_NS) with
    /// the static show-all-children cut.
    pub deadline_ns: u64,
}

impl RequestCtx {
    /// A context with only a request id (no session, no deadline).
    pub fn with_id(request_id: u64) -> Self {
        RequestCtx {
            request_id,
            session: None,
            deadline_ns: 0,
        }
    }
}

/// The request verbs the flight recorder classifies entries by. Mirrors
/// the wire `Request` enum (checked by the `cargo xtask analyze` coverage
/// matrix) plus the two batch entry points that exist only in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// `Request::Open` / `Engine::open_session` / `restore_session`.
    Open = 0,
    /// `Request::Expand` / `Engine::expand`.
    Expand = 1,
    /// `Request::ShowResults`.
    ShowResults = 2,
    /// `Request::Close` / `Engine::close_session`.
    Close = 3,
    /// `Request::Stats`.
    Stats = 4,
    /// `Request::Prom`.
    Prom = 5,
    /// `Request::Debug` (the flight-recorder dump itself).
    Debug = 6,
    /// `Engine::run_script` (one scripted navigation).
    Script = 7,
    /// `Engine::replay` (a whole batch dispatch).
    Replay = 8,
}

impl Verb {
    /// Number of verbs (length of [`Verb::ALL`]).
    pub const COUNT: usize = 9;

    /// Every verb, indexed by discriminant.
    pub const ALL: [Verb; Verb::COUNT] = [
        Verb::Open,
        Verb::Expand,
        Verb::ShowResults,
        Verb::Close,
        Verb::Stats,
        Verb::Prom,
        Verb::Debug,
        Verb::Script,
        Verb::Replay,
    ];

    /// Stable snake_case name (flight records, logs).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Open => "open",
            Verb::Expand => "expand",
            Verb::ShowResults => "show_results",
            Verb::Close => "close",
            Verb::Stats => "stats",
            Verb::Prom => "prom",
            Verb::Debug => "debug",
            Verb::Script => "script",
            Verb::Replay => "replay",
        }
    }

    /// Inverse of the discriminant, for decoding flight-ring entries.
    pub fn from_index(idx: u8) -> Option<Verb> {
        Verb::ALL.get(idx as usize).copied()
    }
}

/// Degradation-rung code deposited by [`note_rung`]: the static
/// show-all-children cut. It stays 2 (1 was a since-removed rung), so codes
/// in existing dumps keep their meaning.
pub const RUNG_STATIC: u8 = 2;

fn rung_name(code: u8) -> &'static str {
    match code {
        RUNG_STATIC => "static",
        _ => "",
    }
}

/// Shed-reason codes deposited by [`note_shed`]: each is the matching
/// [`ShedReason`](crate::admission::ShedReason) discriminant plus one
/// (0 = not shed).
pub const SHED_QUEUE: u8 = crate::admission::ShedReason::Queue as u8 + 1;
/// See [`SHED_QUEUE`].
pub const SHED_DEADLINE: u8 = crate::admission::ShedReason::Deadline as u8 + 1;

fn shed_name(code: u8) -> &'static str {
    match code {
        SHED_QUEUE => crate::admission::ShedReason::Queue.name(),
        SHED_DEADLINE => crate::admission::ShedReason::Deadline.name(),
        _ => "",
    }
}

fn fault_site_name(code: u8) -> &'static str {
    if code == 0 {
        return "";
    }
    crate::fault::FailSite::ALL
        .get(usize::from(code - 1))
        .map(|s| s.name())
        .unwrap_or("unknown")
}

// ---------------------------------------------------------------------------
// The flight ring
// ---------------------------------------------------------------------------

/// `u64` words packing the per-stage microsecond breakdown: two
/// saturating `u32` durations per word.
pub const STAGE_WORDS: usize = Stage::COUNT.div_ceil(2);

/// Default flight-ring capacity (slots). 256 slots × (4 + [`STAGE_WORDS`])
/// × 8 bytes = 24 KiB, fixed at first use.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Bit layout of a slot's packed `meta` word:
/// `verb | shard+1 << 8 | cache << 24 | rung << 26 | shed << 28 |
///  error << 32 | fault << 40 | seq low 16 << 48`.
const SHARD_SHIFT: u32 = 8;
const CACHE_SHIFT: u32 = 24;
const RUNG_SHIFT: u32 = 26;
const SHED_SHIFT: u32 = 28;
const ERROR_SHIFT: u32 = 32;
const FAULT_SHIFT: u32 = 40;
const SEQ_SHIFT: u32 = 48;

/// The raw, un-decoded summary of one completed request — what a scope
/// owner deposits into the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSummary {
    /// The request id.
    pub rid: u64,
    /// [`Verb`] discriminant.
    pub verb: u8,
    /// Owning shard plus one; 0 = no shard scope.
    pub shard_p1: u16,
    /// 0 = no cache probe, 1 = hit, 2 = miss.
    pub cache: u8,
    /// Degradation rung ([`RUNG_STATIC`]; 0 = exact).
    pub rung: u8,
    /// Typed shed reason ([`SHED_QUEUE`] / [`SHED_DEADLINE`]; 0 = not
    /// shed).
    pub shed: u8,
    /// [`crate::engine::EngineError`] flight code (0 = ok).
    pub error: u8,
    /// Fired [`crate::fault::FailSite`] plus one (0 = none).
    pub fault: u8,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage nanosecond tape sums, [`Stage::ALL`] order.
    pub stage_ns: [u64; Stage::COUNT],
}

impl RawSummary {
    fn pack_meta(&self, seq: u64) -> u64 {
        u64::from(self.verb)
            | (u64::from(self.shard_p1) << SHARD_SHIFT)
            | (u64::from(self.cache & 0b11) << CACHE_SHIFT)
            | (u64::from(self.rung & 0b11) << RUNG_SHIFT)
            | (u64::from(self.shed & 0b11) << SHED_SHIFT)
            | (u64::from(self.error) << ERROR_SHIFT)
            | (u64::from(self.fault) << FAULT_SHIFT)
            | ((seq & 0xffff) << SEQ_SHIFT)
    }
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Global monotone sequence number assigned at completion time.
    pub seq: u64,
    /// The request id every span of this request carried.
    pub request_id: u64,
    /// The request verb.
    pub verb: Verb,
    /// The shard the request ran on, if the engine was shard-tagged.
    pub shard: Option<u16>,
    /// Tree-cache outcome of an open, if one happened (`true` = hit).
    pub cache_hit: Option<bool>,
    /// Degradation rung code (0 = exact; see [`FlightEntry::rung_name`]).
    pub rung: u8,
    /// Shed-reason code (0 = not shed; see [`FlightEntry::shed_name`]).
    pub shed: u8,
    /// Error flight code (0 = ok; see [`FlightEntry::error_name`]).
    pub error: u8,
    /// Fired fault site plus one (0 = none; see
    /// [`FlightEntry::fault_site_name`]).
    pub fault: u8,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage microsecond breakdown, [`Stage::ALL`] order (saturating).
    pub stage_us: [u32; Stage::COUNT],
}

impl FlightEntry {
    /// `"static"` / `""`.
    pub fn rung_name(&self) -> &'static str {
        rung_name(self.rung)
    }

    /// `"queue"` / `"deadline"` / `""` (not shed).
    pub fn shed_name(&self) -> &'static str {
        shed_name(self.shed)
    }

    /// Stable error kind name, `""` when the request succeeded.
    pub fn error_name(&self) -> &'static str {
        crate::engine::EngineError::flight_kind(self.error)
    }

    /// Stable fired-fault site name, `""` when no fault fired.
    pub fn fault_site_name(&self) -> &'static str {
        fault_site_name(self.fault)
    }
}

/// One flight-ring slot: a per-slot seqlock over `4 + STAGE_WORDS`
/// atomics, same protocol as [`super::ring::SpanRing`] (invalidate, data
/// stores, validate; readers double-check the stamp and the embedded
/// low-16 sequence bits).
struct FlightSlot {
    /// `0` = invalid / mid-write; otherwise `seq + 1`.
    stamp: AtomicU64,
    /// The request id.
    rid: AtomicU64,
    /// Packed verb/shard/cache/rung/error/fault/seq-low word.
    meta: AtomicU64,
    /// End-to-end nanoseconds.
    total_ns: AtomicU64,
    /// Stage microseconds, two per word.
    stages: [AtomicU64; STAGE_WORDS],
}

impl FlightSlot {
    fn empty() -> Self {
        FlightSlot {
            stamp: AtomicU64::new(0),
            rid: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            stages: [(); STAGE_WORDS].map(|()| AtomicU64::new(0)),
        }
    }
}

/// Fixed-memory lock-free ring of completed-request summaries.
pub struct FlightRing {
    slots: Box<[FlightSlot]>,
    mask: u64,
    head: AtomicU64,
}

impl FlightRing {
    /// Create a ring with `capacity` slots, rounded up to a power of two
    /// (minimum 2). All memory is allocated here; `push` never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<FlightSlot> = (0..cap).map(|_| FlightSlot::empty()).collect();
        FlightRing {
            slots: slots.into_boxed_slice(),
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Monotone count of summaries ever pushed (survives wraps).
    pub fn pushed(&self) -> u64 {
        // Ordering: Relaxed — a monotone statistic read for reporting; no
        // other memory depends on its value.
        self.head.load(Ordering::Relaxed)
    }

    /// Record one completed request. Wait-free: one `fetch_add` plus a
    /// bounded store sequence; oldest summaries are overwritten on wrap.
    pub fn push(&self, s: &RawSummary) {
        // Ordering: Relaxed — the fetch_add only hands out unique sequence
        // numbers; publication order is carried by the Release stores.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Ordering: Release — invalidation store; readers seeing stamp == 0
        // skip the slot while the data stores below land.
        slot.stamp.store(0, Ordering::Release);
        // Ordering: Release on every data store — all must be visible
        // before the validating stamp store below is observed.
        slot.rid.store(s.rid, Ordering::Release);
        slot.meta.store(s.pack_meta(seq), Ordering::Release);
        slot.total_ns.store(s.total_ns, Ordering::Release);
        for (w, word) in slot.stages.iter().enumerate() {
            let lo = s.stage_ns[2 * w] / 1_000;
            let hi = s.stage_ns.get(2 * w + 1).copied().unwrap_or(0) / 1_000;
            let packed = lo.min(u64::from(u32::MAX)) | (hi.min(u64::from(u32::MAX)) << 32);
            // Ordering: Release — data store, same contract as above.
            word.store(packed, Ordering::Release);
        }
        // Ordering: Release — publishes the slot; a reader that acquires
        // this stamp value observes every data store above.
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Snapshot every currently-valid slot, sorted by sequence number.
    /// Slots mid-rewrite are skipped (seqlock reject), so the snapshot is
    /// always internally consistent without blocking any writer.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let mut entries = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // Ordering: Acquire — pairs with the writer's validating
            // Release store; on acceptance the data loads observe the
            // matching values.
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            // Ordering: Acquire on the data loads keeps them ordered
            // before the re-validating stamp load below.
            let rid = slot.rid.load(Ordering::Acquire);
            let meta = slot.meta.load(Ordering::Acquire);
            let total_ns = slot.total_ns.load(Ordering::Acquire);
            let mut stage_us = [0u32; Stage::COUNT];
            for (w, word) in slot.stages.iter().enumerate() {
                // Ordering: Acquire — data load, same contract as above.
                let packed = word.load(Ordering::Acquire);
                stage_us[2 * w] = packed as u32;
                if 2 * w + 1 < Stage::COUNT {
                    stage_us[2 * w + 1] = (packed >> 32) as u32;
                }
            }
            // Ordering: Acquire — the second stamp read must not be
            // hoisted above the data loads.
            let s2 = slot.stamp.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // a writer raced us; drop the slot
            }
            let seq = s1 - 1;
            if (seq & 0xffff) != (meta >> SEQ_SHIFT) & 0xffff {
                continue; // two writers lapped the slot between our loads
            }
            let Some(verb) = Verb::from_index((meta & 0xff) as u8) else {
                continue;
            };
            let shard_p1 = ((meta >> SHARD_SHIFT) & 0xffff) as u16;
            let cache = ((meta >> CACHE_SHIFT) & 0b11) as u8;
            entries.push(FlightEntry {
                seq,
                request_id: rid,
                verb,
                shard: (shard_p1 != 0).then(|| shard_p1 - 1),
                cache_hit: match cache {
                    1 => Some(true),
                    2 => Some(false),
                    _ => None,
                },
                rung: ((meta >> RUNG_SHIFT) & 0b11) as u8,
                shed: ((meta >> SHED_SHIFT) & 0b11) as u8,
                error: ((meta >> ERROR_SHIFT) & 0xff) as u8,
                fault: ((meta >> FAULT_SHIFT) & 0xff) as u8,
                total_ns,
                stage_us,
            });
        }
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Invalidate every slot without resetting the monotone push counter.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            // Ordering: Release — readers merely skip zero stamps; same
            // benign mid-push window as `SpanRing::clear`.
            slot.stamp.store(0, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

/// One serializable flight record (what [`flightrec_json`] emits; parsed
/// by the CI smoke step and the `Request::Debug` / REPL consumers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Monotone completion sequence number.
    pub seq: u64,
    /// The request id (joins with the Chrome trace `args.rid` column).
    pub request_id: u64,
    /// Verb name ([`Verb::name`]).
    pub verb: String,
    /// Owning shard, `-1` when the engine was not shard-tagged.
    pub shard: i64,
    /// `"hit"` / `"miss"` / `""` (no cache probe).
    pub cache: String,
    /// `"static"` / `""` (exact answer).
    pub rung: String,
    /// Shed reason name, `""` when the request was not shed.
    pub shed: String,
    /// Error kind name, `""` on success.
    pub error: String,
    /// Fired fault site name, `""` when no failpoint fired.
    pub fault_site: String,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Non-zero per-stage durations.
    pub stages: Vec<FlightStage>,
}

/// One stage row of a [`FlightRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightStage {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Time attributed to the stage, in microseconds.
    pub us: f64,
}

impl FlightRecord {
    /// Decode one ring entry into its serializable form.
    pub fn from_entry(e: &FlightEntry) -> Self {
        FlightRecord {
            seq: e.seq,
            request_id: e.request_id,
            verb: e.verb.name().to_string(),
            shard: e.shard.map_or(-1, i64::from),
            cache: match e.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "",
            }
            .to_string(),
            rung: e.rung_name().to_string(),
            shed: e.shed_name().to_string(),
            error: e.error_name().to_string(),
            fault_site: e.fault_site_name().to_string(),
            total_us: e.total_ns as f64 / 1_000.0,
            stages: Stage::ALL
                .iter()
                .zip(e.stage_us.iter())
                .filter(|(_, &us)| us != 0)
                .map(|(stage, &us)| FlightStage {
                    stage: stage.name().to_string(),
                    us: f64::from(us),
                })
                .collect(),
        }
    }
}

/// Render entries as a JSON array of [`FlightRecord`]s.
pub fn entries_json(entries: &[FlightEntry]) -> String {
    let records: Vec<FlightRecord> = entries.iter().map(FlightRecord::from_entry).collect();
    // Serializing plain derived structs cannot fail; fall back to an
    // empty array rather than panicking in an exporter.
    serde_json::to_string(&records).unwrap_or_else(|_| "[]".to_string())
}

// ---------------------------------------------------------------------------
// The ambient request scope (process-global ring + thread-local pending)
// ---------------------------------------------------------------------------

// The scope plumbing uses plain std primitives (not the interleave shim),
// like the span plumbing in `super`: under `--cfg interleave` it compiles
// to no-ops so engine models keep their schedule space, and the ring's
// own protocol is explored by a dedicated model over a local `FlightRing`.

#[cfg(not(interleave))]
static FLIGHT: OnceLock<FlightRing> = OnceLock::new();

#[cfg(not(interleave))]
fn global_flight() -> &'static FlightRing {
    FLIGHT.get_or_init(|| FlightRing::new(DEFAULT_FLIGHT_CAPACITY))
}

/// Source of server-minted request ids (when no client-supplied id is in
/// play). Plain std atomic — advisory id allocation, never synchronization.
#[cfg(not(interleave))]
static NEXT_RID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Mint a fresh process-unique request id.
#[cfg(not(interleave))]
pub fn mint_request_id() -> u64 {
    // Ordering: Relaxed — only uniqueness matters; nothing is published
    // through the counter.
    NEXT_RID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Interleave stub of [`mint_request_id`] (the plane is compiled out).
#[cfg(interleave)]
pub fn mint_request_id() -> u64 {
    0
}

#[cfg(not(interleave))]
#[derive(Clone, Copy)]
struct Pending {
    active: bool,
    rid: u64,
    verb: u8,
    deadline_ns: u64,
    t0: u64,
    shard_p1: u16,
    cache: u8,
    rung: u8,
    shed: u8,
    error: u8,
    fault: u8,
    stage_ns: [u64; Stage::COUNT],
}

#[cfg(not(interleave))]
impl Pending {
    const IDLE: Pending = Pending {
        active: false,
        rid: 0,
        verb: 0,
        deadline_ns: 0,
        t0: 0,
        shard_p1: 0,
        cache: 0,
        rung: 0,
        shed: 0,
        error: 0,
        fault: 0,
        stage_ns: [0; Stage::COUNT],
    };
}

#[cfg(not(interleave))]
thread_local! {
    /// The in-flight request summary being assembled on this thread.
    static PENDING: RefCell<Pending> = const { RefCell::new(Pending::IDLE) };
}

/// RAII guard for one request scope; the *owning* guard (the one that
/// opened the scope) pushes the completed summary to the flight ring on
/// drop. Nested guards ([`ensure_scope`] inside an already-open scope)
/// are no-ops so engine-internal entry points never double-record a
/// wire-minted request.
pub struct RequestScope {
    owner: bool,
}

/// Open a request scope with an explicit, front-end-minted context.
/// If a scope is already open on this thread (defensive — front ends are
/// the outermost layer), the existing scope wins and the guard is inert.
#[cfg(not(interleave))]
pub fn request_scope(ctx: RequestCtx, verb: Verb) -> RequestScope {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.active {
            return RequestScope { owner: false };
        }
        *p = Pending {
            active: true,
            rid: ctx.request_id,
            verb: verb as u8,
            deadline_ns: ctx.deadline_ns,
            t0: super::now_ns(),
            ..Pending::IDLE
        };
        RequestScope { owner: true }
    })
}

/// Interleave stub of [`request_scope`].
#[cfg(interleave)]
pub fn request_scope(_ctx: RequestCtx, _verb: Verb) -> RequestScope {
    RequestScope { owner: false }
}

/// Open a scope for an engine-internal entry point: reuses the already
/// open scope when the request came through a front end, mints a fresh
/// request id otherwise (direct API callers, scripts, benches).
#[cfg(not(interleave))]
pub fn ensure_scope(verb: Verb) -> RequestScope {
    let already = PENDING.with(|p| p.borrow().active);
    if already {
        RequestScope { owner: false }
    } else {
        request_scope(RequestCtx::with_id(mint_request_id()), verb)
    }
}

/// Interleave stub of [`ensure_scope`].
#[cfg(interleave)]
pub fn ensure_scope(_verb: Verb) -> RequestScope {
    RequestScope { owner: false }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if !self.owner {
            return;
        }
        #[cfg(not(interleave))]
        PENDING.with(|p| {
            let mut p = p.borrow_mut();
            let total_ns = super::now_ns().saturating_sub(p.t0);
            let summary = RawSummary {
                rid: p.rid,
                verb: p.verb,
                shard_p1: p.shard_p1,
                cache: p.cache,
                rung: p.rung,
                shed: p.shed,
                error: p.error,
                fault: p.fault,
                total_ns,
                stage_ns: p.stage_ns,
            };
            *p = Pending::IDLE;
            global_flight().push(&summary);
        });
    }
}

/// The request id of the scope open on this thread (0 = none). Span
/// sites stamp this into the trace ring's `rid` column.
#[cfg(not(interleave))]
pub fn current_request_id() -> u64 {
    PENDING.with(|p| {
        let p = p.borrow();
        if p.active {
            p.rid
        } else {
            0
        }
    })
}

/// Interleave stub of [`current_request_id`].
#[cfg(interleave)]
pub fn current_request_id() -> u64 {
    0
}

/// The deadline of the scope open on this thread (0 = none/disabled).
#[cfg(not(interleave))]
pub fn current_deadline_ns() -> u64 {
    PENDING.with(|p| {
        let p = p.borrow();
        if p.active {
            p.deadline_ns
        } else {
            0
        }
    })
}

/// Interleave stub of [`current_deadline_ns`].
#[cfg(interleave)]
pub fn current_deadline_ns() -> u64 {
    0
}

#[cfg(not(interleave))]
fn with_active(f: impl FnOnce(&mut Pending)) {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.active {
            f(&mut p);
        }
    });
}

/// Note which shard the current request runs on.
#[cfg(not(interleave))]
pub fn note_shard(shard: usize) {
    with_active(|p| p.shard_p1 = (shard as u16).saturating_add(1));
}

/// Interleave stub of [`note_shard`].
#[cfg(interleave)]
pub fn note_shard(_shard: usize) {}

/// Note the tree-cache outcome of the current request's open.
#[cfg(not(interleave))]
pub fn note_cache(hit: bool) {
    with_active(|p| p.cache = if hit { 1 } else { 2 });
}

/// Interleave stub of [`note_cache`].
#[cfg(interleave)]
pub fn note_cache(_hit: bool) {}

/// Note the degradation rung that answered ([`RUNG_STATIC`]).
#[cfg(not(interleave))]
pub fn note_rung(rung: u8) {
    with_active(|p| p.rung = rung);
}

/// Interleave stub of [`note_rung`].
#[cfg(interleave)]
pub fn note_rung(_rung: u8) {}

/// Note the typed shed reason the request is refused with
/// ([`SHED_QUEUE`] / [`SHED_DEADLINE`]).
#[cfg(not(interleave))]
pub fn note_shed(code: u8) {
    with_active(|p| p.shed = code);
}

/// Interleave stub of [`note_shed`].
#[cfg(interleave)]
pub fn note_shed(_code: u8) {}

/// Note the typed error the request is about to return (an
/// [`crate::engine::EngineError`] flight code).
#[cfg(not(interleave))]
pub fn note_error(code: u8) {
    with_active(|p| p.error = code);
}

/// Interleave stub of [`note_error`].
#[cfg(interleave)]
pub fn note_error(_code: u8) {}

/// Note a fired failpoint (`FailSite as u8 + 1`; called by
/// [`crate::fault::hit`] itself, so every injected fault is attributed).
#[cfg(not(interleave))]
pub fn note_fault(site_p1: u8) {
    with_active(|p| p.fault = site_p1);
}

/// Interleave stub of [`note_fault`].
#[cfg(interleave)]
pub fn note_fault(_site_p1: u8) {}

/// Accumulate one capture-tape interval into the request's per-stage
/// breakdown (called by `Engine::absorb_tape` alongside the stage
/// metrics).
#[cfg(not(interleave))]
pub fn note_stage(stage: Stage, ns: u64) {
    with_active(|p| {
        p.stage_ns[stage as usize] = p.stage_ns[stage as usize].saturating_add(ns);
    });
}

/// Interleave stub of [`note_stage`].
#[cfg(interleave)]
pub fn note_stage(_stage: Stage, _ns: u64) {}

// ---------------------------------------------------------------------------
// Snapshots, dumps
// ---------------------------------------------------------------------------

/// Snapshot the global flight ring (sorted by completion sequence).
#[cfg(not(interleave))]
pub fn flight_snapshot() -> Vec<FlightEntry> {
    global_flight().snapshot()
}

/// Interleave stub of [`flight_snapshot`].
#[cfg(interleave)]
pub fn flight_snapshot() -> Vec<FlightEntry> {
    Vec::new()
}

/// Monotone count of request summaries ever recorded.
#[cfg(not(interleave))]
pub fn flight_recorded() -> u64 {
    global_flight().pushed()
}

/// Interleave stub of [`flight_recorded`].
#[cfg(interleave)]
pub fn flight_recorded() -> u64 {
    0
}

/// Invalidate every recorded summary (the monotone counter survives) and
/// re-arm the automatic dump-once latches. Called by
/// `Engine::reset_stats` so each telemetry window may dump again.
#[cfg(not(interleave))]
pub fn reset_flight() {
    global_flight().clear();
    // Ordering: Relaxed — the latch is advisory once-per-window noise
    // control; no data is published through it.
    DUMPED.store(0, std::sync::atomic::Ordering::Relaxed);
}

/// Interleave stub of [`reset_flight`].
#[cfg(interleave)]
pub fn reset_flight() {}

/// Render the global flight ring as a JSON array of [`FlightRecord`]s.
pub fn flightrec_json() -> String {
    entries_json(&flight_snapshot())
}

/// Once-per-reason latch bits for [`auto_dump`] (reset by
/// [`reset_flight`]).
#[cfg(not(interleave))]
static DUMPED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many tail entries an automatic dump prints.
#[cfg(not(interleave))]
const AUTO_DUMP_TAIL: usize = 8;

/// Dump the recorder tail to stderr, at most once per `reason` per
/// telemetry window. The engine calls this when a session is quarantined
/// after a panic and when the admission gate sheds — the black-box
/// moments the recorder exists for.
#[cfg(not(interleave))]
pub fn auto_dump(reason: &'static str) {
    let bit = match reason {
        "quarantine" => 1u64,
        "shed" => 2,
        _ => 4,
    };
    // Ordering: Relaxed — advisory once-per-window latch; a rare double
    // dump under a race is noise, not corruption.
    let prev = DUMPED.fetch_or(bit, std::sync::atomic::Ordering::Relaxed);
    if prev & bit != 0 {
        return;
    }
    let entries = flight_snapshot();
    let tail = &entries[entries.len().saturating_sub(AUTO_DUMP_TAIL)..];
    eprintln!(
        "[flightrec] dump on {reason}: last {} of {} recorded requests",
        tail.len(),
        flight_recorded()
    );
    for e in tail {
        eprintln!(
            "[flightrec]   rid={} verb={} shard={} cache={} rung={} error={} fault={} total_us={:.1}",
            e.request_id,
            e.verb.name(),
            e.shard.map_or(-1, i64::from),
            match e.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "-",
            },
            if e.rung == 0 { "-" } else { e.rung_name() },
            if e.error == 0 { "-" } else { e.error_name() },
            if e.fault == 0 {
                "-"
            } else {
                e.fault_site_name()
            },
            e.total_ns as f64 / 1_000.0,
        );
    }
}

/// Interleave stub of [`auto_dump`].
#[cfg(interleave)]
pub fn auto_dump(_reason: &'static str) {}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    fn raw(rid: u64, verb: Verb) -> RawSummary {
        RawSummary {
            rid,
            verb: verb as u8,
            shard_p1: 0,
            cache: 0,
            rung: 0,
            shed: 0,
            error: 0,
            fault: 0,
            total_ns: 5_000,
            stage_ns: [0; Stage::COUNT],
        }
    }

    #[test]
    fn ring_round_trips_every_packed_field() {
        let ring = FlightRing::new(8);
        let mut s = raw(77, Verb::Expand);
        s.shard_p1 = 3;
        s.cache = 2;
        s.rung = RUNG_STATIC;
        s.shed = SHED_DEADLINE;
        s.error = 5;
        s.fault = crate::fault::FailSite::SolverEntry as u8 + 1;
        s.total_ns = 1_234_000;
        s.stage_ns[Stage::Solve as usize] = 900_000;
        s.stage_ns[Stage::Partition as usize] = 300_500;
        ring.push(&s);
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.seq, 0);
        assert_eq!(e.request_id, 77);
        assert_eq!(e.verb, Verb::Expand);
        assert_eq!(e.shard, Some(2));
        assert_eq!(e.cache_hit, Some(false));
        assert_eq!(e.rung_name(), "static");
        assert_eq!(e.shed_name(), "deadline");
        assert_eq!(e.fault_site_name(), "solver_entry");
        assert_eq!(e.total_ns, 1_234_000);
        assert_eq!(e.stage_us[Stage::Solve as usize], 900);
        assert_eq!(e.stage_us[Stage::Partition as usize], 300);
        assert_eq!(ring.pushed(), 1);
    }

    #[test]
    fn ring_wraps_and_clears_like_the_span_ring() {
        let ring = FlightRing::new(2);
        for i in 0..5 {
            ring.push(&raw(i, Verb::Open));
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 2, "only the newest capacity slots survive");
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(ring.pushed(), 5);
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 5, "push counter survives clear");
    }

    #[test]
    fn records_serialize_with_decoded_names() {
        let mut s = raw(9, Verb::Open);
        s.cache = 1;
        s.stage_ns[Stage::OpenSession as usize] = 42_000;
        let ring = FlightRing::new(2);
        ring.push(&s);
        let json = entries_json(&ring.snapshot());
        let parsed: Vec<FlightRecord> = serde_json::from_str(&json).expect("round trip");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].request_id, 9);
        assert_eq!(parsed[0].verb, "open");
        assert_eq!(parsed[0].cache, "hit");
        assert_eq!(parsed[0].shard, -1);
        assert_eq!(parsed[0].stages.len(), 1);
        assert_eq!(parsed[0].stages[0].stage, "open_session");
        assert_eq!(parsed[0].stages[0].us, 42.0);
    }

    #[test]
    fn shed_codes_decode_to_reason_names() {
        use crate::admission::ShedReason;
        let ring = FlightRing::new(8);
        for (code, _reason) in [
            (SHED_QUEUE, ShedReason::Queue),
            (SHED_DEADLINE, ShedReason::Deadline),
        ] {
            let mut s = raw(u64::from(code), Verb::Expand);
            s.shed = code;
            ring.push(&s);
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 2);
        for (e, reason) in entries.iter().zip(ShedReason::ALL) {
            assert_eq!(e.shed, reason as u8 + 1);
            assert_eq!(e.shed_name(), reason.name());
        }
        // An un-shed entry decodes to the empty reason.
        assert_eq!(raw(1, Verb::Open).shed, 0);
        assert_eq!(shed_name(0), "");
    }

    #[test]
    fn verb_index_round_trips() {
        for (i, &verb) in Verb::ALL.iter().enumerate() {
            assert_eq!(verb as usize, i);
            assert_eq!(Verb::from_index(i as u8), Some(verb));
        }
        assert_eq!(Verb::from_index(Verb::COUNT as u8), None);
    }

    #[test]
    fn scopes_nest_and_record_once() {
        // Serialized against other flight-plane tests via the thread-local
        // pending state being per-thread; the global ring is shared, so
        // assert on the per-request fields rather than counts.
        let ctx = RequestCtx {
            request_id: 0xABCD_0001,
            session: Some(7),
            deadline_ns: 0,
        };
        let before = flight_recorded();
        {
            let _outer = request_scope(ctx, Verb::Expand);
            assert_eq!(current_request_id(), 0xABCD_0001);
            {
                let _inner = ensure_scope(Verb::Open);
                // The outer scope wins; no new id is minted.
                assert_eq!(current_request_id(), 0xABCD_0001);
            }
            note_rung(RUNG_STATIC);
            note_stage(Stage::Solve, 3_000);
        }
        assert_eq!(current_request_id(), 0, "scope closed");
        assert_eq!(flight_recorded(), before + 1, "exactly one summary");
        let entries = flight_snapshot();
        let mine = entries
            .iter()
            .find(|e| e.request_id == 0xABCD_0001)
            .expect("summary recorded");
        assert_eq!(mine.verb, Verb::Expand);
        assert_eq!(mine.rung_name(), "static");
        assert_eq!(mine.stage_us[Stage::Solve as usize], 3);
    }

    #[test]
    fn ensure_scope_mints_distinct_ids() {
        let a = {
            let _s = ensure_scope(Verb::Script);
            current_request_id()
        };
        let b = {
            let _s = ensure_scope(Verb::Script);
            current_request_id()
        };
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn notes_outside_a_scope_are_no_ops() {
        let before = flight_recorded();
        note_cache(true);
        note_error(3);
        note_fault(1);
        note_stage(Stage::Solve, 1_000);
        assert_eq!(current_request_id(), 0);
        assert_eq!(current_deadline_ns(), 0);
        assert_eq!(flight_recorded(), before);
    }
}

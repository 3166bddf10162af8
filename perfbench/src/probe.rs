//! Outside-in layer timing: a per-thread frame stack around every call the
//! benchmark makes into a layer, a delegating model adapter that times the
//! `model` and `sym` boundaries, and an [`Observer`] that turns the
//! program's own `valence.classify` / `space.build` spans and a few work
//! counters into frames and counts of the same recorder.
//!
//! Self time of a frame is its duration minus the frames nested in it on
//! the same thread. Timing is off unless [`enable`] was called, so the
//! untraced passes pay one relaxed atomic load per adapter call.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use layered_core::space::pack::StatePacker;
use layered_core::sym::{PidPerm, Symmetric};
use layered_core::telemetry::Observer;
use layered_core::{LayeredModel, Pid, Value};

/// The timed layer boundaries. Names follow the repository's modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Successors,
    Queries,
    Canonicalize,
    SpaceBuild,
    ValenceClassify,
    ConnectivityReport,
    LayeringScan,
    BivalentRun,
    WitnessBuild,
    WitnessVerify,
    CheckerCheck,
    TopologySolve,
    SnapshotLoad,
    SnapshotSave,
    CertGet,
    CertVerify,
}

const N_OPS: usize = 16;

impl Op {
    /// Span name, as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Successors => "model.successors",
            Op::Queries => "model.queries",
            Op::Canonicalize => "sym.canonicalize",
            Op::SpaceBuild => "space.build",
            Op::ValenceClassify => "valence.classify",
            Op::ConnectivityReport => "connectivity.report",
            Op::LayeringScan => "layering.scan",
            Op::BivalentRun => "layering.bivalent_run",
            Op::WitnessBuild => "witness.build",
            Op::WitnessVerify => "witness.verify",
            Op::CheckerCheck => "checker.check",
            Op::TopologySolve => "topology.solve",
            Op::SnapshotLoad => "space.snapshot.load",
            Op::SnapshotSave => "space.snapshot.save",
            Op::CertGet => "cert.store.get",
            Op::CertVerify => "cert.verify",
        }
    }
}

/// Work counts taken at the layer boundaries.
#[derive(Clone, Copy, Debug)]
pub enum Count {
    StatesOut,
    InternHits,
    InternMisses,
    ValenceQueries,
    ValenceMemoHits,
    PairsTested,
    States,
    LayersScanned,
    CheckerStates,
    SnapshotBytes,
}

const N_COUNTS: usize = 10;

struct OpStats {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_STATS: OpStats = OpStats {
    calls: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    self_ns: AtomicU64::new(0),
};
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORD: AtomicBool = AtomicBool::new(false);
static STATS: [OpStats; N_OPS] = [ZERO_STATS; N_OPS];
static COUNTS: [AtomicU64; N_COUNTS] = [ZERO; N_COUNTS];
/// Time covered by top-level frames on the pass thread.
static COVERED_NS: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// One completed frame, kept in memory while recording is on.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub op: Op,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct Frame {
    op: Op,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static PASS_THREAD: Cell<bool> = const { Cell::new(false) };
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Marks the calling thread as the one that runs passes: only its
/// top-level frames count as covered time.
pub fn mark_pass_thread() {
    let _ = epoch();
    PASS_THREAD.with(|p| p.set(true));
}

/// Turns frame timing on or off.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Turns span recording (for the trace file) on or off.
pub fn record(on: bool) {
    RECORD.store(on, Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Clears every accumulated statistic (not the recorded spans).
pub fn reset() {
    for s in &STATS {
        s.calls.store(0, Relaxed);
        s.total_ns.store(0, Relaxed);
        s.self_ns.store(0, Relaxed);
    }
    for c in &COUNTS {
        c.store(0, Relaxed);
    }
    COVERED_NS.store(0, Relaxed);
}

/// Adds to a work count (only while timing is on).
pub fn count(c: Count, delta: u64) {
    if enabled() {
        COUNTS[c as usize].fetch_add(delta, Relaxed);
    }
}

fn push(op: Op) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            op,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

fn pop(op: Op) {
    let end = Instant::now();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Frames close in LIFO order; a mismatch means the span was opened
        // before timing was enabled, so there is nothing to account.
        if stack.last().map(|f| f.op) != Some(op) {
            return;
        }
        let frame = stack.pop().expect("checked non-empty above");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let stats = &STATS[op as usize];
        stats.calls.fetch_add(1, Relaxed);
        stats.total_ns.fetch_add(dur, Relaxed);
        stats
            .self_ns
            .fetch_add(dur.saturating_sub(frame.child_ns), Relaxed);
        match stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => {
                if PASS_THREAD.with(Cell::get) {
                    COVERED_NS.fetch_add(dur, Relaxed);
                }
            }
        }
        // Model queries are too many and too short to be worth a span each.
        if RECORD.load(Relaxed) && op != Op::Queries {
            let start_ns = frame.start.duration_since(epoch()).as_nanos() as u64;
            let tid = TID.with(|t| *t);
            SPANS
                .lock()
                .expect("span buffer lock poisoned")
                .push(SpanRecord {
                    op,
                    tid,
                    start_ns,
                    dur_ns: dur,
                });
        }
    });
}

/// Runs `f` inside a frame of `op` when timing is on.
pub fn time<R>(op: Op, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    push(op);
    let out = f();
    pop(op);
    out
}

/// A snapshot of everything accumulated since the last [`reset`].
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub calls: [u64; N_OPS],
    pub total_s: [f64; N_OPS],
    pub self_s: [f64; N_OPS],
    pub counts: [u64; N_COUNTS],
    pub covered_s: f64,
}

impl Totals {
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }
    pub fn self_s(&self, op: Op) -> f64 {
        self.self_s[op as usize]
    }
    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }
}

pub fn totals() -> Totals {
    let mut t = Totals::default();
    for (i, s) in STATS.iter().enumerate() {
        t.calls[i] = s.calls.load(Relaxed);
        t.total_s[i] = s.total_ns.load(Relaxed) as f64 / 1e9;
        t.self_s[i] = s.self_ns.load(Relaxed) as f64 / 1e9;
    }
    for (i, c) in COUNTS.iter().enumerate() {
        t.counts[i] = c.load(Relaxed);
    }
    t.covered_s = COVERED_NS.load(Relaxed) as f64 / 1e9;
    t
}

/// Takes the recorded spans out of the buffer.
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock poisoned"))
}

/// The observer handed to every layer call of a traced pass. The
/// program's `valence.classify` and `space.build` spans become frames, so
/// the adapter's `model`/`sym` frames nested in them are subtracted from
/// their self time; the clock is the benchmark's, not the program's.
pub struct Probe;

impl Observer for Probe {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let c = match name {
            "space.intern.hits" | "space.canon.hits" => Count::InternHits,
            "space.intern.misses" => Count::InternMisses,
            "valence.queries" => Count::ValenceQueries,
            "valence.memo_hits" => Count::ValenceMemoHits,
            "connectivity.pairs_tested" => Count::PairsTested,
            _ => return,
        };
        count(c, delta);
    }

    fn span_start(&self, name: &'static str) {
        if let Some(op) = program_span(name) {
            if enabled() {
                push(op);
            }
        }
    }

    fn span_end(&self, name: &'static str, _nanos: u64) {
        if let Some(op) = program_span(name) {
            if enabled() {
                pop(op);
            }
        }
    }
}

fn program_span(name: &str) -> Option<Op> {
    match name {
        "valence.classify" => Some(Op::ValenceClassify),
        "space.build" => Some(Op::SpaceBuild),
        _ => None,
    }
}

/// A delegating model adapter: every method forwards to the wrapped model,
/// and the `model` and `sym` boundaries run inside frames. The packer is
/// passed through, so arenas built over the adapter stay packed.
#[derive(Clone, Debug)]
pub struct Timed<M>(pub M);

impl<M: LayeredModel> LayeredModel for Timed<M> {
    type State = M::State;

    fn num_processes(&self) -> usize {
        self.0.num_processes()
    }
    fn max_failures(&self) -> usize {
        self.0.max_failures()
    }
    fn initial_state(&self, inputs: &[Value]) -> M::State {
        self.0.initial_state(inputs)
    }
    fn initial_states(&self) -> Vec<M::State> {
        self.0.initial_states()
    }
    fn successors(&self, x: &M::State) -> Vec<M::State> {
        time(Op::Successors, || {
            let out = self.0.successors(x);
            count(Count::StatesOut, out.len() as u64);
            out
        })
    }
    fn depth(&self, x: &M::State) -> usize {
        self.0.depth(x)
    }
    fn inputs_of(&self, x: &M::State) -> Vec<Value> {
        time(Op::Queries, || self.0.inputs_of(x))
    }
    fn decision(&self, x: &M::State, i: Pid) -> Option<Value> {
        time(Op::Queries, || self.0.decision(x, i))
    }
    fn failed_at(&self, x: &M::State, i: Pid) -> bool {
        time(Op::Queries, || self.0.failed_at(x, i))
    }
    fn agree_modulo(&self, x: &M::State, y: &M::State, j: Pid) -> bool {
        time(Op::Queries, || self.0.agree_modulo(x, y, j))
    }
    fn crash_step(&self, x: &M::State, j: Pid) -> M::State {
        time(Op::Queries, || self.0.crash_step(x, j))
    }
    fn obligated(&self, x: &M::State) -> Vec<Pid> {
        self.0.obligated(x)
    }
    fn non_failed(&self, x: &M::State) -> Vec<Pid> {
        self.0.non_failed(x)
    }
    fn state_packer(&self) -> Option<StatePacker<M::State>> {
        self.0.state_packer()
    }
}

impl<M: Symmetric> Symmetric for Timed<M> {
    fn permute_state(&self, x: &M::State, perm: &PidPerm) -> M::State {
        self.0.permute_state(x, perm)
    }
    fn symmetric_layering(&self) -> bool {
        self.0.symmetric_layering()
    }
    fn canonicalize(&self, x: &M::State) -> (M::State, PidPerm) {
        time(Op::Canonicalize, || self.0.canonicalize(x))
    }
    fn canonicalize_with_orbit(&self, x: &M::State) -> (M::State, PidPerm, u64) {
        time(Op::Canonicalize, || self.0.canonicalize_with_orbit(x))
    }
}

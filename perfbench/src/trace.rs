//! Tracing from outside the engine: an in-memory span recorder, delegating
//! timing shims around the public `Actor`, `Scheduler` and `PoolPolicy`
//! traits, and a benchmark-owned `Observer`.
//!
//! Every span records its name, start, end, parent and the actor it ran
//! on. Spans nest per thread: a span opened while another is open on the
//! same thread is its child, so an actor firing is the child of the
//! director's `on_fire_start`→`on_fire_end` span around it. Self time is a
//! span's duration minus its children's.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use confluence_core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence_core::director::pool_policy::{PolicyView, PoolPolicy};
use confluence_core::error::Result;
use confluence_core::graph::{ActorId, Workflow};
use confluence_core::telemetry::{FireRecord, Observer, RunPhase, WorkerMetrics};
use confluence_core::time::{Micros, Timestamp};
use confluence_core::wave::WaveTag;
use confluence_sched::{ActorInfo, ActorState, Scheduler, StatsModule};

/// Span names, indexed by [`Span::name`].
pub const SPAN_NAMES: [&str; 4] = ["director.fire", "actor.fire", "sched.call", "pool.key"];
pub const DIRECTOR_FIRE: u8 = 0;
pub const ACTOR_FIRE: u8 = 1;
pub const SCHED_CALL: u8 = 2;
pub const POOL_KEY: u8 = 3;
/// `actor` of a span that ran on behalf of no particular actor.
pub const NO_ACTOR: u32 = u32::MAX;
/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    pub actor: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans plus its per-thread observer samples.
#[derive(Default)]
pub struct ThreadSpans {
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Queue waits (`on_dequeue` time minus `formed_at`), director µs.
    pub waits_us: Vec<u64>,
}

/// A tracing session: one traced repeat's spans, across all threads.
pub struct Session {
    id: u64,
    epoch: Instant,
    threads: Mutex<Vec<Arc<Mutex<ThreadSpans>>>>,
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's buffer in the session it last recorded into.
    static LOCAL: RefCell<Option<(u64, Arc<Mutex<ThreadSpans>>)>> = const { RefCell::new(None) };
}

impl Session {
    pub fn new() -> Arc<Session> {
        Arc::new(Session {
            id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            threads: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` on this thread's buffer, registering one on first use.
    fn with_local<R>(&self, f: impl FnOnce(&mut ThreadSpans) -> R) -> R {
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            if !matches!(&*slot, Some((id, _)) if *id == self.id) {
                let buf = Arc::new(Mutex::new(ThreadSpans::default()));
                self.threads.lock().expect("session lock").push(buf.clone());
                *slot = Some((self.id, buf));
            }
            let (_, buf) = slot.as_ref().expect("buffer registered above");
            let mut buf = buf.lock().expect("thread span lock");
            f(&mut buf)
        })
    }

    /// Open a span; its start is taken last so bookkeeping stays outside.
    pub fn open(&self, name: u8, actor: u32) {
        self.with_local(|t| {
            let idx = t.spans.len() as u32;
            let parent = t.open.last().copied().unwrap_or(NO_PARENT);
            t.spans.push(Span {
                name,
                actor,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            t.open.push(idx);
            t.spans[idx as usize].start_ns = self.now_ns();
        })
    }

    /// Close the innermost open span if it is `name` on `actor`.
    pub fn close(&self, name: u8, actor: u32) {
        let end = self.now_ns();
        self.with_local(|t| {
            if let Some(&idx) = t.open.last() {
                let span = &mut t.spans[idx as usize];
                if span.name == name && span.actor == actor {
                    span.end_ns = end;
                    t.open.pop();
                }
            }
        })
    }

    /// Time `f` as a span.
    pub fn timed<R>(&self, name: u8, actor: u32, f: impl FnOnce() -> R) -> R {
        self.open(name, actor);
        let r = f();
        self.close(name, actor);
        r
    }

    fn push_wait(&self, wait_us: u64) {
        self.with_local(|t| t.waits_us.push(wait_us))
    }

    /// Every thread's buffer, once the run is over.
    pub fn collect(&self) -> Vec<ThreadSpans> {
        let threads = self.threads.lock().expect("session lock");
        threads
            .iter()
            .map(|b| std::mem::take(&mut *b.lock().expect("thread span lock")))
            .collect()
    }

    /// Wrap an actor in a timing shim that records its firings.
    pub fn wrap_actor(self: &Arc<Self>, index: usize, inner: Box<dyn Actor>) -> Box<dyn Actor> {
        Box::new(TimedActor {
            inner,
            index: index as u32,
            session: self.clone(),
        })
    }
}

/// Write spans as fixed 32-byte little-endian records after a one-line
/// text header naming the layout, span names and actor names.
pub fn write_spans(path: &Path, threads: &[ThreadSpans], actors: &[String]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "perfbench-spans v1 record=thread:u32,name:u8,pad:u8[3],actor:u32,parent:u32,start_ns:u64,end_ns:u64 names={} actors={}",
        SPAN_NAMES.join(","),
        actors.join(",")
    )?;
    for (thread, t) in threads.iter().enumerate() {
        for s in &t.spans {
            out.write_all(&(thread as u32).to_le_bytes())?;
            out.write_all(&[s.name, 0, 0, 0])?;
            out.write_all(&s.actor.to_le_bytes())?;
            out.write_all(&s.parent.to_le_bytes())?;
            out.write_all(&s.start_ns.to_le_bytes())?;
            out.write_all(&s.end_ns.to_le_bytes())?;
        }
    }
    out.flush()
}

/// Delegating `Actor` shim: times `fire` and forwards every other method.
struct TimedActor {
    inner: Box<dyn Actor>,
    index: u32,
    session: Arc<Session>,
}

impl Actor for TimedActor {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }
    fn initialize(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.initialize(ctx)
    }
    fn prefire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.prefire(ctx)
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        let inner = &mut self.inner;
        self.session
            .timed(ACTOR_FIRE, self.index, || inner.fire(ctx))
    }
    fn postfire(&mut self, ctx: &mut dyn FireContext) -> Result<bool> {
        self.inner.postfire(ctx)
    }
    fn finish(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.finish(ctx)
    }
    fn wrapup(&mut self) -> Result<()> {
        self.inner.wrapup()
    }
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        self.inner.save_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.restore_state(bytes)
    }
    fn replicate(&self) -> Option<Box<dyn Actor>> {
        let inner = self.inner.replicate()?;
        Some(self.session.wrap_actor(self.index as usize, inner))
    }
    fn is_source(&self) -> bool {
        self.inner.is_source()
    }
    fn next_arrival(&self) -> Option<Timestamp> {
        self.inner.next_arrival()
    }
    fn rates(&self) -> Option<SdfRates> {
        self.inner.rates()
    }
}

/// Delegating `Scheduler` shim: times every call.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    session: Arc<Session>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, session: Arc<Session>) -> Self {
        TimedScheduler { inner, session }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, actors: &[ActorInfo]) {
        let inner = &mut self.inner;
        self.session
            .timed(SCHED_CALL, NO_ACTOR, || inner.init(actors))
    }
    fn on_enqueue(&mut self, actor: usize, origin: Timestamp) {
        let inner = &mut self.inner;
        self.session
            .timed(SCHED_CALL, actor as u32, || inner.on_enqueue(actor, origin))
    }
    fn on_source_ready(&mut self, actor: usize, ready: bool) {
        let inner = &mut self.inner;
        self.session.timed(SCHED_CALL, actor as u32, || {
            inner.on_source_ready(actor, ready)
        })
    }
    fn next_actor(&mut self) -> Option<usize> {
        let inner = &mut self.inner;
        self.session
            .timed(SCHED_CALL, NO_ACTOR, || inner.next_actor())
    }
    fn after_fire(&mut self, actor: usize, cost: Micros, remaining: usize, stats: &StatsModule) {
        let inner = &mut self.inner;
        self.session.timed(SCHED_CALL, actor as u32, || {
            inner.after_fire(actor, cost, remaining, stats)
        })
    }
    fn end_iteration(&mut self, stats: &StatsModule) -> bool {
        let inner = &mut self.inner;
        self.session
            .timed(SCHED_CALL, NO_ACTOR, || inner.end_iteration(stats))
    }
    fn state(&self, actor: usize) -> ActorState {
        self.session
            .timed(SCHED_CALL, actor as u32, || self.inner.state(actor))
    }
}

/// Delegating `PoolPolicy` shim: times `key`, forwards the rest.
pub struct TimedPolicy {
    inner: Arc<dyn PoolPolicy>,
    session: Arc<Session>,
}

impl TimedPolicy {
    pub fn new(inner: Arc<dyn PoolPolicy>, session: Arc<Session>) -> Self {
        TimedPolicy { inner, session }
    }
}

impl PoolPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prepare(&self, workflow: &Workflow) {
        self.inner.prepare(workflow)
    }
    fn key(&self, actor: usize, view: &PolicyView<'_>) -> u64 {
        self.session
            .timed(POOL_KEY, actor as u32, || self.inner.key(actor, view))
    }
    fn on_fire(&self, actor: usize, cost: Micros) {
        self.inner.on_fire(actor, cost)
    }
    fn needs_stats(&self) -> bool {
        self.inner.needs_stats()
    }
    fn use_lifo_slot(&self) -> bool {
        self.inner.use_lifo_slot()
    }
}

/// The benchmark's observer: director firing spans, queue waits, source
/// lateness, deliveries, worker counters and run-segment boundaries.
pub struct BenchObserver {
    session: Arc<Session>,
    source: usize,
    /// Due time (director µs) of each report, in emission order.
    dues: Vec<u64>,
    admitted: AtomicU64,
    /// Admission time minus due time of each root wave, director µs.
    late_us: Mutex<Vec<i64>>,
    pub firings: AtomicU64,
    pub deliveries: AtomicU64,
    pub workers: Mutex<Vec<WorkerMetrics>>,
    /// `(is_start, ns since the session epoch)` per run-segment boundary.
    pub phases: Mutex<Vec<(bool, u64)>>,
}

impl BenchObserver {
    pub fn new(session: Arc<Session>, source: usize, dues: Vec<u64>) -> Self {
        BenchObserver {
            session,
            source,
            late_us: Mutex::new(Vec::with_capacity(dues.len())),
            dues,
            admitted: AtomicU64::new(0),
            firings: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            phases: Mutex::new(Vec::new()),
        }
    }

    pub fn source(&self) -> usize {
        self.source
    }

    pub fn late_us(&self) -> Vec<i64> {
        self.late_us.lock().expect("late lock").clone()
    }
}

impl Observer for BenchObserver {
    fn on_run_phase(&self, phase: RunPhase, _at: Timestamp) {
        let is_start = match phase {
            RunPhase::Start => true,
            RunPhase::End => false,
            _ => return,
        };
        let ns = self.session.now_ns();
        self.phases.lock().expect("phase lock").push((is_start, ns));
    }

    fn on_fire_start(&self, actor: ActorId, _at: Timestamp) {
        self.session.open(DIRECTOR_FIRE, actor.index() as u32);
    }

    fn on_fire_end(&self, record: &FireRecord) {
        self.session
            .close(DIRECTOR_FIRE, record.actor.index() as u32);
        if record.fired {
            self.firings.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_route(&self, _from: ActorId, delivered: u64, _at: Timestamp) {
        self.deliveries.fetch_add(delivered, Ordering::Relaxed);
    }

    fn on_worker(&self, metrics: &WorkerMetrics) {
        self.workers
            .lock()
            .expect("worker lock")
            .push(metrics.clone());
    }

    fn on_admit(&self, from: ActorId, wave: &WaveTag, at: Timestamp) {
        if from.index() != self.source || wave.depth() != 0 {
            return;
        }
        let k = self.admitted.fetch_add(1, Ordering::Relaxed) as usize;
        if let Some(&due) = self.dues.get(k) {
            let late = at.as_micros() as i64 - due as i64;
            self.late_us.lock().expect("late lock").push(late);
        }
    }

    fn on_dequeue(
        &self,
        _actor: ActorId,
        _port: usize,
        _wave: Option<&WaveTag>,
        formed_at: Timestamp,
        at: Timestamp,
    ) {
        self.session.push_wait(at.since(formed_at).as_micros());
    }

    fn wants_event_hooks(&self) -> bool {
        true
    }
}

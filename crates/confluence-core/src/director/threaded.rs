//! The PNCWF thread-based continuous-workflow director.
//!
//! Based on Kepler's PN/CN/DE directors: every actor is wrapped in its own
//! OS thread, allowing actors to run in parallel and blocking them whenever
//! there is no data to consume. Resource allocation among the threads is
//! handled directly by the operating system — which, as the paper's
//! evaluation shows, leaves no margin for QoS-based optimization (that is
//! STAFiLOS's job, in `confluence-sched`).
//!
//! The timeout of timed windows is handled by the waiting actor thread: it
//! waits on its inbox only until the earliest window-formation deadline of
//! its receivers, then forces the receivers to produce.
//!
//! A checkpoint pause parks the sources at their next firing boundary; the
//! thread whose step drains the fabric's in-flight count to zero signals
//! the quiesce monitor, which halts the remaining actor threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::actor::Actor;
use crate::checkpoint::QuiesceHook;
use crate::error::{Error, Result};
use crate::graph::{ActorId, Workflow};
use crate::receiver::InboxPop;
use crate::telemetry::{RunPhase, Telemetry};
use crate::time::{Clock, SharedClock, Timestamp, WallClock};

use super::fire::{self, Kernel};
use super::{Director, Fabric, QueueContext, RunReport};

/// Longest uninterrupted block/sleep when a cooperative stop may be
/// pending: actor threads re-check the stop flag at least this often.
const STOP_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Error bound on a pause request that never drains (an actor livelocked
/// in `fire`, say): the run is abandoned with an error. Not an input to
/// when a draining pause ends.
const QUIESCE_WATCHDOG: Duration = Duration::from_secs(30);

/// One OS thread per actor; OS scheduling; blocking windowed reads.
pub struct ThreadedDirector {
    clock: SharedClock,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<QuiesceHook>>,
}

impl Default for ThreadedDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedDirector {
    /// A director on the wall clock (the normal mode).
    pub fn new() -> Self {
        ThreadedDirector {
            clock: Arc::new(WallClock::new()),
            telemetry: None,
            hook: None,
        }
    }

    /// A director on a caller-supplied clock (tests).
    pub fn with_clock(clock: SharedClock) -> Self {
        ThreadedDirector {
            clock,
            telemetry: None,
            hook: None,
        }
    }
}

/// What the quiesce monitor waits for: the fabric draining under a pause,
/// or every actor thread exiting.
#[derive(Default)]
struct Settle {
    state: Mutex<SettleState>,
    cond: Condvar,
}

#[derive(Default)]
struct SettleState {
    /// Actor threads still running.
    live: usize,
    /// A step drained the in-flight count to zero with a pause pending.
    drained: bool,
}

impl Settle {
    fn update(&self, change: impl FnOnce(&mut SettleState)) {
        change(&mut self.state.lock());
        self.cond.notify_all();
    }
}

/// Counts an actor thread out of the monitor's live set when it exits for
/// any reason (including a panic), so the monitor never waits on a dead
/// thread.
struct LiveGuard(Arc<Settle>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.update(|st| st.live -= 1);
    }
}

struct ControllerOutcome {
    actor: Box<dyn Actor>,
    firings: u64,
    routed: u64,
    error: Option<Error>,
}

impl Director for ThreadedDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let fabric = fire::open_fabric(workflow, self.telemetry.as_ref(), self.hook.as_ref())?;
        // PN semantics: bounded channels really block the writing actor
        // thread (cooperative directors leave this off).
        fabric.set_blocking(true);
        let fabric = Arc::new(fabric);
        let started = self.clock.now();
        if let Some(t) = &self.telemetry {
            t.observer.on_run_phase(RunPhase::Start, started);
        }
        let halt = Arc::new(AtomicBool::new(false));
        let settle = Arc::new(Settle::default());
        settle.state.lock().live = workflow.actor_count();
        if let Some(hook) = &self.hook {
            let (hook, settle) = (hook.clone(), settle.clone());
            fabric.in_flight().on_drained(move || {
                if hook.pause_requested() {
                    hook.mark_drained();
                    settle.update(|st| st.drained = true);
                }
            });
        }
        let mut handles = Vec::with_capacity(workflow.actor_count());
        let contexts = fire::contexts(workflow, self.telemetry.as_ref());
        for (id, ctx) in workflow.actor_ids().zip(contexts) {
            let node = workflow.node_mut(id);
            let actor = node.take_actor();
            let name = node.name.clone();
            let is_source = node.is_source;
            let fabric = fabric.clone();
            let clock = self.clock.clone();
            let tele = self.telemetry.clone();
            let hook = self.hook.clone();
            let halt = halt.clone();
            let guard = LiveGuard(settle.clone());
            let handle = thread::Builder::new()
                .name(format!("cwf-{name}"))
                .spawn(move || {
                    let _guard = guard;
                    controller(
                        id, actor, is_source, ctx, &fabric, &*clock, tele, hook, halt,
                    )
                })
                .map_err(|e| Error::Director(format!("failed to spawn actor thread: {e}")))?;
            handles.push((id, handle));
        }

        // Quiesce monitor: when the hook requests a pause the sources park
        // themselves; the step that drains the in-flight count signals
        // here, and the monitor halts the consumer threads at their next
        // firing boundary.
        let mut quiesce_error = None;
        if let Some(hook) = &self.hook {
            let mut st = settle.state.lock();
            while !st.drained && st.live > 0 {
                let waited = settle.cond.wait_for(&mut st, QUIESCE_WATCHDOG);
                if waited.timed_out() && hook.pause_age().is_some_and(|a| a >= QUIESCE_WATCHDOG) {
                    quiesce_error = Some(Error::Checkpoint(
                        "quiesce watchdog expired: the workflow did not drain to a \
                         firing boundary"
                            .into(),
                    ));
                    break;
                }
            }
            drop(st);
            halt.store(true, Ordering::SeqCst);
            fabric.wake_readers();
        }

        let mut report = RunReport::default();
        let mut first_error = None;
        for (id, handle) in handles {
            let outcome = handle
                .join()
                .map_err(|_| Error::Director(format!("actor thread {id} panicked")))?;
            report.firings += outcome.firings;
            report.events_routed += outcome.routed;
            if first_error.is_none() {
                first_error = outcome.error;
            }
            workflow.node_mut(id).return_actor(outcome.actor);
        }
        report.elapsed = self.clock.now().since(started);
        if let Some(t) = &self.telemetry {
            t.observer.on_run_phase(RunPhase::End, self.clock.now());
        }
        if let Some(e) = quiesce_error {
            return Err(e);
        }
        if let (Some(hook), None) = (&self.hook, &first_error) {
            if hook.pause_requested() {
                // Every thread has joined (each unstaged its own context):
                // the fabric is exclusively ours, so the destructive
                // capture is safe.
                fire::quiesce(&fabric, hook, std::iter::empty());
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    fn instrument(&mut self, telemetry: Telemetry) -> bool {
        self.telemetry = Some(telemetry);
        true
    }

    fn attach_checkpoint(&mut self, hook: Arc<QuiesceHook>) -> bool {
        self.hook = Some(hook);
        true
    }
}

/// The per-actor thread body: transitions the actor through its iteration
/// phases, blocking on the inbox between firings.
#[allow(clippy::too_many_arguments)]
fn controller(
    id: ActorId,
    mut actor: Box<dyn Actor>,
    is_source: bool,
    mut ctx: QueueContext,
    fabric: &Fabric,
    clock: &dyn Clock,
    tele: Option<Telemetry>,
    hook: Option<Arc<QuiesceHook>>,
    halt: Arc<AtomicBool>,
) -> ControllerOutcome {
    let kernel = Kernel::new(fabric, tele.as_ref(), clock);
    let mut firings = 0u64;
    let mut routed = 0u64;
    let mut closed = false;
    let should_stop = || tele.as_ref().is_some_and(|t| t.should_stop());
    // Sources park the moment a pause lands; consumers keep draining until
    // the quiesce monitor confirms the network is quiet and sets `halt`.
    let pausing = || hook.as_ref().is_some_and(|h| h.pause_requested());
    let bounded_waits = tele.is_some() || hook.is_some();

    let result = (|| -> Result<()> {
        if !hook.as_ref().is_some_and(|h| h.resuming()) {
            routed += kernel.initialize(id, &mut *actor, &mut ctx)?;
        }

        if is_source {
            loop {
                if should_stop() || pausing() {
                    break;
                }
                // Pace by the source's timetable (wall-clock realization of
                // event arrival times).
                if let Some(arrival) = actor.next_arrival() {
                    let now = clock.now();
                    if arrival > now {
                        let mut remaining = arrival.since(now).to_std();
                        // Sleep in slices so a stop or pause request does
                        // not have to wait out a long inter-arrival gap.
                        while !remaining.is_zero() {
                            if should_stop() || pausing() {
                                break;
                            }
                            let slice = if bounded_waits {
                                remaining.min(STOP_POLL_INTERVAL)
                            } else {
                                remaining
                            };
                            thread::sleep(slice);
                            remaining = remaining.saturating_sub(slice);
                        }
                        if should_stop() || pausing() {
                            break;
                        }
                    }
                }
                let f = kernel.fire(id, true, &mut *actor, &mut ctx)?;
                firings += f.fired as u64;
                routed += f.routed;
                if !actor.postfire(&mut ctx)? {
                    break;
                }
                if f.tokens_out == 0 && matches!(actor.next_arrival(), None | Some(Timestamp::ZERO))
                {
                    // A source with nothing to say right now and no future
                    // arrival to sleep toward (idle push source, or a
                    // custom source whose timetable is exhausted but which
                    // stays alive): back off instead of spinning.
                    thread::sleep(Duration::from_millis(1));
                }
            }
        } else {
            let inbox = fabric.inbox(id).clone();
            loop {
                if should_stop() || halt.load(Ordering::SeqCst) {
                    break;
                }
                let now = clock.now();
                let mut timeout = fabric
                    .receivers(id)
                    .iter()
                    .filter_map(|r| r.next_deadline())
                    .min()
                    .map(|deadline| deadline.since(now).to_std());
                if bounded_waits {
                    // Bound the block so a stop request is noticed promptly.
                    timeout = Some(timeout.map_or(STOP_POLL_INTERVAL, |t| t.min(STOP_POLL_INTERVAL)));
                }
                match inbox.pop_blocking(timeout) {
                    InboxPop::Window(port, window) => {
                        kernel.stage(id, &mut ctx, port, window);
                        let f = kernel.fire(id, false, &mut *actor, &mut ctx)?;
                        firings += f.fired as u64;
                        routed += f.routed;
                        if !actor.postfire(&mut ctx)? {
                            break;
                        }
                    }
                    InboxPop::TimedOut => {
                        // A window-formation deadline passed: force the
                        // receivers to evaluate their window semantics.
                        let now = clock.now();
                        fabric.poll_actor(id, now);
                        routed += fabric.route_expired(now)?;
                    }
                    InboxPop::Closed => break,
                }
            }
        }
        if pausing() && !should_stop() {
            // Quiescing: hand any staged-but-unconsumed windows back so the
            // checkpoint capture sees them, and skip the end-of-stream
            // tail entirely — the actor will resume, not finish.
            fire::unstage(fabric, id, &mut ctx);
            return Ok(());
        }
        // Inputs drained (or stream ended): the actor's final chance to
        // emit while its outputs are still open.
        closed = true;
        routed += kernel.finish(id, &mut *actor, &mut ctx)?;
        actor.wrapup()
    })();

    let quiescing = result.is_ok() && pausing() && !should_stop();
    let close_error = if quiescing || closed {
        None
    } else {
        fabric.close_actor_outputs(id, clock.now()).err()
    };
    ControllerOutcome {
        actor,
        firings,
        routed,
        error: result.err().or(close_error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{FireContext, IoSignature};
    use crate::actors::{Collector, LatencyProbe, PushSource, TimedSource, VecSource};
    use crate::graph::WorkflowBuilder;
    use crate::time::Micros;
    use crate::token::Token;
    use crate::window::{GroupBy, WindowSpec};

    struct AddOne;
    impl Actor for AddOne {
        fn signature(&self) -> IoSignature {
            IoSignature::transform("in", "out")
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while let Some(w) = ctx.get(0) {
                for t in w.tokens() {
                    ctx.emit(0, Token::Int(t.as_int()? + 1));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn runs_linear_pipeline_to_completion() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("pipeline");
        let s = b.add_actor(
            "src",
            VecSource::new((0..10).map(Token::Int).collect()),
        );
        let a = b.add_actor("inc", AddOne);
        let k = b.add_actor("sink", c.actor());
        b.connect(s, "out", a, "in").unwrap();
        b.connect(a, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        let report = ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), (1..=10).map(Token::Int).collect::<Vec<_>>());
        assert!(report.firings >= 11);
        assert_eq!(report.events_routed, 20);
    }

    #[test]
    fn fan_out_and_merge() {
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1), Token::Int(2)]));
        let a1 = b.add_actor("a1", AddOne);
        let a2 = b.add_actor("a2", AddOne);
        let u = b.add_actor("union", crate::actors::Union::new(2));
        let k = b.add_actor("sink", c.actor());
        b.connect(s, "out", a1, "in").unwrap();
        b.connect(s, "out", a2, "in").unwrap();
        b.connect(a1, "out", u, "in0").unwrap();
        b.connect(a2, "out", u, "in1").unwrap();
        b.connect(u, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![2, 2, 3, 3], "both branches see both tokens");
    }

    #[test]
    fn grouped_sliding_windows_under_threads() {
        // Stopped-car shape: {Size: 2, Step: 1, Group-by: carid}.
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("windows");
        let reports: Vec<Token> = vec![(1, 10), (2, 30), (1, 11), (2, 31), (1, 12)]
            .into_iter()
            .map(|(car, pos)| Token::record().field("carid", car).field("pos", pos).build())
            .collect();
        let s = b.add_actor("src", VecSource::new(reports));
        let pairs = b.add_actor(
            "pairs",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                if w.len() < 2 {
                    // End-of-stream flush produces short windows; a real
                    // pairwise operator ignores them.
                    return Ok(());
                }
                let first = w.events.first().unwrap().token.int_field("pos")?;
                let last = w.events.last().unwrap().token.int_field("pos")?;
                emit(0, Token::Int(last - first));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        b.connect_windowed(
            s,
            "out",
            pairs,
            "in",
            WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"])),
        )
        .unwrap();
        b.connect(pairs, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        let mut got: Vec<i64> = c.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![1, 1, 1], "car1: 10→11, 11→12; car2: 30→31");
    }

    #[test]
    fn push_source_end_to_end() {
        let c = Collector::new();
        let (src, handle) = PushSource::new();
        let mut b = WorkflowBuilder::new("push");
        let s = b.add_actor("src", src);
        let k = b.add_actor("sink", c.actor());
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..5 {
                handle.push(Token::Int(i));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // handle drops here, ending the stream
        });
        ThreadedDirector::new().run(&mut wf).unwrap();
        producer.join().unwrap();
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn timed_window_timeout_fires_without_closing_event() {
        // A lone event in a 20ms tumbling window must come out via the
        // timeout path (no later event ever closes the window).
        let probe = LatencyProbe::new();
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("timeout");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![(Timestamp(0), Token::Int(1))]),
        );
        let agg = b.add_actor(
            "agg",
            crate::actors::FnActor::new(IoSignature::transform("in", "out"), |w, emit| {
                emit(0, Token::Int(w.len() as i64));
                Ok(())
            }),
        );
        let k = b.add_actor("sink", c.actor());
        let _ = probe;
        b.connect_windowed(
            s,
            "out",
            agg,
            "in",
            WindowSpec::tumbling_time(Micros::from_millis(20)),
        )
        .unwrap();
        b.connect(agg, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(1)]);
    }

    #[test]
    fn actor_error_is_reported() {
        struct Boom;
        impl Actor for Boom {
            fn signature(&self) -> IoSignature {
                IoSignature::sink("in")
            }
            fn fire(&mut self, _ctx: &mut dyn FireContext) -> Result<()> {
                Err(Error::actor("boom", "fire", "deliberate"))
            }
        }
        let mut b = WorkflowBuilder::new("err");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("boom", Boom);
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        let err = ThreadedDirector::new().run(&mut wf).unwrap_err();
        assert!(matches!(err, Error::Actor { .. }));
    }

    #[test]
    fn latency_probe_measures_under_wall_clock() {
        let p = LatencyProbe::new();
        let mut b = WorkflowBuilder::new("latency");
        let s = b.add_actor("src", VecSource::new(vec![Token::Int(1)]));
        let k = b.add_actor("probe", p.actor());
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        ThreadedDirector::new().run(&mut wf).unwrap();
        assert_eq!(p.len(), 1);
    }
}

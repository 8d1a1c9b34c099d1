//! The firing kernel: the one place a firing happens.
//!
//! Every director owns only its model of computation — *which* actor
//! fires and *when* (SDF's static schedule, DDF's sweep, DE's agenda,
//! the scheduled director's policy, the pool's ready queues, the threaded
//! director's blocking loop). The firing itself is shared, as in
//! Kepler/Ptolemy: [`Kernel::fire`] sends `on_fire_start`, runs prefire
//! and fire, charges busy time, stamps and routes the emissions, hands
//! expired items over, and sends `on_fire_end` plus a time-series sample.
//! [`Kernel::stage`], [`Kernel::initialize`], [`Kernel::finish`] and
//! [`quiesce`] cover the rest of an actor's life cycle.
//!
//! The rules every director shares:
//!
//! * one `on_fire_start` and one [`FireRecord`] per *attempt*; the start
//!   comes before prefire, and a prefire refusal is recorded with
//!   `fired: false` (so `attempts` counts refusals);
//! * `postfire` runs after every attempt, refused or not — the kernel
//!   leaves the call to the director only because the pool may defer it
//!   past a parked delivery;
//! * external events (a source's emissions) are stamped at the firing's
//!   start, the moment they entered the workflow; derived events are
//!   stamped when the firing completes;
//! * expired items are handed to their handlers after every firing;
//! * `on_route` is sent only when something was delivered.
//!
//! The kernel also keeps each fabric's [`InFlight`] count, the exact
//! amount of unfinished work that decides checkpoint quiescence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::actor::Actor;
use crate::checkpoint::QuiesceHook;
use crate::error::Result;
use crate::event::CwEvent;
use crate::graph::{ActorId, PortRef, Workflow};
use crate::telemetry::{FireRecord, Observer, RunPhase, Telemetry};
use crate::time::{Clock, Micros, Timestamp};
use crate::wave::WaveTag;
use crate::window::Window;

use super::{Fabric, QueueContext, TryDeliver};

/// The exact count of unfinished work in one fabric.
///
/// One unit stands for each formed window not yet through a firing attempt
/// (queued in an inbox, popped, or staged in a [`QueueContext`]), each
/// step in progress ([`Kernel::fire_with`], [`Kernel::initialize`],
/// [`Kernel::finish`]), and each stamped event a [`Sink`] holds back (the
/// pool's parked deliveries, DE's agenda). Inbox pushes add a unit per
/// window; a pop hands the unit to the caller, which stages the window; a
/// firing attempt gives back its own unit plus one per window staged for
/// it, consumed or not. Shed and captured windows give theirs back too.
///
/// When a step ends and brings the count to zero, the fabric holds no
/// work that could still move: the drained hook a director installed runs
/// on that thread, at that firing boundary. That is how a checkpoint pause
/// ends — no timed stability window, no polling. The count's `AcqRel`
/// updates order every step's end after the pause requests made before
/// it, so the step that drains the count sees a pending pause.
#[derive(Default)]
pub struct InFlight {
    count: AtomicUsize,
    drained: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for InFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InFlight")
            .field("count", &self.get())
            .finish_non_exhaustive()
    }
}

impl InFlight {
    /// Units of unfinished work right now.
    pub fn get(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Install the hook run by whichever step brings the count to zero.
    /// First caller wins; without one, a drained fabric goes unnoticed.
    pub fn on_drained(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.drained.set(Box::new(hook));
    }

    pub(crate) fn add(&self, n: usize) {
        if n > 0 {
            self.count.fetch_add(n, Ordering::AcqRel);
        }
    }

    /// Drop `n` units outside a step (shed or captured windows). Never
    /// runs the drained hook: the step around it, if any, does.
    pub(crate) fn remove(&self, n: usize) {
        if n > 0 {
            let before = self.count.fetch_sub(n, Ordering::AcqRel);
            debug_assert!(before >= n, "in-flight count underflow");
        }
    }

    /// End a step holding `n` units; run the drained hook if that emptied
    /// the fabric.
    fn finish(&self, n: usize) {
        let before = self.count.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(before >= n, "in-flight count underflow");
        if before == n {
            if let Some(hook) = self.drained.get() {
                hook();
            }
        }
    }
}

/// Where stamped events go instead of straight into their receivers: one
/// call per destination port, in first-delivery order. DE's agenda and the
/// pool's parked-delivery queue are sinks.
pub type Sink<'s> = dyn FnMut(PortRef, Vec<CwEvent>) -> Result<()> + 's;

/// A director-supplied firing cost from (events consumed, tokens
/// produced), charged instead of the measured time. Runs after fire and
/// before stamping, so it may advance a virtual clock.
pub type Cost<'c> = dyn FnMut(u64, u64) -> Micros + 'c;

/// What one firing attempt did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fired {
    /// Whether prefire agreed and the actor fired.
    pub fired: bool,
    /// Director time the attempt began.
    pub started: Timestamp,
    /// Director time the attempt (and its routing) completed.
    pub ended: Timestamp,
    /// Busy time charged to the firing.
    pub busy: Micros,
    /// Events consumed from input windows.
    pub events_in: u64,
    /// Tokens emitted.
    pub tokens_out: u64,
    /// Channel deliveries routed (including expired-item hand-over).
    pub routed: u64,
    /// Origin of the triggering wave, if any.
    pub origin: Option<Timestamp>,
}

/// The per-run handles the kernel works with.
#[derive(Clone, Copy)]
pub struct Kernel<'a> {
    fabric: &'a Fabric,
    tele: Option<&'a Telemetry>,
    clock: &'a dyn Clock,
}

impl<'a> Kernel<'a> {
    /// A kernel over `fabric`, reporting to `tele` (if instrumented) and
    /// timing on `clock`.
    pub fn new(fabric: &'a Fabric, tele: Option<&'a Telemetry>, clock: &'a dyn Clock) -> Self {
        Kernel {
            fabric,
            tele,
            clock,
        }
    }

    fn observer(&self) -> Option<&'a Arc<dyn Observer>> {
        self.tele.map(|t| &t.observer)
    }

    /// The fabric the kernel routes through.
    pub fn fabric(&self) -> &'a Fabric {
        self.fabric
    }

    /// The director clock's current time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Report a run phase boundary at the current time.
    pub fn phase(&self, phase: RunPhase) {
        if let Some(obs) = self.observer() {
            obs.on_run_phase(phase, self.clock.now());
        }
    }

    /// Deliver a window popped from `id`'s inbox to its context ahead of
    /// the next firing, reporting `on_dequeue` when per-event hooks are on.
    /// The window's in-flight unit moves with it into the context.
    pub fn stage(&self, id: ActorId, ctx: &mut QueueContext, port: usize, window: Window) {
        if self.fabric.wants_event_hooks() {
            if let Some(obs) = self.observer() {
                let now = self.clock.now();
                obs.on_dequeue(id, port, window.trigger_wave(), window.formed_at, now);
            }
        }
        ctx.deliver(port, window);
        ctx.held_units += 1;
    }

    /// Run `body` as one in-flight step: it holds a unit while it runs and
    /// gives it back, with the units of the windows staged in `ctx`, when
    /// it ends — on success or error alike.
    fn step<T>(&self, ctx: &mut QueueContext, body: impl FnOnce(&mut QueueContext) -> T) -> T {
        let in_flight = self.fabric.in_flight();
        in_flight.add(1);
        let out = body(ctx);
        in_flight.finish(1 + std::mem::take(&mut ctx.held_units));
        out
    }

    /// Run the actor's `initialize` and route what it emitted.
    pub fn initialize(
        &self,
        id: ActorId,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
    ) -> Result<u64> {
        self.step(ctx, |ctx| {
            ctx.set_now(self.clock.now());
            actor.initialize(ctx)?;
            let (emissions, _) = ctx.take_emissions();
            self.fabric.route(id, emissions, None, self.clock.now())
        })
    }

    /// One firing attempt, routed through the fabric with measured busy
    /// time.
    pub fn fire(
        &self,
        id: ActorId,
        is_source: bool,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
    ) -> Result<Fired> {
        self.fire_with(id, is_source, actor, ctx, None, None)
    }

    /// One firing attempt: `on_fire_start`, prefire, fire, charge, stamp
    /// and route (into `sink` when given, else the fabric), expired-item
    /// hand-over, `on_fire_end` and a sample. `cost` replaces the measured
    /// busy time. `postfire` is left to the caller. Events handed to `sink`
    /// stay in flight until [`deliver`] or [`try_deliver`] admits them.
    pub fn fire_with(
        &self,
        id: ActorId,
        is_source: bool,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
        cost: Option<&mut Cost<'_>>,
        sink: Option<&mut Sink<'_>>,
    ) -> Result<Fired> {
        self.step(ctx, |ctx| {
            self.attempt(id, is_source, actor, ctx, cost, sink)
        })
    }

    fn attempt(
        &self,
        id: ActorId,
        is_source: bool,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
        cost: Option<&mut Cost<'_>>,
        sink: Option<&mut Sink<'_>>,
    ) -> Result<Fired> {
        let started = self.clock.now();
        ctx.set_now(started);
        if let Some(obs) = self.observer() {
            obs.on_fire_start(id, started);
        }
        let mut out = Fired {
            started,
            ..Fired::default()
        };
        let mut trigger: Option<WaveTag> = None;
        let mut charged = None;
        if actor.prefire(ctx)? {
            actor.fire(ctx)?;
            out.fired = true;
            out.events_in = ctx.consumed_events;
            let (emissions, parent) = ctx.take_emissions();
            out.tokens_out = emissions.len() as u64;
            out.origin = parent.as_ref().map(|w| w.origin());
            charged = cost.map(|c| c(out.events_in, out.tokens_out));
            let stamp_at = if is_source { started } else { self.clock.now() };
            out.routed = match sink {
                Some(sink) => {
                    let in_flight = self.fabric.in_flight();
                    let mut held = |dest: PortRef, events: Vec<CwEvent>| {
                        in_flight.add(events.len());
                        sink(dest, events)
                    };
                    self.fabric
                        .stamp(id, emissions, parent.as_ref(), stamp_at, &mut held)?
                }
                None => self
                    .fabric
                    .route(id, emissions, parent.as_ref(), stamp_at)?,
            };
            out.routed += self.fabric.route_expired(self.clock.now())?;
            trigger = parent;
        }
        out.ended = self.clock.now();
        if out.fired {
            out.busy = charged.unwrap_or_else(|| out.ended.since(started));
        }
        if let Some(t) = self.tele {
            t.observer.on_fire_end(&FireRecord {
                actor: id,
                started,
                ended: out.ended,
                busy: out.busy,
                events_in: out.events_in,
                tokens_out: out.tokens_out,
                origin: out.origin,
                trigger,
                fired: out.fired,
            });
            t.sample(out.ended);
        }
        Ok(out)
    }

    /// The actor's last word: run `finish`, route what it emitted, then
    /// close its outputs. The outputs close even when `finish` or the
    /// routing fails; the first error is returned.
    pub fn finish(
        &self,
        id: ActorId,
        actor: &mut dyn Actor,
        ctx: &mut QueueContext,
    ) -> Result<u64> {
        let routed = self.step(ctx, |ctx| {
            ctx.set_now(self.clock.now());
            actor.finish(ctx)?;
            let (emissions, trigger) = ctx.take_emissions();
            let now = self.clock.now();
            Ok(self.fabric.route(id, emissions, trigger.as_ref(), now)?
                + self.fabric.route_expired(now)?)
        });
        let closed = self.fabric.close_actor_outputs(id, self.clock.now());
        let routed = routed?;
        closed.map(|()| routed)
    }
}

/// Build the observed fabric for a run and re-inject any checkpoint state
/// staged on `hook`.
pub fn open_fabric(
    workflow: &Workflow,
    tele: Option<&Telemetry>,
    hook: Option<&Arc<QuiesceHook>>,
) -> Result<Fabric> {
    let fabric = Fabric::build_observed(workflow, tele.map(|t| t.observer.clone()))?;
    if let Some(state) = hook.and_then(|h| h.take_restore()) {
        fabric.restore_state(state)?;
    }
    Ok(fabric)
}

/// One firing context per actor, with actor-side shed reports routed to
/// the observer.
pub fn contexts(workflow: &Workflow, tele: Option<&Telemetry>) -> Vec<QueueContext> {
    workflow
        .actor_ids()
        .map(|id| {
            let mut ctx = QueueContext::new(workflow.node(id).signature.inputs.len());
            if let Some(t) = tele {
                ctx.set_shed_observer(t.observer.clone(), id);
            }
            ctx
        })
        .collect()
}

/// Hand the windows staged in `ctx` but never consumed back to the front
/// of `id`'s inbox, so a checkpoint capture sees them. The inbox counts
/// them again; units still held for windows never attempted go back.
pub fn unstage(fabric: &Fabric, id: ActorId, ctx: &mut QueueContext) {
    fabric.inbox(id).push_front_batch(ctx.take_staged());
    fabric
        .in_flight()
        .remove(std::mem::take(&mut ctx.held_units));
}

/// Admit one event a [`Sink`] held back, ending its in-flight unit.
pub fn deliver(fabric: &Fabric, dest: PortRef, event: CwEvent, now: Timestamp) -> Result<usize> {
    let admitted = fabric.deliver(dest, event, now);
    fabric.in_flight().finish(1);
    admitted
}

/// [`deliver`] that hands the event back, still in flight, when `dest` is
/// a full `Block` port.
pub fn try_deliver(
    fabric: &Fabric,
    dest: PortRef,
    event: CwEvent,
    now: Timestamp,
) -> Result<TryDeliver> {
    let admitted = fabric.try_deliver(dest, event, now);
    if !matches!(admitted, Ok(TryDeliver::Full(_))) {
        fabric.in_flight().finish(1);
    }
    admitted
}

/// Quiesce at a firing boundary: unstage every context, capture the
/// fabric, and deposit the state on the hook (timing the capture).
pub fn quiesce<'c>(
    fabric: &Fabric,
    hook: &QuiesceHook,
    contexts: impl IntoIterator<Item = (ActorId, &'c mut QueueContext)>,
) {
    hook.mark_drained();
    let started = std::time::Instant::now();
    for (id, ctx) in contexts {
        unstage(fabric, id, ctx);
    }
    let state = fabric.capture_state();
    hook.record_capture(started.elapsed());
    hook.deposit(state);
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::actor::{FireContext, IoSignature};
    use crate::actors::Collector;
    use crate::graph::WorkflowBuilder;
    use crate::time::{Micros, VirtualClock};
    use crate::token::Token;
    use crate::window::WindowSpec;

    /// Emits one token per firing and takes `cost` of virtual time doing it.
    struct Slow {
        clock: Arc<VirtualClock>,
        cost: Micros,
        source: bool,
    }

    impl Actor for Slow {
        fn signature(&self) -> IoSignature {
            match self.source {
                true => IoSignature::source("out"),
                false => IoSignature::transform("in", "out"),
            }
        }
        fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
            while ctx.get(0).is_some() {}
            self.clock.advance(self.cost);
            ctx.emit(0, Token::Int(1));
            Ok(())
        }
    }

    #[test]
    fn external_events_stamp_at_start_derived_at_completion() {
        let clock = Arc::new(VirtualClock::new());
        let mut b = WorkflowBuilder::new("stamps");
        let slow = |cost, source| Slow {
            clock: clock.clone(),
            cost: Micros(cost),
            source,
        };
        let s = b.add_actor("src", slow(100, true));
        let m = b.add_actor("mid", slow(50, false));
        let k = b.add_actor("sink", Collector::new().actor());
        b.chain(&[s, m, k]).unwrap();
        let mut wf = b.build().unwrap();
        let fabric = Fabric::build(&wf).unwrap();
        let kernel = Kernel::new(&fabric, None, &*clock);
        let mut ctx = contexts(&wf, None);

        let f = kernel
            .fire(s, true, wf.node_mut(s).actor_mut(), &mut ctx[0])
            .unwrap();
        assert_eq!(
            (f.started, f.ended, f.busy),
            (Timestamp(0), Timestamp(100), Micros(100))
        );
        let (port, w) = fabric.inbox(m).try_pop().unwrap();
        assert_eq!(
            w.events[0].timestamp,
            Timestamp(0),
            "entered at the firing's start"
        );

        kernel.stage(m, &mut ctx[1], port, w);
        let f = kernel
            .fire(m, false, wf.node_mut(m).actor_mut(), &mut ctx[1])
            .unwrap();
        assert_eq!(f.origin, Some(Timestamp(0)));
        let (_, w) = fabric.inbox(k).try_pop().unwrap();
        assert_eq!(
            w.events[0].timestamp,
            Timestamp(150),
            "produced at completion"
        );
        assert_eq!(w.events[0].origin(), Timestamp(0));
    }

    #[test]
    fn expired_items_reach_their_handler_after_each_firing() {
        let clock = VirtualClock::new();
        let mut b = WorkflowBuilder::new("expiry");
        let s = b.add_actor("src", crate::actors::VecSource::new(vec![]));
        let agg = b.add_actor("agg", Collector::new().actor());
        let handler = b.add_actor("handler", Collector::new().actor());
        b.connect_windowed(s, "out", agg, "in", WindowSpec::tuples(2, 1))
            .unwrap();
        b.expired_handler(agg.port("in"), handler.port("in"))
            .unwrap();
        let mut wf = b.build().unwrap();
        let fabric = Fabric::build(&wf).unwrap();
        let kernel = Kernel::new(&fabric, None, &clock);
        let mut ctx = contexts(&wf, None);
        let emissions = (0..3).map(|i| (0, Token::Int(i))).collect();
        fabric.route(s, emissions, None, Timestamp(0)).unwrap();
        assert!(fabric.inbox(handler).is_empty(), "nothing handed over yet");

        let (port, w) = fabric.inbox(agg).try_pop().unwrap();
        kernel.stage(agg, &mut ctx[1], port, w);
        let f = kernel
            .fire(agg, false, wf.node_mut(agg).actor_mut(), &mut ctx[1])
            .unwrap();
        // Events 0 and 1 have slid out of every window they belong to.
        assert_eq!(f.routed, 2, "expired events count as routed");
        let (_, w) = fabric
            .inbox(handler)
            .try_pop()
            .expect("handed over with the firing");
        assert_eq!(w.events[0].token, Token::Int(0));
    }

    /// The in-flight count follows the work exactly: one unit per queued
    /// window, one per step in progress, and zero once everything routed
    /// has been consumed; the drained hook runs when it gets there.
    #[test]
    fn in_flight_counts_windows_and_steps_to_zero() {
        let clock = VirtualClock::new();
        let mut b = WorkflowBuilder::new("count");
        let s = b.add_actor("src", crate::actors::VecSource::new(vec![]));
        let m = b.add_actor("mid", crate::actors::Union::new(1));
        let k = b.add_actor("sink", Collector::new().actor());
        b.chain(&[s, m, k]).unwrap();
        let mut wf = b.build().unwrap();
        let fabric = Fabric::build(&wf).unwrap();
        let drained = Arc::new(AtomicU64::new(0));
        let seen = drained.clone();
        fabric.in_flight().on_drained(move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let kernel = Kernel::new(&fabric, None, &clock);
        let mut ctx = contexts(&wf, None);
        let emissions = (0..3).map(|i| (0, Token::Int(i))).collect();
        fabric.route(s, emissions, None, Timestamp(0)).unwrap();
        assert_eq!(fabric.in_flight().get(), 3, "one unit per queued window");

        let (port, w) = fabric.inbox(m).try_pop().unwrap();
        assert_eq!(fabric.in_flight().get(), 3, "a pop hands the unit over");
        kernel.stage(m, &mut ctx[1], port, w);
        kernel
            .fire(m, false, wf.node_mut(m).actor_mut(), &mut ctx[1])
            .unwrap();
        assert_eq!(
            fabric.in_flight().get(),
            3,
            "one window consumed, one formed"
        );

        // Stage the other two, then hand them back unattempted.
        while let Some((port, w)) = fabric.inbox(m).try_pop() {
            kernel.stage(m, &mut ctx[1], port, w);
        }
        unstage(&fabric, m, &mut ctx[1]);
        assert_eq!(fabric.in_flight().get(), 3);

        for id in [m, m, k, k, k] {
            let (port, w) = fabric.inbox(id).try_pop().unwrap();
            kernel.stage(id, &mut ctx[id.index()], port, w);
            kernel
                .fire(id, false, wf.node_mut(id).actor_mut(), &mut ctx[id.index()])
                .unwrap();
        }
        assert_eq!(fabric.in_flight().get(), 0);
        assert_eq!(
            drained.load(Ordering::Relaxed),
            1,
            "drained once, by the last step"
        );
    }

    #[derive(Default)]
    struct Routes(AtomicU64);

    impl Observer for Routes {
        fn on_route(&self, _from: ActorId, _delivered: u64, _at: Timestamp) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn on_route_only_when_something_was_delivered() {
        let mut b = WorkflowBuilder::new("unrouted");
        let s = b.add_actor("src", crate::actors::VecSource::new(vec![]));
        let k = b.add_actor("sink", Collector::new().actor());
        let wf = {
            let r = b.add_actor(
                "router",
                crate::actors::Router::new(&["kept", "dropped"], |_: &Token| Ok(Some(0))),
            );
            b.connect(s, "out", r, "in").unwrap();
            b.connect(r, "kept", k, "in").unwrap();
            b.build().unwrap()
        };
        let routes = Arc::new(Routes::default());
        let fabric = Fabric::build_observed(&wf, Some(routes.clone())).unwrap();
        let r = wf.find("router").unwrap();
        let parent = WaveTag::external(Timestamp(1));
        let sent = |port| fabric.route(r, vec![(port, Token::Int(1))], Some(&parent), Timestamp(2));
        assert_eq!(sent(1).unwrap(), 0);
        assert_eq!(
            routes.0.load(Ordering::Relaxed),
            0,
            "an unrouted emission sends no on_route"
        );
        assert_eq!(sent(0).unwrap(), 1);
        assert_eq!(routes.0.load(Ordering::Relaxed), 1);
    }
}

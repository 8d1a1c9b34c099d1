//! The DE (Discrete Event) director: global timestamp order.
//!
//! Keeps a global event queue ordered by timestamp; the virtual clock
//! advances to each event's time and the receiving actor fires immediately.
//! Source firings are scheduled at the sources' declared arrival times;
//! channel deliveries may carry a fixed propagation delay. Window-formation
//! deadlines are scheduled as first-class timer events — the paper's
//! "window timeout events".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::error::Result;
use crate::event::CwEvent;
use crate::graph::{ActorId, PortRef, Workflow};
use crate::telemetry::{RunPhase, Telemetry};
use crate::time::{Clock, Micros, Timestamp, VirtualClock};

use super::fire::{self, Kernel};
use super::{Director, QueueContext, RunReport};

#[derive(Debug)]
enum Agenda {
    /// Fire a source actor.
    SourceFire(ActorId),
    /// Deliver an event to an input port.
    Deliver(PortRef, CwEvent),
    /// Evaluate window timeouts on an actor's receivers.
    Poll(ActorId),
}

struct Entry {
    time: Timestamp,
    seq: u64,
    agenda: Agenda,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The global event queue: timestamp order, insertion order among ties.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, time: Timestamp, agenda: Agenda) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            seq: self.seq,
            agenda,
        }));
    }

    fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// Event-queue driven executor in virtual time.
pub struct DeDirector {
    clock: Arc<VirtualClock>,
    /// Fixed propagation delay added to every channel delivery.
    pub channel_delay: Micros,
    telemetry: Option<Telemetry>,
    hook: Option<Arc<crate::checkpoint::QuiesceHook>>,
}

impl Default for DeDirector {
    fn default() -> Self {
        Self::new()
    }
}

impl DeDirector {
    /// A director with zero channel delay on a fresh virtual clock.
    pub fn new() -> Self {
        DeDirector {
            clock: Arc::new(VirtualClock::new()),
            channel_delay: Micros::ZERO,
            telemetry: None,
            hook: None,
        }
    }

    /// Add a fixed delay to every channel delivery.
    pub fn with_channel_delay(mut self, d: Micros) -> Self {
        self.channel_delay = d;
        self
    }

    /// The final virtual time after a run.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }
}

/// One DE run's state: the agenda plus the firing contexts.
struct DeRun<'a> {
    kernel: Kernel<'a>,
    contexts: Vec<QueueContext>,
    queue: Queue,
    delay: Micros,
    report: RunReport,
}

impl DeRun<'_> {
    /// One firing attempt whose emissions are scheduled as future
    /// deliveries. Returns the actor's postfire verdict.
    fn attempt(&mut self, workflow: &mut Workflow, id: ActorId) -> Result<bool> {
        let at = self.kernel.now().plus(self.delay);
        let node = workflow.node_mut(id);
        let is_source = node.is_source;
        let actor = node.actor_mut();
        let ctx = &mut self.contexts[id.0];
        let queue = &mut self.queue;
        let mut schedule = |dest: PortRef, events: Vec<CwEvent>| {
            for event in events {
                queue.push(at, Agenda::Deliver(dest, event));
            }
            Ok(())
        };
        let f = self
            .kernel
            .fire_with(id, is_source, actor, ctx, None, Some(&mut schedule))?;
        if f.fired {
            self.report.firings += 1;
        }
        self.report.events_routed += f.routed;
        actor.postfire(ctx)
    }

    /// Fire `id` on every window currently in its inbox.
    fn drain_inbox(&mut self, workflow: &mut Workflow, id: ActorId) -> Result<()> {
        while let Some((port, window)) = self.kernel.fabric().inbox(id).try_pop() {
            self.kernel
                .stage(id, &mut self.contexts[id.0], port, window);
            self.attempt(workflow, id)?;
        }
        Ok(())
    }

    /// Deliver a scheduled event (arming its window timeout) or evaluate
    /// a timeout, then fire the receiving actor on what formed.
    fn handle(&mut self, workflow: &mut Workflow, agenda: Agenda) -> Result<()> {
        let fabric = self.kernel.fabric();
        let now = self.kernel.now();
        match agenda {
            Agenda::Deliver(dest, event) => {
                fire::deliver(fabric, dest, event, now)?;
                if let Some(deadline) = fabric.receivers(dest.actor)[dest.port].next_deadline() {
                    self.queue.push(deadline, Agenda::Poll(dest.actor));
                }
                self.drain_inbox(workflow, dest.actor)
            }
            Agenda::Poll(id) => {
                fabric.poll_actor(id, now);
                self.drain_inbox(workflow, id)
            }
            Agenda::SourceFire(id) => {
                if self.attempt(workflow, id)? {
                    let next = workflow
                        .node(id)
                        .peek_actor()
                        .and_then(|a| a.next_arrival());
                    if let Some(next) = next {
                        self.queue.push(next.max(now), Agenda::SourceFire(id));
                    }
                }
                Ok(())
            }
        }
    }
}

impl Director for DeDirector {
    fn run(&mut self, workflow: &mut Workflow) -> Result<RunReport> {
        let tele = self.telemetry.as_ref();
        let fabric = fire::open_fabric(workflow, tele, self.hook.as_ref())?;
        let resuming = self.hook.as_ref().is_some_and(|h| h.resuming());
        let kernel = Kernel::new(&fabric, tele, &*self.clock);
        let started = kernel.now();
        kernel.phase(RunPhase::Start);
        let mut run = DeRun {
            kernel,
            contexts: fire::contexts(workflow, tele),
            queue: Queue::default(),
            delay: self.channel_delay,
            report: RunReport::default(),
        };

        for id in workflow.actor_ids() {
            if !resuming {
                let actor = workflow.node_mut(id).actor_mut();
                run.report.events_routed +=
                    kernel.initialize(id, actor, &mut run.contexts[id.0])?;
            }
            if workflow.node(id).is_source {
                let when = workflow
                    .node(id)
                    .peek_actor()
                    .and_then(|a| a.next_arrival())
                    .unwrap_or(Timestamp::ZERO);
                run.queue.push(when, Agenda::SourceFire(id));
            }
        }

        if resuming {
            // Restored inbox windows are not tied to any scheduled agenda
            // entry: fire them now so their emissions re-enter the heap.
            for id in workflow.actor_ids() {
                run.drain_inbox(workflow, id)?;
            }
        }

        while let Some(entry) = run.queue.pop() {
            if tele.is_some_and(|t| t.should_stop()) {
                break;
            }
            if self.hook.as_ref().is_some_and(|h| h.pause_requested())
                && matches!(entry.agenda, Agenda::SourceFire(_))
            {
                // Park the source without advancing virtual time; the
                // firing is re-derived from `next_arrival` on resume.
                // Deliveries and polls keep draining so the snapshot sees
                // a settled network.
                continue;
            }
            self.clock.advance_to(entry.time);
            run.handle(workflow, entry.agenda)?;
        }

        let quiescing = !tele.is_some_and(|t| t.should_stop());
        if let Some(hook) = self
            .hook
            .as_ref()
            .filter(|h| quiescing && h.pause_requested())
        {
            fire::quiesce(&fabric, hook, workflow.actor_ids().zip(&mut run.contexts));
            let mut report = run.report;
            report.elapsed = kernel.now().since(started);
            kernel.phase(RunPhase::End);
            return Ok(report);
        }

        // End of stream: flush partial windows, upstream first.
        kernel.phase(RunPhase::Close);
        for id in super::ddf::quasi_topological(workflow) {
            // The actor's final chance to emit while downstream ports are
            // still open (the agenda loop is over, so its emissions are
            // delivered immediately).
            let actor = workflow.node_mut(id).actor_mut();
            run.report.events_routed += kernel.finish(id, actor, &mut run.contexts[id.0])?;
            // Close-time firings schedule their deliveries on the agenda
            // like any other firing; drain it here before moving down the
            // cascade so those events reach still-open downstream ports.
            loop {
                for target in workflow.actor_ids() {
                    run.drain_inbox(workflow, target)?;
                }
                let Some(entry) = run.queue.pop() else {
                    break;
                };
                self.clock.advance_to(entry.time);
                if !matches!(entry.agenda, Agenda::SourceFire(_)) {
                    run.handle(workflow, entry.agenda)?;
                }
            }
        }
        kernel.phase(RunPhase::Wrapup);
        for id in workflow.actor_ids() {
            workflow.node_mut(id).actor_mut().wrapup()?;
        }
        let mut report = run.report;
        report.elapsed = kernel.now().since(started);
        kernel.phase(RunPhase::End);
        Ok(report)
    }

    fn instrument(&mut self, telemetry: Telemetry) -> bool {
        self.telemetry = Some(telemetry);
        true
    }

    fn attach_checkpoint(&mut self, hook: Arc<crate::checkpoint::QuiesceHook>) -> bool {
        self.hook = Some(hook);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{Collector, LatencyProbe, TimedSource};
    use crate::graph::WorkflowBuilder;
    use crate::token::Token;
    use crate::window::WindowSpec;

    #[test]
    fn processes_in_timestamp_order_in_virtual_time() {
        let probe = LatencyProbe::new();
        let mut b = WorkflowBuilder::new("de");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![
                (Timestamp(100), Token::Int(1)),
                (Timestamp(300), Token::Int(2)),
            ]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        let mut d = DeDirector::new();
        d.run(&mut wf).unwrap();
        let samples = probe.samples();
        assert_eq!(samples.len(), 2);
        // Zero-delay channels: results appear at the event times.
        assert_eq!(samples[0].at, Timestamp(100));
        assert_eq!(samples[1].at, Timestamp(300));
        assert_eq!(samples[0].latency, Micros::ZERO);
        assert_eq!(d.now(), Timestamp(300));
    }

    #[test]
    fn channel_delay_shows_in_latency() {
        let probe = LatencyProbe::new();
        let mut b = WorkflowBuilder::new("delay");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![(Timestamp(100), Token::Int(1))]),
        );
        let k = b.add_actor("probe", probe.actor());
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        DeDirector::new()
            .with_channel_delay(Micros(50))
            .run(&mut wf)
            .unwrap();
        assert_eq!(probe.samples()[0].latency, Micros(50));
    }

    #[test]
    fn time_windows_close_via_scheduled_timeouts() {
        // Tumbling 100µs windows over events at 10 and 250: the window
        // [0,100) closes when the event at 250 arrives, and [200,300)
        // closes via the scheduled window-timeout event at 300.
        let c = Collector::new();
        let mut b = WorkflowBuilder::new("timeouts");
        let s = b.add_actor(
            "src",
            TimedSource::new(vec![
                (Timestamp(10), Token::Int(1)),
                (Timestamp(250), Token::Int(2)),
            ]),
        );
        let agg = b.add_actor(
            "agg",
            crate::actors::FnActor::new(
                crate::actor::IoSignature::transform("in", "out"),
                |w, emit| {
                    emit(0, Token::Int(w.len() as i64));
                    Ok(())
                },
            ),
        );
        let k = b.add_actor("sink", c.actor());
        b.connect_windowed(s, "out", agg, "in", WindowSpec::tumbling_time(Micros(100)))
            .unwrap();
        b.connect(agg, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        DeDirector::new().run(&mut wf).unwrap();
        assert_eq!(c.tokens(), vec![Token::Int(1), Token::Int(1)]);
    }
}

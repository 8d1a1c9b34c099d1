//! Lock-free metrics collection and point-in-time snapshots.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::graph::{ActorId, Workflow};
use crate::time::{Micros, Timestamp};

use super::sketch::{QuantileSketch, SketchSnapshot};
use super::{
    ActorTopology, AdaptEvent, FireRecord, Observer, RunPhase, TopologySnapshot, WorkerMetrics,
};

/// Live queue depth of one actor input port in a [`MetricsSnapshot`]
/// (0 once the run's fabric has been torn down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDepthMetrics {
    /// Actor name.
    pub actor: String,
    /// Input port index on the actor.
    pub port: usize,
    /// Formed-window depth of the port at snapshot time.
    pub depth: u64,
}

/// Per-actor counter cell. Every field is a relaxed atomic so actor
/// threads under the threaded director update without contention.
#[derive(Debug, Default)]
struct ActorCell {
    fires: AtomicU64,
    attempts: AtomicU64,
    busy_micros: AtomicU64,
    events_in: AtomicU64,
    tokens_out: AtomicU64,
    windows_closed: AtomicU64,
    queue_high_water: AtomicU64,
    events_expired: AtomicU64,
    blocks: AtomicU64,
    block_micros: AtomicU64,
    events_shed: AtomicU64,
    routed_out: AtomicU64,
}

/// Per-channel delivery counter cell, pre-sized from the workflow's
/// channel list so the routing hot path stays lock-free.
#[derive(Debug)]
struct EdgeCell {
    from: ActorId,
    to: ActorId,
    port: usize,
    events: AtomicU64,
}

/// Routed-event count for one channel `(from, to, port)` in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMetrics {
    /// Producing actor.
    pub from: ActorId,
    pub from_name: String,
    /// Consuming actor.
    pub to: ActorId,
    pub to_name: String,
    /// Destination input port on `to`.
    pub port: usize,
    /// Events delivered over this channel.
    pub events: u64,
}

/// Metrics for one actor in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorMetrics {
    pub id: ActorId,
    pub name: String,
    /// Successful firings (prefire accepted).
    pub fires: u64,
    /// Firing attempts including refusals.
    pub attempts: u64,
    /// Total busy time charged to the actor.
    pub busy: Micros,
    /// Events consumed from input windows.
    pub events_in: u64,
    /// Tokens emitted on output ports.
    pub tokens_out: u64,
    /// Ready windows formed on the actor's input ports.
    pub windows_closed: u64,
    /// Highest observed inbox depth.
    pub queue_high_water: u64,
    /// Events expired out of the actor's windows.
    pub events_expired: u64,
    /// Writers that hit this actor's full input ports under a `Block`
    /// channel policy (backpressure events).
    pub blocks: u64,
    /// Total time writers spent blocked on this actor's full ports.
    pub block_time: Micros,
    /// Events shed at this actor's full input ports under drop policies.
    pub events_shed: u64,
    /// Events this actor delivered downstream (routing passes it
    /// originated).
    pub routed_out: u64,
}

/// One replica's slice of a [`ShardMetrics`] group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReplicaMetrics {
    /// Replica index within the group (the `<i>` of `base#<i>`).
    pub replica: usize,
    /// Successful firings of this replica.
    pub fires: u64,
    /// Events the replica consumed.
    pub events_in: u64,
    /// Tokens the replica produced.
    pub tokens_out: u64,
    /// Highest observed inbox depth on the replica.
    pub queue_high_water: u64,
    /// Busy time charged to the replica.
    pub busy: Micros,
}

/// Aggregated per-replica metrics for one expanded shard group, recovered
/// from the generated `base#<i>` actor names (see
/// [`crate::graph::WorkflowBuilder::shard`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Name of the sharded base actor.
    pub base: String,
    /// Per-replica metrics, in replica order.
    pub replicas: Vec<ShardReplicaMetrics>,
}

impl ShardMetrics {
    /// Firings summed over all replicas.
    pub fn total_fires(&self) -> u64 {
        self.replicas.iter().map(|r| r.fires).sum()
    }

    /// Load imbalance: the busiest replica's firing share of a perfectly
    /// even split (1.0 = balanced, `replicas` = everything on one).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_fires();
        if total == 0 || self.replicas.is_empty() {
            return 1.0;
        }
        let max = self.replicas.iter().map(|r| r.fires).max().unwrap_or(0);
        max as f64 * self.replicas.len() as f64 / total as f64
    }
}

/// Atomics-only [`Observer`] that aggregates the hook stream into
/// per-actor counters plus an end-to-end latency histogram fed by sink
/// firings. Safe to share across the threaded director's actor threads;
/// `snapshot()` can be taken at any point, including mid-run.
#[derive(Debug)]
pub struct MetricsRecorder {
    names: Vec<String>,
    is_sink: Vec<bool>,
    actors: Vec<ActorCell>,
    edges: Vec<EdgeCell>,
    edge_index: HashMap<(usize, usize, usize), usize>,
    events_routed: AtomicU64,
    latency: Arc<QuantileSketch>,
    run_started: AtomicU64,
    run_ended: AtomicU64,
    /// Live inbox handles from the last reported topology, for the
    /// per-port depth gauges (weak: dead once the fabric drops).
    topology: Mutex<Vec<ActorTopology>>,
    /// Per-worker counters from pooled executors (empty under the
    /// thread-per-actor directors). Cold path: reported once per run.
    workers: Mutex<Vec<WorkerMetrics>>,
    /// Adaptive-controller decision counters (all zero unless an
    /// [`AdaptivePolicy`](crate::director::adaptive::AdaptivePolicy) is
    /// configured).
    adapt: AdaptCell,
    /// Checkpoint phase sketches, allocated by the first checkpoint.
    checkpoints: OnceLock<CheckpointCell>,
}

/// Wall-clock cost of one checkpoint up to its write, reported by the
/// engine through [`MetricsRecorder::record_checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointTiming {
    /// Pause request until the fabric's in-flight count reached zero.
    pub quiesce: Micros,
    /// Capturing the fabric (unstaging contexts, draining inboxes and
    /// window operators).
    pub capture: Micros,
    /// Saving actor and resource state and encoding the snapshot.
    pub encode: Micros,
    /// Writing the snapshot file, fsync and rename.
    pub write: Micros,
    /// Snapshot bytes written.
    pub bytes: u64,
}

/// Accumulators behind [`CheckpointMetrics`].
#[derive(Debug, Default)]
struct CheckpointCell {
    count: AtomicU64,
    bytes: AtomicU64,
    quiesce: QuantileSketch,
    capture: QuantileSketch,
    encode: QuantileSketch,
    write: QuantileSketch,
    resume: QuantileSketch,
}

/// Checkpoint counters and per-phase wall-time sketches (µs). All zero
/// and empty when the run took no checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMetrics {
    /// Checkpoints written.
    pub count: u64,
    /// Snapshot bytes written across all checkpoints.
    pub bytes: u64,
    /// Pause request until the in-flight count reached zero.
    pub quiesce: SketchSnapshot,
    /// Fabric capture.
    pub capture: SketchSnapshot,
    /// Actor/resource save plus snapshot encoding.
    pub encode: SketchSnapshot,
    /// File write, fsync and rename.
    pub write: SketchSnapshot,
    /// From the write until the next run segment started.
    pub resume: SketchSnapshot,
}

impl Default for CheckpointMetrics {
    fn default() -> Self {
        CheckpointMetrics {
            count: 0,
            bytes: 0,
            quiesce: SketchSnapshot::empty(),
            capture: SketchSnapshot::empty(),
            encode: SketchSnapshot::empty(),
            write: SketchSnapshot::empty(),
            resume: SketchSnapshot::empty(),
        }
    }
}

impl CheckpointMetrics {
    /// The phase sketches by name, in checkpoint order.
    pub fn phases(&self) -> [(&'static str, &SketchSnapshot); 5] {
        [
            ("quiesce", &self.quiesce),
            ("capture", &self.capture),
            ("encode", &self.encode),
            ("write", &self.write),
            ("resume", &self.resume),
        ]
    }
}

/// Atomic accumulators behind [`AdaptMetrics`].
#[derive(Debug, Default)]
struct AdaptCell {
    worker_grows: AtomicU64,
    worker_shrinks: AtomicU64,
    policy_swaps: AtomicU64,
    shed_engagements: AtomicU64,
    shed_disengagements: AtomicU64,
}

/// Counters of adaptive-controller decisions over a run, reported through
/// [`Observer::on_adapt`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptMetrics {
    /// Worker-set grow decisions applied.
    pub worker_grows: u64,
    /// Worker-set shrink decisions applied.
    pub worker_shrinks: u64,
    /// Ready-queue policy hot-swaps applied.
    pub policy_swaps: u64,
    /// Times admission-side load shedding engaged.
    pub shed_engagements: u64,
    /// Times admission-side load shedding disengaged.
    pub shed_disengagements: u64,
}

impl AdaptMetrics {
    /// Worker resizes in either direction.
    pub fn worker_resizes(&self) -> u64 {
        self.worker_grows + self.worker_shrinks
    }

    /// Whether any adaptive decision was recorded.
    pub fn any(&self) -> bool {
        *self != AdaptMetrics::default()
    }
}

impl MetricsRecorder {
    /// Recorder sized for `workflow`, capturing actor names and sink-ness
    /// (sink firings feed the end-to-end latency histogram).
    pub fn for_workflow(workflow: &Workflow) -> Self {
        let sinks = workflow.sinks();
        let names: Vec<String> = workflow
            .actor_ids()
            .map(|id| workflow.node(id).name.clone())
            .collect();
        let is_sink = workflow
            .actor_ids()
            .map(|id| sinks.contains(&id))
            .collect();
        let mut edges = Vec::new();
        for id in workflow.actor_ids() {
            for port in 0..workflow.node(id).signature.outputs.len() {
                for dest in workflow.routes_from(id, port) {
                    edges.push((id, dest.actor, dest.port));
                }
            }
        }
        Self::with_names(names, is_sink).with_edges(edges)
    }

    /// Recorder over explicit actor names; `is_sink[i]` marks the actors
    /// whose firings feed the latency histogram.
    pub fn with_names(names: Vec<String>, is_sink: Vec<bool>) -> Self {
        assert_eq!(names.len(), is_sink.len());
        let actors = (0..names.len()).map(|_| ActorCell::default()).collect();
        MetricsRecorder {
            names,
            is_sink,
            actors,
            edges: Vec::new(),
            edge_index: HashMap::new(),
            events_routed: AtomicU64::new(0),
            latency: Arc::new(QuantileSketch::new()),
            run_started: AtomicU64::new(0),
            run_ended: AtomicU64::new(0),
            topology: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            adapt: AdaptCell::default(),
            checkpoints: OnceLock::new(),
        }
    }

    /// Record one written checkpoint's phases and size.
    pub fn record_checkpoint(&self, timing: &CheckpointTiming) {
        let cell = self.checkpoints.get_or_init(CheckpointCell::default);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(timing.bytes, Ordering::Relaxed);
        cell.quiesce.record(timing.quiesce);
        cell.capture.record(timing.capture);
        cell.encode.record(timing.encode);
        cell.write.record(timing.write);
    }

    /// Record how long the run took to resume after a checkpoint: from
    /// its write until the next segment started.
    pub fn record_checkpoint_resume(&self, resume: Micros) {
        self.checkpoints
            .get_or_init(CheckpointCell::default)
            .resume
            .record(resume);
    }

    /// Declare the workflow's channels so per-edge deliveries reported by
    /// [`Observer::on_route_edge`] can be counted lock-free. Deliveries on
    /// edges not declared here are ignored.
    pub fn with_edges(mut self, edges: Vec<(ActorId, ActorId, usize)>) -> Self {
        for (from, to, port) in edges {
            let key = (from.0, to.0, port);
            if self.edge_index.contains_key(&key) {
                continue;
            }
            self.edge_index.insert(key, self.edges.len());
            self.edges.push(EdgeCell {
                from,
                to,
                port,
                events: AtomicU64::new(0),
            });
        }
        self
    }

    fn cell(&self, actor: ActorId) -> Option<&ActorCell> {
        self.actors.get(actor.0)
    }

    /// Total successful firings across all actors.
    pub fn total_fires(&self) -> u64 {
        self.actors
            .iter()
            .map(|c| c.fires.load(Ordering::Relaxed))
            .sum()
    }

    /// Total channel deliveries observed.
    pub fn total_routed(&self) -> u64 {
        self.events_routed.load(Ordering::Relaxed)
    }

    /// Cumulative successful firings of one actor — a single relaxed
    /// load, cheap enough for samplers to call on every tick.
    pub fn actor_fires(&self, actor: ActorId) -> u64 {
        self.cell(actor)
            .map(|c| c.fires.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Cumulative successful firings per actor, indexed by `ActorId` —
    /// just the counter loads, no snapshot materialization. The stall
    /// watchdog polls this between accepted connections.
    pub fn fires_by_actor(&self) -> Vec<u64> {
        self.actors
            .iter()
            .map(|c| c.fires.load(Ordering::Relaxed))
            .collect()
    }

    /// The shared end-to-end latency sketch sink firings feed. Cloneable:
    /// hand it to [`LoadSignals`](super::LoadSignals) or a
    /// [`TimeSeriesRecorder`](super::TimeSeriesRecorder) to read live
    /// quantiles mid-run.
    pub fn latency_sketch(&self) -> Arc<QuantileSketch> {
        self.latency.clone()
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let actors = self
            .actors
            .iter()
            .enumerate()
            .map(|(i, c)| ActorMetrics {
                id: ActorId(i),
                name: self.names[i].clone(),
                fires: c.fires.load(Ordering::Relaxed),
                attempts: c.attempts.load(Ordering::Relaxed),
                busy: Micros(c.busy_micros.load(Ordering::Relaxed)),
                events_in: c.events_in.load(Ordering::Relaxed),
                tokens_out: c.tokens_out.load(Ordering::Relaxed),
                windows_closed: c.windows_closed.load(Ordering::Relaxed),
                queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
                events_expired: c.events_expired.load(Ordering::Relaxed),
                blocks: c.blocks.load(Ordering::Relaxed),
                block_time: Micros(c.block_micros.load(Ordering::Relaxed)),
                events_shed: c.events_shed.load(Ordering::Relaxed),
                routed_out: c.routed_out.load(Ordering::Relaxed),
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| EdgeMetrics {
                from: e.from,
                from_name: self.names.get(e.from.0).cloned().unwrap_or_default(),
                to: e.to,
                to_name: self.names.get(e.to.0).cloned().unwrap_or_default(),
                port: e.port,
                events: e.events.load(Ordering::Relaxed),
            })
            .collect();
        let mut workers = self.workers.lock().clone();
        workers.sort_by_key(|w| w.worker);
        let ports = {
            let topo = self.topology.lock();
            let mut v = Vec::with_capacity(topo.iter().map(|a| a.ports).sum());
            for a in topo.iter() {
                let inbox = a.inbox.upgrade();
                for port in 0..a.ports {
                    v.push(PortDepthMetrics {
                        actor: a.name.clone(),
                        port,
                        depth: inbox
                            .as_ref()
                            .map(|i| i.port_depth(port) as u64)
                            .unwrap_or(0),
                    });
                }
            }
            v
        };
        MetricsSnapshot {
            actors,
            edges,
            ports,
            events_routed: self.events_routed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            run_started: Timestamp(self.run_started.load(Ordering::Relaxed)),
            run_ended: Timestamp(self.run_ended.load(Ordering::Relaxed)),
            workers,
            adapt: AdaptMetrics {
                worker_grows: self.adapt.worker_grows.load(Ordering::Relaxed),
                worker_shrinks: self.adapt.worker_shrinks.load(Ordering::Relaxed),
                policy_swaps: self.adapt.policy_swaps.load(Ordering::Relaxed),
                shed_engagements: self.adapt.shed_engagements.load(Ordering::Relaxed),
                shed_disengagements: self.adapt.shed_disengagements.load(Ordering::Relaxed),
            },
            checkpoints: self
                .checkpoints
                .get()
                .map(|c| CheckpointMetrics {
                    count: c.count.load(Ordering::Relaxed),
                    bytes: c.bytes.load(Ordering::Relaxed),
                    quiesce: c.quiesce.snapshot(),
                    capture: c.capture.snapshot(),
                    encode: c.encode.snapshot(),
                    write: c.write.snapshot(),
                    resume: c.resume.snapshot(),
                })
                .unwrap_or_default(),
        }
    }
}

impl Observer for MetricsRecorder {
    fn on_run_phase(&self, phase: RunPhase, at: Timestamp) {
        match phase {
            RunPhase::Start => self.run_started.store(at.as_micros(), Ordering::Relaxed),
            RunPhase::End => self.run_ended.store(at.as_micros(), Ordering::Relaxed),
            _ => {}
        }
    }

    fn on_fire_end(&self, record: &FireRecord) {
        let Some(cell) = self.cell(record.actor) else {
            return;
        };
        cell.attempts.fetch_add(1, Ordering::Relaxed);
        if !record.fired {
            return;
        }
        cell.fires.fetch_add(1, Ordering::Relaxed);
        cell.busy_micros
            .fetch_add(record.busy.as_micros(), Ordering::Relaxed);
        cell.events_in.fetch_add(record.events_in, Ordering::Relaxed);
        cell.tokens_out
            .fetch_add(record.tokens_out, Ordering::Relaxed);
        if self.is_sink.get(record.actor.0).copied().unwrap_or(false) {
            if let Some(origin) = record.origin {
                self.latency.record(record.ended.since(origin));
            }
        }
    }

    fn on_route(&self, from: ActorId, delivered: u64, _at: Timestamp) {
        self.events_routed.fetch_add(delivered, Ordering::Relaxed);
        if let Some(cell) = self.cell(from) {
            cell.routed_out.fetch_add(delivered, Ordering::Relaxed);
        }
    }

    fn on_route_edge(&self, from: ActorId, to: ActorId, port: usize, events: u64, _at: Timestamp) {
        if let Some(&i) = self.edge_index.get(&(from.0, to.0, port)) {
            self.edges[i].events.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_window_close(
        &self,
        actor: ActorId,
        _port: usize,
        windows: usize,
        queue_depth: usize,
        _at: Timestamp,
    ) {
        if let Some(cell) = self.cell(actor) {
            cell.windows_closed
                .fetch_add(windows as u64, Ordering::Relaxed);
            cell.queue_high_water
                .fetch_max(queue_depth as u64, Ordering::Relaxed);
        }
    }

    fn on_expire(&self, actor: ActorId, _port: usize, events: u64, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.events_expired.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_block(&self, actor: ActorId, _port: usize, waited: Micros, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.blocks.fetch_add(1, Ordering::Relaxed);
            cell.block_micros
                .fetch_add(waited.as_micros(), Ordering::Relaxed);
        }
    }

    fn on_shed(&self, actor: ActorId, _port: usize, events: u64, _at: Timestamp) {
        if let Some(cell) = self.cell(actor) {
            cell.events_shed.fetch_add(events, Ordering::Relaxed);
        }
    }

    fn on_worker(&self, metrics: &WorkerMetrics) {
        let mut workers = self.workers.lock();
        match workers.iter_mut().find(|w| w.worker == metrics.worker) {
            Some(w) => *w = metrics.clone(),
            None => workers.push(metrics.clone()),
        }
    }

    fn on_topology(&self, topology: &TopologySnapshot) {
        *self.topology.lock() = topology.actors.clone();
    }

    fn on_adapt(&self, event: &AdaptEvent, _at: Timestamp) {
        let cell = match event {
            AdaptEvent::GrowWorkers { .. } => &self.adapt.worker_grows,
            AdaptEvent::ShrinkWorkers { .. } => &self.adapt.worker_shrinks,
            AdaptEvent::SwapPolicy { .. } => &self.adapt.policy_swaps,
            AdaptEvent::ShedEngage { .. } => &self.adapt.shed_engagements,
            AdaptEvent::ShedDisengage => &self.adapt.shed_disengagements,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time view over a [`MetricsRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub actors: Vec<ActorMetrics>,
    /// Per-channel delivery counts, in the workflow's channel order
    /// (empty unless the recorder was built with the workflow topology).
    pub edges: Vec<EdgeMetrics>,
    /// Live per-port inbox depths at snapshot time (empty unless a run
    /// reported its topology; all zero once the fabric is torn down).
    pub ports: Vec<PortDepthMetrics>,
    /// Channel deliveries across the whole workflow.
    pub events_routed: u64,
    /// End-to-end tuple latency at the sinks (director time): a
    /// relative-error quantile sketch with exact-γ p50/p95/p99.
    pub latency: SketchSnapshot,
    /// Director time at [`RunPhase::Start`].
    pub run_started: Timestamp,
    /// Director time at [`RunPhase::End`].
    pub run_ended: Timestamp,
    /// Per-worker counters from pooled executors, ordered by worker index
    /// (empty under the thread-per-actor directors).
    pub workers: Vec<WorkerMetrics>,
    /// Adaptive-controller decision counts (all zero when no
    /// `AdaptivePolicy` is configured).
    pub adapt: AdaptMetrics,
    /// Checkpoint counts and phase times (empty without checkpoints).
    pub checkpoints: CheckpointMetrics,
}

impl MetricsSnapshot {
    /// Total successful firings.
    pub fn total_fires(&self) -> u64 {
        self.actors.iter().map(|a| a.fires).sum()
    }

    /// Metrics for the actor named `name`, if present.
    pub fn actor(&self, name: &str) -> Option<&ActorMetrics> {
        self.actors.iter().find(|a| a.name == name)
    }

    /// Total backpressure blocks across all actors.
    pub fn total_blocks(&self) -> u64 {
        self.actors.iter().map(|a| a.blocks).sum()
    }

    /// Total time writers spent blocked, across all actors.
    pub fn total_block_time(&self) -> Micros {
        Micros(self.actors.iter().map(|a| a.block_time.as_micros()).sum())
    }

    /// Total events shed by drop channel policies across all actors.
    pub fn total_shed(&self) -> u64 {
        self.actors.iter().map(|a| a.events_shed).sum()
    }

    /// Highest observed inbox depth across all actors.
    pub fn max_queue_high_water(&self) -> u64 {
        self.actors
            .iter()
            .map(|a| a.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Recover the per-shard view from the generated `base#<i>` replica
    /// names, one [`ShardMetrics`] per expanded shard group in base-name
    /// order. Workflows without sharding yield an empty vec.
    pub fn shards(&self) -> Vec<ShardMetrics> {
        let mut groups: Vec<ShardMetrics> = Vec::new();
        for a in &self.actors {
            let Some((base, idx)) = a.name.rsplit_once('#') else {
                continue;
            };
            let Ok(replica) = idx.parse::<usize>() else {
                continue; // `base#split` / `base#merge` helpers.
            };
            let entry = ShardReplicaMetrics {
                replica,
                fires: a.fires,
                events_in: a.events_in,
                tokens_out: a.tokens_out,
                queue_high_water: a.queue_high_water,
                busy: a.busy,
            };
            match groups.iter_mut().find(|g| g.base == base) {
                Some(g) => g.replicas.push(entry),
                None => groups.push(ShardMetrics {
                    base: base.to_string(),
                    replicas: vec![entry],
                }),
            }
        }
        for g in &mut groups {
            g.replicas.sort_by_key(|r| r.replica);
        }
        groups.sort_by(|a, b| a.base.cmp(&b.base));
        groups
    }

    /// Serialize as a self-contained JSON document (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.actors.len() * 192);
        out.push('{');
        push_kv_u64(&mut out, "events_routed", self.events_routed);
        out.push(',');
        push_kv_u64(&mut out, "total_fires", self.total_fires());
        out.push(',');
        push_kv_u64(&mut out, "run_started_us", self.run_started.as_micros());
        out.push(',');
        push_kv_u64(&mut out, "run_ended_us", self.run_ended.as_micros());
        out.push_str(",\"actors\":[");
        for (i, a) in self.actors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"name\":");
            push_json_string(&mut out, &a.name);
            out.push(',');
            push_kv_u64(&mut out, "fires", a.fires);
            out.push(',');
            push_kv_u64(&mut out, "attempts", a.attempts);
            out.push(',');
            push_kv_u64(&mut out, "busy_us", a.busy.as_micros());
            out.push(',');
            push_kv_u64(&mut out, "events_in", a.events_in);
            out.push(',');
            push_kv_u64(&mut out, "tokens_out", a.tokens_out);
            out.push(',');
            push_kv_u64(&mut out, "windows_closed", a.windows_closed);
            out.push(',');
            push_kv_u64(&mut out, "queue_high_water", a.queue_high_water);
            out.push(',');
            push_kv_u64(&mut out, "events_expired", a.events_expired);
            out.push(',');
            push_kv_u64(&mut out, "blocks", a.blocks);
            out.push(',');
            push_kv_u64(&mut out, "block_us", a.block_time.as_micros());
            out.push(',');
            push_kv_u64(&mut out, "events_shed", a.events_shed);
            out.push(',');
            push_kv_u64(&mut out, "routed_out", a.routed_out);
            out.push('}');
        }
        out.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"from\":");
            push_json_string(&mut out, &e.from_name);
            out.push_str(",\"to\":");
            push_json_string(&mut out, &e.to_name);
            out.push(',');
            push_kv_u64(&mut out, "port", e.port as u64);
            out.push(',');
            push_kv_u64(&mut out, "events", e.events);
            out.push('}');
        }
        out.push_str("],\"ports\":[");
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str("\"actor\":");
            push_json_string(&mut out, &p.actor);
            out.push(',');
            push_kv_u64(&mut out, "port", p.port as u64);
            out.push(',');
            push_kv_u64(&mut out, "depth", p.depth);
            out.push('}');
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv_u64(&mut out, "worker", w.worker as u64);
            out.push(',');
            push_kv_u64(&mut out, "fires", w.fires);
            out.push(',');
            push_kv_u64(&mut out, "steals", w.steals);
            out.push(',');
            push_kv_u64(&mut out, "queue_depth", w.queue_depth);
            out.push(',');
            push_kv_u64(&mut out, "busy_us", w.busy_micros);
            out.push('}');
        }
        out.push_str("],\"adapt\":{");
        push_kv_u64(&mut out, "worker_grows", self.adapt.worker_grows);
        out.push(',');
        push_kv_u64(&mut out, "worker_shrinks", self.adapt.worker_shrinks);
        out.push(',');
        push_kv_u64(&mut out, "policy_swaps", self.adapt.policy_swaps);
        out.push(',');
        push_kv_u64(&mut out, "shed_engagements", self.adapt.shed_engagements);
        out.push(',');
        push_kv_u64(&mut out, "shed_disengagements", self.adapt.shed_disengagements);
        out.push('}');
        if self.checkpoints.count > 0 {
            out.push_str(",\"checkpoints\":{");
            push_kv_u64(&mut out, "count", self.checkpoints.count);
            out.push(',');
            push_kv_u64(&mut out, "bytes", self.checkpoints.bytes);
            for (phase, sketch) in self.checkpoints.phases() {
                out.push(',');
                push_kv_u64(&mut out, &format!("{phase}_p50_us"), sketch.p50());
                out.push(',');
                push_kv_u64(&mut out, &format!("{phase}_max_us"), sketch.max_micros);
            }
            out.push('}');
        }
        out.push_str(",\"latency\":{");
        push_kv_u64(&mut out, "count", self.latency.count);
        out.push(',');
        push_kv_u64(&mut out, "sum_us", self.latency.sum_micros);
        out.push(',');
        push_kv_u64(&mut out, "max_us", self.latency.max_micros);
        out.push(',');
        push_kv_u64(&mut out, "p50_us", self.latency.p50());
        out.push(',');
        push_kv_u64(&mut out, "p95_us", self.latency.p95());
        out.push(',');
        push_kv_u64(&mut out, "p99_us", self.latency.p99());
        out.push(',');
        push_kv_u64(&mut out, "alpha_ppm", self.latency.alpha_ppm as u64);
        // Sparse `[index, count]` pairs — the sketch's γ-buckets are
        // mostly empty.
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (i, n) in self.latency.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{i},{n}]"));
        }
        out.push_str("]}}");
        out
    }

    /// Serialize in the Prometheus text exposition format. Latencies are
    /// exported as a cumulative histogram in seconds.
    pub fn to_prometheus(&self) -> String {
        type MetricCol = (&'static str, &'static str, fn(&ActorMetrics) -> u64);
        let mut out = String::with_capacity(512 + self.actors.len() * 512);
        let gauges: [MetricCol; 1] = [(
            "confluence_actor_queue_high_water",
            "Highest observed inbox depth per actor",
            |a| a.queue_high_water,
        )];
        let counters: [MetricCol; 11] = [
            (
                "confluence_actor_fires_total",
                "Successful firings per actor",
                |a| a.fires,
            ),
            (
                "confluence_actor_attempts_total",
                "Firing attempts per actor (including prefire refusals)",
                |a| a.attempts,
            ),
            (
                "confluence_actor_busy_microseconds_total",
                "Busy time charged per actor in microseconds",
                |a| a.busy.as_micros(),
            ),
            (
                "confluence_actor_events_in_total",
                "Events consumed from input windows per actor",
                |a| a.events_in,
            ),
            (
                "confluence_actor_tokens_out_total",
                "Tokens emitted on output ports per actor",
                |a| a.tokens_out,
            ),
            (
                "confluence_actor_windows_closed_total",
                "Ready windows formed on input ports per actor",
                |a| a.windows_closed,
            ),
            (
                "confluence_actor_events_expired_total",
                "Events expired out of windows per actor",
                |a| a.events_expired,
            ),
            (
                "confluence_actor_blocks_total",
                "Backpressure blocks on the actor's full input ports",
                |a| a.blocks,
            ),
            (
                "confluence_actor_block_microseconds_total",
                "Time writers spent blocked on the actor's full input ports",
                |a| a.block_time.as_micros(),
            ),
            (
                "confluence_actor_events_shed_total",
                "Events shed at the actor's full input ports by drop policies",
                |a| a.events_shed,
            ),
            (
                "confluence_actor_routed_out_total",
                "Events the actor delivered downstream",
                |a| a.routed_out,
            ),
        ];
        for (name, help, get) in counters {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for a in &self.actors {
                out.push_str(&format!(
                    "{name}{{actor=\"{}\"}} {}\n",
                    escape_label(&a.name),
                    get(a)
                ));
            }
        }
        for (name, help, get) in gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for a in &self.actors {
                out.push_str(&format!(
                    "{name}{{actor=\"{}\"}} {}\n",
                    escape_label(&a.name),
                    get(a)
                ));
            }
        }
        out.push_str(
            "# HELP confluence_events_routed_total Channel deliveries across the workflow\n\
             # TYPE confluence_events_routed_total counter\n",
        );
        out.push_str(&format!(
            "confluence_events_routed_total {}\n",
            self.events_routed
        ));
        if !self.edges.is_empty() {
            out.push_str(
                "# HELP confluence_edge_events_total Events delivered per channel\n\
                 # TYPE confluence_edge_events_total counter\n",
            );
            for e in &self.edges {
                out.push_str(&format!(
                    "confluence_edge_events_total{{from=\"{}\",to=\"{}\",port=\"{}\"}} {}\n",
                    escape_label(&e.from_name),
                    escape_label(&e.to_name),
                    e.port,
                    e.events
                ));
            }
        }
        if !self.workers.is_empty() {
            type WorkerCol = (&'static str, &'static str, fn(&WorkerMetrics) -> u64);
            let worker_counters: [WorkerCol; 3] = [
                (
                    "confluence_worker_fires_total",
                    "Firings executed per pool worker",
                    |w| w.fires,
                ),
                (
                    "confluence_worker_steals_total",
                    "Tasks stolen from other workers' deques per pool worker",
                    |w| w.steals,
                ),
                (
                    "confluence_worker_busy_microseconds_total",
                    "Time the pool worker spent executing firings",
                    |w| w.busy_micros,
                ),
            ];
            for (name, help, get) in worker_counters {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                for w in &self.workers {
                    out.push_str(&format!("{name}{{worker=\"{}\"}} {}\n", w.worker, get(w)));
                }
            }
            out.push_str(
                "# HELP confluence_worker_queue_depth High-water mark of the worker's ready deque\n\
                 # TYPE confluence_worker_queue_depth gauge\n",
            );
            for w in &self.workers {
                out.push_str(&format!(
                    "confluence_worker_queue_depth{{worker=\"{}\"}} {}\n",
                    w.worker, w.queue_depth
                ));
            }
        }
        type AdaptCol = (&'static str, &'static str, u64);
        let adapt_counters: [AdaptCol; 5] = [
            (
                "confluence_adapt_worker_grows_total",
                "Worker-set grow decisions applied by the adaptive controller",
                self.adapt.worker_grows,
            ),
            (
                "confluence_adapt_worker_shrinks_total",
                "Worker-set shrink decisions applied by the adaptive controller",
                self.adapt.worker_shrinks,
            ),
            (
                "confluence_adapt_policy_swaps_total",
                "Ready-queue policy hot-swaps applied by the adaptive controller",
                self.adapt.policy_swaps,
            ),
            (
                "confluence_adapt_shed_engagements_total",
                "Times the adaptive controller engaged admission-side load shedding",
                self.adapt.shed_engagements,
            ),
            (
                "confluence_adapt_shed_disengagements_total",
                "Times the adaptive controller disengaged admission-side load shedding",
                self.adapt.shed_disengagements,
            ),
        ];
        for (name, help, value) in adapt_counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        if self.checkpoints.count > 0 {
            self.push_checkpoint_metrics(&mut out);
        }
        let shards = self.shards();
        if !shards.is_empty() {
            out.push_str(
                "# HELP confluence_shard_replica_fires_total Successful firings per shard replica\n\
                 # TYPE confluence_shard_replica_fires_total counter\n",
            );
            for g in &shards {
                for r in &g.replicas {
                    out.push_str(&format!(
                        "confluence_shard_replica_fires_total{{shard=\"{}\",replica=\"{}\"}} {}\n",
                        escape_label(&g.base),
                        r.replica,
                        r.fires
                    ));
                }
            }
            out.push_str(
                "# HELP confluence_shard_replica_queue_high_water Highest observed inbox depth per shard replica\n\
                 # TYPE confluence_shard_replica_queue_high_water gauge\n",
            );
            for g in &shards {
                for r in &g.replicas {
                    out.push_str(&format!(
                        "confluence_shard_replica_queue_high_water{{shard=\"{}\",replica=\"{}\"}} {}\n",
                        escape_label(&g.base),
                        r.replica,
                        r.queue_high_water
                    ));
                }
            }
        }
        if !self.ports.is_empty() {
            out.push_str(
                "# HELP confluence_port_depth Live formed-window depth per actor input port\n\
                 # TYPE confluence_port_depth gauge\n",
            );
            for p in &self.ports {
                out.push_str(&format!(
                    "confluence_port_depth{{actor=\"{}\",port=\"{}\"}} {}\n",
                    escape_label(&p.actor),
                    p.port,
                    p.depth
                ));
            }
        }
        // End-to-end latency from the quantile sketch, as a conformant
        // cumulative histogram in integer microseconds: only occupied
        // γ-buckets are emitted, merged where their integer-ceiled upper
        // bounds collide so `le` stays strictly increasing.
        out.push_str(
            "# HELP confluence_latency_us End-to-end tuple latency at the sinks in microseconds\n\
             # TYPE confluence_latency_us histogram\n",
        );
        let mut cumulative = 0u64;
        let mut pending: Option<(u64, u64)> = None;
        for (i, n) in self.latency.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            cumulative += n;
            let Some(upper) = self.latency.bucket_upper_micros(i) else {
                continue; // Overflow bucket folds into +Inf below.
            };
            let le = upper.ceil() as u64;
            match pending {
                Some((ple, _)) if ple == le => pending = Some((le, cumulative)),
                Some((ple, pcum)) => {
                    out.push_str(&format!(
                        "confluence_latency_us_bucket{{le=\"{ple}\"}} {pcum}\n"
                    ));
                    pending = Some((le, cumulative));
                }
                None => pending = Some((le, cumulative)),
            }
        }
        if let Some((le, cum)) = pending {
            out.push_str(&format!("confluence_latency_us_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        out.push_str(&format!(
            "confluence_latency_us_bucket{{le=\"+Inf\"}} {}\n",
            self.latency.count
        ));
        out.push_str(&format!(
            "confluence_latency_us_sum {}\n",
            self.latency.sum_micros
        ));
        out.push_str(&format!(
            "confluence_latency_us_count {}\n",
            self.latency.count
        ));
        // The sketch's exact-γ quantiles as a Prometheus summary.
        out.push_str(
            "# HELP confluence_latency_summary_us End-to-end tuple latency quantiles (sketch, relative error <= alpha)\n\
             # TYPE confluence_latency_summary_us summary\n",
        );
        for (q, v) in [
            ("0.5", self.latency.p50()),
            ("0.95", self.latency.p95()),
            ("0.99", self.latency.p99()),
        ] {
            out.push_str(&format!(
                "confluence_latency_summary_us{{quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "confluence_latency_summary_us_sum {}\n",
            self.latency.sum_micros
        ));
        out.push_str(&format!(
            "confluence_latency_summary_us_count {}\n",
            self.latency.count
        ));
        out
    }

    /// The `confluence_checkpoint_*` families: counters plus one summary
    /// of wall time per checkpoint phase.
    fn push_checkpoint_metrics(&self, out: &mut String) {
        let cp = &self.checkpoints;
        for (name, help, value) in [
            (
                "confluence_checkpoint_taken_total",
                "Checkpoints written",
                cp.count,
            ),
            (
                "confluence_checkpoint_bytes_total",
                "Snapshot bytes written across all checkpoints",
                cp.bytes,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        out.push_str(
            "# HELP confluence_checkpoint_phase_us Wall time per checkpoint phase in microseconds (quiesce, capture, encode, write, resume)\n\
             # TYPE confluence_checkpoint_phase_us summary\n",
        );
        for (phase, sketch) in cp.phases() {
            for (q, v) in [
                ("0.5", sketch.p50()),
                ("0.95", sketch.p95()),
                ("1", sketch.max_micros),
            ] {
                out.push_str(&format!(
                    "confluence_checkpoint_phase_us{{phase=\"{phase}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "confluence_checkpoint_phase_us_sum{{phase=\"{phase}\"}} {}\n\
                 confluence_checkpoint_phase_us_count{{phase=\"{phase}\"}} {}\n",
                sketch.sum_micros, sketch.count
            ));
        }
    }

    /// Render the per-actor table for terminal output (bench runner).
    pub fn render_table(&self) -> String {
        let name_w = self
            .actors
            .iter()
            .map(|a| a.name.len())
            .chain(["actor".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>8}  {:>9}  {:>7}  {:>7}  {:>7}\n",
            "actor", "fires", "busy_us", "events_in", "tokens_out", "windows", "queue_max", "expired", "blocks", "shed"
        ));
        for a in &self.actors {
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>8}  {:>9}  {:>7}  {:>7}  {:>7}\n",
                a.name,
                a.fires,
                a.busy.as_micros(),
                a.events_in,
                a.tokens_out,
                a.windows_closed,
                a.queue_high_water,
                a.events_expired,
                a.blocks,
                a.events_shed
            ));
        }
        for w in &self.workers {
            out.push_str(&format!(
                "worker {}: fires={} steals={} queue_max={} busy_us={}\n",
                w.worker, w.fires, w.steals, w.queue_depth, w.busy_micros
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "edge {} -> {}:{}  events={}\n",
                e.from_name, e.to_name, e.port, e.events
            ));
        }
        if self.adapt.any() {
            out.push_str(&format!(
                "adapt: grows={} shrinks={} swaps={} shed_on={} shed_off={}\n",
                self.adapt.worker_grows,
                self.adapt.worker_shrinks,
                self.adapt.policy_swaps,
                self.adapt.shed_engagements,
                self.adapt.shed_disengagements
            ));
        }
        out.push_str(&format!(
            "routed={}  sink_latency: count={} mean={} p95={} max={}µs\n",
            self.events_routed,
            self.latency.count,
            self.latency.mean(),
            self.latency.p95(),
            self.latency.max_micros
        ));
        out
    }
}

fn push_kv_u64(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder2() -> MetricsRecorder {
        MetricsRecorder::with_names(
            vec!["src".into(), "sink".into()],
            vec![false, true],
        )
    }

    fn fire(actor: usize, busy: u64, origin: Option<u64>, ended: u64) -> FireRecord {
        FireRecord {
            actor: ActorId(actor),
            started: Timestamp(ended.saturating_sub(busy)),
            ended: Timestamp(ended),
            busy: Micros(busy),
            events_in: 2,
            tokens_out: 3,
            origin: origin.map(Timestamp),
            trigger: None,
            fired: true,
        }
    }

    #[test]
    fn recorder_aggregates_fire_records() {
        let r = recorder2();
        r.on_run_phase(RunPhase::Start, Timestamp(10));
        r.on_fire_end(&fire(0, 5, None, 20));
        r.on_fire_end(&fire(0, 5, None, 30));
        r.on_fire_end(&fire(1, 7, Some(20), 50));
        // A refused attempt counts as an attempt only.
        r.on_fire_end(&FireRecord {
            fired: false,
            ..fire(1, 0, None, 50)
        });
        r.on_route(ActorId(0), 4, Timestamp(20));
        r.on_window_close(ActorId(1), 0, 2, 6, Timestamp(25));
        r.on_window_close(ActorId(1), 0, 1, 3, Timestamp(26));
        r.on_expire(ActorId(1), 0, 9, Timestamp(27));
        r.on_run_phase(RunPhase::End, Timestamp(60));

        let s = r.snapshot();
        assert_eq!(s.total_fires(), 3);
        assert_eq!(s.events_routed, 4);
        assert_eq!(s.run_started, Timestamp(10));
        assert_eq!(s.run_ended, Timestamp(60));
        let src = s.actor("src").unwrap();
        assert_eq!((src.fires, src.attempts), (2, 2));
        assert_eq!(src.busy, Micros(10));
        assert_eq!(src.events_in, 4);
        assert_eq!(src.tokens_out, 6);
        let sink = s.actor("sink").unwrap();
        assert_eq!((sink.fires, sink.attempts), (1, 2));
        assert_eq!(sink.windows_closed, 3);
        assert_eq!(sink.queue_high_water, 6);
        assert_eq!(sink.events_expired, 9);
        // Only the sink firing with an origin feeds the latency histogram.
        assert_eq!(s.latency.count, 1);
        assert_eq!(s.latency.sum_micros, 30);
    }

    #[test]
    fn non_sink_origins_do_not_feed_latency() {
        let r = recorder2();
        r.on_fire_end(&fire(0, 1, Some(5), 9));
        assert_eq!(r.snapshot().latency.count, 0);
    }

    #[test]
    fn json_shape_and_escaping() {
        let r = MetricsRecorder::with_names(vec!["a\"b".into()], vec![true]);
        r.on_fire_end(&fire(0, 2, Some(1), 4));
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"fires\":1"));
        assert!(json.contains("\"events_routed\":0"));
        assert!(json.contains("\"latency\":{\"count\":1"));
        // Balanced braces/brackets — cheap structural check without a parser.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn prometheus_shape() {
        let r = recorder2();
        r.on_fire_end(&fire(0, 5, None, 20));
        r.on_fire_end(&fire(1, 7, Some(20), 50));
        r.on_route(ActorId(0), 2, Timestamp(20));
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE confluence_actor_fires_total counter"));
        assert!(text.contains("confluence_actor_fires_total{actor=\"src\"} 1"));
        assert!(text.contains("confluence_actor_fires_total{actor=\"sink\"} 1"));
        assert!(text.contains("confluence_events_routed_total 2"));
        // The dead seconds-histogram is gone; the sketch-backed µs
        // histogram is the only latency histogram.
        assert!(!text.contains("confluence_tuple_latency_seconds"));
        assert!(text.contains("# TYPE confluence_latency_us histogram"));
        assert!(text.contains("confluence_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("confluence_latency_us_sum 30"));
        assert!(text.contains("confluence_latency_us_count 1"));
        assert!(text.contains("# TYPE confluence_latency_summary_us summary"));
        assert!(text.contains("confluence_latency_summary_us{quantile=\"0.95\"}"));
        // Cumulative buckets never decrease, per histogram series.
        let mut last: HashMap<&str, u64> = HashMap::new();
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let name = line.split('{').next().unwrap();
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            let prev = last.entry(name).or_insert(0);
            assert!(v >= *prev, "bucket series {name} decreased");
            *prev = v;
        }
        assert_eq!(last.len(), 1, "exactly one latency histogram series");
    }

    #[test]
    fn microsecond_histogram_has_integer_cumulative_buckets() {
        let r = recorder2();
        for (origin, ended) in [(0, 3), (0, 3), (0, 1000)] {
            r.on_fire_end(&fire(1, 1, Some(origin), ended));
        }
        let text = r.snapshot().to_prometheus();
        // Occupied γ-buckets only: integer `le` bounds, cumulative counts.
        let les: Vec<(u64, u64)> = text
            .lines()
            .filter(|l| {
                l.starts_with("confluence_latency_us_bucket{le=\"") && !l.contains("+Inf")
            })
            .map(|l| {
                let le = l.split('"').nth(1).unwrap().parse().unwrap();
                let v = l.rsplit(' ').next().unwrap().parse().unwrap();
                (le, v)
            })
            .collect();
        assert_eq!(les.len(), 2, "two occupied buckets:\n{text}");
        // 3µs bucket: bound covers the sample within the 1% γ-width.
        assert!(les[0].0 >= 3 && les[0].0 <= 4 && les[0].1 == 2, "{les:?}");
        assert!(les[1].0 >= 1000 && les[1].0 <= 1021 && les[1].1 == 3, "{les:?}");
        assert!(text.contains("confluence_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("confluence_latency_us_sum 1006"));
        assert!(text.contains("confluence_latency_us_count 3"));
        assert!(text.contains("confluence_latency_summary_us_count 3"));
    }

    #[test]
    fn port_depths_are_exported_after_topology() {
        use std::sync::Weak;
        let r = recorder2();
        r.on_topology(&TopologySnapshot {
            actors: vec![ActorTopology {
                id: ActorId(1),
                name: "sink".into(),
                ports: 2,
                inbox: Weak::new(),
            }],
        });
        let s = r.snapshot();
        assert_eq!(s.ports.len(), 2);
        assert_eq!(s.ports[0], PortDepthMetrics { actor: "sink".into(), port: 0, depth: 0 });
        let prom = s.to_prometheus();
        assert!(prom.contains("confluence_port_depth{actor=\"sink\",port=\"0\"} 0"));
        assert!(prom.contains("confluence_port_depth{actor=\"sink\",port=\"1\"} 0"));
        assert!(s.to_json().contains("\"ports\":[{\"actor\":\"sink\",\"port\":0,\"depth\":0}"));
        // Without a reported topology the section is absent.
        assert!(!recorder2().snapshot().to_prometheus().contains("confluence_port_depth"));
    }

    #[test]
    fn edge_counts_are_attributed_and_exported() {
        let r = recorder2().with_edges(vec![(ActorId(0), ActorId(1), 0)]);
        r.on_route_edge(ActorId(0), ActorId(1), 0, 5, Timestamp(1));
        r.on_route_edge(ActorId(0), ActorId(1), 0, 2, Timestamp(2));
        // Deliveries on an undeclared edge are ignored, not misattributed.
        r.on_route_edge(ActorId(1), ActorId(0), 3, 99, Timestamp(3));
        let s = r.snapshot();
        assert_eq!(s.edges.len(), 1);
        let e = &s.edges[0];
        assert_eq!((e.from, e.to, e.port, e.events), (ActorId(0), ActorId(1), 0, 7));
        assert_eq!((e.from_name.as_str(), e.to_name.as_str()), ("src", "sink"));
        let json = s.to_json();
        assert!(json.contains(
            "\"edges\":[{\"from\":\"src\",\"to\":\"sink\",\"port\":0,\"events\":7}]"
        ));
        let prom = s.to_prometheus();
        assert!(prom.contains(
            "confluence_edge_events_total{from=\"src\",to=\"sink\",port=\"0\"} 7"
        ));
        let table = s.render_table();
        assert!(table.contains("edge src -> sink:0  events=7"));
    }

    #[test]
    fn on_route_attributes_deliveries_to_the_producer() {
        let r = recorder2();
        r.on_route(ActorId(0), 4, Timestamp(20));
        r.on_route(ActorId(0), 3, Timestamp(21));
        let s = r.snapshot();
        assert_eq!(s.actor("src").unwrap().routed_out, 7);
        assert_eq!(s.actor("sink").unwrap().routed_out, 0);
        assert_eq!(s.events_routed, 7);
        assert!(s.to_json().contains("\"routed_out\":7"));
        assert!(s
            .to_prometheus()
            .contains("confluence_actor_routed_out_total{actor=\"src\"} 7"));
    }

    #[test]
    fn recorder_aggregates_backpressure_hooks() {
        let r = recorder2();
        r.on_block(ActorId(1), 0, Micros(200), Timestamp(5));
        r.on_block(ActorId(1), 0, Micros(300), Timestamp(6));
        r.on_shed(ActorId(1), 0, 4, Timestamp(7));
        let s = r.snapshot();
        let sink = s.actor("sink").unwrap();
        assert_eq!(sink.blocks, 2);
        assert_eq!(sink.block_time, Micros(500));
        assert_eq!(sink.events_shed, 4);
        assert_eq!(s.total_blocks(), 2);
        assert_eq!(s.total_block_time(), Micros(500));
        assert_eq!(s.total_shed(), 4);
        let json = s.to_json();
        assert!(json.contains("\"blocks\":2"));
        assert!(json.contains("\"block_us\":500"));
        assert!(json.contains("\"events_shed\":4"));
        let prom = s.to_prometheus();
        assert!(prom.contains("confluence_actor_blocks_total{actor=\"sink\"} 2"));
        assert!(prom.contains("confluence_actor_block_microseconds_total{actor=\"sink\"} 500"));
        assert!(prom.contains("confluence_actor_events_shed_total{actor=\"sink\"} 4"));
        assert!(prom.contains("confluence_actor_queue_high_water{actor=\"sink\"} 0"));
    }

    #[test]
    fn recorder_collects_worker_metrics() {
        let r = recorder2();
        let w1 = WorkerMetrics {
            worker: 1,
            fires: 8,
            steals: 2,
            queue_depth: 5,
            busy_micros: 90,
        };
        let w0 = WorkerMetrics {
            worker: 0,
            fires: 12,
            steals: 0,
            queue_depth: 3,
            busy_micros: 140,
        };
        r.on_worker(&w1);
        r.on_worker(&w0);
        // Re-reporting the same worker replaces, not duplicates.
        r.on_worker(&w0);
        let s = r.snapshot();
        assert_eq!(s.workers, vec![w0, w1], "sorted by worker index");
        let json = s.to_json();
        assert!(json.contains(
            "\"workers\":[{\"worker\":0,\"fires\":12,\"steals\":0,\"queue_depth\":3,\"busy_us\":140},\
             {\"worker\":1,\"fires\":8,\"steals\":2,\"queue_depth\":5,\"busy_us\":90}]"
        ));
        let prom = s.to_prometheus();
        assert!(prom.contains("confluence_worker_fires_total{worker=\"0\"} 12"));
        assert!(prom.contains("confluence_worker_steals_total{worker=\"1\"} 2"));
        assert!(prom.contains("confluence_worker_busy_microseconds_total{worker=\"0\"} 140"));
        assert!(prom.contains("confluence_worker_queue_depth{worker=\"1\"} 5"));
        let table = s.render_table();
        assert!(table.contains("worker 0: fires=12 steals=0 queue_max=3 busy_us=140"));
    }

    #[test]
    fn recorder_counts_adapt_decisions() {
        let r = recorder2();
        r.on_adapt(&AdaptEvent::GrowWorkers { from: 1, to: 2 }, Timestamp(1));
        r.on_adapt(&AdaptEvent::GrowWorkers { from: 2, to: 3 }, Timestamp(2));
        r.on_adapt(&AdaptEvent::ShrinkWorkers { from: 3, to: 2 }, Timestamp(3));
        r.on_adapt(&AdaptEvent::SwapPolicy { from: "fifo", to: "qbs" }, Timestamp(4));
        r.on_adapt(&AdaptEvent::ShedEngage { ratio_ppm: 100_000 }, Timestamp(5));
        r.on_adapt(&AdaptEvent::ShedDisengage, Timestamp(6));
        let s = r.snapshot();
        assert_eq!(s.adapt.worker_grows, 2);
        assert_eq!(s.adapt.worker_shrinks, 1);
        assert_eq!(s.adapt.policy_swaps, 1);
        assert_eq!(s.adapt.shed_engagements, 1);
        assert_eq!(s.adapt.shed_disengagements, 1);
        assert_eq!(s.adapt.worker_resizes(), 3);
        assert!(s.adapt.any());
        let json = s.to_json();
        assert!(json.contains(
            "\"adapt\":{\"worker_grows\":2,\"worker_shrinks\":1,\"policy_swaps\":1,\
             \"shed_engagements\":1,\"shed_disengagements\":1}"
        ));
        let prom = s.to_prometheus();
        assert!(prom.contains("confluence_adapt_worker_grows_total 2"));
        assert!(prom.contains("confluence_adapt_worker_shrinks_total 1"));
        assert!(prom.contains("confluence_adapt_policy_swaps_total 1"));
        assert!(prom.contains("confluence_adapt_shed_engagements_total 1"));
        assert!(prom.contains("confluence_adapt_shed_disengagements_total 1"));
        let table = s.render_table();
        assert!(table.contains("adapt: grows=2 shrinks=1 swaps=1 shed_on=1 shed_off=1"));
    }

    #[test]
    fn adapt_counters_zero_without_controller() {
        let s = recorder2().snapshot();
        assert!(!s.adapt.any());
        assert_eq!(s.adapt, AdaptMetrics::default());
        assert!(s.to_json().contains("\"adapt\":{\"worker_grows\":0"));
        assert!(s.to_prometheus().contains("confluence_adapt_worker_grows_total 0"));
        assert!(!s.render_table().contains("adapt:"));
    }

    #[test]
    fn worker_sections_absent_without_pool_runs() {
        let r = recorder2();
        let s = r.snapshot();
        assert!(s.workers.is_empty());
        assert!(s.to_json().contains("\"workers\":[]"));
        assert!(!s.to_prometheus().contains("confluence_worker_"));
        assert!(!s.render_table().contains("worker 0"));
    }

    #[test]
    fn checkpoint_metrics_only_after_a_checkpoint() {
        let r = recorder2();
        let s = r.snapshot();
        assert_eq!(s.checkpoints, CheckpointMetrics::default());
        assert!(r.checkpoints.get().is_none(), "no sketches allocated");
        assert!(!s.to_prometheus().contains("confluence_checkpoint_"));
        assert!(!s.to_json().contains("\"checkpoints\""));

        for (quiesce, bytes) in [(2_000, 1_000), (4_000, 3_000)] {
            r.record_checkpoint(&CheckpointTiming {
                quiesce: Micros(quiesce),
                capture: Micros(300),
                encode: Micros(700),
                write: Micros(900),
                bytes,
            });
        }
        r.record_checkpoint_resume(Micros(1_500));
        let s = r.snapshot();
        let cp = &s.checkpoints;
        assert_eq!((cp.count, cp.bytes), (2, 4_000));
        assert_eq!(cp.quiesce.count, 2);
        assert_eq!(cp.quiesce.max_micros, 4_000);
        assert_eq!(cp.resume.count, 1);
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE confluence_checkpoint_taken_total counter"));
        assert!(prom.contains("confluence_checkpoint_taken_total 2"));
        assert!(prom.contains("confluence_checkpoint_bytes_total 4000"));
        assert!(prom.contains("# TYPE confluence_checkpoint_phase_us summary"));
        for phase in ["quiesce", "capture", "encode", "write", "resume"] {
            assert!(
                prom.contains(&format!(
                    "confluence_checkpoint_phase_us_count{{phase=\"{phase}\"}}"
                )),
                "{phase}"
            );
        }
        assert!(prom.contains("confluence_checkpoint_phase_us_sum{phase=\"quiesce\"} 6000"));
        assert!(s
            .to_json()
            .contains("\"checkpoints\":{\"count\":2,\"bytes\":4000"));
    }

    #[test]
    fn table_lists_every_actor() {
        let r = recorder2();
        r.on_fire_end(&fire(0, 5, None, 20));
        let table = r.snapshot().render_table();
        assert!(table.contains("actor"));
        assert!(table.contains("src"));
        assert!(table.contains("sink"));
        assert!(table.contains("routed=0"));
    }
}

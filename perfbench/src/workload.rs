//! The four workloads and one timed execution ("repeat") of each.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use confluence_core::checkpoint::{Checkpoint, CheckpointResource, FabricState};
use confluence_core::director::pool::PoolDirector;
use confluence_core::director::pool_policy::{Fifo, PoolPolicy};
use confluence_core::engine::{Engine, ExecConfig, StopCondition};
use confluence_core::graph::Workflow;
use confluence_core::time::Timestamp;
use confluence_linearroad::cost::staf_cost_model;
use confluence_linearroad::{build, LrOptions, TollNotification, Workload, WorkloadConfig};
use confluence_relstore::StoreHandle;
use confluence_sched::policies::QbsScheduler;
use confluence_sched::{Scheduler, ScwfDirector};

use crate::probe::{ProbeLog, Seen, TollProbe};
use crate::stats;
use crate::trace::{BenchObserver, Session, TimedPolicy, TimedScheduler};

/// Workers of the batch pool run (`pool:2`): both cores share the work.
const BATCH_WORKERS: usize = 2;
/// Workers of the paced pool runs (`pool:1`). With two workers on two
/// virtual CPUs, host steal of either CPU stalled the whole pipeline and
/// toll p95 varied by ±30% between runs; one worker moves to the free CPU.
const PACED_WORKERS: usize = 1;
/// Replay factor and stream length of the paced workloads: an open loop at
/// about 3.8k reports/s, roughly 40% of one worker's capacity.
const PACED_SPEEDUP: u64 = 40;
const PACED_DURATION_SECS: u64 = 300;
/// Arrival compression that releases the whole timetable at t = 0.
const UNPACED_SPEEDUP: u64 = 1_000_000_000;
/// QBS basic quantum (µs) and source interval of the virtual-time run
/// (paper Table 3).
const QBS_QUANTUM_US: u64 = 500;
const QBS_SOURCE_INTERVAL: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Unpaced,
    Paced,
    PacedCkpt,
    Virtual,
}

impl Name {
    pub const ALL: [Name; 4] = [Name::Unpaced, Name::Paced, Name::PacedCkpt, Name::Virtual];

    pub fn label(self) -> &'static str {
        match self {
            Name::Unpaced => "lr_unpaced",
            Name::Paced => "lr_paced",
            Name::PacedCkpt => "lr_paced_ckpt",
            Name::Virtual => "lr_virtual",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.label() == s)
    }
}

/// Which director a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `PoolDirector` with FIFO ready queues on the wall clock.
    Pool { workers: usize },
    /// `ScwfDirector` with QBS in virtual time and the STAF cost model.
    Virtual,
}

/// A workload: generator configuration plus how it is executed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: Name,
    pub config: WorkloadConfig,
    pub speedup: u64,
    pub executor: Executor,
}

impl Spec {
    pub fn new(name: Name, seed: u64) -> Spec {
        let paper = WorkloadConfig {
            seed,
            ..WorkloadConfig::paper()
        };
        // A constant 3,000-car population on one full expressway.
        let steady = WorkloadConfig {
            duration_secs: PACED_DURATION_SECS,
            l_rating: 1.0,
            base_initial_cars: 3_000,
            base_final_cars: 3_000,
            ..paper.clone()
        };
        let (config, speedup, executor) = match name {
            Name::Unpaced => (
                paper,
                UNPACED_SPEEDUP,
                Executor::Pool {
                    workers: BATCH_WORKERS,
                },
            ),
            Name::Paced | Name::PacedCkpt => (
                steady,
                PACED_SPEEDUP,
                Executor::Pool {
                    workers: PACED_WORKERS,
                },
            ),
            Name::Virtual => (paper, 1, Executor::Virtual),
        };
        Spec {
            name,
            config,
            speedup,
            executor,
        }
    }

    /// Whether the source replays the timetable on the wall clock, so each
    /// report has a wall-clock due time.
    pub fn wall_paced(&self) -> bool {
        matches!(self.executor, Executor::Pool { .. }) && self.speedup < UNPACED_SPEEDUP
    }

    /// When the source is due to emit a report of stream time `time_s`, on
    /// the director's clock (virtual time under [`Executor::Virtual`]).
    pub fn director_due_us(&self, time_s: i64) -> u64 {
        Timestamp::from_secs(time_s as u64).as_micros() / self.speedup
    }

    /// When a report is due on the wall clock, in microseconds since the
    /// run started. Batch workloads release everything at the start.
    pub fn wall_due_us(&self, time_s: i64) -> u64 {
        if self.wall_paced() {
            self.director_due_us(time_s)
        } else {
            0
        }
    }

    /// Whether toll values may differ between runs. With the whole
    /// timetable released at once, a toll may read a segment statistic
    /// just before or just after its writer commits it; the set of tolls
    /// never varies.
    pub fn toll_values_race(&self) -> bool {
        self.name == Name::Unpaced
    }

    /// The same input on the virtual-time SCWF director, as `lr_virtual`
    /// runs the paper trace.
    pub fn virtual_replay(&self) -> Spec {
        Spec {
            speedup: 1,
            executor: Executor::Virtual,
            ..self.clone()
        }
    }

    /// Offered input rate in reports per wall second (paced workloads).
    pub fn offered_per_s(&self, reports: usize) -> Option<f64> {
        self.wall_paced()
            .then(|| reports as f64 * self.speedup as f64 / self.config.duration_secs as f64)
    }

    fn options(&self) -> LrOptions {
        LrOptions {
            arrival_speedup: self.speedup,
            ..LrOptions::default()
        }
    }
}

/// How one repeat runs.
pub struct RunPlan<'a> {
    /// Record spans and observer data into this session.
    pub trace: Option<&'a Arc<Session>>,
    /// Checkpoint every this many firings into this directory.
    pub checkpoint: Option<(u64, PathBuf)>,
}

/// Everything one repeat produced.
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub reports: usize,
    pub firings: u64,
    /// Tolls as the output probe saw them, in receipt order.
    pub seen: Vec<Seen>,
    /// Tolls with the director-clock receipt time the sink stamped.
    pub stamped: Vec<(TollNotification, Timestamp)>,
    pub error: Option<String>,
    /// The run's relational store after the run.
    pub store: StoreHandle,
    /// A checkpoint of the run: the last one written, or else the
    /// end-of-run actor and store state.
    pub checkpoint: Option<Checkpoint>,
    /// The traced run's observer, when traced.
    pub observer: Option<Arc<BenchObserver>>,
    /// Top-level actor names by actor index.
    pub actor_names: Vec<String>,
}

/// Generate the workload and build the workflow: the timed set-up.
fn setup(spec: &Spec) -> (Workload, confluence_linearroad::LinearRoad, f64) {
    let t = Instant::now();
    let workload = Workload::generate(spec.config.clone());
    let lr = build(&workload, &spec.options()).expect("Linear Road workflow builds");
    (workload, lr, t.elapsed().as_secs_f64())
}

/// Run one repeat of `spec`.
pub fn run(spec: &Spec, plan: &RunPlan<'_>, capture_checkpoint: bool) -> Outcome {
    let (workload, mut lr, setup_s) = setup(spec);
    let reports = workload.len();
    let actor_names: Vec<String> = lr
        .workflow
        .actor_ids()
        .map(|id| lr.workflow.node(id).name.clone())
        .collect();
    let probe = Arc::new(ProbeLog::default());
    let toll_id = lr
        .workflow
        .find("TollNotification")
        .expect("TollNotification actor");
    let sink = lr.workflow.node_mut(toll_id).take_actor();
    lr.workflow
        .node_mut(toll_id)
        .return_actor(Box::new(TollProbe::new(sink, probe.clone())));

    let observer = plan.trace.map(|session| {
        let ids: Vec<_> = lr.workflow.actor_ids().collect();
        for id in ids {
            let actor = lr.workflow.node_mut(id).take_actor();
            let timed = session.wrap_actor(id.index(), actor);
            lr.workflow.node_mut(id).return_actor(timed);
        }
        let source = lr.workflow.find("source").expect("source actor").index();
        let dues: Vec<u64> = workload
            .reports
            .iter()
            .map(|r| spec.director_due_us(r.time))
            .collect();
        Arc::new(BenchObserver::new(session.clone(), source, dues))
    });

    let mut engine = Engine::new(lr.workflow);
    if let Some((every, dir)) = &plan.checkpoint {
        engine = engine
            .register_checkpoint_resource("relstore", Arc::new(lr.store.clone()))
            .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(*every), dir));
    }
    if let Some(obs) = &observer {
        engine = engine.with_observer(obs.clone());
    }
    let cpu0 = stats::process_cpu_s();
    let started;
    let mut engine = match spec.executor {
        Executor::Pool { workers } => {
            let mut policy: Arc<dyn PoolPolicy> = Arc::new(Fifo);
            if let Some(session) = plan.trace {
                policy = Arc::new(TimedPolicy::new(policy, session.clone()));
            }
            let pool = PoolDirector::new()
                .with_workers(workers)
                .with_policy_arc(policy);
            // The director's wall clock starts in `new()`; the probe's
            // epoch is taken right after it, so due times line up.
            probe.start_clock();
            started = Instant::now();
            engine.with_director(pool)
        }
        Executor::Virtual => {
            let mut sched: Box<dyn Scheduler> =
                Box::new(QbsScheduler::new(QBS_QUANTUM_US, QBS_SOURCE_INTERVAL));
            if let Some(session) = plan.trace {
                sched = Box::new(TimedScheduler::new(sched, session.clone()));
            }
            let scwf = ScwfDirector::virtual_time(sched, Box::new(staf_cost_model()));
            probe.start_clock();
            started = Instant::now();
            engine.with_director(scwf)
        }
    };
    let result = engine.run();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu0;

    let (firings, error) = match result {
        Ok(report) => (report.firings, None),
        Err(e) => (0, Some(e.to_string())),
    };
    let stamped = lr
        .toll_output
        .items()
        .iter()
        .map(|i| {
            let n = TollNotification::from_token(&i.token).expect("toll notification token");
            (n, i.at)
        })
        .collect();
    let checkpoint = if !capture_checkpoint {
        None
    } else if let Some((_, dir)) = &plan.checkpoint {
        Some(Checkpoint::read_from_dir(dir).expect("read the run's last checkpoint"))
    } else {
        Some(end_of_run_checkpoint(engine.into_workflow(), &lr.store))
    };
    Outcome {
        setup_s,
        wall_s,
        cpu_s,
        reports,
        firings,
        seen: probe.take(),
        stamped,
        error,
        store: lr.store,
        checkpoint,
        observer,
        actor_names,
    }
}

/// The checkpoint a snapshot at the end of the run would hold: every
/// actor's durable state plus the relational store.
fn end_of_run_checkpoint(mut workflow: Workflow, store: &StoreHandle) -> Checkpoint {
    let mut actors = Vec::new();
    let ids: Vec<_> = workflow.actor_ids().collect();
    for id in ids {
        let name = workflow.node(id).name.clone();
        let actor = workflow.node_mut(id).take_actor();
        let state = actor.save_state().expect("actor state saves");
        workflow.node_mut(id).return_actor(actor);
        if let Some(bytes) = state {
            actors.push((name, bytes));
        }
    }
    Checkpoint {
        actors,
        fabric: FabricState::default(),
        resources: vec![("relstore".to_string(), store.save().expect("store saves"))],
    }
}

/// A fresh checkpoint directory under `root`, unique to this process.
pub fn checkpoint_dir(root: &Path, repeat: usize) -> PathBuf {
    let dir = root.join(format!("ckpt-{}-{repeat}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

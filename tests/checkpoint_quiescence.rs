//! Exact checkpoint quiescence: a pause ends when the fabric's in-flight
//! count drains, not after a timed stability window. A firing that is
//! still running when the pause is requested — and runs longer than any
//! fixed window would wait — must land in the snapshot, with every inbox
//! empty, and a run killed after such a pause must recover exactly.
//!
//! Every assertion is on counts and snapshot contents, never on wall time.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use confluence::core::actor::{Actor, FireContext, IoSignature};
use confluence::core::actors::{Collector, TimedSource, VecSource};
use confluence::core::checkpoint::{codec, QuiesceHook};
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::engine::{Engine, ExecConfig, StopCondition};
use confluence::core::error::Result;
use confluence::core::graph::{Workflow, WorkflowBuilder};
use confluence::core::time::Timestamp;
use confluence::core::token::Token;
use confluence::core::window::{GroupSnapshot, WindowSpec};

/// Longer than the fixed 200 ms drain-stability wait the directors used to
/// apply, so a timed window would have declared the fabric settled while
/// this firing was still running.
const SLOW: Duration = Duration::from_millis(300);

/// The director configurations that decide quiescence concurrently.
const DIRECTORS: [&str; 3] = ["pool:1", "pool:4", "threaded"];

fn director(name: &str) -> Box<dyn Director> {
    match name {
        "pool:1" => Box::new(PoolDirector::new().with_workers(1)),
        "pool:4" => Box::new(PoolDirector::new().with_workers(4)),
        _ => Box::new(ThreadedDirector::new()),
    }
}

/// Passes every token through; on `slow_on` it first requests a pause
/// (when it holds a hook), then sleeps [`SLOW`] before emitting.
struct SlowPass {
    slow_on: i64,
    hook: Option<Arc<QuiesceHook>>,
}

impl Actor for SlowPass {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                if t.as_int()? == self.slow_on {
                    if let Some(hook) = &self.hook {
                        hook.request_pause();
                    }
                    std::thread::sleep(SLOW);
                }
                ctx.emit(0, t.clone());
            }
        }
        Ok(())
    }
}

/// src → slow → {sink (one window per event), buffer (a window that never
/// forms, so everything sent to it stays in the port's operator state)}.
/// The source releases 0..=3 at once and the rest an hour later, so while
/// the slow firing on 3 runs, every inbox is empty and nothing moves.
fn pause_workflow(hook: Arc<QuiesceHook>) -> (Workflow, Collector) {
    let sink = Collector::new();
    let mut b = WorkflowBuilder::new("slow-pause");
    let arrivals = (0..8)
        .map(|i| {
            let at = if i <= 3 {
                Timestamp::ZERO
            } else {
                Timestamp::from_secs(3600)
            };
            (at, Token::Int(i))
        })
        .collect();
    let s = b.add_actor("src", TimedSource::new(arrivals));
    let slow = b.add_actor(
        "slow",
        SlowPass {
            slow_on: 3,
            hook: Some(hook),
        },
    );
    let k = b.add_actor("sink", sink.actor());
    let buf = b.add_actor("buffer", Collector::new().actor());
    b.connect(s, "out", slow, "in").unwrap();
    b.connect_windowed(slow, "out", k, "in", WindowSpec::each_event())
        .unwrap();
    b.connect_windowed(slow, "out", buf, "in", WindowSpec::tuples(1000, 1000))
        .unwrap();
    (b.build().unwrap(), sink)
}

#[test]
fn a_slow_firing_in_progress_lands_in_the_snapshot() {
    for name in DIRECTORS {
        let hook = QuiesceHook::new();
        let (mut wf, sink) = pause_workflow(hook.clone());
        let mut d = director(name);
        assert!(d.attach_checkpoint(hook.clone()));
        d.run(&mut wf).unwrap();
        let state = hook
            .take_captured()
            .unwrap_or_else(|| panic!("{name}: the pause deposited a snapshot"));

        for (id, actor) in state.actors.iter().enumerate() {
            assert!(
                actor.inbox.is_empty(),
                "{name}: inbox of actor {id} holds {} windows",
                actor.inbox.len()
            );
        }
        // The sink consumed every emission, the slow one included: nothing
        // was stranded past the pause.
        let got: Vec<i64> = sink.tokens().iter().map(|t| t.as_int().unwrap()).collect();
        assert_eq!(
            got,
            vec![0, 1, 2, 3],
            "{name}: the slow emission reached the sink"
        );
        // The buffer port's operator state — part of the snapshot — holds
        // the same events.
        let buffer = wf.find("buffer").unwrap();
        let buffered: Vec<i64> = match state.actors[buffer.index()].ports[0].groups.as_slice() {
            [GroupSnapshot::Tuples { events, .. }] => {
                events.iter().map(|e| e.token.as_int().unwrap()).collect()
            }
            other => panic!("{name}: unexpected buffer state {other:?}"),
        };
        assert_eq!(
            buffered, got,
            "{name}: snapshot holds the slow firing's emission"
        );
    }
}

/// Running sum that sleeps [`SLOW`] on each of `slow_on`: stateful, so a
/// lost or doubled event after recovery shows up as wrong sums.
struct SlowSum {
    sum: i64,
    slow_on: Vec<i64>,
}

impl Actor for SlowSum {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                let v = t.as_int()?;
                if self.slow_on.contains(&v) {
                    std::thread::sleep(SLOW);
                }
                self.sum += v;
                ctx.emit(0, Token::Int(self.sum));
            }
        }
        Ok(())
    }
    fn save_state(&self) -> Result<Option<Vec<u8>>> {
        let mut e = codec::Encoder::new();
        e.i64(self.sum);
        Ok(Some(e.into_bytes()))
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.sum = codec::Decoder::new(bytes).i64()?;
        Ok(())
    }
}

const ITEMS: i64 = 40;

fn summing_workflow() -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("slow-recover");
    let s = b.add_actor("src", VecSource::new((1..=ITEMS).map(Token::Int).collect()));
    let a = b.add_actor(
        "sum",
        SlowSum {
            sum: 0,
            slow_on: vec![4, 9, 30],
        },
    );
    let k = b.add_actor("sink", c.actor());
    b.connect(s, "out", a, "in").unwrap();
    b.connect(a, "out", k, "in").unwrap();
    (b.build().unwrap(), c)
}

fn engine(name: &str, wf: Workflow) -> Engine {
    match name {
        "pool:1" => Engine::new(wf).configure(ExecConfig::new().workers(1)),
        "pool:4" => Engine::new(wf).configure(ExecConfig::new().workers(4)),
        _ => Engine::new(wf),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "confluence-quiescence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_and_recover_around_slow_firings_reconverges() {
    let expected: Vec<Token> = (1..=ITEMS)
        .scan(0, |s, i| {
            *s += i;
            Some(Token::Int(*s))
        })
        .collect();
    for name in DIRECTORS {
        let dir = tmpdir(&name.replace(':', "-"));
        let killed_snapshot = {
            let (wf, _c) = summing_workflow();
            let mut e = engine(name, wf)
                .configure(ExecConfig::new().checkpoint_every(StopCondition::Firings(6), &dir));
            e.run_until(StopCondition::Firings(ITEMS as u64)).unwrap();
            e.snapshot().checkpoints
        };
        assert!(
            killed_snapshot.count >= 1,
            "{name}: the killed run checkpointed"
        );
        assert!(killed_snapshot.bytes > 0, "{name}");

        let (wf, c) = summing_workflow();
        let mut e = engine(name, wf).configure(ExecConfig::new().recover_from(&dir));
        e.run().unwrap();
        assert_eq!(
            c.tokens(),
            expected,
            "{name}: recovery reproduces the uninterrupted output"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

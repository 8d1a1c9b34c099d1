//! Cross-director equivalence: the same workflow specification computes
//! the same results under every model of computation — the Kepler/Ptolemy
//! decoupling the whole system rests on.
//!
//! A fixed pipeline runs under each director, then generated DAGs (random
//! fan-in and fan-out, tuple/sliding/grouped/wave windows, expired-item
//! handlers, bounded `Block` channels) run under every director and must
//! agree per sink; the deterministic directors must also agree on every
//! output's wave lineage.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use confluence::core::actor::{Actor, FireContext, IoSignature, SdfRates};
use confluence::core::actors::{Collector, FnActor, Router, VecSource};
use confluence::core::channel::ChannelPolicy;
use confluence::core::director::ddf::DdfDirector;
use confluence::core::director::de::DeDirector;
use confluence::core::director::pool::PoolDirector;
use confluence::core::director::sdf::SdfDirector;
use confluence::core::director::threaded::ThreadedDirector;
use confluence::core::director::Director;
use confluence::core::error::Result;
use confluence::core::graph::{ActorId, Workflow, WorkflowBuilder};
use confluence::core::telemetry::{FireRecord, Observer, Telemetry};
use confluence::core::time::{Micros, Timestamp};
use confluence::core::token::Token;
use confluence::core::wave::WaveTag;
use confluence::core::window::{GroupBy, Window, WindowSpec};
use confluence::sched::cost::TableCostModel;
use confluence::sched::policies::{FifoScheduler, QbsScheduler};
use confluence::sched::ScwfDirector;
use proptest::prelude::*;

/// Rate-declaring doubler so the same graph also runs under SDF.
struct Double;
impl Actor for Double {
    fn signature(&self) -> IoSignature {
        IoSignature::transform("in", "out")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while let Some(w) = ctx.get(0) {
            for t in w.tokens() {
                ctx.emit(0, Token::Int(t.as_int()? * 2));
            }
        }
        Ok(())
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![1],
        })
    }
}

struct RatedSource(Vec<Token>);
impl Actor for RatedSource {
    fn signature(&self) -> IoSignature {
        IoSignature::source("out")
    }
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(!self.0.is_empty())
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        ctx.emit(0, self.0.remove(0));
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        Ok(!self.0.is_empty())
    }
    fn is_source(&self) -> bool {
        true
    }
    fn next_arrival(&self) -> Option<confluence::core::time::Timestamp> {
        if self.0.is_empty() {
            None
        } else {
            Some(confluence::core::time::Timestamp::ZERO)
        }
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![],
            produce: vec![1],
        })
    }
}

struct RatedCollector(confluence::core::actors::CollectorActor);
impl Actor for RatedCollector {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.0.fire(ctx)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

fn pipeline(rated: bool) -> (Workflow, Collector) {
    let c = Collector::new();
    let mut b = WorkflowBuilder::new("pipeline");
    let inputs: Vec<Token> = (1..=20).map(Token::Int).collect();
    let s = if rated {
        b.add_actor("src", RatedSource(inputs))
    } else {
        b.add_actor("src", VecSource::new(inputs))
    };
    let d = b.add_actor("double", Double);
    let k = if rated {
        b.add_actor("sink", RatedCollector(c.actor()))
    } else {
        b.add_actor("sink", c.actor())
    };
    b.connect(s, "out", d, "in").unwrap();
    b.connect(d, "out", k, "in").unwrap();
    (b.build().unwrap(), c)
}

fn expected() -> Vec<i64> {
    (1..=20).map(|i| i * 2).collect()
}

fn collected(c: &Collector) -> Vec<i64> {
    c.tokens().iter().map(|t| t.as_int().unwrap()).collect()
}

#[test]
fn threaded_pncwf() {
    let (mut wf, c) = pipeline(false);
    ThreadedDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn sdf() {
    let (mut wf, c) = pipeline(true);
    SdfDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn ddf() {
    let (mut wf, c) = pipeline(false);
    DdfDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn de() {
    let (mut wf, c) = pipeline(false);
    DeDirector::new().run(&mut wf).unwrap();
    assert_eq!(collected(&c), expected());
}

#[test]
fn scwf_fifo_and_qbs() {
    for policy in [
        Box::new(FifoScheduler::new(5)) as Box<dyn confluence::sched::Scheduler>,
        Box::new(QbsScheduler::new(500, 5)),
    ] {
        let (mut wf, c) = pipeline(false);
        let cost = TableCostModel::uniform(Micros(10), Micros(1));
        ScwfDirector::virtual_time(policy, Box::new(cost))
            .run(&mut wf)
            .unwrap();
        assert_eq!(collected(&c), expected());
    }
}

#[test]
fn scwf_real_time() {
    let (mut wf, c) = pipeline(false);
    ScwfDirector::real_time(Box::new(FifoScheduler::new(5)))
        .run(&mut wf)
        .unwrap();
    assert_eq!(collected(&c), expected());
}

// ---------------------------------------------------------------------------
// Generated graphs
// ---------------------------------------------------------------------------

/// Delegates to `inner`, declaring SDF rates so the same generated graph
/// can also run under SDF when its shape allows.
struct Rated<A> {
    inner: A,
    rates: SdfRates,
}

impl<A: Actor> Actor for Rated<A> {
    fn signature(&self) -> IoSignature {
        self.inner.signature()
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        self.inner.fire(ctx)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(self.rates.clone())
    }
}

fn rated<A: Actor>(inner: A, consume: usize, produce: &[u32]) -> Rated<A> {
    Rated {
        inner,
        rates: SdfRates {
            consume: vec![1; consume],
            produce: produce.to_vec(),
        },
    }
}

fn rec(k: i64, v: i64) -> Token {
    Token::record().field("k", k).field("v", v).build()
}

/// One generated operator, as raw choices: `(kind, arg, flags)` plus an
/// `(upstream, window)` pick per potential input.
type OpChoice = ((u8, u8, u8), (u8, u8), (u8, u8));

/// An output stream operators can subscribe to.
struct Stream {
    actor: ActorId,
    port: &'static str,
    /// Whether the stream's order is the same under every director: no
    /// fan-in anywhere upstream.
    ordered: bool,
    /// Whether every firing's emissions all land on this stream, so a wave
    /// window downstream sees complete sub-waves.
    complete: bool,
    used: bool,
}

/// A generated workflow plus its sinks, in creation order.
struct Generated {
    wf: Workflow,
    sinks: Vec<(String, Collector)>,
    /// Whether the graph is a fan-in-free tree of fixed-rate operators
    /// over per-event windows, which SDF can schedule.
    sdf: bool,
}

/// Decode the choices into a workflow. Deterministic: every director gets
/// its own identical copy.
fn generate(events: u8, ops: &[OpChoice], block: bool) -> Generated {
    let mut b = WorkflowBuilder::new("generated");
    if block {
        b.set_default_channel_policy(ChannelPolicy::block(2));
    }
    let inputs = (0..events as i64).map(|i| rec(i % 3, i)).collect();
    let src = b.add_actor("src", RatedSource(inputs));
    let mut streams = vec![Stream {
        actor: src,
        port: "out",
        ordered: true,
        complete: true,
        used: false,
    }];
    let mut sinks = Vec::new();
    let mut sdf = !block;
    for (i, &((kind, arg, flags), first, second)) in ops.iter().enumerate() {
        let kind = kind % 3;
        let two = flags & 1 != 0 && kind != 1;
        let merged = two && flags & 4 != 0;
        let mut picks = vec![first];
        if two {
            picks.push(second);
        }
        let mut ups: Vec<usize> = picks
            .iter()
            .map(|(up, _)| *up as usize % streams.len())
            .collect();
        if two && ups[0] == ups[1] {
            ups[1] = (ups[1] + 1) % streams.len();
        }
        // The window on each input port: order-sensitive windows only where
        // the arrival order is the same under every director.
        let ports = if two && !merged { 2 } else { 1 };
        let mut wins = Vec::new();
        for (p, (_, win)) in picks.iter().enumerate().take(ports) {
            let up = &streams[ups[p]];
            let win = match win % 5 {
                _ if !up.ordered || merged => 0,
                4 if !up.complete => 0,
                w => w,
            };
            sdf &= win == 0;
            wins.push(win);
        }
        let specs: Vec<WindowSpec> = wins
            .iter()
            .map(|win| match win {
                1 => WindowSpec::tuples(2, 2),
                2 => WindowSpec::tuples(3, 1),
                3 => WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["k"])),
                4 => WindowSpec::wave(),
                _ => WindowSpec::each_event(),
            })
            .collect();
        let in_names: &[&str] = if ports == 2 { &["in0", "in1"] } else { &["in"] };
        let name = format!("op{i}");
        let (op, outs): (ActorId, &[&'static str]) = match kind {
            0 => {
                let copies = 1 + arg % 3;
                let map = FnActor::new(
                    IoSignature::new(in_names, &["out"]),
                    move |w: &Window, emit: &mut dyn FnMut(usize, Token)| {
                        for t in w.tokens() {
                            for c in 0..copies as i64 {
                                emit(0, rec(t.int_field("k")?, t.int_field("v")? * (c + 2) + 1));
                            }
                        }
                        Ok(())
                    },
                );
                (
                    b.add_actor(name, rated(map, ports, &[copies as u32])),
                    &["out"],
                )
            }
            1 => {
                sdf = false;
                let route = Router::new(&["a", "b"], |t: &Token| {
                    Ok(match t.int_field("v")? % 3 {
                        0 => Some(0),
                        1 => Some(1),
                        _ => None,
                    })
                });
                (b.add_actor(name, rated(route, 1, &[1, 1])), &["a", "b"])
            }
            _ => {
                let sum = FnActor::new(
                    IoSignature::new(in_names, &["out"]),
                    |w: &Window, emit: &mut dyn FnMut(usize, Token)| {
                        let key = w.group.as_int().unwrap_or(-1);
                        let mut total = 0;
                        for t in w.tokens() {
                            total += t.int_field("v")?;
                        }
                        emit(0, rec(key, total * 10 + w.len() as i64));
                        Ok(())
                    },
                );
                (b.add_actor(name, rated(sum, ports, &[1])), &["out"])
            }
        };
        for (p, &up) in ups.iter().enumerate() {
            let (from, port) = (streams[up].actor, streams[up].port);
            streams[up].used = true;
            let to = in_names[p.min(ports - 1)];
            b.connect_windowed(from, port, op, to, specs[p.min(ports - 1)].clone())
                .unwrap();
        }
        sdf &= !two;
        if flags & 2 != 0 && matches!(wins[0], 2 | 3) {
            // Events sliding out of the first port's windows go to a
            // handler instead of being discarded.
            sdf = false;
            let c = Collector::new();
            let x = b.add_actor(format!("x{i}"), c.actor());
            b.expired_handler(op.port(in_names[0]), x.port("in"))
                .unwrap();
            sinks.push((format!("x{i}"), c));
        }
        let ordered = ports == 1 && !merged && streams[ups[0]].ordered;
        for &port in outs {
            streams.push(Stream {
                actor: op,
                port,
                ordered,
                complete: outs.len() == 1,
                used: false,
            });
        }
    }
    for (j, stream) in streams.iter().enumerate().filter(|(_, s)| !s.used) {
        let c = Collector::new();
        let k = b.add_actor(format!("k{j}"), rated(c.actor(), 1, &[]));
        b.connect(stream.actor, stream.port, k, "in").unwrap();
        sinks.push((format!("k{j}"), c));
    }
    Generated {
        wf: b.build().unwrap(),
        sinks,
        sdf,
    }
}

/// A wave-tag's lineage below its origin, e.g. `2.1!`. Origins are each
/// director's clock reading at admission, so they differ by design.
fn lineage(wave: &WaveTag) -> String {
    let steps: Vec<String> = wave
        .path()
        .iter()
        .map(|s| format!("{}{}", s.index, if s.last { "!" } else { "" }))
        .collect();
    steps.join(".")
}

/// Per sink, the sorted multiset of outputs (`with_waves`: plus lineage).
type Outputs = BTreeMap<String, Vec<String>>;

fn outputs(g: &Generated, with_waves: bool) -> Outputs {
    g.sinks
        .iter()
        .map(|(name, c)| {
            let mut got: Vec<String> = c
                .items()
                .iter()
                .map(|i| match with_waves {
                    true => format!("{} @{}", i.event.token, lineage(&i.event.wave)),
                    false => i.event.token.to_string(),
                })
                .collect();
            got.sort();
            (name.clone(), got)
        })
        .collect()
}

fn scwf_virtual(policy: Box<dyn confluence::sched::Scheduler>) -> Box<dyn Director> {
    let cost = TableCostModel::uniform(Micros(10), Micros(1));
    Box::new(ScwfDirector::virtual_time(policy, Box::new(cost)))
}

/// A director under test: `(name, deterministic, constructor)`.
type Run = (&'static str, bool, fn() -> Box<dyn Director>);

/// Every director under test (SDF joins where the graph allows).
fn directors() -> Vec<Run> {
    vec![
        ("ddf", true, || Box::new(DdfDirector::new())),
        ("de", true, || Box::new(DeDirector::new())),
        ("scwf-fifo", true, || {
            scwf_virtual(Box::new(FifoScheduler::new(5)))
        }),
        ("scwf-qbs", true, || {
            scwf_virtual(Box::new(QbsScheduler::new(500, 5)))
        }),
        ("threaded", false, || Box::new(ThreadedDirector::new())),
        ("pool:1", false, || {
            Box::new(PoolDirector::new().with_workers(1))
        }),
        ("pool:4", false, || {
            Box::new(PoolDirector::new().with_workers(4))
        }),
    ]
}

fn op_choice() -> impl Strategy<Value = OpChoice> {
    (
        (0u8..3, 0u8..3, 0u8..8),
        (0u8..16, 0u8..5),
        (0u8..16, 0u8..5),
    )
}

/// Run one generated graph under every director and compare each with
/// DDF: outputs per sink always, wave lineage on the deterministic ones.
/// Returns whether SDF took part.
fn check_agreement(events: u8, ops: &[OpChoice], block: bool) -> bool {
    let mut reference: Option<(Outputs, Outputs)> = None;
    let mut runs = directors();
    let sdf = generate(events, ops, block).sdf;
    if sdf {
        runs.push(("sdf", true, || Box::new(SdfDirector::new())));
    }
    for (name, deterministic, make) in runs {
        let mut g = generate(events, ops, block);
        make()
            .run(&mut g.wf)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (tokens, waves) = (outputs(&g, false), outputs(&g, true));
        let Some((ref_tokens, ref_waves)) = &reference else {
            reference = Some((tokens, waves));
            continue;
        };
        assert_eq!(&tokens, ref_tokens, "{name} differs from ddf on {ops:?}");
        if deterministic {
            assert_eq!(
                &waves, ref_waves,
                "{name} wave lineage differs from ddf on {ops:?}"
            );
        }
    }
    sdf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_graphs_agree_across_directors(
        events in 4u8..24,
        ops in prop::collection::vec(op_choice(), 1..7),
        block in 0u8..4,
    ) {
        check_agreement(events, &ops, block == 0);
    }

    /// Fan-in-free trees of fixed-rate operators over per-event windows:
    /// the shape SDF can schedule, so it joins every case.
    #[test]
    fn generated_sdf_graphs_agree_across_directors(
        events in 4u8..24,
        ops in prop::collection::vec(op_choice(), 1..7),
    ) {
        // No routers, one input, no handler, per-event windows.
        let fixed_rate = |kind: u8| if kind % 3 == 1 { 0 } else { kind };
        let ops: Vec<OpChoice> = ops
            .into_iter()
            .map(|((kind, arg, _), (up, _), other)| ((fixed_rate(kind), arg, 0), (up, 0), other))
            .collect();
        prop_assert!(check_agreement(events, &ops, false), "SDF ran");
    }
}

// ---------------------------------------------------------------------------
// The shared firing rules
// ---------------------------------------------------------------------------

/// Counts firing hooks.
#[derive(Default)]
struct Attempts {
    starts: AtomicU64,
    fired: AtomicU64,
    refused: AtomicU64,
}

impl Observer for Attempts {
    fn on_fire_start(&self, _actor: ActorId, _at: Timestamp) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }
    fn on_fire_end(&self, record: &FireRecord) {
        let n = if record.fired {
            &self.fired
        } else {
            &self.refused
        };
        n.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sink refusing every other prefire, counting its postfires.
struct Picky {
    calls: u64,
    postfires: Arc<AtomicU64>,
}

impl Actor for Picky {
    fn signature(&self) -> IoSignature {
        IoSignature::sink("in")
    }
    fn prefire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        self.calls += 1;
        Ok(self.calls.is_multiple_of(2))
    }
    fn fire(&mut self, ctx: &mut dyn FireContext) -> Result<()> {
        while ctx.get(0).is_some() {}
        Ok(())
    }
    fn postfire(&mut self, _ctx: &mut dyn FireContext) -> Result<bool> {
        self.postfires.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
    fn rates(&self) -> Option<SdfRates> {
        Some(SdfRates {
            consume: vec![1],
            produce: vec![],
        })
    }
}

/// Every director sends one `on_fire_start` and one record per attempt,
/// records a prefire refusal as `fired: false`, and runs postfire after
/// every attempt, refused or not.
#[test]
fn one_start_one_record_and_one_postfire_per_attempt() {
    let mut runs = directors();
    runs.push(("sdf", true, || Box::new(SdfDirector::new())));
    for (name, _, make) in runs {
        let postfires = Arc::new(AtomicU64::new(0));
        let mut b = WorkflowBuilder::new("picky");
        let s = b.add_actor("src", RatedSource((1..=6).map(Token::Int).collect()));
        let k = b.add_actor(
            "picky",
            Picky {
                calls: 0,
                postfires: postfires.clone(),
            },
        );
        b.connect(s, "out", k, "in").unwrap();
        let mut wf = b.build().unwrap();
        let attempts = Arc::new(Attempts::default());
        let mut director = make();
        assert!(director.instrument(Telemetry::new(attempts.clone())));
        director.run(&mut wf).unwrap();
        let starts = attempts.starts.load(Ordering::Relaxed);
        let fired = attempts.fired.load(Ordering::Relaxed);
        let refused = attempts.refused.load(Ordering::Relaxed);
        assert_eq!(starts, fired + refused, "{name}: one record per start");
        assert!(refused >= 3, "{name}: refusals are recorded ({refused})");
        // The source never refuses while it has tokens; every attempt of
        // the picky sink is followed by its postfire.
        let sink_attempts = starts - 6;
        assert_eq!(
            postfires.load(Ordering::Relaxed),
            sink_attempts,
            "{name}: postfire after every attempt"
        );
    }
}

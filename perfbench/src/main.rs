//! The standing Linear Road benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lr_paced --seed 12648430 --seconds 20 --trace 0
//! ```
//!
//! Generates Linear Road inputs from `--seed`, runs the named workload
//! through the engine's public API for about `--seconds` seconds (as many
//! whole repeats as fit, at least two), checks every repeat against the
//! golden model, and prints each metric by name and unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. See `README.md`.

mod layers;
mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use confluence_linearroad::{golden, Workload};

use crate::stats::{median, quantile};
use crate::trace::{
    Session, ThreadSpans, ACTOR_FIRE, DIRECTOR_FIRE, NO_PARENT, POOL_KEY, SCHED_CALL,
};
use crate::workload::{Executor, Name, Outcome, RunPlan, Spec};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Fewest repeats per run: medians need several, and the virtual-time
/// determinism check needs two.
const MIN_REPEATS: usize = 2;

/// Named metrics in output order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Name::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload
        .ok_or("--workload is required (lr_unpaced, lr_paced, lr_paced_ckpt, lr_virtual)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A toll's identity and content, comparable across runs.
type TollKey = (i64, i64, i64, u64);

/// The sorted toll stream; without `values`, only which tolls were sent.
fn sorted_keys(o: &Outcome, values: bool) -> Vec<TollKey> {
    let mut s: Vec<TollKey> = o
        .stamped
        .iter()
        .map(|(n, _)| {
            (
                n.carid,
                n.time,
                n.seg,
                if values { n.toll.to_bits() } else { 0 },
            )
        })
        .collect();
    s.sort_unstable();
    s
}

/// The correctness gate, accumulated over every repeat of a run.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Gate {
    /// Every golden segment crossing must get exactly one notification,
    /// with no extras. Returns the share of notifications whose toll equals
    /// the golden model's.
    fn check(&mut self, what: &str, golden: &HashMap<(i64, i64, i64), f64>, o: &Outcome) -> f64 {
        self.attempted += golden.len() as u64;
        if let Some(e) = &o.error {
            self.failed += golden.len() as u64;
            self.violations
                .push(format!("{what}: run returned Err: {e}"));
            return 0.0;
        }
        let mut count: HashMap<(i64, i64, i64), u32> = HashMap::with_capacity(golden.len());
        let mut exact = 0u64;
        for (n, _) in &o.stamped {
            let key = (n.carid, n.time, n.seg);
            let c = count.entry(key).or_insert(0);
            *c += 1;
            if *c == 1 && golden.get(&key).is_some_and(|g| (g - n.toll).abs() < 1e-9) {
                exact += 1;
            }
        }
        let missing = golden.keys().filter(|k| !count.contains_key(k)).count() as u64;
        let extra: u64 = count
            .iter()
            .map(|(k, &c)| {
                if golden.contains_key(k) {
                    c as u64 - 1
                } else {
                    c as u64
                }
            })
            .sum();
        if missing + extra > 0 {
            self.failed += missing + extra;
            self.violations.push(format!(
                "{what}: {missing} golden crossings without a toll, {extra} extra tolls"
            ));
        }
        if o.seen.len() != o.stamped.len() {
            self.violations.push(format!(
                "{what}: output probe saw {} tolls, the sink {}",
                o.seen.len(),
                o.stamped.len()
            ));
        }
        exact as f64 / o.stamped.len().max(1) as f64
    }

    fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(msg());
        }
    }
}

/// Toll latency samples in ms: wall receipt minus due time.
fn toll_latencies_ms(spec: &Spec, o: &Outcome) -> Vec<f64> {
    o.seen
        .iter()
        .map(|s| s.at_us.saturating_sub(spec.wall_due_us(s.toll.time)) as f64 / 1e3)
        .collect()
}

/// Virtual-time response at TollNotification in seconds (paper Fig. 8).
fn virtual_responses_s(o: &Outcome) -> Vec<f64> {
    o.stamped
        .iter()
        .map(|(n, at)| at.as_micros().saturating_sub(n.time as u64 * 1_000_000) as f64 / 1e6)
        .collect()
}

fn ordered_virtual_stream(o: &Outcome) -> Vec<(TollKey, u64)> {
    o.stamped
        .iter()
        .map(|(n, at)| ((n.carid, n.time, n.seg, n.toll.to_bits()), at.as_micros()))
        .collect()
}

/// Self time of every span: its duration minus its children's.
fn self_times(t: &ThreadSpans) -> Vec<u64> {
    let mut child = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    t.spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-layer metrics of one traced repeat, from its spans and observer.
fn traced_metrics(spec: &Spec, o: &Outcome, threads: &[ThreadSpans]) -> Metrics {
    let obs = o.observer.as_ref().expect("traced repeat has an observer");
    let n_actors = o.actor_names.len();
    let mut actor_self: Vec<Vec<f64>> = vec![Vec::new(); n_actors];
    let (mut director_self, mut key_ns) = (Vec::new(), Vec::new());
    let mut source_fires: Vec<(u64, u64)> = Vec::new();
    let mut waits_ms = Vec::new();
    for t in threads {
        let selfs = self_times(t);
        for (s, &own) in t.spans.iter().zip(&selfs) {
            match s.name {
                ACTOR_FIRE => actor_self[s.actor as usize].push(own as f64),
                DIRECTOR_FIRE => {
                    director_self.push(own as f64);
                    if s.actor as usize == obs.source() {
                        source_fires.push((s.start_ns, s.end_ns));
                    }
                }
                POOL_KEY => key_ns.push(s.dur_ns() as f64),
                // `sched.*` come from `sched_replay`, on every workload alike.
                _ => {}
            }
        }
        waits_ms.extend(t.waits_us.iter().map(|&w| w as f64 / 1e3));
    }

    let mut m = Metrics::default();
    for (name, selfs) in o.actor_names.iter().zip(&actor_self) {
        m.push(format!("actors.{name}.fire_us"), median(selfs) / 1e3, "us");
        m.push(
            format!("actors.{name}.busy_s"),
            selfs.iter().sum::<f64>() / 1e9,
            "s",
        );
    }
    m.push("director.overhead_us", median(&director_self) / 1e3, "us");
    m.push("director.queue_wait_ms.p50", quantile(&waits_ms, 0.5), "ms");
    m.push(
        "director.queue_wait_ms.p99",
        quantile(&waits_ms, 0.99),
        "ms",
    );
    m.push(
        "director.firings",
        obs.firings.load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
    );
    m.push(
        "director.deliveries",
        obs.deliveries.load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
    );

    let workers = obs.workers.lock().expect("worker lock").clone();
    let busy_us: u64 = workers.iter().map(|w| w.busy_micros).sum();
    let busy_frac = match spec.executor {
        Executor::Pool { workers } => busy_us as f64 / (workers as f64 * o.wall_s * 1e6),
        Executor::Virtual => 0.0,
    };
    m.push("pool.busy_frac", busy_frac, "frac");
    m.push(
        "pool.steals",
        workers.iter().map(|w| w.steals).sum::<u64>() as f64,
        "count",
    );
    m.push("pool.policy_key_ns", median(&key_ns), "ns");
    m.push("pool.policy_key_calls", key_ns.len() as f64, "count");

    let late_ms: Vec<f64> = obs.late_us().iter().map(|&l| l as f64 / 1e3).collect();
    m.push("source.late_ms.p99", quantile(&late_ms, 0.99), "ms");

    // Checkpoint pauses: the gap in source firings across each boundary
    // between run segments (every segment but the last ends in a snapshot).
    source_fires.sort_unstable();
    let phases = obs.phases.lock().expect("phase lock").clone();
    let ends: Vec<u64> = phases
        .iter()
        .filter(|(start, _)| !start)
        .map(|&(_, ns)| ns)
        .collect();
    let pauses_ms: Vec<f64> = ends
        .iter()
        .take(ends.len().saturating_sub(1))
        .filter_map(|&end| {
            let before = source_fires.iter().rev().find(|f| f.1 <= end)?.1;
            let after = source_fires.iter().find(|f| f.0 >= end)?.0;
            Some((after - before) as f64 / 1e6)
        })
        .collect();
    m.push(
        "checkpoint.count",
        ends.len().saturating_sub(1) as f64,
        "count",
    );
    m.push("checkpoint.pause_ms.p50", median(&pauses_ms), "ms");
    m.push(
        "checkpoint.pause_ms.max",
        pauses_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m
}

/// `sched.*`: the scheduler runs only under the SCWF director, so the
/// workload's input is replayed through it in virtual time (QBS, STAF cost
/// model) with the `Scheduler` shim.
fn sched_replay(
    m: &mut Metrics,
    gate: &mut Gate,
    golden: &HashMap<(i64, i64, i64), f64>,
    spec: &Spec,
) {
    let session = Session::new();
    let plan = RunPlan {
        trace: Some(&session),
        checkpoint: None,
    };
    let o = workload::run(&spec.virtual_replay(), &plan, false);
    gate.check("scheduler replay", golden, &o);
    let sched_ns: Vec<f64> = session
        .collect()
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == SCHED_CALL)
        .map(|s| s.dur_ns() as f64)
        .collect();
    m.push("sched.call_ns", median(&sched_ns), "ns");
    m.push("sched.calls", sched_ns.len() as f64, "count");
    let share = sched_ns.iter().sum::<f64>() / (o.wall_s * 1e9);
    m.push("sched.share", share, "frac");
}

/// Per-name median over several metric sets with the same names.
fn median_metrics(sets: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (i, (name, _, unit)) in sets[0].0.iter().enumerate() {
        let values: Vec<f64> = sets.iter().map(|s| s.0[i].1).collect();
        out.push(name.clone(), median(&values), unit);
    }
    out
}

fn print_result(gate: &Gate, metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.violations.is_empty() && gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    let workload = Workload::generate(spec.config.clone());
    let golden: HashMap<(i64, i64, i64), f64> = golden::compute(&workload)
        .tolls
        .iter()
        .map(|t| ((t.carid, t.time, t.seg), t.toll))
        .collect();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    println!(
        "perfbench {} seed={} reports={} golden_tolls={} mode={}",
        spec.name.label(),
        args.seed,
        workload.len(),
        golden.len(),
        if args.trace { "traced" } else { "untraced" }
    );

    let begin = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut gate = Gate::default();

    // The checkpointed workload must produce exactly the toll stream of its
    // uncheckpointed twin, and snapshots every fixed number of firings.
    let mut ckpt_every = None;
    let mut reference = None;
    if spec.name == Name::PacedCkpt {
        let plain = workload::run(
            &Spec::new(Name::Paced, args.seed),
            &RunPlan {
                trace: None,
                checkpoint: None,
            },
            false,
        );
        gate.check("lr_paced reference", &golden, &plain);
        // 5.5 intervals per run: five snapshots however firings jitter.
        ckpt_every = Some((plain.firings * 2 / 11).max(1));
        reference = Some(sorted_keys(&plain, true));
    }

    let mut untraced: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut layer_sets: Vec<Metrics> = Vec::new();
    let mut replay = Metrics::default();
    let mut first_untraced: Option<Outcome> = None;
    let mut peak_rss_mb = 0.0;
    loop {
        let traced_turn = args.trace && traced.len() < untraced.len();
        let session = traced_turn.then(Session::new);
        let repeat = untraced.len() + traced.len();
        let checkpoint =
            ckpt_every.map(|every| (every, workload::checkpoint_dir(&out_dir, repeat)));
        let plan = RunPlan {
            trace: session.as_ref(),
            checkpoint,
        };
        let first_traced = traced_turn && traced.is_empty();
        let o = workload::run(&spec, &plan, first_traced);
        if let Some((_, dir)) = &plan.checkpoint {
            let _ = std::fs::remove_dir_all(dir);
        }
        let what = format!(
            "repeat {repeat}{}",
            if traced_turn { " (traced)" } else { "" }
        );
        let exact = gate.check(&what, &golden, &o);
        if let Some(r) = &reference {
            gate.require(&sorted_keys(&o, true) == r, || {
                format!("{what}: checkpointed toll stream differs from lr_paced's")
            });
        }
        if let Some(first) = &first_untraced {
            if spec.executor == Executor::Virtual {
                gate.require(
                    ordered_virtual_stream(&o) == ordered_virtual_stream(first),
                    || format!("{what}: virtual-time toll stream differs between repeats"),
                );
            }
            if traced_turn {
                let values = !spec.toll_values_race();
                gate.require(
                    sorted_keys(&o, values) == sorted_keys(first, values),
                    || format!("{what}: traced toll stream differs from its untraced twin"),
                );
            }
        }
        let sum = Summary::of(&spec, &o, exact);
        println!(
            "  repeat {repeat}: {} setup={:.4}s wall={:.3}s cpu={:.3}s firings={} tolls={} exact={:.4} p50={:.3}ms p95={:.3}ms p99={:.3}ms",
            if traced_turn { "traced  " } else { "untraced" },
            sum.setup_s,
            sum.wall_s,
            sum.cpu_s,
            o.firings,
            o.stamped.len(),
            exact,
            sum.p50_ms,
            sum.p95_ms,
            sum.p99_ms,
        );

        if let Some(session) = session {
            let threads = session.collect();
            layer_sets.push(traced_metrics(&spec, &o, &threads));
            if first_traced {
                let path: PathBuf = out_dir.join(format!("{}.spans", spec.name.label()));
                trace::write_spans(&path, &threads, &o.actor_names).expect("write spans");
                let n: usize = threads.iter().map(|t| t.spans.len()).sum();
                println!("  wrote {n} spans to {}", path.display());
                drop(threads);
                let t = Instant::now();
                layers::relstore(&mut replay, &o.store, &workload);
                layers::per_event(&mut replay, &workload);
                let cp = o
                    .checkpoint
                    .as_ref()
                    .expect("first traced repeat captured a checkpoint");
                layers::checkpoint_codec(&mut replay, cp);
                sched_replay(&mut replay, &mut gate, &golden, &spec);
                println!("  layer replay took {:.2}s", t.elapsed().as_secs_f64());
            }
            traced.push(sum);
        } else {
            if first_untraced.is_none() {
                // Peak memory through one repeat: later repeats reuse the
                // allocator's retained pages, so the process peak after
                // several says more about the allocator than the run.
                peak_rss_mb = stats::peak_rss_mb();
                first_untraced = Some(o);
            }
            untraced.push(sum);
        }
        let repeats = untraced.len() + traced.len();
        let last = Duration::from_secs_f64(sum.setup_s + sum.wall_s);
        if repeats >= MIN_REPEATS && begin.elapsed() + last > budget {
            break;
        }
    }
    for v in &gate.violations {
        eprintln!("perfbench: correctness violation: {v}");
    }

    let metrics = if args.trace {
        let mut m = median_metrics(&layer_sets);
        m.0.extend(replay.0);
        let cpu = |runs: &[Summary]| {
            median(
                &runs
                    .iter()
                    .map(|r| r.cpu_s / r.reports as f64)
                    .collect::<Vec<_>>(),
            )
        };
        m.push(
            "trace.overhead_frac",
            cpu(&traced) / cpu(&untraced) - 1.0,
            "frac",
        );
        m
    } else {
        let first = first_untraced
            .as_ref()
            .expect("at least one untraced repeat");
        end_to_end(&spec, first, &untraced, peak_rss_mb)
    };
    print_result(&gate, &metrics);
    if gate.violations.is_empty() && gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The figures kept from one repeat.
#[derive(Clone, Copy)]
struct Summary {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    reports: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    exact: f64,
}

impl Summary {
    fn of(spec: &Spec, o: &Outcome, exact: f64) -> Summary {
        let lat = toll_latencies_ms(spec, o);
        Summary {
            setup_s: o.setup_s,
            wall_s: o.wall_s,
            cpu_s: o.cpu_s,
            reports: o.reports,
            p50_ms: quantile(&lat, 0.5),
            p95_ms: quantile(&lat, 0.95),
            p99_ms: quantile(&lat, 0.99),
            exact,
        }
    }
}

fn end_to_end(spec: &Spec, first: &Outcome, runs: &[Summary], peak_rss_mb: f64) -> Metrics {
    let per = |f: &dyn Fn(&Summary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    if let Some(offered) = spec.offered_per_s(first.reports) {
        println!(
            "  offered rate: {offered:.1} reports/s (open loop, {}x replay)",
            spec.speedup
        );
    }
    if spec.executor == Executor::Virtual {
        let v = virtual_responses_s(first);
        println!(
            "  virtual_toll_p50_s={:.3} virtual_toll_p99_s={:.3} (identical in every repeat)",
            quantile(&v, 0.5),
            quantile(&v, 0.99)
        );
    }
    // The tail above p95 is set by host stalls of 10-50 ms that hit a few
    // percent of tolls, so it is printed here rather than gated.
    println!(
        "  toll_p99_ms={:.3} (median over repeats)",
        per(&|r| r.p99_ms)
    );
    let mut m = Metrics::default();
    m.push(
        "reports_per_s",
        per(&|r| r.reports as f64 / r.wall_s),
        "1/s",
    );
    m.push(
        "cpu_us_per_report",
        per(&|r| r.cpu_s * 1e6 / r.reports as f64),
        "us",
    );
    m.push("toll_p50_ms", per(&|r| r.p50_ms), "ms");
    m.push("toll_p95_ms", per(&|r| r.p95_ms), "ms");
    m.push("toll_exact_frac", per(&|r| r.exact), "frac");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    m.push("setup_s", per(&|r| r.setup_s), "s");
    m
}

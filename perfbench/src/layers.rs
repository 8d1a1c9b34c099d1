//! Layer replay: direct timed calls into each layer's public functions, on
//! inputs taken from the workload. Each timing warms up first, then takes
//! the median over several timed chunks; every figure carries its call
//! count.

use std::hint::black_box;
use std::time::Instant;

use confluence_core::checkpoint::Checkpoint;
use confluence_core::event::{CwEvent, WaveStamper};
use confluence_core::time::Timestamp;
use confluence_core::token::Token;
use confluence_core::wave::WaveTag;
use confluence_core::window::{GroupBy, WindowOperator, WindowSpec};
use confluence_linearroad::{tables, PositionReport, Workload};
use confluence_relstore::StoreHandle;

use crate::stats::median;
use crate::Metrics;

/// Relstore probes replayed per query shape (an even sample of reports).
const RELSTORE_CALLS: usize = 4_000;
/// Untimed warm-up calls before each timing.
const WARMUP_CALLS: usize = 256;
/// Timed chunks per figure; the figure is their median.
const CHUNKS: usize = 5;
/// Passes of the whole-stream replays (window, checkpoint codec).
const PASSES: usize = 3;

/// Median nanoseconds per call of `f` over `items`, split into chunks.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    for item in items.iter().take(WARMUP_CALLS) {
        f(item);
    }
    let chunk = items.len().div_ceil(CHUNKS).max(1);
    let per_chunk: Vec<f64> = items
        .chunks(chunk)
        .map(|c| {
            let t = Instant::now();
            for item in c {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / c.len() as f64
        })
        .collect();
    median(&per_chunk)
}

/// An even sample of at most `n` reports.
fn sample(reports: &[PositionReport], n: usize) -> Vec<PositionReport> {
    let stride = reports.len().div_ceil(n).max(1);
    reports.iter().step_by(stride).copied().collect()
}

/// `relstore.*`: the toll and notification queries with the workload's
/// own parameters against the run's final store.
pub fn relstore(m: &mut Metrics, store: &StoreHandle, workload: &Workload) {
    let probes = sample(&workload.reports, RELSTORE_CALLS);
    let nearby = ns_per_call(&probes, |r| {
        black_box(
            tables::accident_nearby(store, r.xway, r.dir, r.seg, r.time).expect("accident_nearby"),
        );
    });
    let lav = ns_per_call(&probes, |r| {
        black_box(tables::lav(store, r.xway, r.dir, r.seg, r.minute()).expect("lav"));
    });
    let cars = ns_per_call(&probes, |r| {
        black_box(
            tables::cars_in_segment(store, r.xway, r.dir, r.seg, r.minute() - 1)
                .expect("cars_in_segment"),
        );
    });
    // Upserts rewrite rows that exist with the value they already hold,
    // so the replay leaves the store as the run left it.
    let rows: Vec<(PositionReport, i64)> = probes
        .iter()
        .filter_map(|r| {
            let c = tables::cars_in_segment(store, r.xway, r.dir, r.seg, r.minute() - 1)
                .expect("cars_in_segment");
            c.map(|c| (*r, c))
        })
        .collect();
    let upsert = ns_per_call(&rows, |(r, c)| {
        tables::write_segment_cars(store, r.xway, r.dir, r.seg, r.minute() - 1, *c)
            .expect("upsert");
    });
    let total_rows: usize = store.read(|s| {
        s.table_names()
            .into_iter()
            .map(|name| s.table(name).expect("listed table exists").len())
            .sum()
    });
    m.push("relstore.accident_nearby_us", nearby / 1e3, "us");
    m.push("relstore.lav_us", lav / 1e3, "us");
    m.push("relstore.cars_in_segment_us", cars / 1e3, "us");
    m.push("relstore.upsert_us", upsert / 1e3, "us");
    m.push("relstore.calls", probes.len() as f64, "count");
    m.push("relstore.upsert_calls", rows.len() as f64, "count");
    m.push("relstore.rows", total_rows as f64, "count");
}

/// `window.*`, `token.*`, `wave.*`: the per-event path over the report
/// stream.
pub fn per_event(m: &mut Metrics, workload: &Workload) {
    let tokens: Vec<Token> = workload.reports.iter().map(|r| r.to_token()).collect();
    let events: Vec<CwEvent> = workload
        .reports
        .iter()
        .zip(&tokens)
        .map(|(r, t)| CwEvent::external(t.clone(), Timestamp::from_secs(r.time as u64)))
        .collect();

    // Linear Road's tuple windows keyed by car: stopped cars and tolls.
    let specs = [
        WindowSpec::tuples(4, 1).group_by(GroupBy::fields(&["carid"])),
        WindowSpec::tuples(2, 1).group_by(GroupBy::fields(&["carid"])),
    ];
    let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
    let mut popped_total = 0;
    for pass in 0..=PASSES {
        let (mut push_t, mut pop_t, mut popped) = (0u128, 0u128, 0usize);
        for spec in &specs {
            let mut op = WindowOperator::new(spec.clone()).expect("valid window spec");
            let input = events.clone();
            let t = Instant::now();
            for e in input {
                let ts = e.timestamp;
                black_box(op.push(e, ts).expect("window push"));
            }
            push_t += t.elapsed().as_nanos();
            let mut out = Vec::with_capacity(op.ready_len());
            let t = Instant::now();
            while let Some(w) = op.pop_window() {
                out.push(w);
            }
            pop_t += t.elapsed().as_nanos();
            popped += out.len();
        }
        // Pass 0 warms up.
        if pass > 0 {
            push_ns.push(push_t as f64 / (events.len() * specs.len()) as f64);
            pop_ns.push(pop_t as f64 / popped.max(1) as f64);
            popped_total = popped;
        }
    }
    m.push("window.push_ns", median(&push_ns), "ns");
    m.push("window.pop_ns", median(&pop_ns), "ns");
    m.push(
        "window.pushes",
        (events.len() * specs.len()) as f64,
        "count",
    );
    m.push("window.pops", popped_total as f64, "count");

    let decode = ns_per_call(&tokens, |t| {
        black_box(PositionReport::from_token(t).expect("report token"));
    });
    m.push("token.decode_ns", decode, "ns");
    m.push("token.calls", tokens.len() as f64, "count");

    // One production per firing from a root wave, as TollCalculation
    // emits; stamped events are kept so their drop stays untimed.
    let stampers: Vec<(WaveStamper, Token)> = events
        .iter()
        .map(|e| {
            (
                WaveStamper::new(WaveTag::external(e.timestamp)),
                e.token.clone(),
            )
        })
        .collect();
    let mut kept = Vec::with_capacity(stampers.len());
    let stamp = ns_per_call(&stampers, |(s, t)| {
        kept.push(s.stamp_all(vec![t.clone()], Timestamp(1)));
    });
    black_box(&kept);
    m.push("wave.stamp_ns", stamp, "ns");
    m.push("wave.calls", stampers.len() as f64, "count");
}

/// `checkpoint.bytes`, `checkpoint.encode_ms`, `checkpoint.decode_ms`.
pub fn checkpoint_codec(m: &mut Metrics, cp: &Checkpoint) {
    let bytes = cp.to_bytes();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for pass in 0..=PASSES {
        let t = Instant::now();
        black_box(cp.to_bytes());
        let e = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        black_box(Checkpoint::from_bytes(&bytes).expect("checkpoint decodes"));
        let d = t.elapsed().as_secs_f64() * 1e3;
        if pass > 0 {
            enc.push(e);
            dec.push(d);
        }
    }
    m.push("checkpoint.bytes", bytes.len() as f64, "bytes");
    m.push("checkpoint.encode_ms", median(&enc), "ms");
    m.push("checkpoint.decode_ms", median(&dec), "ms");
}

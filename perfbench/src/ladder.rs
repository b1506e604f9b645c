//! The traced run: the workload's generated inputs replayed through each
//! layer's public functions, one layer after another, with a span
//! around every call. Passes alternate untraced and traced; the
//! per-layer metrics are medians over the traced passes, and the
//! difference in pass time is the tracing overhead.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hh::counters::{FrequencyEstimator, SpaceSaving};
use hh::engine::Engine;
use hh::net::checkpoint::{self, Checkpoint};
use hh::net::proto::{self, Line};
use hh::pipeline::hash_shard;

use crate::check::{self, NetCounts};
use crate::serve::{self, Paths, Scratch};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::workload::{BenchItem, Input, Spec, BLOCK, K, SHARDS};
use crate::{Metrics, Outcome};

/// Epoch boundaries (and query renders) timed per pass.
const QUERIES: usize = 16;

/// Request ids: blocks are `1..`, queries start here.
const QUERY_REQ: u64 = 1 << 32;

/// What a pass learns outside its spans.
struct PassOut {
    imbalance: f64,
    send_block_ms: f64,
    checkpoint_bytes: u64,
    json_bytes: u64,
    net: NetCounts,
    server_items: u64,
    problems: Vec<String>,
}

pub fn run<I: BenchItem>(
    spec: &Spec,
    input: &Input<I>,
    paths: &Paths,
    dir: &str,
    seconds: Duration,
    seed: u64,
) -> Result<Outcome, String> {
    let miss_ratio = miss_ratio(spec, input);
    let agg_ratio = agg_ratio(input);
    // The server layer is timed closed-loop on every workload.
    let closed = Spec {
        pace: None,
        chunk: 32 * 1024,
        queries: 0,
        ..spec.clone()
    };
    let chunks = input.chunks(closed.chunk);
    let mut scratch = Scratch::new();
    let t0 = Instant::now();
    let mut off = Tracer::new(false, t0);
    let mut on = Tracer::new(true, t0);
    let ckpt = format!("{dir}/ladder.ckpt");
    let ctx = Ctx {
        spec: &closed,
        input,
        paths,
        ckpt: &ckpt,
        chunks: &chunks,
    };

    // Warm-up pass, then untraced/traced pairs in alternating order.
    pass(&ctx, &mut off, &mut scratch)?;
    let start = Instant::now();
    let (mut untraced_s, mut traced_s) = (vec![], vec![]);
    let mut per_pass: Vec<Metrics> = vec![];
    let mut problems = vec![];
    let mut pair = 0;
    while pair < 1 || (start.elapsed() < seconds && pair < 32) {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let from = on.len();
            let t = Instant::now();
            let out = if traced {
                pass(&ctx, &mut on, &mut scratch)?
            } else {
                pass(&ctx, &mut off, &mut scratch)?
            };
            let secs = t.elapsed().as_secs_f64();
            problems.extend(out.problems.iter().cloned());
            if traced {
                traced_s.push(secs);
                per_pass.push(metrics(on.since(from), from, &out, input));
            } else {
                untraced_s.push(secs);
            }
        }
        pair += 1;
    }

    let mut m = Metrics::new();
    for name in per_pass[0].keys() {
        let unit = per_pass[0][name].1;
        let mut values: Vec<f64> = per_pass.iter().map(|p| p[name].0).collect();
        m.insert(name, (median(&mut values), unit));
    }
    m.insert("counters.miss_ratio", (miss_ratio, "ratio"));
    m.insert("pipeline.agg_ratio", (agg_ratio, "ratio"));
    let overhead = (median(&mut traced_s) / median(&mut untraced_s) - 1.0) * 100.0;
    m.insert("trace.overhead_pct", (overhead, "%"));

    println!(
        "passes: {} traced + {} untraced (+1 warm-up) in {:.2} s; tracing overhead {overhead:.2}%",
        traced_s.len(),
        untraced_s.len(),
        start.elapsed().as_secs_f64()
    );
    print_self_times(spec, on.spans(), &m);
    let out = format!(
        "{}/.run/spans-{}-seed{seed}.json",
        env!("CARGO_MANIFEST_DIR"),
        spec.name
    );
    std::fs::write(&out, trace::to_json(on.spans())).map_err(|e| format!("write {out}: {e}"))?;
    println!("spans: {} written to {out}", on.spans().len());
    for (name, (value, unit)) in &m {
        println!("{name} = {value:.6} {unit}");
    }
    let items = input.sent().len() as u64;
    Ok(Outcome {
        problems,
        attempted: items * (per_pass.len() + untraced_s.len() + 1) as u64,
        failed: 0,
        metrics: m,
    })
}

struct Ctx<'a, I: BenchItem> {
    spec: &'a Spec,
    input: &'a Input<I>,
    paths: &'a Paths,
    ckpt: &'a str,
    chunks: &'a [crate::workload::Chunk],
}

/// One pass over every layer.
fn pass<I: BenchItem>(
    ctx: &Ctx<I>,
    t: &mut Tracer,
    scratch: &mut Scratch,
) -> Result<PassOut, String> {
    let Ctx { spec, input, .. } = *ctx;
    let err = |what: &'static str| move |e: hh::Error| format!("{what}: {e}");
    let sent = input.sent();
    let root = t.begin("pass", 0);

    // proto: the line parser over every rendered line, block by block.
    let layer = t.begin("proto.replay", 0);
    for (b, c) in input.chunks(BLOCK).iter().enumerate() {
        let s = t.begin("proto.parse_line", 1 + b as u64);
        let text = std::str::from_utf8(&input.lines[c.start..c.end])
            .map_err(|e| format!("rendered lines: {e}"))?;
        for line in text.split_terminator('\n') {
            match proto::parse_line(line) {
                Line::Item(item, _) => {
                    let item: I = item
                        .parse()
                        .map_err(|_| format!("unparsable item {item}"))?;
                    black_box(item);
                }
                other => return Err(format!("rendered line parsed as {other:?}")),
            }
        }
        t.end(s, c.items as u64);
    }
    t.end(layer, 0);

    // counters: SpaceSaving over the same blocks, single thread.
    let layer = t.begin("counters.replay", 0);
    let mut ss = SpaceSaving::<I>::new(spec.counters);
    for (b, ids) in sent.chunks(BLOCK).enumerate() {
        let batch = input.items(ids);
        let s = t.begin("counters.update_batch", 1 + b as u64);
        ss.update_batch(&batch);
        t.end(s, batch.len() as u64);
    }
    black_box(ss.stream_len());
    t.end(layer, 0);

    // engine: the same job through Engine, single thread.
    let layer = t.begin("engine.replay", 0);
    let mut engine = spec.engine_config().build::<I>().map_err(err("engine"))?;
    for (b, ids) in sent.chunks(BLOCK).enumerate() {
        let batch = input.items(ids);
        let s = t.begin("engine.update_batch", 1 + b as u64);
        engine.update_batch(&batch);
        t.end(s, batch.len() as u64);
    }
    black_box(engine.stream_len());
    t.end(layer, 0);

    // pipeline: the serving configuration on pre-parsed items; the last
    // QUERIES blocks each end in an epoch boundary and a telemetry read.
    let layer = t.begin("pipeline.replay", 0);
    let opts = spec.serve_options(None, None);
    let mut pipeline = opts
        .pipeline_config()
        .spawn::<I>()
        .map_err(err("pipeline"))?;
    let blocks: Vec<&[u32]> = sent.chunks(BLOCK).collect();
    let mut imbalance = 1.0;
    let mut send_block_ms = 0.0;
    for (b, ids) in blocks.iter().enumerate() {
        let batch = input.items(ids);
        let req = 1 + b as u64;
        let s = t.begin("pipeline.send_batch", req);
        pipeline.send_batch(&batch).map_err(err("send_batch"))?;
        t.end(s, batch.len() as u64);
        if b + QUERIES >= blocks.len() {
            let s = t.begin("pipeline.merged", req);
            let merged = pipeline.merged().map_err(err("merged"))?;
            t.end(s, 0);
            black_box(merged.stream_len());
            let s = t.begin("obs.stats", req);
            let stats = pipeline.stats();
            t.end(s, 0);
            imbalance = stats.imbalance;
            send_block_ms = stats
                .shards
                .iter()
                .map(|sh| sh.send_block_ns.sum as f64 / 1e6)
                .sum();
            let s = t.begin("obs.prometheus", req);
            let text = pipeline.registry().to_prometheus();
            t.end(s, 0);
            black_box(text.len());
        }
    }
    let s = t.begin("pipeline.snapshots", 0);
    let snaps = pipeline.snapshots().map_err(err("snapshots"))?;
    t.end(s, 0);
    let ckpt = Checkpoint {
        shards: snaps.clone(),
        unobserved: 0,
    };
    let s = t.begin("checkpoint.write", 0);
    checkpoint::write(ctx.ckpt, &ckpt).map_err(err("checkpoint write"))?;
    t.end(s, 0);
    let checkpoint_bytes = std::fs::metadata(ctx.ckpt).map_or(0, |m| m.len());
    let s = t.begin("checkpoint.load", 0);
    let back = checkpoint::load::<I>(ctx.ckpt).map_err(err("checkpoint load"))?;
    t.end(s, 0);
    let mut problems = vec![];
    if back != ckpt {
        problems.push("checkpoint did not load back equal".to_string());
    }
    let s = t.begin("pipeline.finish", 0);
    let merged = pipeline.finish().map_err(err("finish"))?;
    t.end(s, 0);
    t.end(layer, 0);

    // The query path on the merged engine: what `?topk` and `?snapshot`
    // do after the epoch boundary.
    let layer = t.begin("query.replay", 0);
    let mut json_bytes = 0;
    for q in 0..QUERIES as u64 {
        let req = QUERY_REQ + q;
        let (first, rest) = snaps.split_first().ok_or("no shard snapshots")?;
        let first = first.clone();
        let s = t.begin("engine.merge", req);
        let mut m = Engine::from_snapshot(first).map_err(err("from_snapshot"))?;
        for snap in rest {
            m.merge_snapshot(snap).map_err(err("merge_snapshot"))?;
        }
        t.end(s, 0);
        black_box(m.stream_len());
        let s = t.begin("engine.snapshot", req);
        let snap = merged.snapshot();
        t.end(s, 0);
        black_box(snap);
        let s = t.begin("engine.report", req);
        let top = merged.report().top_k(K);
        t.end(s, 0);
        black_box(top);
        let s = t.begin("engine.to_json", req);
        let json = merged.to_json().map_err(err("to_json"))?;
        t.end(s, 0);
        json_bytes = json.len() as u64;
        let s = t.begin("proto.report_record", req);
        let record = proto::report_record(&merged, Some(q), K).map_err(err("report_record"))?;
        t.end(s, 0);
        black_box(record);
        let s = t.begin("proto.snapshot_record", req);
        let record = proto::snapshot_record(&merged).map_err(err("snapshot_record"))?;
        t.end(s, 0);
        black_box(record);
    }
    t.end(layer, 0);

    // server: the real server over loopback, closed loop.
    let layer = t.begin("server.replay", 0);
    let trial = serve::trial(spec, input, ctx.chunks, ctx.paths, scratch, t)?;
    let verdict = check::check(&trial, input, &scratch.queries, 0);
    problems.extend(verdict.problems);
    t.end(layer, 0);
    t.end(root, 0);
    Ok(PassOut {
        imbalance,
        send_block_ms,
        checkpoint_bytes,
        json_bytes,
        net: verdict.net,
        server_items: trial.sent,
        problems,
    })
}

/// The per-layer metrics of one traced pass.
fn metrics<I: BenchItem>(
    spans: &[Span],
    offset: usize,
    out: &PassOut,
    input: &Input<I>,
) -> Metrics {
    let tot = trace::totals(spans, offset);
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let items = input.sent().len() as f64;
    let med_us = |name: &str| median(&mut trace::durations(spans, name)) / 1e3;
    let per_item = |name: &str| get(name).dur_ns as f64 / items;
    let allocs_per_item = |name: &str| get(name).allocs as f64 / items;

    let pipeline_ns =
        (get("pipeline.send_batch").dur_ns + get("pipeline.finish").dur_ns) as f64 / items;
    let server_ns = get("server.ingest").dur_ns as f64 / out.server_items.max(1) as f64;

    let mut m = Metrics::new();
    m.insert(
        "counters.ns_per_item",
        (per_item("counters.update_batch"), "ns/item"),
    );
    m.insert(
        "counters.allocs_per_item",
        (allocs_per_item("counters.update_batch"), "allocs/item"),
    );
    m.insert(
        "engine.ns_per_item",
        (per_item("engine.update_batch"), "ns/item"),
    );
    m.insert(
        "engine.allocs_per_item",
        (allocs_per_item("engine.update_batch"), "allocs/item"),
    );
    m.insert("engine.report_us", (med_us("engine.report"), "us"));
    m.insert("engine.snapshot_us", (med_us("engine.snapshot"), "us"));
    m.insert("engine.merge_us", (med_us("engine.merge"), "us"));
    m.insert("engine.to_json_us", (med_us("engine.to_json"), "us"));
    m.insert("engine.json_bytes", (out.json_bytes as f64, "B"));
    m.insert("pipeline.ns_per_item", (pipeline_ns, "ns/item"));
    m.insert("pipeline.imbalance", (out.imbalance, "ratio"));
    m.insert("pipeline.send_block_ms", (out.send_block_ms, "ms"));
    m.insert("pipeline.merged_us", (med_us("pipeline.merged"), "us"));
    m.insert(
        "proto.parse_ns_per_line",
        (per_item("proto.parse_line"), "ns/line"),
    );
    m.insert(
        "proto.allocs_per_line",
        (allocs_per_item("proto.parse_line"), "allocs/line"),
    );
    m.insert(
        "proto.report_record_us",
        (med_us("proto.report_record"), "us"),
    );
    m.insert(
        "proto.snapshot_record_us",
        (med_us("proto.snapshot_record"), "us"),
    );
    m.insert(
        "server.overhead_ns_per_item",
        (server_ns - pipeline_ns, "ns/item"),
    );
    m.insert("server.bytes_in", (out.net.bytes_in as f64, "B"));
    m.insert("server.lines", (out.net.lines as f64, "count"));
    m.insert("server.queries", (out.net.queries as f64, "count"));
    m.insert("server.malformed", (out.net.malformed as f64, "count"));
    m.insert(
        "checkpoint.write_ms",
        (get("checkpoint.write").dur_ns as f64 / 1e6, "ms"),
    );
    m.insert(
        "checkpoint.load_ms",
        (get("checkpoint.load").dur_ns as f64 / 1e6, "ms"),
    );
    m.insert("checkpoint.bytes", (out.checkpoint_bytes as f64, "B"));
    m.insert("obs.stats_us", (med_us("obs.stats"), "us"));
    m.insert("obs.prometheus_us", (med_us("obs.prometheus"), "us"));
    m
}

/// Share of arrivals that miss the stored set of a single SpaceSaving
/// with the workload's `m` (each miss inserts or evicts).
fn miss_ratio<I: BenchItem>(spec: &Spec, input: &Input<I>) -> f64 {
    let mut ss = SpaceSaving::<I>::new(spec.counters);
    let mut misses = 0u64;
    for &id in input.sent() {
        let item = &input.keys[id as usize];
        if ss.err(item).is_none() {
            misses += 1;
        }
        ss.update(item.clone());
    }
    misses as f64 / input.sent().len() as f64
}

/// Routed items over the distinct items of each shipped batch, replaying
/// the pipeline's hash routing and batch cut.
fn agg_ratio<I: BenchItem>(input: &Input<I>) -> f64 {
    let mut buffers: Vec<Vec<u32>> = (0..SHARDS).map(|_| Vec::with_capacity(BLOCK)).collect();
    let mut distinct = 0usize;
    let mut seen = HashSet::new();
    let mut count = |buf: &mut Vec<u32>| {
        seen.clear();
        seen.extend(buf.iter().copied());
        distinct += seen.len();
        buf.clear();
    };
    for &id in input.sent() {
        let shard = hash_shard(SHARDS, &input.keys[id as usize]);
        buffers[shard].push(id);
        if buffers[shard].len() >= BLOCK {
            count(&mut buffers[shard]);
        }
    }
    for buf in &mut buffers {
        if !buf.is_empty() {
            count(buf);
        }
    }
    input.sent().len() as f64 / distinct as f64
}

/// The self-time table of the traced passes, and the blocking path of
/// ingest and of a query.
fn print_self_times(spec: &Spec, spans: &[Span], m: &Metrics) {
    let tot: BTreeMap<&str, trace::Totals> = trace::totals(spans, 0);
    println!("self time by span over all traced passes ({}):", spec.name);
    println!(
        "  {:<26} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "items", "allocs"
    );
    for (name, t) in &tot {
        println!(
            "  {:<26} {:>8} {:>12.3} {:>12.3} {:>12} {:>12}",
            name,
            t.count,
            t.dur_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.items,
            t.allocs
        );
    }
    let v = |name: &str| m.get(name).map_or(f64::NAN, |x| x.0);
    let parse = v("proto.parse_ns_per_line");
    let overhead = v("server.overhead_ns_per_item");
    println!("blocking path ({}):", spec.name);
    println!("  ingest, ns/item: parse {parse:.1} | stage (server overhead beyond the pipeline, less parse) {:.1} | route + shard engines (pipeline) {:.1} | one shard engine alone {:.1}",
        overhead - parse,
        v("pipeline.ns_per_item"),
        v("engine.ns_per_item"));
    println!(
        "  query, us: epoch merge (pipeline.merged) {:.1} | render topk {:.1} | render snapshot {:.1}",
        v("pipeline.merged_us"),
        v("proto.report_record_us"),
        v("proto.snapshot_record_us")
    );
}

//! The repository benchmark: one command that drives the `hh` server
//! end to end on a seeded workload, checks every answer against an
//! exact oracle, and prints each metric by name with its unit.
//!
//! ```text
//! perfbench --workload <zipf_ingest|url_ingest|query_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs server trials for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` replays the same inputs through each
//! layer's public functions under in-memory spans and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod check;
mod ladder;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hh::net::checkpoint::{self, Checkpoint};

use crate::serve::{Paths, Scratch};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{BenchItem, Input, Spec};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Latency samples are pooled over consecutive measured trials into
/// windows of at least this many, so each window's p90 has at least ten
/// samples beyond it; a timing's value is the median over windows.
const WINDOW: usize = 100;
/// A run measures until every timing has this many windows.
const MIN_WINDOWS: usize = 3;
/// A run that still lacks windows after this long fails.
const GIVE_UP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a run reports on its last line.
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!("host: {}", stats::host_fingerprint());
    let result = if spec.strings {
        run::<String>(&spec, &args)
    } else {
        run::<u64>(&spec, &args)
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let mut metrics = String::new();
    for (i, (name, (value, unit))) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(*value)
        ));
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The per-process scratch directory for checkpoint files, inside the
/// benchmark's own (ignored) `.run` directory.
fn run_dir(spec: &Spec) -> Result<String, String> {
    let dir = format!(
        "{}/.run/{}-{}",
        env!("CARGO_MANIFEST_DIR"),
        spec.name,
        std::process::id()
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    Ok(dir)
}

fn run<I: BenchItem>(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let t_prep = Instant::now();
    let input = Input::<I>::generate(spec, args.seed);
    let dir = run_dir(spec)?;
    let resume = if spec.prefix > 0 {
        let path = format!("{dir}/prefix.ckpt");
        write_prefix_checkpoint(spec, &input, &path)?;
        Some(path)
    } else {
        None
    };
    let paths = Paths {
        resume,
        checkpoint: (spec.checkpoint_every > 0).then(|| format!("{dir}/serve.ckpt")),
    };
    println!(
        "workload: {} seed={} items={} sent={} distinct={} m={} shards={} prep_s={:.3}",
        spec.name,
        args.seed,
        input.ids.len(),
        input.sent().len(),
        input.oracle.distinct(),
        spec.counters,
        workload::SHARDS,
        t_prep.elapsed().as_secs_f64()
    );
    let seconds = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        ladder::run(spec, &input, &paths, &dir, seconds, args.seed)
    } else {
        end_to_end(spec, &input, &paths, seconds)
    };
    // Best effort: the directory is ignored by git either way.
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Writes the checkpoint a query_mix server resumes from: the stream's
/// prefix ingested by a pipeline of the serving configuration.
fn write_prefix_checkpoint<I: BenchItem>(
    spec: &Spec,
    input: &Input<I>,
    path: &str,
) -> Result<(), String> {
    let err = |e: hh::Error| format!("prefix checkpoint: {e}");
    let mut pipeline = spec
        .serve_options(None, None)
        .pipeline_config()
        .spawn::<I>()
        .map_err(err)?;
    for block in input.ids[..input.prefix].chunks(workload::BLOCK) {
        pipeline.send_batch(&input.items(block)).map_err(err)?;
    }
    let shards = pipeline.snapshots().map_err(err)?;
    checkpoint::write(
        path,
        &Checkpoint {
            shards,
            unobserved: 0,
        },
    )
    .map_err(err)?;
    pipeline.finish().map_err(err)?;
    Ok(())
}

/// What one checked trial contributes to the metrics.
struct Sample {
    /// Share of the CPU time the hypervisor stole while the trial ran.
    steal: f64,
    setup_s: f64,
    rate: f64,
    peak_mib: f64,
    err_bound_ratio: f64,
    topk_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
}

/// Untraced server trials after one warm-up trial that is checked but
/// not measured, for `seconds` and until every timing has
/// [`MIN_WINDOWS`] windows. Only the quieter half of the trials is
/// measured (see [`measured`]).
fn end_to_end<I: BenchItem>(
    spec: &Spec,
    input: &Input<I>,
    paths: &Paths,
    seconds: Duration,
) -> Result<Outcome, String> {
    let chunks = input.chunks(spec.chunk);
    let mut scratch = Scratch::new();
    let mut tracer = Tracer::new(false, Instant::now());
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples: Vec<Sample> = Vec::new();

    let start = Instant::now();
    loop {
        if let Some(path) = &paths.checkpoint {
            for suffix in ["", ".prev", ".tmp"] {
                let _ = std::fs::remove_file(format!("{path}{suffix}"));
            }
        }
        let ticks = stats::CpuTicks::now();
        let trial = serve::trial(spec, input, &chunks, paths, &mut scratch, &mut tracer)?;
        let steal = stats::CpuTicks::now().steal_share_since(&ticks);
        // String snapshots are rebuilt on every eighth trial only (see
        // `check::check`); the warm-up trial is one of them.
        let n = samples.len();
        let rehydrate = match (spec.strings, n % 8) {
            (false, _) => usize::MAX,
            (true, 0) => 1,
            (true, _) => 0,
        };
        let verdict = check::check(&trial, input, &scratch.queries, rehydrate);
        attempted += trial.sent + trial.queries_sent;
        failed += verdict.lost_items + verdict.failed_queries;
        problems.extend(verdict.problems);
        samples.push(Sample {
            steal,
            setup_s: trial.setup_s,
            rate: trial.sent as f64 / trial.ingest_s / 1e6,
            peak_mib: trial.peak_heap as f64 / (1024.0 * 1024.0),
            err_bound_ratio: verdict.err_bound_ratio,
            topk_ms: scratch.queries.topk_ms.clone(),
            snapshot_ms: scratch.queries.snapshot_ms.clone(),
            lateness_ms: scratch.lateness_ms.clone(),
        });
        if !problems.is_empty() {
            break;
        }
        let elapsed = start.elapsed();
        let measured = measured(&samples);
        let windows = [
            windows(&measured, |s| &s.topk_ms),
            windows(&measured, |s| &s.snapshot_ms),
            windows(&measured, |s| &s.lateness_ms),
        ];
        if elapsed >= seconds && windows.iter().all(|w| w.len() >= MIN_WINDOWS) {
            break;
        }
        if elapsed >= GIVE_UP.max(seconds) {
            problems.push(format!(
                "too few latency windows after {} trials: topk {} snapshot {} lateness {}",
                samples.len(),
                windows[0].len(),
                windows[1].len(),
                windows[2].len()
            ));
            break;
        }
    }
    let measured = measured(&samples);
    if measured.is_empty() {
        problems.push("no measured trial".into());
        return Ok(Outcome {
            problems,
            attempted: attempted.max(1),
            failed,
            metrics: Metrics::new(),
        });
    }

    println!(
        "trials: {} (+1 warm-up) in {:.2} s; measured the {} with steal <= {:.2}%",
        samples.len() - 1,
        start.elapsed().as_secs_f64(),
        measured.len(),
        measured.iter().map(|s| s.steal).fold(0.0, f64::max) * 100.0
    );
    let mut topk = windows(&measured, |s| &s.topk_ms);
    let mut snap = windows(&measured, |s| &s.snapshot_ms);
    let mut late = windows(&measured, |s| &s.lateness_ms);
    for (name, w) in [("topk", &topk), ("snapshot", &snap), ("lateness", &late)] {
        println!(
            "samples: {name} {} in {} windows of >= {WINDOW}",
            w.iter().map(Vec::len).sum::<usize>(),
            w.len()
        );
    }
    let med =
        |f: fn(&Sample) -> f64| median(&mut measured.iter().map(|s| f(s)).collect::<Vec<_>>());
    let mut m = Metrics::new();
    m.insert("ingest_mitems_per_s", (med(|s| s.rate), "Mitems/s"));
    m.insert("topk_p50_ms", (window_quantile(&mut topk, 0.5), "ms"));
    m.insert("snapshot_p50_ms", (window_quantile(&mut snap, 0.5), "ms"));
    m.insert("setup_s", (med(|s| s.setup_s), "s"));
    m.insert("peak_heap_mib", (med(|s| s.peak_mib), "MiB"));
    m.insert("err_bound_ratio", (med(|s| s.err_bound_ratio), "ratio"));
    for (name, (value, unit)) in &m {
        println!("{name} = {value:.6} {unit}");
    }
    // Reported but not in the result line: the tails follow the host's
    // scheduling noise more than the program (see README.md).
    let tails = [
        ("topk_p90_ms", window_quantile(&mut topk, 0.9)),
        ("snapshot_p90_ms", window_quantile(&mut snap, 0.9)),
        ("send_lateness_p90_ms", window_quantile(&mut late, 0.9)),
    ];
    for (name, value) in tails {
        println!("{name} = {value:.6} ms (reported, not gated)");
    }
    println!(
        "failed_ops_ratio = {} ({failed} failed of {attempted} attempted; reported, not gated)",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        problems,
        attempted: attempted.max(1),
        failed,
        metrics: m,
    })
}

/// The trials that count: after the warm-up, those whose steal share is
/// at most the median of the run's, in order. Time the hypervisor gives
/// to other guests stalls the server's threads for milliseconds and
/// comes in bursts, so the quieter half measures the program rather
/// than its neighbours; on a host with no steal every trial counts.
fn measured(samples: &[Sample]) -> Vec<&Sample> {
    let trials = samples.get(1..).unwrap_or_default();
    let mut steal: Vec<f64> = trials.iter().map(|s| s.steal).collect();
    let cut = median(&mut steal);
    trials.iter().filter(|s| s.steal <= cut).collect()
}

/// One timing's samples from `trials`, cut into windows of consecutive
/// trials holding at least [`WINDOW`] samples each (a trailing partial
/// window is left out). The median over windows keeps a burst of outside
/// load that spoils a few windows from moving the result.
fn windows(trials: &[&Sample], field: fn(&Sample) -> &Vec<f64>) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut open = Vec::new();
    for t in trials {
        open.extend_from_slice(field(t));
        if open.len() >= WINDOW {
            out.push(std::mem::take(&mut open));
        }
    }
    out
}

/// The median over windows of each window's `q`-quantile.
fn window_quantile(windows: &mut [Vec<f64>], q: f64) -> f64 {
    let mut per_window: Vec<f64> = windows.iter_mut().map(|w| quantile(w, q)).collect();
    median(&mut per_window)
}

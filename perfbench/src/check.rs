//! The oracle check of every trial: the final merged engine against the
//! exact counts of the whole stream, and every query reply against what
//! had been sent when it was read.

use hh::analysis::check_tail;
use hh::engine::Engine;
use hh::net::proto::check_version;
use serde_json::Value;

use crate::serve::{QueryLog, Reply, Trial};
use crate::workload::{BenchItem, Input, QueryKind, K};

/// Counters the server reports in its `?stats` record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounts {
    pub bytes_in: u64,
    pub lines: u64,
    pub queries: u64,
    pub malformed: u64,
}

#[derive(Debug, Default)]
pub struct Verdict {
    /// Every check that failed, in words.
    pub problems: Vec<String>,
    /// Items sent but missing from the final engine.
    pub lost_items: u64,
    /// Queries without a valid reply.
    pub failed_queries: u64,
    /// Largest `|estimate - true|` over the merged `(3A, A+B)` k-tail
    /// bound at `k = K`.
    pub err_bound_ratio: f64,
    /// From the last `?stats` reply.
    pub net: NetCounts,
}

/// Checks one trial. The first `rehydrate` `?snapshot` replies are
/// rebuilt with `Engine::from_json` and checked; later ones only have
/// to be snapshot records (rebuilding a string-keyed snapshot costs
/// about a second in the JSON parser, which is quadratic in the size of
/// a document full of strings).
pub fn check<I: BenchItem>(
    trial: &Trial<I>,
    input: &Input<I>,
    queries: &QueryLog,
    rehydrate: usize,
) -> Verdict {
    let (log, replies) = (&queries.log, &queries.replies);
    let mut v = Verdict::default();
    let prefix = input.prefix as u64;
    let engine = &trial.engine;
    let oracle = &input.oracle;

    // Conservation: everything sent is in the final stream.
    let expected = prefix + trial.sent;
    if trial.sent != (input.ids.len() as u64 - prefix) {
        v.problems.push(format!(
            "sent {} of {} items",
            trial.sent,
            input.ids.len() as u64 - prefix
        ));
    }
    if engine.stream_len() != expected || engine.unobserved() != 0 {
        v.lost_items = expected.saturating_sub(engine.stream_len());
        v.problems.push(format!(
            "final stream_len {} (unobserved {}), expected {expected}",
            engine.stream_len(),
            engine.unobserved()
        ));
    }
    if trial.ack_routed != Some(trial.sent) {
        v.problems.push(format!(
            "drain ack routed {:?}, sent {}",
            trial.ack_routed, trial.sent
        ));
    }

    // Every certified interval contains the true count.
    let report = engine.report();
    let mut misses = 0u64;
    let mut first = None;
    for (item, f) in oracle.iter() {
        let (lo, hi) = report.interval(item);
        if lo > f || f > hi {
            misses += 1;
            first.get_or_insert_with(|| format!("{item:?}: true {f}, interval [{lo}, {hi}]"));
        }
    }
    for (item, _) in engine.entries() {
        if oracle.count(&item) == 0 {
            misses += 1;
            first.get_or_insert_with(|| format!("{item:?} stored but never sent"));
        }
    }
    if misses > 0 {
        v.problems.push(format!(
            "{misses} certificate violations, first: {}",
            first.unwrap_or_default()
        ));
    }

    // The merged k-tail guarantee.
    match engine.tail_constants() {
        Some(c) => {
            let tail = check_tail(engine, oracle, c.merged(), K);
            match tail.bound {
                Some(b) if b > 0.0 => v.err_bound_ratio = tail.max_err as f64 / b,
                _ => v.problems.push("k-tail bound is vacuous".into()),
            }
            if !tail.ok {
                v.problems.push(format!(
                    "k-tail check failed: max error {} > bound {:?}",
                    tail.max_err, tail.bound
                ));
            }
        }
        None => v.problems.push("engine has no tail constants".into()),
    }
    if engine.capacity() == 0 {
        v.problems.push("engine has no counters".into());
    }

    // Every query got one valid reply.
    let answered = replies.len() as u64;
    if answered < trial.queries_sent {
        v.failed_queries += trial.queries_sent - answered;
    }
    let mut last_snapshot_len = 0u64;
    let mut rebuilt = 0usize;
    for r in replies {
        let text = String::from_utf8_lossy(&log[r.start..r.end]);
        let text = text.trim();
        let result = if r.kind == QueryKind::Snapshot && rebuilt >= rehydrate {
            snapshot_framing(text)
        } else {
            rebuilt += usize::from(r.kind == QueryKind::Snapshot);
            check_reply::<I>(r, text, prefix, &mut last_snapshot_len, &mut v.net)
        };
        match result {
            Ok(()) => {}
            Err(why) => {
                v.failed_queries += 1;
                if v.failed_queries <= 3 {
                    v.problems.push(format!("{:?} reply: {why}", r.kind));
                }
            }
        }
    }
    if v.failed_queries > 3 {
        v.problems
            .push(format!("{} queries failed in all", v.failed_queries));
    }
    v
}

/// The cheap check of a snapshot reply that is not rebuilt: a versioned
/// record whose first member is the snapshot.
fn snapshot_framing(text: &str) -> Result<(), String> {
    let head = text.get(..text.len().min(64)).unwrap_or(text);
    if head.starts_with("{\"v\":") && head.contains("\"snapshot\":") && text.ends_with('}') {
        Ok(())
    } else {
        Err(format!("not a snapshot record: {head}"))
    }
}

fn check_reply<I: BenchItem>(
    r: &Reply,
    text: &str,
    prefix: u64,
    last_snapshot_len: &mut u64,
    net: &mut NetCounts,
) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    check_version(&v).map_err(|e| e.to_string())?;
    if !matches!(v["error"], Value::Null) {
        return Err(format!("error record {text}"));
    }
    let ceiling = prefix + r.sent_at;
    match r.kind {
        QueryKind::TopK => {
            let len = v["stream_len"].as_u64().ok_or("no stream_len")?;
            v["top"].as_array().ok_or("no top array")?;
            if len > ceiling {
                return Err(format!("stream_len {len} > {ceiling} sent"));
            }
        }
        QueryKind::Snapshot => {
            let snap = serde_json::to_string(&v["snapshot"]).map_err(|e| e.to_string())?;
            let engine: Engine<I> = Engine::from_json(&snap).map_err(|e| e.to_string())?;
            let len = engine.stream_len();
            if len < *last_snapshot_len || len > ceiling {
                return Err(format!(
                    "stream_len {len} outside [{}, {ceiling}]",
                    *last_snapshot_len
                ));
            }
            *last_snapshot_len = len;
        }
        QueryKind::Stats => {
            if v["stats"] != true {
                return Err("not a stats record".into());
            }
            if v["lost"].as_u64() != Some(0) {
                return Err(format!("lost {:?}", v["lost"].as_u64()));
            }
            let n = &v["net"];
            *net = NetCounts {
                bytes_in: n["bytes_in"].as_u64().unwrap_or(0),
                lines: n["lines"].as_u64().unwrap_or(0),
                queries: n["queries"].as_u64().unwrap_or(0),
                malformed: n["malformed"].as_u64().unwrap_or(0),
            };
            if net.malformed != 0 {
                return Err(format!("{} malformed lines", net.malformed));
            }
        }
    }
    Ok(())
}

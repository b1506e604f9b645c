//! The three workloads: their fixed shape, and the seeded inputs each
//! run generates, renders and checks against before any timer starts.

use std::io::Write as _;
use std::time::Duration;

use hh::engine::{AlgoKind, EngineConfig};
use hh::net::{ServeItem, ServeOptions};
use hh::streamgen::{ExactCounter, ZipfSampler};

/// Shards in every workload: one per core of the reference host.
pub const SHARDS: usize = 2;
/// The `k` of `?topk` and of the k-tail check.
pub const K: usize = 10;
/// Items per pipeline batch and per server staging flush (the server's
/// staging capacity), so a block of the replays is one shipped batch.
pub const BLOCK: usize = 8192;
/// Line offsets are recorded at this item granularity; every chunk and
/// block size below is a multiple of it.
const MARK: usize = 1024;

/// What a query connection asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    TopK,
    Snapshot,
    Stats,
}

impl QueryKind {
    pub fn line(self) -> &'static [u8] {
        match self {
            QueryKind::TopK => b"?topk\n",
            QueryKind::Snapshot => b"?snapshot\n",
            QueryKind::Stats => b"?stats\n",
        }
    }
}

/// The fixed shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Zipf exponent and universe size of the item ranks.
    pub alpha: f64,
    pub universe: usize,
    /// Counters per shard (`m`).
    pub counters: usize,
    /// Whole stream length; the first `prefix` items are resumed from a
    /// checkpoint, the rest are sent over the ingest connection.
    pub items: usize,
    pub prefix: usize,
    /// Open-loop ingest rate in items/s; `None` is a closed loop.
    pub pace: Option<f64>,
    /// Items per ingest `write`.
    pub chunk: usize,
    /// Query schedule: one query every `query_every`, cycling through
    /// `mix`. Closed-loop workloads run `queries` of them once ingest is
    /// done; the open-loop workload runs them beside ingest. Each period
    /// is at least three times the mix's mean service time, so a host that
    /// runs slower for a while does not build a backlog of queries.
    pub query_every: Duration,
    pub mix: &'static [QueryKind],
    pub queries: usize,
    /// Server checkpoint cadence in items (0 = none).
    pub checkpoint_every: u64,
    /// Whether items are URL-like strings rather than integers.
    pub strings: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    use QueryKind::*;
    let zipf = Spec {
        name: "zipf_ingest",
        alpha: 1.1,
        universe: 1 << 20,
        counters: 1024,
        items: 4 << 20,
        prefix: 0,
        pace: None,
        chunk: 32 * MARK,
        query_every: Duration::from_millis(3),
        mix: &[TopK, Snapshot],
        queries: 48,
        checkpoint_every: 0,
        strings: false,
    };
    match name {
        "zipf_ingest" => Some(zipf),
        "url_ingest" => Some(Spec {
            name: "url_ingest",
            alpha: 1.2,
            universe: 50_000,
            counters: 4096,
            items: 1 << 20,
            query_every: Duration::from_millis(20),
            queries: 60,
            strings: true,
            ..zipf
        }),
        "query_mix" => Some(Spec {
            name: "query_mix",
            items: 5 << 20,
            prefix: 1 << 20,
            pace: Some(4.0e6),
            chunk: 4 * MARK,
            query_every: Duration::from_millis(10),
            mix: &[TopK, Snapshot, TopK, Snapshot, Stats],
            queries: 0,
            checkpoint_every: 1 << 20,
            ..zipf
        }),
        _ => None,
    }
}

impl Spec {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(AlgoKind::SpaceSaving).counters(self.counters)
    }

    /// The serving options of every trial: SpaceSaving, [`SHARDS`]
    /// shards, the serving defaults otherwise. `resume`/`checkpoint`
    /// are the query_mix paths.
    pub fn serve_options(&self, resume: Option<&str>, checkpoint: Option<&str>) -> ServeOptions {
        let mut opts = ServeOptions::new(self.engine_config())
            .shards(Some(SHARDS))
            .top_k(K);
        if let Some(path) = resume {
            opts = opts.snapshot_in(Some(path.to_string()));
        }
        if let Some(path) = checkpoint {
            opts = opts
                .snapshot_out(Some(path.to_string()))
                .checkpoint_every(self.checkpoint_every);
        }
        opts
    }

    pub fn sent_items(&self) -> usize {
        self.items - self.prefix
    }
}

/// A contiguous run of rendered lines.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub start: usize,
    pub end: usize,
    pub items: usize,
}

/// One run's generated inputs.
pub struct Input<I: BenchItem> {
    /// The distinct items, indexed by id.
    pub keys: Vec<I>,
    /// The whole stream as ids into `keys`.
    pub ids: Vec<u32>,
    /// `ids[..prefix]` is resumed from a checkpoint, the rest is sent.
    pub prefix: usize,
    /// The sent part (`ids[prefix..]`) rendered as protocol lines.
    pub lines: Vec<u8>,
    /// Byte offset after every [`MARK`]-th sent line, plus the end.
    marks: Vec<usize>,
    /// Exact counts of the whole stream.
    pub oracle: ExactCounter<I>,
}

/// An item type the benchmark can generate.
pub trait BenchItem: ServeItem + std::fmt::Debug + Sync {
    /// The distinct items of a universe of `n`, for `seed`.
    fn universe(n: usize, seed: u64) -> Vec<Self>;
}

impl BenchItem for u64 {
    fn universe(n: usize, _seed: u64) -> Vec<u64> {
        (0..n as u64).collect()
    }
}

impl BenchItem for String {
    /// URL-like keys of about 30 bytes: printable, no whitespace, never
    /// all digits, so the server's non-digit parse path handles them.
    fn universe(n: usize, seed: u64) -> Vec<String> {
        const SERVICES: [&str; 8] = [
            "api", "shop", "media", "auth", "search", "billing", "cdn", "account",
        ];
        const RESOURCES: [&str; 8] = [
            "items", "orders", "images", "sessions", "results", "invoices", "assets", "profiles",
        ];
        (0..n)
            .map(|id| {
                let r = splitmix(seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
                let svc = SERVICES[(r & 7) as usize];
                let res = RESOURCES[((r >> 3) & 7) as usize];
                let ver = 1 + (r >> 6) % 3;
                format!("/{svc}/v{ver}/{res}/{id:07}.json")
            })
            .collect()
    }
}

/// SplitMix64: the seed expander for everything the Zipf sampler does
/// not draw.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates), mapping Zipf ranks to
/// ids so the hot items differ from seed to seed.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

impl<I: BenchItem> Input<I> {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let keys = I::universe(spec.universe, seed);
        let perm = permutation(spec.universe, splitmix(seed ^ 0x5eed));
        let mut zipf = ZipfSampler::new(spec.universe, spec.alpha, seed);
        let ids: Vec<u32> = (0..spec.items)
            .map(|_| perm[(zipf.sample() - 1) as usize])
            .collect();

        let mut counts = vec![0u64; spec.universe];
        for &id in &ids {
            counts[id as usize] += 1;
        }
        let mut oracle = ExactCounter::new();
        for (id, &c) in counts.iter().enumerate() {
            oracle.update_by(keys[id].clone(), c);
        }

        let mut lines = Vec::with_capacity(spec.sent_items() * 8);
        let mut marks = Vec::with_capacity(spec.sent_items() / MARK + 1);
        for (i, &id) in ids[spec.prefix..].iter().enumerate() {
            if i > 0 && i % MARK == 0 {
                marks.push(lines.len());
            }
            writeln!(lines, "{}", keys[id as usize]).expect("writing to a Vec cannot fail");
        }
        marks.push(lines.len());
        Input {
            keys,
            ids,
            prefix: spec.prefix,
            lines,
            marks,
            oracle,
        }
    }

    /// The sent ids.
    pub fn sent(&self) -> &[u32] {
        &self.ids[self.prefix..]
    }

    /// The sent lines cut into runs of `items` lines (a multiple of
    /// [`MARK`]; the last run may be shorter).
    pub fn chunks(&self, items: usize) -> Vec<Chunk> {
        assert!(
            items.is_multiple_of(MARK),
            "chunk sizes are multiples of {MARK}"
        );
        let total = self.sent().len();
        let mut out = Vec::new();
        let mut start = 0;
        let mut done = 0;
        while done < total {
            let n = items.min(total - done);
            done += n;
            let end = self.marks[(done - 1) / MARK];
            out.push(Chunk {
                start,
                end,
                items: n,
            });
            start = end;
        }
        out
    }

    /// The items behind `ids`, materialized.
    pub fn items(&self, ids: &[u32]) -> Vec<I> {
        ids.iter()
            .map(|&id| self.keys[id as usize].clone())
            .collect()
    }
}

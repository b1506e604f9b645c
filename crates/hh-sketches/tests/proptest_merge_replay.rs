//! Differential tests for the Theorem 11 epoch merge and for snapshot
//! rehydration: the merged and rehydrated summaries must be *bit-identical*
//! to a naive replay that places every counter by scanning its bucket list
//! from the head.
//!
//! The oracle here keeps a summary as one `Vec` of `(item, raw count, err)`
//! rows in ascending count order, oldest first among equal counts — the
//! order `StreamSummary::snapshot_asc` walks. Each placement is a linear
//! scan from the smallest count, so the oracle shares no search code with
//! the library; it only shares the algorithms' replay rules (SPACESAVING's
//! evict-and-take-over, FREQUENT's decrement rounds). Compared are the full
//! row order (hence every FIFO tie), `stream_len`, `absorbed_slack` and the
//! decrement count, after the merge and again after more ingest.

use proptest::collection::vec;
use proptest::prelude::*;

use hh_counters::{FrequencyEstimator, Frequent, SpaceSaving};
use hh_sketches::engine::{
    AlgoKind, Engine, EngineConfig, FrequentState, Snapshot, SpaceSavingState,
};

/// The head-scan Stream-Summary.
#[derive(Debug, Clone, Default)]
struct NaiveSummary {
    /// `(item, raw count, err)`, ascending by count, oldest first on ties.
    rows: Vec<(u64, u64, u64)>,
}

impl NaiveSummary {
    /// A new or moved entry lands after every row with a count `<= count`:
    /// the newest member of its count's FIFO.
    fn insert(&mut self, item: u64, count: u64, err: u64) {
        let pos = self
            .rows
            .iter()
            .position(|&(_, c, _)| c > count)
            .unwrap_or(self.rows.len());
        self.rows.insert(pos, (item, count, err));
    }

    fn find(&self, item: u64) -> Option<usize> {
        self.rows.iter().position(|&(i, _, _)| i == item)
    }

    fn increment(&mut self, item: u64, by: u64) -> bool {
        let Some(pos) = self.find(item) else {
            return false;
        };
        if by > 0 {
            let (item, count, err) = self.rows.remove(pos);
            self.insert(item, count + by, err);
        }
        true
    }

    fn evict_min(&mut self) -> (u64, u64, u64) {
        self.rows.remove(0)
    }

    fn add_err(&mut self, item: u64, extra: u64) {
        let pos = self.find(item).expect("absorbed item is stored");
        self.rows[pos].2 += extra;
    }

    fn desc(&self) -> Vec<(u64, u64, u64)> {
        self.rows.iter().rev().copied().collect()
    }
}

/// SPACESAVING replayed on the head-scan summary.
#[derive(Debug, Clone)]
struct NaiveSpaceSaving {
    s: NaiveSummary,
    m: usize,
    stream_len: u64,
    slack: u64,
}

impl NaiveSpaceSaving {
    fn new(m: usize) -> Self {
        NaiveSpaceSaving {
            s: NaiveSummary::default(),
            m,
            stream_len: 0,
            slack: 0,
        }
    }

    fn from_parts(m: usize, stream_len: u64, slack: u64, desc: &[(u64, u64, u64)]) -> Self {
        let mut n = NaiveSpaceSaving::new(m);
        n.stream_len = stream_len;
        n.slack = slack;
        for &(item, count, err) in desc.iter().rev() {
            n.s.insert(item, count, err);
        }
        n
    }

    fn apply(&mut self, item: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.stream_len += count;
        if self.s.increment(item, count) {
            return;
        }
        if self.s.rows.len() < self.m {
            self.s.insert(item, count, 0);
        } else {
            let (_, min, _) = self.s.evict_min();
            self.s.insert(item, min + count, min);
        }
    }

    fn absorb_parts(&mut self, desc: &[(u64, u64, u64)], capacity: usize, slack: u64) {
        let donor_min = if desc.len() >= capacity {
            desc.iter().map(|&(_, c, _)| c).min().unwrap_or(0)
        } else {
            0
        };
        for &(item, count, err) in desc {
            if count > 0 {
                self.apply(item, count);
                self.s.add_err(item, err.min(count));
            }
        }
        self.slack += donor_min + slack;
    }

    fn snapshot(&self) -> Snapshot<u64> {
        Snapshot::SpaceSaving(SpaceSavingState {
            capacity: self.m,
            stream_len: self.stream_len,
            absorbed_slack: self.slack,
            entries: self.s.desc(),
        })
    }
}

/// FREQUENT replayed on the head-scan summary (raw counts relative to an
/// offset, exactly as the library stores them).
#[derive(Debug, Clone)]
struct NaiveFrequent {
    s: NaiveSummary,
    m: usize,
    offset: u64,
    absorbed: u64,
    stream_len: u64,
}

impl NaiveFrequent {
    fn new(m: usize) -> Self {
        NaiveFrequent {
            s: NaiveSummary::default(),
            m,
            offset: 0,
            absorbed: 0,
            stream_len: 0,
        }
    }

    fn from_parts(m: usize, stream_len: u64, decrements: u64, desc: &[(u64, u64)]) -> Self {
        let mut n = NaiveFrequent::new(m);
        n.stream_len = stream_len;
        n.offset = decrements;
        for &(item, value) in desc.iter().rev() {
            n.s.insert(item, decrements + value, decrements);
        }
        n
    }

    fn apply(&mut self, item: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.stream_len += count;
        let mut remaining = count;
        loop {
            if self.s.increment(item, remaining) {
                return;
            }
            if self.s.rows.len() < self.m {
                self.s.insert(item, self.offset + remaining, self.offset);
                return;
            }
            let t = remaining.min(self.s.rows[0].1 - self.offset);
            self.offset += t;
            remaining -= t;
            let offset = self.offset;
            self.s.rows.retain(|&(_, c, _)| c > offset);
            if remaining == 0 {
                return;
            }
        }
    }

    fn absorb_parts(&mut self, desc: &[(u64, u64)], decrements: u64, stream_len: u64) {
        let mut mass = 0;
        for &(item, value) in desc {
            if value > 0 {
                self.apply(item, value);
                mass += value;
            }
        }
        self.absorbed += decrements;
        self.stream_len += stream_len.saturating_sub(mass);
    }

    fn entries(&self) -> Vec<(u64, u64)> {
        self.s
            .desc()
            .into_iter()
            .map(|(i, raw, _)| (i, raw - self.offset))
            .collect()
    }

    fn snapshot(&self) -> Snapshot<u64> {
        Snapshot::Frequent(FrequentState {
            capacity: self.m,
            stream_len: self.stream_len,
            decrements: self.offset + self.absorbed,
            entries: self.entries(),
        })
    }
}

/// How a stream is split over the donors.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// By item, as the pipeline's hash routing does: donors are disjoint,
    /// so every replayed counter is a miss in the merged table.
    Disjoint,
    /// By position, round robin: every item may sit in every donor.
    Overlapping,
    /// By position, in contiguous chunks.
    Chunked,
}

/// The test stream: `random`, then `tie_reps` full rounds over the items
/// `0..tie_items`, so every one of those items gains the same count.
fn with_ties(random: &[u64], tie_items: u64, tie_reps: u64) -> Vec<u64> {
    let mut s = random.to_vec();
    for _ in 0..tie_reps {
        s.extend(0..tie_items);
    }
    s
}

fn split(stream: &[u64], donors: usize, how: Split) -> Vec<Vec<u64>> {
    let mut parts = vec![Vec::new(); donors];
    let chunk = stream.len().div_ceil(donors).max(1);
    for (pos, &x) in stream.iter().enumerate() {
        let d = match how {
            Split::Disjoint => (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % donors,
            Split::Overlapping => pos % donors,
            Split::Chunked => pos / chunk,
        };
        parts[d].push(x);
    }
    parts
}

fn split_kind(code: u64) -> Split {
    match code % 3 {
        0 => Split::Disjoint,
        1 => Split::Overlapping,
        _ => Split::Chunked,
    }
}

/// Builds the donors both ways and checks they agree before any merge.
fn spacesaving_donors(
    parts: &[Vec<u64>],
    m: usize,
) -> (Vec<SpaceSaving<u64>>, Vec<NaiveSpaceSaving>) {
    let mut real = Vec::new();
    let mut naive = Vec::new();
    for part in parts {
        let mut r = SpaceSaving::new(m);
        r.update_batch(part);
        let mut n = NaiveSpaceSaving::new(m);
        for &x in part {
            n.apply(x, 1);
        }
        assert_eq!(r.entries_with_err(), n.s.desc(), "donor ingest");
        real.push(r);
        naive.push(n);
    }
    (real, naive)
}

fn frequent_donors(parts: &[Vec<u64>], m: usize) -> (Vec<Frequent<u64>>, Vec<NaiveFrequent>) {
    let mut real = Vec::new();
    let mut naive = Vec::new();
    for part in parts {
        let mut r = Frequent::new(m);
        r.update_batch(part);
        let mut n = NaiveFrequent::new(m);
        for &x in part {
            n.apply(x, 1);
        }
        assert_eq!(r.entries(), n.entries(), "donor ingest");
        real.push(r);
        naive.push(n);
    }
    (real, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// SPACESAVING: `from_parts` of the first donor, then `absorb_parts` of
    /// the rest, equals the head-scan replay row for row.
    #[test]
    fn spacesaving_merge_matches_head_scan_replay(
        random in vec(0u64..40, 0..240),
        m in 1usize..24,
        donors in 1usize..5,
        shape in (0u64..3, 0u64..16, 0u64..5),
    ) {
        let stream = with_ties(&random, shape.1, shape.2);
        let parts = split(&stream, donors, split_kind(shape.0));
        let (real, naive) = spacesaving_donors(&parts, m);

        let mut merged = SpaceSaving::from_parts(
            m,
            real[0].stream_len(),
            real[0].absorbed_slack(),
            real[0].entries_with_err(),
        )
        .expect("a donor's own parts rehydrate");
        let mut oracle =
            NaiveSpaceSaving::from_parts(m, naive[0].stream_len, naive[0].slack, &naive[0].s.desc());
        prop_assert_eq!(merged.entries_with_err(), oracle.s.desc(), "rehydrated");
        for (r, n) in real.iter().zip(&naive).skip(1) {
            merged.absorb_parts(&r.entries_with_err(), r.capacity(), r.absorbed_slack()).unwrap();
            oracle.absorb_parts(&n.s.desc(), n.m, n.slack);
        }
        merged.check_invariants();
        prop_assert_eq!(merged.entries_with_err(), oracle.s.desc(), "merged rows");
        prop_assert_eq!(merged.stream_len(), oracle.stream_len);
        prop_assert_eq!(merged.absorbed_slack(), oracle.slack);

        // the merged state keeps its tie order under further ingest
        for &x in stream.iter().rev() {
            merged.update(x);
            oracle.apply(x, 1);
        }
        merged.check_invariants();
        prop_assert_eq!(merged.entries_with_err(), oracle.s.desc(), "after more ingest");
    }

    /// FREQUENT: the same merge, compared on the full entry order, the
    /// stream length and the decrement count.
    #[test]
    fn frequent_merge_matches_head_scan_replay(
        random in vec(0u64..40, 0..240),
        m in 1usize..24,
        donors in 1usize..5,
        shape in (0u64..3, 0u64..16, 0u64..5),
    ) {
        let stream = with_ties(&random, shape.1, shape.2);
        let parts = split(&stream, donors, split_kind(shape.0));
        let (real, naive) = frequent_donors(&parts, m);

        let mut merged = Frequent::from_parts(
            m,
            real[0].stream_len(),
            real[0].decrements(),
            real[0].entries(),
        )
        .expect("a donor's own parts rehydrate");
        let mut oracle = NaiveFrequent::from_parts(
            m,
            naive[0].stream_len,
            naive[0].offset + naive[0].absorbed,
            &naive[0].entries(),
        );
        prop_assert_eq!(merged.entries(), oracle.entries(), "rehydrated");
        for (r, n) in real.iter().zip(&naive).skip(1) {
            merged.absorb_parts(&r.entries(), r.decrements(), r.stream_len()).unwrap();
            oracle.absorb_parts(&n.entries(), n.offset + n.absorbed, n.stream_len);
        }
        merged.check_invariants();
        prop_assert_eq!(merged.entries(), oracle.entries(), "merged rows");
        prop_assert_eq!(merged.stream_len(), oracle.stream_len);
        prop_assert_eq!(merged.decrements(), oracle.offset + oracle.absorbed);

        for &x in stream.iter().rev() {
            merged.update(x);
            oracle.apply(x, 1);
        }
        merged.check_invariants();
        prop_assert_eq!(merged.entries(), oracle.entries(), "after more ingest");
    }

    /// The serving merge: shard 0 rehydrated, shard 1 absorbed, then the
    /// resume snapshot absorbed — the order the live `?topk` view is built
    /// in — for both counter backends, through the engine's snapshots.
    #[test]
    fn three_way_merge_with_resume_matches_head_scan_replay(
        random in vec(0u64..40, 0..240),
        prefix in vec(0u64..40, 0..120),
        m in 1usize..24,
        shape in (0u64..3, 0u64..16, 0u64..5),
    ) {
        let stream = with_ties(&random, shape.1, shape.2);
        let parts = split(&stream, 2, split_kind(shape.0));
        for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
            let config = EngineConfig::new(algo).counters(m);
            let mut snaps = Vec::new();
            for part in parts.iter().chain([&prefix]) {
                let mut e = config.build::<u64>().unwrap();
                e.update_batch(part);
                snaps.push(e.snapshot());
            }
            let mut merged = Engine::from_snapshot(snaps[0].clone()).unwrap();
            merged.merge_snapshot(&snaps[1]).unwrap();
            merged.merge_snapshot(&snaps[2]).unwrap();

            let expected = match &snaps[..] {
                [Snapshot::SpaceSaving(a), Snapshot::SpaceSaving(b), Snapshot::SpaceSaving(r)] => {
                    let mut o = NaiveSpaceSaving::from_parts(m, a.stream_len, a.absorbed_slack, &a.entries);
                    o.absorb_parts(&b.entries, b.capacity, b.absorbed_slack);
                    o.absorb_parts(&r.entries, r.capacity, r.absorbed_slack);
                    o.snapshot()
                }
                [Snapshot::Frequent(a), Snapshot::Frequent(b), Snapshot::Frequent(r)] => {
                    let mut o = NaiveFrequent::from_parts(m, a.stream_len, a.decrements, &a.entries);
                    o.absorb_parts(&b.entries, b.decrements, b.stream_len);
                    o.absorb_parts(&r.entries, r.decrements, r.stream_len);
                    o.snapshot()
                }
                other => panic!("unexpected snapshot kinds {other:?}"),
            };
            prop_assert_eq!(merged.snapshot(), expected, "{}", algo);
            // and the merged view rehydrates to itself
            let back = Engine::from_snapshot(merged.snapshot()).unwrap();
            prop_assert_eq!(back.snapshot(), merged.snapshot(), "{} rehydrated", algo);
        }
    }
}

/// Tables that never fill: every donor counter lands in free room, so the
/// merge is lossless and the merged counts are the exact combined counts.
#[test]
fn merge_into_a_table_that_is_not_full_is_exact() {
    let stream: Vec<u64> = (0..600).map(|i| (i * i + 3 * i) % 29).collect();
    let parts = split(&stream, 3, Split::Disjoint);
    let (real, naive) = spacesaving_donors(&parts, 64);
    let mut merged =
        SpaceSaving::from_parts(64, real[0].stream_len(), 0, real[0].entries_with_err()).unwrap();
    let mut oracle = NaiveSpaceSaving::from_parts(64, naive[0].stream_len, 0, &naive[0].s.desc());
    for (r, n) in real.iter().zip(&naive).skip(1) {
        merged
            .absorb_parts(&r.entries_with_err(), r.capacity(), 0)
            .unwrap();
        oracle.absorb_parts(&n.s.desc(), n.m, 0);
    }
    assert_eq!(merged.entries_with_err(), oracle.s.desc());
    assert_eq!(merged.absorbed_slack(), 0);
    for item in 0..29u64 {
        let exact = stream.iter().filter(|&&x| x == item).count() as u64;
        assert_eq!(merged.estimate(&item), exact, "item {item}");
    }
}

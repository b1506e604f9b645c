//! Theorem 11 conformance for sharded summarization on `Pipeline`.
//!
//! A `Pipeline` partitions a stream across shard worker threads, and
//! `merged_k_sparse` merges the per-shard summaries with the k-sparse
//! replay of Section 6.2. The merged summary must keep the Theorem 11
//! `(3A, A + B)` k-tail guarantee over the *whole* stream for any
//! partitioning, whatever the shard count.

use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

// Kept in the regime the paper's merge experiments use (m/k ~ 8, clear
// skew): the k-sparse replay truncates to the k largest counters, so the
// merged `(3A, A+B)` bound is only meaningful when the rank-(k+1)
// frequency sits below `3·F1res(k)/(m − 2k)`.
const N: usize = 400;
const TOTAL: u64 = 40_000;
const ALPHA: f64 = 1.3;
const M: usize = 64;
const K: usize = 8;

fn workload() -> Vec<u64> {
    let counts = exact_zipf_counts(N, TOTAL, ALPHA);
    stream_from_counts(&counts, StreamOrder::Shuffled(9))
}

/// Summarizes `stream` on `shards` order-preserving shards and returns the
/// k-sparse merge. Round-robin routing with one batch per shard deals each
/// shard one contiguous `1/shards` slice of the stream.
fn summarize(stream: &[u64], shards: usize) -> Engine<u64> {
    let mut pipeline: Pipeline<u64> =
        PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
            .shards(shards)
            .routing(Routing::RoundRobin)
            .ingest(ShardIngest::Preserve)
            .batch_size(stream.len().div_ceil(shards).max(1))
            .spawn()
            .expect("valid pipeline config");
    pipeline.send_batch(stream).expect("shards alive");
    let merged = pipeline.merged_k_sparse(K).expect("epoch query");
    pipeline.finish().expect("clean shutdown");
    merged
}

/// The Theorem 11 merged-summary error bound for this workload.
fn merged_bound(stream: &[u64]) -> f64 {
    let oracle = ExactCounter::from_stream(stream);
    let res = oracle.freqs().res1(K);
    TailConstants::ONE_ONE
        .merged()
        .bound(M, K, res)
        .expect("m > (A+B)k")
}

#[test]
fn one_way_and_eight_way_partitions_both_meet_the_merged_tail_bound() {
    let stream = workload();
    let oracle = ExactCounter::from_stream(&stream);
    let bound = merged_bound(&stream);

    for shards in [1usize, 8] {
        let merged = summarize(&stream, shards);
        assert!(merged.stored_len() <= M);
        for item in 1..=(N as u64) {
            let err = oracle.count(&item).abs_diff(merged.estimate(&item));
            assert!(
                err as f64 <= bound + 1e-9,
                "shards={shards} item={item}: error {err} exceeds (3A, A+B) bound {bound}"
            );
        }
    }
}

#[test]
fn partitioning_does_not_change_the_consumed_stream_length() {
    let stream = workload();
    for shards in [1usize, 3, 8] {
        let merged = summarize(&stream, shards);
        // The k-sparse replay keeps at most k entries per shard, so the
        // merged mass is bounded by the stream, never above it.
        assert!(merged.stream_len() <= stream.len() as u64);
        assert!(merged.stored_len() <= M);
    }
}

//! Routing an owned batch moves its items: `Pipeline::send_owned` must
//! make no clone on the producer thread, under either routing policy,
//! while the merged summary still counts every item exactly and the
//! drained vector keeps its capacity for the next batch.
//!
//! Clones are counted by the item type itself, in a thread-local
//! counter, so clones made by the shard workers (which own their engines
//! and may clone an item when it enters a table) never show up here.

use std::cell::Cell;

use hh_sketches::engine::{AlgoKind, EngineConfig};
use hh_sketches::pipeline::{PipelineConfig, Routing};
use hh_streamgen::ExactCounter;

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Clones made on the current thread so far.
fn clones() -> u64 {
    CLONES.with(Cell::get)
}

/// An item whose `Clone` is counted on the cloning thread.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Tracked(u64);

impl Clone for Tracked {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Tracked(self.0)
    }
}

/// 40 distinct values, skewed, in a fixed order.
fn stream(len: u64) -> Vec<u64> {
    (0..len).map(|i| (i * i + 7 * i) % 40).collect()
}

#[test]
fn owned_routing_clones_nothing_on_the_producer() {
    let values = stream(5_000);
    let oracle = ExactCounter::from_stream(&values);
    for routing in [Routing::HashPartition, Routing::RoundRobin] {
        // m above the 40 distinct values: every shard and the merge are exact.
        let mut pipeline =
            PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
                .shards(3)
                .batch_size(64)
                .routing(routing)
                .spawn::<Tracked>()
                .unwrap();
        let mut staged: Vec<Tracked> = Vec::with_capacity(700);
        let capacity = staged.capacity();
        for chunk in values.chunks(700) {
            staged.extend(chunk.iter().map(|&v| Tracked(v)));
            let before = clones();
            pipeline.send_owned(&mut staged).unwrap();
            assert_eq!(clones(), before, "{routing:?}: send_owned cloned an item");
            assert!(staged.is_empty(), "{routing:?}: batch not drained");
            assert_eq!(staged.capacity(), capacity, "{routing:?}: capacity lost");
        }
        assert_eq!(pipeline.routed(), values.len() as u64);

        let merged = pipeline.finish().unwrap();
        assert_eq!(merged.stream_len(), oracle.total(), "{routing:?}");
        for (value, count) in oracle.iter() {
            assert_eq!(
                merged.estimate(&Tracked(*value)),
                count,
                "{routing:?}: item {value}"
            );
        }
    }
}

/// The borrowing entry point is the same loop over cloned items: one
/// clone per item, and the same exact counts.
#[test]
fn slice_routing_clones_each_item_once() {
    let items: Vec<Tracked> = stream(1_000).into_iter().map(Tracked).collect();
    for routing in [Routing::HashPartition, Routing::RoundRobin] {
        let mut pipeline =
            PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
                .shards(2)
                .batch_size(64)
                .routing(routing)
                .spawn::<Tracked>()
                .unwrap();
        let before = clones();
        pipeline.send_batch(&items).unwrap();
        assert_eq!(clones() - before, items.len() as u64, "{routing:?}");
        let merged = pipeline.finish().unwrap();
        assert_eq!(merged.stream_len(), items.len() as u64);
        assert_eq!(
            merged.estimate(&Tracked(0)),
            items.iter().filter(|t| t.0 == 0).count() as u64
        );
    }
}

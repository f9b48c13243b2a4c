//! The four workloads: their shapes and their seeded inputs. The
//! README's workload table repeats these numbers.

use crate::input::{frames_over, Epoch, Log, Rng};
use waves_net::Frame;

/// What a workload serves and with which parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Keys `0..keys` (parties, for the monitor).
    pub keys: u64,
    pub window: u64,
    pub eps: f64,
    /// Engine shards per server.
    pub shards: usize,
    /// The server persists (default sync policy and checkpoint cadence).
    pub durable: bool,
    /// Wire bytes are counted over this many timed epochs, all in the
    /// first ingest block, so the count is a pure function of the seed.
    pub byte_epochs: u64,
    /// Epochs per timed ingest block: a whole number of pool passes
    /// and, when durable, of checkpoint periods, so every block holds
    /// the program's periodic work (fsync, checkpoint, delta shipping)
    /// in whole periods.
    pub period: u64,
}

pub const NAMES: &[&str] = &[
    "sparse-fanout",
    "dense-durable",
    "cluster-replicated",
    "monitor-referee",
];

/// INGEST frames a pipelined connection keeps in flight.
pub const PIPELINE: usize = 16;
/// Bits per event (one key's slice of one frame).
pub const EVENT_BITS: u64 = 256;
/// Cluster: events (one per key) between a `FLUSH` of every node and a
/// replication round.
pub const CLUSTER_EPOCH: usize = 512;
/// Monitor: parties, bits per party per round, rounds per `COMBINE`,
/// and the share of ε spent on the party synopses.
pub const PARTIES: u64 = 8;
pub const MONITOR_BATCH: u64 = 4096;
pub const COMBINE_EVERY: u64 = 16;
pub const EPS_SPLIT: f64 = 0.5;

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "sparse-fanout" => Spec {
            name: "sparse-fanout",
            keys: 100_000,
            window: 1024,
            eps: 0.1,
            shards: 2,
            durable: false,
            byte_epochs: 4,
            period: 24,
        },
        "dense-durable" => Spec {
            name: "dense-durable",
            keys: 1024,
            window: 1024,
            eps: 0.1,
            shards: 2,
            durable: true,
            byte_epochs: 32,
            period: 1024,
        },
        "cluster-replicated" => Spec {
            name: "cluster-replicated",
            keys: CLUSTER_EPOCH as u64,
            window: 1024,
            eps: 0.1,
            shards: 2,
            durable: false,
            byte_epochs: 4,
            period: 4,
        },
        "monitor-referee" => Spec {
            name: "monitor-referee",
            keys: PARTIES,
            window: 1 << 20,
            eps: 0.1,
            shards: 1,
            durable: false,
            byte_epochs: 512,
            period: 512,
        },
        _ => return None,
    };
    Some(s)
}

/// The workload's whole seeded stream.
pub fn log(spec: &Spec, seed: u64) -> Log {
    let mut rng = Rng::new(seed, spec.name.len() as u64);
    let all: Vec<u64> = (0..spec.keys).collect();
    let log = match spec.name {
        "sparse-fanout" => {
            // Set-up touches every key once; each timed epoch is 64
            // frames of 64 events over distinct keys, ~1% ones.
            let mut order = all.clone();
            rng.shuffle(&mut order);
            let setup = order
                .chunks(64 * 64)
                .map(|keys| frames_over(&mut rng, keys, 64, EVENT_BITS, 0.01))
                .collect();
            rng.shuffle(&mut order);
            let pool = order
                .chunks_exact(64 * 64)
                .map(|keys| frames_over(&mut rng, keys, 64, EVENT_BITS, 0.01))
                .collect();
            Log::new(spec.keys, setup, pool)
        }
        "dense-durable" => {
            // Set-up is the prepared run: 72 frames that each carry
            // every key, so every shard appends exactly one WAL batch
            // per frame. Timed epochs cycle four key groups of 256, each
            // as four frames of 64 events, ~50% ones: four WAL batches
            // per shard per epoch, so the default cadences fsync every
            // 16 epochs and checkpoint every 1024 (the period).
            let setup = (0..72)
                .map(|_| frames_over(&mut rng, &all, all.len(), EVENT_BITS, 0.5))
                .collect();
            let pool = (0..64)
                .map(|e| {
                    let group = &all[(e % 4) * 256..(e % 4 + 1) * 256];
                    frames_over(&mut rng, group, 64, EVENT_BITS, 0.5)
                })
                .collect();
            Log::new(spec.keys, setup, pool)
        }
        "cluster-replicated" => {
            // One event per request; an epoch gives every key one event
            // at ~10% ones. Set-up is each key's first full window.
            let epochs = |rng: &mut Rng, n: usize| -> Vec<Epoch> {
                (0..n)
                    .map(|_| frames_over(rng, &all, 1, EVENT_BITS, 0.1))
                    .collect()
            };
            let setup = epochs(&mut rng, (spec.window / EVENT_BITS) as usize);
            let pool = epochs(&mut rng, 4);
            Log::new(spec.keys, setup, pool)
        }
        "monitor-referee" => {
            // Each round gives every party one batch. A party's density
            // flips between 20% and 80% every 16 rounds (phases staggered
            // by party), so its window count drifts and it ships deltas
            // at a rate that does not depend on the seed. Set-up is each
            // party's first full window.
            let rounds = |rng: &mut Rng, first: u64, n: u64| -> Vec<Epoch> {
                (first..first + n)
                    .map(|r| {
                        let batch = (0..PARTIES)
                            .map(|p| {
                                let high = ((r + 2 * p) / 16) % 2 == 1;
                                (p, rng.bits(MONITOR_BATCH, if high { 0.8 } else { 0.2 }))
                            })
                            .collect();
                        vec![Frame::Ingest(batch)]
                    })
                    .collect()
            };
            let warm = spec.window / MONITOR_BATCH;
            let setup = rounds(&mut rng, 0, warm);
            let pool = rounds(&mut rng, warm, 512);
            Log::new(spec.keys, setup, pool)
        }
        other => unreachable!("no workload {other}"),
    };
    assert!(
        spec.period.is_multiple_of(log.pool.len() as u64),
        "{}: period is not a whole number of pool passes",
        spec.name
    );
    assert!(
        spec.byte_epochs <= spec.period,
        "{}: the byte-counted epochs must lie in the first block",
        spec.name
    );
    log
}

/// The closed-loop read mix: a key and a window, uniform.
pub fn read(rng: &mut Rng, spec: &Spec) -> (u64, u64) {
    (rng.below(spec.keys), 1 + rng.below(spec.window))
}

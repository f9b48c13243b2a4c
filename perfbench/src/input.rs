//! Seeded inputs. Every workload's bits are generated here, from the
//! run's `--seed`, before any clock starts; the program under test only
//! ever receives these generated bits.
//!
//! A workload's stream is a [`Log`]: a set-up prefix of epochs applied
//! once, then a pool of epochs the timed phase cycles through for as
//! long as the run lasts. An epoch is a list of `INGEST` frames; within
//! one epoch every key appears at most once, so frames that a pipelined
//! connection lets the server apply out of order never reorder one
//! key's bits.

use waves_core::Bits;
use waves_net::Frame;

/// SplitMix64: small, seedable, and independent of the repository's
/// own generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// `len` bits, each one with probability `p`.
    pub fn bits(&mut self, len: u64, p: f64) -> Bits {
        let threshold = (p * u64::MAX as f64) as u64;
        let mut words = vec![0u64; len.div_ceil(64) as usize];
        for i in 0..len {
            if self.next() < threshold {
                words[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        Bits::from_words(words, len)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One epoch: `INGEST` frames, each key at most once across them.
pub type Epoch = Vec<Frame>;

/// Where one event of a key sits in a [`Log`].
#[derive(Debug, Clone, Copy)]
struct Pos {
    epoch: u32,
    frame: u32,
    entry: u32,
}

/// A workload's whole stream plus a per-key index of its events, which
/// is what the exact oracle walks.
pub struct Log {
    pub setup: Vec<Epoch>,
    pub pool: Vec<Epoch>,
    setup_pos: Vec<Vec<Pos>>,
    pool_pos: Vec<Vec<Pos>>,
}

/// The `(key, bits)` entries of an `INGEST` frame.
pub fn entries(frame: &Frame) -> &[(u64, Bits)] {
    match frame {
        Frame::Ingest(e) => e,
        other => unreachable!("logs hold only INGEST frames, not {other:?}"),
    }
}

fn index(keys: u64, epochs: &[Epoch]) -> Vec<Vec<Pos>> {
    let mut pos = vec![Vec::new(); keys as usize];
    for (e, epoch) in epochs.iter().enumerate() {
        for (f, frame) in epoch.iter().enumerate() {
            for (i, (key, _)) in entries(frame).iter().enumerate() {
                pos[*key as usize].push(Pos {
                    epoch: e as u32,
                    frame: f as u32,
                    entry: i as u32,
                });
            }
        }
    }
    pos
}

impl Log {
    pub fn new(keys: u64, setup: Vec<Epoch>, pool: Vec<Epoch>) -> Self {
        let setup_pos = index(keys, &setup);
        let pool_pos = index(keys, &pool);
        Log {
            setup,
            pool,
            setup_pos,
            pool_pos,
        }
    }

    /// Pool epoch applied as the `n`-th timed epoch (0-based).
    pub fn timed(&self, n: u64) -> &Epoch {
        &self.pool[(n % self.pool.len() as u64) as usize]
    }

    /// Stream bits in one epoch.
    pub fn epoch_bits(epoch: &Epoch) -> u64 {
        epoch
            .iter()
            .flat_map(|f| entries(f).iter())
            .map(|(_, b)| b.len())
            .sum()
    }

    fn bits_at(epochs: &[Epoch], p: Pos) -> &Bits {
        &entries(&epochs[p.epoch as usize][p.frame as usize])[p.entry as usize].1
    }

    /// `key`'s events, newest first, after the whole set-up prefix and
    /// the first `done` timed epochs.
    pub fn history(&self, key: u64, done: u64) -> impl Iterator<Item = &Bits> + '_ {
        let pool = &self.pool_pos[key as usize];
        let p = self.pool.len() as u64;
        let cycles = if pool.is_empty() { 0 } else { done.div_ceil(p) };
        let timed = (0..cycles).rev().flat_map(move |c| {
            let limit = (done - c * p).min(p);
            pool.iter()
                .rev()
                .filter(move |pos| (pos.epoch as u64) < limit)
                .map(move |&pos| Self::bits_at(&self.pool, pos))
        });
        let setup = self.setup_pos[key as usize]
            .iter()
            .rev()
            .map(move |&pos| Self::bits_at(&self.setup, pos));
        timed.chain(setup)
    }

    /// Every event of the set-up prefix and then of `passes` full pool
    /// passes, in stream order.
    pub fn stream(&self, passes: usize) -> impl Iterator<Item = &(u64, Bits)> + '_ {
        let pool = std::iter::repeat_n(&self.pool, passes).flatten();
        self.setup
            .iter()
            .chain(pool)
            .flat_map(|epoch| epoch.iter())
            .flat_map(|f| entries(f).iter())
    }
}

/// Frames of `per_frame` events over `keys` (in the given order), one
/// `bits`-long event per key at density `p`.
pub fn frames_over(rng: &mut Rng, keys: &[u64], per_frame: usize, bits: u64, p: f64) -> Epoch {
    keys.chunks(per_frame)
        .map(|chunk| Frame::Ingest(chunk.iter().map(|&k| (k, rng.bits(bits, p))).collect()))
        .collect()
}

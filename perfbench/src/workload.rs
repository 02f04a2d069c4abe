//! The three workloads and their seeded key streams.
//!
//! Keys are 16 hex digits derived from a Zipf rank and the run's seed, so
//! the same seed gives the same keys and `sbfd` only ever sees key bytes.
//! Each workload draws a write ring and a read ring of ranks once, before
//! any process starts; the timed phase cycles through them.

use sbf_hash::{fmix64, SplitMix64};
use sbf_workloads::ZipfDistribution;

/// Hash functions per filter (the `sbfd` default).
pub const K: usize = 5;
/// Hash seed shared by `sbfd` and every in-process layer.
pub const HASH_SEED: u64 = 42;
/// Keys per INSERT_BATCH frame in the load phase.
pub const LOAD_FRAME: usize = 1024;

/// Frames per client call and keys per frame. One key per frame means
/// single-key INSERT/ESTIMATE frames; more than one frame per call means
/// the call is an `SbfClient::pipeline` window.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Frames sent by one client call.
    pub frames: usize,
    /// Keys carried by each frame.
    pub keys: usize,
}

impl Shape {
    /// Keys carried by one client call.
    pub fn keys_per_call(&self) -> usize {
        self.frames * self.keys
    }
}

/// One workload: `sbfd` geometry, key distribution and traffic shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name given on the command line.
    pub name: &'static str,
    /// Counters per shard (`sbf serve --m`).
    pub m: usize,
    /// Shards in the live sketch (`sbf serve --shards`).
    pub shards: usize,
    /// Distinct keys the Zipf law draws from.
    pub key_space: usize,
    /// Zipf skew `z`.
    pub skew: f64,
    /// Keys inserted by the load phase: the pre-fault before timing, and
    /// the fixed state the accuracy metrics are read from.
    pub load_keys: usize,
    /// Length of the write ring (a multiple of every write frame).
    pub write_ring: usize,
    /// Length of the read ring.
    pub read_ring: usize,
    /// Shape of a write call.
    pub write: Shape,
    /// Shape of a read call.
    pub read: Shape,
    /// Write calls per traffic cycle (sent first).
    pub writes_per_cycle: usize,
    /// Read calls per traffic cycle.
    pub reads_per_cycle: usize,
    /// Primary with a WAL shipping to one replica.
    pub durable: bool,
}

impl Spec {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        Some(match name {
            // 4 x 2^24 u64 counters = 512 MiB, above the 300 MiB L3: every
            // key's k counter touches miss cache while 1024-key frames
            // amortise the framing, so hashing and the sketch dominate.
            "ingest-large" => Spec {
                name: "ingest-large",
                m: 1 << 24,
                shards: 4,
                key_space: 1 << 22,
                skew: 0.8,
                load_keys: 1 << 20,
                write_ring: 1 << 20,
                read_ring: 1 << 18,
                write: Shape {
                    frames: 1,
                    keys: 1024,
                },
                read: Shape {
                    frames: 1,
                    keys: 1024,
                },
                writes_per_cycle: 4,
                reads_per_cycle: 1,
                durable: false,
            },
            // 4 x 2^14 counters = 512 KiB fits L2; ~14k distinct keys give
            // gamma = k n / m ~ 1 per shard. Sketch work is a small share
            // of a single-key frame, so the reactor and protocol dominate.
            "point-small" => Spec {
                name: "point-small",
                m: 1 << 14,
                shards: 4,
                key_space: 1 << 14,
                skew: 1.0,
                load_keys: 1 << 17,
                write_ring: 1 << 17,
                read_ring: 1 << 17,
                write: Shape {
                    frames: 32,
                    keys: 1,
                },
                read: Shape {
                    frames: 32,
                    keys: 1,
                },
                writes_per_cycle: 1,
                reads_per_cycle: 9,
                durable: false,
            },
            // Every acknowledged frame waits for an fsync and a replica
            // ship, so the WAL and replication dominate.
            "durable-replicated" => Spec {
                name: "durable-replicated",
                m: 1 << 16,
                shards: 4,
                key_space: 1 << 16,
                skew: 1.0,
                load_keys: 1 << 13,
                write_ring: 1 << 17,
                read_ring: 1 << 14,
                write: Shape {
                    frames: 8,
                    keys: 128,
                },
                read: Shape {
                    frames: 1,
                    keys: 128,
                },
                writes_per_cycle: 4,
                reads_per_cycle: 1,
                durable: true,
            },
            _ => return None,
        })
    }

    /// Keys carried by one traffic cycle.
    pub fn keys_per_cycle(&self) -> usize {
        self.writes_per_cycle * self.write.keys_per_call()
            + self.reads_per_cycle * self.read.keys_per_call()
    }

    /// `sbf serve` arguments for this geometry (no WAL, no replica).
    pub fn serve_args(&self) -> Vec<String> {
        [
            "--m".to_string(),
            self.m.to_string(),
            "--k".into(),
            K.to_string(),
            "--seed".into(),
            HASH_SEED.to_string(),
            "--shards".into(),
            self.shards.to_string(),
        ]
        .into()
    }
}

/// The seeded key streams of one run.
#[derive(Debug, Clone)]
pub struct Keys {
    /// Zipf ranks of the write ring.
    pub write_ranks: Vec<u32>,
    /// Key bytes of the write ring.
    pub write_keys: Vec<Vec<u8>>,
    /// Zipf ranks of the read ring.
    pub read_ranks: Vec<u32>,
    /// Key bytes of the read ring.
    pub read_keys: Vec<Vec<u8>>,
    seed: u64,
}

impl Keys {
    /// Draws both rings for `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Keys {
        let zipf = ZipfDistribution::new(spec.key_space, spec.skew);
        let mut rng = SplitMix64::new(seed);
        let mut draw =
            |n: usize| -> Vec<u32> { (0..n).map(|_| (zipf.sample(&mut rng) - 1) as u32).collect() };
        let write_ranks = draw(spec.write_ring);
        let read_ranks = draw(spec.read_ring);
        let bytes = |ranks: &[u32]| ranks.iter().map(|&r| key_bytes(seed, r)).collect();
        Keys {
            write_keys: bytes(&write_ranks),
            read_keys: bytes(&read_ranks),
            write_ranks,
            read_ranks,
            seed,
        }
    }

    /// The bytes of the key with Zipf rank `rank` (0-based).
    pub fn key(&self, rank: u32) -> Vec<u8> {
        key_bytes(self.seed, rank)
    }
}

/// `fmix64` is a bijection, so distinct ranks never share a key.
fn key_bytes(seed: u64, rank: u32) -> Vec<u8> {
    let salt = fmix64(seed ^ 0x7362_6664_6265_6e63);
    format!("{:016x}", fmix64(salt ^ u64::from(rank))).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_keys_other_seed_other_keys() {
        let spec = Spec::by_name("point-small").unwrap();
        let a = Keys::generate(&spec, 7);
        let b = Keys::generate(&spec, 7);
        let c = Keys::generate(&spec, 8);
        assert_eq!(a.write_keys, b.write_keys);
        assert_eq!(a.read_ranks, b.read_ranks);
        assert_ne!(a.write_keys, c.write_keys);
        assert_eq!(a.key(a.write_ranks[3]), a.write_keys[3]);
    }

    #[test]
    fn rings_hold_whole_frames() {
        for name in ["ingest-large", "point-small", "durable-replicated"] {
            let s = Spec::by_name(name).unwrap();
            assert_eq!(s.write_ring % s.write.keys_per_call(), 0, "{name}");
            assert_eq!(s.read_ring % s.read.keys_per_call(), 0, "{name}");
            assert_eq!(s.load_keys % LOAD_FRAME, 0, "{name}");
            assert!(s.load_keys <= s.write_ring, "{name}");
        }
    }
}

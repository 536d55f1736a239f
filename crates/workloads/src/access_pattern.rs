//! Parametric memory-access generators.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seeded generator of byte addresses within a
/// working set (addresses are offsets; the runner adds a base).
#[derive(Debug, Clone)]
pub enum AccessPattern {
    /// March through the working set with a fixed stride, wrapping.
    Sequential {
        /// Working-set size in bytes.
        working_set: u64,
        /// Stride between consecutive accesses.
        stride: u64,
        /// Cursor.
        pos: u64,
    },
    /// Uniformly random lines of the working set.
    RandomUniform {
        /// Working-set size in bytes.
        working_set: u64,
        /// Generator state.
        rng: SmallRng,
    },
    /// Zipf-like skew: a small hot region absorbs most accesses.
    Zipfian {
        /// Working-set size in bytes.
        working_set: u64,
        /// Fraction of accesses that go to the hot region.
        hot_fraction: f64,
        /// Size of the hot region in bytes.
        hot_bytes: u64,
        /// Generator state.
        rng: SmallRng,
    },
    /// A random permutation walked as a linked list (dependent
    /// loads, mcf/omnetpp-style).
    PointerChase {
        /// Permutation of line indices.
        perm: Vec<u32>,
        /// Cursor.
        pos: usize,
    },
    /// Blocked 2-D sweep (dense linear algebra / h264-style): walks
    /// `block × block` tiles of a `rows × cols` byte matrix.
    Blocked2d {
        /// Matrix row length in bytes.
        cols: u64,
        /// Number of rows.
        rows: u64,
        /// Tile edge in bytes.
        block: u64,
        /// Linear tile-walk cursor.
        pos: u64,
    },
    /// Stack-like reuse: mostly re-touches the most recent lines
    /// (perlbench/sjeng-style) with occasional deep excursions.
    StackLike {
        /// Working-set size in bytes.
        working_set: u64,
        /// Probability of touching the hot top-of-stack region.
        reuse: f64,
        /// Top-of-stack region size in bytes.
        top_bytes: u64,
        /// Generator state.
        rng: SmallRng,
    },
}

/// Cache-line size assumed by the generators.
pub const LINE: u64 = 64;

impl AccessPattern {
    /// A sequential streamer over `working_set` bytes.
    pub fn sequential(working_set: u64) -> Self {
        AccessPattern::Sequential {
            working_set,
            stride: LINE,
            pos: 0,
        }
    }

    /// A strided streamer (`stride` bytes between accesses).
    pub fn strided(working_set: u64, stride: u64) -> Self {
        AccessPattern::Sequential {
            working_set,
            stride,
            pos: 0,
        }
    }

    /// Uniform random lines.
    pub fn random(working_set: u64, seed: u64) -> Self {
        AccessPattern::RandomUniform {
            working_set,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Zipf-like hot/cold split.
    pub fn zipfian(working_set: u64, hot_fraction: f64, hot_bytes: u64, seed: u64) -> Self {
        AccessPattern::Zipfian {
            working_set,
            hot_fraction,
            hot_bytes: hot_bytes.min(working_set),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A pointer chase over `working_set` bytes (one hop per line).
    pub fn pointer_chase(working_set: u64, seed: u64) -> Self {
        let lines = (working_set / LINE).max(1) as u32;
        let mut perm: Vec<u32> = (0..lines).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        AccessPattern::PointerChase { perm, pos: 0 }
    }

    /// A blocked 2-D tile walk.
    pub fn blocked_2d(cols: u64, rows: u64, block: u64) -> Self {
        AccessPattern::Blocked2d {
            cols,
            rows,
            block: block.max(LINE),
            pos: 0,
        }
    }

    /// Stack-like reuse.
    pub fn stack_like(working_set: u64, reuse: f64, top_bytes: u64, seed: u64) -> Self {
        AccessPattern::StackLike {
            working_set,
            reuse,
            top_bytes: top_bytes.min(working_set),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Bytes of address space the generator draws from: every
    /// [`AccessPattern::next_offset`] is below it.
    pub fn extent(&self) -> u64 {
        match self {
            AccessPattern::Sequential { working_set, .. }
            | AccessPattern::RandomUniform { working_set, .. }
            | AccessPattern::Zipfian { working_set, .. }
            | AccessPattern::StackLike { working_set, .. } => *working_set,
            AccessPattern::PointerChase { perm, .. } => perm.len() as u64 * LINE,
            AccessPattern::Blocked2d { cols, rows, .. } => cols * rows,
        }
    }

    /// The next byte offset to access.
    pub fn next_offset(&mut self) -> u64 {
        match self {
            AccessPattern::Sequential {
                working_set,
                stride,
                pos,
            } => {
                let off = *pos;
                *pos = (*pos + *stride) % *working_set;
                off
            }
            AccessPattern::RandomUniform { working_set, rng } => {
                let lines = (*working_set / LINE).max(1);
                rng.gen_range(0..lines) * LINE
            }
            AccessPattern::Zipfian {
                working_set,
                hot_fraction,
                hot_bytes,
                rng,
            } => {
                let region = if rng.gen_bool(*hot_fraction) {
                    *hot_bytes
                } else {
                    *working_set
                };
                let lines = (region / LINE).max(1);
                rng.gen_range(0..lines) * LINE
            }
            AccessPattern::PointerChase { perm, pos } => {
                let off = perm[*pos] as u64 * LINE;
                *pos = (*pos + 1) % perm.len();
                off
            }
            AccessPattern::Blocked2d {
                cols,
                rows,
                block,
                pos,
            } => {
                // Enumerate lines inside tiles, tiles in row-major
                // order, from a single linear counter.
                let lines_per_row = *block / LINE;
                let lines_per_tile = lines_per_row * *block;
                let tiles_x = cols.div_ceil(*block);
                let tiles_y = rows.div_ceil(*block);
                let total = lines_per_tile * tiles_x * tiles_y;
                let p = *pos % total;
                *pos += 1;
                let tile = p / lines_per_tile;
                let within = p % lines_per_tile;
                let tx = (tile % tiles_x) * *block;
                let ty = (tile / tiles_x) * *block;
                let wy = within / lines_per_row;
                let wx = (within % lines_per_row) * LINE;
                ((ty + wy) % *rows) * *cols + (tx + wx) % *cols
            }
            AccessPattern::StackLike {
                working_set,
                reuse,
                top_bytes,
                rng,
            } => {
                let region = if rng.gen_bool(*reuse) {
                    *top_bytes
                } else {
                    *working_set
                };
                let lines = (region / LINE).max(1);
                rng.gen_range(0..lines) * LINE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps() {
        let mut p = AccessPattern::sequential(192);
        let offs: Vec<u64> = (0..4).map(|_| p.next_offset()).collect();
        assert_eq!(offs, vec![0, 64, 128, 0]);
    }

    #[test]
    fn strided_respects_stride() {
        let mut p = AccessPattern::strided(1024, 256);
        assert_eq!(p.next_offset(), 0);
        assert_eq!(p.next_offset(), 256);
    }

    #[test]
    fn random_stays_in_working_set() {
        let mut p = AccessPattern::random(4096, 1);
        for _ in 0..100 {
            let off = p.next_offset();
            assert!(off < 4096);
            assert_eq!(off % LINE, 0);
        }
    }

    #[test]
    fn zipfian_prefers_hot_region() {
        let mut p = AccessPattern::zipfian(1 << 20, 0.9, 4096, 2);
        let hot = (0..2000).filter(|_| p.next_offset() < 4096).count();
        assert!(hot > 1500, "hot region should absorb ~90%, got {hot}/2000");
    }

    #[test]
    fn pointer_chase_visits_every_line_once_per_lap() {
        let mut p = AccessPattern::pointer_chase(640, 3); // 10 lines
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            assert!(seen.insert(p.next_offset()));
        }
        // Second lap repeats the same permutation.
        assert!(seen.contains(&p.next_offset()));
    }

    #[test]
    fn stack_like_mostly_reuses_top() {
        let mut p = AccessPattern::stack_like(1 << 20, 0.8, 2048, 4);
        let top = (0..2000).filter(|_| p.next_offset() < 2048).count();
        assert!(top > 1400);
    }

    #[test]
    fn blocked_2d_yields_line_aligned_offsets() {
        let mut p = AccessPattern::blocked_2d(4096, 64, 512);
        for _ in 0..500 {
            assert_eq!(p.next_offset() % LINE, 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AccessPattern::random(1 << 16, 9);
        let mut b = AccessPattern::random(1 << 16, 9);
        for _ in 0..50 {
            assert_eq!(a.next_offset(), b.next_offset());
        }
    }
}

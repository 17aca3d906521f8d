//! Stand-in for `rand` 0.8 where the registry is unreachable: `StdRng`
//! seeded from a `u64`, `gen_range` over `Range<usize>` and `gen_bool`.
//! The stream differs from the published crate's (SplitMix64 here), so
//! `paramount gen` output differs too; the benchmark generates its own
//! inputs and never calls this.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "cannot sample an empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

pub mod rngs {
    pub struct StdRng(pub(crate) u64);
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

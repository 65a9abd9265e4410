//! Workload seeds.
//!
//! `--seed` picks the inputs. [`DEFAULT`] reproduces the `qsc-datasets`
//! stand-ins exactly; every other seed regenerates the same generator
//! families at the same sizes, with per-input generator seeds derived
//! from it by [`derive`]. The benchmark also draws its own random
//! choices (which edges to churn) from [`Rng`] seeded the same way.

/// The seed that loads the `qsc-datasets` stand-ins.
pub const DEFAULT: u64 = 0;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator seed for the input called `name` under workload seed `seed`.
pub fn derive(seed: u64, name: &str) -> u64 {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    splitmix(seed ^ splitmix(h))
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        let z = self.0;
        self.0 = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(z)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

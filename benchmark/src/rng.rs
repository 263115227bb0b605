//! The seeded generator behind `--seed`: SplitMix64, chosen because it is a
//! dozen lines, has no state to warm up, and gives well-mixed streams from
//! small consecutive seeds (the driver passes 1, 2, 3, …).

/// A deterministic 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one named purpose, so adding a draw to one
    /// generator (say, tile sizes) never shifts another (request order).
    pub fn fork(&self, purpose: &str) -> Self {
        let mut h = defines_engine::Fnv::new();
        h.write_u64(self.0);
        h.write(purpose.as_bytes());
        Self(h.finish())
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi` (`lo <= hi`). The modulo bias is below 2⁻⁴⁰ for
    /// the ranges the harness draws from.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

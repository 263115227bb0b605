//! Deterministic FNV-1a hashing: the one algorithm behind every identity
//! that outlives the process.
//!
//! `std::collections::hash_map::DefaultHasher` is not guaranteed stable
//! across Rust releases (clippy denies it workspace-wide), so every
//! fingerprint — `Accelerator::fingerprint`, the mapper's
//! `config_fingerprint`, the mapping-cache store's key fingerprint and the
//! matrix checkpoint header — is computed with this fixed algorithm
//! instead. It lives in this, the lowest crate, so every other crate can
//! reach it. The constants are the standard 64-bit FNV-1a offset basis and
//! prime.

/// Deterministic FNV-1a over a byte stream.
///
/// Unlike `DefaultHasher`, the produced value is a pure function of the
/// input bytes for every Rust release, so two builds of the tool agree on
/// the fingerprint of the same logical key.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A hasher initialized with the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` into the running hash (little-endian byte order).
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv::new();
        b.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish());
    }
}

//! FNV-1a (64-bit) — the benchmark's own copy, so known-answer digests and
//! seeded draws do not move when the program's hasher does.

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorb a `u64` (little-endian).
    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb a length-prefixed string, so adjacent fields cannot run
    /// together.
    pub fn str(self, s: &str) -> Fnv {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Final digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn length_prefix_separates_fields() {
        let a = Fnv::new().str("ab").str("c").finish();
        let b = Fnv::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}

//! The one FNV-1a hasher every crate uses for stable digests.

/// Incremental FNV-1a hasher (std-only; `DefaultHasher` is not stable
/// across releases, and artifact ids appear in reports).
///
/// Two primes are in use, and each must stay what it is: every artifact
/// id, disk-cache key and pinned digest built with [`Fnv::new`] hashes
/// with `0x1000_0000_01b3`, and every program fingerprint and coverage
/// signature built with [`Fnv::standard`] with the published 64-bit FNV
/// prime `0x100_0000_01b3`.
#[derive(Debug, Clone)]
pub struct Fnv {
    state: u64,
    prime: u64,
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Fresh hasher at the FNV offset basis, for artifact ids and keys.
    pub fn new() -> Fnv {
        Fnv {
            state: Self::OFFSET,
            prime: 0x1000_0000_01b3,
        }
    }

    /// Fresh hasher with the published FNV-1a prime, for program
    /// fingerprints and coverage signatures.
    pub fn standard() -> Fnv {
        let prime = 0x100_0000_01b3;
        Fnv {
            prime,
            ..Fnv::new()
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv {
        for b in bytes {
            self.state = (self.state ^ u64::from(*b)).wrapping_mul(self.prime);
        }
        self
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv {
        self.write(&v.to_le_bytes())
    }

    /// Absorb an `f64` by bit pattern (exact, `-0.0 != 0.0`).
    pub fn write_f64(&mut self, v: f64) -> &mut Fnv {
        self.write_u64(v.to_bits())
    }

    /// Absorb a bool.
    pub fn write_bool(&mut self, v: bool) -> &mut Fnv {
        self.write(&[v as u8])
    }

    /// Absorb a length-prefixed string (prefix prevents concatenation
    /// collisions between adjacent fields).
    pub fn write_str(&mut self, s: &str) -> &mut Fnv {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_primes_keep_their_digests() {
        // Published FNV-1a test vectors.
        assert_eq!(Fnv::standard().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::standard().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::standard().write(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        // The artifact-id hasher.
        assert_eq!(Fnv::new().write(b"a").finish(), 0xaf74_d84c_8601_ec8c);
        assert_eq!(Fnv::new().write(b"foobar").finish(), 0xf8ac_2471_f739_67e8);
    }
}

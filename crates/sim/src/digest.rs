//! Run digests: determinism claims as one-line equality checks.
//!
//! The paper's "design for choice" guidelines demand that the network can
//! explain itself; the first thing worth explaining is *whether two runs
//! were the same run*. A [`RunDigest`] is an FNV-1a hash over a run's
//! structured trace and final metrics snapshot (or, for the ambient
//! observation layer, over the run's full operation stream). Comparing two
//! digests replaces byte-diffing rendered JSON: equal digests mean the runs
//! recorded the same traces and the same metrics in the same order.

use serde::{Deserialize, Serialize};

/// Incremental FNV-1a (64-bit). Small, allocation-free, stable across
/// platforms — the same mixing the RNG fork labels already use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`: `k` steps over zero bytes in one
/// multiply, since xor with a zero byte leaves the state as it was.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one byte (used as a domain-separation tag between fields).
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorb a `u64` in little-endian byte order. Bit for bit the same as
    /// `write(&v.to_le_bytes())`: the bytes up to the highest nonzero one
    /// hash one by one, and the zero bytes above it fold into a single
    /// multiply by a power of the prime. Lengths, counts, depths and
    /// timestamps are mostly zero high bytes.
    pub fn write_u64(&mut self, v: u64) {
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        let mut rest = v;
        for _ in 0..significant {
            self.0 ^= rest & 0xff;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(PRIME_POWERS[8 - significant]);
    }

    /// Absorb an `f64` via its bit pattern (NaN payloads and signed zeros
    /// are distinguished, which is exactly what a determinism check wants).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of one run. Renders as 16 hex digits; equality of two
/// digests is the one-line determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunDigest(pub u64);

impl RunDigest {
    /// Digest of a run that recorded nothing at all.
    pub fn empty() -> Self {
        RunDigest(Fnv1a::new().finish())
    }

    /// Render as a fixed-width lowercase hex string.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the [`RunDigest::to_hex`] rendering back.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RunDigest)
    }
}

impl Default for RunDigest {
    /// The digest of a run that recorded nothing ([`RunDigest::empty`]),
    /// not the zero hash.
    fn default() -> Self {
        RunDigest::empty()
    }
}

impl core::fmt::Display for RunDigest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `write_u64` as it hashed before the zero-byte fold: one step per
    /// little-endian byte.
    fn byte_serial(state: Fnv1a, v: u64) -> u64 {
        let mut h = state;
        h.write(&v.to_le_bytes());
        h.finish()
    }

    fn folded(state: Fnv1a, v: u64) -> u64 {
        let mut h = state;
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn zero_byte_fold_matches_byte_serial_at_every_length_boundary() {
        let mut values = vec![0, u64::MAX];
        for k in 1..8 {
            values.extend([(1u64 << (8 * k)) - 1, 1u64 << (8 * k)]);
        }
        // From the offset basis and from a state that already absorbed
        // input, so the fold is checked against more than one start.
        let mut warm = Fnv1a::new();
        warm.write(b"warm");
        for v in values {
            for state in [Fnv1a::new(), warm] {
                assert_eq!(folded(state, v), byte_serial(state, v), "{v:#x}");
            }
        }
        assert_eq!(PRIME_POWERS[0], 1);
        assert_eq!(PRIME_POWERS[1], FNV_PRIME);
    }

    proptest! {
        /// Any value, shifted so every byte length occurs, hashes the same
        /// through the fold as byte by byte.
        #[test]
        fn zero_byte_fold_matches_byte_serial(v in any::<u64>(), shift in 0u32..64, seed in any::<u64>()) {
            let mut state = Fnv1a::new();
            state.write(&seed.to_le_bytes());
            prop_assert_eq!(folded(state, v >> shift), byte_serial(state, v >> shift));
            prop_assert_eq!(folded(state, v), byte_serial(state, v));
        }

        /// `write_str` and `write_f64` hash their byte-serial forms: the
        /// length prefix then the bytes, and the bit pattern.
        #[test]
        fn str_and_f64_writes_match_byte_serial(s in "[a-zé ]{0,40}", bits in any::<u64>(), shift in 0u32..64) {
            let mut folded = Fnv1a::new();
            folded.write_str(&s);
            let mut serial = Fnv1a::new();
            serial.write(&(s.len() as u64).to_le_bytes());
            serial.write(s.as_bytes());
            prop_assert_eq!(folded.finish(), serial.finish());

            let x = f64::from_bits(bits >> shift);
            let mut folded = Fnv1a::new();
            folded.write_f64(x);
            let mut serial = Fnv1a::new();
            serial.write(&x.to_bits().to_le_bytes());
            prop_assert_eq!(folded.finish(), serial.finish());
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = RunDigest(0x0123_4567_89ab_cdef);
        assert_eq!(d.to_hex(), "0123456789abcdef");
        assert_eq!(RunDigest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(RunDigest::from_hex("xyz"), None);
        assert_eq!(format!("{d}"), "0123456789abcdef");
    }

    #[test]
    fn f64_bits_distinguish_nan_and_zero_signs() {
        let mut a = Fnv1a::new();
        a.write_f64(0.0);
        let mut b = Fnv1a::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}

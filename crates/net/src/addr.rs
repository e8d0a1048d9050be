//! Addresses, prefixes and autonomous-system numbers.
//!
//! The paper's §V.A.1 tussle is entirely about what an address *is*: if it
//! reflects topology (provider-assigned, PA) routing stays small but the
//! customer is locked to the provider; if it reflects identity
//! (provider-independent, PI) the customer can switch freely but every PI
//! prefix lands in everyone's core forwarding table. Both modes are modeled
//! here; the paper's recommendation — "addresses should reflect
//! connectivity, not identity" plus mechanisms that make renumbering cheap —
//! is exercised by experiment E1.

use core::fmt;
use serde::{Deserialize, Serialize};

/// An autonomous-system number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A routing prefix: the top `len` bits of `bits` are significant.
///
/// Semantically an IPv4-style 32-bit prefix; we never parse dotted-quad
/// text, only operate on the numeric form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// The default (match-everything) prefix.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// A prefix from raw bits and length. Bits below the prefix length are
    /// masked off so equal prefixes compare equal.
    pub fn new(bits: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Prefix { bits: bits & Self::mask(len), len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The masked prefix bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Does this prefix contain the 32-bit address value?
    pub fn contains(&self, value: u32) -> bool {
        (value & Self::mask(self.len)) == self.bits
    }

    /// Does this prefix contain (or equal) another prefix?
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && self.contains(other.bits)
    }

    /// Carve the `index`-th sub-prefix of length `new_len` out of this one.
    ///
    /// Used by providers to allocate customer blocks out of their
    /// aggregate. Panics if `new_len` is not longer than `len` or the index
    /// does not fit.
    pub fn subprefix(&self, new_len: u8, index: u32) -> Prefix {
        assert!(new_len > self.len && new_len <= 32, "bad subprefix length");
        let extra = new_len - self.len;
        assert!(extra == 32 || index < (1u32 << extra), "subprefix index out of range");
        let bits = self.bits | (index << (32 - new_len as u32));
        Prefix::new(bits, new_len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}/{}", self.bits, self.len)
    }
}

/// How an address block was obtained — the crux of the lock-in tussle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AddressOrigin {
    /// Provider-assigned: carved from the provider's aggregate. Aggregable
    /// (one core route per provider) but must be returned on switching.
    ProviderAssigned(Asn),
    /// Provider-independent: owned by the customer. Portable across
    /// providers but contributes its own core routing entry.
    ProviderIndependent,
}

/// A host address: a 32-bit value plus the origin of its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Address {
    /// The 32-bit address value.
    pub value: u32,
    /// Where the enclosing block came from.
    pub origin: AddressOrigin,
}

impl Address {
    /// An address inside `prefix` with the given host part.
    pub fn in_prefix(prefix: Prefix, host: u32, origin: AddressOrigin) -> Self {
        let host_bits = 32 - prefix.len() as u32;
        let host_mask = if host_bits == 32 { u32::MAX } else { (1u32 << host_bits) - 1 };
        Address { value: prefix.bits() | (host & host_mask), origin }
    }

    /// Is this address provider-assigned by `asn`?
    pub fn assigned_by(&self, asn: Asn) -> bool {
        self.origin == AddressOrigin::ProviderAssigned(asn)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_masks_low_bits() {
        let p = Prefix::new(0xdead_beef, 16);
        assert_eq!(p.bits(), 0xdead_0000);
        assert_eq!(p, Prefix::new(0xdead_0000, 16));
    }

    #[test]
    fn contains_and_covers() {
        let p16 = Prefix::new(0x0a00_0000, 8);
        let p24 = Prefix::new(0x0a01_0200, 24);
        assert!(p16.contains(0x0a01_0203));
        assert!(!p16.contains(0x0b00_0000));
        assert!(p16.covers(&p24));
        assert!(!p24.covers(&p16));
        assert!(p24.covers(&p24));
        assert!(Prefix::DEFAULT.contains(0xffff_ffff));
        assert!(Prefix::DEFAULT.covers(&p24));
    }

    #[test]
    fn subprefix_allocation() {
        let agg = Prefix::new(0x0a00_0000, 8);
        let c0 = agg.subprefix(16, 0);
        let c1 = agg.subprefix(16, 1);
        assert_eq!(c0, Prefix::new(0x0a00_0000, 16));
        assert_eq!(c1, Prefix::new(0x0a01_0000, 16));
        assert!(agg.covers(&c0) && agg.covers(&c1));
        assert_ne!(c0, c1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subprefix_index_bounds() {
        Prefix::new(0, 8).subprefix(9, 2);
    }

    #[test]
    fn address_in_prefix() {
        let p = Prefix::new(0x0a01_0000, 16);
        let a = Address::in_prefix(p, 0x0000_0005, AddressOrigin::ProviderAssigned(Asn(7)));
        assert_eq!(a.value, 0x0a01_0005);
        assert!(p.contains(a.value));
        assert!(a.assigned_by(Asn(7)));
        assert!(!a.assigned_by(Asn(8)));
    }

    #[test]
    fn host_part_is_masked() {
        let p = Prefix::new(0x0a01_0000, 16);
        let a = Address::in_prefix(p, 0xffff_0001, AddressOrigin::ProviderIndependent);
        assert_eq!(a.value, 0x0a01_0001);
    }

    #[test]
    fn zero_len_prefix_hosts() {
        let a =
            Address::in_prefix(Prefix::DEFAULT, 0x1234_5678, AddressOrigin::ProviderIndependent);
        assert_eq!(a.value, 0x1234_5678);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Asn(42).to_string(), "AS42");
        assert_eq!(Prefix::new(0x0a000000, 8).to_string(), "0a000000/8");
    }
}

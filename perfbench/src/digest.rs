//! Report digests: FNV-1a over the `Debug` rendering of report fields.
//!
//! `Debug` prints every field and every float with its exact shortest
//! round-trip form, so two reports digest equal exactly when the fields
//! fed in are equal.

use std::fmt::{self, Debug, Write};

/// An incremental 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds the `Debug` rendering of `value`.
    pub fn add<T: Debug + ?Sized>(&mut self, value: &T) {
        write!(self, "{value:?}|").expect("digest writes cannot fail");
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_digest_equal_and_any_change_shows() {
        let digest = |v: &[f64]| {
            let mut d = Digest::new();
            d.add(v);
            d.finish()
        };
        assert_eq!(digest(&[1.0, 2.5]), digest(&[1.0, 2.5]));
        assert_ne!(digest(&[1.0, 2.5]), digest(&[1.0, 2.500_000_000_000_001]));
        assert_ne!(digest(&[1.0, 2.5]), digest(&[2.5, 1.0]));
    }
}

//! Byte-size newtype used throughout the scaling model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A size in bytes.
///
/// The paper mixes decimal units for item sizes ("a 5 KB ad banner") with
/// binary units for device capacities ("64 GB of flash"). `ByteSize` offers
/// constructors for both so call sites can state which convention they mean.
///
/// # Example
///
/// ```
/// use nvmscale::ByteSize;
///
/// let budget = ByteSize::from_gib(25.6);
/// let item = ByteSize::from_kb(100);
/// assert_eq!(budget.items_of(item), 274_877);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from decimal kilobytes (1 KB = 1000 bytes).
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * 1_000)
    }

    /// Creates a size from binary kibibytes (1 KiB = 1024 bytes).
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1_024)
    }

    /// Creates a size from binary mebibytes (1 MiB = 1024^2 bytes).
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1_048_576)
    }

    /// Creates a size from (possibly fractional) binary gibibytes.
    pub fn from_gib(gib: f64) -> Self {
        ByteSize((gib * 1_073_741_824.0).round() as u64)
    }

    /// Creates a size from (possibly fractional) binary tebibytes.
    pub fn from_tib(tib: f64) -> Self {
        ByteSize((tib * 1_099_511_627_776.0).round() as u64)
    }

    /// Raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// How many items of size `item` fit fully inside `self`.
    ///
    /// Returns 0 when `item` is zero-sized, so callers never divide by zero.
    pub fn items_of(self, item: ByteSize) -> u64 {
        self.0.checked_div(item.0).unwrap_or(0)
    }

    /// Multiplies the size by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(factor))
    }

    /// Scales the size by a floating-point factor, rounding to whole bytes.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> ByteSize {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        ByteSize((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;

    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;

    fn mul(self, rhs: u64) -> ByteSize {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;

    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= 1_099_511_627_776 {
            write!(f, "{:.2} TiB", b / 1_099_511_627_776.0)
        } else if self.0 >= 1_073_741_824 {
            write!(f, "{:.2} GiB", b / 1_073_741_824.0)
        } else if self.0 >= 1_048_576 {
            write!(f, "{:.2} MiB", b / 1_048_576.0)
        } else if self.0 >= 1_024 {
            write!(f, "{:.2} KiB", b / 1_024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_byte_counts() {
        assert_eq!(ByteSize::from_kb(5).bytes(), 5_000);
        assert_eq!(ByteSize::from_kib(4).bytes(), 4_096);
        assert_eq!(ByteSize::from_mib(1).bytes(), 1_048_576);
        assert_eq!(ByteSize::from_gib(1.0).bytes(), 1_073_741_824);
        assert_eq!(ByteSize::from_tib(1.0).bytes(), 1_099_511_627_776);
    }

    #[test]
    fn items_of_divides_and_handles_zero() {
        let budget = ByteSize::from_kb(10);
        assert_eq!(budget.items_of(ByteSize::from_kb(3)), 3);
        assert_eq!(budget.items_of(ByteSize::ZERO), 0);
    }

    #[test]
    fn arithmetic_saturates_instead_of_wrapping() {
        let max = ByteSize(u64::MAX);
        assert_eq!(max + ByteSize(1), max);
        assert_eq!(ByteSize::ZERO - ByteSize(1), ByteSize::ZERO);
        assert_eq!(max.saturating_mul(2), max);
    }

    #[test]
    fn display_picks_the_natural_unit() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::from_gib(25.6).to_string(), "25.60 GiB");
    }

    #[test]
    fn scale_rounds_to_whole_bytes() {
        assert_eq!(ByteSize(10).scale(0.25).bytes(), 3);
        assert_eq!(ByteSize(10).scale(0.0).bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_rejects_negative_factors() {
        let _ = ByteSize(1).scale(-1.0);
    }

    #[test]
    fn sum_accumulates() {
        let total: ByteSize = (1..=4).map(ByteSize::from_kib).sum();
        assert_eq!(total, ByteSize::from_kib(10));
    }
}

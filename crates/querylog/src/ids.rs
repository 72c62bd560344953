//! Newtype identifiers and the stable 64-bit string hash.
//!
//! PocketSearch identifies queries and search results by 64-bit hashes that
//! are persisted on flash and exchanged with the update server, so the hash
//! must be stable across runs and platforms — `std`'s `DefaultHasher` gives
//! no such guarantee. [`stable_hash64`] is FNV-1a, which is deterministic,
//! trivially portable, and plenty for the few hundred thousand keys a
//! cloudlet holds.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw index.
            pub const fn index(self) -> u32 {
                self.0
            }

            /// The index as a `usize`, for slice addressing.
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                $name(index)
            }
        }
    };
}

id_newtype!(
    /// Identifies a query string within a [`Universe`](crate::Universe).
    QueryId,
    "q"
);
id_newtype!(
    /// Identifies a search result (a clicked URL) within a universe.
    ResultId,
    "r"
);
id_newtype!(
    /// Identifies a `(query, result)` pair within a universe.
    PairId,
    "p"
);
id_newtype!(
    /// Identifies a mobile user.
    UserId,
    "u"
);

/// Stable 64-bit FNV-1a hash of a byte string.
///
/// # Example
///
/// ```
/// use querylog::stable_hash64;
///
/// // Deterministic across runs: safe to persist and to ship to a server.
/// assert_eq!(stable_hash64(b"youtube"), stable_hash64(b"youtube"));
/// assert_ne!(stable_hash64(b"youtube"), stable_hash64(b"yotube"));
/// ```
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn id_newtypes_round_trip_and_display() {
        let q = QueryId::new(7);
        assert_eq!(q.index(), 7);
        assert_eq!(q.as_usize(), 7);
        assert_eq!(q.to_string(), "q7");
        assert_eq!(ResultId::from(3).to_string(), "r3");
        assert_eq!(PairId::new(1).to_string(), "p1");
        assert_eq!(UserId::new(0).to_string(), "u0");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(QueryId::new(1) < QueryId::new(2));
    }
}

//! The workspace lock-rank map.
//!
//! Every [`analysis::sync::OrderedRwLock`] in the serving stack takes
//! its rank from here; a thread may only acquire ranks in strictly
//! increasing order (checked in debug builds). Lower rank = outer
//! lock. The static companion — the `cloudlet-analysis` lock graph —
//! checks the same discipline across function boundaries at lint time.
//!
//! Current order, outermost first:
//!
//! 1. [`FRONT_LANE`] — a front-end lane's service slot. `execute`
//!    and `serve_batch` hold it across a whole serve call.
//! 2. [`PEER_FABRIC`] — a cell's [`crate::peer::PeerFabric`]
//!    membership vector. The front-end consults the fabric on the
//!    miss path *after* dropping the lane guard, but the rank sits
//!    inside the lane's so a future in-lane consult stays legal.
//!    Registration/refresh takes the write side; serve-path consults
//!    take the read side and read the holdings it guards in place.
//!    Innermost: nothing else is acquired while it is held.
//!
//! Adding a lock? Give it a rank that reflects where it nests, leave
//! gaps for future layers, and extend this list.
//!
//! # Lock-free paths (no rank consumed)
//!
//! The DRAM serve index takes no lock at all:
//! [`crate::shard::ShardedTable::lookup`], the community half of
//! [`crate::cache::SplitCache::lookup`], and `PopulationLane`'s
//! community probes all read a [`crate::hashtable::frozen::FrozenTable`]
//! — an immutable image shared by `Arc`. Nothing writes a built index
//! (a §5.4 refresh builds a new one), so there is nothing to order. The
//! front-end lane lock is still taken (shared, [`FRONT_LANE`]) to pin
//! the service slot.

/// Rank of a pipelined front-end lane (`frontend::FrontLane`).
pub const FRONT_LANE: u32 = 10;

/// Rank of a cell's peer-fabric membership vector
/// (`peer::PeerFabric`).
pub const PEER_FABRIC: u32 = 15;

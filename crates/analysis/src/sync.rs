//! Rank-checked locks: the dynamic companion to the static lock
//! graph.
//!
//! [`OrderedRwLock`] wraps `std::sync::RwLock` with an explicit
//! numeric rank. In debug builds every acquisition is checked against
//! a thread-local stack of currently-held ranks: a thread may only
//! acquire locks of **strictly increasing** rank. Any violation —
//! including re-acquiring the same rank, which would self-deadlock a
//! writer — fails an assertion immediately at the acquisition site,
//! long before the interleaving that would deadlock in production.
//!
//! Release builds compile the checks out entirely; the wrapper is a
//! plain `RwLock` plus two words of metadata.
//!
//! The workspace rank map lives next to the locks it orders (see
//! `cloudlet_core::lockrank`): lower ranks are outer locks, higher
//! ranks inner. Poisoning is absorbed the same way the rest of the
//! workspace does — a panic while holding a data lock leaves the data
//! intact for these structures, so guards recover the inner value
//! rather than propagating the poison.

use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// (rank, name) of every ordered lock this thread holds,
        /// in acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn check_and_push(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                assert!(
                    rank > top_rank,
                    "lock-order violation: acquiring {name:?} (rank {rank}) while \
                     holding {top_name:?} (rank {top_rank}); ranks must strictly \
                     increase — see cloudlet_core::lockrank"
                );
            }
            held.push((rank, name));
        });
    }

    pub(super) fn pop(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards usually drop in LIFO order; search from the end
            // so out-of-order drops (which are legal) still unwind.
            if let Some(i) = held.iter().rposition(|&e| e == (rank, name)) {
                held.remove(i);
            }
        });
    }
}

/// A reader-writer lock with a fixed place in the workspace lock
/// order.
#[derive(Default)]
pub struct OrderedRwLock<T> {
    rank: u32,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates a lock at `rank`. `name` appears in violation messages.
    pub fn new(rank: u32, name: &'static str, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access, checking the rank order in debug
    /// builds. Poisoned locks are recovered, matching workspace
    /// convention.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::check_and_push(self.rank, self.name);
        OrderedReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            name: self.name,
        }
    }

    /// Acquires exclusive access, checking the rank order in debug
    /// builds. Poisoned locks are recovered.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::check_and_push(self.rank, self.name);
        OrderedWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            name: self.name,
        }
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires `&mut self`, so no
    /// other thread can hold a guard).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard; releases its rank slot on drop.
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    rank: u32,
    name: &'static str,
}

/// Exclusive guard; releases its rank slot on drop.
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    rank: u32,
    name: &'static str,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.rank, self.name);
        #[cfg(not(debug_assertions))]
        let _ = (self.rank, self.name);
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::pop(self.rank, self.name);
        #[cfg(not(debug_assertions))]
        let _ = (self.rank, self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_nest_fine() {
        let outer = OrderedRwLock::new(10, "outer", 1u32);
        let inner = OrderedRwLock::new(20, "inner", 2u32);
        let a = outer.read();
        let b = inner.write();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn reacquisition_after_release_is_fine() {
        let outer = OrderedRwLock::new(10, "outer", ());
        let inner = OrderedRwLock::new(20, "inner", ());
        {
            let _a = outer.write();
        }
        {
            let _b = inner.write();
        }
        let _a = outer.read();
        drop(_a);
        let _b = inner.read();
    }

    #[test]
    fn out_of_lifo_drop_order_still_unwinds() {
        let outer = OrderedRwLock::new(10, "outer", ());
        let inner = OrderedRwLock::new(20, "inner", ());
        let a = outer.read();
        let b = inner.read();
        drop(a); // released before b — legal, must not confuse tracking
        drop(b);
        let _again = outer.write();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checks are debug-only")]
    #[should_panic(expected = "lock-order violation")]
    fn descending_rank_acquisition_panics_in_debug() {
        let outer = OrderedRwLock::new(10, "outer", ());
        let inner = OrderedRwLock::new(20, "inner", ());
        let _b = inner.read();
        let _a = outer.read(); // rank 10 while holding 20: inversion
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checks are debug-only")]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_reentry_panics_in_debug() {
        let lock = OrderedRwLock::new(10, "lane", ());
        let _a = lock.read();
        let _b = lock.read(); // same rank: would self-deadlock a writer
    }

    #[test]
    fn threads_track_ranks_independently() {
        let lock = std::sync::Arc::new(OrderedRwLock::new(20, "shared", 0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = std::sync::Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    *lock.write() += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread panicked");
        }
        assert_eq!(*lock.read(), 400);
    }

    #[test]
    fn into_inner_and_get_mut_bypass_locking() {
        let mut lock = OrderedRwLock::new(5, "plain", vec![1, 2]);
        lock.get_mut().push(3);
        assert_eq!(lock.into_inner(), vec![1, 2, 3]);
    }
}

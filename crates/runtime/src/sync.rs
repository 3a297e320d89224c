//! Thin synchronization wrappers over `std::sync`.
//!
//! The workspace previously used `parking_lot` for its ergonomic, non-poisoning
//! guards. These wrappers keep that calling convention — `lock()`, `read()`,
//! `write()` with no `Result` — on top of the standard library: a poisoned
//! lock is recovered rather than propagated, since every protected structure
//! here (interner tables, Skolem tables) stays consistent under panic
//! (append-only maps mutated in a single statement).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{self, Arc, PoisonError};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex and return the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read()`/`write()` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a new lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, recovering from poisoning.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the lock and return the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A read-mostly publication cell: one writer replaces the current value,
/// many readers grab a cheap shared handle to it.
///
/// This is the epoch-publication primitive behind the serving layer: the
/// writer calls [`Published::publish`] after each materialization step, and
/// every reader's [`Published::load`] returns an `Arc` of *some* published
/// value — never a torn or in-progress one, because the swap replaces the
/// whole `Arc` atomically under the lock. Readers hold the returned handle
/// for as long as they like; the value's memory is reclaimed when the last
/// handle (including the cell's own, after a later `publish`) drops.
///
/// The lock is held only for the duration of an `Arc` clone or swap (no
/// user code runs under it), so readers never block the writer for longer
/// than a pointer exchange and contention stays negligible even when many
/// reader threads re-`load` frequently.
#[derive(Debug)]
pub struct Published<T>(RwLock<Arc<T>>);

impl<T> Published<T> {
    /// A cell currently publishing `initial`.
    pub fn new(initial: T) -> Self {
        Published(RwLock::new(Arc::new(initial)))
    }

    /// Replace the published value; readers loading from now on see `value`.
    /// Returns the handle for the newly published value.
    pub fn publish(&self, value: T) -> Arc<T> {
        self.publish_arc(Arc::new(value))
    }

    /// [`Published::publish`] for a value the caller already wrapped.
    pub fn publish_arc(&self, value: Arc<T>) -> Arc<T> {
        *self.0.write() = Arc::clone(&value);
        value
    }

    /// A shared handle to the currently published value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.0.read())
    }
}

impl<T: Default> Default for Published<T> {
    fn default() -> Self {
        Published::new(T::default())
    }
}

/// A shared cooperative-cancellation flag.
///
/// Clones observe the same flag (it is an `Arc` internally), so a caller
/// can hand one clone to a long-running computation — the chase engine
/// polls it inside its binding loops and shard workers — and trip the other
/// from any thread. Cancellation is cooperative and one-way: once
/// [`CancelToken::cancel`] is called, every observer sees
/// [`CancelToken::is_cancelled`] forever.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (on any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = vec![];
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock stays usable.
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn into_inner_unwraps() {
        assert_eq!(Mutex::new(3).into_inner(), 3);
        assert_eq!(RwLock::new(4).into_inner(), 4);
    }

    #[test]
    fn published_swaps_whole_values_and_reclaims_old_ones() {
        let cell = Published::new(vec![1u64]);
        let pinned = cell.load();
        assert_eq!(*pinned, vec![1]);
        let fresh = cell.publish(vec![2, 3]);
        assert_eq!(*fresh, vec![2, 3]);
        // The pinned handle still sees the epoch it loaded…
        assert_eq!(*pinned, vec![1]);
        assert_eq!(*cell.load(), vec![2, 3]);
        // …and dropping it releases the last reference to the old value.
        let weak = Arc::downgrade(&pinned);
        drop(pinned);
        assert!(weak.upgrade().is_none(), "unpinned epoch must be reclaimed");
    }

    #[test]
    fn published_loads_are_consistent_under_concurrent_publishes() {
        let cell = Arc::new(Published::new((0u64, 0u64)));
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for i in 1..=1000u64 {
                    cell.publish((i, i * 2));
                }
            })
        };
        // Every load must observe some published pair, never a torn one.
        for _ in 0..1000 {
            let v = cell.load();
            assert_eq!(v.1, v.0 * 2, "torn read: {v:?}");
        }
        writer.join().unwrap();
        assert_eq!(*cell.load(), (1000, 2000));
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_threads() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let observer = token.clone();
        std::thread::spawn(move || observer.cancel())
            .join()
            .unwrap();
        assert!(token.is_cancelled(), "cancel on a clone is visible");
        token.cancel(); // idempotent
        assert!(token.clone().is_cancelled());
    }
}

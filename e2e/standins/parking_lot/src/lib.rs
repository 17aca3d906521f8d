//! Stand-in for `parking_lot` 0.12 where the registry is unreachable:
//! `Mutex` and `Condvar` over `std::sync` (poisoning ignored, as the
//! published crate has none) and a spinning `RawMutex`. Lock costs in a
//! build that uses this crate are `std`'s futex mutex, not parking_lot's.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while `Condvar::wait` has handed the std guard over.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard is held outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard is held outside Condvar::wait")
    }
}

#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard
            .inner
            .take()
            .expect("guard is held outside Condvar::wait");
        guard.inner = Some(self.0.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

pub mod lock_api {
    /// The raw-mutex subset `paramount_trace::exec` drives by hand.
    ///
    /// # Safety
    /// An implementation must provide mutual exclusion between `lock`
    /// and the matching `unlock`.
    pub unsafe trait RawMutex {
        #[allow(clippy::declare_interior_mutable_const)]
        const INIT: Self;
        fn lock(&self);
        fn try_lock(&self) -> bool;
        /// # Safety
        /// The caller must hold the lock.
        unsafe fn unlock(&self);
    }
}

pub struct RawMutex(AtomicBool);

// SAFETY: the flag is taken with an acquiring swap and released with a
// releasing store, so at most one `lock` returns between two `unlock`s.
unsafe impl lock_api::RawMutex for RawMutex {
    const INIT: Self = RawMutex(AtomicBool::new(false));

    fn lock(&self) {
        while !self.try_lock() {
            std::thread::yield_now();
        }
    }

    fn try_lock(&self) -> bool {
        !self.0.swap(true, Ordering::Acquire)
    }

    unsafe fn unlock(&self) {
        self.0.store(false, Ordering::Release);
    }
}

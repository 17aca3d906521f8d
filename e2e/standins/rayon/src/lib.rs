//! Stand-in for `rayon` 1.10 where the registry is unreachable: exactly
//! what `paramount::exec`'s batch mode calls. A "pool" is a width;
//! `install` makes it current for the calling thread, and
//! `par_iter().try_for_each` fans the slice over that many scoped
//! threads which claim items one at a time from a shared counter, while
//! the caller waits — so `with_threads(1)` still crosses a thread, as
//! it does in the published crate. There is no work stealing and no
//! persistent pool: pool numbers in a build that uses this crate are
//! the cost of `std::thread::scope`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Width of the pool `install` made current (0 = the global pool).
    static WIDTH: Cell<usize> = const { Cell::new(0) };
    /// This thread's index inside the pool running it.
    static INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn global_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn current_num_threads() -> usize {
    match WIDTH.with(Cell::get) {
        0 => global_width(),
        width => width,
    }
}

pub fn current_thread_index() -> Option<usize> {
    INDEX.with(Cell::get)
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            width: match self.threads {
                0 => global_width(),
                n => n,
            },
        })
    }
}

pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let outer = WIDTH.with(|w| w.replace(self.width));
        let result = op();
        WIDTH.with(|w| w.set(outer));
        result
    }
}

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSlice};
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> ParallelSlice<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParallelSlice<'a, T> {
        ParallelSlice(self)
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParallelSlice<'a, T> {
        ParallelSlice(self)
    }
}

pub struct ParallelSlice<'a, T>(&'a [T]);

impl<'a, T: Sync> ParallelSlice<'a, T> {
    /// Runs `op` on every item; the first error stops the claiming of
    /// further items and is returned.
    pub fn try_for_each<E, F>(self, op: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(&'a T) -> Result<(), E> + Sync,
    {
        let items = self.0;
        let width = current_num_threads();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let first_error: Mutex<Option<E>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for index in 0..width.min(items.len()) {
                let (next, failed, first_error, op) = (&next, &failed, &first_error, &op);
                scope.spawn(move || {
                    WIDTH.with(|w| w.set(width));
                    INDEX.with(|i| i.set(Some(index)));
                    while !failed.load(Ordering::Relaxed) {
                        let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        if let Err(e) = op(item) {
                            failed.store(true, Ordering::Relaxed);
                            first_error
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .get_or_insert(e);
                        }
                    }
                });
            }
        });
        match first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

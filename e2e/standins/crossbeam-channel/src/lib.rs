//! Stand-in for `crossbeam-channel` 0.5 where the registry is
//! unreachable: the bounded multi-producer multi-consumer channel the
//! streaming executor queues intervals on. One mutex-guarded ring and
//! two condvars, so a send or receive in a build that uses this crate
//! costs a lock and (when the other side sleeps) a futex wake, not the
//! published crate's lock-free slots.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panic cannot leave the ring half-updated: every critical
        // section is a push, a pop or a counter change.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub struct Sender<T>(Arc<Chan<T>>);
pub struct Receiver<T>(Arc<Chan<T>>);

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub struct RecvError;

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrySendError::Full(_) => "Full(..)",
            TrySendError::Disconnected(_) => "Disconnected(..)",
        })
    }
}

/// A channel holding at most `capacity` messages (`capacity >= 1`; the
/// published crate's zero-capacity rendezvous channel is not provided).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "stand-in channel needs capacity >= 1");
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.min(1024)),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

impl<T> Sender<T> {
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            if st.queue.len() < self.0.capacity {
                st.queue.push_back(msg);
                drop(st);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if st.queue.len() >= self.0.capacity {
            return Err(TrySendError::Full(msg));
        }
        st.queue.push_back(msg);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.lock();
        match st.queue.pop_front() {
            Some(msg) => {
                drop(st);
                self.0.not_full.notify_one();
                Ok(msg)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.0.not_full.notify_all();
        }
    }
}

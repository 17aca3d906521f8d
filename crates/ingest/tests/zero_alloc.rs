//! The event path allocates nothing once every name is interned.
//!
//! This binary installs its own counting global allocator. It counts per
//! thread, so the test harness's other threads do not disturb a count.
//! Four hot loops are held to zero allocations: `Enc::push_event` into
//! a reserved buffer, the borrowed decode of those frames
//! (`Dec::next_ref`), `Session::apply` of reads and writes of names the
//! session already knows, and `SessionStore::append_event` of binary
//! records once the WAL's tail buffer is warm.

use paramount_durable::FsyncPolicy;
use paramount_ingest::wire2::FrameRef;
use paramount_ingest::{
    Dec, Enc, Hello, OpRef, Session, SessionConfig, SessionStore, StoreConfig, WireOp,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made on the calling thread.
struct CountingAllocator;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every call to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const EVENTS: usize = 10_000;

/// `EVENTS` operations over 64 variable and 8 lock names on 4 threads.
fn ops() -> Vec<(usize, WireOp)> {
    (0..EVENTS)
        .map(|i| {
            let op = match i % 4 {
                0 => WireOp::Write(format!("var{}", i % 64)),
                1 => WireOp::Read(format!("var{}", (i * 7) % 64)),
                2 => WireOp::Acquire(format!("lock{}", i % 8)),
                _ => WireOp::Release(format!("lock{}", (i - 1) % 8)),
            };
            (i % 4, op)
        })
        .collect()
}

#[test]
fn encoding_and_borrowed_decoding_of_known_names_allocate_nothing() {
    let ops = ops();
    let mut enc = Enc::new();
    // Intern every name once.
    let mut warm = Vec::new();
    for (tid, op) in &ops {
        enc.push_event(&mut warm, *tid, op);
    }
    let mut wire = Vec::with_capacity(warm.len() * 2);
    let (allocs, ()) = allocations(|| {
        for (tid, op) in &ops {
            enc.push_event(&mut wire, *tid, op);
        }
    });
    assert_eq!(allocs, 0, "Enc::push_event allocated");

    // Decode the warm-up frames (interning every name), then hold the
    // borrowed decode of the second pass to zero.
    let mut dec = Dec::new();
    dec.extend(&warm);
    dec.extend(&wire);
    for _ in 0..EVENTS {
        assert!(matches!(dec.next_ref(), Ok(Some(FrameRef::Event { .. }))));
    }
    let (allocs, decoded) = allocations(|| {
        let mut decoded = 0;
        while let Ok(Some(frame)) = dec.next_ref() {
            assert!(matches!(frame, FrameRef::Event { .. }));
            decoded += 1;
        }
        decoded
    });
    assert_eq!(decoded, EVENTS);
    assert_eq!(allocs, 0, "Dec::next_ref allocated");
}

#[test]
fn session_interning_of_a_known_name_allocates_nothing() {
    let mut session = Session::open(1, &Hello::new(2), &SessionConfig::default()).unwrap();
    let names: Vec<String> = (0..16).map(|k| format!("var{k}")).collect();
    for name in &names {
        session.apply(0, OpRef::Write(name)).unwrap();
    }
    // Thread 0's open segment already holds every name, so these calls
    // only intern and merge into it.
    let (allocs, ()) = allocations(|| {
        for i in 0..EVENTS {
            let name = &names[i % names.len()];
            let op = if i % 2 == 0 {
                OpRef::Read(name)
            } else {
                OpRef::Write(name)
            };
            session.apply(0, op).unwrap();
        }
    });
    assert_eq!(allocs, 0, "Session::apply of known names allocated");
}

#[test]
fn store_append_of_binary_records_allocates_nothing_once_the_tail_is_warm() {
    let dir = std::env::temp_dir().join(format!("paramount-zero-alloc-{}", std::process::id()));
    let cfg = StoreConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        binary_events: true,
        ..StoreConfig::default()
    };
    let mut store = SessionStore::create(&dir, 1, &Hello::new(4), cfg).unwrap();
    let ops = ops();
    // One pass writes the tail at least once, so its buffer and the
    // record scratch have reached their working size.
    for (tid, op) in &ops {
        store.append_event(*tid, op).unwrap();
    }
    let (allocs, ()) = allocations(|| {
        for (tid, op) in &ops {
            store.append_event(*tid, op).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "SessionStore::append_event allocated {allocs} times over {EVENTS} events"
    );
    store.delete().unwrap();
}

//! Crash-safe storage primitives for ParaMount.
//!
//! Everything stateful in the daemon — the spill deque, the live poset,
//! the quarantine ledger — is memory-only unless it passes through this
//! crate. Three pieces, all hand-rolled over `std` (no dependencies, in
//! the same spirit as the `paramount/1` text codec in `proto.rs`):
//!
//! * [`varint`] — the LEB128 codec shared with `Interval::pack_into`
//!   (the engine crates re-export it from here, so there is exactly one
//!   implementation in the workspace).
//! * [`wal`] — a segmented append-only log of length-prefixed,
//!   CRC32-checksummed records with torn-tail truncation on open, a
//!   configurable fsync policy, and snapshot compaction for logs whose
//!   state is bounded: a record written through [`wal::Wal::compact`]
//!   supersedes every earlier segment, which are then deleted.
//! * [`fifo`] — [`fifo::DiskQueue`], an on-disk FIFO of checksummed
//!   byte batches backing the cold tier of the interval spill queue.
//!   Deliberately *not* fsynced: the WAL is authoritative and a crash
//!   regenerates spilled intervals by replay, so the cold tier trades
//!   durability for write speed.
//!
//! The crash model: a process may die (kill -9) at any instruction. A
//! record either round-trips bit-exactly or is detected (length or CRC
//! mismatch) and truncated away with everything after it; replay
//! therefore always yields an exact committed prefix of what was
//! appended.

pub mod crc32;
pub mod fifo;
pub mod varint;
pub mod wal;

pub use crc32::crc32;
pub use fifo::DiskQueue;
pub use wal::{FsyncPolicy, Record, Wal, WalConfig};

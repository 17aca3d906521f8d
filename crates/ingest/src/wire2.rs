//! The `paramount/2` binary framing: length-prefixed LEB128 frames for the
//! client → server half of a negotiated-v2 connection.
//!
//! # Frame layout
//!
//! ```text
//! [tag: u8] [len: LEB128 varint] [payload: len bytes]
//! ```
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | 0x01 | EVENT | delta-coded event body (below) |
//! | 0x02 | FLUSH | empty |
//! | 0x03 | STATS | empty |
//! | 0x04 | END   | empty |
//!
//! # EVENT payload
//!
//! ```text
//! [tid: zigzag varint delta vs previous frame's tid]
//! [opcode: u8]
//! [arg]
//! ```
//!
//! Opcodes 0–3 (`read`/`write`/`acquire`/`release`) carry a *wire-interned*
//! name: the first use of a name ships `varint 0` + `varint len` + the
//! UTF-8 bytes and assigns it the next id in the decoder's table (vars and
//! locks have separate tables); later uses ship `varint (id + 1)` — two
//! bytes for a hot variable instead of its full name on every event.
//! Opcodes 4–6 (`fork`/`join`/`work`) carry a plain varint argument.
//!
//! Thread ids are delta-coded (zigzag) against the previous EVENT frame of
//! the same codec, so a thread streaming a run of its own events pays one
//! `0x00` byte per frame for its tid.
//!
//! Both codecs are deterministic state machines over the frame sequence:
//! an [`Enc`] and a [`Dec`] fed the same frames stay in lockstep. The WAL
//! uses a *fresh* codec per record ([`encode_event_record`] /
//! [`decode_event_record`]), trading interning for statelessness so any
//! committed prefix of the log decodes on its own.
//!
//! # Clock bodies
//!
//! [`push_clock`] / [`read_clock`] define the v2 timestamp codec: width,
//! entry count, then delta-coded `(tid, count)` pairs of the nonzero
//! components — the sparse neighborhood form of
//! [`paramount_vclock::VectorClock`] goes on the wire without ever
//! materializing a dense vector.

use crate::proto::{ClientFrame, DecodeError, ErrCode, WireOp};
use paramount_durable::varint::{push_u32, push_u64, read_u32_at, read_u64_at};
use paramount_vclock::{ClockRef, VectorClock};

/// Frame tag for `EVENT`.
pub const TAG_EVENT: u8 = 0x01;
/// Frame tag for `FLUSH`.
pub const TAG_FLUSH: u8 = 0x02;
/// Frame tag for `STATS`.
pub const TAG_STATS: u8 = 0x03;
/// Frame tag for `END`.
pub const TAG_END: u8 = 0x04;
/// Frame tag for `LEASE` (payload: varint epoch, varint ttl-ms). Leases
/// normally travel on the router's text probe connection, but the frame
/// exists in both framings so v2 streams have no text-only verbs.
pub const TAG_LEASE: u8 = 0x05;

/// Longest accepted frame payload, in bytes — the binary analog of
/// [`crate::proto::MAX_LINE_BYTES`], bounding per-connection buffering.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_ACQUIRE: u8 = 2;
const OP_RELEASE: u8 = 3;
const OP_FORK: u8 = 4;
const OP_JOIN: u8 = 5;
const OP_WORK: u8 = 6;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn bad(message: impl Into<String>) -> DecodeError {
    DecodeError::new(ErrCode::Proto, message)
}

/// Encoder state for one v2 stream: the name tables and the tid delta
/// base. Feed it client frames, read back wire bytes.
#[derive(Default)]
pub struct Enc {
    vars: Vec<String>,
    locks: Vec<String>,
    last_tid: u64,
    scratch: Vec<u8>,
}

impl Enc {
    /// A fresh encoder (empty name tables, tid base 0).
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one `EVENT` frame to `out`.
    pub fn push_event(&mut self, out: &mut Vec<u8>, tid: usize, op: &WireOp) {
        self.scratch.clear();
        let delta = zigzag(tid as i64 - self.last_tid as i64);
        self.last_tid = tid as u64;
        push_u64(&mut self.scratch, delta);
        match op {
            WireOp::Read(v) => push_named(&mut self.scratch, OP_READ, v, &mut self.vars),
            WireOp::Write(v) => push_named(&mut self.scratch, OP_WRITE, v, &mut self.vars),
            WireOp::Acquire(l) => push_named(&mut self.scratch, OP_ACQUIRE, l, &mut self.locks),
            WireOp::Release(l) => push_named(&mut self.scratch, OP_RELEASE, l, &mut self.locks),
            WireOp::Fork(t) => {
                self.scratch.push(OP_FORK);
                push_u64(&mut self.scratch, *t as u64);
            }
            WireOp::Join(t) => {
                self.scratch.push(OP_JOIN);
                push_u64(&mut self.scratch, *t as u64);
            }
            WireOp::Work(w) => {
                self.scratch.push(OP_WORK);
                push_u32(&mut self.scratch, *w);
            }
        }
        out.push(TAG_EVENT);
        push_u64(out, self.scratch.len() as u64);
        out.extend_from_slice(&self.scratch);
    }

    /// Appends one bare (empty-payload) frame to `out`.
    pub fn push_bare(&mut self, out: &mut Vec<u8>, tag: u8) {
        debug_assert!(matches!(tag, TAG_FLUSH | TAG_STATS | TAG_END));
        out.push(tag);
        out.push(0);
    }

    /// Appends one `LEASE` frame to `out`.
    pub fn push_lease(&mut self, out: &mut Vec<u8>, epoch: u64, ttl_ms: u64) {
        self.scratch.clear();
        push_u64(&mut self.scratch, epoch);
        push_u64(&mut self.scratch, ttl_ms);
        out.push(TAG_LEASE);
        push_u64(out, self.scratch.len() as u64);
        out.extend_from_slice(&self.scratch);
    }
}

fn push_named(out: &mut Vec<u8>, opcode: u8, name: &str, table: &mut Vec<String>) {
    out.push(opcode);
    match table.iter().position(|n| n == name) {
        Some(id) => push_u64(out, id as u64 + 1),
        None => {
            table.push(name.to_string());
            out.push(0);
            push_u64(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

/// Incremental decoder for a v2 stream. Feed it bytes as they arrive
/// ([`Dec::extend`]); drain complete frames with [`Dec::next_frame`].
#[derive(Default)]
pub struct Dec {
    buf: Vec<u8>,
    pos: usize,
    vars: Vec<String>,
    locks: Vec<String>,
    last_tid: u64,
}

/// One step of [`Dec::next_frame`].
#[derive(Debug)]
pub enum Step {
    /// A complete frame was decoded.
    Frame(ClientFrame),
    /// More bytes are needed for the next frame.
    Incomplete,
}

impl Dec {
    /// A fresh decoder (empty name tables, tid base 0).
    pub fn new() -> Self {
        Dec::default()
    }

    /// Appends newly received bytes to the decode buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// Errors are fatal to the stream: a torn frame that *cannot complete*
    /// (oversize length, bad opcode, invalid UTF-8, payload/length
    /// mismatch) is distinguishable from one that merely hasn't fully
    /// arrived, and only the former errors.
    pub fn next_frame(&mut self) -> Result<Step, DecodeError> {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            self.compact();
            return Ok(Step::Incomplete);
        }
        let tag = avail[0];
        let mut at = 1usize;
        let len = match read_u64_at(avail, &mut at) {
            Some(l) => l,
            None if avail.len() - 1 < 10 => return Ok(Step::Incomplete),
            None => return Err(bad("unterminated frame length varint")),
        };
        if len as usize > MAX_FRAME_BYTES {
            return Err(DecodeError::new(
                ErrCode::Limit,
                format!("frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"),
            ));
        }
        let len = len as usize;
        if avail.len() < at + len {
            return Ok(Step::Incomplete);
        }
        let payload = &avail[at..at + len];
        let frame = match tag {
            TAG_EVENT => {
                decode_event_payload(payload, &mut self.last_tid, &mut self.vars, &mut self.locks)?
            }
            TAG_FLUSH | TAG_STATS | TAG_END => {
                if len != 0 {
                    return Err(bad(format!(
                        "bare frame 0x{tag:02x} with {len}-byte payload"
                    )));
                }
                match tag {
                    TAG_FLUSH => ClientFrame::Flush,
                    TAG_STATS => ClientFrame::Stats,
                    _ => ClientFrame::End,
                }
            }
            TAG_LEASE => {
                let mut at = 0usize;
                let epoch =
                    read_u64_at(payload, &mut at).ok_or_else(|| bad("truncated LEASE epoch"))?;
                let ttl_ms =
                    read_u64_at(payload, &mut at).ok_or_else(|| bad("truncated LEASE ttl-ms"))?;
                if at != payload.len() {
                    return Err(bad("trailing bytes after LEASE payload"));
                }
                ClientFrame::Lease { epoch, ttl_ms }
            }
            other => return Err(bad(format!("unknown frame tag 0x{other:02x}"))),
        };
        self.pos += at + len;
        self.compact();
        Ok(Step::Frame(frame))
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

fn decode_event_payload(
    payload: &[u8],
    last_tid: &mut u64,
    vars: &mut Vec<String>,
    locks: &mut Vec<String>,
) -> Result<ClientFrame, DecodeError> {
    let mut at = 0usize;
    let delta = read_u64_at(payload, &mut at).ok_or_else(|| bad("EVENT truncated at tid"))?;
    let tid = (*last_tid as i64)
        .checked_add(unzigzag(delta))
        .filter(|&t| t >= 0)
        .ok_or_else(|| bad("EVENT tid delta out of range"))? as u64;
    let opcode = *payload.get(at).ok_or_else(|| bad("EVENT missing opcode"))?;
    at += 1;
    let op = match opcode {
        OP_READ => WireOp::Read(read_name(payload, &mut at, vars)?),
        OP_WRITE => WireOp::Write(read_name(payload, &mut at, vars)?),
        OP_ACQUIRE => WireOp::Acquire(read_name(payload, &mut at, locks)?),
        OP_RELEASE => WireOp::Release(read_name(payload, &mut at, locks)?),
        OP_FORK => WireOp::Fork(
            read_u64_at(payload, &mut at).ok_or_else(|| bad("fork truncated"))? as usize,
        ),
        OP_JOIN => WireOp::Join(
            read_u64_at(payload, &mut at).ok_or_else(|| bad("join truncated"))? as usize,
        ),
        OP_WORK => {
            WireOp::Work(read_u32_at(payload, &mut at).ok_or_else(|| bad("work truncated"))?)
        }
        other => return Err(bad(format!("unknown opcode {other}"))),
    };
    if at != payload.len() {
        return Err(bad(format!(
            "EVENT payload has {} trailing bytes",
            payload.len() - at
        )));
    }
    *last_tid = tid;
    Ok(ClientFrame::Event {
        tid: tid as usize,
        op,
    })
}

fn read_name(
    payload: &[u8],
    at: &mut usize,
    table: &mut Vec<String>,
) -> Result<String, DecodeError> {
    let id = read_u64_at(payload, at).ok_or_else(|| bad("name id truncated"))?;
    if id == 0 {
        let len = read_u64_at(payload, at).ok_or_else(|| bad("name length truncated"))? as usize;
        let bytes = payload
            .get(*at..*at + len)
            .ok_or_else(|| bad("name bytes truncated"))?;
        *at += len;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| bad("name is not UTF-8"))?
            .to_string();
        table.push(name.clone());
        Ok(name)
    } else {
        table
            .get(id as usize - 1)
            .cloned()
            .ok_or_else(|| bad(format!("name id {id} not yet interned")))
    }
}

/// Encodes one event as a self-contained record body (fresh codec: name
/// inline, absolute tid) — the payload of an `EVENT2` WAL record.
pub fn encode_event_record(tid: usize, op: &WireOp) -> Vec<u8> {
    let mut enc = Enc::new();
    let mut out = Vec::with_capacity(16);
    enc.push_event(&mut out, tid, op);
    out
}

/// Decodes a self-contained event record produced by
/// [`encode_event_record`].
pub fn decode_event_record(bytes: &[u8]) -> Result<(usize, WireOp), DecodeError> {
    let mut dec = Dec::new();
    dec.extend(bytes);
    match dec.next_frame()? {
        Step::Frame(ClientFrame::Event { tid, op }) if dec.pending() == 0 => Ok((tid, op)),
        Step::Frame(_) => Err(bad("record is not a single EVENT frame")),
        Step::Incomplete => Err(bad("truncated event record")),
    }
}

/// Appends a clock to `out` in the v2 sparse timestamp codec: width,
/// nonzero-entry count, then `(tid delta - 1, count)` varint pairs in tid
/// order (deltas between *consecutive nonzero* tids, so a clock's cost is
/// proportional to its causal neighborhood, not its width).
pub fn push_clock(out: &mut Vec<u8>, clock: ClockRef<'_>) {
    push_u64(out, clock.len() as u64);
    let entries = clock.iter_nonzero().count();
    push_u64(out, entries as u64);
    let mut prev: u64 = 0;
    for (j, c) in clock.iter_nonzero() {
        // Gap coding: distance from the previous nonzero tid, so runs of
        // consecutive neighbors cost one byte each.
        push_u64(out, j as u64 - prev);
        prev = j as u64 + 1;
        push_u32(out, c);
    }
}

/// Reads a clock written by [`push_clock`]. `None` on truncation or a
/// malformed body (entries out of range or out of order).
pub fn read_clock(buf: &[u8], at: &mut usize) -> Option<VectorClock> {
    let n = read_u64_at(buf, at)? as usize;
    let entries = read_u64_at(buf, at)? as usize;
    if entries > n {
        return None;
    }
    let mut pairs = Vec::with_capacity(entries);
    let mut prev: u64 = 0;
    for _ in 0..entries {
        let delta = read_u64_at(buf, at)?;
        let j = prev + delta;
        if j as usize >= n {
            return None;
        }
        prev = j + 1;
        let c = read_u32_at(buf, at)?;
        if c == 0 {
            return None;
        }
        pairs.push((j as u32, c));
    }
    Some(VectorClock::from_entries(n, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_vclock::Tid;

    fn ops() -> Vec<(usize, WireOp)> {
        vec![
            (0, WireOp::Write("balance".into())),
            (0, WireOp::Read("balance".into())),
            (1, WireOp::Acquire("m".into())),
            (1, WireOp::Write("balance".into())),
            (1, WireOp::Release("m".into())),
            (0, WireOp::Fork(2)),
            (2, WireOp::Work(17)),
            (0, WireOp::Join(2)),
        ]
    }

    #[test]
    fn stream_round_trips_through_the_codec() {
        let mut enc = Enc::new();
        let mut wire = Vec::new();
        for (tid, op) in &ops() {
            enc.push_event(&mut wire, *tid, op);
        }
        enc.push_bare(&mut wire, TAG_FLUSH);
        enc.push_bare(&mut wire, TAG_END);

        let mut dec = Dec::new();
        dec.extend(&wire);
        for (tid, op) in ops() {
            match dec.next_frame().unwrap() {
                Step::Frame(f) => assert_eq!(f, ClientFrame::Event { tid, op }),
                Step::Incomplete => panic!("frame should be complete"),
            }
        }
        assert!(matches!(
            dec.next_frame().unwrap(),
            Step::Frame(ClientFrame::Flush)
        ));
        assert!(matches!(
            dec.next_frame().unwrap(),
            Step::Frame(ClientFrame::End)
        ));
        assert!(matches!(dec.next_frame().unwrap(), Step::Incomplete));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn lease_round_trips_through_the_codec() {
        let mut enc = Enc::new();
        let mut wire = Vec::new();
        enc.push_lease(&mut wire, 9, 1500);
        let mut dec = Dec::new();
        dec.extend(&wire);
        match dec.next_frame().unwrap() {
            Step::Frame(f) => assert_eq!(
                f,
                ClientFrame::Lease {
                    epoch: 9,
                    ttl_ms: 1500
                }
            ),
            Step::Incomplete => panic!("frame should be complete"),
        }
        assert_eq!(dec.pending(), 0);
        // Trailing bytes after the two varints are malformed.
        let mut dec = Dec::new();
        dec.extend(&[TAG_LEASE, 0x03, 0x01, 0x02, 0x00]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn interning_shrinks_repeated_names() {
        let mut enc = Enc::new();
        let mut first = Vec::new();
        enc.push_event(&mut first, 0, &WireOp::Write("a_rather_long_name".into()));
        let mut second = Vec::new();
        enc.push_event(&mut second, 0, &WireOp::Write("a_rather_long_name".into()));
        assert!(
            second.len() < first.len() / 2,
            "{} vs {}",
            second.len(),
            first.len()
        );
        // A hot same-thread event is tag + len + tid-delta 0 + opcode + id.
        assert_eq!(second.len(), 5);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles_frames() {
        let mut enc = Enc::new();
        let mut wire = Vec::new();
        for (tid, op) in &ops() {
            enc.push_event(&mut wire, *tid, op);
        }
        let mut dec = Dec::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            loop {
                match dec.next_frame().unwrap() {
                    Step::Frame(ClientFrame::Event { tid, op }) => got.push((tid, op)),
                    Step::Frame(other) => panic!("unexpected {other:?}"),
                    Step::Incomplete => break,
                }
            }
        }
        assert_eq!(got, ops());
    }

    #[test]
    fn torn_and_malformed_frames_are_rejected() {
        // Unknown tag.
        let mut dec = Dec::new();
        dec.extend(&[0x7f, 0x00]);
        assert!(dec.next_frame().is_err());

        // Oversize declared length.
        let mut dec = Dec::new();
        let mut wire = vec![TAG_EVENT];
        push_u64(&mut wire, MAX_FRAME_BYTES as u64 + 1);
        dec.extend(&wire);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.code, ErrCode::Limit);

        // Bare frame with a payload.
        let mut dec = Dec::new();
        dec.extend(&[TAG_FLUSH, 0x01, 0x00]);
        assert!(dec.next_frame().is_err());

        // EVENT payload with a bad opcode.
        let mut dec = Dec::new();
        dec.extend(&[TAG_EVENT, 0x02, 0x00, 0x63]);
        assert!(dec.next_frame().is_err());

        // Name id that was never interned.
        let mut dec = Dec::new();
        dec.extend(&[TAG_EVENT, 0x03, 0x00, OP_READ, 0x05]);
        assert!(dec.next_frame().is_err());

        // Truncated name bytes: length says 100, payload ends first — the
        // frame length is authoritative, so this is malformed, not torn.
        let mut dec = Dec::new();
        let mut wire = vec![TAG_EVENT];
        let mut payload = vec![0x00, OP_READ, 0x00];
        push_u64(&mut payload, 100);
        payload.extend_from_slice(b"abc");
        push_u64(&mut wire, payload.len() as u64);
        wire.extend_from_slice(&payload);
        dec.extend(&wire);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn torn_tail_is_incomplete_not_an_error() {
        let mut enc = Enc::new();
        let mut wire = Vec::new();
        enc.push_event(&mut wire, 3, &WireOp::Write("x".into()));
        for cut in 0..wire.len() {
            let mut dec = Dec::new();
            dec.extend(&wire[..cut]);
            assert!(
                matches!(dec.next_frame().unwrap(), Step::Incomplete),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn event_records_are_stateless() {
        let rec_a = encode_event_record(5, &WireOp::Acquire("lock".into()));
        let rec_b = encode_event_record(5, &WireOp::Acquire("lock".into()));
        // No cross-record interning: identical records encode identically.
        assert_eq!(rec_a, rec_b);
        assert_eq!(
            decode_event_record(&rec_a).unwrap(),
            (5, WireOp::Acquire("lock".into()))
        );
        // Trailing garbage is rejected.
        let mut long = rec_a.clone();
        long.push(0);
        assert!(decode_event_record(&long).is_err());
        assert!(decode_event_record(&rec_a[..rec_a.len() - 1]).is_err());
    }

    #[test]
    fn clocks_round_trip_sparse_and_dense() {
        let mut wide = VectorClock::zero_sparse(4096);
        wide.set(Tid(3), 7);
        wide.set(Tid(900), 1);
        wide.set(Tid(4095), 123_456);
        let narrow = VectorClock::from_components(vec![2, 0, 1]);
        for clock in [&wide, &narrow] {
            let mut buf = Vec::new();
            push_clock(&mut buf, clock.view());
            let mut at = 0;
            let back = read_clock(&buf, &mut at).unwrap();
            assert_eq!(&back, clock);
            assert_eq!(at, buf.len());
        }
        // The wide clock's encoding is proportional to its neighborhood.
        let mut buf = Vec::new();
        push_clock(&mut buf, wide.view());
        assert!(buf.len() < 32, "sparse clock took {} bytes", buf.len());
    }

    #[test]
    fn clock_decode_rejects_malformed_bodies() {
        // More entries than width.
        let mut buf = Vec::new();
        push_u64(&mut buf, 2);
        push_u64(&mut buf, 3);
        assert!(read_clock(&buf, &mut 0).is_none());
        // Entry past the width.
        let mut buf = Vec::new();
        push_u64(&mut buf, 2);
        push_u64(&mut buf, 1);
        push_u64(&mut buf, 5);
        push_u32(&mut buf, 1);
        assert!(read_clock(&buf, &mut 0).is_none());
        // Zero count.
        let mut buf = Vec::new();
        push_u64(&mut buf, 4);
        push_u64(&mut buf, 1);
        push_u64(&mut buf, 0);
        push_u32(&mut buf, 0);
        assert!(read_clock(&buf, &mut 0).is_none());
        // Truncation.
        assert!(read_clock(&[], &mut 0).is_none());
    }
}

//! One ingest session: a [`Recorder`] feeding an [`OnlineEngine`], driven
//! by validated wire frames.
//!
//! A session is the server-side owner of everything one client connection
//! streams: the vector-clock recorder (Algorithm 3 bookkeeping), the name
//! interning tables (first appearance ⇒ id, the same rule as the trace
//! file format), the lock/fork/join legality checks, and the online
//! engine enumerating cuts concurrently with ingestion.
//!
//! # Completeness across the wire (Theorem 3)
//!
//! The online engine's correctness needs insertion order to be a
//! linearization of happened-before (Property 1): every event is inserted
//! before anything that causally depends on it. The recorder guarantees
//! this for all cross-thread edges *except* joining a child whose access
//! segment is still open — the join would read a clock indexing an event
//! that has not been emitted yet. [`Session::apply`] therefore flushes
//! the child ([`Recorder::finish_thread`]) before recording the join, and
//! marks the child joined so any later frame from it is a `state` error.
//! With that discipline, every prefix the session ever hands to the
//! engine is insertion-ordered, so Theorem 3 applies no matter where the
//! stream stops: a clean `END`, a mid-stream disconnect, a tripped limit
//! or a daemon shutdown all finalize to a report whose cut count is
//! exactly `i(P)` of the observed prefix.

use crate::persist::{RecoveredState, SessionStore};
use crate::proto::{DecodeError, EndReason, ErrCode, Hello, WireOp, WireReport};
use paramount::{
    BackpressurePolicy, FaultLog, MemoryBudget, MetricsSnapshot, OnlineEngine, OnlineEngineConfig,
    OnlinePoset,
};
use paramount_poset::Tid;
use paramount_trace::{LockId, Recorder, RecorderConfig, TraceEvent, VarId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-session resource limits, enforced while frames arrive.
#[derive(Clone, Copy, Debug)]
pub struct SessionLimits {
    /// Most threads a `HELLO` may declare.
    pub max_threads: usize,
    /// Most `EVENT` frames a session may send before it is finalized with
    /// reason `limit`.
    pub max_events: u64,
    /// Enumeration workers are capped at this regardless of the `HELLO`.
    pub max_workers: usize,
    /// A connection silent for this long is finalized with reason
    /// `timeout` (enforced by the server's read loop).
    pub idle_timeout: Duration,
    /// Per-connection write deadline: a reply blocked on an unread socket
    /// for this long fails the write instead of wedging the connection
    /// thread (a stalled client must not pin a session forever).
    pub write_timeout: Duration,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            max_threads: 64,
            max_events: 10_000_000,
            max_workers: 16,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Server-side configuration every session starts from. The `HELLO` may
/// override the algorithm and (within [`SessionLimits::max_workers`]) the
/// worker count.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// Engine defaults (algorithm, workers, queue bound, backpressure).
    pub engine: OnlineEngineConfig,
    /// Resource limits.
    pub limits: SessionLimits,
}

/// Adapter: the recorder's event consumer that streams into the engine.
/// Holds one of the two `Arc` handles on the engine (the session holds
/// the other for mid-stream queries); finalization drops this one so the
/// engine can be unwrapped and finished.
struct EngineOut(Arc<OnlineEngine<TraceEvent>>);

impl paramount_trace::EventOut for EngineOut {
    fn emit(&mut self, t: Tid, vc: paramount_poset::VectorClock, event: TraceEvent) {
        self.0.observe_with_clock(t, vc, event);
    }
}

/// The final accounting of one session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Server-assigned session id.
    pub id: u64,
    /// Client-chosen label, if any.
    pub label: Option<String>,
    /// Why the session ended.
    pub reason: EndReason,
    /// Events inserted into the poset (recorder segments, sync events).
    pub events: u64,
    /// Consistent cuts enumerated.
    pub cuts: u64,
    /// True when `cuts` is Theorem-2 exact for the observed prefix.
    pub complete: bool,
    /// Engine error, if enumeration died (budget trip etc.).
    pub error: Option<String>,
    /// Full engine metrics for the session.
    pub metrics: MetricsSnapshot,
    /// The quarantine ledger: exact `[Gmin, Gbnd]` bounds of every
    /// interval given up on. For a recovered session this also carries
    /// the pre-crash incarnation's entries (restored from the last
    /// checkpoint) — those are historical: replay re-enumerated their
    /// intervals, so `complete` reflects only the current engine.
    pub faults: FaultLog,
}

impl SessionReport {
    /// The `REPORT` frame body for this report.
    pub fn wire(&self) -> WireReport {
        WireReport {
            events: self.events,
            cuts: self.cuts,
            complete: self.complete,
            reason: self.reason,
        }
    }

    /// The report of a session whose finalization itself faulted: zero
    /// counts, reason [`EndReason::Fault`], the panic text as the error.
    /// Last-resort accounting — it keeps the daemon's books balanced when
    /// a panic unwound through everything else.
    pub fn failed(id: u64, label: Option<String>, message: String) -> SessionReport {
        SessionReport {
            id,
            label,
            reason: EndReason::Fault,
            events: 0,
            cuts: 0,
            complete: false,
            error: Some(message),
            metrics: MetricsSnapshot::default(),
            faults: FaultLog::default(),
        }
    }
}

pub(crate) fn state_err(message: impl Into<String>) -> DecodeError {
    DecodeError::new(ErrCode::State, message)
}

/// A durable-log I/O failure. Mapped to [`ErrCode::Limit`] because the
/// server's `limit` handling is exactly right for it: fatal for the
/// session (the durability contract can no longer be kept), clean
/// finalize with an exact report for the prefix that did persist.
pub(crate) fn store_err(err: std::io::Error) -> DecodeError {
    DecodeError::new(ErrCode::Limit, format!("durable store: {err}"))
}

/// One live session: interning tables + legality tracking + recorder +
/// engine. Created from a validated `HELLO`, driven by `EVENT` frames,
/// consumed by [`Session::finalize`].
pub struct Session {
    id: u64,
    label: Option<String>,
    threads: usize,
    limits: SessionLimits,
    /// Engine handle for mid-stream queries (`FLUSH`, `STATS`); the
    /// recorder's [`EngineOut`] holds the only other clone.
    engine: Arc<OnlineEngine<TraceEvent>>,
    recorder: Recorder<EngineOut>,
    var_ids: HashMap<String, VarId>,
    lock_ids: HashMap<String, LockId>,
    /// Which thread currently holds each lock.
    lock_holders: Vec<Option<usize>>,
    /// Threads that have been the target of a `fork`.
    forked: Vec<bool>,
    /// Threads that have emitted at least one frame.
    active: Vec<bool>,
    /// Threads that have been joined (no further frames allowed).
    joined: Vec<bool>,
    /// Accepted `EVENT` frames (the unit [`SessionLimits::max_events`]
    /// meters).
    wire_events: u64,
    /// Durable log, when the daemon runs with a data dir: every accepted
    /// event is appended before `apply` returns, so the persisted prefix
    /// never trails what the client was told was accepted.
    store: Option<SessionStore>,
    /// Quarantine ledger inherited from a pre-crash incarnation (restored
    /// from the last checkpoint). Merged ahead of the live engine's log
    /// in checkpoints and the final report; empty for fresh sessions.
    recovered_faults: FaultLog,
    /// Quarantine tally inherited alongside `recovered_faults` (kept
    /// separately: stores written before the ledger was persisted carry a
    /// tally but no entries).
    recovered_quarantined: u64,
}

impl Session {
    /// Opens a session from a validated `HELLO` with its own private
    /// memory budget (built from the engine config's governor). Fails
    /// (without starting an engine) when the declaration exceeds the
    /// limits.
    pub fn open(id: u64, hello: &Hello, config: &SessionConfig) -> Result<Self, DecodeError> {
        let budget = Arc::new(MemoryBudget::new(config.engine.governor));
        Self::open_with_budget(id, hello, config, budget)
    }

    /// Opens a session whose engine charges a caller-owned budget — the
    /// daemon threads one process-wide account through every session so
    /// the watermarks react to total load.
    pub fn open_with_budget(
        id: u64,
        hello: &Hello,
        config: &SessionConfig,
        budget: Arc<MemoryBudget>,
    ) -> Result<Self, DecodeError> {
        let limits = config.limits;
        if hello.threads > limits.max_threads {
            return Err(DecodeError::new(
                ErrCode::Limit,
                format!(
                    "threads={} exceeds the per-session limit {}",
                    hello.threads, limits.max_threads
                ),
            ));
        }
        let mut engine_config = config.engine.clone();
        if let Some(algo) = hello.algorithm {
            engine_config.algorithm = algo;
        }
        if let Some(workers) = hello.workers {
            engine_config.workers = workers.min(limits.max_workers);
        }
        // Count-only sink: the session's deliverable is the cut count and
        // metrics, not the cuts themselves (they are exponential).
        let engine = Arc::new(OnlineEngine::with_poset_and_budget(
            Arc::new(OnlinePoset::new(hello.threads)),
            engine_config,
            |_: paramount_poset::CutRef<'_>, _: paramount_poset::EventId| {
                std::ops::ControlFlow::<()>::Continue(())
            },
            budget,
        ));
        let recorder = Recorder::new(
            hello.threads,
            0,
            RecorderConfig {
                capture_sync: hello.capture_sync,
            },
            EngineOut(Arc::clone(&engine)),
        );
        Ok(Session {
            id,
            label: hello.label.clone(),
            threads: hello.threads,
            limits,
            engine,
            recorder,
            var_ids: HashMap::new(),
            lock_ids: HashMap::new(),
            lock_holders: Vec::new(),
            forked: vec![false; hello.threads],
            active: vec![false; hello.threads],
            joined: vec![false; hello.threads],
            wire_events: 0,
            store: None,
            recovered_faults: FaultLog::default(),
            recovered_quarantined: 0,
        })
    }

    /// Attaches a durable log; subsequent accepted events are appended
    /// to it. The server attaches right after `open` (fresh sessions) or
    /// right after replay (recovered ones), so the store only ever holds
    /// events the session actually accepted.
    pub fn attach_store(&mut self, store: SessionStore) {
        self.store = Some(store);
    }

    /// Detaches the durable log (finalization decides its disposition: a
    /// clean `END` deletes it, everything else leaves it resumable).
    pub fn take_store(&mut self) -> Option<SessionStore> {
        self.store.take()
    }

    /// Events durably accepted, when a store is attached — the `acked=`
    /// count `FLUSH` reports to resuming clients.
    pub fn acked(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.acked())
    }

    /// Forces the durable log to stable storage (the `FLUSH` barrier's
    /// durability point). No-op without a store.
    pub fn sync_store(&mut self) -> Result<(), DecodeError> {
        match self.store.as_mut() {
            Some(store) => store.sync().map_err(store_err),
            None => Ok(()),
        }
    }

    /// Re-stamps the attached store under `epoch`
    /// ([`SessionStore::restamp`]): a re-joined shard adopting a session
    /// its previous incarnation parked must claim the log under the
    /// lease it holds *now*. No-op without a store.
    pub fn restamp_store(&mut self, epoch: u64) -> Result<(), DecodeError> {
        match self.store.as_mut() {
            Some(store) => store.restamp(epoch).map_err(store_err),
            None => Ok(()),
        }
    }

    /// Rebuilds a session from recovered state: opens it from the
    /// persisted `HELLO`, replays the accepted prefix through the normal
    /// `apply` path (the engine re-enumerates deterministically — see
    /// [`crate::persist`]), then re-attaches the store for new appends.
    ///
    /// Replay routes through the cold disk tier when the config has a
    /// spill directory: a resumed prefix arrives as fast as disk reads
    /// allow (no pacing client on the other end), so a blocking replay
    /// would hold the whole backlog in RAM on a freshly restarted
    /// daemon. Spilling instead bounds replay memory by the governor's
    /// `disk_spill_bytes` — the same budget a live overloaded session
    /// gets.
    pub fn recover(
        rec: RecoveredState,
        config: &SessionConfig,
        budget: Arc<MemoryBudget>,
    ) -> Result<Self, DecodeError> {
        let mut config = config.clone();
        if config.engine.spill_dir.is_some() {
            config.engine.backpressure = BackpressurePolicy::SpillToDeque;
        }
        let mut session = Session::open_with_budget(rec.id, &rec.hello, &config, budget)?;
        session.recovered_faults = FaultLog {
            quarantined: rec.quarantine,
        };
        session.recovered_quarantined = rec.quarantined;
        for (tid, op) in &rec.events {
            // The prefix was validated when first accepted; a replay
            // rejection means the store was tampered with or the limits
            // were lowered across the restart — surface it, don't guess.
            session.apply(*tid, op).map_err(|err| {
                DecodeError::new(
                    err.code,
                    format!("replay of persisted event failed: {}", err.message),
                )
            })?;
        }
        session.store = Some(rec.store);
        Ok(session)
    }

    /// Server-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Client label, if declared.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The session's idle timeout (from the server limits).
    pub fn idle_timeout(&self) -> Duration {
        self.limits.idle_timeout
    }

    /// Applies one validated `EVENT` frame. A `state`/`limit` error leaves
    /// the session unchanged — the caller decides whether to finalize.
    pub fn apply(&mut self, tid: usize, op: &WireOp) -> Result<(), DecodeError> {
        if tid >= self.threads {
            return Err(state_err(format!(
                "thread {tid} out of range (session declared {})",
                self.threads
            )));
        }
        if self.joined[tid] {
            return Err(state_err(format!("thread {tid} was already joined")));
        }
        if self.wire_events >= self.limits.max_events {
            return Err(DecodeError::new(
                ErrCode::Limit,
                format!("event limit {} reached", self.limits.max_events),
            ));
        }
        let t = Tid::from(tid);
        match op {
            WireOp::Read(name) => {
                let v = self.intern_var(name);
                self.recorder.read(t, v);
            }
            WireOp::Write(name) => {
                let v = self.intern_var(name);
                self.recorder.write(t, v);
            }
            WireOp::Acquire(name) => {
                let l = self.intern_lock(name);
                if let Some(holder) = self.lock_holders[l.index()] {
                    return Err(state_err(format!(
                        "lock {name} is already held by thread {holder}"
                    )));
                }
                self.lock_holders[l.index()] = Some(tid);
                self.recorder.acquire(t, l);
            }
            WireOp::Release(name) => {
                let l = self.intern_lock(name);
                match self.lock_holders[l.index()] {
                    Some(holder) if holder == tid => self.lock_holders[l.index()] = None,
                    Some(holder) => {
                        return Err(state_err(format!(
                            "thread {tid} cannot release lock {name} held by thread {holder}"
                        )))
                    }
                    None => {
                        return Err(state_err(format!(
                            "thread {tid} released lock {name} without holding it"
                        )))
                    }
                }
                self.recorder.release(t, l);
            }
            WireOp::Fork(child) => {
                let child = *child;
                if child >= self.threads {
                    return Err(state_err(format!(
                        "fork target {child} out of range (session declared {})",
                        self.threads
                    )));
                }
                if child == tid {
                    return Err(state_err(format!("thread {tid} cannot fork itself")));
                }
                if self.joined[child] {
                    return Err(state_err(format!("fork of already-joined thread {child}")));
                }
                if self.forked[child] || self.active[child] {
                    return Err(state_err(format!("fork of already-started thread {child}")));
                }
                self.forked[child] = true;
                self.recorder.fork(t, Tid::from(child));
            }
            WireOp::Join(child) => {
                let child = *child;
                if child >= self.threads {
                    return Err(state_err(format!(
                        "join target {child} out of range (session declared {})",
                        self.threads
                    )));
                }
                if child == tid {
                    return Err(state_err(format!("thread {tid} cannot join itself")));
                }
                if self.joined[child] {
                    return Err(state_err(format!("thread {child} was already joined")));
                }
                // Flush the child's open segment *before* the join reads
                // its clock: the join must not know about an event the
                // engine has not received (insertion order = →p).
                self.recorder.finish_thread(Tid::from(child));
                self.recorder.join(t, Tid::from(child));
                self.joined[child] = true;
            }
            // Weight is a scheduling hint for executors; on the wire it is
            // legal (so `gen` output pipes through) but records nothing.
            WireOp::Work(_) => {}
        }
        self.active[tid] = true;
        self.wire_events += 1;
        if let Some(store) = self.store.as_mut() {
            store.append_event(tid, op).map_err(store_err)?;
            if store.should_checkpoint() {
                // The checkpoint carries the full ledger — entries
                // inherited from a pre-crash incarnation ahead of the
                // live engine's — so quarantine bounds survive any number
                // of restarts, not just the tally.
                let quarantined =
                    self.recovered_quarantined + self.engine.metrics().intervals_quarantined;
                let mut ledger = self.recovered_faults.clone();
                ledger
                    .quarantined
                    .extend(self.engine.fault_log().quarantined);
                store.checkpoint(quarantined, &ledger).map_err(store_err)?;
            }
        }
        Ok(())
    }

    /// Live progress: (events inserted into the poset, cuts enumerated so
    /// far). Both monotone; `FLUSH` reports them.
    pub fn progress(&self) -> (u64, u64) {
        let m = self.engine.metrics();
        (m.events_inserted, m.cuts_emitted)
    }

    /// Live engine metrics snapshot (the `STATS` frame body).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    /// Accepted `EVENT` frames so far.
    pub fn wire_events(&self) -> u64 {
        self.wire_events
    }

    /// Finalizes: flushes every open recorder segment, drains the engine,
    /// and reports. Works from *any* state — `END`, disconnect, limit,
    /// timeout and shutdown all land here, and the cut count is exact for
    /// whatever prefix arrived (see the module docs).
    pub fn finalize(self, reason: EndReason) -> SessionReport {
        // `Recorder::finish` flushes open segments through `EngineOut`
        // (the last insertions), then returns it; dropping it leaves
        // `self.engine` as the only handle.
        drop(self.recorder.finish());
        // The report's ledger leads with pre-crash quarantines (historic,
        // re-enumerated by replay) followed by the live engine's.
        let mut faults = self.recovered_faults;
        match Arc::try_unwrap(self.engine) {
            Ok(engine) => {
                let report = engine.finish();
                let complete = report.is_complete();
                faults.quarantined.extend(report.faults.quarantined);
                SessionReport {
                    id: self.id,
                    label: self.label,
                    reason,
                    events: report.events,
                    cuts: report.cuts,
                    complete,
                    error: report.error.as_ref().map(|e| e.to_string()),
                    metrics: report.metrics,
                    faults,
                }
            }
            // A leaked engine handle (a recorder that did not drop its
            // clone, e.g. because a panic unwound through it) must not
            // panic finalize: report the live snapshot, marked incomplete
            // — the prefix counts are real, the drain just never ran.
            Err(shared) => {
                let metrics = shared.metrics();
                faults.quarantined.extend(shared.fault_log().quarantined);
                SessionReport {
                    id: self.id,
                    label: self.label,
                    reason,
                    events: metrics.events_inserted,
                    cuts: metrics.cuts_emitted,
                    complete: false,
                    error: Some(
                        "engine handle still shared at finalize; report is a live snapshot"
                            .to_string(),
                    ),
                    metrics,
                    faults,
                }
            }
        }
    }

    fn intern_var(&mut self, name: &str) -> VarId {
        let next = VarId(self.var_ids.len() as u32);
        *self.var_ids.entry(name.to_string()).or_insert(next)
    }

    fn intern_lock(&mut self, name: &str) -> LockId {
        let next = LockId(self.lock_ids.len() as u32);
        let id = *self.lock_ids.entry(name.to_string()).or_insert(next);
        if id.index() >= self.lock_holders.len() {
            self.lock_holders.resize(id.index() + 1, None);
        }
        self.recorder.ensure_locks(self.lock_holders.len());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Hello;
    use paramount_poset::oracle;

    fn session(threads: usize) -> Session {
        Session::open(1, &Hello::new(threads), &SessionConfig::default()).unwrap()
    }

    #[test]
    fn lock_ordered_stream_counts_like_the_oracle() {
        let mut s = session(2);
        for (tid, op) in [
            (0, WireOp::Acquire("m".into())),
            (0, WireOp::Write("x".into())),
            (0, WireOp::Release("m".into())),
            (1, WireOp::Acquire("m".into())),
            (1, WireOp::Read("x".into())),
            (1, WireOp::Release("m".into())),
        ] {
            s.apply(tid, &op).unwrap();
        }
        let report = s.finalize(EndReason::End);
        assert_eq!(report.events, 2, "two access segments");
        assert!(report.complete);
        assert_eq!(report.reason, EndReason::End);
        // t0's segment happens before t1's (lock atomicity): the lattice
        // is the 3-chain, i(P) = 3.
        assert_eq!(report.cuts, 3);
    }

    #[test]
    fn concurrent_stream_counts_like_the_oracle() {
        let mut s = session(3);
        for tid in 0..3 {
            for k in 0..4 {
                let name = format!("v{tid}.{k}");
                s.apply(tid, &WireOp::Write(name)).unwrap();
                // A lock round-trip closes the segment so each write is
                // its own event (no merging).
                s.apply(tid, &WireOp::Acquire(format!("l{tid}"))).unwrap();
                s.apply(tid, &WireOp::Release(format!("l{tid}"))).unwrap();
            }
        }
        let report = s.finalize(EndReason::End);
        assert_eq!(report.events, 12);
        assert!(report.complete);
        // Three independent 4-chains: (4+1)^3 ideals — and the offline
        // oracle over an equivalent recorder-built poset agrees.
        assert_eq!(report.cuts, 125);
        let mut r = paramount_trace::Recorder::new(
            3,
            3,
            paramount_trace::RecorderConfig::default(),
            paramount_trace::PosetCollector::new(3),
        );
        for tid in 0..3usize {
            for k in 0..4u32 {
                r.write(Tid::from(tid), paramount_trace::VarId(tid as u32 * 4 + k));
                r.acquire(Tid::from(tid), paramount_trace::LockId(tid as u32));
                r.release(Tid::from(tid), paramount_trace::LockId(tid as u32));
            }
        }
        let poset = r.finish().into_poset();
        assert_eq!(report.cuts, oracle::count_ideals(&poset));
    }

    #[test]
    fn fork_join_discipline_is_enforced() {
        let mut s = session(3);
        s.apply(0, &WireOp::Write("x".into())).unwrap();
        s.apply(0, &WireOp::Fork(1)).unwrap();
        s.apply(1, &WireOp::Write("x".into())).unwrap();
        // Fork of a thread that already ran is a state error.
        let err = s.apply(0, &WireOp::Fork(1)).unwrap_err();
        assert_eq!(err.code, ErrCode::State);
        // Self-fork and self-join are state errors.
        assert_eq!(
            s.apply(2, &WireOp::Fork(2)).unwrap_err().code,
            ErrCode::State
        );
        assert_eq!(
            s.apply(2, &WireOp::Join(2)).unwrap_err().code,
            ErrCode::State
        );
        // Join flushes the child and seals it.
        s.apply(0, &WireOp::Join(1)).unwrap();
        let err = s.apply(1, &WireOp::Write("y".into())).unwrap_err();
        assert_eq!(err.code, ErrCode::State, "joined thread may not speak");
        let err = s.apply(0, &WireOp::Join(1)).unwrap_err();
        assert_eq!(err.code, ErrCode::State, "double join");
        s.apply(0, &WireOp::Read("x".into())).unwrap();
        let report = s.finalize(EndReason::End);
        assert!(report.complete);
        // p1 before c1 before p2: a 3-chain, i(P) = 4 cuts... plus
        // nothing concurrent. Chain of 3 events has 4 ideals.
        assert_eq!(report.events, 3);
        assert_eq!(report.cuts, 4);
    }

    #[test]
    fn join_before_childs_segment_would_close_is_safe() {
        // The child's segment is OPEN when the parent joins: the session
        // must flush it first or the engine would receive the parent's
        // post-join event carrying a clock that references an
        // un-inserted child event (violating insertion order).
        let mut s = session(2);
        s.apply(0, &WireOp::Fork(1)).unwrap();
        s.apply(1, &WireOp::Write("x".into())).unwrap(); // segment open
        s.apply(0, &WireOp::Join(1)).unwrap(); // must flush child first
        s.apply(0, &WireOp::Read("x".into())).unwrap();
        let report = s.finalize(EndReason::End);
        assert!(report.complete, "no engine error");
        assert_eq!(report.events, 2);
        assert_eq!(report.cuts, 3, "chain child-write -> parent-read");
    }

    #[test]
    fn lock_misuse_is_a_state_error() {
        let mut s = session(2);
        s.apply(0, &WireOp::Acquire("m".into())).unwrap();
        // Double acquire (even by the holder: no reentrancy on the wire).
        assert_eq!(
            s.apply(1, &WireOp::Acquire("m".into())).unwrap_err().code,
            ErrCode::State
        );
        // Release by a non-holder.
        assert_eq!(
            s.apply(1, &WireOp::Release("m".into())).unwrap_err().code,
            ErrCode::State
        );
        s.apply(0, &WireOp::Release("m".into())).unwrap();
        // Release with no holder.
        assert_eq!(
            s.apply(0, &WireOp::Release("m".into())).unwrap_err().code,
            ErrCode::State
        );
        // The failed frames changed nothing: t1 can acquire now.
        s.apply(1, &WireOp::Acquire("m".into())).unwrap();
        s.apply(1, &WireOp::Release("m".into())).unwrap();
    }

    #[test]
    fn out_of_range_tid_is_a_state_error() {
        let mut s = session(2);
        assert_eq!(
            s.apply(2, &WireOp::Write("x".into())).unwrap_err().code,
            ErrCode::State
        );
        assert_eq!(
            s.apply(0, &WireOp::Fork(7)).unwrap_err().code,
            ErrCode::State
        );
        assert_eq!(
            s.apply(0, &WireOp::Join(7)).unwrap_err().code,
            ErrCode::State
        );
    }

    #[test]
    fn event_limit_trips_as_limit_error() {
        let config = SessionConfig {
            limits: SessionLimits {
                max_events: 3,
                ..SessionLimits::default()
            },
            ..SessionConfig::default()
        };
        let mut s = Session::open(9, &Hello::new(1), &config).unwrap();
        for _ in 0..3 {
            s.apply(0, &WireOp::Write("x".into())).unwrap();
        }
        let err = s.apply(0, &WireOp::Write("x".into())).unwrap_err();
        assert_eq!(err.code, ErrCode::Limit);
        // Finalizing with reason=limit still yields an exact prefix count.
        let report = s.finalize(EndReason::Limit);
        assert!(report.complete);
        assert_eq!(report.reason, EndReason::Limit);
    }

    #[test]
    fn oversized_hello_is_rejected_before_an_engine_starts() {
        let config = SessionConfig::default();
        let hello = Hello::new(config.limits.max_threads + 1);
        let err = match Session::open(1, &hello, &config) {
            Ok(_) => panic!("oversized HELLO must be rejected"),
            Err(err) => err,
        };
        assert_eq!(err.code, ErrCode::Limit);
    }

    #[test]
    fn finalize_mid_stream_is_exact_for_the_prefix() {
        // Simulates a disconnect: open segments, held locks, no END.
        let mut s = session(2);
        s.apply(0, &WireOp::Write("a".into())).unwrap();
        s.apply(1, &WireOp::Write("b".into())).unwrap();
        s.apply(0, &WireOp::Acquire("m".into())).unwrap();
        s.apply(0, &WireOp::Write("c".into())).unwrap(); // segment open, lock held
        let report = s.finalize(EndReason::Disconnect);
        assert_eq!(report.reason, EndReason::Disconnect);
        assert!(report.complete, "prefix count is Theorem-2 exact");
        assert_eq!(report.events, 3);
        // t0: 2-chain, t1: 1 event, independent: 3 * 2 = 6 ideals.
        assert_eq!(report.cuts, 6);
    }

    #[test]
    fn work_frames_are_legal_noops() {
        let mut s = session(1);
        s.apply(0, &WireOp::Work(100)).unwrap();
        s.apply(0, &WireOp::Write("x".into())).unwrap();
        let report = s.finalize(EndReason::End);
        assert_eq!(report.events, 1, "work records nothing");
        assert_eq!(report.cuts, 2);
    }
}

//! The `paramount serve` daemon: multi-session ingestion over TCP and
//! Unix sockets.
//!
//! Threading model: one accept loop (nonblocking listeners polled on a
//! short tick) plus one thread per connection. Each connection thread
//! owns its [`Session`] outright — no session state is shared, so a
//! malformed stream, a slow client or a mid-stream disconnect is strictly
//! a single-session event: the thread finalizes its session into a
//! [`SessionReport`] (exact for the observed prefix, see the session
//! module docs) and the daemon keeps serving everyone else.
//!
//! Shutdown is a drain, not a kill: [`ServerHandle::shutdown`] (hooked to
//! SIGINT by the CLI) stops the accept loop and raises a flag every
//! connection thread checks on its read tick; each finalizes with reason
//! `shutdown`, emits a final `REPORT` to its client, and exits. `run`
//! then joins everything and returns a [`ServeSummary`] with every
//! session report and the daemon-wide [`IngestSnapshot`].

use crate::lease::FenceGuard;
use crate::persist::{scan_sessions, session_dir, SessionStore, StoreConfig};
use crate::proto::{
    parse_client_line, version_token, ClientFrame, DecodeError, EndReason, ErrCode, ServerFrame,
    MAX_LINE_BYTES, PROTO_MAX,
};
use crate::session::{state_err, store_err, Session, SessionConfig, SessionReport};
use crate::wire2;
use paramount::metrics::stat_line;
use paramount::{
    panic_message, GovernorConfig, IngestMetrics, IngestSnapshot, MemoryBudget, Pressure,
};
use paramount_durable::FsyncPolicy;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no listener had a connection.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Read-timeout tick for connection threads: the granularity at which a
/// blocked reader notices shutdown and idle timeouts.
const READ_TICK: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Per-session configuration (engine defaults + limits).
    pub session: SessionConfig,
    /// Most sessions allowed to be live at once; further `HELLO`s get
    /// `ERR limit` and the connection closes.
    pub max_sessions: u64,
    /// Daemon-wide overload governor: every session's engine charges one
    /// shared [`MemoryBudget`] built from these watermarks, so admission
    /// control and backpressure react to *total* load. The interval
    /// deadline applies to every session's workers.
    pub governor: GovernorConfig,
    /// Retry hint (milliseconds) carried by `ERR busy` admission
    /// rejections while the daemon is over budget.
    pub busy_retry_after_ms: u64,
    /// Root of the durable session store. `Some(dir)` makes every
    /// session crash-safe: accepted events are written to a per-session
    /// WAL under `dir/session-<id>/`, interval spill under pressure goes
    /// to disk instead of shedding, boot scans the directory and rebuilds
    /// interrupted sessions, and `RESUME` lets a client continue one.
    /// `None` (the default) keeps the daemon fully in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Durable sessions only: make the quarantine tally and ledger
    /// durable (one checkpoint record in the WAL) every this many
    /// accepted events.
    pub checkpoint_every_events: u64,
    /// Durable sessions only: when WAL appends reach stable storage.
    /// `OnDemand` (the default) forces on `FLUSH` and checkpoints.
    pub fsync: FsyncPolicy,
    /// Lowest session id this daemon hands out (ids still grow past
    /// recovered sessions). Fleet shards are started with
    /// [`first_session_id(k)`](crate::fleet::first_session_id) so every
    /// id encodes its home shard in the high 32 bits; the default of 1
    /// matches a standalone daemon.
    pub first_session_id: u64,
    /// Highest protocol version this daemon accepts (default
    /// [`PROTO_MAX`]). A `HELLO`/`RESUME` offering more is rejected with
    /// `ERR version` *without* closing the connection — exactly how a
    /// genuinely old daemon behaves — so auto-negotiating clients fall
    /// back to `paramount/1` on the same socket. Set to 1 to force a
    /// text-only daemon (the CI compat matrix does).
    pub proto_max: u8,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            session: SessionConfig::default(),
            max_sessions: 64,
            governor: GovernorConfig::default(),
            busy_retry_after_ms: 250,
            data_dir: None,
            checkpoint_every_events: 4096,
            fsync: FsyncPolicy::OnDemand,
            first_session_id: 1,
            proto_max: PROTO_MAX,
        }
    }
}

/// One bound endpoint.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Nonblocking accept: `Ok(Some)` on a connection, `Ok(None)` when
    /// nothing is pending.
    fn poll_accept(&self) -> io::Result<Option<Stream>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(Stream::Tcp(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l, _) => match l.accept() {
                Ok((stream, _)) => Ok(Some(Stream::Unix(stream))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One accepted connection, TCP or Unix — a unified blocking byte stream
/// with a read timeout.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    fn set_write_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(Some(timeout)),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(Some(timeout)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Remote-controllable stop switch for a running server. Clone-free:
/// cheap to share (it is one `Arc`), safe to trigger from a signal
/// watcher thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, finalize every live
    /// session (reason `shutdown`), return from [`Server::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Everything [`Server::run`] returns after the drain.
pub struct ServeSummary {
    /// Final report of every session the daemon served, in completion
    /// order.
    pub reports: Vec<SessionReport>,
    /// Daemon-wide ingest counters.
    pub ingest: IngestSnapshot,
}

/// The ingestion daemon. Bind one or more endpoints, then [`Server::run`].
pub struct Server {
    config: ServerConfig,
    listeners: Vec<Listener>,
    metrics: Arc<IngestMetrics>,
    stop: Arc<AtomicBool>,
    /// The process-wide byte account every session's engine charges.
    budget: Arc<MemoryBudget>,
    /// Fencing-epoch lease state ([`crate::lease`]). Standalone daemons
    /// never receive a `LEASE` and the guard stays inert; fleet shards
    /// renew on every router probe and self-fence when the TTL lapses.
    fence: Arc<FenceGuard>,
}

impl Server {
    /// A server with no endpoints yet.
    pub fn new(config: ServerConfig) -> Self {
        let budget = Arc::new(MemoryBudget::new(config.governor));
        Server {
            config,
            listeners: Vec::new(),
            metrics: Arc::new(IngestMetrics::new()),
            stop: Arc::new(AtomicBool::new(false)),
            budget,
            fence: Arc::new(FenceGuard::new()),
        }
    }

    /// The daemon-wide memory budget (live; for tests and banners).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// The daemon's live fencing state (for tests and operators; the
    /// fleet e2e suite asserts a partitioned shard fenced itself before
    /// its sessions replayed elsewhere).
    pub fn fence_guard(&self) -> Arc<FenceGuard> {
        Arc::clone(&self.fence)
    }

    /// Binds a TCP endpoint. `addr` may use port 0 for an ephemeral port;
    /// the actual address is returned (and [`Server::tcp_addrs`] lists
    /// them all).
    pub fn bind_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.listeners.push(Listener::Tcp(listener));
        Ok(local)
    }

    /// Binds a Unix-domain socket at `path`.
    #[cfg(unix)]
    pub fn bind_unix(&mut self, path: impl Into<PathBuf>) -> io::Result<()> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        self.listeners.push(Listener::Unix(listener, path));
        Ok(())
    }

    /// The bound TCP addresses (for ephemeral-port tests and banners).
    pub fn tcp_addrs(&self) -> Vec<SocketAddr> {
        self.listeners
            .iter()
            .filter_map(|l| match l {
                Listener::Tcp(l) => l.local_addr().ok(),
                #[cfg(unix)]
                Listener::Unix(..) => None,
            })
            .collect()
    }

    /// A stop switch usable from another thread (or a signal handler's
    /// watcher).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Live daemon-wide counters.
    pub fn ingest_metrics(&self) -> IngestSnapshot {
        self.metrics.snapshot()
    }

    /// Durable boot scan: rebuilds each persisted session under
    /// `data_dir` into the parked map (replaying its WAL through a fresh
    /// engine) and returns the first id the accept loop may hand
    /// out — strictly above every persisted id, so a resumed client
    /// never collides with a new one.
    fn recover_persisted(&self, parked: &Arc<Mutex<HashMap<u64, Session>>>) -> u64 {
        let mut first_free = self.config.first_session_id.max(1);
        let Some(root) = self.config.data_dir.clone() else {
            return first_free;
        };
        // A migrated session's directory leaves this subroot along with
        // the session, so scanning alone can under-count the ids a past
        // incarnation issued; the persisted floor stops a re-joined shard
        // from re-issuing a migrated session's id to a fresh HELLO.
        if let Some(floor) = read_id_floor(&root) {
            if floor >> 32 == first_free >> 32 {
                first_free = first_free.max(floor);
            }
        }
        let ids = match scan_sessions(&root) {
            Ok(ids) => ids,
            Err(_) => return first_free, // unreadable root: serve memory-only
        };
        for id in ids {
            // Only ids from this daemon's own space advance the counter:
            // a fleet shard may recover sessions migrated in from a dead
            // peer (foreign high bits), and chasing those would make new
            // ids here encode the wrong home shard.
            if id >> 32 == first_free >> 32 {
                first_free = first_free.max(id + 1);
            }
            let dir = session_dir(&root, id);
            let store_cfg = durable_store_config(&self.config, &self.metrics, &self.fence);
            let rec = match SessionStore::recover(&dir, store_cfg) {
                Ok(Some(rec)) => rec,
                // Empty or unreadable store: leave the directory on disk
                // for forensics and keep booting.
                Ok(None) | Err(_) => continue,
            };
            let session_config = durable_session_config(&self.config, id);
            if let Ok(session) = Session::recover(rec, &session_config, Arc::clone(&self.budget)) {
                self.metrics.sessions_recovered.add(1);
                self.metrics.active_sessions.inc();
                let mut parked = parked.lock().unwrap_or_else(|e| e.into_inner());
                parked.insert(id, session);
            }
        }
        first_free
    }

    /// Serves until [`ServerHandle::shutdown`], calling `notify` with
    /// each session's final report the moment it finalizes (connection
    /// threads call it, so it must be `Sync`). Returns the drained
    /// summary.
    pub fn run<F>(self, notify: F) -> io::Result<ServeSummary>
    where
        F: Fn(&SessionReport) + Send + Sync + 'static,
    {
        assert!(
            !self.listeners.is_empty(),
            "bind at least one endpoint before run()"
        );
        let notify = Arc::new(notify);
        let parked: Arc<Mutex<HashMap<u64, Session>>> = Arc::new(Mutex::new(HashMap::new()));
        // Durable boot: rebuild every persisted session by WAL replay
        // before accepting connections, and keep ids monotone across the
        // restart.
        let first_free_id = self.recover_persisted(&parked);
        let next_id = Arc::new(AtomicU64::new(first_free_id));
        let (report_tx, report_rx) = mpsc::channel::<SessionReport>();
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let mut accepted_any = false;
            for listener in &self.listeners {
                loop {
                    match listener.poll_accept() {
                        Ok(Some(stream)) => {
                            accepted_any = true;
                            let ctx = ConnCtx {
                                config: self.config.clone(),
                                metrics: Arc::clone(&self.metrics),
                                stop: Arc::clone(&self.stop),
                                next_id: Arc::clone(&next_id),
                                report_tx: report_tx.clone(),
                                notify: Arc::clone(&notify),
                                budget: Arc::clone(&self.budget),
                                parked: Arc::clone(&parked),
                                fence: Arc::clone(&self.fence),
                            };
                            // Spawn failure (thread exhaustion) drops
                            // this connection, never the daemon.
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("paramount-ingest-conn".to_string())
                                .spawn(move || serve_connection(stream, ctx))
                            {
                                workers.push(handle);
                            }
                        }
                        Ok(None) => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        // A single failed accept (e.g. EMFILE) must not
                        // take the daemon down; back off and keep serving.
                        Err(_) => break,
                    }
                }
            }
            workers.retain(|w| !w.is_finished());
            // A lease that lapses while no connection is ticking still
            // fences on time: the accept loop is the daemon's heartbeat.
            // The tick that crosses the deadline drains parked sessions to
            // degraded (exact-prefix) reports — their stores stay on disk
            // for the survivor that replays them under a higher epoch.
            if self.fence.check_expiry() {
                drain_parked(&parked, &self.metrics, &notify, &report_tx);
            }
            if !accepted_any {
                std::thread::sleep(ACCEPT_TICK);
            }
        }
        // Drain: connection threads see the stop flag on their next read
        // tick and finalize with reason `shutdown`.
        for worker in workers {
            let _ = worker.join();
        }
        // Recovered sessions no client resumed drain like any other
        // shutdown: an exact report for the persisted prefix, store left
        // on disk for the next boot.
        drain_parked(&parked, &self.metrics, &notify, &report_tx);
        drop(report_tx);
        let reports = report_rx.into_iter().collect();
        // Unbind Unix sockets eagerly so a restart can rebind the path.
        for listener in &self.listeners {
            #[cfg(unix)]
            if let Listener::Unix(_, path) = listener {
                let _ = std::fs::remove_file(path);
            }
            #[cfg(not(unix))]
            let _ = listener;
        }
        Ok(ServeSummary {
            reports,
            ingest: self.metrics.snapshot(),
        })
    }
}

/// Everything a connection thread needs, bundled for the spawn.
struct ConnCtx<F: Fn(&SessionReport) + Send + Sync> {
    config: ServerConfig,
    metrics: Arc<IngestMetrics>,
    stop: Arc<AtomicBool>,
    next_id: Arc<AtomicU64>,
    report_tx: mpsc::Sender<SessionReport>,
    notify: Arc<F>,
    budget: Arc<MemoryBudget>,
    /// Sessions the boot scan rebuilt from the durable store, waiting for
    /// a `RESUME`. Unclaimed entries are finalized at shutdown.
    parked: Arc<Mutex<HashMap<u64, Session>>>,
    /// The daemon's fencing-epoch lease state, shared with the accept
    /// loop and every durable store.
    fence: Arc<FenceGuard>,
}

/// Finalizes every parked session to an exact-prefix report with reason
/// `shutdown`, leaving its store on disk. Called at daemon shutdown and
/// the moment a lease expiry fences the daemon.
fn drain_parked<F: Fn(&SessionReport) + Send + Sync>(
    parked: &Arc<Mutex<HashMap<u64, Session>>>,
    metrics: &Arc<IngestMetrics>,
    notify: &Arc<F>,
    report_tx: &mpsc::Sender<SessionReport>,
) {
    let leftover: Vec<Session> = {
        let mut parked = parked.lock().unwrap_or_else(|e| e.into_inner());
        parked.drain().map(|(_, s)| s).collect()
    };
    for session in leftover {
        let (id, label) = (session.id(), session.label().map(String::from));
        let report = catch_unwind(AssertUnwindSafe(|| session.finalize(EndReason::Shutdown)))
            .unwrap_or_else(|payload| {
                SessionReport::failed(id, label, panic_message(payload.as_ref()))
            });
        metrics.sessions_aborted.add(1);
        metrics.active_sessions.dec();
        (notify)(&report);
        let _ = report_tx.send(report);
    }
}

/// The per-session [`SessionConfig`] a durable daemon opens or recovers
/// with: daemon governor override plus interval spill routed under the
/// session's store directory.
fn durable_session_config(config: &ServerConfig, id: u64) -> SessionConfig {
    let mut session_config = config.session.clone();
    session_config.engine.governor = config.governor;
    if let Some(root) = &config.data_dir {
        session_config.engine.spill_dir = Some(session_dir(root, id).join("spill"));
    }
    session_config
}

/// The persisted session-id high-water (`data_dir/next-session`): the
/// lowest id a restarted daemon may issue, best-effort. Written at every
/// durable admission; a lost write degrades to the directory scan, which
/// is only insufficient for sessions whose directories migrated away.
fn read_id_floor(root: &Path) -> Option<u64> {
    std::fs::read_to_string(root.join("next-session"))
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Best-effort companion of [`read_id_floor`]; an unwritable root must
/// not fail the admission that durably created the session itself. The
/// first admission on a fresh daemon runs before anything else has
/// created the data root, so it is created here too.
fn write_id_floor(root: &Path, next: u64) {
    let _ = std::fs::create_dir_all(root);
    let _ = std::fs::write(root.join("next-session"), format!("{next}\n"));
}

/// The store policy a durable daemon creates and recovers session logs
/// with. Stores are stamped with the daemon's *current* lease epoch and
/// share its fence guard, so a fence (or a later re-join under a fresh
/// epoch) refuses stale appends at the WAL layer.
fn durable_store_config(
    config: &ServerConfig,
    metrics: &Arc<IngestMetrics>,
    fence: &Arc<FenceGuard>,
) -> StoreConfig {
    StoreConfig {
        checkpoint_every: config.checkpoint_every_events,
        fsync: config.fsync,
        metrics: Some(Arc::clone(metrics)),
        binary_events: false, // the persisted HELLO's version decides
        epoch: fence.epoch(),
        own_space: config.first_session_id >> 32,
        guard: Some(Arc::clone(fence)),
    }
}

/// Reads `\n`-terminated lines off a timeout-ticking stream. BufReader's
/// `read_line` cannot be used here: a timeout mid-line would drop the
/// partial buffer. This reader keeps partial data across ticks and
/// enforces [`MAX_LINE_BYTES`]. Shared with the fleet router, which
/// speaks the same line protocol over bare TCP streams.
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Parse cursor: bytes before this offset were already returned.
    pos: usize,
}

/// One read-tick outcome.
pub(crate) enum Tick {
    /// A full line (without the terminator).
    Line(String),
    /// Timeout expired with no complete line — chance to check flags.
    Idle,
    /// Peer closed the stream.
    Eof,
    /// The line grew past [`MAX_LINE_BYTES`].
    Oversize,
    /// Hard I/O error; the connection is unusable (details are not
    /// actionable here — every caller treats this as a disconnect).
    Err,
}

impl LineReader {
    pub(crate) fn new() -> Self {
        LineReader {
            buf: Vec::new(),
            pos: 0,
        }
    }

    pub(crate) fn next(&mut self, stream: &mut impl Read) -> Tick {
        loop {
            if let Some(rel) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let end = self.pos + rel;
                let line = String::from_utf8_lossy(&self.buf[self.pos..end]).into_owned();
                self.pos = end + 1;
                // Compact once the consumed prefix dominates the buffer.
                if self.pos > 4096 && self.pos * 2 > self.buf.len() {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                return Tick::Line(line);
            }
            if self.buf.len() - self.pos > MAX_LINE_BYTES {
                return Tick::Oversize;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Tick::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Tick::Idle
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Tick::Err,
            }
        }
    }

    /// Drains the bytes read past the last returned line — what a v2
    /// switchover hands to the binary decoder so nothing pipelined after
    /// the negotiating frame is lost.
    fn take_rest(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.pos);
        self.buf.clear();
        self.pos = 0;
        rest
    }
}

/// Reads length-prefixed binary frames off a timeout-ticking stream —
/// the `paramount/2` twin of [`LineReader`], active after a connection
/// negotiates v2.
struct BinReader {
    dec: wire2::Dec,
    /// Bytes read since the last drain (for the `bytes_in` counter).
    bytes: u64,
}

/// One binary read-tick outcome.
enum BinTick {
    /// A complete decoded frame.
    Frame(ClientFrame),
    /// Timeout with no complete frame — chance to check flags.
    Idle,
    /// Peer closed the stream.
    Eof,
    /// The stream is no longer frame-aligned (torn or malformed frame,
    /// oversize length). Unlike a malformed text line, this is fatal:
    /// there is no terminator to resynchronize on.
    Bad(DecodeError),
    /// Hard I/O error; treated as a disconnect.
    Err,
}

impl BinReader {
    fn new(dec: wire2::Dec) -> Self {
        BinReader { dec, bytes: 0 }
    }

    fn next(&mut self, stream: &mut impl Read) -> BinTick {
        loop {
            match self.dec.next_frame() {
                Ok(wire2::Step::Frame(frame)) => return BinTick::Frame(frame),
                Ok(wire2::Step::Incomplete) => {}
                Err(e) => return BinTick::Bad(e),
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return BinTick::Eof,
                Ok(n) => {
                    self.bytes += n as u64;
                    self.dec.extend(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return BinTick::Idle
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return BinTick::Err,
            }
        }
    }

    fn take_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.bytes)
    }
}

/// The per-connection reader: text until a `HELLO`/`RESUME` negotiates
/// `paramount/2`, binary afterwards (server→client replies stay text in
/// both modes).
enum ConnReader {
    Text(LineReader),
    Binary(BinReader),
}

/// Writes `frames` as one buffer: a multi-line reply is one write (one
/// segment on a socket without `TCP_NODELAY`), not one per line.
fn send_all(stream: &mut Stream, frames: &[ServerFrame]) -> io::Result<()> {
    let mut out = String::new();
    for frame in frames {
        out.push_str(&frame.encode());
        out.push('\n');
    }
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Sends `frames`; a failed write ends the connection as a disconnect.
fn reply_all(stream: &mut Stream, frames: &[ServerFrame]) -> FrameOutcome {
    match send_all(stream, frames) {
        Ok(()) => FrameOutcome::Continue,
        Err(_) => FrameOutcome::Close(EndReason::Disconnect),
    }
}

fn reply(stream: &mut Stream, frame: &ServerFrame) -> FrameOutcome {
    reply_all(stream, std::slice::from_ref(frame))
}

/// How a refused frame is booked and what becomes of the connection.
#[derive(PartialEq)]
enum Reject {
    /// Malformed or out-of-state frame: a decode error; the frame is
    /// dropped and the connection (and any session) carries on.
    Frame,
    /// A decode error the exchange cannot survive: the connection closes
    /// with reason `limit` (an open session keeps its store).
    Fatal,
    /// Admission refused: a rejected session; the connection closes.
    Admission,
}

impl<F: Fn(&SessionReport) + Send + Sync> ConnCtx<F> {
    /// The one place an `ERR` reply is counted, sent and turned into
    /// what the protocol loop does next.
    fn reject(&self, kind: Reject, err: DecodeError, stream: &mut Stream) -> FrameOutcome {
        if kind == Reject::Admission {
            self.metrics.sessions_rejected.add(1);
        } else {
            self.metrics.decode_errors.add(1);
        }
        let sent = reply(stream, &ServerFrame::Err(err));
        if kind == Reject::Frame {
            sent
        } else {
            FrameOutcome::Close(EndReason::Limit)
        }
    }

    /// `ERR busy` with the daemon's retry hint.
    fn busy_err(&self, message: String) -> DecodeError {
        DecodeError::busy(self.config.busy_retry_after_ms, message)
    }

    /// A fenced daemon stops serving its open session — a degraded
    /// finalize with an exact report for the accepted prefix — and says
    /// where to go. Pre-session connections are left alone so admin
    /// frames (`LEASE`, `STATS`, `SHUTDOWN`) still flow and the router
    /// can probe and re-admit.
    fn fence_ends_session(&self, stream: &mut Stream, session: &Option<Session>) -> bool {
        self.fence.check_expiry();
        let fenced = self.fence.is_fenced() && session.is_some();
        if fenced {
            let message = format!(
                "shard fenced at epoch {}; re-route and resume on the survivor",
                self.fence.epoch()
            );
            let _ = send_all(stream, &[ServerFrame::Err(self.busy_err(message))]);
        }
        fenced
    }

    /// What `HELLO` and `RESUME` both check first, in this order: no
    /// session on the connection yet, a version the daemon speaks, a
    /// daemon that is not fenced. `Some` is the rejection to return.
    fn admission_preamble(
        &self,
        proto: u8,
        stream: &mut Stream,
        session: &Option<Session>,
    ) -> Option<FrameOutcome> {
        let (kind, err) = if session.is_some() {
            (Reject::Frame, state_err("session already established"))
        } else if proto > self.config.proto_max {
            // Reject the version but keep the connection, exactly like a
            // daemon that predates the offered version: the client
            // re-offers `paramount/1` on this socket.
            let speaks = version_token(self.config.proto_max);
            let message = format!("daemon speaks up to {speaks}");
            (Reject::Frame, DecodeError::new(ErrCode::Version, message))
        } else if self.fence.is_fenced() {
            // A fenced shard admits nothing and resumes nothing — the
            // accepted prefix may already be replaying on a survivor
            // under a higher epoch, and serving it here would
            // double-serve it. The client re-ROUTEs (or retries after
            // re-admission).
            let message = format!(
                "shard is fenced at epoch {} awaiting re-admission",
                self.fence.epoch()
            );
            (Reject::Admission, self.busy_err(message))
        } else {
            return None;
        };
        Some(self.reject(kind, err, stream))
    }
}

/// One connection thread: runs the protocol loop under a panic boundary,
/// then finalizes. Every exit path that has an open session finalizes it
/// and files the report — the daemon never leaks a running engine, and a
/// panic anywhere in the loop (a buggy frame handler, an injected chaos
/// fault, a panic escaping the session's engine plumbing) is strictly a
/// single-session event: the session finalizes with reason `fault`, the
/// prefix observed before the fault is reported exactly, and the daemon
/// keeps serving everyone else.
fn serve_connection<F: Fn(&SessionReport) + Send + Sync>(mut stream: Stream, ctx: ConnCtx<F>) {
    if stream.set_read_timeout(READ_TICK).is_err() {
        return;
    }
    // Write deadline: a reply blocked on an unread socket fails the write
    // instead of wedging this thread on a stalled client (best-effort —
    // not every transport supports it).
    let _ = stream.set_write_timeout(ctx.config.session.limits.write_timeout);
    let mut session: Option<Session> = None;
    let mut faulted = false;
    let reason = match catch_unwind(AssertUnwindSafe(|| {
        connection_loop(&mut stream, &mut session, &ctx)
    })) {
        Ok(Some(reason)) => reason,
        Ok(None) => return, // no session was ever open: nothing to file
        Err(_) => {
            faulted = true;
            EndReason::Fault
        }
    };
    let Some(mut session) = session.take() else {
        return; // panicked before HELLO: no books to balance
    };
    let (id, label) = (session.id(), session.label().map(String::from));
    let clean = reason == EndReason::End;
    // Durable-store disposition: a clean END leaves nothing to resume, so
    // the log is deleted. Every other exit — disconnect, limit, timeout,
    // shutdown, fault — keeps it on disk for `RESUME` or the next boot.
    // The store is taken now (finalize consumes the session) but deleted
    // only *after* the engine drains: the drain may still thaw intervals
    // frozen on the cold spill tier, and those batches live inside the
    // store's directory.
    let spent_store = if clean { session.take_store() } else { None };
    // Finalize under its own unwind boundary: the accounting below must
    // run even if engine teardown itself faults.
    let report =
        catch_unwind(AssertUnwindSafe(|| session.finalize(reason))).unwrap_or_else(|payload| {
            faulted = true;
            SessionReport::failed(id, label, panic_message(payload.as_ref()))
        });
    if let Some(store) = spent_store {
        let _ = store.delete();
    }
    if faulted {
        ctx.metrics.sessions_faulted.add(1);
    } else if clean {
        ctx.metrics.sessions_completed.add(1);
    } else {
        ctx.metrics.sessions_aborted.add(1);
    }
    ctx.metrics.active_sessions.dec();
    // Best-effort: tell the client how its session ended. On a clean END
    // this is the acknowledged REPORT; on disconnect the write fails and
    // that is fine.
    let _ = send_all(&mut stream, &[ServerFrame::Report(report.wire())]);
    (ctx.notify)(&report);
    let _ = ctx.report_tx.send(report);
}

/// The protocol loop proper. Returns the end reason when a session is
/// open, `None` when the connection closed without one.
fn connection_loop<F: Fn(&SessionReport) + Send + Sync>(
    stream: &mut Stream,
    session: &mut Option<Session>,
    ctx: &ConnCtx<F>,
) -> Option<EndReason> {
    let mut reader = ConnReader::Text(LineReader::new());
    let mut conn_proto: u8 = 1;
    let mut last_frame = Instant::now();
    // Sessions get their configured idle budget; a connection that never
    // says HELLO gets the same budget to do so.
    let pre_hello_idle = ctx.config.session.limits.idle_timeout;

    /// One decoded step of either reader, error policy included.
    enum Ev {
        Frame(ClientFrame),
        /// Nothing actionable this tick (blank keep-alive line).
        Skip,
        Idle,
        /// Peer gone (EOF or hard I/O error).
        Gone,
        /// Recoverable decode error: reject the frame, keep the stream
        /// (text mode only — lines realign on `\n`).
        Soft(DecodeError),
        /// Unrecoverable decode error: the stream lost alignment
        /// (oversize text line, torn or malformed binary frame).
        Fatal(DecodeError),
    }

    // With no session open, a closed connection has nothing to file.
    let end = |session: &Option<Session>, reason| session.as_ref().map(|_| reason);
    loop {
        let ev = match &mut reader {
            ConnReader::Text(r) => match r.next(stream) {
                Tick::Idle => Ev::Idle,
                Tick::Eof | Tick::Err => Ev::Gone,
                Tick::Oversize => Ev::Fatal(DecodeError::new(
                    ErrCode::Proto,
                    format!("line exceeds {MAX_LINE_BYTES} bytes"),
                )),
                Tick::Line(line) => {
                    last_frame = Instant::now();
                    ctx.metrics.bytes_in.add(line.len() as u64 + 1);
                    if line.trim().is_empty() {
                        Ev::Skip // blank keep-alive lines are free
                    } else {
                        match parse_client_line(&line) {
                            Ok(frame) => Ev::Frame(frame),
                            Err(err) => Ev::Soft(err),
                        }
                    }
                }
            },
            ConnReader::Binary(r) => {
                let tick = r.next(stream);
                ctx.metrics.bytes_in.add(r.take_bytes());
                match tick {
                    BinTick::Idle => Ev::Idle,
                    BinTick::Eof | BinTick::Err => Ev::Gone,
                    BinTick::Bad(err) => Ev::Fatal(err),
                    BinTick::Frame(frame) => {
                        last_frame = Instant::now();
                        Ev::Frame(frame)
                    }
                }
            }
        };
        let outcome = match ev {
            Ev::Skip => FrameOutcome::Continue,
            Ev::Idle => {
                // Lease expiry check: a fenced daemon stops serving its
                // open session the next tick.
                if ctx.fence_ends_session(stream, session) {
                    return Some(EndReason::Shutdown);
                }
                if ctx.stop.load(Ordering::Relaxed) {
                    return end(session, EndReason::Shutdown);
                }
                let idle_budget = session
                    .as_ref()
                    .map(|s| s.idle_timeout())
                    .unwrap_or(pre_hello_idle);
                if last_frame.elapsed() >= idle_budget {
                    // A silent pre-HELLO connection is just dropped.
                    if session.is_some() {
                        let message = format!("idle for more than {idle_budget:?}");
                        let err = DecodeError::new(ErrCode::Limit, message);
                        let _ = send_all(stream, &[ServerFrame::Err(err)]);
                    }
                    return end(session, EndReason::Timeout);
                }
                FrameOutcome::Continue
            }
            Ev::Gone => return end(session, EndReason::Disconnect),
            Ev::Fatal(err) => {
                ctx.metrics.decode_errors.add(1);
                let _ = send_all(stream, &[ServerFrame::Err(err)]);
                return end(session, EndReason::Error);
            }
            // Malformed input is survivable: reject the frame, keep the
            // session; the stream stays line-aligned because frames are
            // lines.
            Ev::Soft(err) => ctx.reject(Reject::Frame, err, stream),
            Ev::Frame(frame) => {
                ctx.metrics.frames_decoded.add(1);
                // A fence lands mid-stream too: the open session ends
                // here (`EVENT` is no longer admitted).
                if ctx.fence_ends_session(stream, session) {
                    return Some(EndReason::Shutdown);
                }
                let outcome = handle_frame(frame, stream, session, &mut conn_proto, ctx);
                // A successful v2 negotiation flips the reader: any bytes
                // the line reader pipelined past the negotiating frame
                // seed the binary decoder.
                if conn_proto >= 2 {
                    if let ConnReader::Text(r) = &mut reader {
                        let mut dec = wire2::Dec::new();
                        dec.extend(&r.take_rest());
                        reader = ConnReader::Binary(BinReader::new(dec));
                    }
                }
                outcome
            }
        };
        if let FrameOutcome::Close(reason) = outcome {
            return end(session, reason);
        }
    }
}

enum FrameOutcome {
    Continue,
    /// Stop the loop; finalize with this reason if a session is open.
    Close(EndReason),
}

/// The `OK` that admits or resumes a session. At v2 it echoes the
/// accepted version, and its success is the moment the connection
/// switches to binary.
fn admit(
    mut kvs: Vec<(String, String)>,
    proto: u8,
    conn_proto: &mut u8,
    stream: &mut Stream,
) -> FrameOutcome {
    if proto >= 2 {
        kvs.push(("proto".to_string(), proto.to_string()));
        *conn_proto = proto;
    }
    reply(stream, &ServerFrame::Ok(kvs))
}

fn handle_frame<F: Fn(&SessionReport) + Send + Sync>(
    frame: ClientFrame,
    stream: &mut Stream,
    session: &mut Option<Session>,
    conn_proto: &mut u8,
    ctx: &ConnCtx<F>,
) -> FrameOutcome {
    match frame {
        ClientFrame::Hello(hello) => {
            if let Some(rejected) = ctx.admission_preamble(hello.proto, stream, session) {
                return rejected;
            }
            if ctx.metrics.active_sessions.get() >= ctx.config.max_sessions {
                let message = format!(
                    "daemon is at its session limit ({})",
                    ctx.config.max_sessions
                );
                let err = DecodeError::new(ErrCode::Limit, message);
                return ctx.reject(Reject::Admission, err, stream);
            }
            // Admission control: while the shared budget is at or past
            // its soft watermark, new sessions are turned away with a
            // retry hint — existing sessions keep the remaining headroom.
            if ctx.budget.pressure() >= Pressure::Soft {
                let message = format!(
                    "daemon over memory budget ({} accounted bytes)",
                    ctx.budget.accounted_bytes()
                );
                return ctx.reject(Reject::Admission, ctx.busy_err(message), stream);
            }
            let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
            // The daemon-wide governor supplies the engine's deadline and
            // the shared budget; a per-session governor in the session
            // defaults would silo the accounting, so it is overridden.
            let session_config = durable_session_config(&ctx.config, id);
            // Durable daemons create the session's log before its engine:
            // an unusable disk rejects the HELLO instead of breaking the
            // durability promise after the client has streamed.
            let store = match &ctx.config.data_dir {
                Some(root) => {
                    // Raise the persisted id floor before the session can
                    // exist on disk: even if this id's directory later
                    // migrates to a peer, a restarted incarnation will
                    // never re-issue it.
                    write_id_floor(root, id + 1);
                    let cfg = durable_store_config(&ctx.config, &ctx.metrics, &ctx.fence);
                    match SessionStore::create(&session_dir(root, id), id, &hello, cfg) {
                        Ok(store) => Some(store),
                        Err(err) => return ctx.reject(Reject::Admission, store_err(err), stream),
                    }
                }
                None => None,
            };
            match Session::open_with_budget(id, &hello, &session_config, Arc::clone(&ctx.budget)) {
                Ok(mut s) => {
                    if let Some(store) = store {
                        s.attach_store(store);
                    }
                    ctx.metrics.sessions_opened.add(1);
                    ctx.metrics.active_sessions.inc();
                    *session = Some(s);
                    let kvs = vec![("session".to_string(), id.to_string())];
                    admit(kvs, hello.proto, conn_proto, stream)
                }
                Err(err) => {
                    if let Some(store) = store {
                        let _ = store.delete(); // no session to resume
                    }
                    ctx.reject(Reject::Admission, err, stream)
                }
            }
        }
        ClientFrame::Event { tid, op } => {
            let Some(s) = session.as_mut() else {
                ctx.metrics.decode_errors.add(1);
                return reply(
                    stream,
                    &ServerFrame::Err(DecodeError::new(ErrCode::State, "EVENT before HELLO")),
                );
            };
            match s.apply(tid, &op) {
                Ok(()) => {
                    // Deterministic fault injection: blow up this session
                    // thread after the configured number of accepted
                    // events — the chaos suite's probe that a session
                    // panic is contained and the daemon keeps serving.
                    #[cfg(feature = "chaos")]
                    if let Some(after) = ctx.config.session.engine.faults.session_panic_after {
                        if s.wire_events() == after {
                            panic!("chaos: session panic injected after {after} events");
                        }
                    }
                    FrameOutcome::Continue // fire-and-forget
                }
                Err(err) => {
                    ctx.metrics.decode_errors.add(1);
                    let fatal = err.code == ErrCode::Limit;
                    let out = reply(stream, &ServerFrame::Err(err));
                    if fatal {
                        // Limits end the session (exact prefix report);
                        // state errors only reject the frame.
                        FrameOutcome::Close(EndReason::Limit)
                    } else {
                        out
                    }
                }
            }
        }
        ClientFrame::Flush => {
            let Some(s) = session.as_mut() else {
                return ctx.reject(Reject::Frame, state_err("FLUSH before HELLO"), stream);
            };
            // The barrier is also the durability point: every accepted
            // event reaches stable storage before the ack, so the acked=
            // count is a promise a crash cannot revoke.
            if let Err(err) = s.sync_store() {
                return ctx.reject(Reject::Fatal, err, stream);
            }
            let (events, cuts) = s.progress();
            let mut kvs = vec![
                ("events".to_string(), events.to_string()),
                ("cuts".to_string(), cuts.to_string()),
            ];
            if let Some(acked) = s.acked() {
                kvs.push(("acked".to_string(), acked.to_string()));
            }
            reply(stream, &ServerFrame::Ok(kvs))
        }
        ClientFrame::Stats => {
            // In-session: the session's engine metrics. Pre-HELLO: the
            // daemon-wide ingest counters (this is how `paramount stats
            // --connect` scrapes a live daemon).
            let (scope, mut json) = match session.as_ref() {
                Some(s) => {
                    let label = s.label().unwrap_or("session");
                    (label, s.metrics().to_json_lines(label))
                }
                None => {
                    // The budget gauge rides along so a scrape shows the
                    // daemon's headroom next to its session counters.
                    let mut out = ctx.metrics.snapshot().to_json_lines("ingest");
                    out.push_str(&ctx.budget.snapshot().to_json_line("ingest"));
                    out.push('\n');
                    ("ingest", out)
                }
            };
            // Three gauges ride along on every reply: the connection's
            // negotiated wire version (which framing the stream is using),
            // and the daemon's fencing state, so the router's probe (and
            // any scrape) sees the lease epoch and whether the shard is
            // currently fenced.
            for (metric, value) in [
                ("protocol_version", u64::from(*conn_proto)),
                ("fencing_epoch", ctx.fence.epoch()),
                ("fenced", u64::from(ctx.fence.is_fenced())),
            ] {
                json.push_str(
                    &stat_line(scope, metric, "gauge")
                        .u64("value", value)
                        .finish(),
                );
                json.push('\n');
            }
            let mut frames: Vec<ServerFrame> = json
                .lines()
                .map(|line| ServerFrame::Stat(line.to_string()))
                .collect();
            frames.push(ServerFrame::Ok(Vec::new()));
            reply_all(stream, &frames)
        }
        ClientFrame::End => {
            if session.is_none() {
                return ctx.reject(Reject::Frame, state_err("END before HELLO"), stream);
            }
            FrameOutcome::Close(EndReason::End)
        }
        ClientFrame::Shutdown => {
            if session.is_some() {
                let err = state_err("SHUTDOWN is an admin frame; END your session first");
                return ctx.reject(Reject::Frame, err, stream);
            }
            let out = reply(stream, &ServerFrame::Ok(Vec::new()));
            ctx.stop.store(true, Ordering::Relaxed);
            out
        }
        // Shard daemons do not route; the fleet router answers this frame.
        ClientFrame::Route { .. } => {
            let err = state_err("ROUTE is answered by a fleet router, not a shard daemon");
            ctx.reject(Reject::Frame, err, stream)
        }
        ClientFrame::Resume {
            session: want,
            proto,
        } => {
            if let Some(rejected) = ctx.admission_preamble(proto, stream, session) {
                return rejected;
            }
            // Both rejections below are `state` (non-fatal): the client
            // may fall back to a fresh HELLO on this same connection.
            let Some(root) = ctx.config.data_dir.clone() else {
                let err = state_err("daemon has no durable store (start it with --data-dir)");
                return ctx.reject(Reject::Frame, err, stream);
            };
            // Boot-recovered sessions are parked and adopted directly;
            // otherwise recover lazily from disk (e.g. a session that
            // disconnected earlier in this daemon's own lifetime).
            let adopted = {
                let mut parked = ctx.parked.lock().unwrap_or_else(|e| e.into_inner());
                parked.remove(&want)
            };
            let s = match adopted {
                Some(mut s) => {
                    // Parked sessions were recovered at boot, possibly
                    // before this shard's current lease existed; the
                    // adopter claims the store under the epoch it holds
                    // *now* or every later append would refuse as stale.
                    if let Err(err) = s.restamp_store(ctx.fence.epoch()) {
                        let mut parked = ctx.parked.lock().unwrap_or_else(|e| e.into_inner());
                        parked.insert(want, s);
                        return ctx.reject(Reject::Fatal, err, stream);
                    }
                    s
                }
                None => {
                    let cfg = durable_store_config(&ctx.config, &ctx.metrics, &ctx.fence);
                    let rec = match SessionStore::recover(&session_dir(&root, want), cfg) {
                        Ok(Some(rec)) => rec,
                        Ok(None) => {
                            let err = state_err(format!("unknown session {want}"));
                            return ctx.reject(Reject::Frame, err, stream);
                        }
                        Err(err) => return ctx.reject(Reject::Fatal, store_err(err), stream),
                    };
                    let session_config = durable_session_config(&ctx.config, want);
                    match Session::recover(rec, &session_config, Arc::clone(&ctx.budget)) {
                        Ok(s) => {
                            ctx.metrics.sessions_recovered.add(1);
                            ctx.metrics.active_sessions.inc();
                            s
                        }
                        Err(err) => return ctx.reject(Reject::Fatal, err, stream),
                    }
                }
            };
            let kvs = vec![
                ("session".to_string(), want.to_string()),
                ("acked".to_string(), s.acked().unwrap_or(0).to_string()),
            ];
            *session = Some(s);
            admit(kvs, proto, conn_proto, stream)
        }
        ClientFrame::Lease { epoch, ttl_ms } => {
            if session.is_some() {
                let err = state_err("LEASE is an admin frame; END your session first");
                return ctx.reject(Reject::Frame, err, stream);
            }
            // The grant applies atomically; the ack reports the epoch
            // the daemon holds *after* it, so the router learns about a
            // later incarnation (ack.epoch > offer) or a standing fence
            // (fenced=1, cleared only by a strictly higher offer).
            let ack = ctx.fence.grant(epoch, Duration::from_millis(ttl_ms));
            reply(
                stream,
                &ServerFrame::Ok(vec![
                    ("epoch".to_string(), ack.epoch.to_string()),
                    ("fenced".to_string(), u8::from(ack.fenced).to_string()),
                ]),
            )
        }
    }
}

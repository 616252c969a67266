//! The sharded run-to-completion runtime: shard threads that each own
//! their sessions' sockets and DSP, the listener, the session registry
//! and graceful shutdown.
//!
//! Every session owns its DSP: a [`FixedDdc`] for a chain session, a
//! [`ChannelizerFarm`] for a bank's ingest. The session's shard runs
//! each accepted batch to completion on its readiness loop — decode,
//! DSP in bounded slices, Iq encode, socket write — with no hand-off to
//! another thread. That is the GC4016's organisation (paper §3, Fig. 4):
//! a channel is a fixed datapath beside its input, not a job on a
//! shared pool. `max_sessions` bounds how many chain sessions may hold
//! a channel at once.
//!
//! Thread shape:
//!
//! ```text
//! listener ──┐
//!            ├─ ddc-shard-0 ─ poller ── sessions {a, b, …}
//!            ├─ ddc-shard-1 ─ poller ── sessions {c, d, …}    each: read → decode → queue
//!            └─ …  (N readiness loops)                              → DSP slices → encode → write
//! ```
//!
//! The listener sits in shard 0's poller; shard 0 deals new sessions
//! round-robin across the shards. Each loop iteration gives every
//! session with queued work one DSP turn of at most one slice: the
//! latency-QoS chunk for budgeted sessions, `THROUGHPUT_SLICE`
//! samples otherwise. A session sharing a shard therefore waits at most
//! one slice per other busy session before its own batch runs, and a
//! slice's time depends on that session's kind. A chain slice takes
//! about 0.1 ms. A power-of-two bank ingest's 2^15-sample slice takes
//! under 1 ms up to N = 1024 (0.3–0.8 ms measured at N = 64 and 1024
//! with every channel synthesized, about 0.2 ms with one). A
//! non-power-of-two bank runs the naive DFT on its K subscribed
//! channels, O(N·K) per output: at N = 1023 a slice takes about
//! 0.23 ms with one subscribed channel, 0.95 ms with eight and 0.1 s
//! with all of them, and at N = 1022 with `oversample = 2` about
//! 0.5 ms, 2 ms and 0.2 s. A peer may configure and subscribe to any
//! of these, so a latency-QoS session's budget holds only while its
//! neighbours' slices fit in it. Thread count is a function of the
//! host, not the session count, so hundreds of concurrent sessions cost
//! hundreds of sockets — not hundreds of threads.

use crate::queue::{BoundedQueue, Push};
use crate::session::{
    frame_name, Bank, Batch, ChainObs, Conn, EndKind, FlushState, InFlight, Notice, Reader, Role,
    Session, SessionObs, SessionState, ShardMailbox, OUT_HWM, READ_BUDGET, READ_CHUNK,
};
use crate::sys::{fd_of, Interest, Poller};
use crate::wire::{
    decode_header, decode_payload, decode_samples_into, error_code, Backpressure, ChainPlan,
    Configure, ErrorFrame, Frame, FrameBuf, Hello, IqTiming, MetricsReport, StatsReport,
    TraceReport, HEADER_LEN,
};
use ddc_core::mixer::Iq;
use ddc_core::{chain_metrics_for, ChannelizerFarm, FixedDdc};
use ddc_obs::{Counter, MetricsHandle, MetricsSnapshot, SpanEvent, TraceHandle, TraceSink};
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Chain sessions that may hold a channel at once.
    pub max_sessions: usize,
    /// Shard threads, each owning its sessions' sockets and DSP; 0 =
    /// one per host core, capped at 4.
    pub io_shards: usize,
    /// Queue capacity used when Configure asks for 0.
    pub default_queue_cap: usize,
    /// Hard ceiling on the per-session queue capacity.
    pub max_queue_cap: usize,
    /// Artificial per-batch processing delay — a fault-injection knob
    /// that simulates an overloaded backend so backpressure paths can
    /// be exercised deterministically in tests. Zero in production.
    pub processing_delay: Duration,
    /// Implementation banner sent in the server's Hello.
    pub banner: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            io_shards: 0,
            default_queue_cap: 8,
            max_queue_cap: 64,
            processing_delay: Duration::ZERO,
            banner: format!("ddc-server/{}", env!("CARGO_PKG_VERSION")),
        }
    }
}

/// Samples one DSP turn of a throughput session covers. It bounds how
/// long any other session on the shard waits behind a large batch, by
/// a time that depends on the session's kind: about 130 µs of the DRM
/// chain at 4 ns per sample, under 1 ms of a power-of-two bank ingest
/// up to N = 1024, but up to 0.1 s of a naive-DFT bank at N = 1023
/// and 0.2 s at N = 1022 with `oversample = 2`, whose cost grows with
/// its subscribed channels (see the module docs).
const THROUGHPUT_SLICE: usize = 1 << 15;

/// Poller token of the listening socket. Session ids count up from 0,
/// and the poller's own wake pipe uses `u64::MAX`.
const LISTENER: u64 = u64::MAX - 1;

/// How long shard 0 leaves the listener out of its poller after
/// `accept` fails with a persistent error (EMFILE, ENFILE, ENOBUFS, …).
/// The pending connection keeps the level-triggered listener readable
/// while the error lasts, so re-arming it at once would spin the shard.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// How long a connection may take from its accept to a completed
/// handshake (Hello, then Configure). A session still short of
/// Streaming then gets a [`error_code::PROTOCOL`] Error frame and is
/// closed, so a silent peer cannot hold a descriptor and a session
/// forever.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// DSP spans (`ddc_job` and the per-stage kernel spans) land on the
/// track of the shard that ran them, below this base; session-level
/// spans (ingest, queue-wait, service, egress) land on
/// `SESSION_TRACK_BASE + id % 0x10000`, so each session renders as its
/// own Perfetto process row. Collisions between long-lived sessions
/// merely share a display row — span identity always comes from the
/// trace/span IDs, never the track.
const SESSION_TRACK_BASE: u32 = 64;

fn session_track(id: u64) -> u32 {
    SESSION_TRACK_BASE + (id % 0x10000) as u32
}

/// Interned span-name indices for the server's trace points.
#[derive(Clone, Copy)]
struct TraceNames {
    ingest: u16,
    queue_wait: u16,
    service: u16,
    egress: u16,
    job: u16,
}

/// State shared by every shard and the handle.
struct ServerState {
    /// Server-wide span sink: shards and sessions all record into its
    /// rings; a TraceRequest drains them.
    trace: Arc<TraceSink>,
    trace_names: TraceNames,
    /// Single-consumer drain guard for TraceRequest (ring cursors are
    /// not safe under concurrent drains).
    trace_drain: Mutex<Vec<SpanEvent>>,
    cfg: ServerConfig,
    /// Chain sessions currently holding a channel (≤ `max_sessions`).
    channels_in_use: AtomicUsize,
    stop: AtomicBool,
    sessions_started: AtomicU64,
    /// DSP jobs (slices) run across every chain session.
    jobs_completed: Counter,
    /// Accepted connections that could not be set up (socket mode /
    /// poller registration) — each one also got a structured Error
    /// frame instead of a silent drop — plus `accept` calls that failed
    /// with anything but `WouldBlock` or `Interrupted`.
    accept_failures: Counter,
    /// Sessions closed for not finishing their handshake within
    /// [`HANDSHAKE_TIMEOUT`].
    handshake_timeouts: Counter,
    /// Telemetry handles of live sessions, keyed by session id. Weak:
    /// the session owns the data; a dead entry just disappears from
    /// the next snapshot.
    session_obs: Mutex<Vec<(u64, Weak<SessionObs>)>>,
    /// Live channelizer banks keyed by spec name. A bank is published
    /// by its ingest session and removed by that session's drain
    /// epilogue.
    banks: Mutex<HashMap<String, Arc<Bank>>>,
    /// Live (registered, not yet closed) connections, with a condvar
    /// so shutdown can wait for the drain instead of polling joins.
    active: Mutex<usize>,
    active_cv: Condvar,
}

impl ServerState {
    fn claim_channel(&self) -> bool {
        self.channels_in_use
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cfg.max_sessions).then_some(n + 1)
            })
            .is_ok()
    }

    fn free_channels(&self) -> usize {
        self.cfg
            .max_sessions
            .saturating_sub(self.channels_in_use.load(Ordering::SeqCst))
    }

    fn register_session(&self, id: u64, obs: &Arc<SessionObs>) {
        let mut reg = self.session_obs.lock().unwrap();
        reg.retain(|(_, w)| w.strong_count() > 0);
        reg.push((id, Arc::downgrade(obs)));
        *self.active.lock().unwrap() += 1;
    }

    fn unregister_session(&self, id: u64) {
        self.session_obs.lock().unwrap().retain(|(k, _)| *k != id);
        let mut g = self.active.lock().unwrap();
        *g = g.saturating_sub(1);
        self.active_cv.notify_all();
    }

    /// Removes `bank` from the registry, unless the name has since been
    /// taken by a newer bank.
    fn unpublish(&self, bank: &Arc<Bank>) {
        let mut banks = self.banks.lock().unwrap();
        if banks.get(&bank.name).is_some_and(|b| Arc::ptr_eq(b, bank)) {
            banks.remove(&bank.name);
        }
    }

    /// One coherent snapshot across every layer: server-level gauges,
    /// each bank's metrics, then each live session's codec and queue
    /// telemetry and, for chain sessions, the per-channel and
    /// per-stage DSP families.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("ddc_farm_jobs_completed_total", self.jobs_completed.get());
        snap.push_counter(
            "ddc_server_sessions_started_total",
            self.sessions_started.load(Ordering::Relaxed),
        );
        let live: Vec<(u64, Arc<SessionObs>)> = {
            let reg = self.session_obs.lock().unwrap();
            reg.iter()
                .filter_map(|(id, w)| w.upgrade().map(|o| (*id, o)))
                .collect()
        };
        snap.push_counter("ddc_server_sessions_active", live.len() as u64);
        snap.push_counter("ddc_server_free_slots", self.free_channels() as u64);
        snap.push_counter(
            "ddc_server_accept_failures_total",
            self.accept_failures.get(),
        );
        snap.push_counter(
            "ddc_server_handshake_timeouts_total",
            self.handshake_timeouts.get(),
        );
        // Channelizer banks, each under its own bank="name" label so
        // concurrently live banks never collide in one scrape.
        let banks: Vec<Arc<Bank>> = self.banks.lock().unwrap().values().cloned().collect();
        for bank in banks {
            if let Some(m) = &bank.metrics {
                m.snapshot_labeled(&mut snap, Some(&bank.name));
            }
        }
        for (id, obs) in live {
            let l = format!("{{session=\"{id}\"}}");
            snap.push_hist(
                format!("ddc_session_decode_ns{l}"),
                obs.decode_ns.snapshot(),
            );
            snap.push_hist(
                format!("ddc_session_encode_ns{l}"),
                obs.encode_ns.snapshot(),
            );
            snap.push_hist(
                format!("ddc_session_queue_depth{l}"),
                obs.queue_depth.snapshot(),
            );
            snap.push_counter(
                format!("ddc_session_drops_total{{session=\"{id}\",mode=\"oldest\"}}"),
                obs.drops_oldest.get(),
            );
            snap.push_counter(
                format!("ddc_session_drops_total{{session=\"{id}\",mode=\"reject\"}}"),
                obs.drops_reject.get(),
            );
            snap.push_counter(
                format!("ddc_session_stats_requests_total{l}"),
                obs.stats_requests.get(),
            );
            snap.push_counter(
                format!("ddc_session_metrics_requests_total{l}"),
                obs.metrics_requests.get(),
            );
            // Latency family: exported only for sessions that
            // negotiated a latency QoS budget, so throughput scrapes
            // stay byte-identical to earlier builds.
            let budget_us = obs.latency_budget_us.load(Ordering::Relaxed);
            if budget_us > 0 {
                snap.push_counter(format!("ddc_latency_budget_us{l}"), budget_us);
                snap.push_hist(format!("ddc_latency_e2e_ns{l}"), obs.e2e_ns.snapshot());
                snap.push_counter(
                    format!("ddc_latency_deadline_misses_total{l}"),
                    obs.deadline_misses.get(),
                );
            }
            // A chain session's DSP families, labelled with its channel
            // number (the session id, as its StatsReport reports it).
            if let Some(c) = obs.chain.get() {
                c.push_metrics(&mut snap, id);
            }
        }
        snap
    }
}

/// A running streaming server. Dropping the handle performs a hard
/// shutdown; call [`ServerHandle::shutdown`] for the graceful path.
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    shards: Vec<(Arc<ShardMailbox>, Option<JoinHandle<()>>)>,
}

/// Binds the streaming service and starts accepting connections.
/// `addr` may use port 0 for an ephemeral port; the bound address is
/// available via [`ServerHandle::local_addr`].
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    assert!(cfg.max_sessions >= 1, "server needs at least one slot");
    assert!(cfg.default_queue_cap >= 1 && cfg.max_queue_cap >= cfg.default_queue_cap);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let n_shards = match cfg.io_shards {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
        n => n,
    };
    // Span tracing is compiled in but costs one u64 compare per slice
    // until a batch actually carries a trace ID (head-sampled).
    let trace = Arc::new(TraceSink::new(16, 4096));
    let trace_names = TraceNames {
        ingest: trace.register_name("ingest"),
        queue_wait: trace.register_name("queue_wait"),
        service: trace.register_name("service"),
        egress: trace.register_name("egress"),
        job: trace.register_name("ddc_job"),
    };
    let state = Arc::new(ServerState {
        trace,
        trace_names,
        trace_drain: Mutex::new(Vec::new()),
        cfg,
        channels_in_use: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        sessions_started: AtomicU64::new(0),
        jobs_completed: Counter::default(),
        accept_failures: Counter::default(),
        handshake_timeouts: Counter::default(),
        session_obs: Mutex::new(Vec::new()),
        banks: Mutex::new(HashMap::new()),
        active: Mutex::new(0),
        active_cv: Condvar::new(),
    });

    let pollers = (0..n_shards)
        .map(|_| Poller::new())
        .collect::<std::io::Result<Vec<_>>>()?;
    let mailboxes: Vec<Arc<ShardMailbox>> = pollers
        .iter()
        .map(|p| ShardMailbox::new(p.waker()))
        .collect();
    pollers[0].add(fd_of(&listener), LISTENER, Interest::READ)?;
    let mut listener = Some(listener);
    let mut shards = Vec::with_capacity(n_shards);
    for (k, poller) in pollers.into_iter().enumerate() {
        let shard = Shard {
            track: k as u32,
            poller,
            mailbox: Arc::clone(&mailboxes[k]),
            state: Arc::clone(&state),
            sessions: HashMap::new(),
            listener: listener.take(),
            accept_resume: None,
            peers: if k == 0 {
                mailboxes.clone()
            } else {
                Vec::new()
            },
            next_peer: 0,
            work: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("ddc-shard-{k}"))
            .spawn(move || shard.run())
            .expect("cannot spawn shard thread");
        shards.push((Arc::clone(&mailboxes[k]), Some(thread)));
    }

    Ok(ServerHandle {
        local_addr,
        state,
        shards,
    })
}

/// Accept-time setup failure: count it and tell the peer with a
/// structured Error frame before closing.
fn reject_setup_failure(state: &ServerState, mut stream: TcpStream, err: &std::io::Error) {
    state.accept_failures.inc();
    let mut fb = FrameBuf::new();
    fb.encode(&setup_error(err), 0);
    let _ = stream.set_nonblocking(false);
    let _ = fb.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn setup_error(err: &std::io::Error) -> Frame {
    Frame::Error(ErrorFrame {
        code: error_code::SESSION_SETUP,
        message: format!("session setup failed: {err}"),
    })
}

// ------------------------------------------------------------- shards

/// What the read pump asks the shard to do with the fd afterwards.
enum ReadOutcome {
    /// Keep current interest.
    Continue,
    /// Block-policy pause: disarm read until a DSP turn frees room.
    Pause,
    /// Input side ended: disarm read; the drain (or the flush) will
    /// finish the teardown.
    Drain,
}

/// Largest sub-batch a latency session's DSP runs in one turn: a
/// quarter-budget's worth of input samples, so decode, queue wait,
/// processing and egress together fit inside the budget with headroom.
/// Floored at one output word per chunk (below the total decimation a
/// chunk could produce nothing and the ack would still wait for the
/// whole batch) and capped to keep degenerate budgets from disabling
/// chunking arithmetic.
fn latency_chunk_samples(input_rate: f64, total_decimation: u32, budget_us: u32) -> usize {
    /// Upper bound on the derived chunk, samples.
    const CHUNK_CAP: usize = 1 << 22;
    let quarter = input_rate * f64::from(budget_us) * 1e-6 / 4.0;
    // The floor must itself respect the cap: ChainSpec::validate only
    // bounds the decimation product to fit u32, so a valid spec can
    // exceed 2^22 — an uncapped floor would invert the clamp range and
    // panic on the shard thread (one bad Configure killing every
    // session on the shard).
    let floor = (total_decimation as usize).clamp(1, CHUNK_CAP);
    (quarter as usize).clamp(floor, CHUNK_CAP)
}

/// A duration as whole nanoseconds, saturating at `u64::MAX` (584
/// years — only a frozen clock gets near it, but the wire field is
/// fixed-width).
fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One shard thread: a poller, the sessions registered with it, and —
/// on shard 0 — the listener.
struct Shard {
    /// Span track of this shard's DSP work (its index).
    track: u32,
    poller: Poller,
    mailbox: Arc<ShardMailbox>,
    state: Arc<ServerState>,
    sessions: HashMap<u64, Session>,
    /// Shard 0 only, until shutdown starts.
    listener: Option<TcpListener>,
    /// Set while the listener is out of the poller after an accept
    /// error: when it goes back in.
    accept_resume: Option<Instant>,
    /// Shard 0 only: every shard's mailbox, to deal new sessions.
    peers: Vec<Arc<ShardMailbox>>,
    next_peer: usize,
    /// Sessions given a DSP turn this iteration (reused buffer).
    work: Vec<u64>,
}

impl Shard {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut notices = Vec::new();
        loop {
            // Sessions with queued work keep the loop spinning through
            // non-blocking polls; otherwise sleep until readiness, until
            // the listener's accept back-off runs out, or until the
            // earliest handshake deadline.
            let handshake_due = self
                .sessions
                .values()
                .filter(|s| s.in_handshake())
                .map(|s| s.accepted + HANDSHAKE_TIMEOUT)
                .min();
            let timeout = if self.sessions.values().any(Session::has_work) {
                Some(Duration::ZERO)
            } else {
                [self.accept_resume, handshake_due]
                    .into_iter()
                    .flatten()
                    .min()
                    .map(|t| t.saturating_duration_since(Instant::now()))
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.rearm_listener();
            self.mailbox.drain_into(&mut notices);
            for n in notices.drain(..) {
                if !self.notice(n) {
                    return;
                }
            }
            for ev in &events {
                if ev.token == LISTENER {
                    self.accept_ready();
                    continue;
                }
                if ev.readable {
                    self.handle_readable(ev.token);
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
            if handshake_due.is_some_and(|t| t <= Instant::now()) {
                self.expire_handshakes();
            }
            let mut work = std::mem::take(&mut self.work);
            work.clear();
            work.extend(
                self.sessions
                    .iter()
                    .filter(|(_, s)| s.has_work())
                    .map(|(&id, _)| id),
            );
            for &id in &work {
                self.turn(id);
            }
            self.work = work;
        }
    }

    /// Acts on one mailbox notice; `false` means exit the thread.
    fn notice(&mut self, n: Notice) -> bool {
        match n {
            Notice::Accept(conn) => self.register(conn),
            Notice::WriteReady(id) => {
                if let Some(s) = self.sessions.get_mut(&id) {
                    let want = Interest {
                        write: true,
                        ..s.interest
                    };
                    set_interest(&self.poller, s, want);
                }
            }
            Notice::Deregister(id) => self.close(id),
            Notice::DrainAll => {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.del(fd_of(&l));
                }
                let ids: Vec<u64> = self.sessions.keys().copied().collect();
                for id in ids {
                    self.drain(id);
                }
            }
            Notice::HardCloseAll => {
                for s in self.sessions.values() {
                    let _ = s.conn.stream.shutdown(Shutdown::Both);
                }
            }
            Notice::Exit => {
                let ids: Vec<u64> = self.sessions.keys().copied().collect();
                for id in ids {
                    self.close(id);
                }
                return false;
            }
        }
        true
    }

    /// Accepts every pending connection and deals each to a shard.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.state.accept_failures.inc();
                    self.pause_accept();
                    return;
                }
            };
            let _ = stream.set_nodelay(true);
            if let Err(e) = stream.set_nonblocking(true) {
                reject_setup_failure(&self.state, stream, &e);
                continue;
            }
            let id = self.state.sessions_started.fetch_add(1, Ordering::Relaxed);
            let obs = Arc::new(SessionObs::default());
            let k = self.next_peer % self.peers.len();
            self.next_peer = self.next_peer.wrapping_add(1);
            let conn = Conn::new(id, stream, Arc::clone(&self.peers[k]), Arc::clone(&obs));
            self.state.register_session(id, &obs);
            if Arc::ptr_eq(&self.peers[k], &self.mailbox) {
                self.register(conn);
            } else {
                self.peers[k].post(Notice::Accept(conn));
            }
        }
    }

    /// Times out every session still short of Streaming
    /// [`HANDSHAKE_TIMEOUT`] after its accept: it gets a PROTOCOL Error
    /// frame, and closes once that has flushed.
    fn expire_handshakes(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.in_handshake() && s.accepted + HANDSHAKE_TIMEOUT <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(s) = self.sessions.get_mut(&id) else {
                continue;
            };
            self.state.handshake_timeouts.inc();
            s.conn.enqueue(&Frame::Error(ErrorFrame {
                code: error_code::PROTOCOL,
                message: format!(
                    "handshake timeout: Hello and Configure not completed within {} s of accept",
                    HANDSHAKE_TIMEOUT.as_secs()
                ),
            }));
            let outcome = end_input(s, EndKind::Errored);
            self.apply_outcome(id, outcome);
        }
    }

    /// Takes the listener out of the poller for [`ACCEPT_BACKOFF`].
    fn pause_accept(&mut self) {
        if let Some(l) = &self.listener {
            let _ = self.poller.del(fd_of(l));
        }
        self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    /// Puts the listener back into the poller once its back-off has
    /// run out (a shutdown that took the listener meanwhile ends it).
    fn rearm_listener(&mut self) {
        if self.accept_resume.is_none_or(|t| Instant::now() < t) {
            return;
        }
        self.accept_resume = None;
        if let Some(l) = &self.listener {
            if self.poller.add(fd_of(l), LISTENER, Interest::READ).is_err() {
                self.pause_accept();
            }
        }
    }

    /// Starts serving an accepted connection on this shard.
    fn register(&mut self, conn: Arc<Conn>) {
        let id = conn.id;
        match self.poller.add(fd_of(&conn.stream), id, Interest::READ) {
            // The client's Hello may already be queued in the kernel;
            // with level-triggered polling the next wait reports it.
            Ok(()) => {
                self.sessions.insert(id, Session::new(conn));
                // Accepted just as shutdown began: the DrainAll may
                // already have passed this shard.
                if self.state.stop.load(Ordering::Acquire) {
                    self.drain(id);
                }
            }
            Err(e) => {
                self.state.accept_failures.inc();
                conn.enqueue(&setup_error(&e));
                let _ = conn.flush();
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.state.unregister_session(id);
            }
        }
    }

    /// Deregisters, shuts and forgets one connection. The only place a
    /// session leaves the shard.
    fn close(&mut self, id: u64) {
        let Some(mut s) = self.sessions.remove(&id) else {
            return;
        };
        match &s.role {
            // Eager unsubscribe (the Weak would also be pruned lazily at
            // the next delivery): a closed subscriber stops costing the
            // ingest's synthesis and delivery loop anything.
            Role::Subscriber { bank, channel } => bank.unsubscribe(*channel, id),
            Role::Ingest { bank, .. } if !s.finished => self.state.unpublish(bank),
            _ => {}
        }
        release_channel(&self.state, &mut s);
        let _ = self.poller.del(fd_of(&s.conn.stream));
        let _ = s.conn.stream.shutdown(Shutdown::Both);
        self.state.unregister_session(id);
    }

    /// Server-initiated drain of one session (graceful shutdown):
    /// behaves exactly as if the client had half-closed — accepted
    /// batches still process and acknowledge, then the connection
    /// closes.
    fn drain(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        if s.reader.state != SessionState::Draining {
            let outcome = end_input(s, EndKind::Disconnected);
            self.apply_outcome(id, outcome);
        }
    }

    fn handle_readable(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let outcome = pump_read(&self.state, s);
        self.apply_outcome(id, outcome);
    }

    fn apply_outcome(&mut self, id: u64, outcome: ReadOutcome) {
        if let Some(s) = self.sessions.get_mut(&id) {
            if matches!(outcome, ReadOutcome::Pause | ReadOutcome::Drain) {
                let want = Interest {
                    read: false,
                    ..s.interest
                };
                set_interest(&self.poller, s, want);
            }
        }
        self.flush(id);
    }

    /// Writes what the socket takes, then arms write interest for the
    /// rest, disarms it, or finishes the close.
    fn flush(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let write = match s.conn.flush() {
            FlushState::Done => return self.close(id),
            FlushState::Pending => true,
            FlushState::Idle => false,
        };
        let want = Interest {
            write,
            ..s.interest
        };
        set_interest(&self.poller, s, want);
    }

    /// One DSP turn for session `id`, then the follow-ups: resuming a
    /// reader paused on a full queue, and flushing.
    fn turn(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        run_turn(&self.state, self.track, s);
        let resume = s.read_paused && s.queue.as_ref().is_some_and(|q| !q.is_full());
        if resume {
            s.read_paused = false;
            let want = Interest {
                read: true,
                ..s.interest
            };
            set_interest(&self.poller, s, want);
            // Re-parse the frame the pause left in the read buffer.
            self.handle_readable(id);
        } else {
            self.flush(id);
        }
    }
}

fn set_interest(poller: &Poller, s: &mut Session, want: Interest) {
    if s.interest != want {
        let _ = poller.modify(fd_of(&s.conn.stream), s.conn.id, want);
        s.interest = want;
    }
}

fn release_channel(state: &ServerState, s: &mut Session) {
    if std::mem::take(&mut s.holds_channel) {
        state.channels_in_use.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------- DSP

/// Runs up to one slice of the session's queued samples — finishing
/// batches, acknowledging each as it completes — and runs the drain
/// epilogue once a closed queue is empty.
fn run_turn(state: &ServerState, track: u32, s: &mut Session) {
    let mut budget = s.slice;
    loop {
        if s.current.is_none() {
            if s.conn.out_pending() > OUT_HWM {
                return;
            }
            let Some(batch) = s.queue.as_mut().and_then(BoundedQueue::pop) else {
                break;
            };
            if let Role::Ingest {
                bank, farm, gen, ..
            } = &mut s.role
            {
                bank.fix_demand(farm, gen);
            }
            if !state.cfg.processing_delay.is_zero() {
                // Fault-injection knob: simulates an overloaded
                // backend so tests can force queue growth
                // deterministically.
                std::thread::sleep(state.cfg.processing_delay);
            }
            let started = Instant::now();
            let started_ns = if batch.trace_id != 0 {
                let now = state.trace.now_ns();
                let waited = saturating_ns(started.duration_since(batch.arrived));
                state.trace.span(
                    session_track(s.conn.id),
                    batch.trace_id,
                    state.trace_names.queue_wait,
                    now.saturating_sub(waited),
                    now,
                );
                now
            } else {
                0
            };
            s.current = Some(InFlight {
                batch,
                done: 0,
                started,
                started_ns,
            });
        }
        let job = s.current.as_mut().expect("a batch is in flight");
        let n = (job.batch.samples.len() - job.done).min(budget);
        let chunk = &job.batch.samples[job.done..job.done + n];
        job.done += n;
        budget -= n;
        let last = job.done == job.batch.samples.len();
        match &mut s.role {
            Role::Chain(ddc) => {
                let trace_id = job.batch.trace_id;
                let before = s.pairs.len();
                let ts0 = (trace_id != 0).then(|| state.trace.now_ns());
                let t0 = Instant::now();
                ddc.process_into_traced(chunk, &mut s.pairs, trace_id, track);
                let busy = saturating_ns(t0.elapsed());
                if let Some(ts0) = ts0 {
                    let names = state.trace_names;
                    state
                        .trace
                        .span(track, trace_id, names.job, ts0, state.trace.now_ns());
                }
                state.jobs_completed.inc();
                if let Some(c) = s.conn.obs.chain.get() {
                    c.jobs.inc();
                    c.samples_in.add(n as u64);
                    c.outputs.add((s.pairs.len() - before) as u64);
                    c.busy_ns.add(busy);
                }
            }
            Role::Ingest {
                bank,
                farm,
                rows,
                gen,
            } => {
                let out = farm.process_block(chunk);
                if last && rows.iter().all(Vec::is_empty) {
                    deliver(bank, job.batch.index, out, *gen);
                } else {
                    for (acc, row) in rows.iter_mut().zip(out) {
                        acc.extend_from_slice(row);
                    }
                    if last {
                        deliver(bank, job.batch.index, rows, *gen);
                        rows.iter_mut().for_each(Vec::clear);
                    }
                }
            }
            Role::Unconfigured | Role::Subscriber { .. } => {
                unreachable!("only chain and ingest sessions queue batches")
            }
        }
        if last {
            let job = s.current.take().expect("a batch is in flight");
            acknowledge(state, s, job);
        }
        if budget == 0 {
            return;
        }
    }
    if s.queue.as_ref().is_some_and(BoundedQueue::is_closed) && !s.finished {
        finish(state, s);
    }
}

/// Fans one batch's channel outputs out to the bank's subscribers. The
/// batch's demand was fixed at generation `gen`: a subscriber that
/// attached later gets nothing for it, not even an empty frame, since
/// its channel may not have been synthesized.
fn deliver(bank: &Bank, index: u64, rows: &[Vec<Iq>], gen: u64) {
    let mut subs = bank.subs.lock().unwrap();
    let mut pruned = false;
    for (ch, list) in subs.iter_mut() {
        let row = bank
            .channels
            .binary_search(ch)
            .expect("subscribers attach to enabled channels");
        list.retain(|s| match s.conn.upgrade() {
            Some(sub) => {
                if s.since > gen {
                    // Its first frame is for the next batch.
                } else if sub.out_pending() > OUT_HWM {
                    // A stalled subscriber loses batches instead of
                    // growing its backlog unboundedly; it sees the loss
                    // as a gap in Iq batch indices.
                    sub.obs.drops_oldest.inc();
                } else {
                    sub.enqueue_iq(index, 0, &rows[row], None, 0);
                    sub.flush_and_post();
                }
                true
            }
            None => {
                pruned = true;
                false
            }
        });
    }
    if pruned {
        bank.demand_gen.fetch_add(1, Ordering::AcqRel);
    }
}

/// Acknowledges a finished batch with its Iq frame and pushes the frame
/// toward the socket. A latency session's end-to-end sample is recorded
/// before the write, so a client that scrapes right after its last ack
/// sees every sample.
fn acknowledge(state: &ServerState, s: &mut Session, job: InFlight) {
    let InFlight {
        batch,
        started,
        started_ns,
        ..
    } = job;
    let dropped = s.queue.as_ref().map_or(0, BoundedQueue::dropped);
    let names = state.trace_names;
    let strack = session_track(s.conn.id);
    if matches!(s.role, Role::Ingest { .. }) {
        // The ingest's own ack: an empty Iq frame keeps the
        // one-ack-per-batch contract (and drop accounting) on the
        // ingest connection.
        s.conn
            .enqueue_iq(batch.index, dropped, &[], None, batch.trace_id);
    } else {
        let timing = s.budget_us.map(|_| IqTiming {
            queue_wait_ns: saturating_ns(started.duration_since(batch.arrived)),
            service_ns: saturating_ns(started.elapsed()),
        });
        if batch.trace_id != 0 {
            let now = state.trace.now_ns();
            state
                .trace
                .span(strack, batch.trace_id, names.service, started_ns, now);
        }
        s.conn
            .enqueue_iq(batch.index, dropped, &s.pairs, timing, batch.trace_id);
        s.pairs.clear();
        if let Some(budget_us) = s.budget_us {
            let e2e = batch.arrived.elapsed();
            s.conn.obs.e2e_ns.record(saturating_ns(e2e));
            if e2e.as_micros() > u128::from(budget_us) {
                s.conn.obs.deadline_misses.inc();
            }
        }
        if batch.trace_id != 0 {
            // The ack is encoded and about to be written: the
            // server-side end of the loop.
            state.trace.instant(strack, batch.trace_id, names.egress);
        }
    }
    let _ = s.conn.flush();
    s.scratch.recycle(batch.samples);
}

/// The drain epilogue, run exactly once per configured session after
/// its queue drains closed: the bank's teardown, the graceful Stats +
/// Shutdown exchange, the channel's release and close-after-flush.
fn finish(state: &ServerState, s: &mut Session) {
    s.finished = true;
    if let Role::Ingest { bank, .. } = &s.role {
        // The bank dies with its ingest: unpublish it, then end every
        // subscriber gracefully — each gets a Shutdown after its last
        // flushed Iq frame.
        state.unpublish(bank);
        let mut subs = bank.subs.lock().unwrap();
        for list in subs.values_mut() {
            for entry in list.drain(..) {
                if let Some(sub) = entry.conn.upgrade() {
                    sub.enqueue(&Frame::Shutdown);
                    sub.set_close_after_flush();
                    sub.flush_and_post();
                }
            }
        }
    }
    if s.graceful {
        // Client-initiated shutdown: a final snapshot then the closing
        // Shutdown frame, so the client can read end-of-stream stats
        // without racing the connection teardown.
        s.conn.enqueue(&Frame::StatsReport(stats(state, s)));
        s.conn.enqueue(&Frame::Shutdown);
    }
    release_channel(state, s);
    s.conn.set_close_after_flush();
}

/// Point-in-time statistics of one session. Chain sessions report
/// their channel's flow counters under their channel number (the
/// session id); an ingest reports its bank's; a subscriber reports the
/// bank channel it is attached to.
fn stats(state: &ServerState, s: &Session) -> StatsReport {
    let q = s.queue.as_ref();
    let base = StatsReport {
        channel: 0,
        batches_accepted: s.batches_accepted,
        batches_dropped: q.map_or(0, BoundedQueue::dropped),
        samples_in: 0,
        outputs: 0,
        queue_len: q.map_or(0, BoundedQueue::len) as u32,
        queue_hwm: q.map_or(0, BoundedQueue::high_water_mark) as u32,
        busy_ns: 0,
        farm_jobs_completed: state.jobs_completed.get(),
    };
    match &s.role {
        Role::Chain(_) => {
            let c = s.conn.obs.chain.get();
            StatsReport {
                channel: s.conn.id as u32,
                samples_in: c.map_or(0, |c| c.samples_in.get()),
                outputs: c.map_or(0, |c| c.outputs.get()),
                busy_ns: c.map_or(0, |c| c.busy_ns.get()),
                ..base
            }
        }
        Role::Ingest { bank, .. } => {
            let (samples_in, outputs) = bank
                .metrics
                .as_ref()
                .map_or((0, 0), |m| (m.samples_in.get(), m.samples_out.get()));
            StatsReport {
                samples_in,
                outputs,
                ..base
            }
        }
        Role::Subscriber { channel, .. } => StatsReport {
            channel: *channel as u32,
            ..base
        },
        Role::Unconfigured => base,
    }
}

// ---------------------------------------------------------- read pump

enum ParseStep {
    /// Not enough buffered bytes for the next header/payload.
    NeedMore,
    /// Block-policy pause: leave the pending frame un-consumed.
    Pause,
    /// The input side is over (error texts already queued).
    End(EndKind),
}

/// Reads and parses until the socket would block, the per-event budget
/// is spent, the session pauses, or the input side ends.
fn pump_read(state: &ServerState, s: &mut Session) -> ReadOutcome {
    if s.reader.state == SessionState::Draining {
        return ReadOutcome::Continue;
    }
    let mut budget = READ_BUDGET;
    let mut drained = false;
    let outcome = loop {
        match parse_frames(state, s) {
            ParseStep::NeedMore => {}
            ParseStep::Pause => break ReadOutcome::Pause,
            ParseStep::End(kind) => break end_input(s, kind),
        }
        // A short read means the socket buffer is empty: skip the
        // speculative read that would just return WouldBlock — the
        // level-triggered poll re-reports the fd when bytes arrive.
        if drained || budget == 0 {
            break ReadOutcome::Continue;
        }
        let r = &mut s.reader;
        // Make room for the next read without re-zeroing: compact the
        // consumed prefix in place, and only grow (zero-filling the new
        // tail once) when a frame genuinely straddles the whole buffer.
        if r.buf.len() - r.filled < READ_CHUNK {
            compact(r);
            if r.buf.len() - r.filled < READ_CHUNK {
                let need = r.filled + READ_CHUNK;
                r.buf.resize(need, 0);
            }
        }
        let start = r.filled;
        let want = r.buf.len() - start;
        match (&s.conn.stream).read(&mut r.buf[start..]) {
            Ok(0) => break end_input(s, EndKind::Disconnected),
            Ok(n) => {
                r.filled += n;
                budget = budget.saturating_sub(n);
                drained = n < want;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                break ReadOutcome::Continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break end_input(s, EndKind::Disconnected),
        }
    };
    compact(&mut s.reader);
    outcome
}

/// Moves the unconsumed tail of the read buffer to the front. Safe at
/// any point: a validated-but-unconsumed header lives in `r.header`
/// (owned), never as an offset into `buf`.
fn compact(r: &mut Reader) {
    if r.pos > 0 {
        let (pos, filled) = (r.pos, r.filled);
        r.buf.copy_within(pos..filled, 0);
        r.filled -= pos;
        r.pos = 0;
    }
}

/// Transitions the input side into Draining: streaming sessions close
/// their queue, whose remaining batches the shard still runs before the
/// epilogue; sessions without a queue just flush out and close.
fn end_input(s: &mut Session, kind: EndKind) -> ReadOutcome {
    if kind == EndKind::Graceful {
        s.graceful = true;
    }
    s.reader.state = SessionState::Draining;
    // Nothing is read after this, so a block-policy pause must not
    // re-arm read interest once the queue frees room.
    s.read_paused = false;
    match &mut s.queue {
        Some(q) => q.close(),
        None => {
            if kind == EndKind::Graceful && matches!(s.role, Role::Subscriber { .. }) {
                // A subscriber has no queue to drain; answer its
                // graceful Shutdown inline so the client sees a clean
                // end-of-stream.
                s.conn.enqueue(&Frame::Shutdown);
            }
            s.conn.set_close_after_flush();
        }
    }
    ReadOutcome::Drain
}

fn protocol_error(s: &Session, message: String) -> ParseStep {
    s.conn.enqueue(&Frame::Error(ErrorFrame {
        code: error_code::PROTOCOL,
        message,
    }));
    ParseStep::End(EndKind::Errored)
}

/// Consumes as many complete frames from the read buffer as possible,
/// running the protocol state machine on each.
fn parse_frames(state: &ServerState, s: &mut Session) -> ParseStep {
    loop {
        let r = &mut s.reader;
        if r.header.is_none() {
            if r.filled - r.pos < HEADER_LEN {
                return ParseStep::NeedMore;
            }
            let hb: [u8; HEADER_LEN] = r.buf[r.pos..r.pos + HEADER_LEN].try_into().unwrap();
            match decode_header(&hb) {
                Ok(h) => {
                    r.header = Some(h);
                    r.pos += HEADER_LEN;
                }
                Err(e) => {
                    let message = match r.state {
                        SessionState::ExpectHello => format!("bad opening frame: {e}"),
                        SessionState::ExpectConfigure => format!("bad Configure frame: {e}"),
                        _ => format!("unreadable frame: {e}"),
                    };
                    return protocol_error(s, message);
                }
            }
        }
        let h = r.header.unwrap();
        if r.filled - r.pos < h.payload_len as usize {
            return ParseStep::NeedMore;
        }
        let streaming_samples = h.frame_type == 3 && r.state == SessionState::Streaming;

        // Block-policy admission: a full queue stops consumption right
        // here — the un-read bytes back up through TCP flow control to
        // the client. The shard re-parses once a DSP turn frees room.
        // Subscriber sessions have no queue; their Samples frames are
        // rejected below without admission control.
        if streaming_samples
            && r.policy == Backpressure::Block
            && s.queue.as_ref().is_some_and(BoundedQueue::is_full)
        {
            s.read_paused = true;
            return ParseStep::Pause;
        }

        let start = r.pos;
        let end = start + h.payload_len as usize;
        r.pos = end;
        r.header = None;

        // The streaming-Samples hot path: decode borrowed payload bytes
        // straight into a pooled sample buffer — no intermediate Vec.
        if streaming_samples {
            if s.queue.is_none() {
                return protocol_error(s, "subscriber sessions cannot send Samples".into());
            }
            let mut samples = s.scratch.take();
            let t0 = Instant::now();
            let decoded = decode_samples_into(&h, &s.reader.buf[start..end], &mut samples);
            s.conn.obs.decode_ns.record_duration(t0.elapsed());
            let (batch_index, wire_trace) = match decoded {
                Ok(ix) => ix,
                Err(e) => {
                    s.scratch.recycle(samples);
                    return protocol_error(s, format!("unreadable frame: {e}"));
                }
            };
            if h.seq != s.reader.expected_seq {
                s.scratch.recycle(samples);
                let expected = s.reader.expected_seq;
                return protocol_error(
                    s,
                    format!("sequence gap: expected {expected}, got {}", h.seq),
                );
            }
            s.reader.expected_seq = s.reader.expected_seq.wrapping_add(1);
            // Trace context: a client-stamped ID wins; otherwise the
            // Configure-negotiated interval head-samples every Nth
            // accepted batch with a server-allocated ID (top bit set,
            // so the two namespaces never collide).
            let trace_id = if wire_trace != 0 {
                wire_trace
            } else {
                let n = s.trace_interval;
                let count = s.trace_count;
                s.trace_count += 1;
                if n != 0 && count.is_multiple_of(u64::from(n)) {
                    state.trace.alloc_trace_id()
                } else {
                    0
                }
            };
            if trace_id != 0 {
                let names = state.trace_names;
                state
                    .trace
                    .instant(session_track(s.conn.id), trace_id, names.ingest);
            }
            let batch = Batch {
                index: batch_index,
                samples,
                arrived: Instant::now(),
                trace_id,
            };
            let q = s.queue.as_mut().expect("checked above");
            // Block-policy admission above guarantees room.
            let outcome = match s.reader.policy {
                Backpressure::DropOldest => q.push_drop_oldest(batch),
                Backpressure::Block | Backpressure::Disconnect => q.push_or_reject(batch),
            };
            let depth = q.len() as u64;
            match outcome {
                Push::Accepted => {
                    s.batches_accepted += 1;
                    s.conn.obs.queue_depth.record(depth);
                }
                Push::Displaced(old) => {
                    // Eviction already counted by the queue; the
                    // displaced batch was never acknowledged, so the
                    // client sees it as a gap in Iq batch indices.
                    s.batches_accepted += 1;
                    s.conn.obs.drops_oldest.inc();
                    s.conn.obs.queue_depth.record(depth);
                    s.scratch.recycle(old.samples);
                }
                Push::Full(batch) => {
                    s.conn.obs.drops_reject.inc();
                    s.conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::QUEUE_OVERFLOW,
                        message: format!(
                            "queue full at batch {} under disconnect policy",
                            batch.index
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                Push::Closed(_) => return ParseStep::End(EndKind::Disconnected),
            }
            continue;
        }

        // Control frames (and anything pre-Streaming): owned decode —
        // they are small and rare.
        let t0 = Instant::now();
        let decoded = decode_payload(&h, &s.reader.buf[start..end]);
        s.conn.obs.decode_ns.record_duration(t0.elapsed());
        match s.reader.state {
            SessionState::ExpectHello => match decoded {
                Ok(Frame::Hello(_)) if h.seq == 0 => {
                    s.conn.enqueue(&Frame::Hello(Hello {
                        info: state.cfg.banner.clone(),
                    }));
                    s.reader.state = SessionState::ExpectConfigure;
                    s.reader.expected_seq = 1;
                }
                Ok(other) => {
                    return protocol_error(
                        s,
                        format!(
                            "expected Hello with seq 0, got {} with seq {}",
                            frame_name(&other),
                            h.seq
                        ),
                    );
                }
                Err(e) => return protocol_error(s, format!("bad opening frame: {e}")),
            },
            SessionState::ExpectConfigure => match decoded {
                Ok(Frame::Configure(c)) if h.seq == 1 => {
                    if let Err(e) = configure(state, s, &c) {
                        s.conn.enqueue(&Frame::Error(e));
                        return ParseStep::End(EndKind::Errored);
                    }
                    // Configure is acknowledged with the session's
                    // (zeroed) stats so the client learns its channel
                    // binding before streaming.
                    s.conn.enqueue(&Frame::StatsReport(stats(state, s)));
                    s.reader.state = SessionState::Streaming;
                    s.reader.expected_seq = 2;
                }
                Ok(other) => {
                    s.conn.enqueue(&Frame::Error(ErrorFrame {
                        code: error_code::NOT_CONFIGURED,
                        message: format!(
                            "expected Configure with seq 1, got {} with seq {}",
                            frame_name(&other),
                            h.seq
                        ),
                    }));
                    return ParseStep::End(EndKind::Errored);
                }
                Err(e) => return protocol_error(s, format!("bad Configure frame: {e}")),
            },
            SessionState::Streaming => {
                // After a framing error the byte stream cannot be
                // trusted; report and drop the connection.
                let frame = match decoded {
                    Ok(f) => f,
                    Err(e) => return protocol_error(s, format!("unreadable frame: {e}")),
                };
                if h.seq != s.reader.expected_seq {
                    let expected = s.reader.expected_seq;
                    return protocol_error(
                        s,
                        format!("sequence gap: expected {expected}, got {}", h.seq),
                    );
                }
                s.reader.expected_seq = s.reader.expected_seq.wrapping_add(1);
                match frame {
                    Frame::StatsRequest => {
                        s.conn.obs.stats_requests.inc();
                        s.conn.enqueue(&Frame::StatsReport(stats(state, s)));
                    }
                    Frame::MetricsRequest => {
                        s.conn.obs.metrics_requests.inc();
                        let body = state.metrics_snapshot().to_prometheus().into_bytes();
                        s.conn
                            .enqueue(&Frame::MetricsReport(MetricsReport { body }));
                    }
                    Frame::TraceRequest => {
                        // Drain every ring under the single-consumer
                        // guard and render the merged spans as a Chrome
                        // trace-event fragment (pids 1000+track).
                        let mut spans = state.trace_drain.lock().unwrap();
                        spans.clear();
                        let dropped = state.trace.drain(&mut spans);
                        let mut body = String::new();
                        state.trace.render_chrome(&spans, "server", 1000, &mut body);
                        s.conn.enqueue(&Frame::TraceReport(TraceReport {
                            dropped,
                            body: body.into_bytes(),
                        }));
                    }
                    Frame::Shutdown => return ParseStep::End(EndKind::Graceful),
                    other => {
                        return protocol_error(
                            s,
                            format!("unexpected {:?} frame mid-stream", frame_name(&other)),
                        );
                    }
                }
            }
            SessionState::Draining => return ParseStep::NeedMore,
        }
    }
}

/// Applies a Configure: builds the session's DSP (or attaches it to a
/// bank) and its input queue, or says why not.
fn configure(state: &ServerState, s: &mut Session, c: &Configure) -> Result<(), ErrorFrame> {
    let refuse = |code, message: String| Err(ErrorFrame { code, message });
    if state.stop.load(Ordering::Acquire) {
        return refuse(error_code::SHUTTING_DOWN, "server is shutting down".into());
    }
    let queue_cap = match c.queue_cap {
        0 => state.cfg.default_queue_cap,
        n => (n as usize).min(state.cfg.max_queue_cap),
    };
    // Latency QoS is enforced by slicing a chain's batches at the
    // budget's chunk bound. Accepting it on other plans would negotiate
    // a bound nothing enforces, so refuse instead of silently
    // degrading.
    let budget_us = c.qos.budget_us();
    if budget_us.is_some() && !matches!(c.plan, ChainPlan::Preset { .. } | ChainPlan::Spec(_)) {
        return refuse(
            error_code::BAD_CONFIG,
            "latency QoS requires a chain plan (preset or spec); \
             channelizer and subscribe sessions are throughput-only"
                .into(),
        );
    }
    // Server-side trace head-sampling applies to any plan that accepts
    // Samples; harmless on subscriber sessions (they have no input).
    s.trace_interval = c.trace_interval;
    match &c.plan {
        ChainPlan::Preset { .. } | ChainPlan::Spec(_) => {
            let spec = c
                .plan
                .to_spec()
                .expect("preset/spec plans lower to a ChainSpec");
            if let Err(e) = spec.validate() {
                return refuse(
                    error_code::BAD_CONFIG,
                    format!("rejected configuration: {e}"),
                );
            }
            s.slice = THROUGHPUT_SLICE;
            // Latency QoS: the chain's own group delay is a hard floor
            // no runtime can get under, so a budget below it is a
            // config error, not a stream of deadline misses.
            if let Some(budget_us) = budget_us {
                let group_us = spec.latency_budget().total_us();
                if group_us > f64::from(budget_us) {
                    return refuse(
                        error_code::BAD_CONFIG,
                        format!(
                            "chain group delay {group_us:.1} us exceeds \
                             latency budget {budget_us} us"
                        ),
                    );
                }
                s.slice =
                    latency_chunk_samples(spec.input_rate, spec.total_decimation(), budget_us);
                s.budget_us = Some(budget_us);
                s.conn
                    .obs
                    .latency_budget_us
                    .store(u64::from(budget_us), Ordering::Relaxed);
            }
            if !state.claim_channel() {
                return refuse(
                    error_code::SERVER_FULL,
                    format!("all {} channels are in use", state.cfg.max_sessions),
                );
            }
            s.holds_channel = true;
            let metrics = Arc::new(chain_metrics_for(&spec));
            let ddc = FixedDdc::from_spec(spec)
                .with_metrics(MetricsHandle::enabled(Arc::clone(&metrics)))
                .with_tracer(TraceHandle::enabled(Arc::clone(&state.trace)));
            let _ = s.conn.obs.chain.set(ChainObs {
                jobs: Counter::default(),
                samples_in: Counter::default(),
                outputs: Counter::default(),
                busy_ns: Counter::default(),
                metrics,
                kernels: ddc.stage_kernels(),
            });
            s.role = Role::Chain(Box::new(ddc));
            s.queue = Some(BoundedQueue::new(queue_cap));
        }
        // Channelizer ingest: build the bank (it runs on this shard)
        // and publish it by name.
        ChainPlan::Channelizer(cspec) => {
            let farm = match ChannelizerFarm::from_spec(cspec.clone()) {
                Ok(f) => f.with_telemetry(),
                Err(e) => {
                    return refuse(error_code::BAD_CONFIG, format!("rejected channelizer: {e}"))
                }
            };
            let bank = Arc::new(Bank {
                name: cspec.name.clone(),
                channels: farm.enabled_channels().to_vec(),
                metrics: farm.metrics().cloned(),
                subs: Mutex::new(HashMap::new()),
                demand_gen: AtomicU64::new(0),
            });
            {
                let mut banks = state.banks.lock().unwrap();
                if banks.contains_key(&cspec.name) {
                    return refuse(
                        error_code::BAD_CONFIG,
                        format!("channelizer bank \"{}\" is already live", cspec.name),
                    );
                }
                banks.insert(cspec.name.clone(), Arc::clone(&bank));
            }
            s.slice = THROUGHPUT_SLICE;
            s.role = Role::Ingest {
                rows: vec![Vec::new(); bank.channels.len()],
                bank,
                farm: Box::new(farm),
                gen: u64::MAX,
            };
            s.queue = Some(BoundedQueue::new(queue_cap));
        }
        // Subscriber: attach to one enabled channel of a live bank. No
        // input queue — data flows outbound only.
        ChainPlan::Subscribe { name, channel } => {
            let bank = state.banks.lock().unwrap().get(name).cloned();
            let Some(bank) = bank else {
                return refuse(
                    error_code::BAD_CONFIG,
                    format!("no live channelizer bank named \"{name}\""),
                );
            };
            let ch = *channel as usize;
            if !bank.channels.contains(&ch) {
                return refuse(
                    error_code::BAD_CONFIG,
                    format!("channel {channel} is not enabled in bank \"{name}\""),
                );
            }
            bank.subscribe(ch, &s.conn);
            s.role = Role::Subscriber { bank, channel: ch };
        }
    }
    s.reader.policy = c.policy;
    Ok(())
}

// ------------------------------------------------------------- handle

impl ServerHandle {
    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of sessions ever accepted.
    pub fn sessions_started(&self) -> u64 {
        self.state.sessions_started.load(Ordering::Relaxed)
    }

    /// Number of channels no chain session currently holds.
    pub fn free_slots(&self) -> usize {
        self.state.free_channels()
    }

    /// The same telemetry snapshot a [`Frame::MetricsRequest`] gets —
    /// server, bank and live-session metrics in one coherent view.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state.metrics_snapshot()
    }

    /// Graceful shutdown: stop accepting, drain every live session
    /// (accepted batches finish and their Iq frames flush), close the
    /// connections, then stop the shard threads within `timeout`.
    /// Returns `true` if every session closed inside the deadline.
    pub fn shutdown(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.state.stop.store(true, Ordering::Release);
        for (mailbox, _) in &self.shards {
            mailbox.post(Notice::DrainAll);
        }
        let half_deadline = Instant::now() + timeout / 2;
        let mut hard_closed = false;
        let mut all_closed = true;
        {
            let mut active = self.state.active.lock().unwrap();
            while *active > 0 {
                let now = Instant::now();
                if now >= deadline {
                    all_closed = false;
                    break;
                }
                if !hard_closed && now >= half_deadline {
                    // Past the halfway point: sever every socket so
                    // blocked peers fail fast.
                    for (mailbox, _) in &self.shards {
                        mailbox.post(Notice::HardCloseAll);
                    }
                    hard_closed = true;
                }
                let next_edge = if hard_closed { deadline } else { half_deadline };
                let wait = (next_edge - now).min(Duration::from_millis(50));
                let (guard, _) = self
                    .state
                    .active_cv
                    .wait_timeout(active, wait.max(Duration::from_millis(1)))
                    .unwrap();
                active = guard;
            }
        }
        self.stop_threads();
        all_closed
    }

    /// Stops and joins the shard threads (idempotent; shared by the
    /// graceful path and Drop).
    fn stop_threads(&mut self) {
        for (mailbox, thread) in &self.shards {
            if thread.is_some() {
                mailbox.post(Notice::Exit);
            }
        }
        for (_, thread) in &mut self.shards {
            if let Some(t) = thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Hard path (handle dropped without shutdown()): stop
        // accepting, sever every socket, close whatever remains. After
        // shutdown() everything below is a no-op.
        self.state.stop.store(true, Ordering::Release);
        for (mailbox, thread) in &self.shards {
            if thread.is_some() {
                mailbox.post(Notice::HardCloseAll);
            }
        }
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::latency_chunk_samples;

    #[test]
    fn latency_chunk_floor_never_exceeds_cap() {
        // Regression: a total decimation above the 2^22 chunk cap made
        // clamp's min exceed its max and panic mid-parse on the shard
        // thread — one hostile Configure killed every session on the
        // shard. Extreme-but-valid decimations must saturate instead.
        assert_eq!(latency_chunk_samples(1e6, 8_000_000, 100), 1 << 22);
        assert_eq!(latency_chunk_samples(1e6, u32::MAX, 1), 1 << 22);
        // Unaffected ranges keep their prior behaviour: a 500 µs
        // budget at the DRM input rate is a quarter-budget chunk …
        assert_eq!(latency_chunk_samples(64_512_000.0, 168, 500), 8064);
        // … and a budget worth less than one output word floors at
        // the total decimation (one output word per chunk).
        assert_eq!(latency_chunk_samples(1e3, 168, 10), 168);
    }
}

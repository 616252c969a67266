//! One live connection: the socket and outbound queue every thread may
//! write to, plus the shard-local state its shard's readiness loop
//! drives.
//!
//! A `Conn` owns a non-blocking socket and an `Outbound` queue of
//! encoded [`FrameBuf`]s flushed with vectored writes and a
//! partial-write cursor. It is shared (`Arc`) because a channelizer
//! ingest's shard writes its subscribers' frames, whichever shard those
//! subscribers live on. Everything else a session owns sits in its
//! `Session`, which only its shard touches: a `Reader` with
//! partial-frame cursors (frames arrive torn at arbitrary byte
//! boundaries), the bounded input queue, and the session's own DSP — a
//! [`FixedDdc`] or a channelizer bank — which the shard runs to
//! completion in bounded slices.
//!
//! ```text
//! shard ──read──▶ Reader ──zero-copy decode──▶ BoundedQueue<Batch> ──slices──▶ FixedDdc / bank
//!   ◀──vectored flush── Outbound(FrameBuf queue) ◀──Iq encode────────────────────────┘
//! ```
//!
//! Protocol policy (handshake rules, backpressure, error texts) lives
//! in [`crate::server`]; this module only provides the moving parts.

use crate::queue::BoundedQueue;
use crate::sys::{Interest, Waker};
use crate::wire::{Backpressure, Frame, FrameBuf, FrameHeader, IqTiming, HEADER_LEN};
use ddc_core::mixer::Iq;
use ddc_core::{ChannelizerFarm, ChannelizerMetrics, FixedDdc};
use ddc_obs::{ChainMetrics, Counter, LogHistogram, MetricsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Bytes read from the socket per `read` call while pumping a session.
/// Sized so a full DRM-scale Samples frame (tens of KiB) lands in one
/// syscall. The per-connection buffer this implies is allocated zeroed
/// (`alloc_zeroed` → untouched pages stay unmapped), so idle sessions
/// do not commit it.
pub(crate) const READ_CHUNK: usize = 128 * 1024;
/// Per-readiness-event read budget: after this many bytes the shard
/// moves on to the next ready session (level-triggered polling
/// re-reports the fd, so fairness costs nothing).
pub(crate) const READ_BUDGET: usize = 256 * 1024;
/// Outbound high-water mark: above this many un-flushed bytes the
/// shard runs no more of the session's batches until a writable event
/// drains the backlog — bounding per-session egress memory when a
/// client stops reading.
pub(crate) const OUT_HWM: usize = 1 << 20;
/// Most header/payload segments submitted to one `write_vectored` call.
const MAX_WRITE_SLICES: usize = 16;
/// Encoded-frame buffers kept for reuse per session.
const FREE_FRAMES_MAX: usize = 8;
/// Decoded-sample buffers kept for reuse per session.
const SCRATCH_POOL_MAX: usize = 16;

/// Per-session telemetry, written by the session's shard and read by
/// the server's metrics endpoint from any thread. All fields are
/// relaxed atomics updated at frame or slice granularity — the data
/// path never takes a lock for them.
#[derive(Debug, Default)]
pub struct SessionObs {
    /// Frame decode CPU time, ns (header + payload parse, no I/O).
    pub decode_ns: LogHistogram,
    /// Frame encode CPU time, ns (serialisation, no I/O).
    pub encode_ns: LogHistogram,
    /// Input-queue depth observed after each accepted push.
    pub queue_depth: LogHistogram,
    /// Batches evicted under the drop-oldest policy.
    pub drops_oldest: Counter,
    /// Batches refused under the disconnect policy (at most 1: the
    /// refusal ends the session).
    pub drops_reject: Counter,
    /// Stats requests answered.
    pub stats_requests: Counter,
    /// Metrics requests answered.
    pub metrics_requests: Counter,
    /// End-to-end batch latency, ns: Samples frame accepted → its Iq
    /// ack encoded, recorded before the ack is written. Recorded only
    /// for sessions on the latency QoS profile.
    pub e2e_ns: LogHistogram,
    /// Batches whose end-to-end latency exceeded the negotiated budget.
    pub deadline_misses: Counter,
    /// Negotiated latency budget in µs; 0 = throughput profile (the
    /// `ddc_latency_*` metrics family is exported only when non-zero).
    pub latency_budget_us: AtomicU64,
    /// The session's chain telemetry; set at Configure for chain
    /// sessions only.
    pub chain: OnceLock<ChainObs>,
}

/// Telemetry of one chain session's [`FixedDdc`]: the whole-chain and
/// per-stage metrics the chain records into, and the kernel each stage
/// resolved to.
#[derive(Debug)]
pub struct ChainObs {
    /// Chain metrics, shared with the chain. `chain` counts each DSP
    /// job (one bounded slice, one `process_into` call): its samples
    /// in and out and, in its latency histogram's sum, its busy time.
    pub metrics: Arc<ChainMetrics>,
    /// `(stage label, kernel label)` per stage, fixed at construction.
    pub kernels: Vec<(String, &'static str)>,
}

impl ChainObs {
    /// Exports this chain under `channel="ch"`: its lifetime flow
    /// counters, the kernel each stage resolved to, and its whole-chain
    /// and per-stage families.
    pub fn push_metrics(&self, snap: &mut MetricsSnapshot, ch: u64) {
        let lbl = format!("{{channel=\"{ch}\"}}");
        let chain = &self.metrics.chain;
        let latency = chain.latency_ns.snapshot();
        snap.push_counter(
            format!("ddc_channel_batches_total{lbl}"),
            chain.blocks.get(),
        );
        snap.push_counter(
            format!("ddc_channel_samples_in_total{lbl}"),
            chain.samples_in.get(),
        );
        snap.push_counter(
            format!("ddc_channel_outputs_total{lbl}"),
            chain.samples_out.get(),
        );
        snap.push_counter(format!("ddc_channel_busy_ns_total{lbl}"), latency.sum);
        // Which specialised kernel each stage resolved to — a static
        // info gauge (constant 1) in the Prometheus `build_info` idiom.
        // Resolution happened at chain construction; reading the label
        // here costs nothing on the processing path.
        for (stage, kernel) in &self.kernels {
            snap.push_counter(
                format!("ddc_stage_kernel_info{{channel=\"{ch}\",stage=\"{stage}\",kernel=\"{kernel}\"}}"),
                1,
            );
        }
        snap.push_hist(format!("ddc_chain_latency_ns{lbl}"), latency);
        for sm in &self.metrics.stages {
            let slbl = format!("{{channel=\"{ch}\",stage=\"{}\"}}", sm.name);
            snap.push_counter(format!("ddc_stage_blocks_total{slbl}"), sm.blocks.get());
            snap.push_counter(
                format!("ddc_stage_samples_in_total{slbl}"),
                sm.samples_in.get(),
            );
            snap.push_counter(
                format!("ddc_stage_samples_out_total{slbl}"),
                sm.samples_out.get(),
            );
            snap.push_hist(
                format!("ddc_stage_latency_ns{slbl}"),
                sm.latency_ns.snapshot(),
            );
        }
    }
}

/// Where a session is in its protocol lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SessionState {
    /// Waiting for the client Hello (seq 0).
    ExpectHello,
    /// Hello answered; waiting for Configure (seq 1).
    ExpectConfigure,
    /// Configured; Samples flow.
    Streaming,
    /// Input side done (EOF/Shutdown/error): no more reads; accepted
    /// batches run to completion, then the outbound flushes.
    Draining,
}

/// Why a session's input side ended; decides the teardown epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EndKind {
    /// Client sent Shutdown — final Stats + Shutdown after the drain.
    Graceful,
    /// Connection closed (EOF) without a Shutdown frame.
    Disconnected,
    /// Protocol violation or queue overflow; an Error frame was
    /// already queued.
    Errored,
}

/// Cross-thread messages into a shard's readiness loop. Posting wakes
/// the shard's poller, so a notice is acted on promptly even when no
/// socket is ready.
pub(crate) enum Notice {
    /// A freshly accepted connection to register and start reading.
    Accept(Arc<Conn>),
    /// Another shard queued output it could not write at once (a bank
    /// delivering to this shard's subscriber): arm write interest.
    WriteReady(u64),
    /// Another shard flushed the session's last byte after asking it
    /// to close (a bank's teardown of its subscribers): deregister.
    Deregister(u64),
    /// Server-initiated graceful shutdown: stop accepting and treat
    /// every session as if its client had half-closed (drain accepted
    /// batches, flush, close).
    DrainAll,
    /// Past the shutdown half-deadline: sever every socket so blocked
    /// peers fail fast.
    HardCloseAll,
    /// Close whatever remains and exit the shard thread.
    Exit,
}

/// A shard's mailbox: the shard only locks it when woken, and wakes
/// coalesce through the poller's pipe waker.
pub(crate) struct ShardMailbox {
    notices: Mutex<Vec<Notice>>,
    waker: Waker,
}

impl ShardMailbox {
    /// A mailbox wired to a shard poller's waker.
    pub(crate) fn new(waker: Waker) -> Arc<Self> {
        Arc::new(ShardMailbox {
            notices: Mutex::new(Vec::new()),
            waker,
        })
    }

    /// Posts a notice and wakes the shard.
    pub(crate) fn post(&self, n: Notice) {
        self.notices.lock().unwrap().push(n);
        self.waker.wake();
    }

    /// Moves all pending notices into `into` (cleared first).
    pub(crate) fn drain_into(&self, into: &mut Vec<Notice>) {
        into.clear();
        let mut g = self.notices.lock().unwrap();
        std::mem::swap(&mut *g, into);
    }
}

/// The shared face of one live channelizer bank, registered in the
/// server's bank registry under the spec's `name` for its ingest's
/// lifetime. The bank itself ([`ChannelizerFarm`]) belongs to the
/// ingest session and runs on the ingest's shard; the bank dies (and
/// its subscribers are shut down) when the ingest session ends.
pub(crate) struct Bank {
    /// Registry key — the [`ddc_core::ChannelizerSpec`] name.
    pub name: String,
    /// Enabled channel indices in farm-row order, so Subscribe
    /// validation needs nothing from the ingest's shard.
    pub channels: Vec<usize>,
    /// Telemetry handle cloned out of the farm, so stats and the
    /// metrics endpoint read counters from any thread.
    pub metrics: Option<Arc<ChannelizerMetrics>>,
    /// channel index → subscribers. Weak: teardown of a subscriber
    /// needs no cooperation from the bank — dead entries are pruned
    /// lazily at each delivery and at bank teardown.
    pub subs: Mutex<HashMap<usize, Vec<Sub>>>,
    /// The demand generation. It moves, with `subs` locked, on every
    /// subscribe, unsubscribe and pruned dead subscriber. The ingest
    /// loads it once at each batch start and recomputes its demand only
    /// when it has moved, so the demand is fixed for the whole batch.
    pub demand_gen: AtomicU64,
}

/// One subscriber of a bank channel.
pub(crate) struct Sub {
    pub conn: Weak<Conn>,
    /// The demand generation its attach moved the bank to: it gets the
    /// batches whose demand was fixed at this generation or later.
    pub since: u64,
}

impl Bank {
    /// Attaches a subscriber to one enabled channel. Its first Iq frame
    /// is for the next batch the ingest begins.
    pub(crate) fn subscribe(&self, channel: usize, conn: &Arc<Conn>) {
        let mut subs = self.subs.lock().unwrap();
        let since = self.demand_gen.fetch_add(1, Ordering::AcqRel) + 1;
        subs.entry(channel).or_default().push(Sub {
            conn: Arc::downgrade(conn),
            since,
        });
    }

    /// Detaches session `id` from `channel`, and prunes the channel's
    /// dead subscribers.
    pub(crate) fn unsubscribe(&self, channel: usize, id: u64) {
        let mut subs = self.subs.lock().unwrap();
        if let Some(list) = subs.get_mut(&channel) {
            list.retain(|s| s.conn.upgrade().is_some_and(|c| c.id != id));
        }
        self.demand_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Fixes the ingest's demand for the batch it begins. `gen` is the
    /// generation its demand was last fixed at; when the bank's has
    /// moved since, `farm` demands exactly the channels with a live
    /// subscriber and `gen` takes the new generation. A subscriber whose
    /// `since` is at most `gen` then has its channel synthesized: its
    /// attach moved the generation under the `subs` lock before the
    /// ingest loaded it, so the lock taken after that load sees it.
    pub(crate) fn fix_demand(&self, farm: &mut ChannelizerFarm, gen: &mut u64) {
        let now = self.demand_gen.load(Ordering::Acquire);
        if now == *gen {
            return;
        }
        let subs = self.subs.lock().unwrap();
        farm.set_demand(|k| {
            subs.get(&k)
                .is_some_and(|list| list.iter().any(|s| s.conn.strong_count() > 0))
        });
        *gen = now;
    }
}

/// What a session does, fixed at Configure time.
pub(crate) enum Role {
    /// Not configured yet.
    Unconfigured,
    /// A chain session: the session's own bit-true DDC.
    Chain(Box<FixedDdc>),
    /// Streams the wideband input that drives a bank. Its own Samples
    /// batches are acknowledged with empty Iq frames; channel outputs
    /// travel on the subscriber connections.
    Ingest {
        /// The registered face of the bank.
        bank: Arc<Bank>,
        /// The bank, run by this session's shard.
        farm: Box<ChannelizerFarm>,
        /// Per-row outputs of a batch that spans several slices.
        rows: Vec<Vec<Iq>>,
        /// The demand generation `farm`'s demand was fixed at, at the
        /// start of the batch in flight (`u64::MAX` before the first).
        gen: u64,
    },
    /// Receives one channel's Iq stream; sends no Samples and owns no
    /// input queue.
    Subscriber {
        /// The bank this session is attached to.
        bank: Arc<Bank>,
        /// Enabled channel index within the bank.
        channel: usize,
    },
}

/// One accepted Samples batch queued for the session's DSP.
pub(crate) struct Batch {
    /// Sender-assigned batch number (echoed on the Iq ack).
    pub index: u64,
    /// Decoded ADC samples, written straight from the wire payload into
    /// a buffer from the session's scratch pool.
    pub samples: Vec<i32>,
    /// When the decoded batch was accepted into the input queue — the
    /// zero point for queue-wait and end-to-end latency accounting.
    pub arrived: Instant,
    /// Span-trace ID riding this batch (client-stamped, or
    /// server-allocated under the Configure `trace_interval` tag);
    /// 0 = unsampled. Echoed on the Iq ack.
    pub trace_id: u64,
}

/// The batch a session's DSP is part-way through.
pub(crate) struct InFlight {
    pub batch: Batch,
    /// Samples of `batch` already processed.
    pub done: usize,
    /// When its first slice started (end of its queue wait).
    pub started: Instant,
    /// The same moment on the trace clock (0 for unsampled batches).
    pub started_ns: u64,
}

/// The ingest half of a connection: unparsed bytes, partial-frame
/// cursors and the protocol position.
pub(crate) struct Reader {
    /// Protocol lifecycle position.
    pub state: SessionState,
    /// Socket read buffer. Kept at full length with a `filled`
    /// watermark (rather than `len` tracking the data) so refills
    /// never re-zero the spare region — the zeroing cost is paid once
    /// per growth, not once per `read`.
    pub buf: Vec<u8>,
    /// Bytes of `buf` holding unconsumed wire data.
    pub filled: usize,
    /// Parse offset into `buf[..filled]` (compacted between pump calls).
    pub pos: usize,
    /// A validated header whose payload has not fully arrived (or, for
    /// a block-policy pause, has not yet been admitted).
    pub header: Option<FrameHeader>,
    /// Next client sequence number the stream must carry.
    pub expected_seq: u32,
    /// Backpressure policy chosen at Configure time.
    pub policy: Backpressure,
}

/// Everything one session owns that only its shard touches.
pub(crate) struct Session {
    /// The shared half: socket, outbound queue, telemetry.
    pub conn: Arc<Conn>,
    /// When the shard took the connection on, right after its accept:
    /// the start of its handshake deadline.
    pub accepted: Instant,
    /// Poller interest currently registered for the socket.
    pub interest: Interest,
    /// Ingest state machine.
    pub reader: Reader,
    /// What the session does.
    pub role: Role,
    /// Input queue, created at Configure for chain and ingest sessions.
    pub queue: Option<BoundedQueue<Batch>>,
    /// The batch the DSP is part-way through.
    pub current: Option<InFlight>,
    /// Most samples one DSP turn covers: the latency-QoS chunk, or the
    /// throughput slice.
    pub slice: usize,
    /// Negotiated latency budget, µs (latency-QoS sessions only).
    pub budget_us: Option<u32>,
    /// Server-side trace head-sampling interval (0 = off).
    pub trace_interval: u32,
    /// Accepted-batch counter driving server-side head sampling.
    pub trace_count: u64,
    /// Batches accepted into the queue (≥ batches processed).
    pub batches_accepted: u64,
    /// Client asked for a graceful Shutdown: the drain epilogue sends
    /// a final Stats + Shutdown exchange.
    pub graceful: bool,
    /// Block-policy pause: parsing stopped at a full queue; the shard
    /// re-arms reading once a turn frees room.
    pub read_paused: bool,
    /// The session counts against `max_sessions` until released.
    pub holds_channel: bool,
    /// The drain epilogue has run.
    pub finished: bool,
    /// Output words of the batch in flight, reused across batches.
    pub pairs: Vec<Iq>,
    /// Sample buffers for the zero-copy decode path.
    pub scratch: ScratchPool,
}

impl Session {
    /// A fresh, unconfigured session around an accepted connection.
    pub(crate) fn new(conn: Arc<Conn>) -> Session {
        Session {
            conn,
            accepted: Instant::now(),
            interest: Interest::READ,
            reader: Reader {
                state: SessionState::ExpectHello,
                buf: vec![0; READ_CHUNK],
                filled: 0,
                pos: 0,
                header: None,
                expected_seq: 0,
                policy: Backpressure::Block,
            },
            role: Role::Unconfigured,
            queue: None,
            current: None,
            slice: 0,
            budget_us: None,
            trace_interval: 0,
            trace_count: 0,
            batches_accepted: 0,
            graceful: false,
            read_paused: false,
            holds_channel: false,
            finished: false,
            pairs: Vec::new(),
            scratch: ScratchPool::default(),
        }
    }

    /// Whether the session is still short of Streaming: no Hello, or
    /// no Configure, yet.
    pub(crate) fn in_handshake(&self) -> bool {
        matches!(
            self.reader.state,
            SessionState::ExpectHello | SessionState::ExpectConfigure
        )
    }

    /// Whether a DSP turn has anything to do: a batch in flight or
    /// queued, or a drained queue whose epilogue has not run — unless
    /// the outbound backlog is over [`OUT_HWM`].
    pub(crate) fn has_work(&self) -> bool {
        let pending = self.current.is_some()
            || self
                .queue
                .as_ref()
                .is_some_and(|q| !q.is_empty() || (q.is_closed() && !self.finished));
        pending && self.conn.out_pending() <= OUT_HWM
    }
}

/// Decoded-sample buffers a session reuses across batches.
#[derive(Default)]
pub(crate) struct ScratchPool(Vec<Vec<i32>>);

impl ScratchPool {
    /// An empty buffer, recycled when one is available.
    pub(crate) fn take(&mut self) -> Vec<i32> {
        let mut v = self.0.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a buffer to the pool.
    pub(crate) fn recycle(&mut self, v: Vec<i32>) {
        if self.0.len() < SCRATCH_POOL_MAX {
            self.0.push(v);
        }
    }
}

/// Flush progress of a session's outbound queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushState {
    /// Everything queued has been written.
    Idle,
    /// The socket refused bytes (`WouldBlock`): arm write interest and
    /// retry on the next writability event.
    Pending,
    /// Everything is out (or the peer is gone) and the session asked
    /// to close after its last byte: tear the connection down.
    Done,
}

/// The egress half: encoded frames awaiting the socket, with a
/// partial-write cursor into the front frame. Frames are encoded
/// directly into recycled [`FrameBuf`]s, so the steady state neither
/// allocates nor concatenates — `write_vectored` takes the header and
/// payload segments as they are.
struct Outbound {
    frames: VecDeque<FrameBuf>,
    /// Bytes of the front frame already written.
    cursor: usize,
    /// Next server→client sequence number.
    seq: u32,
    /// Total un-flushed bytes across all queued frames.
    pending_bytes: usize,
    /// Recycled encode buffers.
    free: Vec<FrameBuf>,
    /// The write side failed: swallow writes, let the read side (or
    /// the drain epilogue) finish the teardown.
    dead: bool,
    /// Tear the connection down once the queue flushes dry.
    close_after_flush: bool,
}

/// The shared half of one live connection: the socket and its outbound
/// queue. Its shard reads and writes it; a channelizer ingest's shard
/// also writes to its subscribers' connections, so the outbound queue
/// sits behind a lock.
pub(crate) struct Conn {
    /// Session id (also the poller registration token).
    pub id: u64,
    /// The non-blocking socket. Reads and writes go through `&TcpStream`.
    pub stream: TcpStream,
    /// The owning shard's mailbox.
    pub mailbox: Arc<ShardMailbox>,
    /// Session telemetry (also in the server's metrics registry).
    pub obs: Arc<SessionObs>,
    out: Mutex<Outbound>,
}

impl Conn {
    /// Wraps an accepted, already non-blocking socket.
    pub(crate) fn new(
        id: u64,
        stream: TcpStream,
        mailbox: Arc<ShardMailbox>,
        obs: Arc<SessionObs>,
    ) -> Arc<Conn> {
        Arc::new(Conn {
            id,
            stream,
            mailbox,
            obs,
            out: Mutex::new(Outbound {
                frames: VecDeque::new(),
                cursor: 0,
                seq: 0,
                pending_bytes: 0,
                free: Vec::new(),
                dead: false,
                close_after_flush: false,
            }),
        })
    }

    /// Queues one frame (generic encode — control frames are tiny).
    pub(crate) fn enqueue(&self, frame: &Frame) {
        self.push(|fb, seq| fb.encode(frame, seq));
    }

    /// Queues one Iq frame, encoded from the borrowed pairs (the egress
    /// hot path).
    pub(crate) fn enqueue_iq(
        &self,
        batch_index: u64,
        dropped_total: u64,
        pairs: &[Iq],
        timing: Option<IqTiming>,
        trace_id: u64,
    ) {
        self.push(|fb, seq| fb.encode_iq(seq, batch_index, dropped_total, pairs, timing, trace_id));
    }

    /// Encodes one frame into a recycled buffer and queues it. Sequence
    /// numbers stay gapless because allocation and queueing happen under
    /// the same lock.
    fn push(&self, encode: impl FnOnce(&mut FrameBuf, u32)) {
        let mut o = self.out.lock().unwrap();
        if o.dead {
            return;
        }
        let mut fb = o.free.pop().unwrap_or_default();
        let seq = o.seq;
        o.seq = o.seq.wrapping_add(1);
        let t0 = Instant::now();
        encode(&mut fb, seq);
        self.obs.encode_ns.record_duration(t0.elapsed());
        o.pending_bytes += fb.total_len();
        o.frames.push_back(fb);
    }

    /// Un-flushed outbound bytes.
    pub(crate) fn out_pending(&self) -> usize {
        self.out.lock().unwrap().pending_bytes
    }

    /// Marks the session to close once the outbound queue flushes dry.
    pub(crate) fn set_close_after_flush(&self) {
        self.out.lock().unwrap().close_after_flush = true;
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// submitting up to [`MAX_WRITE_SLICES`] header/payload segments
    /// per `write_vectored` call and keeping a byte cursor into the
    /// front frame for partial writes.
    pub(crate) fn flush(&self) -> FlushState {
        let mut o = self.out.lock().unwrap();
        loop {
            if o.dead || o.frames.is_empty() {
                break;
            }
            let r = {
                let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
                let mut n = 0;
                for (k, f) in o.frames.iter().enumerate() {
                    if n + 2 > MAX_WRITE_SLICES {
                        break;
                    }
                    let skip = if k == 0 { o.cursor } else { 0 };
                    let (head, body) = if skip < HEADER_LEN {
                        (&f.header[skip..], &f.payload[..])
                    } else {
                        (&[][..], &f.payload[skip - HEADER_LEN..])
                    };
                    for seg in [head, body] {
                        if !seg.is_empty() {
                            slices[n] = IoSlice::new(seg);
                            n += 1;
                        }
                    }
                }
                (&self.stream).write_vectored(&slices[..n])
            };
            match r {
                Ok(0) => {
                    o.dead = true;
                    o.frames.clear();
                    o.pending_bytes = 0;
                }
                Ok(mut n) => {
                    o.pending_bytes -= n.min(o.pending_bytes);
                    while n > 0 {
                        let rem = o.frames[0].total_len() - o.cursor;
                        if n >= rem {
                            n -= rem;
                            o.cursor = 0;
                            let f = o.frames.pop_front().unwrap();
                            if o.free.len() < FREE_FRAMES_MAX {
                                o.free.push(f);
                            }
                        } else {
                            o.cursor += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushState::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Peer gone mid-write: swallow remaining output and
                    // let the read side / drain epilogue finish up.
                    o.dead = true;
                    o.frames.clear();
                    o.pending_bytes = 0;
                }
            }
        }
        if o.close_after_flush {
            FlushState::Done
        } else {
            FlushState::Idle
        }
    }

    /// Flush from another shard (a bank delivering to a subscriber):
    /// performs the writes here and posts the follow-up the owning
    /// shard must act on — write-interest arming or deregistration.
    pub(crate) fn flush_and_post(&self) {
        match self.flush() {
            FlushState::Done => self.mailbox.post(Notice::Deregister(self.id)),
            FlushState::Pending => self.mailbox.post(Notice::WriteReady(self.id)),
            FlushState::Idle => {}
        }
    }
}

pub(crate) fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello(_) => "Hello",
        Frame::Configure(_) => "Configure",
        Frame::Samples(_) => "Samples",
        Frame::Iq(_) => "Iq",
        Frame::StatsRequest => "StatsRequest",
        Frame::StatsReport(_) => "StatsReport",
        Frame::Error(_) => "Error",
        Frame::Shutdown => "Shutdown",
        Frame::MetricsRequest => "MetricsRequest",
        Frame::MetricsReport(_) => "MetricsReport",
        Frame::TraceRequest => "TraceRequest",
        Frame::TraceReport(_) => "TraceReport",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_header, decode_payload, ErrorFrame, HEADER_LEN};
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn read_frames(stream: &mut TcpStream, expect: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        while frames.len() < expect {
            let mut hdr = [0u8; HEADER_LEN];
            stream.read_exact(&mut hdr).unwrap();
            let h = decode_header(&hdr).unwrap();
            let mut payload = vec![0u8; h.payload_len as usize];
            stream.read_exact(&mut payload).unwrap();
            frames.push(decode_payload(&h, &payload).unwrap());
        }
        frames
    }

    #[test]
    fn outbound_queue_flushes_multiple_frames_in_order_with_gapless_seqs() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(7, server, mailbox, Arc::new(SessionObs::default()));
        for k in 0..5u16 {
            conn.enqueue(&Frame::Error(ErrorFrame {
                code: k,
                message: format!("frame {k}"),
            }));
        }
        // Drive the flush to completion (loopback may need >1 round).
        for _ in 0..100 {
            if conn.flush() == FlushState::Idle && conn.out_pending() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(conn.out_pending(), 0);
        let frames = read_frames(&mut client, 5);
        for (k, f) in frames.iter().enumerate() {
            match f {
                Frame::Error(e) => {
                    assert_eq!(e.code, k as u16);
                    assert_eq!(e.message, format!("frame {k}"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn partial_writes_resume_mid_frame_without_reordering() {
        // More Iq output than a loopback socket buffer holds: flushes
        // stop part-way through a frame and must resume at the cursor.
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(3, server, mailbox, Arc::new(SessionObs::default()));
        let pairs: Vec<Iq> = (0..40_000).map(|k| Iq { i: k, q: -k }).collect();
        for b in 0..8u64 {
            conn.enqueue_iq(b, 0, &pairs, None, 0);
        }
        let reader = std::thread::spawn(move || read_frames(&mut client, 8));
        while conn.out_pending() > 0 {
            if conn.flush() == FlushState::Pending {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        for (b, f) in reader.join().unwrap().iter().enumerate() {
            match f {
                Frame::Iq(iq) => {
                    assert_eq!(iq.batch_index, b as u64);
                    assert_eq!(iq.pairs.len(), pairs.len());
                    assert_eq!(iq.pairs[39_999], (39_999, -39_999));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn close_after_flush_reports_done_only_when_drained() {
        let (_client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = crate::sys::Poller::new().unwrap();
        let mailbox = ShardMailbox::new(poller.waker());
        let conn = Conn::new(1, server, mailbox, Arc::new(SessionObs::default()));
        conn.enqueue(&Frame::Shutdown);
        conn.set_close_after_flush();
        // A tiny frame flushes immediately on a fresh socket.
        let mut done = false;
        for _ in 0..100 {
            match conn.flush() {
                FlushState::Done => {
                    done = true;
                    break;
                }
                FlushState::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
                FlushState::Idle => unreachable!("close_after_flush never reports Idle when set"),
            }
        }
        assert!(done);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let mut pool = ScratchPool::default();
        let mut v = pool.take();
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        pool.recycle(v);
        let v2 = pool.take();
        assert!(v2.is_empty(), "recycled scratch is cleared");
        assert_eq!(v2.capacity(), cap, "recycled scratch keeps its allocation");
    }

    /// A chain session's export carries its flow counters, per-stage
    /// counters under the spec's stage labels, and the kernel each
    /// stage resolved to.
    #[test]
    fn chain_obs_exports_flow_stage_and_kernel_families() {
        use ddc_core::{chain_metrics_for, ChainSpec, DdcConfig};
        use ddc_obs::MetricsHandle;

        let spec: ChainSpec = DdcConfig::drm(10e6).into();
        let metrics = Arc::new(chain_metrics_for(&spec));
        let mut ddc =
            FixedDdc::from_spec(spec).with_metrics(MetricsHandle::enabled(Arc::clone(&metrics)));
        let obs = ChainObs {
            metrics,
            kernels: ddc.stage_kernels(),
        };
        let block: Vec<i32> = (0..2688 * 2).map(|k| (k * 37) % 4095 - 2047).collect();
        let mut out = Vec::new();
        for _ in 0..3 {
            ddc.process_into(&block, &mut out);
        }
        let mut snap = MetricsSnapshot::new();
        obs.push_metrics(&mut snap, 7);
        assert_eq!(
            snap.counter("ddc_channel_batches_total{channel=\"7\"}"),
            Some(3)
        );
        assert_eq!(
            snap.counter("ddc_channel_samples_in_total{channel=\"7\"}"),
            Some(3 * block.len() as u64)
        );
        assert_eq!(
            snap.counter("ddc_channel_outputs_total{channel=\"7\"}"),
            Some(out.len() as u64)
        );
        assert!(snap.counter("ddc_channel_busy_ns_total{channel=\"7\"}") > Some(0));
        assert_eq!(
            snap.counter("ddc_stage_samples_in_total{channel=\"7\",stage=\"cic2r16\"}"),
            Some(3 * block.len() as u64)
        );
        let lat = snap
            .histogram("ddc_stage_latency_ns{channel=\"7\",stage=\"fir125r8\"}")
            .expect("stage latency exported");
        assert_eq!(lat.count, 3);
        // The DRM FIR never runs the generic fallback.
        let (name, v) = snap
            .counters
            .iter()
            .find(|(n, _)| n.starts_with("ddc_stage_kernel_info{channel=\"7\",stage=\"fir125r8\""))
            .expect("FIR kernel info exported");
        assert_eq!(*v, 1);
        assert!(!name.contains("kernel=\"generic\""), "{name}");
    }
}

//! The workloads and the live run: session set-up against a child
//! server, the timed window driven from this process, OS counters taken
//! at the window's edges, and bit-exact verification afterwards.

use crate::procfs::{self, TaskSnapshot};
use crate::serverproc::ServerProc;
use ddc_core::mixer::Iq;
use ddc_core::spec::DRM_INPUT_RATE;
use ddc_core::{ChainSpec, ChannelizerFarm, ChannelizerSpec, FixedDdc};
use ddc_obs::TraceSink;
use ddc_server::client::Client;
use ddc_server::wire::{
    Backpressure, ConfigPreset, Frame, IqPayload, IqTiming, QosProfile, StatsReport,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// Closed-loop bulk batch: 8 DRM output words.
pub const BULK_BATCH: usize = 21504;
/// Paced batch: 4 DRM output words.
pub const PACED_BATCH: usize = 10752;
/// Paced input rate, a quarter of the paper's 64.512 MS/s ADC rate
/// (one 10752-sample batch every 666.7 µs).
pub const PACED_RATE: f64 = 16.128e6;
/// Latency budget the paced session negotiates.
pub const PACED_BUDGET_US: u32 = 1000;
/// Channelizer ingest batch.
pub const CHANNELIZER_BATCH: usize = 8192;
/// Channels of the polyphase bank.
pub const CHANNELS: u32 = 64;
/// Distinct batches in a session's stimulus, replayed cyclically.
const STIMULUS_BATCHES: usize = 32;
/// Live batches between two traced ones.
pub const TRACE_EVERY: u64 = 8;
/// How long after the window's end a session may still be waiting for
/// its last ack before the run is cut off.
const CUT_OFF_GRACE: Duration = Duration::from_secs(3);
/// How long the server may take to exit after `quit`.
pub const STOP_BOUND: Duration = Duration::from_secs(3);
/// Length of the time slices the window is cut into. The timing figures
/// are taken per slice (see [`crate::stats::undisturbed`]).
pub const SLICE: Duration = Duration::from_millis(250);

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One paced Latency session.
    PacedDrm,
    /// One bulk and one paced session on one server.
    MixedQos,
    /// One channelizer ingest session and one subscriber.
    ChannelizerN64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PacedDrm,
        Workload::MixedQos,
        Workload::ChannelizerN64,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PacedDrm => "paced_drm",
            Workload::MixedQos => "mixed_qos",
            Workload::ChannelizerN64 => "channelizer_n64",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The sessions that send samples, one load-generator thread each.
    pub fn sessions(self) -> Vec<SessionPlan> {
        let bulk = |k| SessionPlan {
            kind: Kind::Bulk,
            tune: session_tune(k),
            batch: BULK_BATCH,
        };
        let paced = |k| SessionPlan {
            kind: Kind::Paced,
            tune: session_tune(k),
            batch: PACED_BATCH,
        };
        match self {
            Workload::PacedDrm => vec![paced(0)],
            Workload::MixedQos => vec![bulk(0), paced(1)],
            Workload::ChannelizerN64 => vec![SessionPlan {
                kind: Kind::Ingest,
                tune: 0.0,
                batch: CHANNELIZER_BATCH,
            }],
        }
    }

    /// Whether session `k`'s batches are the ones the latency metrics
    /// report: the paced session where there is one, else every session.
    pub fn reports(self, k: usize) -> bool {
        match self {
            Workload::MixedQos => k == 1,
            _ => true,
        }
    }
}

/// How a session sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, Throughput QoS, DRM chain.
    Bulk,
    /// Open-loop schedule at [`PACED_RATE`], Latency QoS, one batch in
    /// flight.
    Paced,
    /// Closed loop into the channelizer bank.
    Ingest,
}

/// One sending session.
#[derive(Clone, Copy, Debug)]
pub struct SessionPlan {
    /// How it sends.
    pub kind: Kind,
    /// NCO tuning, Hz (chain sessions).
    pub tune: f64,
    /// Samples per batch.
    pub batch: usize,
}

/// Session `k`'s tuning frequency.
fn session_tune(k: usize) -> f64 {
    5.0e6 + k as f64 * 2.5e6
}

/// The seeded tone every stimulus carries: 7.5 MHz plus a 1 kHz step
/// per seed, across about 1 MHz.
pub fn tone_hz(seed: u64) -> f64 {
    7.5e6 + (seed % 997) as f64 * 1_000.0
}

/// The channelizer channel the subscriber reads: the one the tone
/// falls in.
pub fn subscribed_channel(seed: u64) -> u32 {
    let spacing = DRM_INPUT_RATE / CHANNELS as f64;
    (tone_hz(seed) / spacing).round() as u32 % CHANNELS
}

/// The 64-channel bank the channelizer workload opens.
pub fn channelizer_spec() -> ChannelizerSpec {
    ChannelizerSpec::uniform(CHANNELS, DRM_INPUT_RATE)
}

/// The chain a DRM session runs, as the server expands the preset.
pub fn chain_spec(tune: f64) -> ChainSpec {
    ConfigPreset::Drm.to_spec(tune)
}

/// A session's seeded input: [`STIMULUS_BATCHES`] distinct batches of
/// tone plus white noise, quantized like the ADC, sent cyclically.
pub struct Stimulus {
    samples: Vec<i32>,
    batch: usize,
}

impl Stimulus {
    /// Session `session`'s stimulus for workload seed `seed`.
    pub fn new(seed: u64, session: usize, batch: usize) -> Stimulus {
        use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
        let bits = chain_spec(0.0).format.data_bits;
        let noise_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ session as u64;
        let mut src = Mix(
            Tone::new(tone_hz(seed), DRM_INPUT_RATE, 0.5, 0.2),
            WhiteNoise::new(noise_seed, 0.15),
        );
        Stimulus {
            samples: adc_quantize(&src.take_vec(batch * STIMULUS_BATCHES), bits),
            batch,
        }
    }

    /// Batch `b`'s samples.
    pub fn batch(&self, b: u64) -> &[i32] {
        let k = (b % STIMULUS_BATCHES as u64) as usize;
        &self.samples[k * self.batch..(k + 1) * self.batch]
    }
}

/// A configured server with every session connected.
pub struct Setup {
    /// The server.
    pub server: ServerProc,
    /// One client per [`Workload::sessions`] entry.
    pub clients: Vec<Client>,
    /// The channelizer subscriber, if the workload has one.
    pub subscriber: Option<Client>,
    /// Spawn to last session configured, seconds.
    pub secs: f64,
}

/// How long set-up may take before the server is killed (a server
/// wedged in the handshake would otherwise block a client read forever).
const SETUP_BOUND: Duration = Duration::from_secs(10);

/// Spawns the server and configures every session of `w`.
pub fn setup(bin: &Path, w: Workload, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut server = ServerProc::spawn(bin)?;
    let addr = server.addr.clone();
    let done = AtomicUsize::new(0);
    let configured = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let r = connect_sessions(&addr, w, seed).map(|c| (c, t0.elapsed().as_secs_f64()));
            done.store(1, SeqCst);
            r
        });
        if !wait_count(&done, 1, t0 + SETUP_BOUND) {
            server.kill();
        }
        handle.join().expect("set-up thread panicked")
    });
    let ((clients, subscriber), secs) = configured?;
    Ok(Setup {
        server,
        clients,
        subscriber,
        secs,
    })
}

/// Connects and configures `w`'s sessions, then any subscriber.
fn connect_sessions(
    addr: &str,
    w: Workload,
    seed: u64,
) -> Result<(Vec<Client>, Option<Client>), String> {
    let connect =
        |info: String| Client::connect(addr, &info).map_err(|e| format!("{info}: connect: {e}"));
    let mut clients = Vec::new();
    for (k, plan) in w.sessions().iter().enumerate() {
        let mut c = connect(format!("servebench-{k}"))?;
        let configured = match plan.kind {
            Kind::Bulk => c.configure(ConfigPreset::Drm, plan.tune, Backpressure::Block, 0),
            Kind::Paced => {
                c.set_qos(QosProfile::Latency {
                    budget_us: PACED_BUDGET_US,
                });
                c.configure(ConfigPreset::Drm, plan.tune, Backpressure::Block, 0)
            }
            Kind::Ingest => c.configure_channelizer(&channelizer_spec(), Backpressure::Block, 0),
        };
        configured.map_err(|e| format!("session {k}: configure: {e}"))?;
        clients.push(c);
    }
    let subscriber = if w == Workload::ChannelizerN64 {
        let mut c = connect("servebench-sub".into())?;
        c.subscribe(
            &channelizer_spec().name,
            subscribed_channel(seed),
            Backpressure::Block,
            0,
        )
        .map_err(|e| format!("subscribe: {e}"))?;
        Some(c)
    } else {
        None
    };
    Ok((clients, subscriber))
}

/// What one session saw.
#[derive(Debug, Default)]
pub struct SessionRec {
    /// Batches sent or attempted.
    pub attempted: u64,
    /// Batches acknowledged (not yet verified).
    pub acked: u64,
    /// Per acked batch: send (paced: scheduled send) to its output
    /// (the ack; on the channelizer, the subscriber's frame), ns.
    pub latency_ns: Vec<u64>,
    /// Per acked batch: when its output arrived, ns since the trace
    /// origin.
    pub done_ns: Vec<u64>,
    /// Paced only: how late each send ran behind its schedule, ns.
    pub lag_ns: Vec<u64>,
    /// Output words of every acked batch, in order (on the channelizer,
    /// the subscribed channel's).
    pub outputs: Vec<(i64, i64)>,
    /// Output words per acked batch.
    pub counts: Vec<u32>,
    /// Server timing trailers (Latency QoS acks).
    pub timing: Vec<IqTiming>,
    /// When the last ack arrived.
    pub last_ack: Option<Instant>,
    /// The server's final statistics for the session.
    pub final_stats: Option<StatsReport>,
    /// CPU ns this session's thread ran during its window.
    pub cpu_ns: u64,
    /// Why the session stopped early.
    pub error: Option<String>,
}

/// Span-name indices the live sessions record under.
#[derive(Clone, Copy)]
pub struct LiveNames {
    batch: u16,
    send: u16,
    recv_wait: u16,
}

impl LiveNames {
    /// Interns the names in `sink`.
    pub fn register(sink: &TraceSink) -> LiveNames {
        LiveNames {
            batch: sink.register_name("batch"),
            send: sink.register_name("client.send"),
            recv_wait: sink.register_name("client.recv_wait"),
        }
    }
}

/// Where a traced run records.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    /// The sink.
    pub sink: &'a TraceSink,
    /// Interned names.
    pub names: LiveNames,
}

/// The trace id of session `k`'s batch `b`.
pub fn trace_id(k: usize, b: u64) -> u64 {
    ((k as u64 + 1) << 40) | (b + 1)
}

/// Nanoseconds from `origin` to `t`.
pub fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Sleeps until shortly before `t`, then spins, so a paced send leaves
/// on time rather than a timer slack late.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Receives the Iq frame answering batch `b`.
fn recv_iq(client: &mut Client, b: u64, what: &str) -> Result<IqPayload, String> {
    match client.recv() {
        Ok(Frame::Iq(iq)) if iq.batch_index == b => Ok(iq),
        Ok(Frame::Iq(iq)) => Err(format!(
            "{what}: batch {} while {b} was due",
            iq.batch_index
        )),
        Ok(Frame::Error(e)) => Err(format!(
            "{what}: batch {b}: server error {}: {}",
            e.code, e.message
        )),
        Ok(_) => Err(format!("{what}: batch {b}: unexpected frame")),
        Err(e) => Err(format!("{what}: batch {b}: recv: {e}")),
    }
}

/// Sends batch `b` and waits for its output, plus the ingest's own ack
/// on the channelizer; records the batch on success.
#[allow(clippy::too_many_arguments)]
fn exchange(
    k: usize,
    b: u64,
    due: Instant,
    client: &mut Client,
    subscriber: Option<&mut Client>,
    stim: &Stimulus,
    origin: Instant,
    tracer: Option<Tracer>,
    rec: &mut SessionRec,
) -> Result<(), String> {
    rec.attempted += 1;
    let t_send = Instant::now();
    client
        .send_samples(b, stim.batch(b))
        .map_err(|e| format!("batch {b}: send: {e}"))?;
    let t_sent = Instant::now();
    // The subscriber's frame is read before the ingest's ack, so its
    // arrival time is not held up behind the ack.
    let (iq, t_out) = match subscriber {
        Some(sub) => {
            let iq = recv_iq(sub, b, "subscriber")?;
            let t_out = Instant::now();
            recv_iq(client, b, "ingest")?;
            (iq, t_out)
        }
        None => {
            let iq = recv_iq(client, b, "ack")?;
            (iq, Instant::now())
        }
    };
    let t_done = Instant::now();
    rec.acked += 1;
    rec.latency_ns.push(ns_since(due, t_out));
    rec.done_ns.push(ns_since(origin, t_out));
    rec.counts.push(iq.pairs.len() as u32);
    rec.outputs.extend_from_slice(&iq.pairs);
    rec.timing.extend(iq.timing);
    rec.last_ack = Some(t_done);
    if let Some(t) = tracer.filter(|_| b.is_multiple_of(TRACE_EVERY)) {
        let (id, track, n) = (trace_id(k, b), k as u32, t.names);
        let at = |i| ns_since(origin, i);
        t.sink.span(track, id, n.batch, at(due), at(t_done));
        t.sink.span(track, id, n.send, at(t_send), at(t_sent));
        t.sink.span(track, id, n.recv_wait, at(t_sent), at(t_done));
    }
    Ok(())
}

/// Reads frames until the server's Shutdown (or the connection ends),
/// keeping the last statistics report.
fn drain(client: &mut Client) -> Option<StatsReport> {
    let mut stats = None;
    loop {
        match client.recv() {
            Ok(Frame::StatsReport(r)) => stats = Some(r),
            Ok(Frame::Shutdown) | Err(_) => return stats,
            Ok(_) => {}
        }
    }
}

/// Drives one session for the window, then ends it gracefully once
/// `proceed` is set.
#[allow(clippy::too_many_arguments)]
fn run_session(
    k: usize,
    plan: SessionPlan,
    mut client: Client,
    stim: &Stimulus,
    origin: Instant,
    deadline: Instant,
    tracer: Option<Tracer>,
    mut subscriber: Option<Client>,
    sync: &Handoff,
) -> SessionRec {
    let mut rec = SessionRec::default();
    let period = Duration::from_secs_f64(plan.batch as f64 / PACED_RATE);
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    let mut b = 0u64;
    loop {
        let due = match plan.kind {
            Kind::Paced => t0 + period.mul_f64(b as f64),
            Kind::Bulk | Kind::Ingest => Instant::now(),
        };
        if due >= deadline {
            break;
        }
        if plan.kind == Kind::Paced {
            wait_until(due);
            rec.lag_ns.push(ns_since(due, Instant::now()));
        }
        let sub = subscriber.as_mut();
        if let Err(e) = exchange(k, b, due, &mut client, sub, stim, origin, tracer, &mut rec) {
            rec.error = Some(e);
            break;
        }
        b += 1;
    }
    rec.cpu_ns = procfs::thread_cpu_ns().saturating_sub(cpu0);
    sync.windows_done.fetch_add(1, SeqCst);
    while !sync.proceed.load(SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    if rec.error.is_none() && client.send(&Frame::Shutdown).is_ok() {
        rec.final_stats = drain(&mut client);
        // The ingest's teardown closes the bank, which ends the
        // subscriber's stream with a Shutdown of its own.
        if let Some(sub) = subscriber.as_mut() {
            drain(sub);
        }
    }
    sync.finished.fetch_add(1, SeqCst);
    rec
}

/// Hand-offs between the session threads and the watchdog.
#[derive(Default)]
struct Handoff {
    windows_done: AtomicUsize,
    finished: AtomicUsize,
    proceed: AtomicBool,
}

/// Polls until `counter` reaches `target` or `until` passes.
fn wait_count(counter: &AtomicUsize, target: usize, until: Instant) -> bool {
    loop {
        if counter.load(SeqCst) >= target {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Everything one live run measured.
pub struct Live {
    /// Per session, in [`Workload::sessions`] order.
    pub sessions: Vec<SessionRec>,
    /// Window start to the last ack, seconds.
    pub window_s: f64,
    /// `(ns since the trace origin, server CPU ns so far)` at every
    /// [`SLICE`] edge of the window, the window's start first.
    pub edges: Vec<(u64, u64)>,
    /// Server peak RSS at the window's end, MB.
    pub server_rss_mb: f64,
    /// Server threads at the window's start and end.
    pub tasks: (TaskSnapshot, TaskSnapshot),
    /// Load-generator CPU of the sending threads over their windows,
    /// seconds.
    pub client_cpu_s: f64,
    /// A session was cut off and the server killed.
    pub cut_off: bool,
    /// The server had to be killed after `quit`.
    pub shutdown_timeout: bool,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window.
    pub steal_frac: f64,
}

/// Runs the timed window on a configured server and stops the server.
pub fn run(
    setup: Setup,
    w: Workload,
    stims: &[Stimulus],
    seconds: f64,
    origin: Instant,
    tracer: Option<Tracer>,
) -> Live {
    let Setup {
        mut server,
        clients,
        mut subscriber,
        ..
    } = setup;
    let plans = w.sessions();
    let n = plans.len();
    let pid = server.pid.clone();
    let sync = Handoff::default();

    let tasks0 = procfs::read_tasks(&pid);
    let host0 = procfs::host_cpu();
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs_f64(seconds);

    let (sessions, edges, tasks1, host1, rss_kb, cut_off) = std::thread::scope(|s| {
        let sync = &sync;
        let handles: Vec<_> = clients
            .into_iter()
            .zip(plans)
            .zip(stims)
            .enumerate()
            .map(|(k, ((c, plan), stim))| {
                let sub = subscriber.take().filter(|_| plan.kind == Kind::Ingest);
                std::thread::Builder::new()
                    .name(format!("sb-session-{k}"))
                    .spawn_scoped(s, move || {
                        run_session(k, plan, c, stim, origin, deadline, tracer, sub, sync)
                    })
                    .expect("cannot spawn session thread")
            })
            .collect();

        let mut edges = vec![(ns_since(origin, t_start), tasks0.cpu_ns())];
        let mut edge = t_start + SLICE;
        while edge <= deadline && sync.windows_done.load(SeqCst) < n {
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            let cpu_ns = procfs::read_tasks(&pid).cpu_ns();
            edges.push((ns_since(origin, Instant::now()), cpu_ns));
            edge += SLICE;
        }
        let on_time = wait_count(&sync.windows_done, n, deadline + CUT_OFF_GRACE);
        let tasks1 = procfs::read_tasks(&pid);
        let host1 = procfs::host_cpu();
        let rss_kb = procfs::process_status(&pid, "VmHWM").unwrap_or(0);
        if !on_time {
            server.kill();
        }
        sync.proceed.store(true, SeqCst);
        // Graceful teardown gets its own bound; a server wedged in it
        // is killed so every blocked read returns.
        let mut cut_off = !on_time;
        if !wait_count(&sync.finished, n, Instant::now() + CUT_OFF_GRACE) {
            server.kill();
            cut_off = true;
        }
        let sessions: Vec<SessionRec> = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        (sessions, edges, tasks1, host1, rss_kb, cut_off)
    });
    let shutdown_timeout = server.stop(STOP_BOUND);
    let last_ack = sessions.iter().filter_map(|r| r.last_ack).max();
    let client_cpu_ns: u64 = sessions.iter().map(|r| r.cpu_ns).sum();
    let window_s = last_ack
        .map_or(seconds, |t| {
            t.saturating_duration_since(t_start).as_secs_f64()
        })
        .max(1e-9);
    Live {
        sessions,
        window_s,
        edges,
        server_rss_mb: rss_kb as f64 / 1024.0,
        tasks: (tasks0, tasks1),
        client_cpu_s: client_cpu_ns as f64 / 1e9,
        cut_off,
        shutdown_timeout,
        steal_frac: match (host0, host1) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        },
    }
}

/// The verdict on one live run's outputs.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Per session: acked batches whose outputs matched the replica.
    pub good: Vec<u64>,
    /// Acked batches whose outputs did not match.
    pub mismatched: u64,
    /// Per session: latency of the verified batches, ns.
    pub latency_ns: Vec<Vec<u64>>,
    /// Per session: when each verified batch's output arrived, ns since
    /// the trace origin.
    pub done_ns: Vec<Vec<u64>>,
}

/// One session's verdict: batches that matched and that did not, and
/// the latency and arrival time of each one that matched.
#[derive(Default)]
struct SessionVerdict {
    good: u64,
    bad: u64,
    latency_ns: Vec<u64>,
    done_ns: Vec<u64>,
}

/// Recomputes every acked batch on a local replica and compares.
pub fn verify(w: Workload, seed: u64, stims: &[Stimulus], live: &Live) -> Result<Verdict, String> {
    let plans = w.sessions();
    let per_session: Vec<Result<SessionVerdict, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .zip(stims)
            .zip(&live.sessions)
            .map(|((plan, stim), rec)| {
                s.spawn(move || match plan.kind {
                    Kind::Ingest => verify_channelizer(seed, stim, rec),
                    Kind::Bulk | Kind::Paced => Ok(verify_chain(plan, stim, rec)),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    let mut v = Verdict::default();
    for r in per_session {
        let r = r?;
        v.good.push(r.good);
        v.mismatched += r.bad;
        v.latency_ns.push(r.latency_ns);
        v.done_ns.push(r.done_ns);
    }
    Ok(v)
}

/// Compares every acked batch's outputs with the replica's, which
/// `expected(b, want)` appends for batch `b`.
fn check(rec: &SessionRec, mut expected: impl FnMut(u64, &mut Vec<Iq>)) -> SessionVerdict {
    let mut want = Vec::new();
    let mut v = SessionVerdict::default();
    let mut off = 0usize;
    for b in 0..rec.acked {
        want.clear();
        expected(b, &mut want);
        let n = rec.counts[b as usize] as usize;
        let got = &rec.outputs[off..off + n];
        off += n;
        let same =
            got.len() == want.len() && got.iter().zip(&want).all(|(g, e)| g.0 == e.i && g.1 == e.q);
        if same {
            v.good += 1;
            v.latency_ns.push(rec.latency_ns[b as usize]);
            v.done_ns.push(rec.done_ns[b as usize]);
        } else {
            v.bad += 1;
        }
    }
    v
}

/// Checks a chain session against a `FixedDdc` replica.
fn verify_chain(plan: &SessionPlan, stim: &Stimulus, rec: &SessionRec) -> SessionVerdict {
    let mut ddc = FixedDdc::from_spec(chain_spec(plan.tune));
    check(rec, |b, want| ddc.process_into(stim.batch(b), want))
}

/// Checks the subscriber's frames against a replica bank's channel.
fn verify_channelizer(
    seed: u64,
    stim: &Stimulus,
    rec: &SessionRec,
) -> Result<SessionVerdict, String> {
    let mut farm = ChannelizerFarm::from_spec(channelizer_spec())
        .map_err(|e| format!("replica bank: {e:?}"))?;
    let row = farm
        .enabled_channels()
        .iter()
        .position(|&c| c == subscribed_channel(seed) as usize)
        .ok_or("subscribed channel is not enabled")?;
    // A batch's outputs depend on the batch and on the bank's state,
    // which the previous batch alone sets while the batch length is a
    // multiple of the commutator advance. The stimulus repeats every
    // STIMULUS_BATCHES batches, so once the second and third cycles give
    // the same outputs every later cycle repeats them. A bank where they
    // differ is replayed batch by batch to the end.
    let cycle = STIMULUS_BATCHES as u64;
    let mut cycles: Vec<Vec<Iq>> = Vec::with_capacity(2 * STIMULUS_BATCHES);
    let mut periodic = false;
    Ok(check(rec, |b, want| {
        if periodic {
            want.extend_from_slice(&cycles[(cycle + b % cycle) as usize]);
            return;
        }
        want.extend_from_slice(&farm.process_block(stim.batch(b))[row]);
        if (cycle..3 * cycle).contains(&b) {
            cycles.push(want.clone());
            periodic =
                b == 3 * cycle - 1 && cycles[..STIMULUS_BATCHES] == cycles[STIMULUS_BATCHES..];
        }
    }))
}

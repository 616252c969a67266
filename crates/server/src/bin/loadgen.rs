//! Load generator for the streaming DDC service.
//!
//! Drives N concurrent sessions against a server (an external one via
//! `--addr`, or an in-process one on an ephemeral port via
//! `--self-serve`), paces each session at a target input sample rate,
//! and prints a machine-readable JSON report: per-session throughput,
//! backlog high-water mark, drop counts and protocol errors.
//!
//! ```text
//! cargo run --release -p ddc-server --bin loadgen -- \
//!     --self-serve --sessions 4 --batches 32 --verify
//! ```
//!
//! With `--verify` every session also recomputes the expected I/Q
//! locally with `FixedDdc` over exactly the batches the server
//! accepted (dropped batches are identified by the gaps in
//! acknowledged batch indices) and fails unless the streamed output is
//! bit-exact. Exit status is non-zero on any protocol error or failed
//! verification.

use ddc_core::chain::FixedDdc;
use ddc_core::params::FixedFormat;
use ddc_core::spec::{ChainSpec, StageSpec, DRM_INPUT_RATE};
use ddc_obs::{HistSnapshot, LogHistogram, SpanEvent, TraceSink};
use ddc_server::client::{Client, ClientError};
use ddc_server::wire::{error_code, Backpressure, ConfigPreset, Frame, QosProfile, StatsReport};
use ddc_server::{serve, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Opts {
    addr: Option<String>,
    self_serve: bool,
    sessions: usize,
    batches: u64,
    batch_samples: usize,
    rate_msps: f64,
    policy: Backpressure,
    queue_cap: u32,
    qos: QosProfile,
    preset: ConfigPreset,
    custom_plan: bool,
    verify: bool,
    delay_ms: u64,
    metrics_interval_ms: u64,
    metrics_out: Option<String>,
    /// Assemble client + server span traces into this Chrome
    /// trace-event JSON file after the run.
    trace_out: Option<String>,
    /// Stamp every Nth batch of each session with a trace id.
    trace_sample: u32,
    /// N > 0: channelizer-farm mode — one wideband ingest session
    /// drives an N-channel polyphase bank and one subscriber session
    /// per channel receives its output (replaces the chain sessions).
    channelizer: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--addr HOST:PORT | --self-serve) [--sessions N] [--batches B]\n\
         \t[--batch-samples S] [--rate-msps R] [--policy block|drop-oldest|disconnect]\n\
         \t[--queue-cap C] [--qos throughput|latency:<N>us|latency:<N>ms]\n\
         \t[--preset drm|drm-montium|wideband|wideband-compensated]\n\
         \t[--custom-plan] [--channelizer N] [--verify] [--delay-ms D]\n\
         \t[--metrics-interval MS] [--metrics-out FILE]\n\
         \t[--trace-out FILE] [--trace-sample N]\n\
         defaults: --sessions 4 --batches 32 --batch-samples 10752 --rate-msps 0 (unthrottled)\n\
         \t--policy block --queue-cap 0 (server default) --preset drm --qos throughput\n\
         --qos latency:500us negotiates a per-batch latency budget; the server then\n\
         \truns its batches in quarter-budget slices and stamps each Iq ack with the\n\
         \tqueue-wait/service split reported under queue_wait_ns / service_ns\n\
         --custom-plan ignores --preset and configures sessions with a four-stage\n\
         \tnon-preset ChainSpec sent binary-encoded over the wire\n\
         --channelizer N replaces the chain sessions with one wideband ingest driving\n\
         \tan N-channel polyphase bank plus one subscriber session per channel;\n\
         \t--verify then checks every channel bit-exact against a local replica\n\
         --delay-ms injects per-batch processing delay (self-serve only, for drop testing)\n\
         --metrics-interval scrapes the server's live telemetry every MS milliseconds\n\
         --metrics-out writes the last scraped Prometheus snapshot to FILE\n\
         --trace-out stamps every Nth batch (N from --trace-sample, default 64) with a\n\
         \tspan-trace id, scrapes the server's flight recorder after the run, and\n\
         \twrites the spliced client+server spans as Chrome trace-event JSON to FILE\n\
         \t(load it in chrome://tracing or ui.perfetto.dev)"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        addr: None,
        self_serve: false,
        sessions: 4,
        batches: 32,
        batch_samples: 10752,
        rate_msps: 0.0,
        policy: Backpressure::Block,
        queue_cap: 0,
        qos: QosProfile::Throughput,
        preset: ConfigPreset::Drm,
        custom_plan: false,
        verify: false,
        delay_ms: 0,
        metrics_interval_ms: 0,
        metrics_out: None,
        trace_out: None,
        trace_sample: 64,
        channelizer: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < args.len() {
        let need = |k: usize| args.get(k + 1).cloned().unwrap_or_else(|| usage());
        match args[k].as_str() {
            "--addr" => {
                o.addr = Some(need(k));
                k += 2;
            }
            "--self-serve" => {
                o.self_serve = true;
                k += 1;
            }
            "--sessions" => {
                o.sessions = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--batches" => {
                o.batches = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--batch-samples" => {
                o.batch_samples = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--rate-msps" => {
                o.rate_msps = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--policy" => {
                o.policy = match need(k).as_str() {
                    "block" => Backpressure::Block,
                    "drop-oldest" => Backpressure::DropOldest,
                    "disconnect" => Backpressure::Disconnect,
                    _ => usage(),
                };
                k += 2;
            }
            "--queue-cap" => {
                o.queue_cap = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--qos" => {
                o.qos = QosProfile::parse(&need(k)).unwrap_or_else(|| usage());
                k += 2;
            }
            "--preset" => {
                o.preset = ConfigPreset::parse(&need(k)).unwrap_or_else(|| usage());
                k += 2;
            }
            "--custom-plan" => {
                o.custom_plan = true;
                k += 1;
            }
            "--channelizer" => {
                o.channelizer = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--verify" => {
                o.verify = true;
                k += 1;
            }
            "--delay-ms" => {
                o.delay_ms = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--metrics-interval" => {
                o.metrics_interval_ms = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--metrics-out" => {
                o.metrics_out = Some(need(k));
                k += 2;
            }
            "--trace-out" => {
                o.trace_out = Some(need(k));
                k += 2;
            }
            "--trace-sample" => {
                o.trace_sample = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            _ => usage(),
        }
    }
    if o.addr.is_none() && !o.self_serve {
        usage();
    }
    if o.sessions == 0 || o.batches == 0 || o.batch_samples == 0 || o.trace_sample == 0 {
        usage();
    }
    o
}

/// Everything one session thread reports back.
struct SessionOutcome {
    session: usize,
    tune_hz: f64,
    batches_sent: u64,
    batches_acked: u64,
    dropped_reported: u64,
    samples_sent: u64,
    outputs: u64,
    elapsed_s: f64,
    queue_hwm: u32,
    busy_ns: u64,
    protocol_errors: u64,
    remote_errors: Vec<String>,
    bit_exact: Option<bool>,
    failure: Option<String>,
    /// End-to-end batch latency (send → Iq ack), ns. This figure
    /// conflates time spent waiting in the server's input queue with
    /// time spent actually processing; the two server-stamped
    /// histograms below split it.
    latency: HistSnapshot,
    /// Server-reported enqueue wait (batch accepted → its first DSP
    /// slice), ns. Populated only under `--qos latency:...` — the
    /// server stamps the split onto each Iq ack.
    queue_wait: HistSnapshot,
    /// Server-reported service time (first DSP slice → ack encoded), ns.
    service: HistSnapshot,
    /// Telemetry snapshots scraped mid-stream.
    metrics_scrapes: u64,
    /// Body of the last scraped Prometheus snapshot.
    last_metrics: Option<Vec<u8>>,
    /// Iq acks that echoed a non-zero trace id (`--trace-out` runs).
    traced_acked: u64,
}

/// Per-session tuning frequency: a 2.5 MHz comb from 5 MHz, wrapped
/// so arbitrarily many sessions stay below the DRM input Nyquist
/// (32.256 MHz) — at high session counts the comb repeats, which is
/// fine: sessions at the same tune still verify independently.
fn session_tune(k: usize) -> f64 {
    5.0e6 + (k % 11) as f64 * 2.5e6
}

/// Stack size for session sender/receiver threads. The session loops
/// are shallow (no recursion, no big locals), and at 500+ sessions the
/// default 8 MiB stacks would reserve gigabytes of address space.
const SESSION_STACK: usize = 256 * 1024;

/// Connects with retry: at high session counts hundreds of SYNs race
/// one accept loop, and the listen backlog can refuse some — a refused
/// connect is congestion, not failure, so back off and try again.
fn connect_with_retry(addr: &str, info: &str) -> Result<Client, ClientError> {
    let mut last = None;
    for attempt in 0..50u32 {
        match Client::connect(addr, info) {
            Ok(c) => return Ok(c),
            Err(ClientError::Io(e)) => {
                last = Some(ClientError::Io(e));
                std::thread::sleep(Duration::from_millis(5 + 5 * attempt.min(20) as u64));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| ClientError::Protocol("connect retries exhausted".into())))
}

/// The `--custom-plan` chain: four stages totalling ÷672
/// (CIC2÷8 → CIC3÷6 with D=2 comb delay → CIC4÷7 → 64-tap FIR÷2).
/// No preset byte names this shape, so it has to travel as an
/// encoded [`ChainSpec`] inside the Configure frame — exactly the
/// path this flag exists to exercise end to end.
fn custom_plan(tune_freq: f64) -> ChainSpec {
    use ddc_dsp::firdes;
    use ddc_dsp::window::{kaiser_beta, Window};
    let taps = firdes::lowpass(64, 0.2, Window::Kaiser(kaiser_beta(60.0)));
    let spec = ChainSpec {
        name: "loadgen-custom-672".to_string(),
        input_rate: DRM_INPUT_RATE,
        tune_freq,
        stages: vec![
            StageSpec::Cic {
                order: 2,
                decim: 8,
                diff_delay: 1,
            },
            StageSpec::Cic {
                order: 3,
                decim: 6,
                diff_delay: 2,
            },
            StageSpec::Cic {
                order: 4,
                decim: 7,
                diff_delay: 1,
            },
            StageSpec::Fir { taps, decim: 2 },
        ],
        format: FixedFormat::FPGA12,
        budget: None,
    };
    spec.validate().expect("custom plan must be valid");
    assert!(
        spec.to_config().is_none(),
        "custom plan must not collapse to a preset-shaped config"
    );
    spec
}

/// The chain a session will run: the custom four-stage plan, or the
/// preset expanded to its canonical spec. `--verify` recomputes from
/// this same spec, so both paths are checked against one source.
fn plan_spec(opts: &Opts, tune_freq: f64) -> ChainSpec {
    if opts.custom_plan {
        custom_plan(tune_freq)
    } else {
        opts.preset.to_spec(tune_freq)
    }
}

/// Trace id stamped on batch `b` of session `k`: unique across the
/// run, never zero, top bit clear (set ids are server-allocated — see
/// [`ddc_obs::SERVER_TRACE_BIT`]).
fn client_trace_id(k: usize, b: u64) -> u64 {
    ((k as u64 + 1) << 40) | (b + 1)
}

fn run_session(
    addr: String,
    k: usize,
    opts: &Opts,
    stimulus: Arc<Vec<i32>>,
    tracer: Option<Arc<TraceSink>>,
) -> SessionOutcome {
    let tune = session_tune(k);
    let mut out = SessionOutcome {
        session: k,
        tune_hz: tune,
        batches_sent: 0,
        batches_acked: 0,
        dropped_reported: 0,
        samples_sent: 0,
        outputs: 0,
        elapsed_s: 0.0,
        queue_hwm: 0,
        busy_ns: 0,
        protocol_errors: 0,
        remote_errors: Vec::new(),
        bit_exact: None,
        failure: None,
        latency: HistSnapshot::empty(),
        queue_wait: HistSnapshot::empty(),
        service: HistSnapshot::empty(),
        metrics_scrapes: 0,
        last_metrics: None,
        traced_acked: 0,
    };
    let mut client = match connect_with_retry(addr.as_str(), &format!("loadgen-{k}")) {
        Ok(c) => c,
        Err(e) => {
            out.failure = Some(format!("connect: {e}"));
            return out;
        }
    };
    client.set_qos(opts.qos);
    let configured = if opts.custom_plan {
        client.configure_spec(&custom_plan(tune), opts.policy, opts.queue_cap)
    } else {
        client.configure(opts.preset, tune, opts.policy, opts.queue_cap)
    };
    if let Err(e) = configured {
        out.failure = Some(format!("configure: {e}"));
        return out;
    }
    let scrape_metrics = opts.metrics_interval_ms > 0 || opts.metrics_out.is_some();
    let (mut tx, mut rx) = client.split();

    let batches = opts.batches;
    let batch_samples = opts.batch_samples;
    // Per-batch send timestamps (ns since `t0`), written by the sender
    // and read by the receiver at ack time; 0 = not sent yet. Feeds the
    // same log2 histogram the server uses for its own latencies.
    let t0 = Instant::now();
    let sent_at_ns: Arc<Vec<AtomicU64>> = {
        let mut v = Vec::with_capacity(batches as usize);
        v.resize_with(batches as usize, || AtomicU64::new(0));
        Arc::new(v)
    };
    let latency_hist = Arc::new(LogHistogram::new());
    let queue_wait_hist = Arc::new(LogHistogram::new());
    let service_hist = Arc::new(LogHistogram::new());
    // Per-batch trace-send timestamps on the client sink's clock, so
    // the receiver can close a client_rtt span around the round trip
    // (0 = batch was not stamped).
    let trace_sent_ns: Arc<Vec<AtomicU64>> = {
        let mut v = Vec::with_capacity(batches as usize);
        v.resize_with(batches as usize, || AtomicU64::new(0));
        Arc::new(v)
    };
    let trace_names = tracer.as_ref().map(|t| {
        (
            t.register_name("client_send"),
            t.register_name("client_rtt"),
        )
    });

    let receiver = {
        let sent_at_ns = Arc::clone(&sent_at_ns);
        let latency_hist = Arc::clone(&latency_hist);
        let queue_wait_hist = Arc::clone(&queue_wait_hist);
        let service_hist = Arc::clone(&service_hist);
        let tracer = tracer.clone();
        let trace_sent_ns = Arc::clone(&trace_sent_ns);
        let builder = std::thread::Builder::new()
            .name(format!("lg-rx-{k}"))
            .stack_size(SESSION_STACK);
        builder
            .spawn(move || {
                let mut acked: BTreeMap<u64, Vec<(i64, i64)>> = BTreeMap::new();
                let mut final_stats: Option<StatsReport> = None;
                let mut protocol_errors = 0u64;
                let mut remote_errors = Vec::new();
                let mut metrics_scrapes = 0u64;
                let mut last_metrics: Option<Vec<u8>> = None;
                let mut traced_acked = 0u64;
                loop {
                    match rx.recv() {
                        Ok(Frame::Iq(iq)) => {
                            // An echoed trace id closes the client-side
                            // round-trip span for that batch.
                            if iq.trace_id != 0 {
                                traced_acked += 1;
                                if let (Some(t), Some((_, rtt))) = (&tracer, trace_names) {
                                    let sent = trace_sent_ns
                                        .get(iq.batch_index as usize)
                                        .map_or(0, |s| s.load(Ordering::Acquire));
                                    if sent > 0 {
                                        t.span(k as u32, iq.trace_id, rtt, sent, t.now_ns());
                                    }
                                }
                            }
                            if let Some(sent) = sent_at_ns.get(iq.batch_index as usize) {
                                let sent = sent.load(Ordering::Acquire);
                                if sent > 0 {
                                    let now = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                                    latency_hist.record(now.saturating_sub(sent));
                                }
                            }
                            // Latency-QoS acks carry the server's own
                            // split of the round trip: queue wait vs
                            // service. Client-side send→ack conflates
                            // the two (plus the network), so quantile
                            // analysis uses these stamps.
                            if let Some(t) = iq.timing {
                                queue_wait_hist.record(t.queue_wait_ns);
                                service_hist.record(t.service_ns);
                            }
                            acked.insert(iq.batch_index, iq.pairs);
                        }
                        Ok(Frame::StatsReport(r)) => final_stats = Some(r),
                        Ok(Frame::MetricsReport(m)) => {
                            metrics_scrapes += 1;
                            last_metrics = Some(m.body);
                        }
                        Ok(Frame::Shutdown) => break,
                        Ok(Frame::Error(e)) => {
                            remote_errors.push(format!("code {}: {}", e.code, e.message));
                            // The server closes after fatal errors; keep
                            // reading until EOF to collect anything in flight.
                        }
                        Ok(_) => protocol_errors += 1,
                        Err(ClientError::SeqGap { .. }) => protocol_errors += 1,
                        Err(_) => break,
                    }
                }
                (
                    acked,
                    final_stats,
                    protocol_errors,
                    remote_errors,
                    metrics_scrapes,
                    last_metrics,
                    traced_acked,
                )
            })
            .expect("cannot spawn receiver thread")
    };

    // Pace the sample stream at the target rate (batch granularity).
    let per_batch = if opts.rate_msps > 0.0 {
        Duration::from_secs_f64(batch_samples as f64 / (opts.rate_msps * 1e6))
    } else {
        Duration::ZERO
    };
    let metrics_interval = Duration::from_millis(opts.metrics_interval_ms);
    let mut next_scrape = t0 + metrics_interval;
    let mut send_failed = false;
    for b in 0..batches {
        let start = (b as usize * batch_samples) % stimulus.len();
        let end = (start + batch_samples).min(stimulus.len());
        sent_at_ns[b as usize].store(
            t0.elapsed().as_nanos().max(1).min(u64::MAX as u128) as u64,
            Ordering::Release,
        );
        // Head sampling: every Nth batch carries a trace id and an
        // instant marking the client-side send on this session's track.
        let trace_id = match (&tracer, trace_names) {
            (Some(t), Some((send_name, _))) if b.is_multiple_of(opts.trace_sample as u64) => {
                let id = client_trace_id(k, b);
                let now = t.now_ns();
                trace_sent_ns[b as usize].store(now.max(1), Ordering::Release);
                t.instant_at(now.max(1), k as u32, id, send_name);
                id
            }
            _ => 0,
        };
        if tx
            .send_samples_traced(b, &stimulus[start..end], trace_id)
            .is_err()
        {
            send_failed = true;
            out.batches_sent = b;
            break;
        }
        out.batches_sent = b + 1;
        out.samples_sent += (end - start) as u64;
        if scrape_metrics && opts.metrics_interval_ms > 0 && Instant::now() >= next_scrape {
            next_scrape = Instant::now() + metrics_interval;
            if tx.send(&Frame::MetricsRequest).is_err() {
                send_failed = true;
                break;
            }
        }
        if !per_batch.is_zero() {
            let target = t0 + per_batch * (b as u32 + 1);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
        }
    }
    if !send_failed {
        // One final scrape so --metrics-out captures the end-of-stream
        // state even without a periodic interval.
        if scrape_metrics {
            let _ = tx.send(&Frame::MetricsRequest);
        }
        let _ = tx.send(&Frame::Shutdown);
    }

    let (
        acked,
        final_stats,
        protocol_errors,
        remote_errors,
        metrics_scrapes,
        last_metrics,
        traced_acked,
    ) = receiver.join().unwrap_or_else(|_| {
        (
            BTreeMap::new(),
            None,
            1,
            vec!["receiver panicked".into()],
            0,
            None,
            0,
        )
    });
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out.protocol_errors = protocol_errors;
    out.remote_errors = remote_errors;
    out.batches_acked = acked.len() as u64;
    out.outputs = acked.values().map(|v| v.len() as u64).sum();
    out.latency = latency_hist.snapshot();
    out.queue_wait = queue_wait_hist.snapshot();
    out.service = service_hist.snapshot();
    out.metrics_scrapes = metrics_scrapes;
    out.last_metrics = last_metrics;
    out.traced_acked = traced_acked;
    if let Some(s) = final_stats {
        out.dropped_reported = s.batches_dropped;
        out.queue_hwm = s.queue_hwm;
        out.busy_ns = s.busy_ns;
    }

    if opts.verify {
        // Recompute locally over exactly the accepted batches, in
        // index order — the protocol's contract is that the delivered
        // ranges are bit-exact and the dropped ranges are the gaps.
        let mut ddc = FixedDdc::from_spec(plan_spec(opts, tune));
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for &b in acked.keys() {
            let start = (b as usize * batch_samples) % stimulus.len();
            let end = (start + batch_samples).min(stimulus.len());
            expect.extend(
                ddc.process_block(&stimulus[start..end])
                    .into_iter()
                    .map(|z| (z.i, z.q)),
            );
        }
        let got: Vec<(i64, i64)> = acked.into_values().flatten().collect();
        out.bit_exact = Some(got == expect);
    }
    out
}

fn blank_outcome(session: usize, tune_hz: f64) -> SessionOutcome {
    SessionOutcome {
        session,
        tune_hz,
        batches_sent: 0,
        batches_acked: 0,
        dropped_reported: 0,
        samples_sent: 0,
        outputs: 0,
        elapsed_s: 0.0,
        queue_hwm: 0,
        busy_ns: 0,
        protocol_errors: 0,
        remote_errors: Vec::new(),
        bit_exact: None,
        failure: None,
        latency: HistSnapshot::empty(),
        queue_wait: HistSnapshot::empty(),
        service: HistSnapshot::empty(),
        metrics_scrapes: 0,
        last_metrics: None,
        traced_acked: 0,
    }
}

/// The `--channelizer N` mode: one wideband ingest session configures
/// an N-channel polyphase bank on the server, one subscriber session
/// attaches per channel, and the ingest streams the shared stimulus in
/// lock-step (each batch acknowledged with an empty Iq). Subscribers
/// drain until the bank's teardown Shutdown. With `--verify`, every
/// channel must be bit-exact against a local [`ddc_core::ChannelizerFarm`]
/// replica over the same batches — the bank is deterministic integer
/// arithmetic, so transport must change nothing.
///
/// Outcome rows: index 0 is the ingest, rows 1..=N are the channels
/// (tune_hz reports each channel's center frequency `k·fs/N`).
fn run_channelizer(addr: &str, opts: &Opts, stimulus: Arc<Vec<i32>>) -> Vec<SessionOutcome> {
    use ddc_core::spec::ChannelizerSpec;
    use ddc_core::ChannelizerFarm;
    use std::sync::Barrier;

    let n = opts.channelizer;
    let spec = ChannelizerSpec::uniform(n, DRM_INPUT_RATE);
    let mut ingest_out = blank_outcome(0, 0.0);

    let mut ingest = match connect_with_retry(addr, "loadgen-ingest") {
        Ok(c) => c,
        Err(e) => {
            ingest_out.failure = Some(format!("connect: {e}"));
            return vec![ingest_out];
        }
    };
    // The bank's lock-step ingest always blocks (drop policies would
    // make per-channel verification depend on timing).
    if let Err(e) = ingest.configure_channelizer(&spec, Backpressure::Block, opts.queue_cap) {
        ingest_out.failure = Some(format!("configure channelizer: {e}"));
        return vec![ingest_out];
    }

    // Every subscriber must be attached before the first Samples frame
    // so all of them see the full stream; the barrier holds the ingest
    // until the last Subscribe ack.
    let barrier = Arc::new(Barrier::new(n as usize + 1));
    let mut sub_handles = Vec::new();
    for k in 0..n {
        let addr = addr.to_string();
        let bank = spec.name.clone();
        let barrier = Arc::clone(&barrier);
        let handle = std::thread::Builder::new()
            .name(format!("lg-sub-{k}"))
            .stack_size(SESSION_STACK)
            .spawn(move || {
                let mut acked: BTreeMap<u64, Vec<(i64, i64)>> = BTreeMap::new();
                let mut protocol_errors = 0u64;
                let mut remote_errors = Vec::new();
                let attached = connect_with_retry(&addr, &format!("loadgen-sub-{k}"))
                    .and_then(|mut c| c.subscribe(&bank, k, Backpressure::Block, 0).map(|_| c));
                let mut client = match attached {
                    Ok(c) => {
                        barrier.wait();
                        c
                    }
                    Err(e) => {
                        barrier.wait();
                        return (acked, 0, Vec::new(), Some(format!("subscribe: {e}")));
                    }
                };
                loop {
                    match client.recv() {
                        Ok(Frame::Iq(iq)) => {
                            acked.insert(iq.batch_index, iq.pairs);
                        }
                        Ok(Frame::Shutdown) => break,
                        Ok(Frame::Error(e)) => {
                            remote_errors.push(format!("code {}: {}", e.code, e.message));
                        }
                        Ok(_) => protocol_errors += 1,
                        Err(ClientError::SeqGap { .. }) => protocol_errors += 1,
                        Err(_) => break,
                    }
                }
                (acked, protocol_errors, remote_errors, None)
            })
            .expect("cannot spawn subscriber thread");
        sub_handles.push(handle);
    }
    barrier.wait();

    let t0 = Instant::now();
    let latency = LogHistogram::new();
    let per_batch = if opts.rate_msps > 0.0 {
        Duration::from_secs_f64(opts.batch_samples as f64 / (opts.rate_msps * 1e6))
    } else {
        Duration::ZERO
    };
    for b in 0..opts.batches {
        let start = (b as usize * opts.batch_samples) % stimulus.len();
        let end = (start + opts.batch_samples).min(stimulus.len());
        let sent = Instant::now();
        if ingest.send_samples(b, &stimulus[start..end]).is_err() {
            ingest_out.failure = Some("send failed mid-stream".into());
            break;
        }
        ingest_out.batches_sent = b + 1;
        ingest_out.samples_sent += (end - start) as u64;
        match ingest.recv() {
            Ok(Frame::Iq(_)) => {
                latency.record_duration(sent.elapsed());
                ingest_out.batches_acked += 1;
            }
            Ok(Frame::Error(e)) => {
                ingest_out
                    .remote_errors
                    .push(format!("code {}: {}", e.code, e.message));
                break;
            }
            Ok(_) => ingest_out.protocol_errors += 1,
            Err(e) => {
                ingest_out.failure = Some(format!("ingest recv: {e}"));
                break;
            }
        }
        if !per_batch.is_zero() {
            let target = t0 + per_batch * (b as u32 + 1);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
        }
    }
    if opts.metrics_out.is_some() || opts.metrics_interval_ms > 0 {
        match ingest.request_metrics() {
            Ok(m) => {
                ingest_out.metrics_scrapes = 1;
                ingest_out.last_metrics = Some(m.body);
            }
            Err(e) => ingest_out.failure = Some(format!("metrics scrape: {e}")),
        }
    }
    let _ = ingest.send(&Frame::Shutdown);
    loop {
        match ingest.recv() {
            Ok(Frame::StatsReport(r)) => {
                ingest_out.dropped_reported = r.batches_dropped;
                ingest_out.outputs = r.outputs;
                ingest_out.queue_hwm = r.queue_hwm;
            }
            Ok(Frame::Shutdown) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    ingest_out.elapsed_s = t0.elapsed().as_secs_f64();
    ingest_out.latency = latency.snapshot();

    // Local bit-exact replica over exactly the batches the ingest sent
    // (block policy: sent == processed == delivered).
    let mut expect_rows: Vec<Vec<(i64, i64)>> = Vec::new();
    if opts.verify {
        let mut farm = ChannelizerFarm::from_spec(spec.clone()).expect("replica farm");
        expect_rows = vec![Vec::new(); n as usize];
        for b in 0..ingest_out.batches_sent {
            let start = (b as usize * opts.batch_samples) % stimulus.len();
            let end = (start + opts.batch_samples).min(stimulus.len());
            let rows = farm.process_block(&stimulus[start..end]);
            for (row, out) in rows.iter().enumerate() {
                expect_rows[row].extend(out.iter().map(|z| (z.i, z.q)));
            }
        }
    }

    let mut outcomes = vec![ingest_out];
    for (k, h) in sub_handles.into_iter().enumerate() {
        let (acked, protocol_errors, remote_errors, failure) =
            h.join().expect("subscriber thread panicked");
        let mut o = blank_outcome(k + 1, k as f64 * DRM_INPUT_RATE / n as f64);
        o.batches_acked = acked.len() as u64;
        o.outputs = acked.values().map(|v| v.len() as u64).sum();
        o.protocol_errors = protocol_errors;
        o.remote_errors = remote_errors;
        o.failure = failure;
        if opts.verify && o.failure.is_none() {
            let got: Vec<(i64, i64)> = acked.into_values().flatten().collect();
            o.bit_exact = Some(got == expect_rows[k]);
        }
        outcomes.push(o);
    }
    outcomes
}

/// Scrapes the server's flight recorder over a fresh session. Runs
/// after every load session has shut down, so the rings hold the whole
/// run; polls briefly for a free slot since session teardown races the
/// scrape connect. Returns (overwritten span count, JSON fragment).
fn scrape_server_trace(addr: &str) -> Result<(u64, Vec<u8>), String> {
    let mut last = String::from("no free session slot for the trace scrape");
    for _ in 0..200 {
        let mut c = connect_with_retry(addr, "loadgen-trace-scrape")
            .map_err(|e| format!("trace scrape connect: {e}"))?;
        match c.configure(ConfigPreset::Drm, 5.0e6, Backpressure::Block, 2) {
            Ok(_) => {
                let report = c
                    .request_trace()
                    .map_err(|e| format!("trace scrape request: {e}"))?;
                let _ = c.send(&Frame::Shutdown);
                return Ok((report.dropped, report.body));
            }
            Err(ClientError::Remote(e)) if e.code == error_code::SERVER_FULL => {
                last = format!("trace scrape refused: {}", e.message);
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("trace scrape configure: {e}")),
        }
    }
    Err(last)
}

/// Splices the server's scraped fragment and the client sink's spans
/// into one complete Chrome trace-event document and writes it.
fn write_trace_out(path: &str, addr: &str, sink: &TraceSink) -> Result<(), String> {
    let (server_dropped, server_body) = scrape_server_trace(addr)?;
    let server_frag =
        String::from_utf8(server_body).map_err(|e| format!("server trace fragment: {e}"))?;
    let mut spans: Vec<SpanEvent> = Vec::new();
    let client_dropped = sink.drain(&mut spans);
    let mut doc = String::from("{\"traceEvents\":[");
    doc.push_str(&server_frag);
    // render_chrome comma-splices against whatever the buffer already
    // ends with, so an empty server fragment stays valid.
    sink.render_chrome(&spans, "client", 2000, &mut doc);
    doc.push_str("]}\n");
    if server_dropped > 0 || client_dropped > 0 {
        eprintln!(
            "loadgen: trace rings overflowed (server {server_dropped}, client \
             {client_dropped} spans lost) — raise --trace-sample to thin the stream"
        );
    }
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a latency histogram as the JSON object the report embeds:
/// quantiles from the shared log2 histogram, not a mean-only figure.
fn latency_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.0}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        h.count,
        h.mean(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max
    )
}

fn main() {
    let opts = parse_opts();

    // In-process server for loopback runs.
    let server = if opts.self_serve {
        let cfg = ServerConfig {
            max_sessions: opts.sessions.max(1),
            processing_delay: Duration::from_millis(opts.delay_ms),
            ..ServerConfig::default()
        };
        match serve("127.0.0.1:0", cfg) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("loadgen: cannot start in-process server: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let addr = match (&server, &opts.addr) {
        (Some(h), _) => h.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        _ => unreachable!(),
    };

    // One deterministic stimulus shared by every session (the sessions
    // differ in tuning frequency, as the GC4016's four channels do).
    let plan = plan_spec(&opts, 0.0);
    let fmt = plan.format;
    let n = (opts.batch_samples * opts.batches.min(64) as usize).max(opts.batch_samples);
    let stimulus: Arc<Vec<i32>> = {
        use ddc_dsp::signal::{adc_quantize, Mix, SampleSource, Tone, WhiteNoise};
        let fs = plan.input_rate;
        let mut src = Mix(
            Tone::new(7.5e6 + 3_000.0, fs, 0.5, 0.2),
            WhiteNoise::new(17, 0.15),
        );
        Arc::new(adc_quantize(&src.take_vec(n), fmt.data_bits))
    };

    // One shared client-side flight recorder: each session records on
    // its own track, and the final document splices these spans (cat
    // "client") against the server's scrape (cat "server").
    let client_trace: Option<Arc<TraceSink>> = opts
        .trace_out
        .as_ref()
        .map(|_| Arc::new(TraceSink::new(8, 4096)));

    let t0 = Instant::now();
    let outcomes: Vec<SessionOutcome> = if opts.channelizer > 0 {
        run_channelizer(&addr, &opts, Arc::clone(&stimulus))
    } else {
        let mut handles = Vec::new();
        for k in 0..opts.sessions {
            let addr = addr.clone();
            let stim = Arc::clone(&stimulus);
            let o = opts.clone();
            let tracer = client_trace.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lg-tx-{k}"))
                    .stack_size(SESSION_STACK)
                    .spawn(move || run_session(addr, k, &o, stim, tracer))
                    .expect("cannot spawn session thread"),
            );
            // Stagger connection storms: hundreds of simultaneous SYNs
            // against one accept loop overflow the listen backlog for no
            // measurement benefit — ramping in small waves keeps every
            // session's steady-state window overlapping.
            if opts.sessions > 64 && k % 32 == 31 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    };
    let wall_s = t0.elapsed().as_secs_f64();

    // Assemble the trace document while the server is still up — the
    // scrape rides the same wire protocol as everything else.
    let mut trace_failure: Option<String> = None;
    if let (Some(path), Some(sink)) = (&opts.trace_out, &client_trace) {
        if let Err(e) = write_trace_out(path, &addr, sink) {
            eprintln!("loadgen: {e}");
            trace_failure = Some(e);
        }
    }

    let server_joined = server.map(|h| h.shutdown(Duration::from_secs(10)));

    // ---- JSON report ----------------------------------------------
    let total_samples: u64 = outcomes.iter().map(|o| o.samples_sent).sum();
    let protocol_errors_total: u64 = outcomes.iter().map(|o| o.protocol_errors).sum();
    let failures: u64 = outcomes.iter().filter(|o| o.failure.is_some()).count() as u64;
    let verify_failed = outcomes.iter().any(|o| o.bit_exact == Some(false));
    let policy_name = match opts.policy {
        Backpressure::Block => "block",
        Backpressure::DropOldest => "drop-oldest",
        Backpressure::Disconnect => "disconnect",
    };
    let qos_name = match opts.qos {
        QosProfile::Throughput => "throughput".to_string(),
        QosProfile::Latency { budget_us } => format!("latency:{budget_us}us"),
    };

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"loadgen\": {\n");
    j.push_str(&format!("    \"addr\": \"{}\",\n", json_escape(&addr)));
    j.push_str(&format!("    \"sessions\": {},\n", outcomes.len()));
    j.push_str(&format!("    \"batches\": {},\n", opts.batches));
    j.push_str(&format!("    \"batch_samples\": {},\n", opts.batch_samples));
    j.push_str(&format!("    \"rate_msps\": {},\n", opts.rate_msps));
    j.push_str(&format!("    \"policy\": \"{policy_name}\",\n"));
    j.push_str(&format!("    \"qos\": \"{qos_name}\",\n"));
    j.push_str(&format!("    \"queue_cap\": {},\n", opts.queue_cap));
    let plan_name = if opts.channelizer > 0 {
        format!("channelizer_n{}", opts.channelizer)
    } else {
        plan.name.clone()
    };
    j.push_str(&format!("    \"plan\": \"{}\",\n", json_escape(&plan_name)));
    j.push_str(&format!("    \"verify\": {}\n", opts.verify));
    j.push_str("  },\n");
    j.push_str("  \"sessions\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let ack_msps = if o.elapsed_s > 0.0 {
            o.batches_acked as f64 * opts.batch_samples as f64 / o.elapsed_s / 1e6
        } else {
            0.0
        };
        j.push_str("    {");
        j.push_str(&format!("\"session\": {}, ", o.session));
        j.push_str(&format!("\"tune_hz\": {}, ", o.tune_hz));
        j.push_str(&format!("\"batches_sent\": {}, ", o.batches_sent));
        j.push_str(&format!("\"batches_acked\": {}, ", o.batches_acked));
        j.push_str(&format!("\"batches_dropped\": {}, ", o.dropped_reported));
        j.push_str(&format!("\"samples_sent\": {}, ", o.samples_sent));
        j.push_str(&format!("\"outputs\": {}, ", o.outputs));
        j.push_str(&format!("\"throughput_msps\": {:.3}, ", ack_msps));
        j.push_str(&format!("\"queue_hwm\": {}, ", o.queue_hwm));
        j.push_str(&format!("\"busy_ns\": {}, ", o.busy_ns));
        j.push_str(&format!("\"latency_ns\": {}, ", latency_json(&o.latency)));
        j.push_str(&format!(
            "\"queue_wait_ns\": {}, ",
            latency_json(&o.queue_wait)
        ));
        j.push_str(&format!("\"service_ns\": {}, ", latency_json(&o.service)));
        j.push_str(&format!("\"metrics_scrapes\": {}, ", o.metrics_scrapes));
        j.push_str(&format!("\"traced_acked\": {}, ", o.traced_acked));
        j.push_str(&format!("\"protocol_errors\": {}, ", o.protocol_errors));
        match o.bit_exact {
            Some(b) => j.push_str(&format!("\"bit_exact\": {b}, ")),
            None => j.push_str("\"bit_exact\": null, "),
        }
        match &o.failure {
            Some(f) => j.push_str(&format!("\"failure\": \"{}\", ", json_escape(f))),
            None => j.push_str("\"failure\": null, "),
        }
        j.push_str(&format!(
            "\"remote_errors\": [{}]",
            o.remote_errors
                .iter()
                .map(|e| format!("\"{}\"", json_escape(e)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        j.push_str(if i + 1 < outcomes.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    j.push_str("  ],\n");
    j.push_str(&format!("  \"elapsed_s\": {wall_s:.3},\n"));
    j.push_str(&format!(
        "  \"aggregate_send_msps\": {:.3},\n",
        total_samples as f64 / wall_s / 1e6
    ));
    // Aggregate end-to-end latency: the per-session histograms merge
    // exactly (bucket-wise sums), so fleet-wide quantiles come from the
    // same code path as each session's.
    let agg_latency = outcomes.iter().fold(HistSnapshot::empty(), |mut acc, o| {
        acc.merge(&o.latency);
        acc
    });
    j.push_str(&format!(
        "  \"aggregate_latency_ns\": {},\n",
        latency_json(&agg_latency)
    ));
    // The server-stamped split of the same round trips (latency QoS
    // only): how much of the e2e figure was queueing vs processing.
    let agg_queue_wait = outcomes.iter().fold(HistSnapshot::empty(), |mut acc, o| {
        acc.merge(&o.queue_wait);
        acc
    });
    let agg_service = outcomes.iter().fold(HistSnapshot::empty(), |mut acc, o| {
        acc.merge(&o.service);
        acc
    });
    j.push_str(&format!(
        "  \"aggregate_queue_wait_ns\": {},\n",
        latency_json(&agg_queue_wait)
    ));
    j.push_str(&format!(
        "  \"aggregate_service_ns\": {},\n",
        latency_json(&agg_service)
    ));
    j.push_str(&format!(
        "  \"protocol_errors_total\": {protocol_errors_total},\n"
    ));
    j.push_str(&format!("  \"session_failures\": {failures},\n"));
    j.push_str(&format!(
        "  \"all_bit_exact\": {},\n",
        if opts.verify {
            (!verify_failed).to_string()
        } else {
            "null".to_string()
        }
    ));
    j.push_str(&format!(
        "  \"server_joined\": {}\n",
        server_joined.map_or("null".to_string(), |b| b.to_string())
    ));
    j.push_str("}\n");
    println!("{j}");

    if let Some(path) = &opts.metrics_out {
        let last = outcomes.iter().rev().find_map(|o| o.last_metrics.as_ref());
        match last {
            Some(body) => {
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("loadgen: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("loadgen: --metrics-out given but no metrics snapshot was scraped");
                std::process::exit(1);
            }
        }
    }

    if protocol_errors_total > 0 || failures > 0 || verify_failed || trace_failure.is_some() {
        std::process::exit(1);
    }
    if let Some(false) = server_joined {
        std::process::exit(1);
    }
}

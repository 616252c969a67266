//! Served-DDC benchmark. Runs the shipped `ddc_server` binary as a child
//! process on an ephemeral port, drives it from this one load-generator
//! process (at most two sessions, one batch in flight each), checks
//! every acknowledged output bit-exact against a local replica, and
//! prints one JSON result line last on stdout.
//!
//! ```text
//! python3 servebench/run.py --workload paced_drm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of one untraced run.
//! `--trace 1` runs the workload untraced and then traced, replays the
//! server-side layers on the traced run's own batches, and reports the
//! per-layer ledger; the spans are written as Chrome trace JSON and
//! checked with `scripts/validate_trace.py`. `servebench/METRICS.md`
//! says what every metric is and which end-to-end figure it should move.
//! The result line is printed in every case; the exit code is 1 when
//! `correct` is false.

mod layers;
mod live;
mod procfs;
mod serverproc;
mod stats;

use ddc_obs::{span_kind, SpanEvent, TraceSink};
use layers::{BankReplay, ChainReplay, Recorder, Replay};
use live::{Kind, Live, LiveNames, Stimulus, Tracer, Verdict, Workload};
use stats::{Better, Span};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Extra set-ups per invocation, torn down at once, so `setup_s` is a
/// median rather than one spawn.
const SETUP_PROBES: usize = 4;

/// Batches a slice needs before its median latency counts.
const MIN_SLICE_BATCHES: usize = 20;

/// Batches per replay pass.
const PASS_BATCHES: usize = 64;

/// How long the replay keeps starting passes, so that some pass meets
/// the host at its undisturbed speed.
const REPLAY_TIME: Duration = Duration::from_secs(4);

const USAGE: &str = "usage: servebench --workload paced_drm|mixed_qos|channelizer_n64 \
                     --seed N --seconds S --trace 0|1 --server-bin PATH \
                     [--out-dir DIR] [--commit ID]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let workload = need(get("--workload"), "--workload")?;
    let trace = need(get("--trace"), "--trace")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: need(get("--seed"), "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need(get("--seconds"), "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        server_bin: need(get("--server-bin"), "--server-bin")?.into(),
        out_dir: get("--out-dir")
            .unwrap_or_else(|| "servebench/out".into())
            .into(),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Metrics in report order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One live run with its verdict.
struct Run {
    live: Live,
    verdict: Verdict,
}

/// A run's figures per time slice ([`live::SLICE`]), over the slices
/// that hold at least [`MIN_SLICE_BATCHES`] verified batches of the
/// reported session(s).
#[derive(Debug, Default)]
struct Slices {
    /// Median latency of the reported session(s), µs.
    latency_us: Vec<f64>,
    /// Input samples acknowledged bit-exact per second, millions.
    msps: Vec<f64>,
    /// Server CPU per acknowledged input sample, ns.
    cpu_ns_per_sample: Vec<f64>,
    /// Verified batches of the reported session(s) in these slices.
    batches: usize,
}

impl Run {
    fn attempted(&self) -> u64 {
        self.live.sessions.iter().map(|r| r.attempted).sum()
    }

    fn good(&self) -> u64 {
        self.verdict.good.iter().sum()
    }

    /// Input samples acknowledged bit-exact.
    fn samples(&self, w: Workload) -> f64 {
        let plans = w.sessions();
        let n: u64 = plans
            .iter()
            .zip(&self.verdict.good)
            .map(|(p, &g)| g * p.batch as u64)
            .sum();
        n.max(1) as f64
    }

    /// The run cut into slices by the ack time of each verified batch.
    fn slices(&self, w: Workload) -> Slices {
        let edges: Vec<u64> = self.live.edges.iter().map(|e| e.0).collect();
        let n = edges.len().saturating_sub(1);
        let mut samples = vec![0u64; n];
        let mut latency: Vec<Vec<f64>> = vec![Vec::new(); n];
        for (k, plan) in w.sessions().iter().enumerate() {
            let v = &self.verdict;
            for (&done, &ns) in v.done_ns[k].iter().zip(&v.latency_ns[k]) {
                let Some(j) = stats::slice_of(&edges, done) else {
                    continue;
                };
                samples[j] += plan.batch as u64;
                if w.reports(k) {
                    latency[j].push(ns as f64 / 1e3);
                }
            }
        }
        let mut out = Slices::default();
        for (j, lat) in latency.iter().enumerate() {
            if lat.len() < MIN_SLICE_BATCHES {
                continue;
            }
            let ((t0, cpu0), (t1, cpu1)) = (self.live.edges[j], self.live.edges[j + 1]);
            let n = samples[j] as f64;
            out.latency_us.push(stats::median(lat));
            out.msps.push(n / (t1 - t0) as f64 * 1e3);
            out.cpu_ns_per_sample.push(cpu1.saturating_sub(cpu0) as f64 / n);
            out.batches += lat.len();
        }
        out
    }

    /// The run's median latency at the host's undisturbed speed, µs.
    fn latency_p50_us(&self, w: Workload) -> f64 {
        stats::undisturbed(&self.slices(w).latency_us, Better::Lower)
    }

    /// Verified latencies of the reported sessions, µs, ascending.
    fn latency_us(&self, w: Workload) -> Vec<f64> {
        let mut v: Vec<f64> = (0..self.verdict.latency_ns.len())
            .filter(|&k| w.reports(k))
            .flat_map(|k| self.verdict.latency_ns[k].iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Paced batches whose latency exceeded the budget, plus failed
    /// paced batches, over paced batches attempted (0 without a paced
    /// session).
    fn deadline_miss_frac(&self, w: Workload) -> f64 {
        let budget_ns = u64::from(live::PACED_BUDGET_US) * 1000;
        let (mut attempted, mut missed) = (0u64, 0u64);
        for (k, plan) in w.sessions().iter().enumerate() {
            if plan.kind != Kind::Paced {
                continue;
            }
            let lat = &self.verdict.latency_ns[k];
            attempted += self.live.sessions[k].attempted;
            missed += lat.iter().filter(|&&ns| ns > budget_ns).count() as u64;
            missed += self.live.sessions[k].attempted - lat.len() as u64;
        }
        missed as f64 / attempted.max(1) as f64
    }
}

/// Sets up, runs the window, stops the server and verifies.
fn live_run(
    a: &Args,
    stims: &[Stimulus],
    origin: Instant,
    tracer: Option<Tracer>,
    setup_s: &mut Vec<f64>,
    shutdown_timeouts: &mut u64,
) -> Result<Run, String> {
    let setup = live::setup(&a.server_bin, a.workload, a.seed)?;
    setup_s.push(setup.secs);
    let live = live::run(setup, a.workload, stims, a.seconds, origin, tracer);
    *shutdown_timeouts += u64::from(live.shutdown_timeout);
    if live.cut_off {
        eprintln!("servebench: a session stopped acknowledging; the server was killed");
    }
    for (k, rec) in live.sessions.iter().enumerate() {
        if let Some(e) = &rec.error {
            eprintln!("servebench: session {k} stopped early: {e}");
        }
    }
    let verdict = live::verify(a.workload, a.seed, stims, &live)?;
    if verdict.mismatched > 0 {
        eprintln!(
            "servebench: {} acknowledged batches differ from the replica",
            verdict.mismatched
        );
    }
    Ok(Run { live, verdict })
}

/// Pairs begin/end events into closed spans.
fn pair_spans(events: &[SpanEvent]) -> Vec<Span> {
    let mut open: HashMap<u64, SpanEvent> = HashMap::new();
    let mut spans = Vec::new();
    for e in events {
        match e.kind {
            span_kind::BEGIN => {
                open.insert(e.span_id, *e);
            }
            span_kind::END => {
                if let Some(b) = open.remove(&e.span_id) {
                    spans.push(Span {
                        name: b.name,
                        trace_id: b.trace_id,
                        track: b.track,
                        t0: b.t_ns,
                        t1: e.t_ns.max(b.t_ns),
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// Writes the spans as a Chrome trace document and checks it with the
/// repository's trace validator.
fn export_trace(a: &Args, sink: &TraceSink, events: &[SpanEvent]) -> Result<(), String> {
    let mut doc = String::from("{\"traceEvents\":[");
    sink.render_chrome(events, "servebench", 0, &mut doc);
    doc.push_str("]}\n");
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let path = a.out_dir.join(format!("trace-{}.json", a.workload.name()));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let out = Command::new("python3")
        .arg(Path::new("scripts").join("validate_trace.py"))
        .arg(&path)
        .args(["--min-traces", "1", "--require-span", "batch"])
        .args(["--require-span", layers::name::BATCH])
        .output()
        .map_err(|e| format!("cannot run the trace validator: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{} fails validation: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Median duration of the spans named `name` among `events`, µs.
fn median_span_us(events: &[SpanEvent], name: u16) -> f64 {
    let v: Vec<f64> = pair_spans(events)
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.t1 - s.t0) as f64 / 1e3)
        .collect();
    stats::median(&v)
}

/// Replays batches in passes of [`PASS_BATCHES`] until [`REPLAY_TIME`]
/// has passed or the batches run out, each pass pinned to the next CPU
/// the process may use. Returns the span events of the pass whose
/// batches took the server's path fastest: the host's undisturbed speed,
/// at which the live figures are taken too.
fn replay_passes(
    replay: &mut dyn Replay,
    sink: &TraceSink,
    origin: Instant,
) -> Result<Vec<SpanEvent>, String> {
    let r = Recorder { sink, origin };
    let root = sink.register_name(layers::name::BATCH);
    let cpus = procfs::allowed_cpus();
    let start = Instant::now();
    let mut best: Option<(f64, Vec<SpanEvent>)> = None;
    let mut result = Ok(());
    for pass in 0.. {
        if !cpus.is_empty() {
            procfs::pin_current_thread(&[cpus[pass % cpus.len()]]);
        }
        let mut n = 0;
        while n < PASS_BATCHES {
            match replay.next(&r) {
                Ok(true) => n += 1,
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let mut events = Vec::new();
        let lost = sink.drain(&mut events);
        if lost > 0 {
            eprintln!("servebench: {lost} replay span events were overwritten");
        }
        if result.is_err() {
            break;
        }
        if n == PASS_BATCHES || (n > 0 && best.is_none()) {
            let m = median_span_us(&events, root);
            if best.as_ref().is_none_or(|b| m < b.0) {
                best = Some((m, events));
            }
        }
        if n < PASS_BATCHES || start.elapsed() >= REPLAY_TIME {
            break;
        }
    }
    procfs::pin_current_thread(&cpus);
    result?;
    best.map(|b| b.1).ok_or_else(|| "no acknowledged batch to replay".into())
}

/// The per-layer ledger of a traced invocation. Returns the metrics and
/// whether they hold together (replays matched, remainder non-negative,
/// trace file valid).
fn per_layer(
    a: &Args,
    stims: &[Stimulus],
    untraced: &Run,
    traced: &Run,
    sink: &TraceSink,
    origin: Instant,
    shutdown_timeouts: u64,
) -> (Metrics, bool) {
    let attempted = untraced.attempted() + traced.attempted();
    let failed = attempted - untraced.good() - traced.good();
    let w = a.workload;
    let plans = w.sessions();
    let k = (0..plans.len()).find(|&k| w.reports(k)).unwrap_or(0);
    let plan = plans[k];
    let rec = &traced.live.sessions[k];
    let mut ok = true;

    let mut events = Vec::new();
    let lost = sink.drain(&mut events);
    if lost > 0 {
        eprintln!("servebench: {lost} live span events were overwritten");
    }
    let replayed = match plan.kind {
        Kind::Ingest => BankReplay::new(k, a.seed, &stims[k], rec)
            .and_then(|mut r| replay_passes(&mut r, sink, origin)),
        Kind::Bulk | Kind::Paced => {
            replay_passes(&mut ChainReplay::new(k, &plan, &stims[k], rec), sink, origin)
        }
    };
    match replayed {
        Ok(pass) => events.extend(pass),
        Err(e) => {
            eprintln!("servebench: {e}");
            ok = false;
        }
    }
    events.sort_by_key(|e| (e.t_ns, e.seq));
    if let Err(e) = export_trace(a, sink, &events) {
        eprintln!("servebench: {e}");
        ok = false;
    }
    let spans = pair_spans(&events);
    let selfs = stats::self_times(&spans);
    let reported = |track: u32| (track as usize) < plans.len() && w.reports(track as usize);
    let p50 = |name: &str, live_track: bool| -> f64 {
        let idx = sink.register_name(name);
        let v: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| {
                s.name == idx
                    && if live_track {
                        reported(s.track)
                    } else {
                        s.track == layers::REPLAY_TRACK
                    }
            })
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        stats::median(&v)
    };
    use layers::name as n;
    let per_sample = |us: f64| us * 1e3 / plan.batch as f64;
    let (frontend, cic, fir, chain) = (
        p50(n::FRONTEND, false),
        p50(n::CIC, false),
        p50(n::FIR, false),
        p50(n::CHAIN, false),
    );
    let engine = p50(n::ENGINE, false);
    let (enc_s, dec_s) = (p50(n::ENCODE_SAMPLES, false), p50(n::DECODE_SAMPLES, false));
    let (enc_iq, dec_iq) = (p50(n::ENCODE_IQ, false), p50(n::DECODE_IQ, false));
    let (branches, fft) = (p50(n::BRANCHES, false), p50(n::FFT, false));
    let (send, recv_wait) = (p50("client.send", true), p50("client.recv_wait", true));

    // The batch path: the layers' own work on one batch between the
    // client encoding it and the client holding its decoded ack. The
    // live send span is left out: on loopback the write runs part of
    // the receiver's network stack, so it overlaps the server's side.
    let path = match plan.kind {
        Kind::Ingest => vec![enc_s, dec_s, branches, fft, enc_iq, dec_iq],
        Kind::Bulk | Kind::Paced => vec![enc_s, dec_s, engine, enc_iq, dec_iq],
    };
    let untraced_lat = untraced.latency_us(w);
    let traced_p50 = traced.latency_p50_us(w);
    let untraced_p50 = untraced.latency_p50_us(w);
    let unattributed = match stats::ledger_remainder(traced_p50, &path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("servebench: {e}");
            ok = false;
            traced_p50 - path.iter().sum::<f64>()
        }
    };

    let live = &traced.live;
    let samples = traced.samples(w);
    let batches = traced.good().max(1) as f64;
    let (t0, t1) = &live.tasks;
    let group_ns = |g: &str| {
        let d = t1.group_cpu_ns.get(g).copied().unwrap_or(0) as f64
            - t0.group_cpu_ns.get(g).copied().unwrap_or(0) as f64;
        d / samples
    };
    let timing_us = |f: fn(&ddc_server::wire::IqTiming) -> u64, q: f64| {
        let mut v: Vec<f64> = (0..plans.len())
            .filter(|&j| w.reports(j))
            .flat_map(|j| live.sessions[j].timing.iter().map(|t| f(t) as f64 / 1e3))
            .collect();
        v.sort_by(f64::total_cmp);
        stats::quantile(&v, q)
    };
    let mut lag: Vec<f64> = live
        .sessions
        .iter()
        .flat_map(|r| r.lag_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    lag.sort_by(f64::total_cmp);
    let busy_ns: u64 = live
        .sessions
        .iter()
        .filter_map(|r| r.final_stats.map(|s| s.busy_ns))
        .sum();
    let queue_hwm = live
        .sessions
        .iter()
        .filter_map(|r| r.final_stats.map(|s| s.queue_hwm))
        .max()
        .unwrap_or(0);
    let tail = stats::tail(&untraced_lat);

    let metrics = vec![
        ("frontend.ns_per_sample", per_sample(frontend), "ns"),
        ("cic.ns_per_sample", per_sample(cic), "ns"),
        ("fir.ns_per_sample", per_sample(fir), "ns"),
        ("chain.ns_per_sample", per_sample(chain), "ns"),
        ("engine.submit_overhead_us", engine - chain, "us"),
        ("wire.encode_samples_ns_per_sample", per_sample(enc_s), "ns"),
        ("wire.decode_samples_ns_per_sample", per_sample(dec_s), "ns"),
        ("wire.encode_iq_us", enc_iq, "us"),
        ("wire.decode_iq_us", dec_iq, "us"),
        (
            "channelizer.branches_ns_per_sample",
            per_sample(branches),
            "ns",
        ),
        ("channelizer.fft_ns_per_sample", per_sample(fft), "ns"),
        ("client.send_us", send, "us"),
        ("client.recv_wait_us", recv_wait, "us"),
        (
            "client.cpu_ns_per_sample",
            live.client_cpu_s * 1e9 / samples,
            "ns",
        ),
        ("server.shard_cpu_ns_per_sample", group_ns("shard"), "ns"),
        ("server.proc_cpu_ns_per_sample", group_ns("proc"), "ns"),
        ("server.farm_cpu_ns_per_sample", group_ns("farm"), "ns"),
        (
            "server.ctx_switches_per_batch",
            t1.ctx_switches.saturating_sub(t0.ctx_switches) as f64 / batches,
            "count",
        ),
        (
            "server.queue_wait_p50_us",
            timing_us(|t| t.queue_wait_ns, 0.5),
            "us",
        ),
        (
            "server.queue_wait_p99_us",
            timing_us(|t| t.queue_wait_ns, 0.99),
            "us",
        ),
        (
            "server.service_p50_us",
            timing_us(|t| t.service_ns, 0.5),
            "us",
        ),
        (
            "server.service_p99_us",
            timing_us(|t| t.service_ns, 0.99),
            "us",
        ),
        ("server.queue_hwm", f64::from(queue_hwm), "count"),
        (
            "server.busy_frac",
            busy_ns as f64 / (live.window_s * 1e9),
            "fraction",
        ),
        (
            "server.shutdown_timeouts",
            shutdown_timeouts as f64,
            "count",
        ),
        ("unattributed_us", unattributed, "us"),
        (
            "trace_overhead_frac",
            (traced_p50 - untraced_p50) / untraced_p50.max(1e-9),
            "fraction",
        ),
        ("gen.lag_p99_us", stats::quantile(&lag, 0.99), "us"),
        ("latency_p99_us", stats::quantile(&untraced_lat, 0.99), "us"),
        ("latency_tail_us", tail.map_or(0.0, |t| t.value), "us"),
        ("latency_tail_pct", tail.map_or(0.0, |t| t.pct), "percent"),
        ("latency_samples", untraced_lat.len() as f64, "count"),
        (
            "deadline_miss_frac",
            untraced.deadline_miss_frac(w),
            "fraction",
        ),
        (
            "error_frac",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ];
    (metrics, ok)
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(slices: &Slices, run: &Run, setup_s: &[f64]) -> Metrics {
    vec![
        (
            "latency_p50_us",
            stats::undisturbed(&slices.latency_us, Better::Lower),
            "us",
        ),
        (
            "throughput_msps",
            stats::undisturbed(&slices.msps, Better::Higher),
            "Ms/s",
        ),
        (
            "server_cpu_ns_per_sample",
            stats::undisturbed(&slices.cpu_ns_per_sample, Better::Lower),
            "ns",
        ),
        ("server_rss_mb", run.live.server_rss_mb, "MB"),
        ("setup_s", stats::median(setup_s), "s"),
    ]
}

/// The counts behind the end-to-end figures: the verified batches and
/// the slices the slice figures were taken from, and the set-ups behind
/// `setup_s`.
fn counts_line(slices: &Slices, setup_s: &[f64]) -> String {
    format!(
        "{{\"counts\": {{\"latency_batches\": {}, \"slices\": {}, \"slice_s\": {}, \"setups\": {}}}}}",
        slices.batches,
        slices.latency_us.len(),
        json_num(live::SLICE.as_secs_f64()),
        setup_s.len()
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The host and build every result was taken on.
fn host_line(a: &Args, live: &Live) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads: Vec<String> = live
        .tasks
        .1
        .names
        .iter()
        .map(|(name, count)| format!("{}: {count}", json_str(name)))
        .collect();
    format!(
        "{{\"host\": {{\"available_parallelism\": {cores}, \"nproc\": {}, \"profile\": {}, \
         \"features\": \"default\", \"commit\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"steal_frac\": {}, \"server_threads\": {{{}}}}}}}",
        procfs::allowed_cpus().len(),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&a.commit),
        json_str(a.workload.name()),
        a.seed,
        json_num(a.seconds),
        json_num(live.steal_frac),
        threads.join(", ")
    )
}

/// Runs the invocation; returns the result line and `correct`.
fn run(a: &Args) -> Result<(String, bool), String> {
    let origin = Instant::now();
    let w = a.workload;
    let stims: Vec<Stimulus> = w
        .sessions()
        .iter()
        .enumerate()
        .map(|(k, p)| Stimulus::new(a.seed, k, p.batch))
        .collect();

    let mut setup_s = Vec::new();
    let mut shutdown_timeouts = 0u64;
    for _ in 0..SETUP_PROBES {
        let s = live::setup(&a.server_bin, w, a.seed)?;
        setup_s.push(s.secs);
        drop(s.subscriber);
        drop(s.clients);
        shutdown_timeouts += u64::from(s.server.stop(live::STOP_BOUND));
    }

    let untraced = live_run(
        a,
        &stims,
        origin,
        None,
        &mut setup_s,
        &mut shutdown_timeouts,
    )?;
    let mut attempted = untraced.attempted();
    let mut good = untraced.good();
    let mut correct = untraced.verdict.mismatched == 0;
    let mut counts = None;
    let metrics = if a.trace {
        let sink = TraceSink::with_origin(4, 1 << 16, origin);
        let names = LiveNames::register(&sink);
        let tracer = Tracer { sink: &sink, names };
        let traced = live_run(
            a,
            &stims,
            origin,
            Some(tracer),
            &mut setup_s,
            &mut shutdown_timeouts,
        )?;
        attempted += traced.attempted();
        good += traced.good();
        correct &= traced.verdict.mismatched == 0;
        let (m, ok) = per_layer(
            a,
            &stims,
            &untraced,
            &traced,
            &sink,
            origin,
            shutdown_timeouts,
        );
        correct &= ok;
        m
    } else {
        let slices = untraced.slices(w);
        counts = Some(counts_line(&slices, &setup_s));
        end_to_end(&slices, &untraced, &setup_s)
    };

    println!("{}", host_line(a, &untraced.live));
    if let Some(line) = counts {
        println!("{line}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted - good,
        body.join(", ")
    );
    Ok((line, correct))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

//! Persistent multi-channel DDC execution engine.
//!
//! The paper benchmarks the GC4016 — a *quad* DDC: four independent
//! channels downconverting the same ADC stream. [`DdcFarm`] is the
//! host-side analogue scaled past four: a fixed set of channels, each
//! with its own persistent [`FixedDdc`] state, served by a worker pool
//! that is spawned **once** and reused across input batches. An
//! earlier spawn-per-call helper created (and tore down) one thread
//! per channel per call, which bounds batch rate by thread-creation
//! cost; the farm replaces that with:
//!
//! * **bounded per-worker job queues** — submission distributes one
//!   job per channel round-robin across workers, and a full queue
//!   back-pressures the submitter instead of growing without bound;
//! * **work stealing** — an idle worker drains its own queue front to
//!   back, then steals from the *back* of its neighbours' queues, so a
//!   channel mix with uneven per-channel cost still saturates cores;
//! * **persistent channel state** — filter state lives across batches,
//!   so streaming a signal through the farm in successive blocks is
//!   bit-exact with streaming it through per-channel [`FixedDdc`]s;
//! * **per-channel statistics** — batches, samples, outputs and busy
//!   time (for throughput), plus per-worker backlog depths;
//! * **graceful shutdown** — on drop (or [`DdcFarm::shutdown`]) the
//!   workers finish queued jobs, observe the stop flag and join.
//!
//! Only `std` primitives are used (`Mutex`, `Condvar`, atomics,
//! `thread`), matching the repo's no-external-deps constraint.

use crate::chain::{chain_metrics_for, FixedDdc};
use crate::mixer::Iq;
use crate::spec::ChainSpec;
use ddc_obs::{drain_merged, kind, Counter, Event, EventRing, LogHistogram, MetricsHandle};
use ddc_obs::{ChainMetrics, MetricsSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One unit of work: run channel `channel` over `input`.
struct Job {
    channel: usize,
    input: Arc<Vec<i32>>,
    completion: Completion,
}

/// How a finished job reports back.
enum Completion {
    /// Part of a whole-farm batch: append to the shared result buffer
    /// and decrement the batch's pending counter.
    Batch,
    /// A single-channel submission: hand the output to the waiting
    /// submitter through its private completion slot.
    Single(Arc<JobDone>),
}

/// Completion slot of one single-channel job. The submitter waits on
/// `cv` until a worker stores the output in `result`.
#[derive(Default)]
struct JobDone {
    result: Mutex<Option<Vec<Iq>>>,
    cv: Condvar,
}

/// A channel's persistent state and its lifetime counters. Locked as a
/// unit: the worker that runs a channel's job already holds the lock
/// for the duration of the processing call, so the stats update costs
/// no extra synchronisation.
struct ChannelSlot {
    ddc: FixedDdc,
    stats: ChannelStats,
}

impl ChannelSlot {
    fn record(&mut self, samples_in: u64, outputs: u64, busy: Duration) {
        self.stats.batches += 1;
        self.stats.samples_in += samples_in;
        self.stats.outputs += outputs;
        self.stats.busy += busy;
    }
}

/// Lifetime statistics of one farm channel.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelStats {
    /// Input batches processed.
    pub batches: u64,
    /// ADC samples consumed.
    pub samples_in: u64,
    /// Complex output words produced.
    pub outputs: u64,
    /// Wall-clock time spent inside `process_into` for this channel.
    pub busy: Duration,
}

impl ChannelStats {
    /// Mean processing throughput in Msamples/s (input-rate samples per
    /// second of busy time). `None` before any work has been recorded.
    pub fn throughput_msps(&self) -> Option<f64> {
        let secs = self.busy.as_secs_f64();
        (secs > 0.0).then(|| self.samples_in as f64 / secs / 1e6)
    }

    /// Exports this channel under `channel="ch"`: its lifetime flow
    /// counters, the kernel each stage resolved to, and — when the
    /// chain records metrics — its whole-chain and per-stage families.
    /// The farm's snapshot and the streaming server's share it.
    pub fn push_metrics(
        &self,
        snap: &mut MetricsSnapshot,
        ch: u64,
        chain: Option<&ChainMetrics>,
        kernels: &[(String, &'static str)],
    ) {
        let lbl = format!("{{channel=\"{ch}\"}}");
        snap.push_counter(format!("ddc_channel_batches_total{lbl}"), self.batches);
        snap.push_counter(
            format!("ddc_channel_samples_in_total{lbl}"),
            self.samples_in,
        );
        snap.push_counter(format!("ddc_channel_outputs_total{lbl}"), self.outputs);
        snap.push_counter(
            format!("ddc_channel_busy_ns_total{lbl}"),
            self.busy.as_nanos().min(u64::MAX as u128) as u64,
        );
        // Which specialised kernel each stage resolved to — a static
        // info gauge (constant 1) in the Prometheus `build_info` idiom.
        // Resolution happened at chain construction; reading the label
        // here costs nothing on the processing path.
        for (stage, kernel) in kernels {
            snap.push_counter(
                format!("ddc_stage_kernel_info{{channel=\"{ch}\",stage=\"{stage}\",kernel=\"{kernel}\"}}"),
                1,
            );
        }
        let Some(cm) = chain else {
            return;
        };
        snap.push_hist(
            format!("ddc_chain_latency_ns{lbl}"),
            cm.chain.latency_ns.snapshot(),
        );
        for sm in &cm.stages {
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

/// Everything shared between the submitter and the workers.
struct Shared {
    /// Bounded FIFO per worker; `queue_cap` bounds each.
    queues: Vec<Mutex<VecDeque<Job>>>,
    queue_cap: usize,
    /// Channel states, lockable independently so stolen jobs for
    /// different channels never contend.
    channels: Vec<Mutex<ChannelSlot>>,
    /// Per-channel result buffers for the batch in flight. Reused
    /// across batches (submission is serialised by `&mut self`).
    results: Vec<Mutex<Vec<Iq>>>,
    /// Count of jobs not yet finished in the current batch, and the
    /// condvar the submitter waits on.
    pending: Mutex<usize>,
    batch_done: Condvar,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    work_ready: Condvar,
    stop: AtomicBool,
    /// Farm-wide lifetime totals. Always on (three relaxed adds per
    /// job); exported through [`DdcFarm::totals`] and the wire Stats
    /// frame.
    jobs_completed: AtomicU64,
    steals: AtomicU64,
    orphans_reclaimed: AtomicU64,
    /// Optional telemetry, installed once by [`DdcFarm::with_telemetry`];
    /// workers check the `OnceLock` (one load) per job.
    metrics: OnceLock<Arc<FarmMetrics>>,
}

/// Farm-wide lifetime totals (one coherent read via
/// [`DdcFarm::totals`] or [`DdcFarm::stats_with_totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FarmTotals {
    /// Jobs run to completion across all channels and workers.
    pub jobs_completed: u64,
    /// Jobs a worker stole from a neighbour's queue.
    pub steals: u64,
    /// Queued single-channel jobs reclaimed unrun after a halt.
    pub orphans_reclaimed: u64,
}

/// Telemetry state of an instrumented farm: per-worker event rings
/// and job-latency histograms, plus submission-side histograms. Built
/// once by [`DdcFarm::with_telemetry`]; recording is lock-free and
/// allocation-free.
#[derive(Debug)]
pub struct FarmMetrics {
    /// One SPSC event ring per worker (`JOB_DONE` events).
    worker_rings: Vec<EventRing>,
    /// Control-plane ring (configure / halt / inline jobs); written
    /// from submitter threads, which the stamp protocol tolerates.
    control_ring: EventRing,
    /// Per-worker job latency (ns per job).
    worker_job_ns: Vec<LogHistogram>,
    /// Per-worker jobs executed.
    worker_jobs: Vec<Counter>,
    /// Single-channel jobs run inline on the submitting thread (the
    /// caller-runs fast path of [`DdcFarm::submit_channel`]).
    inline_jobs: Counter,
    /// Latency of inline-run jobs (ns per job).
    inline_job_ns: LogHistogram,
    /// Queue depth observed at each enqueue (after the push).
    queue_depth: LogHistogram,
    /// ADC samples per submitted job.
    batch_samples: LogHistogram,
}

impl FarmMetrics {
    fn new(workers: usize) -> Self {
        let origin = Instant::now();
        FarmMetrics {
            worker_rings: (0..workers)
                .map(|_| EventRing::with_origin(1024, origin))
                .collect(),
            control_ring: EventRing::with_origin(256, origin),
            worker_job_ns: (0..workers).map(|_| LogHistogram::new()).collect(),
            worker_jobs: (0..workers).map(|_| Counter::new()).collect(),
            inline_jobs: Counter::new(),
            inline_job_ns: LogHistogram::new(),
            queue_depth: LogHistogram::new(),
            batch_samples: LogHistogram::new(),
        }
    }
}

impl Shared {
    /// Pops a job: own queue from the front, otherwise steal from the
    /// back of the busiest neighbour scan order.
    fn find_job(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me].lock().unwrap().pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn any_job_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    /// Wakes sleeping workers. Taking the idle lock (even empty)
    /// orders this notify against a worker that has scanned the queues
    /// and is about to wait: either our enqueue is visible to its
    /// under-lock re-check, or it is already waiting and receives the
    /// notification. The workers' `wait_timeout` is only a backstop.
    fn notify_workers(&self) {
        drop(self.idle.lock().unwrap());
        self.work_ready.notify_all();
    }

    /// Runs one job to completion and signals whoever waits for it.
    fn run_job(&self, me: usize, job: Job) {
        let channel = job.channel;
        let busy;
        let single_out = {
            let mut slot = self.channels[job.channel].lock().unwrap();
            match &job.completion {
                Completion::Batch => {
                    let mut out = self.results[job.channel].lock().unwrap();
                    let before = out.len();
                    let t0 = Instant::now();
                    slot.ddc.process_into(&job.input, &mut out);
                    busy = t0.elapsed();
                    let produced = (out.len() - before) as u64;
                    slot.record(job.input.len() as u64, produced, busy);
                    None
                }
                Completion::Single(_) => {
                    let mut out = Vec::new();
                    let t0 = Instant::now();
                    slot.ddc.process_into(&job.input, &mut out);
                    busy = t0.elapsed();
                    slot.record(job.input.len() as u64, out.len() as u64, busy);
                    Some(out)
                }
            }
        };
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if let Some(fm) = self.metrics.get() {
            let busy_ns = busy.as_nanos().min(u64::MAX as u128) as u64;
            fm.worker_jobs[me].inc();
            fm.worker_job_ns[me].record(busy_ns);
            fm.worker_rings[me].push(kind::JOB_DONE, channel as u64, busy_ns);
        }
        match job.completion {
            Completion::Batch => {
                let mut pending = self.pending.lock().unwrap();
                *pending -= 1;
                if *pending == 0 {
                    self.batch_done.notify_all();
                }
            }
            Completion::Single(done) => {
                *done.result.lock().unwrap() = single_out;
                done.cv.notify_all();
            }
        }
    }

    /// Removes a still-queued single-channel job (identified by its
    /// completion slot) from the worker queues. Returns `true` if it
    /// was found and removed — i.e. no worker will ever run it.
    fn reclaim_single(&self, done: &Arc<JobDone>) -> bool {
        for q in &self.queues {
            let mut q = q.lock().unwrap();
            if let Some(pos) = q.iter().position(
                |j| matches!(&j.completion, Completion::Single(d) if Arc::ptr_eq(d, done)),
            ) {
                q.remove(pos);
                self.orphans_reclaimed.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

fn worker_loop(me: usize, shared: Arc<Shared>) {
    loop {
        if let Some(job) = shared.find_job(me) {
            shared.run_job(me, job);
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.idle.lock().unwrap();
        // Re-check under the idle lock so a notify between the scan
        // above and this wait cannot be lost; the timeout is a second
        // line of defence, not the wake mechanism.
        if shared.stop.load(Ordering::Acquire) || shared.any_job_queued() {
            continue;
        }
        let _ = shared
            .work_ready
            .wait_timeout(guard, Duration::from_millis(20));
    }
}

/// A persistent multi-channel DDC engine: N channels, W worker
/// threads, reusable across any number of input batches.
///
/// # Examples
///
/// ```
/// use ddc_core::engine::DdcFarm;
/// use ddc_core::params::DdcConfig;
/// use ddc_core::spec::DRM_TOTAL_DECIMATION;
///
/// let mut farm = DdcFarm::new(vec![
///     DdcConfig::drm(10e6),
///     DdcConfig::drm(20e6),
/// ]);
/// let input = vec![100i32; DRM_TOTAL_DECIMATION as usize];
/// let outputs = farm.submit_block(&input);
/// assert_eq!(outputs.len(), 2);           // one stream per channel
/// assert_eq!(outputs[0].len(), 1);        // 2688 inputs -> 1 word
/// ```
pub struct DdcFarm {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    n_channels: usize,
}

impl DdcFarm {
    /// Builds a farm with one [`FixedDdc`] per channel plan and as
    /// many workers as the host offers (capped at the channel count —
    /// extra workers could never have work). Channels accept anything
    /// convertible into a [`ChainSpec`] — classic
    /// [`crate::params::DdcConfig`]s included.
    pub fn new<S: Into<ChainSpec>>(specs: Vec<S>) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = host.min(specs.len()).max(1);
        Self::with_workers(specs, workers)
    }

    /// Builds a farm with an explicit worker count.
    pub fn with_workers<S: Into<ChainSpec>>(specs: Vec<S>, workers: usize) -> Self {
        assert!(!specs.is_empty(), "farm needs at least one channel");
        assert!(workers >= 1, "farm needs at least one worker");
        let n_channels = specs.len();
        let channels: Vec<Mutex<ChannelSlot>> = specs
            .into_iter()
            .map(|spec| {
                Mutex::new(ChannelSlot {
                    ddc: FixedDdc::from_spec(spec.into()),
                    stats: ChannelStats::default(),
                })
            })
            .collect();
        let queue_cap = 2 * n_channels.div_ceil(workers).max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queue_cap,
            channels,
            results: (0..n_channels).map(|_| Mutex::new(Vec::new())).collect(),
            pending: Mutex::new(0),
            batch_done: Condvar::new(),
            idle: Mutex::new(()),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            jobs_completed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            orphans_reclaimed: AtomicU64::new(0),
            metrics: OnceLock::new(),
        });
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ddc-farm-{k}"))
                    .spawn(move || worker_loop(k, shared))
                    .expect("cannot spawn farm worker")
            })
            .collect();
        DdcFarm {
            shared,
            workers: handles,
            n_channels,
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.n_channels
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Runs every channel over `input`, returning per-channel outputs
    /// in configuration order. Channel filter state persists across
    /// calls, so feeding a stream block-by-block is bit-exact with
    /// per-channel [`FixedDdc::process_block`] over the same blocks.
    ///
    /// The input is copied once into a shared buffer the workers read
    /// concurrently.
    pub fn submit_block(&mut self, input: &[i32]) -> Vec<Vec<Iq>> {
        let input = Arc::new(input.to_vec());
        if let Some(fm) = self.shared.metrics.get() {
            fm.batch_samples.record(input.len() as u64);
        }
        *self.shared.pending.lock().unwrap() = self.n_channels;
        let workers = self.workers.len();
        for ch in 0..self.n_channels {
            let job = Job {
                channel: ch,
                input: Arc::clone(&input),
                completion: Completion::Batch,
            };
            self.push_job(ch % workers, job);
        }
        self.shared.notify_workers();
        let mut pending = self.shared.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.shared.batch_done.wait(pending).unwrap();
        }
        drop(pending);
        self.shared
            .results
            .iter()
            .map(|m| std::mem::take(&mut *m.lock().unwrap()))
            .collect()
    }

    /// Enqueues a job on worker `w`, respecting the queue bound: if the
    /// queue is full the submitter wakes the workers and yields until
    /// space appears (back-pressure rather than unbounded growth).
    /// Stealing lets any worker drain the full queue in the meantime.
    fn push_job(&self, w: usize, job: Job) {
        let mut job = Some(job);
        loop {
            {
                let mut q = self.shared.queues[w].lock().unwrap();
                // A halting farm accepts the job unconditionally: the
                // cap only matters for steady-state back-pressure, and
                // blocking here against workers that are exiting would
                // spin forever. `submit_channel` reclaims jobs that no
                // worker ever picks up.
                if q.len() < self.shared.queue_cap || self.shared.stop.load(Ordering::Acquire) {
                    q.push_back(job.take().expect("job offered twice"));
                    if let Some(fm) = self.shared.metrics.get() {
                        fm.queue_depth.record(q.len() as u64);
                    }
                    break;
                }
            }
            self.shared.notify_workers();
            std::thread::yield_now();
        }
        self.shared.notify_workers();
    }

    /// Runs **one** channel over `input` and returns its output,
    /// leaving every other channel untouched. Unlike
    /// [`DdcFarm::submit_block`] this takes `&self`, so any number of
    /// threads may drive different channels of one shared farm
    /// concurrently (each channel's state is an independent mutex).
    ///
    /// Channel state persists across calls exactly as in
    /// `submit_block`. Returns `None` if the farm has been halted (via
    /// [`DdcFarm::halt`] or shutdown) before the job could run; jobs a
    /// worker has already started are always finished and returned.
    pub fn submit_channel(&self, channel: usize, input: &[i32]) -> Option<Vec<Iq>> {
        assert!(
            channel < self.n_channels,
            "channel {channel} out of range (farm has {})",
            self.n_channels
        );
        if self.shared.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(fm) = self.shared.metrics.get() {
            fm.batch_samples.record(input.len() as u64);
        }
        // Caller-runs fast path: when the channel slot is uncontended,
        // run the chain on the submitting thread instead of paying two
        // thread hand-offs (enqueue → worker wake, completion → waiter
        // wake). Contention (a stats read, a whole-farm batch touching
        // the slot) falls back to the queued path below, which copies
        // the input once into a buffer the worker owns.
        let mut out = Vec::new();
        if self.run_inline(channel, input, &mut out) {
            return Some(out);
        }
        let done = Arc::new(JobDone::default());
        let job = Job {
            channel,
            input: Arc::new(input.to_vec()),
            completion: Completion::Single(Arc::clone(&done)),
        };
        self.push_job(channel % self.workers.len().max(1), job);
        let mut result = done.result.lock().unwrap();
        loop {
            if let Some(out) = result.take() {
                return Some(out);
            }
            let (guard, timeout) = done
                .cv
                .wait_timeout(result, Duration::from_millis(20))
                .unwrap();
            result = guard;
            // Halted farm: if our job is still sitting in a queue no
            // worker will ever drain, pull it back out and report the
            // submission as not run. If it is *not* in a queue, a
            // worker owns it and will complete it — keep waiting.
            if timeout.timed_out()
                && self.shared.stop.load(Ordering::Acquire)
                && result.is_none()
                && self.shared.reclaim_single(&done)
            {
                return None;
            }
        }
    }

    /// Runs one batch on the submitting thread if the channel slot is
    /// uncontended, appending output to `out` and recording the same
    /// stats/telemetry as a worker would. Returns `false` on
    /// contention (caller takes the queued path).
    fn run_inline(&self, channel: usize, input: &[i32], out: &mut Vec<Iq>) -> bool {
        let Ok(mut slot) = self.shared.channels[channel].try_lock() else {
            return false;
        };
        let before = out.len();
        let t0 = Instant::now();
        slot.ddc.process_into(input, out);
        let busy = t0.elapsed();
        slot.record(input.len() as u64, (out.len() - before) as u64, busy);
        drop(slot);
        self.shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if let Some(fm) = self.shared.metrics.get() {
            let busy_ns = busy.as_nanos().min(u64::MAX as u128) as u64;
            fm.inline_jobs.inc();
            fm.inline_job_ns.record(busy_ns);
            // JOB_DONE lands in the control ring (no worker index
            // to attribute it to); drain_events merges the rings,
            // so consumers see one ordered job stream either way.
            fm.control_ring
                .push(kind::JOB_DONE, channel as u64, busy_ns);
        }
        true
    }

    /// Lifetime statistics of one channel.
    pub fn channel_stats(&self, channel: usize) -> ChannelStats {
        self.shared.channels[channel].lock().unwrap().stats
    }

    /// Signals the workers to stop (after draining already-queued
    /// jobs) **without** joining them — the `&self` form of shutdown
    /// for farms shared behind an `Arc`. Subsequent
    /// [`DdcFarm::submit_channel`] calls return `None`; the eventual
    /// drop still joins the worker threads. Idempotent.
    pub fn halt(&self) {
        let was_stopped = self.shared.stop.swap(true, Ordering::AcqRel);
        if !was_stopped {
            if let Some(fm) = self.shared.metrics.get() {
                fm.control_ring.push(
                    kind::CHANNEL_HALT,
                    self.shared.jobs_completed.load(Ordering::Relaxed),
                    0,
                );
            }
        }
        self.shared.notify_workers();
    }

    /// Snapshot of every channel's lifetime statistics, in channel
    /// order — one coherent epoch: every channel lock is held
    /// simultaneously before any stats are read, so the returned
    /// vector can never mix per-channel values from different points
    /// in time (workers take at most one channel lock, so the ordered
    /// acquisition cannot deadlock).
    pub fn stats(&self) -> Vec<ChannelStats> {
        self.stats_with_totals().0
    }

    /// Coherent per-channel stats plus the farm-wide totals, read in
    /// the same epoch (while all channel locks are held).
    pub fn stats_with_totals(&self) -> (Vec<ChannelStats>, FarmTotals) {
        let guards: Vec<_> = self
            .shared
            .channels
            .iter()
            .map(|c| c.lock().unwrap())
            .collect();
        let totals = self.totals();
        (guards.iter().map(|g| g.stats).collect(), totals)
    }

    /// Farm-wide lifetime totals.
    pub fn totals(&self) -> FarmTotals {
        FarmTotals {
            jobs_completed: self.shared.jobs_completed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            orphans_reclaimed: self.shared.orphans_reclaimed.load(Ordering::Relaxed),
        }
    }

    /// Installs telemetry: per-stage chain metrics on every channel
    /// (under the spec's own stage labels), per-worker job latency
    /// histograms and event rings, and submission-side queue-depth /
    /// batch-size histograms. Builder form, meant to run right after
    /// construction; idempotent (a second call is a no-op). All
    /// allocation happens here — steady-state recording is lock-free
    /// and allocation-free.
    pub fn with_telemetry(self) -> Self {
        if self.shared.metrics.get().is_some() {
            return self;
        }
        let fm = Arc::new(FarmMetrics::new(self.workers.len()));
        for (ch, slot) in self.shared.channels.iter().enumerate() {
            let mut slot = slot.lock().unwrap();
            let m = Arc::new(chain_metrics_for(slot.ddc.spec()));
            slot.ddc.set_metrics(MetricsHandle::enabled(m));
            fm.control_ring.push(kind::CHANNEL_CONFIGURE, ch as u64, 0);
        }
        let _ = self.shared.metrics.set(fm);
        self
    }

    /// The telemetry state, when [`DdcFarm::with_telemetry`] has run.
    pub fn telemetry(&self) -> Option<&Arc<FarmMetrics>> {
        self.shared.metrics.get()
    }

    /// Merge-and-drain of every worker's event ring plus the control
    /// ring, ordered by timestamp; returns the count of events newly
    /// detected as dropped. No-op returning 0 when telemetry is off.
    /// Single consumer: concurrent drains would race on ring cursors.
    pub fn drain_events(&self, out: &mut Vec<Event>) -> u64 {
        match self.shared.metrics.get() {
            Some(fm) => drain_merged(
                fm.worker_rings
                    .iter()
                    .chain(std::iter::once(&fm.control_ring)),
                out,
            ),
            None => 0,
        }
    }

    /// Exports everything the farm measures as a [`MetricsSnapshot`]:
    /// farm totals, per-worker job counters and latency histograms,
    /// queue-depth and batch-size histograms, per-channel lifetime
    /// stats, and — via the per-channel [`ChainMetrics`] — per-stage
    /// block counters and latency histograms under the ChainSpec stage
    /// labels. Returns `None` when telemetry is off.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let fm = self.shared.metrics.get()?;
        let mut snap = MetricsSnapshot::new();

        // One coherent pass over the channels: stats and the chain
        // metric handles are read while every channel lock is held.
        let guards: Vec<_> = self
            .shared
            .channels
            .iter()
            .map(|c| c.lock().unwrap())
            .collect();
        let totals = self.totals();
        type ChannelView = (
            ChannelStats,
            Option<Arc<ChainMetrics>>,
            Vec<(String, &'static str)>,
        );
        let channels: Vec<ChannelView> = guards
            .iter()
            .map(|g| {
                (
                    g.stats,
                    g.ddc.metrics().shared().cloned(),
                    g.ddc.stage_kernels(),
                )
            })
            .collect();
        drop(guards);

        snap.push_counter("ddc_farm_workers", self.workers.len() as u64);
        snap.push_counter("ddc_farm_channels", self.n_channels as u64);
        snap.push_counter("ddc_farm_jobs_completed_total", totals.jobs_completed);
        snap.push_counter("ddc_farm_steals_total", totals.steals);
        snap.push_counter("ddc_farm_orphans_reclaimed_total", totals.orphans_reclaimed);
        let produced: u64 = fm
            .worker_rings
            .iter()
            .chain(std::iter::once(&fm.control_ring))
            .map(|r| r.produced())
            .sum();
        let dropped: u64 = fm
            .worker_rings
            .iter()
            .chain(std::iter::once(&fm.control_ring))
            .map(|r| r.dropped())
            .sum();
        snap.push_counter("ddc_events_produced_total", produced);
        snap.push_counter("ddc_events_dropped_total", dropped);
        snap.push_hist("ddc_queue_depth", fm.queue_depth.snapshot());
        snap.push_hist("ddc_batch_samples", fm.batch_samples.snapshot());
        snap.push_counter("ddc_farm_inline_jobs_total", fm.inline_jobs.get());
        snap.push_hist("ddc_farm_inline_job_ns", fm.inline_job_ns.snapshot());
        for (w, (jobs, ns)) in fm.worker_jobs.iter().zip(&fm.worker_job_ns).enumerate() {
            snap.push_counter(
                format!("ddc_worker_jobs_total{{worker=\"{w}\"}}"),
                jobs.get(),
            );
            snap.push_hist(
                format!("ddc_worker_job_ns{{worker=\"{w}\"}}"),
                ns.snapshot(),
            );
        }
        for (ch, (stats, cm, kernels)) in channels.iter().enumerate() {
            stats.push_metrics(&mut snap, ch as u64, cm.as_deref(), kernels);
        }
        Some(snap)
    }

    /// Current queue depth per worker — the backlog a monitor would
    /// watch. All zeros between batches (submission is synchronous).
    pub fn backlog(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|q| q.lock().unwrap().len())
            .collect()
    }

    /// Stops the workers and joins them. Called automatically on drop;
    /// explicit form for callers that want to observe join panics.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.halt();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DdcFarm {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DdcConfig;
    use ddc_dsp::signal::{adc_quantize, SampleSource, Tone, WhiteNoise};

    /// Total decimation of the reference chain the tests drive.
    const D: usize = crate::spec::DRM_TOTAL_DECIMATION as usize;

    fn test_input(n: usize, seed: u64) -> Vec<i32> {
        let mut src = ddc_dsp::signal::Mix(
            Tone::new(10_003_000.0, 64_512_000.0, 0.6, 0.1),
            WhiteNoise::new(seed, 0.1),
        );
        adc_quantize(&src.take_vec(n), 12)
    }

    #[test]
    fn farm_matches_sequential_chains_across_batches() {
        let cfgs = vec![
            DdcConfig::drm(10e6),
            DdcConfig::drm(20e6),
            DdcConfig::drm(5e6),
            DdcConfig::drm(25e6),
        ];
        let block_a = test_input(D * 4, 3);
        let block_b = test_input(D * 3 + 511, 4);
        let mut farm = DdcFarm::new(cfgs.clone());
        let got_a = farm.submit_block(&block_a);
        let got_b = farm.submit_block(&block_b);
        for (k, cfg) in cfgs.iter().enumerate() {
            let mut solo = FixedDdc::new(cfg.clone());
            assert_eq!(got_a[k], solo.process_block(&block_a), "batch A ch {k}");
            assert_eq!(got_b[k], solo.process_block(&block_b), "batch B ch {k}");
        }
    }

    #[test]
    fn farm_with_fewer_workers_than_channels_steals_work() {
        let cfgs: Vec<DdcConfig> = (1..=6).map(|k| DdcConfig::drm(k as f64 * 4e6)).collect();
        let input = test_input(D * 2, 9);
        let mut farm = DdcFarm::with_workers(cfgs.clone(), 2);
        assert_eq!(farm.worker_count(), 2);
        let got = farm.submit_block(&input);
        assert_eq!(got.len(), 6);
        for (k, cfg) in cfgs.iter().enumerate() {
            let mut solo = FixedDdc::new(cfg.clone());
            assert_eq!(got[k], solo.process_block(&input), "channel {k}");
        }
    }

    #[test]
    fn stats_accumulate_and_report_throughput() {
        let mut farm = DdcFarm::new(vec![DdcConfig::drm(10e6)]);
        let input = test_input(D * 2, 5);
        farm.submit_block(&input);
        farm.submit_block(&input);
        let stats = farm.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].batches, 2);
        assert_eq!(stats[0].samples_in, 2 * input.len() as u64);
        assert!(stats[0].throughput_msps().unwrap_or(0.0) > 0.0);
        assert!(farm.backlog().iter().all(|&d| d == 0));
    }

    #[test]
    fn empty_input_batch_returns_empty_outputs() {
        let mut farm = DdcFarm::new(vec![DdcConfig::drm(10e6), DdcConfig::drm(20e6)]);
        let got = farm.submit_block(&[]);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn explicit_shutdown_joins_cleanly() {
        let mut farm = DdcFarm::with_workers(vec![DdcConfig::drm(10e6)], 1);
        let _ = farm.submit_block(&test_input(D, 1));
        farm.shutdown();
    }

    #[test]
    fn submit_channel_matches_solo_chain_and_leaves_others_alone() {
        let cfgs = vec![DdcConfig::drm(10e6), DdcConfig::drm(20e6)];
        let block_a = test_input(D * 3, 21);
        let block_b = test_input(D * 2 + 97, 22);
        let farm = DdcFarm::new(cfgs.clone());
        let got_a = farm.submit_channel(1, &block_a).expect("farm running");
        let got_b = farm.submit_channel(1, &block_b).expect("farm running");
        let mut solo = FixedDdc::new(cfgs[1].clone());
        assert_eq!(got_a, solo.process_block(&block_a));
        assert_eq!(got_b, solo.process_block(&block_b));
        // channel 0 never ran
        let stats = farm.stats();
        assert_eq!(stats[0].batches, 0);
        assert_eq!(stats[1].batches, 2);
    }

    #[test]
    fn concurrent_channel_submissions_are_independent() {
        let cfgs: Vec<DdcConfig> = (1..=4).map(|k| DdcConfig::drm(k as f64 * 5e6)).collect();
        let farm = Arc::new(DdcFarm::with_workers(cfgs.clone(), 2));
        let blocks: Vec<Vec<i32>> = (0..4)
            .map(|k| test_input(D * 2 + k * 31, k as u64))
            .collect();
        let mut handles = Vec::new();
        for (ch, block) in blocks.iter().enumerate() {
            let farm = Arc::clone(&farm);
            let block = block.clone();
            handles.push(std::thread::spawn(move || {
                let mut all = Vec::new();
                for _ in 0..3 {
                    all.extend(farm.submit_channel(ch, &block).expect("farm running"));
                }
                all
            }));
        }
        for (ch, h) in handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            let mut solo = FixedDdc::new(cfgs[ch].clone());
            let mut expect = Vec::new();
            for _ in 0..3 {
                expect.extend(solo.process_block(&blocks[ch]));
            }
            assert_eq!(got, expect, "channel {ch}");
        }
    }

    #[test]
    fn zero_length_submission_is_a_clean_no_op() {
        let farm = DdcFarm::new(vec![DdcConfig::drm(10e6)]);
        let out = farm.submit_channel(0, &[]).expect("farm running");
        assert!(out.is_empty());
        // the empty batch is still accounted for
        assert_eq!(farm.channel_stats(0).batches, 1);
        assert_eq!(farm.channel_stats(0).samples_in, 0);
    }

    #[test]
    fn submitting_after_halt_returns_none() {
        let farm = DdcFarm::with_workers(vec![DdcConfig::drm(10e6)], 1);
        assert!(farm.submit_channel(0, &test_input(D, 7)).is_some());
        farm.halt();
        farm.halt(); // idempotent
        assert!(farm.submit_channel(0, &test_input(D, 8)).is_none());
    }

    #[test]
    fn telemetry_is_bit_exact_and_exports_per_stage_metrics() {
        let cfgs = vec![DdcConfig::drm(10e6), DdcConfig::drm(20e6)];
        let block = test_input(D * 4, 51);
        let mut plain = DdcFarm::with_workers(cfgs.clone(), 2);
        let mut instrumented = DdcFarm::with_workers(cfgs, 2).with_telemetry();
        for _ in 0..3 {
            assert_eq!(
                instrumented.submit_block(&block),
                plain.submit_block(&block),
                "telemetry must not change the datapath"
            );
        }
        let snap = instrumented.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("ddc_farm_channels"), Some(2));
        assert_eq!(snap.counter("ddc_farm_jobs_completed_total"), Some(6));
        for ch in 0..2 {
            assert_eq!(
                snap.counter(&format!("ddc_channel_batches_total{{channel=\"{ch}\"}}")),
                Some(3)
            );
            // Per-stage counters under the spec-derived stage labels.
            let head = format!("ddc_stage_samples_in_total{{channel=\"{ch}\",stage=\"cic2r16\"}}");
            assert_eq!(snap.counter(&head), Some(3 * block.len() as u64));
            let lat = format!("ddc_stage_latency_ns{{channel=\"{ch}\",stage=\"fir125r8\"}}");
            let h = snap.histogram(&lat).expect("stage latency exported");
            assert_eq!(h.count, 3);
            assert!(h.max > 0);
            // Each stage reports the kernel it resolved to as an info
            // gauge; the DRM FIR never runs the generic fallback.
            let fir_info = snap
                .counters
                .iter()
                .find(|(name, _)| {
                    name.starts_with("ddc_stage_kernel_info{")
                        && name.contains(&format!("channel=\"{ch}\""))
                        && name.contains("stage=\"fir125r8\"")
                })
                .map(|(name, v)| (name.clone(), *v))
                .expect("FIR kernel info exported");
            assert_eq!(fir_info.1, 1);
            assert!(!fir_info.0.contains("kernel=\"generic\""), "{}", fir_info.0);
        }
        // Batch-size histogram saw each submit at block granularity.
        let bs = snap.histogram("ddc_batch_samples").unwrap();
        assert_eq!(bs.count, 3);
        assert_eq!(bs.max, block.len() as u64);
        // Serializers run end-to-end on a real snapshot.
        assert!(snap
            .to_prometheus()
            .contains("# TYPE ddc_stage_latency_ns histogram"));
        assert!(snap.to_json().starts_with("{\"counters\":{"));
        // A plain farm exports nothing.
        assert!(plain.metrics_snapshot().is_none());
    }

    #[test]
    fn drain_events_merges_job_and_control_events() {
        let farm = DdcFarm::with_workers(vec![DdcConfig::drm(10e6), DdcConfig::drm(20e6)], 2)
            .with_telemetry();
        let block = test_input(D, 52);
        for ch in 0..2 {
            let _ = farm.submit_channel(ch, &block).unwrap();
        }
        let _ = farm.submit_channel(1, &block).unwrap();
        farm.halt();
        let mut events = Vec::new();
        let dropped = farm.drain_events(&mut events);
        assert_eq!(dropped, 0);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let count = |k: u64| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(ddc_obs::kind::CHANNEL_CONFIGURE), 2);
        assert_eq!(count(ddc_obs::kind::CHANNEL_HALT), 1, "halt is idempotent");
        assert_eq!(count(ddc_obs::kind::JOB_DONE), 3);
        // JOB_DONE events carry the channel and a nonzero latency.
        let job = events
            .iter()
            .find(|e| e.kind == ddc_obs::kind::JOB_DONE)
            .unwrap();
        assert!(job.a < 2);
        assert!(job.b > 0);
    }

    #[test]
    fn totals_count_jobs_across_submission_paths() {
        let mut farm = DdcFarm::with_workers(vec![DdcConfig::drm(10e6)], 1).with_telemetry();
        let block = test_input(D * 2, 53);
        let _ = farm.submit_block(&block);
        let (stats, totals) = farm.stats_with_totals();
        assert_eq!(stats.len(), 1);
        assert_eq!(totals.jobs_completed, 1);
        let _ = farm.submit_channel(0, &block).unwrap();
        let snap = farm.metrics_snapshot().unwrap();
        assert_eq!(
            snap.counter("ddc_stage_blocks_total{channel=\"0\",stage=\"fir125r8\"}"),
            Some(2)
        );
        assert_eq!(snap.counter("ddc_farm_inline_jobs_total"), Some(1));
        assert_eq!(farm.totals().jobs_completed, 2);
    }

    #[test]
    fn stats_snapshots_are_consistent_while_workers_are_mid_batch() {
        let cfgs: Vec<DdcConfig> = (1..=3).map(|k| DdcConfig::drm(k as f64 * 6e6)).collect();
        let mut farm = DdcFarm::new(cfgs);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&farm.shared);
        let watcher = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Hammer the same locks the stats()/backlog() paths use
                // while batches are in flight; snapshots must never
                // tear (samples_in is a whole number of batch lengths)
                // nor move backwards.
                let mut last = [0u64; 3];
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (ch, last) in last.iter_mut().enumerate() {
                        let s = shared.channels[ch].lock().unwrap().stats;
                        assert_eq!(s.samples_in % D as u64, 0, "torn snapshot");
                        assert!(s.samples_in >= *last, "stats moved backwards");
                        *last = s.samples_in;
                    }
                    snaps += 1;
                }
                snaps
            })
        };
        let block = test_input(D, 41);
        for _ in 0..50 {
            let _ = farm.submit_block(&block);
        }
        stop.store(true, Ordering::Relaxed);
        assert!(watcher.join().unwrap() > 0);
        for s in farm.stats() {
            assert_eq!(s.batches, 50);
            assert_eq!(s.samples_in, 50 * D as u64);
        }
    }
}

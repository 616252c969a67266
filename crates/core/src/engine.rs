//! Persistent multi-channel DDC execution engine.
//!
//! The paper benchmarks the GC4016 — a *quad* DDC: four independent
//! channels downconverting the same ADC stream. [`DdcFarm`] is the
//! host-side analogue scaled past four: a fixed set of channels, each
//! with its own persistent [`FixedDdc`] state, run two ways:
//!
//! * **a batch pool** — [`DdcFarm::submit_block`] runs every channel
//!   over one input batch on worker threads spawned **once** and reused
//!   across batches. Submission deals one job per channel round-robin
//!   across per-worker queues; an idle worker drains its own queue
//!   front to back, then steals from the *back* of its neighbours'
//!   queues, so a channel mix with uneven per-channel cost still
//!   saturates cores. A queue never holds more than one batch's share
//!   of jobs, because the submitter waits for the batch to finish.
//! * **inline single-channel runs** — [`DdcFarm::submit_channel`] runs
//!   one channel on the calling thread under that channel's mutex, so
//!   threads sharing one farm may drive different channels at once.
//!
//! Filter state persists across calls on both paths, so streaming a
//! signal through the farm in successive blocks is bit-exact with
//! streaming it through per-channel [`FixedDdc`]s. On drop (or
//! [`DdcFarm::shutdown`]) the workers observe the stop flag and join.
//!
//! Only `std` primitives are used (`Mutex`, `Condvar`, atomics,
//! `thread`), matching the repo's no-external-deps constraint.

use crate::chain::FixedDdc;
use crate::mixer::Iq;
use crate::spec::ChainSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One unit of work: run channel `channel` over `input`.
struct Job {
    channel: usize,
    input: Arc<Vec<i32>>,
}

/// A channel's persistent state and its output for the batch in flight
/// (one batch at a time: submission is serialised by `&mut self`).
struct Channel {
    ddc: FixedDdc,
    batch_out: Vec<Iq>,
}

/// Locks a farm mutex. Poisoning means a farm thread panicked inside a
/// chain, a bug the farm does not try to survive.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a farm thread panicked holding this lock")
}

/// Everything shared between the submitter and the workers.
struct Shared {
    /// One FIFO per worker.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Channel states, lockable independently so stolen jobs for
    /// different channels never contend.
    channels: Vec<Mutex<Channel>>,
    /// Count of jobs not yet finished in the current batch, and the
    /// condvar the submitter waits on.
    pending: Mutex<usize>,
    batch_done: Condvar,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    work_ready: Condvar,
    stop: AtomicBool,
}

impl Shared {
    /// Pops a job: own queue from the front, otherwise steal from the
    /// back of a neighbour's.
    fn find_job(&self, me: usize) -> Option<Job> {
        if let Some(job) = lock(&self.queues[me]).pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        (1..n).find_map(|off| lock(&self.queues[(me + off) % n]).pop_back())
    }

    fn any_job_queued(&self) -> bool {
        self.queues.iter().any(|q| !lock(q).is_empty())
    }

    /// Wakes sleeping workers. Taking the idle lock (even empty)
    /// orders this notify against a worker that has scanned the queues
    /// and is about to wait: either our enqueue is visible to its
    /// under-lock re-check, or it is already waiting and receives the
    /// notification. The workers' `wait_timeout` is only a backstop.
    /// The idle lock guards no data, so a poisoned one serves as well.
    fn notify_workers(&self) {
        drop(self.idle.lock());
        self.work_ready.notify_all();
    }

    /// Runs one job to completion and signals the submitter when it
    /// was the batch's last.
    fn run_job(&self, job: Job) {
        {
            let mut ch = lock(&self.channels[job.channel]);
            let Channel { ddc, batch_out } = &mut *ch;
            ddc.process_into(&job.input, batch_out);
        }
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.batch_done.notify_all();
        }
    }
}

fn worker_loop(me: usize, shared: Arc<Shared>) {
    loop {
        if let Some(job) = shared.find_job(me) {
            shared.run_job(job);
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let guard = lock(&shared.idle);
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
        let channels = specs
            .into_iter()
            .map(|spec| {
                Mutex::new(Channel {
                    ddc: FixedDdc::from_spec(spec.into()),
                    batch_out: Vec::new(),
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            channels,
            pending: Mutex::new(0),
            batch_done: Condvar::new(),
            idle: Mutex::new(()),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
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
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.shared.channels.len()
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
        let n_channels = self.channel_count();
        *lock(&self.shared.pending) = n_channels;
        for channel in 0..n_channels {
            let job = Job {
                channel,
                input: Arc::clone(&input),
            };
            lock(&self.shared.queues[channel % self.workers.len()]).push_back(job);
        }
        self.shared.notify_workers();
        let mut pending = lock(&self.shared.pending);
        while *pending > 0 {
            pending = self
                .shared
                .batch_done
                .wait(pending)
                .expect("a farm worker panicked holding the batch counter");
        }
        drop(pending);
        self.shared
            .channels
            .iter()
            .map(|c| std::mem::take(&mut lock(c).batch_out))
            .collect()
    }

    /// Runs **one** channel over `input` on the calling thread and
    /// returns its output, leaving every other channel untouched.
    /// Unlike [`DdcFarm::submit_block`] this takes `&self`, so any
    /// number of threads may drive different channels of one shared
    /// farm concurrently (each channel's state is an independent
    /// mutex, held for the run).
    ///
    /// Channel state persists across calls exactly as in
    /// `submit_block`. Always returns `Some`.
    pub fn submit_channel(&self, channel: usize, input: &[i32]) -> Option<Vec<Iq>> {
        assert!(
            channel < self.channel_count(),
            "channel {channel} out of range (farm has {})",
            self.channel_count()
        );
        let mut out = Vec::new();
        lock(&self.shared.channels[channel])
            .ddc
            .process_into(input, &mut out);
        Some(out)
    }

    /// Stops the workers and joins them. Dropping the farm does the
    /// same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.notify_workers();
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
        let block_c = test_input(D * 2, 23);
        let mut farm = DdcFarm::new(cfgs.clone());
        let got_a = farm.submit_channel(1, &block_a).expect("farm running");
        let got_b = farm.submit_channel(1, &block_b).expect("farm running");
        let mut solo = FixedDdc::new(cfgs[1].clone());
        assert_eq!(got_a, solo.process_block(&block_a));
        assert_eq!(got_b, solo.process_block(&block_b));
        // Channel 0 never ran: its next batch matches a fresh chain,
        // while channel 1 carries on from its state.
        let got_c = farm.submit_block(&block_c);
        let mut fresh = FixedDdc::new(cfgs[0].clone());
        assert_eq!(got_c[0], fresh.process_block(&block_c));
        assert_eq!(got_c[1], solo.process_block(&block_c));
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
        let block = test_input(D * 2, 7);
        let farm = DdcFarm::new(vec![DdcConfig::drm(10e6)]);
        let out = farm.submit_channel(0, &[]).expect("farm running");
        assert!(out.is_empty());
        // The empty batch left the channel's state as it was.
        let mut fresh = FixedDdc::new(DdcConfig::drm(10e6));
        assert_eq!(
            farm.submit_channel(0, &block).expect("farm running"),
            fresh.process_block(&block)
        );
    }
}

//! Per-layer replays for the traced run. After the live run has ended
//! (so a replay never competes with the server for CPU), each
//! server-side layer's public entry point is called from here on the
//! live run's own batches, with a span around every call and the live
//! batch's trace id on it. Every replayed output is checked against what
//! the server sent for that batch, so a replay that measures something
//! other than the served work fails the run.
//!
//! A replay goes through the acked batches in order, one call per batch,
//! so its caller can cut it into passes and keep the pass that ran at
//! the host's undisturbed speed.

use crate::live::{self, SessionPlan, SessionRec, Stimulus};
use ddc_core::cic::CicDecimator;
use ddc_core::fir::SequentialFir;
use ddc_core::mixer::Iq;
use ddc_core::{Channelizer, DdcConfig, DdcFarm, FixedDdc, FusedFrontEnd};
use ddc_obs::TraceSink;
use ddc_server::wire::{decode_header, decode_payload, decode_samples_into, FrameBuf, WireError};
use std::time::Instant;

/// The replay's execution track (live sessions use 0 and 1).
pub const REPLAY_TRACK: u32 = 2;

/// Span names of the replayed layers.
pub mod name {
    /// Root of one replayed batch's path through the server.
    pub const BATCH: &str = "replay.batch";
    /// Root of the stage-by-stage chain replay.
    pub const STAGES: &str = "replay.stages";
    /// `FusedFrontEnd::process_block` (NCO, mixer, CIC1).
    pub const FRONTEND: &str = "frontend";
    /// `CicDecimator::process_block` on I and Q (CIC2).
    pub const CIC: &str = "cic";
    /// `SequentialFir::process_block` on I and Q.
    pub const FIR: &str = "fir";
    /// `FixedDdc::process_into`.
    pub const CHAIN: &str = "chain";
    /// `DdcFarm::submit_channel`.
    pub const ENGINE: &str = "engine.submit";
    /// `FrameBuf::encode_samples`.
    pub const ENCODE_SAMPLES: &str = "wire.encode_samples";
    /// `decode_header` + `decode_samples_into`.
    pub const DECODE_SAMPLES: &str = "wire.decode_samples";
    /// `FrameBuf::encode_iq`.
    pub const ENCODE_IQ: &str = "wire.encode_iq";
    /// `decode_header` + `decode_payload` of an Iq frame.
    pub const DECODE_IQ: &str = "wire.decode_iq";
    /// `Channelizer::compute_branches`.
    pub const BRANCHES: &str = "channelizer.branches";
    /// `Channelizer::transform_outputs`.
    pub const FFT: &str = "channelizer.fft";
}

/// Records spans on the replay track against one sink.
pub struct Recorder<'a> {
    /// The sink.
    pub sink: &'a TraceSink,
    /// Time zero of the spans.
    pub origin: Instant,
}

impl Recorder<'_> {
    fn span(&self, trace_id: u64, name: &str, t0: Instant, t1: Instant) {
        let idx = self.sink.register_name(name);
        self.sink.span(
            REPLAY_TRACK,
            trace_id,
            idx,
            live::ns_since(self.origin, t0),
            live::ns_since(self.origin, t1),
        );
    }
}

fn wire_err(e: WireError) -> String {
    format!("replayed frame does not decode: {e}")
}

fn same(got: &[(i64, i64)], want: &[Iq]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.0 == w.i && g.1 == w.q)
}

/// A session's acked batches, replayed one at a time.
pub trait Replay {
    /// Replays the next acked batch; `Ok(false)` once none is left.
    fn next(&mut self, r: &Recorder) -> Result<bool, String>;
}

/// The served outputs of acked batch after batch.
struct Served<'a> {
    k: usize,
    rec: &'a SessionRec,
    b: u64,
    off: usize,
}

impl<'a> Served<'a> {
    /// The next batch's index and served outputs.
    fn next(&mut self) -> Option<(u64, &'a [(i64, i64)])> {
        if self.b >= self.rec.acked {
            return None;
        }
        let b = self.b;
        let n = self.rec.counts[b as usize] as usize;
        let out = &self.rec.outputs[self.off..self.off + n];
        self.b += 1;
        self.off += n;
        Some((b, out))
    }
}

/// A DRM chain session's batches through the chain's stages, the whole
/// chain, the farm and the wire codecs.
pub struct ChainReplay<'a> {
    served: Served<'a>,
    stim: &'a Stimulus,
    front: FusedFrontEnd,
    cic: [CicDecimator; 2],
    fir: [SequentialFir; 2],
    chain: FixedDdc,
    farm: DdcFarm,
    enc: FrameBuf,
    samples: Vec<i32>,
    bufs: [Vec<i64>; 6],
    out: Vec<Iq>,
}

impl<'a> ChainReplay<'a> {
    /// Session `k`'s replay.
    pub fn new(k: usize, plan: &SessionPlan, stim: &'a Stimulus, rec: &'a SessionRec) -> Self {
        let cfg = DdcConfig::drm(plan.tune);
        let f = cfg.format;
        let cic = CicDecimator::new(cfg.cic2_order, cfg.cic2_decim, f.data_bits, f.data_bits);
        let coeffs = ddc_dsp::firdes::quantize_taps(&cfg.fir_taps, f.coeff_bits, f.coeff_frac());
        let fir = SequentialFir::new(
            &coeffs,
            cfg.fir_decim,
            f.data_bits,
            f.coeff_bits,
            f.fir_acc_bits,
        );
        ChainReplay {
            served: Served { k, rec, b: 0, off: 0 },
            stim,
            front: FusedFrontEnd::new(&cfg),
            cic: [cic.clone(), cic],
            fir: [fir.clone(), fir],
            chain: FixedDdc::from_spec(live::chain_spec(plan.tune)),
            farm: DdcFarm::new(vec![live::chain_spec(plan.tune)]),
            enc: FrameBuf::new(),
            samples: Vec::with_capacity(plan.batch),
            bufs: Default::default(),
            out: Vec::new(),
        }
    }
}

impl Replay for ChainReplay<'_> {
    fn next(&mut self, r: &Recorder) -> Result<bool, String> {
        let Some((b, acked)) = self.served.next() else {
            return Ok(false);
        };
        let id = live::trace_id(self.served.k, b);
        let input = self.stim.batch(b);
        let timing = self.served.rec.timing.get(b as usize).copied();
        for v in self.bufs.iter_mut() {
            v.clear();
        }
        let [fi, fq, ci, cq, oi, oq] = &mut self.bufs;
        let t0 = Instant::now();
        self.front.process_block(input, fi, fq);
        let t1 = Instant::now();
        self.cic[0].process_block(fi, ci);
        self.cic[1].process_block(fq, cq);
        let t2 = Instant::now();
        self.fir[0].process_block(ci, oi);
        self.fir[1].process_block(cq, oq);
        let t3 = Instant::now();
        r.span(id, name::STAGES, t0, t3);
        r.span(id, name::FRONTEND, t0, t1);
        r.span(id, name::CIC, t1, t2);
        r.span(id, name::FIR, t2, t3);
        let staged: Vec<Iq> = oi.iter().zip(oq.iter()).map(|(&i, &q)| Iq { i, q }).collect();
        if !same(acked, &staged) {
            return Err(format!(
                "stage replay of batch {b} differs from the served output"
            ));
        }

        self.out.clear();
        let t0 = Instant::now();
        self.chain.process_into(input, &mut self.out);
        r.span(id, name::CHAIN, t0, Instant::now());
        if !same(acked, &self.out) {
            return Err(format!(
                "chain replay of batch {b} differs from the served output"
            ));
        }

        let t0 = Instant::now();
        self.enc.encode_samples(b as u32, b, input);
        r.span(id, name::ENCODE_SAMPLES, t0, Instant::now());

        // One batch's path through the server, as the server takes it.
        self.samples.clear();
        let t0 = Instant::now();
        let header = decode_header(&self.enc.header).map_err(wire_err)?;
        decode_samples_into(&header, &self.enc.payload, &mut self.samples).map_err(wire_err)?;
        let t1 = Instant::now();
        let job = self
            .farm
            .submit_channel(0, &self.samples)
            .ok_or("the replay farm refused a batch")?;
        let t2 = Instant::now();
        self.enc.encode_iq(b as u32, b, 0, &job, timing, 0);
        let t3 = Instant::now();
        let header = decode_header(&self.enc.header).map_err(wire_err)?;
        let frame = decode_payload(&header, &self.enc.payload).map_err(wire_err)?;
        let t4 = Instant::now();
        std::hint::black_box(frame);
        r.span(id, name::BATCH, t0, t4);
        r.span(id, name::DECODE_SAMPLES, t0, t1);
        r.span(id, name::ENGINE, t1, t2);
        r.span(id, name::ENCODE_IQ, t2, t3);
        r.span(id, name::DECODE_IQ, t3, t4);
        if !same(acked, &job) {
            return Err(format!(
                "farm replay of batch {b} differs from the served output"
            ));
        }
        Ok(true)
    }
}

/// The channelizer ingest's batches through the wire codecs and the
/// bank's two stages, checking the subscribed channel against the
/// subscriber's frames.
pub struct BankReplay<'a> {
    served: Served<'a>,
    stim: &'a Stimulus,
    bank: Channelizer,
    row: usize,
    out: Vec<Vec<Iq>>,
    enc: FrameBuf,
    samples: Vec<i32>,
}

impl<'a> BankReplay<'a> {
    /// The ingest session `k`'s replay under workload seed `seed`.
    pub fn new(
        k: usize,
        seed: u64,
        stim: &'a Stimulus,
        rec: &'a SessionRec,
    ) -> Result<Self, String> {
        let bank = Channelizer::from_spec(live::channelizer_spec())
            .map_err(|e| format!("replay bank: {e:?}"))?;
        let channel = live::subscribed_channel(seed) as usize;
        let row = bank
            .enabled_channels()
            .iter()
            .position(|&c| c == channel)
            .ok_or("subscribed channel is not enabled")?;
        Ok(BankReplay {
            served: Served { k, rec, b: 0, off: 0 },
            stim,
            out: vec![Vec::new(); bank.enabled_channels().len()],
            bank,
            row,
            enc: FrameBuf::new(),
            samples: Vec::with_capacity(stim.batch(0).len()),
        })
    }
}

impl Replay for BankReplay<'_> {
    fn next(&mut self, r: &Recorder) -> Result<bool, String> {
        let Some((b, served)) = self.served.next() else {
            return Ok(false);
        };
        let id = live::trace_id(self.served.k, b);
        let input = self.stim.batch(b);
        let t0 = Instant::now();
        self.enc.encode_samples(b as u32, b, input);
        r.span(id, name::ENCODE_SAMPLES, t0, Instant::now());

        self.samples.clear();
        for v in self.out.iter_mut() {
            v.clear();
        }
        let t0 = Instant::now();
        let header = decode_header(&self.enc.header).map_err(wire_err)?;
        decode_samples_into(&header, &self.enc.payload, &mut self.samples).map_err(wire_err)?;
        let t1 = Instant::now();
        let n_out = self.bank.compute_branches(&self.samples);
        let t2 = Instant::now();
        self.bank.transform_outputs(n_out, &mut self.out);
        let t3 = Instant::now();
        self.enc.encode_iq(b as u32, b, 0, &self.out[self.row], None, 0);
        let t4 = Instant::now();
        let header = decode_header(&self.enc.header).map_err(wire_err)?;
        let frame = decode_payload(&header, &self.enc.payload).map_err(wire_err)?;
        let t5 = Instant::now();
        std::hint::black_box(frame);
        r.span(id, name::BATCH, t0, t5);
        r.span(id, name::DECODE_SAMPLES, t0, t1);
        r.span(id, name::BRANCHES, t1, t2);
        r.span(id, name::FFT, t2, t3);
        r.span(id, name::ENCODE_IQ, t3, t4);
        r.span(id, name::DECODE_IQ, t4, t5);
        if !same(served, &self.out[self.row]) {
            return Err(format!(
                "channelizer replay of batch {b} differs from the subscriber's frame"
            ));
        }
        Ok(true)
    }
}

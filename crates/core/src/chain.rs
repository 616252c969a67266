//! The assembled DDC chains (Figure 1 of the paper).
//!
//! [`ReferenceDdc`] is the floating-point golden model; [`FixedDdc`]
//! is the bit-true datapath the architecture simulators are verified
//! against. Both consume the real ADC stream and produce complex
//! baseband output at `input_rate / 2688` (for the DRM preset).
//! [`DdcFarm`] holds several `FixedDdc` channels behind one shared
//! handle.

use crate::activity::ChainProbes;
use crate::cic::CicDecimator;
use crate::fir::{PolyphaseFir, SequentialFir};
use crate::mixer::{mix_f64, FixedMixer, Iq};
use crate::nco::{CosSin, LutNco, RefOscillator};
use crate::params::DdcConfig;
use crate::spec::{ChainSpec, StageSpec};
use ddc_dsp::firdes::quantize_taps;
use ddc_dsp::C64;
use ddc_obs::{ChainMetrics, MetricsHandle, TraceHandle};
use std::sync::Mutex;
use std::time::Instant;

/// Builds zeroed per-stage telemetry matching `spec`'s stage labels
/// (`cic2r16`, `fir125r8`, ...) — the layout
/// [`FixedDdc::process_into`] records into when a handle built from it
/// is installed with [`FixedDdc::with_metrics`].
pub fn chain_metrics_for(spec: &ChainSpec) -> ChainMetrics {
    ChainMetrics::new(spec.stages.iter().map(|s| s.label()))
}

/// Nanoseconds since `t` (0 when telemetry is off and `t` is `None`).
#[inline]
fn elapsed_ns(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
}

/// A floating-point CIC decimator with unit DC gain — numerically
/// ideal, used only inside the reference chain.
#[derive(Clone, Debug)]
struct FloatCic {
    integrators: Vec<f64>,
    combs: Vec<f64>,
    decim: u32,
    phase: u32,
    norm: f64,
}

impl FloatCic {
    fn new(order: u32, decim: u32) -> Self {
        FloatCic {
            integrators: vec![0.0; order as usize],
            combs: vec![0.0; order as usize],
            decim,
            phase: 0,
            norm: 1.0 / (decim as f64).powi(order as i32),
        }
    }

    #[inline]
    fn process(&mut self, x: f64) -> Option<f64> {
        let mut v = x;
        for acc in self.integrators.iter_mut() {
            *acc += v;
            v = *acc;
        }
        self.phase += 1;
        if self.phase < self.decim {
            return None;
        }
        self.phase = 0;
        for d in self.combs.iter_mut() {
            let delayed = *d;
            *d = v;
            v -= delayed;
        }
        Some(v * self.norm)
    }

    /// Grouped block kernel, bit-exact with [`FloatCic::process`] (the
    /// f64 operations run in the identical order): integrators run
    /// branch-free to each decimation boundary, combs once per group.
    fn process_block(&mut self, input: &[f64], out: &mut Vec<f64>) {
        out.reserve(input.len() / self.decim as usize + 1);
        let r = self.decim as usize;
        let mut i = 0;
        while i < input.len() {
            let take = (r - self.phase as usize).min(input.len() - i);
            for &x in &input[i..i + take] {
                let mut v = x;
                for acc in self.integrators.iter_mut() {
                    *acc += v;
                    v = *acc;
                }
            }
            i += take;
            self.phase += take as u32;
            if self.phase == self.decim {
                self.phase = 0;
                let mut v = *self.integrators.last().expect("order >= 1");
                for d in self.combs.iter_mut() {
                    let delayed = *d;
                    *d = v;
                    v -= delayed;
                }
                out.push(v * self.norm);
            }
        }
    }
}

/// Reusable intermediate buffers for [`ReferenceDdc::process_into`].
/// `Vec::clear` keeps capacity, so after the first block the chain
/// performs no heap allocation in steady state.
#[derive(Clone, Debug, Default)]
struct RefScratch {
    lo: Vec<(f64, f64)>,
    lo_fixed: Vec<crate::nco::CosSin>,
    mix_i: Vec<f64>,
    mix_q: Vec<f64>,
    c1_i: Vec<f64>,
    c1_q: Vec<f64>,
    c2_i: Vec<f64>,
    c2_q: Vec<f64>,
    f_i: Vec<f64>,
    f_q: Vec<f64>,
}

impl RefScratch {
    fn clear(&mut self) {
        self.lo.clear();
        self.lo_fixed.clear();
        self.mix_i.clear();
        self.mix_q.clear();
        self.c1_i.clear();
        self.c1_q.clear();
        self.c2_i.clear();
        self.c2_q.clear();
        self.f_i.clear();
        self.f_q.clear();
    }
}

/// The floating-point reference DDC: exact-phase NCO (sharing the
/// 32-bit accumulator quantization with the fixed chain so both tune
/// to the identical frequency), ideal mixer, unit-gain CICs and the
/// f64 polyphase FIR.
#[derive(Clone, Debug)]
pub struct ReferenceDdc {
    osc: RefOscillator,
    /// When present, sine/cosine come from this quantized table
    /// (converted to f64) instead of the exact oscillator — isolates
    /// datapath quantization from NCO quantization in comparisons.
    lut: Option<LutNco>,
    cic1_i: FloatCic,
    cic1_q: FloatCic,
    cic2_i: FloatCic,
    cic2_q: FloatCic,
    fir_i: PolyphaseFir,
    fir_q: PolyphaseFir,
    scratch: RefScratch,
    config: DdcConfig,
}

impl ReferenceDdc {
    /// Builds the reference chain from a validated configuration.
    pub fn new(config: DdcConfig) -> Self {
        config.validate().expect("invalid DDC configuration");
        ReferenceDdc {
            osc: RefOscillator::new(config.tuning_word()),
            lut: None,
            cic1_i: FloatCic::new(config.cic1_order, config.cic1_decim),
            cic1_q: FloatCic::new(config.cic1_order, config.cic1_decim),
            cic2_i: FloatCic::new(config.cic2_order, config.cic2_decim),
            cic2_q: FloatCic::new(config.cic2_order, config.cic2_decim),
            fir_i: PolyphaseFir::new(&config.fir_taps, config.fir_decim),
            fir_q: PolyphaseFir::new(&config.fir_taps, config.fir_decim),
            scratch: RefScratch::default(),
            config,
        }
    }

    /// Builds a reference chain whose NCO reads the *same* quantized
    /// look-up table as [`FixedDdc`] (but keeps f64 datapaths
    /// everywhere after it). Comparing [`FixedDdc`] against this
    /// isolates datapath quantization noise from the shared NCO error.
    pub fn with_table_nco(config: DdcConfig) -> Self {
        let f = config.format;
        let lut = LutNco::new(config.tuning_word(), f.lut_addr_bits, f.coeff_bits);
        ReferenceDdc {
            lut: Some(lut),
            ..ReferenceDdc::new(config)
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DdcConfig {
        &self.config
    }

    /// Feeds one real input sample in `[-1, 1]`; returns a complex
    /// baseband output every `total_decimation` inputs.
    #[inline]
    pub fn process(&mut self, x: f64) -> Option<C64> {
        let (c, s) = match self.lut.as_mut() {
            Some(lut) => {
                let cs = lut.next();
                let full = ddc_dsp::fixed::max_signed(lut.amp_bits()) as f64;
                (f64::from(cs.cos) / full, f64::from(cs.sin) / full)
            }
            None => self.osc.next(),
        };
        let (i0, q0) = mix_f64(x, c, s);
        let i1 = self.cic1_i.process(i0);
        let q1 = self.cic1_q.process(q0);
        let (i1, q1) = match (i1, q1) {
            (Some(a), Some(b)) => (a, b),
            _ => return None,
        };
        let (i2, q2) = match (self.cic2_i.process(i1), self.cic2_q.process(q1)) {
            (Some(a), Some(b)) => (a, b),
            _ => return None,
        };
        match (self.fir_i.process(i2), self.fir_q.process(q2)) {
            (Some(i3), Some(q3)) => Some(C64::new(i3, q3)),
            _ => None,
        }
    }

    /// Processes a block through the stage-level block kernels,
    /// appending outputs to `out`. Bit-exact with per-sample
    /// [`ReferenceDdc::process`] — every f64 operation runs in the
    /// identical order — and, because the intermediate buffers are
    /// owned by the chain and only cleared between blocks, performs no
    /// heap allocation in steady state.
    pub fn process_into(&mut self, input: &[f64], out: &mut Vec<C64>) {
        out.reserve(input.len() / self.config.total_decimation() as usize + 1);
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        match self.lut.as_mut() {
            Some(lut) => {
                lut.fill_block(input.len(), &mut s.lo_fixed);
                let full = ddc_dsp::fixed::max_signed(lut.amp_bits()) as f64;
                s.lo.reserve(input.len());
                for cs in &s.lo_fixed {
                    s.lo.push((f64::from(cs.cos) / full, f64::from(cs.sin) / full));
                }
            }
            None => self.osc.fill_block(input.len(), &mut s.lo),
        }
        s.mix_i.reserve(input.len());
        s.mix_q.reserve(input.len());
        for (&x, &(c, sn)) in input.iter().zip(&s.lo) {
            let (i0, q0) = mix_f64(x, c, sn);
            s.mix_i.push(i0);
            s.mix_q.push(q0);
        }
        self.cic1_i.process_block(&s.mix_i, &mut s.c1_i);
        self.cic1_q.process_block(&s.mix_q, &mut s.c1_q);
        self.cic2_i.process_block(&s.c1_i, &mut s.c2_i);
        self.cic2_q.process_block(&s.c1_q, &mut s.c2_q);
        self.fir_i.process_block(&s.c2_i, &mut s.f_i);
        self.fir_q.process_block(&s.c2_q, &mut s.f_q);
        for (&i, &q) in s.f_i.iter().zip(&s.f_q) {
            out.push(C64::new(i, q));
        }
        self.scratch = s;
    }

    /// Processes a block, returning all produced outputs (a thin
    /// wrapper over [`ReferenceDdc::process_into`]).
    pub fn process_block(&mut self, input: &[f64]) -> Vec<C64> {
        let mut out = Vec::with_capacity(input.len() / self.config.total_decimation() as usize + 1);
        self.process_into(input, &mut out);
        out
    }
}

/// Reusable intermediate buffers for [`FixedDdc::process_into`].
/// `Vec::clear` keeps capacity, so after the first block the chain
/// performs no heap allocation in steady state. The stage chain
/// ping-pongs between the two rail pairs, so two pairs cover any
/// stage count. When the chain head is a fusable CIC the fused
/// front-end kernel consumes the ADC block directly and no input-rate
/// LO buffer is materialised at all; `lo` is only touched for specs
/// whose first stage is a FIR.
#[derive(Clone, Debug, Default)]
struct FixedScratch {
    lo: Vec<CosSin>,
    a_i: Vec<i64>,
    a_q: Vec<i64>,
    b_i: Vec<i64>,
    b_q: Vec<i64>,
}

impl FixedScratch {
    fn clear(&mut self) {
        self.lo.clear();
        self.a_i.clear();
        self.a_q.clear();
        self.b_i.clear();
        self.b_q.clear();
    }
}

/// One built stage of the bit-true chain: matched I/Q processors.
/// The FIRs are boxed — `SequentialFir` carries its coefficient
/// layouts and history buffers inline, so an unboxed pair would
/// dominate the enum size for every CIC stage too; the one pointer
/// chase per *block* call is free.
#[derive(Clone, Debug)]
enum FixedStage {
    Cic {
        i: CicDecimator,
        q: CicDecimator,
    },
    Fir {
        i: Box<SequentialFir>,
        q: Box<SequentialFir>,
    },
}

/// The bit-true fixed-point DDC: LUT NCO, saturating mixer, wrapping
/// CICs and the sequential FIR of Figure 5, all at the bus widths of
/// [`crate::params::FixedFormat`].
///
/// The chain is built from a [`ChainSpec`] and supports any validated
/// stage sequence, not only the classic CIC→CIC→FIR shape; the fused
/// front-end kernel engages whenever the spec's head matches the
/// NCO→mixer→CIC shape.
///
/// # Examples
///
/// ```
/// use ddc_core::spec::DRM_TOTAL_DECIMATION;
/// use ddc_core::{DdcConfig, FixedDdc};
///
/// // The paper's Table 1 chain, tuned to 10 MHz, 12-bit datapath.
/// let mut ddc = FixedDdc::new(DdcConfig::drm(10.0e6));
/// // 2688 ADC words in → exactly one complex output word.
/// let out = ddc.process_block(&vec![100i32; DRM_TOTAL_DECIMATION as usize]);
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FixedDdc {
    nco: LutNco,
    mixer: FixedMixer,
    stages: Vec<FixedStage>,
    scratch: FixedScratch,
    probes: Option<ChainProbes>,
    /// Telemetry sink; the default disabled handle keeps the block
    /// path free of timing calls entirely.
    metrics: MetricsHandle,
    /// Span recorder; spans are emitted only for calls carrying a
    /// nonzero in-flight trace ID (see
    /// [`FixedDdc::process_into_traced`]).
    tracer: TraceHandle,
    /// Interned per-stage span-name indices, registered into the
    /// tracer's sink when it is installed (hot path records indices,
    /// never strings).
    trace_names: Vec<u16>,
    /// Trace ID of the in-flight traced call (0 = untraced).
    active_trace: u64,
    /// Execution track attributed to the in-flight traced call.
    active_track: u32,
    /// Exact linear DC gain of the whole chain (product of the CICs'
    /// power-of-two-scaled gains and the quantized FIRs' DC gains) —
    /// slightly below 1 for the reference chain because 21⁵ is not a
    /// power of two.
    nominal_gain: f64,
    total_decimation: u32,
    spec: ChainSpec,
}

impl FixedDdc {
    /// Builds the bit-true chain from the classic three-stage
    /// configuration (a thin wrapper over [`FixedDdc::from_spec`]).
    pub fn new(config: DdcConfig) -> Self {
        FixedDdc::from_spec(ChainSpec::from(config))
    }

    /// Builds the bit-true chain from a validated spec. FIR
    /// coefficients are quantized to the spec's coefficient width.
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate()` fails; callers handling untrusted
    /// specs should validate first.
    pub fn from_spec(spec: ChainSpec) -> Self {
        spec.validate().expect("invalid DDC chain spec");
        let f = spec.format;
        let mut stages = Vec::with_capacity(spec.stages.len());
        let mut nominal_gain = 1.0;
        for st in &spec.stages {
            match st {
                StageSpec::Cic {
                    order,
                    decim,
                    diff_delay,
                } => {
                    let cic = CicDecimator::with_diff_delay(
                        *order,
                        *decim,
                        *diff_delay,
                        f.data_bits,
                        f.data_bits,
                    );
                    nominal_gain *= cic.scaled_dc_gain();
                    stages.push(FixedStage::Cic {
                        i: cic.clone(),
                        q: cic,
                    });
                }
                StageSpec::Fir { taps, decim } => {
                    let coeffs = quantize_taps(taps, f.coeff_bits, f.coeff_frac());
                    nominal_gain *= coeffs.iter().map(|&c| f64::from(c)).sum::<f64>()
                        / 2f64.powi(f.coeff_frac() as i32);
                    let fir = Box::new(SequentialFir::new(
                        &coeffs,
                        *decim,
                        f.data_bits,
                        f.coeff_bits,
                        f.fir_acc_bits,
                    ));
                    stages.push(FixedStage::Fir {
                        i: fir.clone(),
                        q: fir,
                    });
                }
            }
        }
        FixedDdc {
            nco: LutNco::new(spec.tuning_word(), f.lut_addr_bits, f.coeff_bits),
            mixer: FixedMixer::new(f.data_bits, f.coeff_bits),
            stages,
            scratch: FixedScratch::default(),
            probes: None,
            metrics: MetricsHandle::disabled(),
            tracer: TraceHandle::disabled(),
            trace_names: Vec::new(),
            active_trace: 0,
            active_track: 0,
            nominal_gain,
            total_decimation: spec.total_decimation(),
            spec,
        }
    }

    /// Exact linear DC gain of the chain relative to an ideal
    /// unit-gain DDC (≈ 0.974 for the DRM preset — the CIC5's 21⁵ gain
    /// renormalised by a 2²² shift).
    pub fn nominal_gain(&self) -> f64 {
        self.nominal_gain
    }

    /// Enables per-stage switching-activity probes (a small runtime
    /// cost; off by default). The probes observe the classic
    /// three-stage positions; stages past the third run unprobed.
    pub fn with_activity(mut self) -> Self {
        self.probes = Some(ChainProbes::new(self.spec.format.data_bits));
        self
    }

    /// The spec this chain was built from.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The activity probes, when enabled.
    pub fn probes(&self) -> Option<&ChainProbes> {
        self.probes.as_ref()
    }

    /// The block kernel each stage resolved to at construction, as
    /// `(stage label, kernel label)` pairs aligned with the spec's
    /// stages — `("fir125r8", "sym_const")`, `("cic2r16",
    /// "fused_avx2")`, … The head CIC reports the front-end kernel
    /// (NCO + mixer + CIC run fused there); later CICs report the
    /// plain grouped block kernel. Telemetry exports these labels so
    /// dashboards can tell *which* code path produced the timings,
    /// at zero hot-path cost (resolution happened at construction).
    pub fn stage_kernels(&self) -> Vec<(String, &'static str)> {
        self.spec
            .stages
            .iter()
            .zip(&self.stages)
            .enumerate()
            .map(|(k, (st, built))| {
                let kernel = match built {
                    FixedStage::Cic { i, q } => {
                        if k == 0 {
                            crate::frontend::front_end_kernel_label(&self.mixer, i, q)
                        } else {
                            "cic_block"
                        }
                    }
                    FixedStage::Fir { i, .. } => i.kernel_label(),
                };
                (st.label(), kernel)
            })
            .collect()
    }

    /// Installs the telemetry handle the block path records into. A
    /// handle built over [`chain_metrics_for`] of this chain's spec
    /// receives per-stage block timings under the spec's own stage
    /// labels; recording happens once per block, never per sample, and
    /// performs no heap allocation.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// The telemetry handle in force (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Installs (or removes) the span tracer. The spec's stage labels
    /// are interned into the sink's name table here, at configure
    /// time, so the hot path records only indices. Per-stage spans are
    /// emitted only by [`FixedDdc::process_into_traced`] calls with a
    /// nonzero trace ID; plain [`FixedDdc::process_into`] pays one
    /// never-taken branch, exactly like disabled metrics.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.trace_names = match tracer.get() {
            Some(sink) => self
                .spec
                .stages
                .iter()
                .map(|s| sink.register_name(&s.label()))
                .collect(),
            None => Vec::new(),
        };
        self.tracer = tracer;
    }

    /// Builder form of [`FixedDdc::set_tracer`].
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// [`FixedDdc::process_into`] plus flight recording: when
    /// `trace_id` is nonzero and a tracer is installed, every stage
    /// emits a begin/end span pair tagged with the trace ID on
    /// `track`. The DSP output is bit-exact with the untraced path —
    /// tracing only observes — and recording allocates nothing.
    pub fn process_into_traced(
        &mut self,
        input: &[i32],
        out: &mut Vec<Iq>,
        trace_id: u64,
        track: u32,
    ) {
        self.active_trace = trace_id;
        self.active_track = track;
        self.process_into(input, out);
        self.active_trace = 0;
    }

    /// Retunes the NCO without flushing filter state.
    pub fn set_tune_freq(&mut self, freq: f64) {
        self.spec.tune_freq = freq;
        self.nco.set_tuning_word(self.spec.tuning_word());
    }

    /// Feeds one ADC word (`data_bits` wide); returns an I/Q output
    /// word pair every `total_decimation` inputs.
    #[inline]
    pub fn process(&mut self, x: i64) -> Option<Iq> {
        let cs = self.nco.next();
        let m = self.mixer.mix(x, cs);
        if let Some(p) = self.probes.as_mut() {
            p.input.observe(x);
            p.mixer_i.observe(m.i);
            p.mixer_q.observe(m.q);
        }
        let (mut vi, mut vq) = (m.i, m.q);
        for k in 0..self.stages.len() {
            let (ri, rq) = match &mut self.stages[k] {
                FixedStage::Cic { i, q } => (i.process(vi), q.process(vq)),
                FixedStage::Fir { i, q } => (i.process(vi), q.process(vq)),
            };
            match (ri, rq) {
                (Some(a), Some(b)) => {
                    vi = a;
                    vq = b;
                }
                _ => return None,
            }
            if let Some(p) = self.probes.as_mut() {
                p.observe_stage(k, vi, vq);
            }
        }
        Some(Iq { i: vi, q: vq })
    }

    /// Processes a block of ADC words, appending outputs to `out`.
    /// Bit-exact with per-sample [`FixedDdc::process`]. When the chain
    /// head is a CIC the entire input-rate part (NCO, mixer, CIC
    /// integrators) runs through the fused single-pass kernel of
    /// [`crate::frontend`], so no intermediate buffer is ever
    /// materialised at the ADC rate; later stages (and the whole chain
    /// for FIR-first specs) use the stage block kernels, ping-ponging
    /// between two owned rail pairs. Buffers are only cleared
    /// (capacity kept) between blocks, so steady-state processing
    /// performs no heap allocation.
    ///
    /// When activity probes are enabled the chain falls back to the
    /// per-sample path, which observes every intermediate word.
    pub fn process_into(&mut self, input: &[i32], out: &mut Vec<Iq>) {
        out.reserve(input.len() / self.total_decimation as usize + 1);
        // Cheap handle clone so stage recording can run while
        // `self.stages` is mutably borrowed; telemetry off means
        // `mm == None` and every timing site below compiles down to a
        // never-taken branch — the datapath is identical either way.
        let metrics = self.metrics.clone();
        let mm = metrics.get();
        // Span recording is live only for a traced call (nonzero
        // in-flight trace ID): the untraced path pays one u64 compare.
        let tracer = if self.active_trace != 0 {
            self.tracer.clone()
        } else {
            TraceHandle::disabled()
        };
        let tr = tracer.get();
        let trace_id = self.active_trace;
        let track = self.active_track;
        let out_before = out.len();
        let t_chain = mm.map(|_| Instant::now());
        if self.probes.is_some() {
            // Per-sample fallback (probes observe every word): only
            // whole-chain telemetry, still at block granularity.
            for &x in input {
                if let Some(z) = self.process(i64::from(x)) {
                    out.push(z);
                }
            }
            if let Some(m) = mm {
                m.chain.record_block(
                    input.len() as u64,
                    (out.len() - out_before) as u64,
                    elapsed_ns(t_chain),
                );
            }
            return;
        }
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        let mut cur_i = std::mem::take(&mut s.a_i);
        let mut cur_q = std::mem::take(&mut s.a_q);
        let mut nxt_i = std::mem::take(&mut s.b_i);
        let mut nxt_q = std::mem::take(&mut s.b_q);
        // Stage 0 consumes the ADC block directly. Its recorded time
        // includes the NCO and mixer, which the fused kernel runs in
        // the same pass.
        let t_stage = mm.map(|_| Instant::now());
        let ts0 = tr.map(|s| s.now_ns());
        match &mut self.stages[0] {
            FixedStage::Cic { i, q } => {
                crate::frontend::process_front_end(
                    &mut self.nco,
                    &self.mixer,
                    i,
                    q,
                    input,
                    &mut cur_i,
                    &mut cur_q,
                );
            }
            FixedStage::Fir { i, q } => {
                self.nco.fill_block(input.len(), &mut s.lo);
                self.mixer
                    .mix_block_split(input, &s.lo, &mut nxt_i, &mut nxt_q);
                i.process_block(&nxt_i, &mut cur_i);
                q.process_block(&nxt_q, &mut cur_q);
                nxt_i.clear();
                nxt_q.clear();
            }
        }
        if let Some(sm) = mm.and_then(|m| m.stages.first()) {
            sm.record_block(input.len() as u64, cur_i.len() as u64, elapsed_ns(t_stage));
        }
        if let Some(s) = tr {
            let name = self.trace_names.first().copied().unwrap_or(0);
            s.span(track, trace_id, name, ts0.unwrap_or(0), s.now_ns());
        }
        for (k, stage) in self.stages.iter_mut().enumerate().skip(1) {
            let t_stage = mm.map(|_| Instant::now());
            let ts0 = tr.map(|s| s.now_ns());
            match stage {
                FixedStage::Cic { i, q } => {
                    i.process_block(&cur_i, &mut nxt_i);
                    q.process_block(&cur_q, &mut nxt_q);
                }
                FixedStage::Fir { i, q } => {
                    i.process_block(&cur_i, &mut nxt_i);
                    q.process_block(&cur_q, &mut nxt_q);
                }
            }
            if let Some(sm) = mm.and_then(|m| m.stages.get(k)) {
                sm.record_block(cur_i.len() as u64, nxt_i.len() as u64, elapsed_ns(t_stage));
            }
            if let Some(s) = tr {
                let name = self.trace_names.get(k).copied().unwrap_or(0);
                s.span(track, trace_id, name, ts0.unwrap_or(0), s.now_ns());
            }
            std::mem::swap(&mut cur_i, &mut nxt_i);
            std::mem::swap(&mut cur_q, &mut nxt_q);
            nxt_i.clear();
            nxt_q.clear();
        }
        for (&i, &q) in cur_i.iter().zip(&cur_q) {
            out.push(Iq { i, q });
        }
        s.a_i = cur_i;
        s.a_q = cur_q;
        s.b_i = nxt_i;
        s.b_q = nxt_q;
        self.scratch = s;
        if let Some(m) = mm {
            m.chain.record_block(
                input.len() as u64,
                (out.len() - out_before) as u64,
                elapsed_ns(t_chain),
            );
        }
    }

    /// Processes a block of ADC words (a thin wrapper over
    /// [`FixedDdc::process_into`]).
    pub fn process_block(&mut self, input: &[i32]) -> Vec<Iq> {
        let mut out = Vec::with_capacity(input.len() / self.total_decimation as usize + 1);
        self.process_into(input, &mut out);
        out
    }

    /// Converts fixed outputs to `C64` using the data format's
    /// Q-scaling **and** compensating the chain's nominal gain, so the
    /// result is directly comparable with [`ReferenceDdc`] output.
    pub fn to_c64(&self, out: &[Iq]) -> Vec<C64> {
        let scale = 1.0 / (2f64.powi(self.spec.format.data_frac() as i32) * self.nominal_gain);
        out.iter()
            .map(|iq| C64::new(iq.i as f64 * scale, iq.q as f64 * scale))
            .collect()
    }
}

/// A fixed set of [`FixedDdc`] channels, each behind its own mutex, so
/// threads sharing one farm may drive different channels at once.
///
/// Its one caller is `servebench`'s `engine.submit_overhead_us` replay.
/// The served stack gives each chain session its own `FixedDdc`
/// instead, so this type goes once that benchmark retires the row
/// (ROADMAP item 1).
pub struct DdcFarm {
    channels: Vec<Mutex<FixedDdc>>,
}

impl DdcFarm {
    /// Builds one [`FixedDdc`] per channel plan. Channels accept
    /// anything convertible into a [`ChainSpec`], classic
    /// [`DdcConfig`]s included.
    pub fn new<S: Into<ChainSpec>>(specs: Vec<S>) -> Self {
        assert!(!specs.is_empty(), "farm needs at least one channel");
        let channels = specs
            .into_iter()
            .map(|spec| Mutex::new(FixedDdc::from_spec(spec.into())))
            .collect();
        DdcFarm { channels }
    }

    /// Runs one channel over `input` on the calling thread, under that
    /// channel's mutex, and returns its output. Every other channel is
    /// left untouched, and the channel's filter state persists across
    /// calls. Always returns `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not below the number of channel plans.
    pub fn submit_channel(&self, channel: usize, input: &[i32]) -> Option<Vec<Iq>> {
        let mut out = Vec::new();
        self.channels[channel]
            .lock()
            .expect("a thread panicked inside this channel's chain")
            .process_into(input, &mut out);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DdcConfig, DRM_TOTAL_DECIMATION};
    use ddc_dsp::signal::{adc_quantize, SampleSource, Tone, WhiteNoise};
    use ddc_dsp::spectrum::periodogram_complex;
    use ddc_dsp::stats::ser_db;
    use ddc_dsp::window::Window;

    /// Enough input for `n` outputs plus filter settle.
    fn input_len(outputs: usize) -> usize {
        (outputs + 4) * DRM_TOTAL_DECIMATION as usize
    }

    #[test]
    fn reference_chain_produces_expected_rate() {
        let cfg = DdcConfig::drm(10e6);
        let mut ddc = ReferenceDdc::new(cfg);
        let sig = Tone::new(10e6, 64_512_000.0, 0.5, 0.0).take_vec(input_len(10));
        let out = ddc.process_block(&sig);
        assert_eq!(out.len(), input_len(10) / DRM_TOTAL_DECIMATION as usize);
    }

    #[test]
    fn tone_at_tune_frequency_lands_at_dc() {
        let f_tune = 10_000_000.0;
        let cfg = DdcConfig::drm(f_tune);
        let fs = cfg.input_rate;
        let mut ddc = ReferenceDdc::new(cfg);
        // offset the tone 3 kHz above the tuning frequency
        let sig = Tone::new(f_tune + 3_000.0, fs, 0.5, 0.4).take_vec(input_len(600));
        let out = ddc.process_block(&sig);
        let tail = &out[out.len() - 512..];
        let sp = periodogram_complex(tail, 24_000.0, 512, Window::BlackmanHarris);
        let (f_peak, _) = sp.peak();
        assert!((f_peak - 3_000.0).abs() < 100.0, "peak at {f_peak}");
    }

    #[test]
    fn negative_offset_lands_at_negative_frequency() {
        let f_tune = 10_000_000.0;
        let cfg = DdcConfig::drm(f_tune);
        let fs = cfg.input_rate;
        let mut ddc = ReferenceDdc::new(cfg);
        let sig = Tone::new(f_tune - 5_000.0, fs, 0.5, 0.0).take_vec(input_len(600));
        let out = ddc.process_block(&sig);
        let tail = &out[out.len() - 512..];
        let sp = periodogram_complex(tail, 24_000.0, 512, Window::BlackmanHarris);
        let (f_peak, _) = sp.peak();
        assert!((f_peak + 5_000.0).abs() < 100.0, "peak at {f_peak}");
    }

    #[test]
    fn out_of_band_tone_is_strongly_attenuated() {
        let f_tune = 10_000_000.0;
        let cfg = DdcConfig::drm(f_tune);
        let fs = cfg.input_rate;
        // in-band tone at +3 kHz, interferer 500 kHz away
        let mut ddc = ReferenceDdc::new(cfg);
        let mut src = ddc_dsp::signal::Mix(
            Tone::new(f_tune + 3_000.0, fs, 0.25, 0.0),
            Tone::new(f_tune + 500_000.0, fs, 0.25, 1.0),
        );
        let sig = src.take_vec(input_len(600));
        let out = ddc.process_block(&sig);
        let tail = &out[out.len() - 512..];
        let sp = periodogram_complex(tail, 24_000.0, 512, Window::BlackmanHarris);
        // power near 3 kHz vs total out-of-band power
        let in_band = sp.band_power(2_500.0, 3_500.0);
        let total: f64 = sp.power.iter().sum();
        let ratio_db = 10.0 * (in_band / (total - in_band)).log10();
        assert!(ratio_db > 40.0, "selectivity {ratio_db} dB");
    }

    #[test]
    fn block_chain_matches_per_sample() {
        // Both full chains must be bit-exact between the per-sample
        // path and the block-kernel path, across ragged chunk sizes
        // that split decimation groups at every stage.
        let cfg = DdcConfig::drm(10e6);
        let fs = cfg.input_rate;
        let mut src = ddc_dsp::signal::Mix(
            Tone::new(10e6 + 3_000.0, fs, 0.6, 0.1),
            WhiteNoise::new(11, 0.2),
        );
        let analog = src.take_vec(input_len(12));
        let adc = adc_quantize(&analog, 12);

        let mut per_sample = FixedDdc::new(cfg.clone());
        let mut expect = Vec::new();
        for &x in &adc {
            if let Some(z) = per_sample.process(i64::from(x)) {
                expect.push(z);
            }
        }
        let mut blocked = FixedDdc::new(cfg.clone());
        let mut got = Vec::new();
        for chunk in adc.chunks(997) {
            blocked.process_into(chunk, &mut got);
        }
        assert_eq!(got, expect);

        // ReferenceDdc: f64 payloads compared bit-for-bit.
        let mut ref_per = ReferenceDdc::with_table_nco(cfg.clone());
        let mut ref_expect = Vec::new();
        for &x in &analog {
            if let Some(z) = ref_per.process(x) {
                ref_expect.push(z);
            }
        }
        let mut ref_blocked = ReferenceDdc::with_table_nco(cfg);
        let mut ref_got = Vec::new();
        for chunk in analog.chunks(997) {
            ref_blocked.process_into(chunk, &mut ref_got);
        }
        assert_eq!(ref_got.len(), ref_expect.len());
        for (k, (a, b)) in ref_got.iter().zip(&ref_expect).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "I diverged at output {k}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "Q diverged at output {k}");
        }
    }

    #[test]
    fn fixed_chain_rate_and_range() {
        let cfg = DdcConfig::drm(10e6);
        let fs = cfg.input_rate;
        let mut ddc = FixedDdc::new(cfg);
        let analog = Tone::new(10e6 + 2_000.0, fs, 0.8, 0.0).take_vec(input_len(50));
        let adc = adc_quantize(&analog, 12);
        let out = ddc.process_block(&adc);
        assert_eq!(out.len(), adc.len() / DRM_TOTAL_DECIMATION as usize);
        for iq in &out {
            assert!(iq.i.abs() <= 2048 && iq.q.abs() <= 2048);
        }
    }

    #[test]
    fn fixed_chain_tracks_reference_chain() {
        // The 12-bit chain must track the f64 chain to the level its
        // quantizers allow. The dominant error source is the 12-bit
        // requantization between stages (~72 dB floor per stage); we
        // require > 45 dB signal-to-error on a clean in-band tone.
        let f_tune = 10_000_000.0;
        let cfg = DdcConfig::drm(f_tune);
        let fs = cfg.input_rate;
        let analog = Tone::new(f_tune + 4_000.0, fs, 0.7, 0.2).take_vec(input_len(400));
        let mut fx = FixedDdc::new(cfg.clone());
        let mut rf = ReferenceDdc::new(cfg);
        let adc = adc_quantize(&analog, 12);
        let raw = fx.process_block(&adc);
        let out_fx = fx.to_c64(&raw);
        let out_rf = rf.process_block(&analog);
        assert_eq!(out_fx.len(), out_rf.len());
        // skip the settling transient
        let skip = 32;
        let fi: Vec<f64> = out_fx[skip..].iter().map(|z| z.re).collect();
        let ri: Vec<f64> = out_rf[skip..].iter().map(|z| z.re).collect();
        let fq: Vec<f64> = out_fx[skip..].iter().map(|z| z.im).collect();
        let rq: Vec<f64> = out_rf[skip..].iter().map(|z| z.im).collect();
        let ser_i = ser_db(&ri, &fi);
        let ser_q = ser_db(&rq, &fq);
        assert!(ser_i > 45.0, "I-path SER {ser_i} dB");
        assert!(ser_q > 45.0, "Q-path SER {ser_q} dB");
    }

    #[test]
    fn montium_format_has_lower_quantization_noise() {
        let f_tune = 10_000_000.0;
        let analog = Tone::new(f_tune + 4_000.0, 64_512_000.0, 0.7, 0.2).take_vec(input_len(200));
        let measure = |cfg: DdcConfig, adc_bits: u32| {
            let mut fx = FixedDdc::new(cfg.clone());
            // Table-matched reference: both chains share the identical
            // NCO samples, so the SER difference is purely datapath
            // word length.
            let mut rf = ReferenceDdc::with_table_nco(cfg);
            let adc = adc_quantize(&analog, adc_bits);
            let raw = fx.process_block(&adc);
            let out_fx = fx.to_c64(&raw);
            let out_rf = rf.process_block(&analog);
            let skip = 32;
            let fi: Vec<f64> = out_fx[skip..].iter().map(|z| z.re).collect();
            let ri: Vec<f64> = out_rf[skip..].iter().map(|z| z.re).collect();
            ser_db(&ri, &fi)
        };
        let ser12 = measure(DdcConfig::drm(f_tune), 12);
        let ser16 = measure(DdcConfig::drm_montium(f_tune), 16);
        assert!(
            ser16 > ser12 + 10.0,
            "12-bit {ser12} dB vs 16-bit {ser16} dB"
        );
    }

    #[test]
    fn activity_probes_report_plausible_toggle_rates() {
        let cfg = DdcConfig::drm(10e6);
        let mut ddc = FixedDdc::new(cfg).with_activity();
        let mut noise = WhiteNoise::new(3, 0.9);
        let analog = noise.take_vec(input_len(30));
        let adc = adc_quantize(&analog, 12);
        let _ = ddc.process_block(&adc);
        let p = ddc.probes().unwrap();
        // Random full-scale input: toggle rate near 0.5 at the input.
        let r_in = p.input.toggle_rate();
        assert!((r_in - 0.5).abs() < 0.05, "input rate {r_in}");
        // Every probe must have seen data.
        assert!(p.fir_i.transitions() > 0);
        assert!(p.cic2_q.transitions() > 0);
    }

    #[test]
    fn retuning_moves_the_selected_band() {
        let cfg = DdcConfig::drm(10e6);
        let fs = cfg.input_rate;
        let mut ddc = FixedDdc::new(cfg);
        // Tone at 20 MHz while tuned to 10 MHz: nothing in band.
        let analog = Tone::new(20e6, fs, 0.8, 0.0).take_vec(input_len(100));
        let adc = adc_quantize(&analog, 12);
        let out1 = ddc.process_block(&adc);
        let p1: f64 = out1[out1.len() - 50..]
            .iter()
            .map(|z| (z.i * z.i + z.q * z.q) as f64)
            .sum();
        // Retune to 20 MHz: the tone appears.
        ddc.set_tune_freq(20e6);
        let out2 = ddc.process_block(&adc);
        let p2: f64 = out2[out2.len() - 50..]
            .iter()
            .map(|z| (z.i * z.i + z.q * z.q) as f64)
            .sum();
        assert!(p2 > p1 * 100.0, "p1={p1} p2={p2}");
    }

    #[test]
    fn non_classic_spec_block_matches_per_sample() {
        // A 4-stage plan no preset describes (CIC2÷8 → CIC3÷6 → CIC4÷7
        // → FIR÷2, total ÷672) must be bit-exact between the block and
        // per-sample paths, including across ragged chunk boundaries.
        use crate::spec::{ChainSpec, StageSpec};
        let taps = ddc_dsp::firdes::lowpass(
            64,
            0.2,
            ddc_dsp::window::Window::Kaiser(ddc_dsp::window::kaiser_beta(60.0)),
        );
        let spec = ChainSpec {
            name: "custom672".into(),
            input_rate: 64_512_000.0,
            tune_freq: 9.3e6,
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
            format: crate::params::FixedFormat::FPGA12,
            budget: None,
        };
        spec.validate().unwrap();
        assert_eq!(spec.total_decimation(), 672);
        assert!(spec.to_config().is_none(), "plan must not be preset-shaped");

        let analog = ddc_dsp::signal::Mix(
            Tone::new(9.3e6 + 11_000.0, 64_512_000.0, 0.6, 0.3),
            WhiteNoise::new(5, 0.2),
        )
        .take_vec(672 * 40);
        let adc = adc_quantize(&analog, 12);

        let mut per_sample = FixedDdc::from_spec(spec.clone());
        let mut expect = Vec::new();
        for &x in &adc {
            if let Some(z) = per_sample.process(i64::from(x)) {
                expect.push(z);
            }
        }
        let mut blocked = FixedDdc::from_spec(spec);
        let mut got = Vec::new();
        for chunk in adc.chunks(991) {
            blocked.process_into(chunk, &mut got);
        }
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn instrumented_chain_is_bit_exact_and_counts_stage_flow() {
        use std::sync::Arc;
        let cfg = DdcConfig::drm(10e6);
        let adc = adc_quantize(
            &ddc_dsp::signal::Mix(
                Tone::new(10e6 + 3_000.0, 64_512_000.0, 0.6, 0.1),
                WhiteNoise::new(17, 0.2),
            )
            .take_vec(input_len(8)),
            12,
        );

        let mut plain = FixedDdc::new(cfg.clone());
        let mut expect = Vec::new();
        let metrics = Arc::new(chain_metrics_for(&ChainSpec::from(cfg.clone())));
        let mut instrumented =
            FixedDdc::new(cfg).with_metrics(MetricsHandle::enabled(Arc::clone(&metrics)));
        let mut got = Vec::new();
        for chunk in adc.chunks(997) {
            plain.process_into(chunk, &mut expect);
            instrumented.process_into(chunk, &mut got);
        }
        // Telemetry only observes: the datapath stays bit-exact.
        assert_eq!(got, expect);

        let n_blocks = adc.chunks(997).count() as u64;
        assert_eq!(metrics.chain.blocks.get(), n_blocks);
        assert_eq!(metrics.chain.samples_in.get(), adc.len() as u64);
        assert_eq!(metrics.chain.samples_out.get(), expect.len() as u64);
        assert_eq!(metrics.stages.len(), 3);
        assert_eq!(metrics.stages[0].name, "cic2r16");
        assert_eq!(metrics.stages[1].name, "cic5r21");
        assert_eq!(metrics.stages[2].name, "fir125r8");
        // Sample flow telescopes stage to stage: what stage k emits is
        // what stage k+1 consumes, ending at the chain output count.
        assert_eq!(metrics.stages[0].samples_in.get(), adc.len() as u64);
        for w in metrics.stages.windows(2) {
            assert_eq!(w[0].samples_out.get(), w[1].samples_in.get());
        }
        assert_eq!(
            metrics.stages.last().unwrap().samples_out.get(),
            expect.len() as u64
        );
        // Latencies were recorded once per block per stage.
        for sm in &metrics.stages {
            assert_eq!(sm.latency_ns.count(), n_blocks, "stage {}", sm.name);
        }
    }

    #[test]
    fn traced_chain_is_bit_exact_and_emits_stage_spans() {
        use ddc_obs::{span_kind, TraceSink};
        use std::sync::Arc;
        let cfg = DdcConfig::drm(10e6);
        let adc = adc_quantize(
            &ddc_dsp::signal::Mix(
                Tone::new(10e6 + 3_000.0, 64_512_000.0, 0.6, 0.1),
                WhiteNoise::new(17, 0.2),
            )
            .take_vec(input_len(8)),
            12,
        );

        let mut plain = FixedDdc::new(cfg.clone());
        let mut expect = Vec::new();
        let sink = Arc::new(TraceSink::new(1, 1024));
        let mut traced = FixedDdc::new(cfg).with_tracer(TraceHandle::enabled(Arc::clone(&sink)));
        let mut got = Vec::new();
        for (b, chunk) in adc.chunks(997).enumerate() {
            plain.process_into(chunk, &mut expect);
            // Sample every other block, like a 1-in-N head sampler.
            let trace_id = if b % 2 == 0 { 0x100 + b as u64 } else { 0 };
            traced.process_into_traced(chunk, &mut got, trace_id, 7);
        }
        // Tracing only observes: the datapath stays bit-exact.
        assert_eq!(got, expect);

        let n_blocks = adc.chunks(997).count();
        let sampled = n_blocks.div_ceil(2);
        let mut spans = Vec::new();
        assert_eq!(sink.drain(&mut spans), 0);
        // 3 stages x begin+end per sampled block, nothing for the rest.
        assert_eq!(spans.len(), sampled * 3 * 2);
        assert!(spans.iter().all(|e| e.track == 7));
        assert!(spans.iter().all(|e| e.trace_id >= 0x100));
        let begins = spans.iter().filter(|e| e.kind == span_kind::BEGIN).count();
        let ends = spans.iter().filter(|e| e.kind == span_kind::END).count();
        assert_eq!(begins, ends);
        // Spans carry the spec-derived stage names.
        let names: std::collections::BTreeSet<String> =
            spans.iter().map(|e| sink.name_of(e.name)).collect();
        assert_eq!(
            names,
            ["cic2r16", "cic5r21", "fir125r8"]
                .into_iter()
                .map(String::from)
                .collect()
        );
    }

    #[test]
    fn stage_kernels_name_every_stage() {
        let ddc = FixedDdc::new(DdcConfig::drm(10e6));
        // The head CIC runs the fused front end. The DRM taps are
        // linear-phase and pass the width audit, so the FIR resolves
        // to a specialised kernel. Both take AVX2 when the CPU has it.
        let (front, fir) = if crate::avx2_detected() {
            ("fused_avx2", "simd_avx2")
        } else {
            ("fused_scalar", "sym_const")
        };
        assert_eq!(
            ddc.stage_kernels(),
            [
                ("cic2r16".to_string(), front),
                ("cic5r21".to_string(), "cic_block"),
                ("fir125r8".to_string(), fir),
            ]
        );
    }

    #[test]
    fn fir_first_spec_block_matches_per_sample() {
        // Spec whose head is a FIR: the fused front end cannot engage,
        // exercising the NCO/mixer block fallback in process_into.
        use crate::spec::{ChainSpec, StageSpec};
        let taps = ddc_dsp::firdes::lowpass(
            32,
            0.04,
            ddc_dsp::window::Window::Kaiser(ddc_dsp::window::kaiser_beta(50.0)),
        );
        let spec = ChainSpec {
            name: "fir_first".into(),
            input_rate: 1_000_000.0,
            tune_freq: 120_000.0,
            stages: vec![
                StageSpec::Fir { taps, decim: 5 },
                StageSpec::Cic {
                    order: 2,
                    decim: 4,
                    diff_delay: 1,
                },
            ],
            format: crate::params::FixedFormat::FPGA12,
            budget: None,
        };
        spec.validate().unwrap();
        assert!(!spec.fused_head());

        let analog = WhiteNoise::new(9, 0.7).take_vec(20 * 20 * 37);
        let adc = adc_quantize(&analog, 12);
        let mut per_sample = FixedDdc::from_spec(spec.clone());
        let mut expect = Vec::new();
        for &x in &adc {
            if let Some(z) = per_sample.process(i64::from(x)) {
                expect.push(z);
            }
        }
        let mut blocked = FixedDdc::from_spec(spec);
        let mut got = Vec::new();
        for chunk in adc.chunks(613) {
            blocked.process_into(chunk, &mut got);
        }
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    fn farm_input(n: usize, seed: u64) -> Vec<i32> {
        let mut src = ddc_dsp::signal::Mix(
            Tone::new(10_003_000.0, 64_512_000.0, 0.6, 0.1),
            WhiteNoise::new(seed, 0.1),
        );
        adc_quantize(&src.take_vec(n), 12)
    }

    #[test]
    fn submit_channel_matches_solo_chain_and_leaves_others_alone() {
        const D: usize = DRM_TOTAL_DECIMATION as usize;
        let cfgs = vec![DdcConfig::drm(10e6), DdcConfig::drm(20e6)];
        let block_a = farm_input(D * 3, 21);
        let block_b = farm_input(D * 2 + 97, 22);
        let block_c = farm_input(D * 2, 23);
        let farm = DdcFarm::new(cfgs.clone());
        let got_a = farm.submit_channel(1, &block_a).expect("farm running");
        let got_b = farm.submit_channel(1, &block_b).expect("farm running");
        let mut solo = FixedDdc::new(cfgs[1].clone());
        assert_eq!(got_a, solo.process_block(&block_a));
        assert_eq!(got_b, solo.process_block(&block_b));
        // Channel 0 never ran: its next batch matches a fresh chain,
        // while channel 1 carries on from its state.
        let mut fresh = FixedDdc::new(cfgs[0].clone());
        assert_eq!(
            farm.submit_channel(0, &block_c).expect("farm running"),
            fresh.process_block(&block_c)
        );
        assert_eq!(
            farm.submit_channel(1, &block_c).expect("farm running"),
            solo.process_block(&block_c)
        );
    }

    #[test]
    fn concurrent_channel_submissions_are_independent() {
        use std::sync::Arc;
        const D: usize = DRM_TOTAL_DECIMATION as usize;
        let cfgs: Vec<DdcConfig> = (1..=4).map(|k| DdcConfig::drm(k as f64 * 5e6)).collect();
        let farm = Arc::new(DdcFarm::new(cfgs.clone()));
        let blocks: Vec<Vec<i32>> = (0..4)
            .map(|k| farm_input(D * 2 + k * 31, k as u64))
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
        let block = farm_input(DRM_TOTAL_DECIMATION as usize * 2, 7);
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

//! The streaming service's length-prefixed binary frame protocol.
//!
//! Every frame is a fixed 20-byte header followed by a payload. All
//! integers are little-endian. The header carries two Fletcher-32
//! checksums — one over the header itself (protecting the framing: a
//! corrupted length field cannot silently desynchronise the stream)
//! and one over the payload — plus a per-direction sequence number so
//! either side can detect lost or reordered frames.
//!
//! ```text
//! offset  size  field
//!      0     2  magic            0xDDC1
//!      2     1  version          3
//!      3     1  frame type       Hello=1 Configure=2 Samples=3 Iq=4 Stats=5
//!                                Error=6 Shutdown=7 Metrics=8 Trace=9
//!      4     4  sequence number  independent monotonic counter per direction
//!      8     4  payload length   bytes, <= MAX_PAYLOAD
//!     12     4  payload checksum Fletcher-32 over the payload bytes
//!     16     4  header checksum  Fletcher-32 over bytes 0..16
//! ```
//!
//! [`decode_header`] checks the version byte of every frame, so a peer
//! speaking another version fails at its first frame.
//!
//! Encoding and decoding are pure functions over byte slices — no
//! sockets — so the whole codec is unit-testable in-process;
//! [`FrameBuf::write_to`] and the blocking [`read_frame`] layer std I/O
//! on top for the client.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// First two bytes of every frame.
pub const MAGIC: u16 = 0xDDC1;
/// Protocol version this build speaks, checked in every frame header.
pub const VERSION: u8 = 3;
/// Size of the fixed frame header, bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on payload size (guards allocation on decode).
pub const MAX_PAYLOAD: u32 = 1 << 22; // 4 MiB ≈ 1 M i32 samples

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Malformed or unexpected frame.
    pub const PROTOCOL: u16 = 1;
    /// All `max_sessions` channels are held by live chain sessions.
    pub const SERVER_FULL: u16 = 2;
    /// The Configure frame was rejected (bad preset/policy/config).
    pub const BAD_CONFIG: u16 = 3;
    /// The session queue overflowed under the `Disconnect` policy.
    pub const QUEUE_OVERFLOW: u16 = 4;
    /// Samples arrived before a successful Configure.
    pub const NOT_CONFIGURED: u16 = 5;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u16 = 6;
    /// Accept-time session setup failed (socket mode or poller
    /// registration) — the connection was never serviceable.
    pub const SESSION_SETUP: u16 = 7;
}

/// What the codec can object to. Distinct from I/O errors: a
/// [`WireError`] means bytes arrived but did not form a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// First two bytes were not [`MAGIC`].
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Header checksum mismatch — framing can no longer be trusted.
    HeaderChecksum,
    /// Payload checksum mismatch.
    PayloadChecksum,
    /// Unknown frame type byte.
    BadType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Payload ended before the named field.
    Truncated(&'static str),
    /// Payload longer than its frame type allows.
    TrailingBytes(usize),
    /// Unknown backpressure policy byte.
    BadPolicy(u8),
    /// Unknown configuration preset byte.
    BadPreset(u8),
    /// A declared element count disagrees with the payload length.
    CountMismatch {
        /// Elements the payload header declared.
        declared: u32,
        /// Bytes actually available for them.
        available: usize,
    },
    /// An embedded [`ddc_core::ChainSpec`] failed to decode or
    /// validate (carries the spec error's rendering).
    BadSpec(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::HeaderChecksum => write!(f, "header checksum mismatch"),
            WireError::PayloadChecksum => write!(f, "payload checksum mismatch"),
            WireError::BadType(t) => write!(f, "unknown frame type {t}"),
            WireError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
            WireError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} unexpected trailing payload bytes"),
            WireError::BadPolicy(p) => write!(f, "unknown backpressure policy {p}"),
            WireError::BadPreset(p) => write!(f, "unknown config preset {p}"),
            WireError::CountMismatch {
                declared,
                available,
            } => write!(
                f,
                "declared {declared} elements but only {available} payload bytes remain"
            ),
            WireError::BadSpec(detail) => write!(f, "bad chain spec: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Fletcher-32 over the byte stream (16-bit little-endian words, odd
/// tail zero-padded), reducing both sums after every word. The
/// specification [`Fletcher32`] is tested against; no frame path calls
/// it.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut a: u32 = 0xffff;
    let mut b: u32 = 0xffff;
    for chunk in bytes.chunks(2) {
        let lo = chunk[0] as u32;
        let hi = chunk.get(1).copied().unwrap_or(0) as u32;
        a = (a + (lo | (hi << 8))) % 65535;
        b = (b + a) % 65535;
    }
    (b << 16) | a
}

/// Incremental Fletcher-32, bit-exact with [`checksum`]: the checksum
/// every frame path computes and verifies.
///
/// Absorbing k words w₀..wₖ₋₁ into `a += w; b += a` from state (a, b)
/// gives a' = a + Σ wᵢ and b' = b + k·a + Σ (k−i)·wᵢ, so the kernel
/// needs no serial chain. It reads whole 16-byte blocks, eight words
/// each, and keeps two `u32` sums per word position j, updated per
/// block by adds alone: `r[j] += s[j]; s[j] += w`. After n blocks
/// `s[j] = Σₜ w(t, j)` and `r[j] = Σₜ (n−1−t)·w(t, j)`; word (t, j) has
/// index 8t + j, so
///
/// ```text
/// a' = a + Σⱼ s[j]        b' = b + 8n·a + 8·Σⱼ r[j] + Σⱼ (8−j)·s[j]
/// ```
///
/// and reduction mod 65535 is a ring homomorphism, so both residues
/// come out unchanged. An all-0xFFFF position reaches
/// r = 65535·n(n−1)/2, which stays below 2³² up to n = 362 blocks;
/// the sums fold into (a, b) every `FOLD_BLOCKS` blocks, so no lane
/// wraps. Odd bytes and words past the last whole block run the
/// recurrence directly.
#[derive(Clone, Debug)]
pub struct Fletcher32 {
    /// Both sums, reduced mod 65535 at the end of every `update`.
    a: u32,
    b: u32,
    pending: Option<u8>,
    /// Whether any word has been absorbed — the reference only reduces
    /// per word, so an empty input keeps the raw 0xffff seeds.
    any: bool,
}

/// 16-byte blocks the lane sums cover between folds (at most 362, see
/// [`Fletcher32`]).
const FOLD_BLOCKS: usize = 256;

/// Per-position lane sums `(s, r)` over a whole number of 16-byte
/// blocks, at most [`FOLD_BLOCKS`] of them.
type LaneSums = fn(&[u8]) -> ([u32; 8], [u32; 8]);

impl Default for Fletcher32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fletcher32 {
    /// A fresh accumulator: the state of the empty input.
    pub fn new() -> Self {
        Fletcher32 {
            a: 0xffff,
            b: 0xffff,
            pending: None,
            any: false,
        }
    }

    /// Absorbs `bytes`, continuing any odd-length tail from the
    /// previous call.
    pub fn update(&mut self, bytes: &[u8]) {
        self.absorb(bytes, lane_sums);
    }

    #[inline]
    fn absorb(&mut self, mut bytes: &[u8], lanes: LaneSums) {
        let (mut a, mut b) = (u64::from(self.a), u64::from(self.b));
        if let Some(lo) = self.pending.take() {
            let Some((&hi, rest)) = bytes.split_first() else {
                self.pending = Some(lo);
                return;
            };
            a += u64::from(u16::from_le_bytes([lo, hi]));
            b += a;
            self.any = true;
            bytes = rest;
        }
        let whole = bytes.len() & !15;
        for span in bytes[..whole].chunks(16 * FOLD_BLOCKS) {
            let (s, r) = lanes(span);
            let mut db = 8 * (span.len() / 16) as u64 * a;
            for (j, (&s, &r)) in s.iter().zip(&r).enumerate() {
                db += 8 * u64::from(r) + (8 - j as u64) * u64::from(s);
                a += u64::from(s);
            }
            // a < 2^28 and b < 2^40 here: one fold per span keeps u64
            // far from overflow.
            b = (b + db) % 65535;
            a %= 65535;
        }
        let mut words = bytes[whole..].chunks_exact(2);
        for w in &mut words {
            a += u64::from(u16::from_le_bytes([w[0], w[1]]));
            b += a;
        }
        if let [last] = words.remainder() {
            self.pending = Some(*last);
        }
        self.any |= bytes.len() >= 2;
        self.a = (a % 65535) as u32;
        self.b = (b % 65535) as u32;
    }

    /// The Fletcher-32 of everything absorbed so far (odd tail
    /// zero-padded, exactly like [`checksum`]). Non-destructive.
    pub fn finish(&self) -> u32 {
        let (mut a, mut b) = (self.a, self.b);
        if let Some(lo) = self.pending {
            a += u32::from(lo);
            b += a;
        } else if !self.any {
            return 0xffff_ffff; // the reference never reduces its seeds
        }
        ((b % 65535) << 16) | (a % 65535)
    }
}

/// The Fletcher-32 of `bytes` in one call.
fn fletcher32(bytes: &[u8]) -> u32 {
    let mut acc = Fletcher32::new();
    acc.update(bytes);
    acc.finish()
}

// The lane sums this target runs: SSE2 on x86_64, whose baseline
// includes it, and the scalar loop elsewhere.
#[cfg(not(target_arch = "x86_64"))]
use lane_sums_scalar as lane_sums;
#[cfg(target_arch = "x86_64")]
use sse2::lane_sums;

/// The lane sums one position at a time. On x86_64 only the tests
/// run it, against the SSE2 kernel and the reference.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn lane_sums_scalar(blocks: &[u8]) -> ([u32; 8], [u32; 8]) {
    let mut s = [0u32; 8];
    let mut r = [0u32; 8];
    for block in blocks.chunks_exact(16) {
        for (j, w) in block.chunks_exact(2).enumerate() {
            r[j] += s[j];
            s[j] += u32::from(u16::from_le_bytes([w[0], w[1]]));
        }
    }
    (s, r)
}

/// The lane sums in two SSE2 registers per sum: the even word
/// positions of each block are its `u32` lanes masked to their low
/// halves, the odd positions the same lanes shifted right by 16.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse2 {
    use std::arch::x86_64::*;

    /// Safe entry point of the kernel.
    pub fn lane_sums(blocks: &[u8]) -> ([u32; 8], [u32; 8]) {
        assert_eq!(blocks.len() % 16, 0, "lane sums take whole blocks");
        // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64
        // CPU has it, and `run` reads `blocks` only.
        unsafe { run(blocks) }
    }

    /// # Safety
    ///
    /// The CPU must have SSE2. Every load is unaligned and reads block
    /// k of `blocks` only for 16·k + 16 ≤ `blocks.len()`, so it stays
    /// inside the slice.
    unsafe fn run(blocks: &[u8]) -> ([u32; 8], [u32; 8]) {
        let low = _mm_set1_epi32(0xffff);
        let mut s_even = _mm_setzero_si128();
        let mut s_odd = _mm_setzero_si128();
        let mut r_even = _mm_setzero_si128();
        let mut r_odd = _mm_setzero_si128();
        let base = blocks.as_ptr() as *const __m128i;
        for k in 0..blocks.len() / 16 {
            let v = _mm_loadu_si128(base.add(k));
            r_even = _mm_add_epi32(r_even, s_even);
            r_odd = _mm_add_epi32(r_odd, s_odd);
            s_even = _mm_add_epi32(s_even, _mm_and_si128(v, low));
            s_odd = _mm_add_epi32(s_odd, _mm_srli_epi32(v, 16));
        }
        // Lane m of an even/odd pair holds positions 2m and 2m + 1;
        // interleaving the pair restores position order.
        let mut sums = [[0u32; 8]; 2];
        for (dst, (even, odd)) in sums.iter_mut().zip([(s_even, s_odd), (r_even, r_odd)]) {
            let p = dst.as_mut_ptr() as *mut __m128i;
            _mm_storeu_si128(p, _mm_unpacklo_epi32(even, odd));
            _mm_storeu_si128(p.add(1), _mm_unpackhi_epi32(even, odd));
        }
        let [s, r] = sums;
        (s, r)
    }
}

/// Backpressure policy a session chooses at Configure time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// A full queue blocks the socket reader; TCP flow control pushes
    /// the stall back to the client.
    Block,
    /// A full queue evicts its oldest batch and counts the drop; the
    /// client sees the gap as a missing batch index.
    DropOldest,
    /// A full queue is a protocol error: the server sends
    /// [`error_code::QUEUE_OVERFLOW`] and closes the connection.
    Disconnect,
}

impl Backpressure {
    fn to_u8(self) -> u8 {
        match self {
            Backpressure::Block => 0,
            Backpressure::DropOldest => 1,
            Backpressure::Disconnect => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Backpressure::Block),
            1 => Ok(Backpressure::DropOldest),
            2 => Ok(Backpressure::Disconnect),
            other => Err(WireError::BadPolicy(other)),
        }
    }
}

/// DDC configuration preset selected by a Configure frame. Presets
/// travel as one byte; the tap set is derived server-side from
/// `ddc_core::params`, so the wire never carries 125 f64 coefficients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigPreset {
    /// [`ddc_core::DdcConfig::drm`] — the paper's Table 1 chain.
    Drm,
    /// [`ddc_core::DdcConfig::drm_montium`] — 16-bit datapath.
    DrmMontium,
    /// [`ddc_core::DdcConfig::wideband`] — ÷672 wide-band variant.
    Wideband,
    /// [`ddc_core::DdcConfig::wideband_compensated`] — droop-corrected.
    WidebandCompensated,
}

impl ConfigPreset {
    fn to_u8(self) -> u8 {
        match self {
            ConfigPreset::Drm => 0,
            ConfigPreset::DrmMontium => 1,
            ConfigPreset::Wideband => 2,
            ConfigPreset::WidebandCompensated => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(ConfigPreset::Drm),
            1 => Ok(ConfigPreset::DrmMontium),
            2 => Ok(ConfigPreset::Wideband),
            3 => Ok(ConfigPreset::WidebandCompensated),
            other => Err(WireError::BadPreset(other)),
        }
    }

    /// Expands the preset byte into its canonical [`ddc_core::ChainSpec`].
    pub fn to_spec(self, tune_freq: f64) -> ddc_core::ChainSpec {
        let spec = match self {
            ConfigPreset::Drm => ddc_core::ChainSpec::drm_reference(),
            ConfigPreset::DrmMontium => ddc_core::ChainSpec::drm_montium(),
            ConfigPreset::Wideband => ddc_core::ChainSpec::wideband(),
            ConfigPreset::WidebandCompensated => ddc_core::ChainSpec::wideband_compensated(),
        };
        spec.tuned(tune_freq)
    }

    /// Parses the loadgen/CLI spelling of a preset.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drm" => Some(ConfigPreset::Drm),
            "drm-montium" => Some(ConfigPreset::DrmMontium),
            "wideband" => Some(ConfigPreset::Wideband),
            "wideband-compensated" => Some(ConfigPreset::WidebandCompensated),
            _ => None,
        }
    }
}

/// Greeting exchanged in both directions when a connection opens. The
/// version travels in every frame header, so the Hello carries only a
/// banner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Free-form implementation banner.
    pub info: String,
}

/// How a Configure frame names the work to run: a one-byte preset
/// alias (expanded server-side to its canonical spec, so the wire
/// never carries 125 f64 coefficients for the built-in plans), a full
/// binary-encoded [`ddc_core::ChainSpec`] for plans no preset
/// describes, a [`ddc_core::ChannelizerSpec`] opening a wideband
/// ingest session whose polyphase bank fans out to subscribers, or a
/// subscription binding this connection to one channel of a named
/// live channelizer bank.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainPlan {
    /// A built-in preset plus a tuning frequency.
    Preset {
        /// Chain preset.
        preset: ConfigPreset,
        /// NCO tuning frequency, Hz.
        tune_freq: f64,
    },
    /// An explicit, already-tuned chain spec.
    Spec(ddc_core::ChainSpec),
    /// A channelizer ingest session: this connection streams the
    /// wideband input; per-channel outputs go to subscriber sessions.
    Channelizer(ddc_core::ChannelizerSpec),
    /// A subscriber session: receives one channel of a named live
    /// channelizer bank (no Samples may be sent on this connection).
    Subscribe {
        /// Name of the [`ChainPlan::Channelizer`] spec to attach to.
        name: String,
        /// Channel index within that bank (must be enabled).
        channel: u32,
    },
}

impl ChainPlan {
    /// The canonical chain spec this plan names, when it names one
    /// (channelizer and subscriber plans describe fan-out sessions,
    /// not a single chain).
    pub fn to_spec(&self) -> Option<ddc_core::ChainSpec> {
        match self {
            ChainPlan::Preset { preset, tune_freq } => Some(preset.to_spec(*tune_freq)),
            ChainPlan::Spec(spec) => Some(spec.clone()),
            ChainPlan::Channelizer(_) | ChainPlan::Subscribe { .. } => None,
        }
    }
}

/// Per-session quality-of-service profile, negotiated at Configure
/// time. `Throughput` is the historical behaviour (fill buffers, let
/// batches queue); `Latency` bounds the end-to-end sample-in → IQ-out
/// delay: the server runs the session's batches in slices of a
/// quarter-budget's worth of input, writes each ack as soon as its
/// batch completes, and annotates acks with queue-wait/service timing.
/// `Latency` is valid on chain plans
/// only; the server refuses it on channelizer ingest and subscriber
/// plans (`BAD_CONFIG`) rather than accept a bound it cannot enforce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QosProfile {
    /// Maximise samples/sec; latency is whatever the buffers give.
    #[default]
    Throughput,
    /// Bound end-to-end latency to roughly `budget_us` microseconds.
    Latency {
        /// Target end-to-end budget, microseconds (must be non-zero).
        budget_us: u32,
    },
}

impl QosProfile {
    /// Parses the loadgen/CLI spelling: `throughput`, or
    /// `latency:<N>us` / `latency:<N>ms` / `latency:<N>` (µs default).
    pub fn parse(s: &str) -> Option<QosProfile> {
        if s.eq_ignore_ascii_case("throughput") {
            return Some(QosProfile::Throughput);
        }
        let rest = s
            .strip_prefix("latency:")
            .or_else(|| s.strip_prefix("latency="))?;
        let (digits, scale) = if let Some(d) = rest.strip_suffix("ms") {
            (d, 1000u64)
        } else if let Some(d) = rest.strip_suffix("us") {
            (d, 1)
        } else {
            (rest, 1)
        };
        let n: u64 = digits.parse().ok()?;
        let us = n.checked_mul(scale)?;
        if us == 0 || us > u32::MAX as u64 {
            return None;
        }
        Some(QosProfile::Latency {
            budget_us: us as u32,
        })
    }

    /// The latency budget in microseconds, if one is set.
    pub fn budget_us(&self) -> Option<u32> {
        match self {
            QosProfile::Throughput => None,
            QosProfile::Latency { budget_us } => Some(*budget_us),
        }
    }
}

/// Session configuration request (client → server).
#[derive(Clone, Debug, PartialEq)]
pub struct Configure {
    /// The chain to run (preset alias or explicit spec).
    pub plan: ChainPlan,
    /// Backpressure policy for the session's input queue.
    pub policy: Backpressure,
    /// Input-queue capacity in batches (0 → server default).
    pub queue_cap: u32,
    /// QoS profile: trailing tag 1 + u32 budget for `Latency`, nothing
    /// for `Throughput`.
    pub qos: QosProfile,
    /// Server-side trace head-sampling interval: every `N`th accepted
    /// batch that arrives *without* a client-stamped trace ID gets a
    /// server-allocated one. 0 disables server-side sampling and is
    /// omitted on the wire; non-zero travels as trailing tag 2 + u32.
    pub trace_interval: u32,
}

/// A batch of ADC samples (client → server). `batch_index` starts at 0
/// and increments per Samples frame sent, so the server (and the
/// client, looking at echoed indices on Iq frames) can name dropped
/// ranges exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Samples {
    /// Sender-assigned batch number.
    pub batch_index: u64,
    /// ADC samples.
    pub samples: Vec<i32>,
    /// Span-trace ID stamped by the sender on head-sampled batches
    /// (0 = unsampled). Non-zero IDs ride a 9-byte trailing extension
    /// ([`SAMPLES_TRACE_TAG`] + u64) after the sample words; zero is
    /// omitted.
    pub trace_id: u64,
}

/// Tag byte opening the optional Samples trace trailer (tag + u64 =
/// 9 bytes — deliberately not a multiple of the 4-byte sample stride,
/// so a frame whose declared count undercounts its samples can never
/// alias into a traced frame; it fails `CountMismatch` as it always
/// did).
pub const SAMPLES_TRACE_TAG: u8 = 1;

/// The I/Q output for one accepted Samples batch (server → client).
/// Exactly one Iq frame answers every *accepted* batch — possibly with
/// zero words when the decimator spans batches — so a gap in
/// `batch_index` is exactly the set of dropped batches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IqPayload {
    /// The Samples batch this output belongs to.
    pub batch_index: u64,
    /// Running count of batches this session has dropped so far.
    pub dropped_total: u64,
    /// Complex output words, (i, q) pairs.
    pub pairs: Vec<(i64, i64)>,
    /// Server-side timing for this batch (a trailer sent on latency-QoS
    /// sessions, absent on throughput sessions).
    pub timing: Option<IqTiming>,
    /// Span-trace ID echo: the trace ID the corresponding Samples
    /// batch carried (or that the server assigned under the
    /// `trace_interval` Configure tag), so the client can close the
    /// span loop on the ack. 0 = untraced; non-zero rides a 9-byte
    /// trailer ([`IQ_TRACE_TAG`] + u64) after any timing trailer.
    pub trace_id: u64,
}

/// Tag byte opening the optional Iq timing trailer. The trailer is 17
/// bytes (tag + two u64s) — deliberately not a multiple of the 16-byte
/// pair stride, and the tag is verified at decode — so a frame whose
/// declared count undercounts its pairs can never alias into a timed
/// frame; it fails `CountMismatch` as it always did.
pub const IQ_TIMING_TAG: u8 = 1;

/// Tag byte opening the optional Iq trace-ID echo trailer (tag + u64 =
/// 9 bytes). Trailer shapes after the declared pairs are mutually
/// unambiguous: +0 (plain), +17 (timing), +9 (trace), +26 (timing
/// then trace) — none a multiple of the 16-byte pair stride.
pub const IQ_TRACE_TAG: u8 = 2;

/// Server-side per-batch timestamps riding an Iq ack, so the client
/// can split its observed send→ack latency into queue-wait and
/// service-time components instead of conflating them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IqTiming {
    /// Nanoseconds the batch sat in the session's input queue between
    /// arrival and its first DSP slice.
    pub queue_wait_ns: u64,
    /// Nanoseconds from its first DSP slice to its ack, including any
    /// turns the shard gave other sessions in between.
    pub service_ns: u64,
}

/// Point-in-time session statistics (server → client in answer to a
/// Stats request; also sent once before Shutdown as the final word).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// The session's channel: its session id for a chain session, the
    /// bank channel for a subscriber, 0 otherwise.
    pub channel: u32,
    /// Samples batches accepted into the queue.
    pub batches_accepted: u64,
    /// Samples batches evicted under the drop-oldest policy.
    pub batches_dropped: u64,
    /// ADC samples processed through the chain.
    pub samples_in: u64,
    /// Complex output words produced. For an ingest these are the
    /// bank's synthesized words only, summed over the channels with a
    /// subscriber (0 while it has none), so the count follows the
    /// subscriptions.
    pub outputs: u64,
    /// Input-queue depth at snapshot time.
    pub queue_len: u32,
    /// High-water mark of the input queue depth.
    pub queue_hwm: u32,
    /// Nanoseconds the session's chain spent processing.
    pub busy_ns: u64,
    /// DSP jobs (slices) completed across all chain sessions.
    pub farm_jobs_completed: u64,
}

/// A telemetry snapshot (server → client in answer to a
/// [`Frame::MetricsRequest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsReport {
    /// The snapshot in the Prometheus text exposition format (UTF-8).
    pub body: Vec<u8>,
}

/// A drained span-trace export (server → client in answer to a
/// [`Frame::TraceRequest`]). The body is a Chrome trace-event JSON
/// *fragment*: comma-separated event objects without the enclosing
/// `[...]`, so the client can splice server and client events into one
/// `{"traceEvents":[...]}` document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// Spans newly detected as overwritten (ring overflow) since the
    /// previous scrape — non-zero means the export has gaps.
    pub dropped: u64,
    /// Chrome trace-event JSON fragment (UTF-8).
    pub body: Vec<u8>,
}

/// Fatal or diagnostic condition (server → client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// One of [`error_code`].
    pub code: u16,
    /// Human-readable detail.
    pub message: String,
}

/// A decoded protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Opening greeting, one each way.
    Hello(Hello),
    /// Session configuration request.
    Configure(Configure),
    /// Input sample batch.
    Samples(Samples),
    /// Output I/Q batch.
    Iq(IqPayload),
    /// Statistics request (client → server, empty).
    StatsRequest,
    /// Statistics snapshot (server → client).
    StatsReport(StatsReport),
    /// Error report.
    Error(ErrorFrame),
    /// Graceful end-of-stream (either direction).
    Shutdown,
    /// Telemetry snapshot request (client → server, empty).
    MetricsRequest,
    /// Telemetry snapshot (server → client).
    MetricsReport(MetricsReport),
    /// Span-trace export request (client → server, empty). Drains the
    /// server's trace rings.
    TraceRequest,
    /// Span-trace export (server → client).
    TraceReport(TraceReport),
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello(_) => 1,
            Frame::Configure(_) => 2,
            Frame::Samples(_) => 3,
            Frame::Iq(_) => 4,
            Frame::StatsRequest | Frame::StatsReport(_) => 5,
            Frame::Error(_) => 6,
            Frame::Shutdown => 7,
            Frame::MetricsRequest | Frame::MetricsReport(_) => 8,
            Frame::TraceRequest | Frame::TraceReport(_) => 9,
        }
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello(h) => {
            let info = h.info.as_bytes();
            put_u16(out, info.len().min(u16::MAX as usize) as u16);
            out.extend_from_slice(&info[..info.len().min(u16::MAX as usize)]);
        }
        Frame::Configure(c) => {
            match &c.plan {
                ChainPlan::Preset { preset, tune_freq } => {
                    out.push(0); // plan kind: preset alias
                    out.push(preset.to_u8());
                    out.push(c.policy.to_u8());
                    put_u32(out, c.queue_cap);
                    put_u64(out, tune_freq.to_bits());
                }
                ChainPlan::Spec(spec) => {
                    out.push(1); // plan kind: inline spec
                    out.push(c.policy.to_u8());
                    put_u32(out, c.queue_cap);
                    let bytes = spec.encode();
                    put_u32(out, bytes.len() as u32);
                    out.extend_from_slice(&bytes);
                }
                ChainPlan::Channelizer(spec) => {
                    out.push(2); // plan kind: channelizer ingest
                    out.push(c.policy.to_u8());
                    put_u32(out, c.queue_cap);
                    let bytes = spec.encode();
                    put_u32(out, bytes.len() as u32);
                    out.extend_from_slice(&bytes);
                }
                ChainPlan::Subscribe { name, channel } => {
                    out.push(3); // plan kind: channel subscription
                    out.push(c.policy.to_u8());
                    put_u32(out, c.queue_cap);
                    let bytes = name.as_bytes();
                    out.push(bytes.len().min(u8::MAX as usize) as u8);
                    out.extend_from_slice(&bytes[..bytes.len().min(u8::MAX as usize)]);
                    put_u32(out, *channel);
                }
            }
            // Trailing tagged extensions (any plan kind), in tag
            // order, each omitted at its default.
            if let QosProfile::Latency { budget_us } = c.qos {
                out.push(1);
                put_u32(out, budget_us);
            }
            if c.trace_interval != 0 {
                out.push(2);
                put_u32(out, c.trace_interval);
            }
        }
        Frame::Samples(s) => put_samples(out, s.batch_index, &s.samples, s.trace_id),
        Frame::Iq(iq) => put_iq(
            out,
            iq.batch_index,
            iq.dropped_total,
            iq.pairs.iter().copied(),
            iq.timing,
            iq.trace_id,
        ),
        Frame::StatsRequest => out.push(0),
        Frame::StatsReport(r) => {
            out.push(1);
            put_u32(out, r.channel);
            put_u64(out, r.batches_accepted);
            put_u64(out, r.batches_dropped);
            put_u64(out, r.samples_in);
            put_u64(out, r.outputs);
            put_u32(out, r.queue_len);
            put_u32(out, r.queue_hwm);
            put_u64(out, r.busy_ns);
            put_u64(out, r.farm_jobs_completed);
        }
        Frame::Error(e) => {
            put_u16(out, e.code);
            let msg = e.message.as_bytes();
            put_u16(out, msg.len().min(u16::MAX as usize) as u16);
            out.extend_from_slice(&msg[..msg.len().min(u16::MAX as usize)]);
        }
        Frame::Shutdown => {}
        Frame::MetricsRequest => out.push(0),
        Frame::MetricsReport(m) => {
            out.push(1);
            put_u32(out, m.body.len() as u32);
            out.extend_from_slice(&m.body);
        }
        Frame::TraceRequest => out.push(0),
        Frame::TraceReport(t) => {
            out.push(1);
            put_u64(out, t.dropped);
            put_u32(out, t.body.len() as u32);
            out.extend_from_slice(&t.body);
        }
    }
}

/// A Samples payload: the sample words, then the trace-ID stamp on
/// head-sampled batches only.
fn put_samples(out: &mut Vec<u8>, batch_index: u64, samples: &[i32], trace_id: u64) {
    out.reserve(21 + samples.len() * 4);
    put_u64(out, batch_index);
    put_u32(out, samples.len() as u32);
    out.extend(samples.iter().flat_map(|x| x.to_le_bytes()));
    if trace_id != 0 {
        out.push(SAMPLES_TRACE_TAG);
        put_u64(out, trace_id);
    }
}

/// An Iq payload: the pairs, then the per-batch timing (latency-QoS
/// sessions only), then the trace-ID echo.
fn put_iq(
    out: &mut Vec<u8>,
    batch_index: u64,
    dropped_total: u64,
    pairs: impl ExactSizeIterator<Item = (i64, i64)>,
    timing: Option<IqTiming>,
    trace_id: u64,
) {
    out.reserve(42 + pairs.len() * 16);
    put_u64(out, batch_index);
    put_u64(out, dropped_total);
    put_u32(out, pairs.len() as u32);
    out.extend(pairs.flat_map(|(i, q)| {
        let mut pair = [0u8; 16];
        pair[..8].copy_from_slice(&i.to_le_bytes());
        pair[8..].copy_from_slice(&q.to_le_bytes());
        pair
    }));
    if let Some(t) = timing {
        out.push(IQ_TIMING_TAG);
        put_u64(out, t.queue_wait_ns);
        put_u64(out, t.service_ns);
    }
    if trace_id != 0 {
        out.push(IQ_TRACE_TAG);
        put_u64(out, trace_id);
    }
}

/// `frame` with sequence number `seq` as one contiguous byte vector:
/// [`FrameBuf::encode`]'s header followed by its payload.
pub fn encode_frame(frame: &Frame, seq: u32) -> Vec<u8> {
    let mut fb = FrameBuf::new();
    fb.encode(frame, seq);
    [&fb.header[..], &fb.payload].concat()
}

/// An encoded frame kept as separate header and payload segments — the
/// natural shape for vectored socket writes (`write_vectored` sends
/// both with one syscall and no concatenation copy). Reused across
/// frames, the payload `Vec` makes the steady-state egress path
/// allocation-free.
///
/// The hot-path frame types have dedicated encoders
/// ([`encode_samples`](FrameBuf::encode_samples),
/// [`encode_iq`](FrameBuf::encode_iq)) that serialise from borrowed
/// slices, so no owned [`Frame`] is built;
/// [`encode`](FrameBuf::encode) covers every frame type. Each copies
/// the payload in bulk, then [`Fletcher32`] checksums it.
#[derive(Clone, Debug, Default)]
pub struct FrameBuf {
    /// The sealed 20-byte frame header.
    pub header: [u8; HEADER_LEN],
    /// The payload bytes (without the header).
    pub payload: Vec<u8>,
}

impl FrameBuf {
    /// An empty buffer ready for any `encode_*` call.
    pub fn new() -> Self {
        FrameBuf {
            header: [0u8; HEADER_LEN],
            payload: Vec::new(),
        }
    }

    /// Total wire size of the encoded frame.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Checksums the current payload and fills in the header: the one
    /// place a frame header is written.
    fn seal(&mut self, frame_type: u8, seq: u32) {
        debug_assert!(
            self.payload.len() <= MAX_PAYLOAD as usize,
            "oversized frame"
        );
        let payload_sum = fletcher32(&self.payload);
        let h = &mut self.header;
        h[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        h[2] = VERSION;
        h[3] = frame_type;
        h[4..8].copy_from_slice(&seq.to_le_bytes());
        h[8..12].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h[12..16].copy_from_slice(&payload_sum.to_le_bytes());
        let header_sum = fletcher32(&h[0..16]);
        h[16..20].copy_from_slice(&header_sum.to_le_bytes());
    }

    /// Serialises any frame.
    pub fn encode(&mut self, frame: &Frame, seq: u32) {
        self.payload.clear();
        encode_payload(frame, &mut self.payload);
        self.seal(frame.type_byte(), seq);
    }

    /// Samples encoder over a borrowed batch. Byte-identical to
    /// `encode(&Frame::Samples(..))`.
    pub fn encode_samples(&mut self, seq: u32, batch_index: u64, samples: &[i32]) {
        self.encode_samples_traced(seq, batch_index, samples, 0);
    }

    /// [`FrameBuf::encode_samples`] with a trace-ID stamp: non-zero
    /// `trace_id` appends the 9-byte [`SAMPLES_TRACE_TAG`] trailer;
    /// zero is byte-identical to the untraced encoder.
    pub fn encode_samples_traced(
        &mut self,
        seq: u32,
        batch_index: u64,
        samples: &[i32],
        trace_id: u64,
    ) {
        self.payload.clear();
        put_samples(&mut self.payload, batch_index, samples, trace_id);
        self.seal(3, seq);
    }

    /// Iq encoder over borrowed output pairs. Byte-identical to
    /// `encode(&Frame::Iq(..))`, including the optional trailing
    /// timing and trace-echo extensions.
    pub fn encode_iq(
        &mut self,
        seq: u32,
        batch_index: u64,
        dropped_total: u64,
        pairs: &[ddc_core::mixer::Iq],
        timing: Option<IqTiming>,
        trace_id: u64,
    ) {
        self.payload.clear();
        put_iq(
            &mut self.payload,
            batch_index,
            dropped_total,
            pairs.iter().map(|p| (p.i, p.q)),
            timing,
            trace_id,
        );
        self.seal(4, seq);
    }

    /// Writes the whole frame to a blocking writer with vectored
    /// header+payload submission (no intermediate concatenation).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let total = self.total_len();
        let mut done = 0usize;
        while done < total {
            let r = if done < HEADER_LEN {
                w.write_vectored(&[
                    IoSlice::new(&self.header[done..]),
                    IoSlice::new(&self.payload),
                ])
            } else {
                w.write(&self.payload[done - HEADER_LEN..])
            };
            match r {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- decode

/// A validated frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame type byte (already known to be in range).
    pub frame_type: u8,
    /// Sender's sequence number.
    pub seq: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Expected payload checksum.
    pub payload_sum: u32,
}

/// Validates the fixed header: magic, version, checksum, length bound.
pub fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    let header_sum = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if fletcher32(&bytes[0..16]) != header_sum {
        return Err(WireError::HeaderChecksum);
    }
    let magic = u16::from_le_bytes(bytes[0..2].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if bytes[2] != VERSION {
        return Err(WireError::BadVersion(bytes[2]));
    }
    let frame_type = bytes[3];
    if !(1..=9).contains(&frame_type) {
        return Err(WireError::BadType(frame_type));
    }
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(payload_len));
    }
    Ok(FrameHeader {
        frame_type,
        seq: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        payload_len,
        payload_sum: u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decodes a payload already framed by a validated header. Checks the
/// payload checksum before parsing.
pub fn decode_payload(header: &FrameHeader, payload: &[u8]) -> Result<Frame, WireError> {
    debug_assert_eq!(payload.len(), header.payload_len as usize);
    if fletcher32(payload) != header.payload_sum {
        return Err(WireError::PayloadChecksum);
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match header.frame_type {
        1 => {
            let n = c.u16("hello info length")? as usize;
            let info = String::from_utf8_lossy(c.take(n, "hello info")?).into_owned();
            Frame::Hello(Hello { info })
        }
        2 => {
            let (plan, policy, queue_cap) = match c.u8("configure plan kind")? {
                0 => {
                    let preset = ConfigPreset::from_u8(c.u8("configure preset")?)?;
                    let policy = Backpressure::from_u8(c.u8("configure policy")?)?;
                    let queue_cap = c.u32("configure queue_cap")?;
                    let tune_freq = f64::from_bits(c.u64("configure tune_freq")?);
                    (ChainPlan::Preset { preset, tune_freq }, policy, queue_cap)
                }
                1 => {
                    let policy = Backpressure::from_u8(c.u8("configure policy")?)?;
                    let queue_cap = c.u32("configure queue_cap")?;
                    let n = c.u32("configure spec length")? as usize;
                    let spec_bytes = c.take(n, "configure spec")?;
                    // decode() fully validates, so a Configure that
                    // parses always carries a buildable spec.
                    let spec = ddc_core::ChainSpec::decode(spec_bytes)
                        .map_err(|e| WireError::BadSpec(e.to_string()))?;
                    (ChainPlan::Spec(spec), policy, queue_cap)
                }
                2 => {
                    let policy = Backpressure::from_u8(c.u8("configure policy")?)?;
                    let queue_cap = c.u32("configure queue_cap")?;
                    let n = c.u32("configure channelizer spec length")? as usize;
                    let spec_bytes = c.take(n, "configure channelizer spec")?;
                    let spec = ddc_core::ChannelizerSpec::decode(spec_bytes)
                        .map_err(|e| WireError::BadSpec(e.to_string()))?;
                    (ChainPlan::Channelizer(spec), policy, queue_cap)
                }
                3 => {
                    let policy = Backpressure::from_u8(c.u8("configure policy")?)?;
                    let queue_cap = c.u32("configure queue_cap")?;
                    let n = c.u8("configure bank name length")? as usize;
                    let name =
                        String::from_utf8_lossy(c.take(n, "configure bank name")?).into_owned();
                    let channel = c.u32("configure channel")?;
                    (ChainPlan::Subscribe { name, channel }, policy, queue_cap)
                }
                other => {
                    return Err(WireError::BadSpec(format!(
                        "unknown configure plan kind {other}"
                    )))
                }
            };
            // Trailing tagged extensions, absent at their defaults. Tags
            // ascend, so each appears at most once.
            let mut qos = QosProfile::Throughput;
            let mut trace_interval = 0u32;
            let mut last_tag = 0u8;
            while c.remaining() > 0 {
                let tag = c.u8("configure extension tag")?;
                match tag {
                    1 | 2 if tag <= last_tag => {
                        return Err(WireError::BadSpec(format!(
                            "configure extension tag {tag} repeated or out of order"
                        )));
                    }
                    1 => {
                        let budget_us = c.u32("configure qos budget")?;
                        if budget_us == 0 {
                            return Err(WireError::BadSpec(
                                "latency qos budget must be non-zero".into(),
                            ));
                        }
                        qos = QosProfile::Latency { budget_us };
                    }
                    2 => {
                        trace_interval = c.u32("configure trace interval")?;
                        if trace_interval == 0 {
                            return Err(WireError::BadSpec(
                                "trace interval must be non-zero when tagged".into(),
                            ));
                        }
                    }
                    other => {
                        return Err(WireError::BadSpec(format!("unknown qos tag {other}")));
                    }
                }
                last_tag = tag;
            }
            Frame::Configure(Configure {
                plan,
                policy,
                queue_cap,
                qos,
                trace_interval,
            })
        }
        3 => {
            let (batch_index, words, trace_id) = samples_parts(&mut c)?;
            Frame::Samples(Samples {
                batch_index,
                samples: le_samples(words).collect(),
                trace_id,
            })
        }
        4 => {
            let batch_index = c.u64("iq batch_index")?;
            let dropped_total = c.u64("iq dropped_total")?;
            let count = c.u32("iq count")?;
            // The declared count pins the pair bytes exactly; the only
            // other shapes accepted are the tagged trailers: +17
            // (timing), +9 (trace echo), +26 (timing then trace).
            // None is a multiple of the pair stride and every tag is
            // verified below, so a frame whose count undercounts its
            // pairs (16 stray bytes) fails CountMismatch instead of
            // silently decoding as trailed.
            let pair_bytes = count as usize * 16;
            let (timed, traced) = match c.remaining() {
                r if r == pair_bytes => (false, false),
                r if r == pair_bytes + 17 => (true, false),
                r if r == pair_bytes + 9 => (false, true),
                r if r == pair_bytes + 26 => (true, true),
                _ => {
                    return Err(WireError::CountMismatch {
                        declared: count,
                        available: c.remaining(),
                    })
                }
            };
            let pairs = c
                .take(pair_bytes, "iq pairs")?
                .chunks_exact(16)
                .map(|p| {
                    let (i, q) = p.split_at(8);
                    (
                        i64::from_le_bytes(i.try_into().expect("8-byte half")),
                        i64::from_le_bytes(q.try_into().expect("8-byte half")),
                    )
                })
                .collect();
            let timing = if timed {
                match c.u8("iq timing tag")? {
                    IQ_TIMING_TAG => Some(IqTiming {
                        queue_wait_ns: c.u64("iq queue_wait_ns")?,
                        service_ns: c.u64("iq service_ns")?,
                    }),
                    other => {
                        return Err(WireError::BadSpec(format!("unknown iq timing tag {other}")))
                    }
                }
            } else {
                None
            };
            let trace_id = if traced {
                match c.u8("iq trace tag")? {
                    IQ_TRACE_TAG => {
                        let id = c.u64("iq trace_id")?;
                        if id == 0 {
                            return Err(WireError::BadSpec(
                                "iq trace_id must be non-zero when tagged".into(),
                            ));
                        }
                        id
                    }
                    other => {
                        return Err(WireError::BadSpec(format!("unknown iq trace tag {other}")))
                    }
                }
            } else {
                0
            };
            Frame::Iq(IqPayload {
                batch_index,
                dropped_total,
                pairs,
                timing,
                trace_id,
            })
        }
        5 => match c.u8("stats flag")? {
            0 => Frame::StatsRequest,
            _ => Frame::StatsReport(StatsReport {
                channel: c.u32("stats channel")?,
                batches_accepted: c.u64("stats batches_accepted")?,
                batches_dropped: c.u64("stats batches_dropped")?,
                samples_in: c.u64("stats samples_in")?,
                outputs: c.u64("stats outputs")?,
                queue_len: c.u32("stats queue_len")?,
                queue_hwm: c.u32("stats queue_hwm")?,
                busy_ns: c.u64("stats busy_ns")?,
                farm_jobs_completed: c.u64("stats farm_jobs_completed")?,
            }),
        },
        6 => {
            let code = c.u16("error code")?;
            let n = c.u16("error message length")? as usize;
            let message = String::from_utf8_lossy(c.take(n, "error message")?).into_owned();
            Frame::Error(ErrorFrame { code, message })
        }
        7 => Frame::Shutdown,
        8 => match c.u8("metrics flag")? {
            0 => Frame::MetricsRequest,
            _ => {
                let n = c.u32("metrics body length")? as usize;
                if n != c.remaining() {
                    return Err(WireError::CountMismatch {
                        declared: n as u32,
                        available: c.remaining(),
                    });
                }
                let body = c.take(n, "metrics body")?.to_vec();
                Frame::MetricsReport(MetricsReport { body })
            }
        },
        9 => match c.u8("trace flag")? {
            0 => Frame::TraceRequest,
            _ => {
                let dropped = c.u64("trace dropped")?;
                let n = c.u32("trace body length")? as usize;
                if n != c.remaining() {
                    return Err(WireError::CountMismatch {
                        declared: n as u32,
                        available: c.remaining(),
                    });
                }
                let body = c.take(n, "trace body")?.to_vec();
                Frame::TraceReport(TraceReport { dropped, body })
            }
        },
        other => return Err(WireError::BadType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// The parts of a Samples payload whose checksum already held: the
/// batch index, the sample bytes and the trace ID (0 when untraced).
fn samples_parts<'a>(c: &mut Cursor<'a>) -> Result<(u64, &'a [u8], u64), WireError> {
    let batch_index = c.u64("samples batch_index")?;
    let count = c.u32("samples count")?;
    // Exactly the declared samples, or the declared samples plus the
    // 9-byte trace trailer. 9 is not a multiple of the 4-byte sample
    // stride, so the shapes cannot alias.
    let sample_bytes = count as usize * 4;
    let traced = match c.remaining() {
        r if r == sample_bytes => false,
        r if r == sample_bytes + 9 => true,
        _ => {
            return Err(WireError::CountMismatch {
                declared: count,
                available: c.remaining(),
            })
        }
    };
    let words = c.take(sample_bytes, "sample word")?;
    let trace_id = if traced {
        match c.u8("samples trace tag")? {
            SAMPLES_TRACE_TAG => {
                let id = c.u64("samples trace_id")?;
                if id == 0 {
                    return Err(WireError::BadSpec(
                        "samples trace_id must be non-zero when tagged".into(),
                    ));
                }
                id
            }
            other => {
                return Err(WireError::BadSpec(format!(
                    "unknown samples trailer tag {other}"
                )))
            }
        }
    } else {
        0
    };
    Ok((batch_index, words, trace_id))
}

/// Little-endian sample words as `i32`s.
fn le_samples(words: &[u8]) -> impl Iterator<Item = i32> + '_ {
    words
        .chunks_exact(4)
        .map(|w| i32::from_le_bytes(w.try_into().expect("4-byte chunk")))
}

/// Zero-copy Samples decode: verifies the payload checksum, parses the
/// payload, then copies the sample words in bulk straight into `out`
/// (appending) — no intermediate `Vec`, against [`decode_payload`]'s
/// owned one. `out` is typically a session's reusable sample scratch
/// buffer, so the bytes go from the connection read buffer to the DSP
/// input.
///
/// Returns `(batch_index, trace_id)` (`trace_id` is 0 for untraced
/// frames). On any error `out` is left as it was; the errors and their
/// order are [`decode_payload`]'s, as `tests/zero_copy_equiv.rs` pins.
pub fn decode_samples_into(
    header: &FrameHeader,
    payload: &[u8],
    out: &mut Vec<i32>,
) -> Result<(u64, u64), WireError> {
    debug_assert_eq!(payload.len(), header.payload_len as usize);
    debug_assert_eq!(header.frame_type, 3);
    if fletcher32(payload) != header.payload_sum {
        return Err(WireError::PayloadChecksum);
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let (batch_index, words, trace_id) = samples_parts(&mut c)?;
    out.extend(le_samples(words));
    Ok((batch_index, trace_id))
}

// ------------------------------------------------------------- blocking I/O

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// Transport error (including mid-frame EOF).
    Io(io::Error),
    /// Bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "connection closed"),
            FrameReadError::Io(e) => write!(f, "i/o error: {e}"),
            FrameReadError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

impl From<WireError> for FrameReadError {
    fn from(e: WireError) -> Self {
        FrameReadError::Wire(e)
    }
}

/// Reads exactly one frame from `r`, blocking, and returns its sequence
/// number and the frame. The payload lands in the caller's `scratch`
/// (clobbered), so a long-lived receiver reads every frame without a
/// per-frame heap allocation. A clean EOF before the first header byte
/// is [`FrameReadError::Eof`]; EOF mid-frame is an I/O error.
pub fn read_frame<R: Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
) -> Result<(u32, Frame), FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Err(FrameReadError::Eof),
            0 => {
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            n => got += n,
        }
    }
    let h = decode_header(&header)?;
    scratch.clear();
    scratch.resize(h.payload_len as usize, 0);
    r.read_exact(scratch)?;
    Ok((h.seq, decode_payload(&h, scratch)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let seq = 42;
        let bytes = encode_frame(&frame, seq);
        assert!(bytes.len() >= HEADER_LEN);
        let h = decode_header(bytes[..HEADER_LEN].try_into().unwrap()).expect("header");
        assert_eq!(h.seq, seq);
        assert_eq!(h.payload_len as usize, bytes.len() - HEADER_LEN);
        let got = decode_payload(&h, &bytes[HEADER_LEN..]).expect("payload");
        assert_eq!(got, frame);
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Hello(Hello {
            info: "ddc-server test".into(),
        }));
        roundtrip(Frame::Hello(Hello {
            info: String::new(),
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Wideband,
                tune_freq: -10.5e6,
            },
            policy: Backpressure::DropOldest,
            queue_cap: 7,
            qos: QosProfile::Throughput,
            trace_interval: 0,
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Drm,
                tune_freq: 4.5e6,
            },
            policy: Backpressure::Block,
            queue_cap: 2,
            qos: QosProfile::Latency { budget_us: 500 },
            trace_interval: 0,
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Spec(ddc_core::ChainSpec::drm_reference().tuned(3.25e6)),
            policy: Backpressure::Block,
            queue_cap: 4,
            qos: QosProfile::Throughput,
            trace_interval: 0,
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Spec(ddc_core::ChainSpec::drm_low_latency().tuned(3.25e6)),
            policy: Backpressure::Block,
            queue_cap: 4,
            qos: QosProfile::Latency { budget_us: 150 },
            trace_interval: 0,
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Channelizer(ddc_core::ChannelizerSpec::uniform(64, 64_512_000.0)),
            policy: Backpressure::Block,
            queue_cap: 8,
            qos: QosProfile::Throughput,
            trace_interval: 0,
        }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Subscribe {
                name: "pfb64".into(),
                channel: 17,
            },
            policy: Backpressure::Block,
            queue_cap: 0,
            qos: QosProfile::Latency {
                budget_us: 1_000_000,
            },
            trace_interval: 0,
        }));
        roundtrip(Frame::Samples(Samples {
            batch_index: 99,
            samples: vec![i32::MIN, -1, 0, 1, i32::MAX],
            trace_id: 0,
        }));
        roundtrip(Frame::Samples(Samples {
            batch_index: 0,
            samples: vec![],
            trace_id: 0,
        }));
        roundtrip(Frame::Iq(IqPayload {
            batch_index: 3,
            dropped_total: 2,
            pairs: vec![(i64::MIN, i64::MAX), (-5, 5), (0, 0)],
            timing: None,
            trace_id: 0,
        }));
        roundtrip(Frame::Iq(IqPayload {
            batch_index: 4,
            dropped_total: 0,
            pairs: vec![(1, -1)],
            timing: Some(IqTiming {
                queue_wait_ns: 12_345,
                service_ns: u64::MAX,
            }),
            trace_id: 0,
        }));
        roundtrip(Frame::Iq(IqPayload {
            batch_index: 5,
            dropped_total: 0,
            pairs: vec![],
            timing: Some(IqTiming {
                queue_wait_ns: 0,
                service_ns: 7,
            }),
            trace_id: 0,
        }));
        roundtrip(Frame::StatsRequest);
        roundtrip(Frame::StatsReport(StatsReport {
            channel: 3,
            batches_accepted: 10,
            batches_dropped: 2,
            samples_in: 26880,
            outputs: 10,
            queue_len: 1,
            queue_hwm: 4,
            busy_ns: 123_456_789,
            farm_jobs_completed: 40,
        }));
        roundtrip(Frame::Error(ErrorFrame {
            code: error_code::QUEUE_OVERFLOW,
            message: "queue overflow at batch 17".into(),
        }));
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::MetricsReport(MetricsReport {
            body: b"# TYPE ddc_jobs_total counter\nddc_jobs_total 4\n".to_vec(),
        }));
        roundtrip(Frame::MetricsReport(MetricsReport { body: vec![] }));
        roundtrip(Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Drm,
                tune_freq: 4.5e6,
            },
            policy: Backpressure::Block,
            queue_cap: 2,
            qos: QosProfile::Throughput,
            trace_interval: 64,
        }));
        roundtrip(Frame::Samples(Samples {
            batch_index: 100,
            samples: vec![7, -7, 7],
            trace_id: 0x0001_0000_0000_002A,
        }));
        roundtrip(Frame::Samples(Samples {
            batch_index: 101,
            samples: vec![],
            trace_id: u64::MAX,
        }));
        roundtrip(Frame::Iq(IqPayload {
            batch_index: 6,
            dropped_total: 0,
            pairs: vec![(9, -9)],
            timing: None,
            trace_id: ddc_obs::SERVER_TRACE_BIT | 1,
        }));
        roundtrip(Frame::Iq(IqPayload {
            batch_index: 7,
            dropped_total: 3,
            pairs: vec![(i64::MIN, i64::MAX)],
            timing: Some(IqTiming {
                queue_wait_ns: 1,
                service_ns: 2,
            }),
            trace_id: 0x0001_0000_0000_002A,
        }));
        roundtrip(Frame::TraceRequest);
        roundtrip(Frame::TraceReport(TraceReport {
            dropped: 0,
            body: vec![],
        }));
        roundtrip(Frame::TraceReport(TraceReport {
            dropped: 17,
            body: br#"{"ph":"B","name":"ingest"}"#.to_vec(),
        }));
    }

    #[test]
    fn incremental_fletcher_matches_reference_at_any_split() {
        // Deterministic pseudo-random bytes, odd and even lengths.
        let mut state = 0x1234_5678u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 24) as u8
        };
        for len in [0usize, 1, 2, 3, 7, 64, 65, 2047, 4096, 5000] {
            let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            let want = checksum(&bytes);
            // one shot
            let mut acc = Fletcher32::new();
            acc.update(&bytes);
            assert_eq!(acc.finish(), want, "one-shot len {len}");
            // every possible two-way split (including odd boundaries
            // that leave a pending byte across the calls)
            for cut in 0..=len.min(64) {
                let mut acc = Fletcher32::new();
                acc.update(&bytes[..cut]);
                acc.update(&bytes[cut..]);
                assert_eq!(acc.finish(), want, "len {len} cut {cut}");
            }
            // byte-at-a-time
            let mut acc = Fletcher32::new();
            for b in &bytes {
                acc.update(std::slice::from_ref(b));
            }
            assert_eq!(acc.finish(), want, "byte-at-a-time len {len}");
        }
    }

    /// [`Fletcher32`] through each lane kernel, fed whole, split in two
    /// and in odd-sized pieces (a byte pending at each call boundary),
    /// against the reference — across one and two fold spans, on the
    /// inputs that drive the lane sums highest. Short inputs split at
    /// every point, long ones at every point within 24 bytes of an end
    /// or a fold-span boundary.
    #[test]
    fn fletcher_lane_kernels_match_reference_at_fold_edges() {
        const SPAN: usize = 16 * FOLD_BLOCKS;
        let kernels: [(&str, LaneSums); 2] = [("target", lane_sums), ("scalar", lane_sums_scalar)];
        let mut lens: Vec<usize> = (0..=48).collect();
        lens.extend([SPAN - 16, SPAN - 1, SPAN, SPAN + 1, SPAN + 16]);
        lens.extend([2 * SPAN - 1, 2 * SPAN, 2 * SPAN + 17]);
        type Pattern = fn(usize) -> u8;
        let patterns: [(&str, Pattern); 4] = [
            ("all 0xff", |_| 0xff),
            ("all 0x00", |_| 0x00),
            // Words 0x00ff, 0xff00, 0x00ff, … in little-endian bytes.
            ("alternating words", |i| {
                if i % 4 == 0 || i % 4 == 3 {
                    0xff
                } else {
                    0x00
                }
            }),
            // Words ≢ 0 (mod 65535) in every position, so a lane
            // weight that is off on every lane at once shows too.
            ("pseudo-random", |i| {
                (i as u32).wrapping_mul(2_654_435_761).to_be_bytes()[0]
            }),
        ];
        let feed = |lanes: LaneSums, parts: &[&[u8]]| {
            let mut acc = Fletcher32::new();
            for part in parts {
                acc.absorb(part, lanes);
            }
            acc.finish()
        };
        for (pattern, byte) in patterns {
            for &len in &lens {
                let bytes: Vec<u8> = (0..len).map(byte).collect();
                let want = checksum(&bytes);
                for (kernel, lanes) in kernels {
                    let at = format!("{kernel} kernel, {pattern}, {len} bytes");
                    assert_eq!(feed(lanes, &[&bytes]), want, "{at}, whole");
                    let cuts = (0..=len).filter(|&cut| {
                        [0, SPAN, 2 * SPAN, len]
                            .iter()
                            .any(|&e| cut.abs_diff(e) <= 24)
                    });
                    for cut in cuts {
                        let (head, tail) = bytes.split_at(cut);
                        assert_eq!(feed(lanes, &[head, tail]), want, "{at}, split at {cut}");
                    }
                    for piece in [1, 3, 17, SPAN + 1] {
                        let parts: Vec<&[u8]> = bytes.chunks(piece).collect();
                        assert_eq!(feed(lanes, &parts), want, "{at}, {piece}-byte pieces");
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_fletcher_u32_push_matches_bytes() {
        let values = [0u32, 1, 0xffff, 0x1_0000, u32::MAX, 0xDEAD_BEEF];
        let mut bytes = Vec::new();
        let mut acc = Fletcher32::new();
        for &v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
            acc.update(&v.to_le_bytes());
        }
        assert_eq!(acc.finish(), checksum(&bytes));
    }

    #[test]
    fn fused_samples_encode_is_byte_identical_to_generic() {
        for samples in [
            vec![],
            vec![0],
            vec![i32::MIN, -1, 0, 1, i32::MAX],
            (0..2688).map(|k| k * 40503 - 7).collect::<Vec<i32>>(),
        ] {
            let frame = Frame::Samples(Samples {
                batch_index: 77,
                samples: samples.clone(),
                trace_id: 0,
            });
            let want = encode_frame(&frame, 9);
            let mut fb = FrameBuf::new();
            fb.encode_samples(9, 77, &samples);
            let mut got = fb.header.to_vec();
            got.extend_from_slice(&fb.payload);
            assert_eq!(got, want, "fused samples encode diverged");
        }
    }

    #[test]
    fn fused_iq_encode_is_byte_identical_to_generic() {
        let pairs = vec![
            ddc_core::mixer::Iq {
                i: i64::MIN,
                q: i64::MAX,
            },
            ddc_core::mixer::Iq { i: -5, q: 5 },
            ddc_core::mixer::Iq { i: 0, q: 0 },
        ];
        for timing in [
            None,
            Some(IqTiming {
                queue_wait_ns: 98_765,
                service_ns: 43_210,
            }),
        ] {
            for trace_id in [0u64, 0x8000_0000_0000_0123] {
                let frame = Frame::Iq(IqPayload {
                    batch_index: 3,
                    dropped_total: 2,
                    pairs: pairs.iter().map(|p| (p.i, p.q)).collect(),
                    timing,
                    trace_id,
                });
                let want = encode_frame(&frame, 5);
                let mut fb = FrameBuf::new();
                fb.encode_iq(5, 3, 2, &pairs, timing, trace_id);
                let mut got = fb.header.to_vec();
                got.extend_from_slice(&fb.payload);
                assert_eq!(
                    got, want,
                    "fused iq encode diverged ({timing:?}, {trace_id:#x})"
                );
            }
        }
    }

    #[test]
    fn throughput_configure_is_byte_identical_to_legacy_and_decodes() {
        // A Throughput Configure must carry no trailing qos bytes: the
        // preset-plan payload is exactly the 15 pre-QoS bytes.
        let frame = Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Drm,
                tune_freq: 1.0e6,
            },
            policy: Backpressure::Block,
            queue_cap: 8,
            qos: QosProfile::Throughput,
            trace_interval: 0,
        });
        let bytes = encode_frame(&frame, 0);
        assert_eq!(bytes.len() - HEADER_LEN, 1 + 1 + 1 + 4 + 8);
        // A latency profile appends exactly tag(1) + budget(4).
        let timed = Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Drm,
                tune_freq: 1.0e6,
            },
            policy: Backpressure::Block,
            queue_cap: 8,
            qos: QosProfile::Latency { budget_us: 500 },
            trace_interval: 0,
        });
        let timed_bytes = encode_frame(&timed, 0);
        assert_eq!(timed_bytes.len(), bytes.len() + 5);
        assert_eq!(&timed_bytes[HEADER_LEN..bytes.len()], &bytes[HEADER_LEN..]);
        // Zero-budget latency profiles are rejected at decode.
        let mut payload = timed_bytes[HEADER_LEN..].to_vec();
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&0u32.to_le_bytes());
        let header = FrameHeader {
            frame_type: 2,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        let r = decode_payload(&header, &payload);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("non-zero")),
            "{r:?}"
        );
        // An unknown qos tag is rejected, not silently ignored.
        let mut payload = timed_bytes[HEADER_LEN..].to_vec();
        let n = payload.len();
        payload[n - 5] = 9;
        let header = FrameHeader {
            frame_type: 2,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        let r = decode_payload(&header, &payload);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("qos tag")),
            "{r:?}"
        );
    }

    #[test]
    fn qos_profile_parses_cli_spellings() {
        assert_eq!(
            QosProfile::parse("throughput"),
            Some(QosProfile::Throughput)
        );
        assert_eq!(
            QosProfile::parse("latency:500us"),
            Some(QosProfile::Latency { budget_us: 500 })
        );
        assert_eq!(
            QosProfile::parse("latency:2ms"),
            Some(QosProfile::Latency { budget_us: 2000 })
        );
        assert_eq!(
            QosProfile::parse("latency:750"),
            Some(QosProfile::Latency { budget_us: 750 })
        );
        for bad in ["latency:0us", "latency:", "latency:-1", "fast", ""] {
            assert_eq!(QosProfile::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn untimed_iq_is_byte_identical_to_legacy_and_timing_is_tagged_17_bytes() {
        let base = Frame::Iq(IqPayload {
            batch_index: 9,
            dropped_total: 1,
            pairs: vec![(3, -3), (4, -4)],
            timing: None,
            trace_id: 0,
        });
        let legacy = encode_frame(&base, 0);
        assert_eq!(legacy.len() - HEADER_LEN, 8 + 8 + 4 + 2 * 16);
        let timed = Frame::Iq(IqPayload {
            batch_index: 9,
            dropped_total: 1,
            pairs: vec![(3, -3), (4, -4)],
            timing: Some(IqTiming {
                queue_wait_ns: 11,
                service_ns: 22,
            }),
            trace_id: 0,
        });
        let timed_bytes = encode_frame(&timed, 0);
        assert_eq!(timed_bytes.len(), legacy.len() + 17);
        assert_eq!(
            &timed_bytes[HEADER_LEN..legacy.len()],
            &legacy[HEADER_LEN..]
        );
        assert_eq!(timed_bytes[legacy.len()], IQ_TIMING_TAG);
    }

    #[test]
    fn undercounted_iq_is_not_mistaken_for_a_timed_frame() {
        // Encode three pairs, then lie: declare count = 2 so exactly
        // one stray pair (16 bytes) trails the declared pairs — the
        // shape the pre-tag decoder misread as a timing trailer,
        // turning the last pair into queue_wait/service values.
        let frame = Frame::Iq(IqPayload {
            batch_index: 9,
            dropped_total: 1,
            pairs: vec![(3, -3), (4, -4), (5, -5)],
            timing: None,
            trace_id: 0,
        });
        let mut payload = encode_frame(&frame, 0)[HEADER_LEN..].to_vec();
        payload[16..20].copy_from_slice(&2u32.to_le_bytes());
        let header = FrameHeader {
            frame_type: 4,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        let r = decode_payload(&header, &payload);
        assert!(
            matches!(
                r,
                Err(WireError::CountMismatch {
                    declared: 2,
                    available: 48,
                })
            ),
            "{r:?}"
        );
        // And a trailer whose tag byte is wrong is rejected too, not
        // decoded on length alone.
        let timed = Frame::Iq(IqPayload {
            batch_index: 9,
            dropped_total: 1,
            pairs: vec![(3, -3), (4, -4)],
            timing: Some(IqTiming {
                queue_wait_ns: 11,
                service_ns: 22,
            }),
            trace_id: 0,
        });
        let mut payload = encode_frame(&timed, 0)[HEADER_LEN..].to_vec();
        let tag_at = 8 + 8 + 4 + 2 * 16;
        payload[tag_at] = 7;
        let header = FrameHeader {
            frame_type: 4,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        let r = decode_payload(&header, &payload);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("timing tag")),
            "{r:?}"
        );
    }

    /// Re-seal a mutated payload under a fresh checksum so decode
    /// reaches the structural checks instead of failing on the sum.
    fn reseal(frame_type: u8, payload: &[u8]) -> FrameHeader {
        FrameHeader {
            frame_type,
            seq: 0,
            payload_sum: checksum(payload),
            payload_len: payload.len() as u32,
        }
    }

    #[test]
    fn corrupt_trace_trailers_are_rejected_structurally() {
        // A traced Samples frame: bad tag byte and zeroed trace id must
        // both fail BadSpec — on the generic path and the zero-copy
        // path — never silently decode as an untraced frame.
        let traced = Frame::Samples(Samples {
            batch_index: 5,
            samples: vec![10, -20, 30],
            trace_id: 0xBEEF,
        });
        let full = encode_frame(&traced, 0);
        let payload = full[HEADER_LEN..].to_vec();
        let tag_at = payload.len() - 9;

        let mut bad_tag = payload.clone();
        bad_tag[tag_at] = 3;
        let h = reseal(3, &bad_tag);
        let r = decode_payload(&h, &bad_tag);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("samples trailer tag")),
            "{r:?}"
        );
        let mut out = vec![1, 2, 3];
        let r = decode_samples_into(&h, &bad_tag, &mut out);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("samples trailer tag")),
            "{r:?}"
        );
        assert_eq!(out, vec![1, 2, 3], "error must restore the out buffer");

        let mut zero_id = payload.clone();
        zero_id[tag_at + 1..].fill(0);
        let h = reseal(3, &zero_id);
        let r = decode_payload(&h, &zero_id);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("non-zero")),
            "{r:?}"
        );
        let r = decode_samples_into(&h, &zero_id, &mut out);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("non-zero")),
            "{r:?}"
        );
        assert_eq!(out, vec![1, 2, 3]);

        // Truncating the trailer at any interior byte changes the
        // length to a shape that is neither plain nor traced (9 is not
        // a multiple of the 4-byte stride), so decode must object —
        // with the checksum verdict, or CountMismatch once resealed.
        for cut in 1..9 {
            let short = &payload[..payload.len() - cut];
            let h = reseal(3, short);
            let r = decode_payload(&h, short);
            assert!(
                matches!(r, Err(WireError::CountMismatch { .. })),
                "cut {cut}: {r:?}"
            );
            let r = decode_samples_into(&h, short, &mut out);
            assert!(
                matches!(r, Err(WireError::CountMismatch { .. })),
                "cut {cut}: {r:?}"
            );
            assert_eq!(out, vec![1, 2, 3]);
        }

        // Same discipline for the Iq trailer shapes (+9 and +26).
        for timing in [
            None,
            Some(IqTiming {
                queue_wait_ns: 4,
                service_ns: 5,
            }),
        ] {
            let traced = Frame::Iq(IqPayload {
                batch_index: 8,
                dropped_total: 0,
                pairs: vec![(1, -1), (2, -2)],
                timing,
                trace_id: 0xBEEF,
            });
            let full = encode_frame(&traced, 0);
            let payload = full[HEADER_LEN..].to_vec();
            let tag_at = payload.len() - 9;

            let mut bad_tag = payload.clone();
            bad_tag[tag_at] = 9;
            let h = reseal(4, &bad_tag);
            let r = decode_payload(&h, &bad_tag);
            assert!(
                matches!(&r, Err(WireError::BadSpec(m)) if m.contains("iq trace tag")),
                "{timing:?}: {r:?}"
            );

            let mut zero_id = payload.clone();
            zero_id[tag_at + 1..].fill(0);
            let h = reseal(4, &zero_id);
            let r = decode_payload(&h, &zero_id);
            assert!(
                matches!(&r, Err(WireError::BadSpec(m)) if m.contains("non-zero")),
                "{timing:?}: {r:?}"
            );

            for cut in 1..9 {
                let short = &payload[..payload.len() - cut];
                let h = reseal(4, short);
                let r = decode_payload(&h, short);
                assert!(
                    matches!(r, Err(WireError::CountMismatch { .. })),
                    "{timing:?} cut {cut}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn zero_copy_samples_decode_matches_owned_and_restores_on_error() {
        let samples: Vec<i32> = (0..500).map(|k| k * 123456 - 999).collect();
        let bytes = encode_frame(
            &Frame::Samples(Samples {
                batch_index: 42,
                samples: samples.clone(),
                trace_id: 0,
            }),
            0,
        );
        let h = decode_header(bytes[..HEADER_LEN].try_into().unwrap()).unwrap();
        let payload = &bytes[HEADER_LEN..];
        let mut out = vec![7i32; 3]; // pre-existing content must survive
        let (idx, trace) = decode_samples_into(&h, payload, &mut out).unwrap();
        assert_eq!((idx, trace), (42, 0));
        assert_eq!(&out[..3], &[7, 7, 7]);
        assert_eq!(&out[3..], samples.as_slice());
        // corrupt any payload byte → PayloadChecksum and out untouched
        for k in [0usize, 8, 12, 500, payload.len() - 1] {
            let mut bad = payload.to_vec();
            bad[k] ^= 0x20;
            let mut out = vec![1i32, 2];
            assert_eq!(
                decode_samples_into(&h, &bad, &mut out),
                Err(WireError::PayloadChecksum),
                "byte {k}"
            );
            assert_eq!(out, vec![1, 2], "out mutated on checksum failure");
        }
    }

    #[test]
    fn header_checksum_catches_any_single_byte_corruption() {
        let bytes = encode_frame(
            &Frame::Samples(Samples {
                batch_index: 5,
                samples: vec![1, 2, 3],
                trace_id: 0,
            }),
            7,
        );
        for k in 0..HEADER_LEN {
            let mut bad = bytes.clone();
            bad[k] ^= 0x40;
            let r = decode_header(bad[..HEADER_LEN].try_into().unwrap());
            assert!(r.is_err(), "corrupting header byte {k} went undetected");
        }
    }

    #[test]
    fn payload_checksum_catches_payload_corruption() {
        let bytes = encode_frame(
            &Frame::Samples(Samples {
                batch_index: 5,
                samples: vec![1, 2, 3],
                trace_id: 0,
            }),
            7,
        );
        let h = decode_header(bytes[..HEADER_LEN].try_into().unwrap()).unwrap();
        for k in 0..(bytes.len() - HEADER_LEN) {
            let mut bad = bytes[HEADER_LEN..].to_vec();
            bad[k] ^= 0x01;
            assert_eq!(
                decode_payload(&h, &bad),
                Err(WireError::PayloadChecksum),
                "corrupting payload byte {k} went undetected"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        let mut junk = [0u8; HEADER_LEN];
        for (k, b) in junk.iter_mut().enumerate() {
            *b = (k as u8).wrapping_mul(37).wrapping_add(11);
        }
        assert!(decode_header(&junk).is_err());
        // a well-sealed header from a version-2 peer
        let mut old = encode_frame(&Frame::Shutdown, 0);
        old[2] = 2;
        let sum = checksum(&old[0..16]);
        old[16..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_header(old[..HEADER_LEN].try_into().unwrap()),
            Err(WireError::BadVersion(2))
        );
    }

    #[test]
    fn oversized_payload_is_rejected_at_the_header() {
        // Hand-build a header declaring a huge payload with valid sums.
        let mut h = vec![0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        h[2] = VERSION;
        h[3] = 3;
        h[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let sum = checksum(&h[0..16]);
        h[16..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_header(h.as_slice().try_into().unwrap()),
            Err(WireError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let bytes = encode_frame(
            &Frame::Samples(Samples {
                batch_index: 1,
                samples: vec![10, 20],
                trace_id: 0,
            }),
            0,
        );
        let h = decode_header(bytes[..HEADER_LEN].try_into().unwrap()).unwrap();
        // truncation: checksum is over the original bytes, so recompute
        // a consistent-but-short frame by re-declaring the count only.
        let payload = &bytes[HEADER_LEN..];
        let mut short = payload.to_vec();
        short.truncate(payload.len() - 4); // one sample missing
        let mut h_short = h;
        h_short.payload_len -= 4;
        h_short.payload_sum = checksum(&short);
        assert!(matches!(
            decode_payload(&h_short, &short),
            Err(WireError::CountMismatch { declared: 2, .. })
        ));
        // trailing bytes on a Shutdown frame
        let mut h2 = decode_header(
            encode_frame(&Frame::Shutdown, 0)[..HEADER_LEN]
                .try_into()
                .unwrap(),
        )
        .unwrap();
        let junk = [0u8; 3];
        h2.payload_len = 3;
        h2.payload_sum = checksum(&junk);
        assert_eq!(decode_payload(&h2, &junk), Err(WireError::TrailingBytes(3)));
        // a Hello followed by a 4-byte word (the version-2 feature bits)
        let hello = Frame::Hello(Hello { info: "old".into() });
        let mut payload = encode_frame(&hello, 0)[HEADER_LEN..].to_vec();
        payload.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_payload(&reseal(1, &payload), &payload),
            Err(WireError::TrailingBytes(4))
        );
        // a StatsReport in the version-2 shape: the 24-byte tail of three
        // farm totals leaves 16 bytes over, and a report stopped before
        // that tail lacks farm_jobs_completed
        let report = Frame::StatsReport(StatsReport {
            busy_ns: 555,
            farm_jobs_completed: 9,
            ..StatsReport::default()
        });
        let payload = encode_frame(&report, 0)[HEADER_LEN..].to_vec();
        let mut long = payload.clone();
        long.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_payload(&reseal(5, &long), &long),
            Err(WireError::TrailingBytes(16))
        );
        let short = &payload[..payload.len() - 8];
        assert_eq!(
            decode_payload(&reseal(5, short), short),
            Err(WireError::Truncated("stats farm_jobs_completed"))
        );
    }

    #[test]
    fn frames_written_by_frame_buf_read_back_over_a_byte_pipe() {
        let frames = [
            Frame::Hello(Hello {
                info: "pipe".into(),
            }),
            Frame::Samples(Samples {
                batch_index: 0,
                samples: (0..1000).collect(),
                trace_id: 0,
            }),
            Frame::Error(ErrorFrame {
                code: error_code::PROTOCOL,
                message: "odd length payload …".into(),
            }),
            Frame::Shutdown,
        ];
        let mut pipe = Vec::new();
        let mut fb = FrameBuf::new();
        for (k, f) in frames.iter().enumerate() {
            fb.encode(f, k as u32);
            let at = pipe.len();
            fb.write_to(&mut pipe).unwrap();
            assert_eq!(pipe.len() - at, fb.total_len());
            assert_eq!(pipe[at..], encode_frame(f, k as u32));
        }
        let mut r = pipe.as_slice();
        let mut scratch = Vec::new();
        for (k, f) in frames.iter().enumerate() {
            let (seq, got) = read_frame(&mut r, &mut scratch).unwrap();
            assert_eq!(seq, k as u32);
            assert_eq!(&got, f);
        }
        assert!(matches!(
            read_frame(&mut r, &mut scratch),
            Err(FrameReadError::Eof)
        ));
    }

    #[test]
    fn presets_and_policies_roundtrip_and_reject_unknowns() {
        for p in [
            ConfigPreset::Drm,
            ConfigPreset::DrmMontium,
            ConfigPreset::Wideband,
            ConfigPreset::WidebandCompensated,
        ] {
            assert_eq!(ConfigPreset::from_u8(p.to_u8()), Ok(p));
        }
        assert_eq!(ConfigPreset::from_u8(9), Err(WireError::BadPreset(9)));
        for b in [
            Backpressure::Block,
            Backpressure::DropOldest,
            Backpressure::Disconnect,
        ] {
            assert_eq!(Backpressure::from_u8(b.to_u8()), Ok(b));
        }
        assert_eq!(Backpressure::from_u8(9), Err(WireError::BadPolicy(9)));
    }

    #[test]
    fn preset_aliases_expand_to_their_canonical_specs() {
        for (p, name) in [
            (ConfigPreset::Drm, "drm"),
            (ConfigPreset::DrmMontium, "drm_montium"),
            (ConfigPreset::Wideband, "wideband"),
            (ConfigPreset::WidebandCompensated, "wideband_compensated"),
        ] {
            let spec = p.to_spec(7.5e6);
            assert_eq!(spec.name, name);
            assert_eq!(spec.tune_freq, 7.5e6);
            assert_eq!(
                spec,
                ddc_core::ChainSpec::by_name(name).unwrap().tuned(7.5e6)
            );
            // the alias and the inline-spec plan name the same chain
            let plan = ChainPlan::Preset {
                preset: p,
                tune_freq: 7.5e6,
            };
            assert_eq!(plan.to_spec(), ChainPlan::Spec(spec).to_spec());
        }
    }

    /// Builds a spec-plan Configure frame whose embedded spec bytes are
    /// rewritten by `mutate`, with all checksums recomputed so only the
    /// spec decoding itself can object.
    fn configure_with_mutated_spec(mutate: impl FnOnce(&mut Vec<u8>)) -> Result<Frame, WireError> {
        let mut spec_bytes = ddc_core::ChainSpec::drm_reference().encode();
        mutate(&mut spec_bytes);
        let mut payload = vec![1u8]; // plan kind: spec
        payload.push(0); // policy: block
        payload.extend_from_slice(&8u32.to_le_bytes());
        payload.extend_from_slice(&(spec_bytes.len() as u32).to_le_bytes());
        payload.extend_from_slice(&spec_bytes);
        let header = FrameHeader {
            frame_type: 2,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        decode_payload(&header, &payload)
    }

    #[test]
    fn malformed_spec_frames_are_rejected() {
        // intact spec decodes fine
        assert!(configure_with_mutated_spec(|_| {}).is_ok());

        // bad stage count: zero stages
        let r = configure_with_mutated_spec(|b| {
            let stage_count_at = 2 + b[1] as usize + 16 + 4 + 4;
            b[stage_count_at] = 0;
            b.truncate(stage_count_at + 1);
        });
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("at least one stage")),
            "{r:?}"
        );

        // bad stage count: over the limit
        let r = configure_with_mutated_spec(|b| {
            let stage_count_at = 2 + b[1] as usize + 16 + 4 + 4;
            b[stage_count_at] = 200;
        });
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("exceed")),
            "{r:?}"
        );

        // zero decimation in the first CIC stage
        let r = configure_with_mutated_spec(|b| {
            let first_stage_at = 2 + b[1] as usize + 16 + 4 + 4 + 1;
            // tag(1) order(1) diff_delay(1) then u32 decim
            b[first_stage_at + 3..first_stage_at + 7].copy_from_slice(&0u32.to_le_bytes());
        });
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("decimation must be >= 1")),
            "{r:?}"
        );

        // oversized FIR tap count (declared count past the cap, without
        // shipping the taps — must be rejected before allocation)
        let r = configure_with_mutated_spec(|b| {
            let mut spec = ddc_core::ChainSpec::drm_reference();
            if let ddc_core::StageSpec::Fir { decim, .. } = spec.stages[2] {
                spec.stages[2] = ddc_core::StageSpec::Fir {
                    taps: vec![0.0; 1],
                    decim,
                };
            }
            *b = spec.encode();
            let n = b.len();
            // tap count is the last u32 before the single 8-byte tap
            // and the 8-byte budget word
            b[n - 20..n - 16].copy_from_slice(&(1u32 << 30).to_le_bytes());
        });
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("taps, limit")),
            "{r:?}"
        );

        // truncated spec bytes
        let r = configure_with_mutated_spec(|b| {
            b.truncate(b.len() - 1);
        });
        assert!(matches!(&r, Err(WireError::BadSpec(_))), "{r:?}");

        // unknown plan kind byte
        let payload = [9u8, 0, 0, 0, 0, 0];
        let header = FrameHeader {
            frame_type: 2,
            seq: 0,
            payload_len: payload.len() as u32,
            payload_sum: checksum(&payload),
        };
        let r = decode_payload(&header, &payload);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("plan kind")),
            "{r:?}"
        );

        // extension tags: 0 is no tag, and no tag may come twice
        let plain = Frame::Configure(Configure {
            plan: ChainPlan::Preset {
                preset: ConfigPreset::Drm,
                tune_freq: 1.0e6,
            },
            policy: Backpressure::Block,
            queue_cap: 8,
            qos: QosProfile::Throughput,
            trace_interval: 0,
        });
        let base = encode_frame(&plain, 0)[HEADER_LEN..].to_vec();
        let mut tag0 = base.clone();
        tag0.push(0);
        let r = decode_payload(&reseal(2, &tag0), &tag0);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("qos tag 0")),
            "{r:?}"
        );
        let mut twice = base;
        for budget_us in [500u32, 600] {
            twice.push(1);
            twice.extend_from_slice(&budget_us.to_le_bytes());
        }
        let r = decode_payload(&reseal(2, &twice), &twice);
        assert!(
            matches!(&r, Err(WireError::BadSpec(m)) if m.contains("tag 1 repeated")),
            "{r:?}"
        );
    }

    #[test]
    fn malformed_channelizer_spec_frames_are_rejected() {
        // A channelizer-plan Configure whose embedded spec bytes are
        // corrupted must surface the structured spec error, not panic
        // or fall through to a half-built session.
        let good = ddc_core::ChannelizerSpec::uniform(16, 1.0e6).encode();
        let mut cases: Vec<(Vec<u8>, &str)> = Vec::new();
        let mut truncated = good.clone();
        truncated.truncate(truncated.len() - 1);
        cases.push((truncated, "truncated"));
        let mut bad_version = good.clone();
        bad_version[0] = 99;
        cases.push((bad_version, "bad version"));
        let mut huge_channels = good.clone();
        let at = 2 + good[1] as usize + 8;
        huge_channels[at..at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        cases.push((huge_channels, "absurd channel count"));
        for (spec_bytes, what) in cases {
            let mut payload = vec![2u8, 0]; // plan kind: channelizer; policy: block
            payload.extend_from_slice(&8u32.to_le_bytes());
            payload.extend_from_slice(&(spec_bytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(&spec_bytes);
            let header = FrameHeader {
                frame_type: 2,
                seq: 0,
                payload_len: payload.len() as u32,
                payload_sum: checksum(&payload),
            };
            let r = decode_payload(&header, &payload);
            assert!(matches!(&r, Err(WireError::BadSpec(_))), "{what}: {r:?}");
        }
    }
}

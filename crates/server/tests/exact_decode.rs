//! Decodes are exact: a payload decodes only if encoding the decoded
//! frame gives back the same bytes.
//!
//! Each property draws random Samples, Iq, Configure or request/report
//! frames, encodes them, and requires `encode(decode(b)) == b`. Then it
//! changes one payload byte at a time (every byte of the fixed fields,
//! and a few past them), re-seals the checksum, and requires the same
//! of every changed payload that still decodes: no two byte strings
//! decode to one frame.

use ddc_core::{ChainSpec, ChannelizerSpec};
use ddc_server::wire::{
    checksum, decode_payload, encode_frame, Backpressure, ChainPlan, ConfigPreset, Configure,
    Frame, FrameHeader, IqPayload, IqTiming, MetricsReport, QosProfile, Samples, StatsReport,
    TraceReport, HEADER_LEN,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The payload `frame_type` re-encodes to, if `payload` decodes.
fn reencode(frame_type: u8, payload: &[u8]) -> Option<Vec<u8>> {
    let header = FrameHeader {
        frame_type,
        seq: 0,
        payload_len: payload.len() as u32,
        payload_sum: checksum(payload),
    };
    let frame = decode_payload(&header, payload).ok()?;
    Some(encode_frame(&frame, 0)[HEADER_LEN..].to_vec())
}

/// Checks `frame`'s payload and its single-byte changes. Bytes below
/// 64 are each changed once; 16 more positions past them are drawn
/// from `seed`, as is each change's non-zero XOR mask.
fn decodes_exactly(frame: &Frame, mut seed: u64) -> Result<(), TestCaseError> {
    let bytes = encode_frame(frame, 0);
    let (frame_type, payload) = (bytes[3], &bytes[HEADER_LEN..]);
    prop_assert_eq!(
        reencode(frame_type, payload),
        Some(payload.to_vec()),
        "{:?}",
        frame
    );
    let mut next = move || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        seed >> 33
    };
    let fixed = payload.len().min(64);
    let extra: Vec<usize> = (0..16).map(|_| next() as usize % payload.len()).collect();
    for at in (0..fixed).chain(extra) {
        let mut changed = payload.to_vec();
        changed[at] ^= (next() as u8).max(1);
        if let Some(again) = reencode(frame_type, &changed) {
            prop_assert_eq!(
                &again,
                &changed,
                "byte {} of {:?} changed to {:#04x} decodes to other bytes",
                at,
                frame,
                changed[at]
            );
        }
    }
    Ok(())
}

/// `v` half the time (when `coin` is odd), else 0.
fn or_zero(coin: u64, v: u64) -> u64 {
    if coin & 1 == 1 {
        v
    } else {
        0
    }
}

proptest! {
    /// Samples and Iq frames, traced or not, timed or not.
    #[test]
    fn samples_and_iq_decode_exactly(
        batch_index in any::<u64>(),
        trace_id in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 0..6),
        dropped_total in any::<u64>(),
        timed in any::<bool>(),
        queue_wait_ns in any::<u64>(),
        service_ns in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let trace_id = or_zero(seed >> 1, trace_id);
        let samples = Frame::Samples(Samples {
            batch_index,
            samples: words.iter().map(|&w| w as i32).collect(),
            trace_id,
        });
        decodes_exactly(&samples, seed)?;
        let iq = Frame::Iq(IqPayload {
            batch_index,
            dropped_total,
            pairs: words.iter().map(|&w| (w as i64, !w as i64)).collect(),
            timing: timed.then_some(IqTiming {
                queue_wait_ns: or_zero(seed >> 2, queue_wait_ns),
                service_ns: or_zero(seed >> 3, service_ns),
            }),
            trace_id,
        });
        decodes_exactly(&iq, !seed)?;
    }

    /// Configure frames of every plan kind, with and without a latency
    /// budget and a trace interval.
    #[test]
    fn configure_decodes_exactly(
        kind in 0u8..4,
        pick in any::<u32>(),
        queue_cap in any::<u32>(),
        budget_us in any::<u32>(),
        trace_interval in any::<u32>(),
        tune_bits in any::<u64>(),
        name in prop::collection::vec(0u8..26, 0..12),
        seed in any::<u64>(),
    ) {
        let plan = match kind {
            0 => ChainPlan::Preset {
                preset: [
                    ConfigPreset::Drm,
                    ConfigPreset::DrmMontium,
                    ConfigPreset::Wideband,
                    ConfigPreset::WidebandCompensated,
                ][pick as usize % 4],
                tune_freq: f64::from_bits(tune_bits),
            },
            1 => {
                let spec = match pick % 3 {
                    0 => ChainSpec::drm_reference(),
                    1 => ChainSpec::drm_low_latency(),
                    _ => ChainSpec::wideband(),
                };
                ChainPlan::Spec(spec.tuned(f64::from(pick % 1000) * 1e4))
            }
            2 => {
                let mut bank = ChannelizerSpec::uniform([8, 16, 64][pick as usize % 3], 1.0e6);
                for (k, on) in bank.enabled.iter_mut().enumerate() {
                    *on = k == 0 || (seed >> (k % 64)) & 1 == 1;
                }
                ChainPlan::Channelizer(bank)
            }
            _ => ChainPlan::Subscribe {
                name: name.iter().map(|&c| char::from(b'a' + c)).collect(),
                channel: pick,
            },
        };
        let configure = Frame::Configure(Configure {
            plan,
            policy: [Backpressure::Block, Backpressure::DropOldest, Backpressure::Disconnect]
                [seed as usize % 3],
            queue_cap,
            qos: match or_zero(seed >> 1, u64::from(budget_us)) as u32 {
                0 => QosProfile::Throughput,
                budget_us => QosProfile::Latency { budget_us },
            },
            trace_interval: or_zero(seed >> 2, u64::from(trace_interval)) as u32,
        });
        decodes_exactly(&configure, seed)?;
    }

    /// Stats, Metrics and Trace requests and reports.
    #[test]
    fn requests_and_reports_decode_exactly(
        which in 0u8..6,
        fields in prop::collection::vec(any::<u64>(), 9..10),
        body in prop::collection::vec(any::<u8>(), 0..40),
        seed in any::<u64>(),
    ) {
        let frame = match which {
            0 => Frame::StatsRequest,
            1 => Frame::StatsReport(StatsReport {
                channel: fields[0] as u32,
                batches_accepted: fields[1],
                batches_dropped: fields[2],
                samples_in: fields[3],
                outputs: fields[4],
                queue_len: fields[5] as u32,
                queue_hwm: fields[6] as u32,
                busy_ns: fields[7],
                chain_slices: fields[8],
            }),
            2 => Frame::MetricsRequest,
            3 => Frame::MetricsReport(MetricsReport { body }),
            4 => Frame::TraceRequest,
            _ => Frame::TraceReport(TraceReport {
                dropped: fields[0],
                body,
            }),
        };
        decodes_exactly(&frame, seed)?;
    }
}

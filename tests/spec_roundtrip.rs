//! Property-based coverage of the declarative chain plan: any valid
//! [`ChainSpec`] must survive the binary wire encoding exactly, and
//! the chain built from it must be bit-exact between its per-sample
//! and block paths. Malformed spec bytes must be rejected with a
//! structured error, never a panic or a silently-wrong chain.

use ddc_suite::core::chain::FixedDdc;
use ddc_suite::core::params::FixedFormat;
use ddc_suite::core::spec::{ChainSpec, ChannelizerSpec, SpecError, StageSpec};
use proptest::prelude::*;

/// Small deterministic generator so a single `u64` seed can drive an
/// arbitrary-shaped spec (the compat proptest has no `flat_map` to
/// build variable-shaped structures directly).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Builds a random valid spec: 1–3 CIC stages with mixed orders and
/// differential delays, optionally followed by a small FIR, in either
/// fixed-point format. Every shape this returns passes `validate()`.
fn random_spec(mut seed: u64) -> ChainSpec {
    let r = &mut seed;
    let n_cic = 1 + (xorshift(r) % 3) as usize;
    let mut stages = Vec::new();
    for _ in 0..n_cic {
        stages.push(StageSpec::Cic {
            order: 1 + (xorshift(r) % 4) as u32,
            decim: 1 + (xorshift(r) % 8) as u32,
            diff_delay: 1 + (xorshift(r) % 2) as u32,
        });
    }
    if !xorshift(r).is_multiple_of(4) || stages.is_empty() {
        let n_taps = 1 + (xorshift(r) % 48) as usize;
        let taps: Vec<f64> = (0..n_taps)
            .map(|_| (xorshift(r) % 2048) as f64 / 2048.0 - 0.5)
            .collect();
        stages.push(StageSpec::Fir {
            taps,
            decim: 1 + (xorshift(r) % 4) as u32,
        });
    }
    let format = if xorshift(r).is_multiple_of(2) {
        FixedFormat::FPGA12
    } else {
        FixedFormat::MONTIUM16
    };
    let input_rate = [1.0e6, 10.0e6, 64_512_000.0][(xorshift(r) % 3) as usize];
    let mut spec = ChainSpec {
        name: format!("prop-{}", xorshift(r) % 10_000),
        input_rate,
        tune_freq: (xorshift(r) % 1000) as f64 / 1000.0 * input_rate * 0.49,
        stages,
        format,
        budget: None,
    };
    // A quarter of the shapes declare a (satisfiable) latency budget,
    // so a non-zero budget word rides the same round-trip and
    // bit-exactness properties as the zero one.
    if xorshift(r).is_multiple_of(4) {
        spec.budget = Some(ddc_suite::core::spec::LatencyBudget {
            max_us: spec.latency_budget().total_us() * 2.0 + 1.0,
        });
    }
    spec.validate().expect("generated spec must be valid");
    spec
}

proptest! {
    /// Wire round-trip: encode → decode reproduces the spec exactly,
    /// including every f64 bit of the rates, tuning and FIR taps.
    #[test]
    fn random_valid_spec_roundtrips_encoding(seed in any::<u64>()) {
        let spec = random_spec(seed);
        let bytes = spec.encode();
        let back = ChainSpec::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chain built from any valid spec is bit-exact between the
    /// per-sample path and an arbitrarily-chunked block path.
    #[test]
    fn random_valid_spec_block_equals_per_sample(
        seed in any::<u64>(),
        chunk in 1usize..700,
    ) {
        let spec = random_spec(seed);
        let n = spec.total_decimation() as usize * 3 + (seed % 97) as usize;
        let mut s = seed | 1;
        let input: Vec<i32> = (0..n)
            .map(|_| (xorshift(&mut s) % 4096) as i32 - 2048)
            .collect();

        let mut per_sample = FixedDdc::from_spec(spec.clone());
        let mut expect = Vec::new();
        for &x in &input {
            if let Some(z) = per_sample.process(i64::from(x)) {
                expect.push(z);
            }
        }
        let mut blocked = FixedDdc::from_spec(spec);
        let mut got = Vec::new();
        for piece in input.chunks(chunk) {
            blocked.process_into(piece, &mut got);
        }
        prop_assert_eq!(got, expect);
    }
}

// ---- malformed-bytes rejection ------------------------------------
//
// Offsets follow the spec layout: version(1) name_len(1) name(k)
// input_rate(8) tune_freq(8) format(4) declared_total(4)
// stage_count(1) stages... budget(8)

/// Byte offset of the stage-count field for a spec named `name`.
fn count_offset(name: &str) -> usize {
    2 + name.len() + 8 + 8 + 4 + 4
}

#[test]
fn zero_stage_count_is_rejected() {
    let spec = ChainSpec::drm_reference();
    let mut b = spec.encode();
    let at = count_offset(&spec.name);
    b[at] = 0;
    b.truncate(at + 1);
    assert_eq!(ChainSpec::decode(&b), Err(SpecError::NoStages));
}

#[test]
fn oversized_stage_count_is_rejected() {
    let spec = ChainSpec::drm_reference();
    let mut b = spec.encode();
    b[count_offset(&spec.name)] = 200;
    assert_eq!(ChainSpec::decode(&b), Err(SpecError::TooManyStages(200)));
}

#[test]
fn zero_decimation_is_rejected() {
    let spec = ChainSpec::drm_reference();
    let mut b = spec.encode();
    // First stage is a CIC: tag(1) order(1) diff_delay(1) decim(4).
    let decim_at = count_offset(&spec.name) + 1 + 3;
    b[decim_at..decim_at + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        ChainSpec::decode(&b),
        Err(SpecError::ZeroDecimation(0) | SpecError::DecimationMismatch { .. })
    ));
}

#[test]
fn oversized_fir_tap_count_is_rejected_before_allocation() {
    let spec = ChainSpec {
        name: "f".to_string(),
        input_rate: 1.0e6,
        tune_freq: 0.0,
        stages: vec![StageSpec::Fir {
            taps: vec![0.25],
            decim: 1,
        }],
        format: FixedFormat::FPGA12,
        budget: None,
    };
    let mut b = spec.encode();
    // FIR stage: tag(1) decim(4) n_taps(4) taps...
    let n_taps_at = count_offset(&spec.name) + 1 + 1 + 4;
    b[n_taps_at..n_taps_at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
    assert_eq!(
        ChainSpec::decode(&b),
        Err(SpecError::OversizedFir(0, 1 << 30))
    );
}

#[test]
fn every_truncation_of_a_valid_encoding_is_rejected() {
    let b = ChainSpec::drm_montium().encode();
    for len in 0..b.len() {
        assert!(
            ChainSpec::decode(&b[..len]).is_err(),
            "prefix of length {len} decoded"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut b = ChainSpec::wideband().encode();
    b.push(0);
    assert_eq!(ChainSpec::decode(&b), Err(SpecError::TrailingBytes(1)));
}

#[test]
fn wrong_encoding_version_is_rejected() {
    let mut b = ChainSpec::drm_reference().encode();
    b[0] = 99;
    assert_eq!(
        ChainSpec::decode(&b),
        Err(SpecError::BadEncodingVersion(99))
    );
}

#[test]
fn unknown_stage_tag_is_rejected() {
    let spec = ChainSpec::drm_reference();
    let mut b = spec.encode();
    b[count_offset(&spec.name) + 1] = 7;
    assert_eq!(ChainSpec::decode(&b), Err(SpecError::BadStageTag(7)));
}

#[test]
fn inconsistent_declared_total_is_rejected() {
    let spec = ChainSpec::drm_reference();
    let mut b = spec.encode();
    let total_at = count_offset(&spec.name) - 4;
    b[total_at..total_at + 4].copy_from_slice(&999u32.to_le_bytes());
    assert_eq!(
        ChainSpec::decode(&b),
        Err(SpecError::DecimationMismatch {
            declared: 999,
            product: spec.total_decimation(),
        })
    );
}

// ---- malformed channelizer-spec rejection -------------------------
//
// Offsets follow the channelizer v1 layout: version(1) name_len(1)
// name(k) input_rate(8) channels(4) taps_per_branch(4) oversample(1)
// design(1) atten_db(8) cutoff_scale(8) format(4) declared_len(4)
// mask(ceil(N/8)).

/// Byte offset of the channels field for a spec named `name`.
fn channels_offset(name: &str) -> usize {
    2 + name.len() + 8
}

#[test]
fn channelizer_roundtrips_with_sparse_mask() {
    let mut s = ChannelizerSpec::uniform(64, 64_512_000.0);
    for k in 0..64 {
        s.enabled[k] = k % 3 == 0;
    }
    let back = ChannelizerSpec::decode(&s.encode()).expect("own encoding decodes");
    assert_eq!(back, s);
}

#[test]
fn channelizer_every_truncation_is_rejected() {
    let b = ChannelizerSpec::uniform(16, 1.0e6).encode();
    for len in 0..b.len() {
        assert!(
            ChannelizerSpec::decode(&b[..len]).is_err(),
            "prefix of length {len} decoded"
        );
    }
}

#[test]
fn channelizer_bad_channel_count_is_rejected_before_mask_allocation() {
    let s = ChannelizerSpec::uniform(16, 1.0e6);
    let mut b = s.encode();
    let at = channels_offset(&s.name);
    // An absurd channel count must be rejected by range check, not by
    // attempting to read a multi-megabyte mask.
    b[at..at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
    assert_eq!(
        ChannelizerSpec::decode(&b),
        Err(SpecError::BadChannelCount(1 << 30))
    );
}

#[test]
fn channelizer_unknown_design_tag_is_rejected() {
    let s = ChannelizerSpec::uniform(16, 1.0e6);
    let mut b = s.encode();
    let design_at = channels_offset(&s.name) + 4 + 4 + 1;
    b[design_at] = 9;
    assert_eq!(ChannelizerSpec::decode(&b), Err(SpecError::BadDesignTag(9)));
}

#[test]
fn channelizer_trailing_mask_bits_are_rejected() {
    // 12 channels → 2 mask bytes with 4 trailing bits that must be 0.
    let s = ChannelizerSpec::uniform(12, 1.0e6);
    let mut b = s.encode();
    let last = b.len() - 1;
    b[last] |= 0xF0;
    assert_eq!(ChannelizerSpec::decode(&b), Err(SpecError::BadEnableMask));
}

#[test]
fn channelizer_all_clear_mask_is_rejected() {
    let s = ChannelizerSpec::uniform(16, 1.0e6);
    let mut b = s.encode();
    let len = b.len();
    b[len - 2..].fill(0);
    assert_eq!(
        ChannelizerSpec::decode(&b),
        Err(SpecError::NoEnabledChannels)
    );
}

#[test]
fn channelizer_inconsistent_prototype_length_is_rejected() {
    let s = ChannelizerSpec::uniform(16, 1.0e6);
    let mut b = s.encode();
    let declared_at = b.len() - 2 - 4; // mask(2) then declared_len(4)
    b[declared_at..declared_at + 4].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        ChannelizerSpec::decode(&b),
        Err(SpecError::PrototypeMismatch {
            declared: 7,
            product: 128,
        })
    );
}

#[test]
fn channelizer_trailing_bytes_are_rejected() {
    let mut b = ChannelizerSpec::uniform(16, 1.0e6).encode();
    b.push(0);
    assert_eq!(
        ChannelizerSpec::decode(&b),
        Err(SpecError::TrailingBytes(1))
    );
}

//! Properties pinning the zero-copy Samples decode path to the owned
//! reference path.
//!
//! The server's hot path reassembles frames from arbitrary socket
//! read boundaries and decodes them with
//! [`ddc_server::wire::decode_samples_into`] straight into a reused
//! scratch buffer; the owned path ([`ddc_server::wire::decode_payload`]
//! behind [`ddc_server::wire::read_frame`]) allocates a fresh
//! `Vec` per frame. These tests draw random frames, deliver them torn
//! at random byte boundaries, and require the two paths to agree on
//! every accepted value and on every rejection verdict — including
//! frames whose payload was corrupted in flight.

use ddc_server::wire::{
    decode_header, decode_payload, decode_samples_into, read_frame, Frame, FrameBuf, WireError,
    HEADER_LEN,
};
use proptest::prelude::*;
use std::io::Read;

/// Hands out the underlying bytes in caller-chosen piece lengths, so
/// every downstream read sees torn frame boundaries. Once the piece
/// plan is exhausted it serves whatever the caller asked for.
struct TornReader<'a> {
    bytes: &'a [u8],
    pieces: &'a [usize],
    pos: usize,
    turn: usize,
}

impl Read for TornReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.bytes.len() {
            return Ok(0);
        }
        let want = self.pieces.get(self.turn).copied().unwrap_or(usize::MAX);
        self.turn += 1;
        let n = want
            .clamp(1, buf.len().max(1))
            .min(buf.len())
            .min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One wire-encoded Samples frame (header + payload), via the same
/// fused encoder the client's hot path uses. The layout is fixed:
/// batch index, trace id (0 = untraced), count, then the samples.
fn frame_bytes(seq: u32, batch_index: u64, samples: &[i32], trace_id: u64) -> Vec<u8> {
    let mut fb = FrameBuf::new();
    fb.encode_samples_traced(seq, batch_index, samples, trace_id);
    let mut bytes = Vec::new();
    fb.write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

proptest! {
    /// Valid frames: the borrowed decoder appends exactly the samples
    /// the owned decoder produces, regardless of how the stream was
    /// torn into pieces on its way in.
    #[test]
    fn torn_borrowed_decode_matches_owned(
        samples in prop::collection::vec(any::<i32>(), 0..300),
        batch_index in any::<u64>(),
        seq in any::<u32>(),
        pieces in prop::collection::vec(1usize..97, 1..24),
        trace_id in any::<u64>(),
    ) {
        let bytes = frame_bytes(seq, batch_index, &samples, trace_id);

        // Owned reference path, reading through torn boundaries.
        let mut torn = TornReader { bytes: &bytes, pieces: &pieces, pos: 0, turn: 0 };
        let (got_seq, frame) = match read_frame(&mut torn, &mut Vec::new()) {
            Ok(t) => t,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("valid frame rejected by owned path: {e}"),
            )),
        };
        prop_assert_eq!(got_seq, seq);
        let owned = match frame {
            Frame::Samples(s) => s,
            other => {
                prop_assert!(false, "expected Samples, got {other:?}");
                unreachable!()
            }
        };
        prop_assert_eq!(owned.batch_index, batch_index);
        prop_assert_eq!(owned.trace_id, trace_id);
        prop_assert_eq!(&owned.samples, &samples);

        // Borrowed zero-copy path over the reassembled payload. The
        // output buffer starts non-empty: decode must append, exactly
        // like a session's reused farm-input scratch.
        let header = decode_header(bytes[..HEADER_LEN].try_into().expect("header slice"))
            .expect("header is untouched");
        let mut out = vec![7i32; 3];
        let (idx, got_trace) = match decode_samples_into(&header, &bytes[HEADER_LEN..], &mut out) {
            Ok(pair) => pair,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("valid frame rejected by borrowed path: {e:?}"),
            )),
        };
        prop_assert_eq!(idx, batch_index);
        prop_assert_eq!(got_trace, trace_id);
        prop_assert_eq!(&out[..3], &[7i32; 3][..]);
        prop_assert_eq!(&out[3..], &owned.samples[..]);
    }

    /// Corrupted frames: any single flipped payload byte moves the
    /// Fletcher-32 residue (a one-byte XOR shifts a 16-bit word by a
    /// nonzero amount strictly inside ±65535), so both decoders must
    /// reject with the same verdict — and the borrowed decoder must
    /// leave its output buffer exactly as it found it.
    #[test]
    fn corrupted_payload_rejected_identically(
        samples in prop::collection::vec(any::<i32>(), 1..200),
        batch_index in any::<u64>(),
        seq in any::<u32>(),
        corrupt_at in any::<u64>(),
        flip in 1u8..=255u8,
        pieces in prop::collection::vec(1usize..97, 1..24),
        trace_id in any::<u64>(),
    ) {
        let mut bytes = frame_bytes(seq, batch_index, &samples, trace_id);
        let payload_len = bytes.len() - HEADER_LEN;
        let at = HEADER_LEN + (corrupt_at as usize % payload_len);
        bytes[at] ^= flip;

        let header = decode_header(bytes[..HEADER_LEN].try_into().expect("header slice"))
            .expect("header is untouched");
        let payload = &bytes[HEADER_LEN..];

        let owned = decode_payload(&header, payload);
        let sentinel = vec![-1i32, 0, 1];
        let mut out = sentinel.clone();
        let borrowed = decode_samples_into(&header, payload, &mut out);

        match (&owned, &borrowed) {
            (Err(WireError::PayloadChecksum), Err(WireError::PayloadChecksum)) => {}
            (a, b) => prop_assert!(
                false,
                "verdicts diverged or corruption went undetected: owned {a:?}, borrowed {b:?}"
            ),
        }
        prop_assert_eq!(&out, &sentinel);

        // The streaming reader agrees: the torn stream surfaces the
        // same rejection instead of a decoded frame.
        let mut torn = TornReader { bytes: &bytes, pieces: &pieces, pos: 0, turn: 0 };
        match read_frame(&mut torn, &mut Vec::new()) {
            Err(ddc_server::wire::FrameReadError::Wire(WireError::PayloadChecksum)) => {}
            other => prop_assert!(
                false,
                "streaming read of a corrupted frame returned {other:?}"
            ),
        }
    }
}

//! Property-based tests for the wire format: bitwise tensor round-trips
//! (including NaN payloads, signed zeros, and subnormals) and rejection of
//! corrupted or truncated frames.

use pac_net::wire::{decode_frame, encode_frame, FrameReader, IoSource, Msg, NetError, SnapReq};
use pac_tensor::Tensor;
use proptest::prelude::*;
use std::io::Cursor;

/// Bit patterns that commonly break float transports: quiet/signaling
/// NaNs with payloads, both zeros, subnormals, infinities, and extremes.
const WEIRD_BITS: [u32; 10] = [
    0x7fc0_0000, // canonical quiet NaN
    0x7fc0_1234, // quiet NaN with payload
    0xffc0_0001, // negative NaN with payload
    0x7f80_0001, // signaling NaN
    0x8000_0000, // -0.0
    0x0000_0000, // +0.0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // negative subnormal
    0x7f80_0000, // +inf
    0xff7f_ffff, // f32::MIN
];

fn tensor_from_bits(bits: &[u32], rows: usize) -> Tensor {
    let cols = bits.len() / rows;
    let data: Vec<f32> = bits[..rows * cols]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect();
    Tensor::from_vec(data, vec![rows, cols]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tensors_roundtrip_bitwise(
        mut bits in prop::collection::vec(0u32..=u32::MAX, 4..96),
        rows in 1usize..4,
        inject_at in prop::collection::vec(0usize..96, 0..6),
        micro in 0u32..64,
    ) {
        // Splice in the pathological values at arbitrary positions so
        // every case exercises at least plain patterns and most exercise
        // NaNs/zeros/subnormals too.
        for (i, &pos) in inject_at.iter().enumerate() {
            let idx = pos % bits.len();
            bits[idx] = WEIRD_BITS[i % WEIRD_BITS.len()];
        }
        let rows = rows.min(bits.len());
        let t = tensor_from_bits(&bits, rows);
        let expect: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();

        let frame = encode_frame(&Msg::Grad { micro, grad: t });
        let (decoded, consumed) = decode_frame(&frame).expect("valid frame decodes");
        prop_assert_eq!(consumed, frame.len());
        match decoded {
            Msg::Grad { micro: m, grad } => {
                prop_assert_eq!(m, micro);
                let got: Vec<u32> = grad.data().iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, expect, "f32 bits must survive the wire exactly");
            }
            other => prop_assert!(false, "decoded wrong message: {:?}", other),
        }
    }

    #[test]
    fn param_snapshots_roundtrip(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..40),
        n_params in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut entries = Vec::new();
        for i in 0..n_params {
            let start = (seed as usize + i) % bits.len();
            let slice: Vec<u32> = bits.iter().cycle().skip(start).take(bits.len()).copied().collect();
            entries.push((format!("layer{i}.w"), tensor_from_bits(&slice, 1)));
        }
        let msg = Msg::ParamSnap { entries };
        let (decoded, _) = decode_frame(&encode_frame(&msg)).expect("decode");
        prop_assert_eq!(decoded, msg, "bitwise message equality");
    }

    #[test]
    fn any_single_byte_flip_is_rejected(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..24),
        pos_seed in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let frame = encode_frame(&Msg::GradBlock {
            origin_lane: 1,
            tensors: vec![tensor_from_bits(&bits, 1)],
        });
        let pos = pos_seed % frame.len();
        let mut corrupt = frame.clone();
        corrupt[pos] ^= mask;
        // Any flip — magic, version, tag, length, payload, or checksum —
        // must produce a typed error, never a silently different message.
        prop_assert!(
            decode_frame(&corrupt).is_err(),
            "flip at {} of {} accepted", pos, frame.len()
        );
    }

    #[test]
    fn any_truncation_is_rejected_as_eof(
        bits in prop::collection::vec(0u32..=u32::MAX, 1..24),
        cut_seed in 0usize..10_000,
    ) {
        let frame = encode_frame(&Msg::GradBlock {
            origin_lane: 0,
            tensors: vec![tensor_from_bits(&bits, 1)],
        });
        let cut = cut_seed % frame.len(); // strictly short of a full frame
        match decode_frame(&frame[..cut]) {
            Err(NetError::Eof) => {}
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// A network that duplicates frames (the simnet adversary's `dup`
    /// knob, or real-world retransmit bugs) must never desync the stream:
    /// every copy decodes as the same message, in order, and the reader
    /// ends cleanly at EOF. Duplication is a *protocol*-level anomaly for
    /// the layers above, not a framing error.
    #[test]
    fn duplicated_frames_decode_in_order_without_desync(
        nonces in prop::collection::vec(0u64..1000, 1..6),
        dup_mask in 0usize..64,
    ) {
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        for (i, &nonce) in nonces.iter().enumerate() {
            let frame = encode_frame(&Msg::Heartbeat { nonce });
            let copies = if dup_mask & (1 << i) != 0 { 2 } else { 1 };
            for _ in 0..copies {
                stream.extend_from_slice(&frame);
                expect.push(nonce);
            }
        }
        let mut cursor = Cursor::new(stream);
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read_from(&mut IoSource(&mut cursor)) {
                Ok((Msg::Heartbeat { nonce }, _)) => got.push(nonce),
                Ok((other, _)) => prop_assert!(false, "wrong message: {:?}", other),
                Err(NetError::Eof) => break,
                Err(e) => prop_assert!(false, "duplicated stream errored: {:?}", e),
            }
        }
        prop_assert_eq!(got, expect, "each copy decodes identically, in order");
    }

    #[test]
    fn control_messages_roundtrip(
        nonce in 0u64..u64::MAX,
        rank in 0u32..64,
        port in 1024u16..65535,
        loss_bits in 0u32..=u32::MAX,
    ) {
        let msgs = vec![
            Msg::Hello { slot: rank, listen_port: port },
            Msg::Heartbeat { nonce },
            Msg::Done { rank, loss_sum: f32::from_bits(loss_bits), busy_ns: nonce, events: vec![] },
            Msg::Fault { observer: rank, blamed: rank + 1, detail: format!("rank {rank} vanished") },
        ];
        let steps = [SnapReq::None, SnapReq::Trainable, SnapReq::All].map(|snap| Msg::Step {
            step: nonce,
            die: rank % 2 == 1,
            stall_ms: loss_bits,
            micro_batches: vec![(vec![vec![rank as usize; 3]], vec![port as usize])],
            snap,
        });
        for msg in msgs.into_iter().chain(steps) {
            let (decoded, _) = decode_frame(&encode_frame(&msg)).expect("decode");
            prop_assert_eq!(decoded, msg);
        }
    }
}

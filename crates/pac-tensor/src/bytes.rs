//! The byte codec every PAC binary format shares: `pac-net`'s wire frames
//! and `pac-peft`'s `PACCKPT3` checkpoints.
//!
//! Two pieces, each with one implementation:
//!
//! * [`checksum`] — the trailer both formats end in. It *is* the format:
//!   a reader that computes a different value cannot verify a single frame
//!   or snapshot, so its golden values are pinned in debug and release.
//! * [`put_f32s`] / [`f32s_from_le`] — runs of floats as their
//!   little-endian IEEE-754 bit patterns, a slice at a time. On a
//!   little-endian host both compile to a copy; they stay correct on a
//!   big-endian one, and they never round or normalise, so NaN payloads,
//!   signed zeros and subnormals survive bitwise.

const FNV_BASIS: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;
/// Independent checksum lanes: one round consumes `4 * LANES` bytes.
const LANES: usize = 8;

/// One lane step: FNV-1a's xor-then-multiply over a whole word, then a
/// rotation so the word's high byte reaches the bits the next multiply
/// spreads (a multiply alone only carries differences upward). For a fixed
/// `word` it permutes `h`, and for a fixed `h` it permutes `word` — xor,
/// multiplication by an odd constant and rotation are all bijections —
/// which is what the detection guarantee of [`checksum`] rests on.
#[inline(always)]
fn mix(h: u32, word: u32) -> u32 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(13)
}

/// Eight interleaved FNV-style lanes over little-endian `u32` words, so a
/// round of 32 bytes is eight independent multiplies instead of 32
/// dependent ones.
///
/// Word `i` of the input goes to lane `i % 8`. After the last whole round
/// the lanes are folded into one state in lane order, the remaining
/// `len % 32` bytes are mixed in one at a time, and the input length goes
/// in last, so inputs that differ only in trailing zero bytes differ.
///
/// Every step permutes the state for a fixed input and the input for a
/// fixed state. One changed byte therefore changes exactly one lane (or
/// the folded state) at the step that consumes it, and no later step can
/// map two different states back together: **any single corrupted byte is
/// detected with certainty**, as with a byte-serial FNV-1a; so is any
/// corruption confined to one word of a whole round.
///
/// Not cryptographic: it guards against truncation and corruption, not
/// adversaries (the transport is a trusted LAN / loopback and the store a
/// local disk, per the paper's deployment model).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut lanes = [FNV_BASIS; LANES];
    let mut rounds = bytes.chunks_exact(4 * LANES);
    for round in &mut rounds {
        for (lane, word) in lanes.iter_mut().zip(round.chunks_exact(4)) {
            let word = u32::from_le_bytes(word.try_into().expect("chunks of four bytes"));
            *lane = mix(*lane, word);
        }
    }
    let folded = lanes.into_iter().fold(FNV_BASIS, mix);
    let tailed = rounds
        .remainder()
        .iter()
        .fold(folded, |h, &b| mix(h, b as u32));
    mix(tailed, bytes.len() as u32)
}

/// Appends `xs` to `buf` as little-endian bit patterns, four bytes each:
/// sized first, then filled chunk by chunk.
pub fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    let start = buf.len();
    buf.resize(start + xs.len() * 4, 0);
    for (dst, x) in buf[start..].chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Inverse of [`put_f32s`]: one float per four bytes.
///
/// # Panics
/// When `bytes.len()` is not a multiple of four — callers slice exactly
/// `4 * n` bytes off their input after checking it holds that many.
pub fn f32s_from_le(bytes: &[u8]) -> Vec<f32> {
    assert_eq!(bytes.len() % 4, 0, "a whole number of f32s");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of four bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic filler that touches every bit position.
    fn noise(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 23) as u8)
            .collect()
    }

    #[test]
    fn checksum_golden_values_are_pinned() {
        // Computed by an independent implementation of the definition in
        // `checksum`'s doc comment. A change here is a new wire VERSION and
        // a new checkpoint magic, and debug and release must agree.
        assert_eq!(checksum(&[]), 0xb512_8356);
        assert_eq!(checksum(&noise(31)), 0x73da_f5db);
        assert_eq!(checksum(&noise(4096)), 0x653e_3541);
    }

    #[test]
    fn f32s_round_trip_bitwise_at_every_length() {
        let weird = [
            f32::from_bits(0x7fc0_1234), // NaN with payload bits
            f32::from_bits(0xffa5_5aa5), // negative signalling NaN
            -0.0,
            f32::from_bits(1), // smallest subnormal
            f32::NEG_INFINITY,
            1.5,
        ];
        for n in 0..40 {
            let xs: Vec<f32> = (0..n).map(|i| weird[i % weird.len()]).collect();
            let mut buf = vec![0xAB];
            put_f32s(&mut buf, &xs);
            assert_eq!(buf.len(), 1 + 4 * n);
            assert_eq!(buf[0], 0xAB, "appends, never overwrites");
            let back = f32s_from_le(&buf[1..]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&xs), "length {n}");
        }
        // Little-endian on every host.
        let mut buf = Vec::new();
        put_f32s(&mut buf, &[f32::from_bits(0x0102_0304)]);
        assert_eq!(buf, [4, 3, 2, 1]);
    }
}

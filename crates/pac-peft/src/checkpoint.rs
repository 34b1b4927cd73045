//! Checkpointing of trainable (adapter) parameters.
//!
//! PAC's deployment story is "one backbone, many personalizations": the
//! frozen backbone ships once, and each personalization is only the
//! technique's trainable parameters — megabytes, not gigabytes. A
//! [`TrainCheckpoint`] is exactly that trainable set plus what a run needs
//! to resume it — per-parameter optimizer moments and the training cursor —
//! in one small self-describing binary format, `PACCKPT3`:
//!
//! ```text
//! magic "PACCKPT3" · u64 epoch · u64 step · u64 adam_t · u32 entry count · entries…
//!                  · u32 checksum
//! entry: u32 name len · name bytes · u32 rank · u64 dims… ·
//!        u8 moment flags (bit0 = m, bit1 = v) · f32 value… · [f32 m…] · [f32 v…]
//! ```
//!
//! All integers are little-endian and floats travel as their bit patterns.
//! The trailer is [`pac_tensor::bytes::checksum`] over every preceding byte
//! — the function that ends `pac-net`'s wire frames — so a single flipped
//! byte anywhere is rejected as [`CheckpointError::Format`] with certainty.
//! The checksum defines the format: `PACCKPT2` (the same layout under a
//! byte-serial FNV-1a trailer, as an older build's `DiskStore` log may
//! hold) is refused with a `Format` error that names it, and there is no
//! reader for it or for the weights-only format before it.
//!
//! Encoding fills one buffer of [`TrainCheckpoint::size_bytes`] bytes.
//! Decoding checks the magic, verifies the trailer over the whole buffer,
//! then parses from a borrowed cursor: every length is checked against the
//! bytes that remain before anything is allocated for it, and the last
//! entry must end exactly at the trailer. Restoring matches parameters by
//! name and checks every name, shape and the coverage both ways before it
//! writes anything, so a snapshot from a different architecture fails
//! loudly and leaves the module as it was.

use pac_nn::Module;
use pac_tensor::{bytes, Tensor, MAX_RANK};
use std::collections::HashMap;

const MAGIC: &[u8; 8] = b"PACCKPT3";
/// The previous format's magic, refused by name.
const OLD_MAGIC: &[u8; 8] = b"PACCKPT2";

/// Errors produced by checkpoint (de)serialization.
#[derive(Debug)]
pub enum CheckpointError {
    /// The bytes are not a `PACCKPT3` checkpoint (bad magic, an older
    /// format, checksum mismatch, truncation or trailing bytes).
    Format(String),
    /// The checkpoint does not match the module (missing/extra/mis-shaped
    /// parameters).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn format_err(m: impl Into<String>) -> CheckpointError {
    CheckpointError::Format(m.into())
}

/// Borrowed parse position in a checksum-verified body.
struct Cursor<'a> {
    b: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.b.len() < n {
            return Err(format_err(format!(
                "truncated: {n} bytes wanted, {} left",
                self.b.len()
            )));
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// `numel` floats shaped `dims`; the bytes are checked to be there
    /// before the tensor is allocated.
    fn tensor(&mut self, dims: &[usize], numel: usize) -> Result<Tensor, CheckpointError> {
        if numel > self.b.len() / 4 {
            return Err(format_err(format!(
                "truncated: {numel} floats wanted, {} bytes left",
                self.b.len()
            )));
        }
        let data = bytes::f32s_from_le(self.take(4 * numel)?);
        Tensor::from_vec(data, dims).map_err(|e| format_err(format!("tensor rebuild failed: {e}")))
    }
}

/// Number of elements `dims` describes, rejecting products that overflow
/// or exceed the plausibility bound.
fn checked_numel(dims: &[usize]) -> Result<usize, CheckpointError> {
    let numel = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| format_err("tensor dimension product overflows"))?;
    if numel > 1 << 30 {
        return Err(format_err(format!("implausible tensor size {numel}")));
    }
    Ok(numel)
}

/// One trainable parameter's full training state inside a
/// [`TrainCheckpoint`].
#[derive(Debug, Clone)]
struct TrainEntry {
    name: String,
    value: Tensor,
    opt_m: Option<Tensor>,
    opt_v: Option<Tensor>,
}

impl TrainEntry {
    fn parse(c: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let name_len = c.u32()? as usize;
        if name_len > 4096 {
            return Err(format_err(format!("implausible name length {name_len}")));
        }
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| format_err("non-UTF-8 parameter name"))?
            .to_owned();
        let rank = c.u32()? as usize;
        // Load-bearing: `Shape::new` panics above `MAX_RANK`.
        if rank > MAX_RANK {
            return Err(format_err(format!("implausible rank {rank}")));
        }
        let dims = (0..rank)
            .map(|_| usize::try_from(c.u64()?).map_err(|_| format_err("dimension overflows usize")))
            .collect::<Result<Vec<_>, _>>()?;
        let numel = checked_numel(&dims)?;
        let flags = c.u8()?;
        if flags > 3 {
            return Err(format_err(format!("unknown moment flags {flags:#04x}")));
        }
        let value = c.tensor(&dims, numel)?;
        let opt_m = (flags & 1 != 0)
            .then(|| c.tensor(&dims, numel))
            .transpose()?;
        let opt_v = (flags & 2 != 0)
            .then(|| c.tensor(&dims, numel))
            .transpose()?;
        Ok(TrainEntry {
            name,
            value,
            opt_m,
            opt_v,
        })
    }
}

/// A lightweight mid-run recovery snapshot: trainable (adapter) parameter
/// values, their optimizer moments, and the training cursor (epoch, step,
/// Adam's bias-correction counter). Committed every N steps by
/// `PacSession`, which restores it into every replica on a cold restart.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Epoch the snapshot was taken in.
    pub epoch: u64,
    /// Global mini-batch step the snapshot was taken after.
    pub step: u64,
    /// Adam's `t` (bias-correction) counter at the snapshot.
    pub adam_t: u64,
    entries: Vec<TrainEntry>,
}

impl TrainCheckpoint {
    /// Captures every trainable parameter (value + optimizer moments) of
    /// `module` together with the training cursor.
    pub fn capture<M: Module>(module: &M, epoch: u64, step: u64, adam_t: u64) -> Self {
        let mut entries = Vec::new();
        module.visit_params_ref(&mut |p| {
            if p.trainable {
                entries.push(TrainEntry {
                    name: p.name.clone(),
                    value: p.value.clone(),
                    opt_m: p.opt_m.clone(),
                    opt_v: p.opt_v.clone(),
                });
            }
        });
        TrainCheckpoint {
            epoch,
            step,
            adam_t,
            entries,
        }
    }

    /// Number of parameter entries captured.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Serialized size in bytes (what `checkpoint.bytes` telemetry
    /// reports) without materializing the buffer.
    pub fn size_bytes(&self) -> usize {
        // Magic + cursor + count header, plus the 4-byte checksum trailer.
        let mut n = 8 + 8 + 8 + 8 + 4 + 4;
        for e in &self.entries {
            n += 4 + e.name.len() + 4 + 8 * e.value.rank() + 1;
            let numel = e.value.data().len();
            n += 4 * numel;
            n += e.opt_m.as_ref().map_or(0, |_| 4 * numel);
            n += e.opt_v.as_ref().map_or(0, |_| 4 * numel);
        }
        n
    }

    /// Writes values and moments back into `module`'s trainable parameters
    /// (matched by name), restoring the exact optimizer trajectory.
    ///
    /// # Errors
    /// Fails on unknown names, shape mismatches, or trainable parameters
    /// missing from the snapshot — the module must be the same
    /// architecture the snapshot came from. Everything is checked before
    /// anything is written: on error `module` is unchanged.
    pub fn restore<M: Module>(&self, module: &mut M) -> Result<(), CheckpointError> {
        let by_name: HashMap<&str, &TrainEntry> =
            self.entries.iter().map(|e| (e.name.as_str(), e)).collect();
        let mut error: Option<CheckpointError> = None;
        let mut matched = 0usize;
        module.visit_params_ref(&mut |p| {
            if !p.trainable || error.is_some() {
                return;
            }
            match by_name.get(p.name.as_str()) {
                Some(e) if e.value.dims() == p.value.dims() => matched += 1,
                Some(e) => {
                    error = Some(CheckpointError::Mismatch(format!(
                        "{}: shape {:?} vs snapshot {:?}",
                        p.name,
                        p.value.dims(),
                        e.value.dims()
                    )));
                }
                None => {
                    error = Some(CheckpointError::Mismatch(format!(
                        "trainable parameter {} absent from snapshot",
                        p.name
                    )));
                }
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        if matched != self.entries.len() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {} entries but module consumed {matched}",
                self.entries.len()
            )));
        }
        module.visit_params(&mut |p| {
            if !p.trainable {
                return;
            }
            if let Some(e) = by_name.get(p.name.as_str()) {
                p.value = e.value.clone();
                p.opt_m = e.opt_m.clone();
                p.opt_v = e.opt_v.clone();
            }
        });
        Ok(())
    }

    /// Serializes the snapshot (format in the module docs) into one buffer
    /// of exactly [`TrainCheckpoint::size_bytes`] bytes.
    ///
    /// # Errors
    /// None: the codec only writes to memory. The `Result` is the
    /// signature existing callers match on.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(MAGIC);
        for v in [self.epoch, self.step, self.adam_t] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&(e.name.len() as u32).to_le_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.extend_from_slice(&(e.value.rank() as u32).to_le_bytes());
            for &d in e.value.dims() {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            out.push(u8::from(e.opt_m.is_some()) | (u8::from(e.opt_v.is_some()) << 1));
            bytes::put_f32s(&mut out, e.value.data());
            for t in [&e.opt_m, &e.opt_v].into_iter().flatten() {
                bytes::put_f32s(&mut out, t.data());
            }
        }
        let sum = bytes::checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(out.len(), self.size_bytes());
        Ok(out)
    }

    /// Deserializes a snapshot written by [`TrainCheckpoint::to_bytes`].
    ///
    /// # Errors
    /// [`CheckpointError::Format`] on a bad or older magic, a checksum
    /// mismatch, truncation, implausible dimensions, or bytes after the
    /// last entry.
    pub fn from_bytes(input: &[u8]) -> Result<Self, CheckpointError> {
        if input.len() < MAGIC.len() + 4 {
            return Err(format_err(format!("truncated: {} bytes", input.len())));
        }
        match &input[..MAGIC.len()] {
            m if m == MAGIC => {}
            m if m == OLD_MAGIC => {
                return Err(format_err(
                    "PACCKPT2 snapshot from an older build: this build reads PACCKPT3 only",
                ))
            }
            _ => return Err(format_err("bad magic")),
        }
        let (body, trailer) = input.split_at(input.len() - 4);
        let got = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let expected = bytes::checksum(body);
        if got != expected {
            return Err(format_err(format!(
                "checksum mismatch: bytes hash to {expected:#010x}, trailer says {got:#010x}"
            )));
        }

        let mut c = Cursor {
            b: &body[MAGIC.len()..],
        };
        let epoch = c.u64()?;
        let step = c.u64()?;
        let adam_t = c.u64()?;
        let count = c.u32()? as usize;
        // An entry takes at least its name length, rank and flags.
        if count > c.b.len() / 9 {
            return Err(format_err(format!(
                "{count} entries cannot fit in {} bytes",
                c.b.len()
            )));
        }
        let entries = (0..count)
            .map(|_| TrainEntry::parse(&mut c))
            .collect::<Result<Vec<_>, _>>()?;
        if !c.b.is_empty() {
            return Err(format_err(format!(
                "{} bytes after the last entry",
                c.b.len()
            )));
        }
        Ok(TrainCheckpoint {
            epoch,
            step,
            adam_t,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Technique, Tuner};
    use pac_model::ModelConfig;
    use pac_nn::cross_entropy;
    use pac_tensor::rng::seeded;
    use rand::Rng;

    fn toks(seed: u64, b: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    /// An adapter export: the trainable set at a zero cursor.
    fn to_bytes<M: Module>(module: &M) -> Result<Vec<u8>, CheckpointError> {
        TrainCheckpoint::capture(module, 0, 0, 0).to_bytes()
    }

    fn from_bytes<M: Module>(module: &mut M, bytes: &[u8]) -> Result<(), CheckpointError> {
        TrainCheckpoint::from_bytes(bytes)?.restore(module)
    }

    #[test]
    fn round_trip_restores_exact_function() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        for technique in Technique::all_paper() {
            let mut donor = Tuner::new(technique, &cfg, 2, &mut seeded(700));
            // Nudge the donor's trainable weights so the checkpoint is
            // distinguishable from init.
            donor.visit_params(&mut |p| {
                if p.trainable {
                    p.value.map_in_place(|v| v + 0.01);
                }
            });
            let bytes = to_bytes(&donor).unwrap();
            // PEFT checkpoints are tiny relative to the model; a Full
            // checkpoint is the whole model plus per-tensor name overhead.
            let bound = if matches!(technique, Technique::Full) {
                donor.total_params() * 4 + 64 * 1024
            } else {
                donor.total_params() * 4 / 2
            };
            assert!(
                bytes.len() < bound,
                "{}: checkpoint {} B (bound {bound})",
                technique.name(),
                bytes.len()
            );

            let mut recipient = Tuner::new(technique, &cfg, 2, &mut seeded(700));
            from_bytes(&mut recipient, &bytes).unwrap();

            let batch = toks(701, 2);
            let (a, _) = donor.forward(&batch).unwrap();
            let (b, _) = recipient.forward(&batch).unwrap();
            assert!(
                a.approx_eq(&b, 0.0),
                "{}: restored model diverges",
                technique.name()
            );
        }
    }

    #[test]
    fn adapter_checkpoints_are_megabyte_scale_not_gigabyte() {
        // The deployment claim: a Parallel-Adapters personalization of a
        // micro model is ≪ the backbone.
        let cfg = ModelConfig::micro(2, 2, 32, 4);
        let tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(702));
        let bytes = to_bytes(&tuner).unwrap();
        let backbone_bytes = tuner.total_params() * 4;
        assert!(bytes.len() * 5 < backbone_bytes);
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let tuner = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(703));
        let bytes = to_bytes(&tuner).unwrap();

        let mut t = tuner.clone();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            from_bytes(&mut t, &bad),
            Err(CheckpointError::Format(_))
        ));
        // Truncation.
        assert!(from_bytes(&mut t, &bytes[..bytes.len() / 2]).is_err());
        // Empty.
        assert!(from_bytes(&mut t, &[]).is_err());
    }

    #[test]
    fn an_entry_above_max_rank_is_a_format_error_not_a_panic() {
        // One entry "w" of `rank` unit dimensions holding 1.5, no moments.
        let checkpoint = |rank: usize| {
            let mut out = MAGIC.to_vec();
            for v in [3u64, 2, 1] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&1u32.to_le_bytes());
            out.push(b'w');
            out.extend_from_slice(&(rank as u32).to_le_bytes());
            for _ in 0..rank {
                out.extend_from_slice(&1u64.to_le_bytes());
            }
            out.push(0);
            bytes::put_f32s(&mut out, &[1.5]);
            let sum = bytes::checksum(&out);
            out.extend_from_slice(&sum.to_le_bytes());
            out
        };
        // The largest rank the format accepts round-trips byte for byte.
        let at_cap = checkpoint(MAX_RANK);
        let parsed = TrainCheckpoint::from_bytes(&at_cap).unwrap();
        assert_eq!(parsed.to_bytes().unwrap(), at_cap);
        let got = TrainCheckpoint::from_bytes(&checkpoint(MAX_RANK + 1));
        assert!(
            matches!(got, Err(CheckpointError::Format(ref m)) if m.contains("rank")),
            "a rank-{} entry must be rejected before a shape is built, got {got:?}",
            MAX_RANK + 1
        );
    }

    #[test]
    fn cross_architecture_load_fails_loudly() {
        let small = ModelConfig::micro(1, 1, 16, 2);
        let big = ModelConfig::micro(1, 1, 32, 2);
        let donor = Tuner::new(Technique::parallel_default(), &small, 2, &mut seeded(704));
        let bytes = to_bytes(&donor).unwrap();
        let mut recipient = Tuner::new(Technique::parallel_default(), &big, 2, &mut seeded(705));
        assert!(matches!(
            from_bytes(&mut recipient, &bytes),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn checkpoint_survives_training_and_reload() {
        // Train → save → fresh tuner → load → identical predictions.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let mut t = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(706));
        let batch = toks(707, 4);
        let targets = [0usize, 1, 0, 1];
        let mut opt = pac_nn::Adam::new(1e-2);
        use pac_nn::Optimizer;
        for _ in 0..5 {
            let (logits, ctx) = t.forward(&batch).unwrap();
            let (_, dl) = cross_entropy(&logits, &targets).unwrap();
            t.zero_grads();
            t.backward(&ctx, &dl).unwrap();
            opt.step(&mut t);
        }
        let bytes = to_bytes(&t).unwrap();
        let mut fresh = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(706));
        from_bytes(&mut fresh, &bytes).unwrap();
        let (a, _) = t.forward(&batch).unwrap();
        let (b, _) = fresh.forward(&batch).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    fn adam_step(t: &mut Tuner, opt: &mut pac_nn::Adam, batch: &[Vec<usize>], y: &[usize]) {
        use pac_nn::Optimizer;
        let (logits, ctx) = t.forward(batch).unwrap();
        let (_, dl) = cross_entropy(&logits, y).unwrap();
        t.zero_grads();
        t.backward(&ctx, &dl).unwrap();
        opt.step(t);
    }

    #[test]
    fn train_checkpoint_resume_is_bitwise_identical() {
        // Train 3 Adam steps, snapshot, train 2 more → A. Restore the
        // snapshot into a *fresh* tuner + fresh Adam seeded with the saved
        // `t`, replay the same 2 steps → B. Exact match: the snapshot
        // carries the full optimizer trajectory, not just weights.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let mut t = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(720));
        let batch = toks(721, 4);
        let targets = [0usize, 1, 0, 1];
        let mut opt = pac_nn::Adam::new(1e-2);
        for _ in 0..3 {
            adam_step(&mut t, &mut opt, &batch, &targets);
        }
        let snap = TrainCheckpoint::capture(&t, 0, 3, opt.t);
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(bytes.len(), snap.size_bytes());
        for _ in 0..2 {
            adam_step(&mut t, &mut opt, &batch, &targets);
        }
        let (a, _) = t.forward(&batch).unwrap();

        let restored = TrainCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!((restored.epoch, restored.step, restored.adam_t), (0, 3, 3));
        // Same backbone seed: the snapshot carries only the trainable
        // (adapter) state, the frozen backbone ships separately.
        let mut fresh = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(720));
        restored.restore(&mut fresh).unwrap();
        let mut opt2 = pac_nn::Adam::new(1e-2);
        opt2.t = restored.adam_t;
        for _ in 0..2 {
            adam_step(&mut fresh, &mut opt2, &batch, &targets);
        }
        let (b, _) = fresh.forward(&batch).unwrap();
        assert!(a.approx_eq(&b, 0.0), "resumed run diverged from original");
    }

    #[test]
    fn train_checkpoint_rejects_corruption_and_mismatch() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let t = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(722));
        let snap = TrainCheckpoint::capture(&t, 1, 7, 7);
        let bytes = snap.to_bytes().unwrap();

        // Truncation.
        assert!(TrainCheckpoint::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Restoring into a different architecture fails loudly.
        let big = ModelConfig::micro(1, 1, 32, 2);
        let mut other = Tuner::new(Technique::parallel_default(), &big, 2, &mut seeded(723));
        assert!(matches!(
            snap.restore(&mut other),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn bytes_after_the_trailer_are_rejected() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let t = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(728));
        let bytes = TrainCheckpoint::capture(&t, 0, 1, 1).to_bytes().unwrap();
        for tail in [&b"garbage"[..], &[0], &bytes[bytes.len() - 4..]] {
            let mut long = bytes.clone();
            long.extend_from_slice(tail);
            assert!(
                matches!(
                    TrainCheckpoint::from_bytes(&long),
                    Err(CheckpointError::Format(_))
                ),
                "{} trailing byte(s) accepted",
                tail.len()
            );
        }
    }

    #[test]
    fn rejected_restore_leaves_the_module_untouched() {
        // The head is the last parameter visited: a restore that wrote while
        // it validated had overwritten the whole side network by the time
        // the head's shape failed.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let mut donor = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(726));
        donor.visit_params(&mut |p| p.value.map_in_place(|v| v + 0.5));
        let snap = TrainCheckpoint::capture(&donor, 0, 0, 0);
        let mut recipient = Tuner::new(Technique::parallel_default(), &cfg, 3, &mut seeded(727));
        let before = TrainCheckpoint::capture(&recipient, 0, 0, 0)
            .to_bytes()
            .unwrap();
        assert!(matches!(
            snap.restore(&mut recipient),
            Err(CheckpointError::Mismatch(_))
        ));
        let after = TrainCheckpoint::capture(&recipient, 0, 0, 0)
            .to_bytes()
            .unwrap();
        assert!(before == after, "a rejected restore wrote parameters");
    }

    #[test]
    fn train_checkpoint_preserves_missing_moments() {
        // A snapshot taken before any optimizer step has no moments; the
        // flags byte must round-trip that faithfully.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let t = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(724));
        let snap = TrainCheckpoint::capture(&t, 0, 0, 0);
        let round = TrainCheckpoint::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(round.num_entries(), snap.num_entries());
        let mut fresh = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(725));
        round.restore(&mut fresh).unwrap();
        let mut any_moment = false;
        fresh.visit_params_ref(&mut |p| {
            any_moment |= p.opt_m.is_some() || p.opt_v.is_some();
        });
        assert!(!any_moment, "phantom moments materialized");
    }
}

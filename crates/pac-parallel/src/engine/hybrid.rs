//! Real hybrid data+pipeline parallel engine (the paper's Figure 6).
//!
//! The pipeline's stages are each replicated across `group_width` lanes.
//! Every micro-batch is split row-wise across lanes (the paper: "if a
//! device cluster hosts multiple devices, micro-batches are further
//! subdivided"); lanes run the full 1F1B pipeline concurrently on their
//! slices, and at mini-batch end each stage's gradient is AllReduce-averaged
//! across lanes.
//!
//! The engine is the in-process reference that pac-net's distributed
//! worlds are checked against bit for bit; it injects no faults. Lane
//! threads are joined as `Result`s, so a failure comes back as a typed
//! error attributed to its lane and stage, and only the failed lane is
//! removed.
//!
//! This engine supports uniform group widths (every stage replicated the
//! same number of times). Non-uniform groups — which require activation
//! resharding between stages — are covered by the timeline simulator.

use crate::engine::data_parallel::{allreduce_group, fold_lanes};
use crate::engine::error::{EngineError, EngineResult};
use crate::engine::pipeline::run_lane;
use crate::schedule::Schedule;
use pac_model::StageModel;
use pac_nn::{Module, Optimizer, Param};
use pac_tensor::{Tensor, TensorError};
use std::ops::Range;

/// One micro-batch: `(token rows, class targets)`.
pub type MicroBatch = (Vec<Vec<usize>>, Vec<usize>);

/// Lane `k`'s rows of a `rows`-row batch split over `lanes` lanes:
/// contiguous and in lane order, the first `rows % lanes` lanes one row
/// longer than the rest (empty when there are more lanes than rows). The
/// one row-split rule: the session's data-parallel steps, replicated
/// evaluation and both micro-batch splits below cut rows with it.
pub fn shard(rows: usize, lanes: usize, k: usize) -> Range<usize> {
    let (base, extra) = (rows / lanes, rows % lanes);
    let lo = k * base + k.min(extra);
    lo..lo + base + usize::from(k < extra)
}

/// Splits every micro-batch row-wise across `lanes` lanes by [`shard`]:
/// lane `k` takes the `k`-th contiguous range. This is the split pac-net's
/// coordinator sends its lanes; where `lanes` divides every micro-batch it
/// is [`split_micro_batches`], slice for slice.
///
/// # Errors
/// [`EngineError::Tensor`] when any micro-batch has fewer rows than lanes
/// (a lane with no rows would desynchronize the 1F1B schedule) or a target
/// count unequal to its row count.
pub fn shard_micro_batches(
    micro_batches: &[MicroBatch],
    lanes: usize,
) -> EngineResult<Vec<Vec<MicroBatch>>> {
    for (toks, targets) in micro_batches {
        // Tokens and targets are sliced alike: a short target list must
        // not panic the caller's thread.
        if targets.len() != toks.len() {
            return Err(EngineError::Tensor(TensorError::ShapeMismatch {
                op: "micro-batch needs one target per token row",
                lhs: vec![toks.len()],
                rhs: vec![targets.len()],
            }));
        }
        if lanes == 0 || toks.len() < lanes {
            return Err(EngineError::Tensor(TensorError::ShapeMismatch {
                op: "micro-batch needs at least one row per lane",
                lhs: vec![toks.len()],
                rhs: vec![lanes],
            }));
        }
    }
    Ok((0..lanes)
        .map(|k| {
            micro_batches
                .iter()
                .map(|(toks, targets)| {
                    let rows = shard(toks.len(), lanes, k);
                    (toks[rows.clone()].to_vec(), targets[rows].to_vec())
                })
                .collect()
        })
        .collect())
}

/// Splits every micro-batch row-wise into `g` equal lane shares — lane `k`
/// takes rows `[k·share, (k+1)·share)` — the [`shard_micro_batches`] split
/// restricted to even shares. [`HybridEngine`] trains on it.
///
/// # Errors
/// [`EngineError::Tensor`] when any micro-batch's row count is not a
/// multiple of `g` (uneven shares would break exact gradient averaging),
/// is below `g`, or differs from its target count.
pub fn split_micro_batches(
    micro_batches: &[MicroBatch],
    g: usize,
) -> EngineResult<Vec<Vec<MicroBatch>>> {
    for (toks, _) in micro_batches {
        if !toks.len().is_multiple_of(g) {
            return Err(EngineError::Tensor(TensorError::ShapeMismatch {
                op: "hybrid micro-batch must split evenly across lanes",
                lhs: vec![toks.len()],
                rhs: vec![g],
            }));
        }
    }
    shard_micro_batches(micro_batches, g)
}

/// Hybrid-parallel training engine over real threads.
#[derive(Debug)]
pub struct HybridEngine {
    /// `lanes[k][s]` = lane `k`'s replica of stage `s`.
    pub lanes: Vec<Vec<StageModel>>,
    /// Micro-batch schedule.
    pub schedule: Schedule,
}

impl HybridEngine {
    /// Replicates a stage chain across `group_width` lanes.
    ///
    /// Replication is cheap: tensors are copy-on-write, so every lane's
    /// frozen backbone *shares* the original parameter storage. A lane only
    /// materializes its own copy of the buffers it actually writes
    /// (accumulated gradients, optimized parameters) — see
    /// [`HybridEngine::resident_param_bytes`].
    ///
    /// # Panics
    /// Panics if `group_width` is zero or `stages` is empty.
    pub fn new(stages: Vec<StageModel>, group_width: usize, schedule: Schedule) -> Self {
        assert!(group_width > 0, "group width must be positive");
        assert!(!stages.is_empty(), "need at least one stage");
        let lanes = (0..group_width).map(|_| stages.clone()).collect();
        HybridEngine { lanes, schedule }
    }

    /// Bytes of parameter + gradient storage resident across all lanes,
    /// counting each distinct buffer once (lane replicas that still share a
    /// copy-on-write buffer are not double-charged).
    pub fn resident_param_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for lane in &self.lanes {
            for s in lane {
                s.visit_params_ref(&mut |p: &Param| {
                    if seen.insert(p.value.storage_ptr()) {
                        total += p.value.size_bytes();
                    }
                    if seen.insert(p.grad.storage_ptr()) {
                        total += p.grad.size_bytes();
                    }
                });
            }
        }
        total
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.lanes[0].len()
    }

    /// Data-parallel width.
    pub fn group_width(&self) -> usize {
        self.lanes.len()
    }

    /// Total simulated devices (stages × lanes).
    pub fn num_devices(&self) -> usize {
        self.num_stages() * self.group_width()
    }

    /// Runs one mini-batch: splits every micro-batch row-wise across lanes,
    /// pipelines each lane on its own threads, then AllReduces gradients
    /// across lanes per stage. Returns the mean loss.
    ///
    /// On a lane failure the failed lane's replica is removed and the
    /// survivors are kept; their gradients are partial, so callers must
    /// `zero_grads` before reusing them.
    ///
    /// # Errors
    /// [`EngineError::Tensor`] on uneven splits or math failures — the root
    /// cause, not the [`EngineError::Disconnected`] it caused in the lane's
    /// other stages — and [`EngineError::LanePanic`] when a stage thread
    /// panics.
    pub fn run_mini_batch(
        &mut self,
        micro_batches: &[(Vec<Vec<usize>>, Vec<usize>)],
    ) -> EngineResult<f32> {
        let g = self.group_width();
        // Per-lane slices of every micro-batch.
        let lane_inputs = split_micro_batches(micro_batches, g)?;
        if pac_telemetry::enabled() {
            for (k, input) in lane_inputs.iter().enumerate() {
                let rows: usize = input.iter().map(|(t, _)| t.len()).sum();
                pac_telemetry::counter_add(&format!("hybrid.lane{k}.rows"), rows as u64);
            }
            pac_telemetry::counter_inc("hybrid.runs");
        }

        let schedule = self.schedule;
        let lanes = std::mem::take(&mut self.lanes);
        let joined: Vec<EngineResult<(Vec<StageModel>, f32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .zip(lane_inputs)
                .enumerate()
                .map(|(k, (stage_chain, input))| {
                    scope.spawn(move || {
                        run_lane(stage_chain, input, schedule, k).map(|out| (out.stages, out.loss))
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(k, h)| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(EngineError::LanePanic {
                        lane: k,
                        stage: None,
                        step: 0,
                        message: EngineError::panic_message(payload.as_ref()),
                    }),
                })
                .collect()
        });

        // Keep every surviving replica even when a lane died, so the
        // engine stays usable.
        let (survivors, verdict) = fold_lanes(joined);
        let lane_losses: Vec<f32>;
        (self.lanes, lane_losses) = survivors.into_iter().unzip();
        verdict?;

        {
            let _span = pac_telemetry::span("hybrid.allreduce");
            for s in 0..self.num_stages() {
                let mut group: Vec<&mut StageModel> =
                    self.lanes.iter_mut().map(|lane| &mut lane[s]).collect();
                allreduce_group(&mut group)?;
            }
        }
        Ok(lane_losses.iter().sum::<f32>() / lane_losses.len() as f32)
    }

    /// Zeroes gradients on every replica.
    pub fn zero_grads(&mut self) {
        for lane in &mut self.lanes {
            for s in lane {
                s.zero_grads();
            }
        }
    }

    /// Applies one optimizer step to every replica. After an AllReduce the
    /// replicas hold identical gradients, so identical steps keep them in
    /// sync (asserted in tests).
    ///
    /// # Panics
    /// Panics unless there is exactly one optimizer per (surviving) lane.
    pub fn step(&mut self, opts: &mut [Box<dyn Optimizer>]) {
        assert_eq!(opts.len(), self.lanes.len(), "one optimizer per lane");
        for (lane, opt) in self.lanes.iter_mut().zip(opts.iter_mut()) {
            for s in lane {
                opt.step(s);
            }
        }
    }

    /// Collects lane 0's parameters (the canonical model state).
    pub fn canonical_params(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for s in &self.lanes[0] {
            s.visit_params_ref(&mut |p: &Param| out.push((p.name.clone(), p.value.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::{EncoderModel, ModelConfig};
    use pac_nn::{cross_entropy, Sgd};
    use pac_tensor::rng::seeded;
    use rand::Rng as _;
    use std::collections::HashMap;

    fn model(seed: u64, layers: usize) -> EncoderModel {
        let cfg = ModelConfig::micro(layers, 0, 16, 2);
        EncoderModel::new(&cfg, 2, &mut seeded(seed))
    }

    fn micro_batches(
        seed: u64,
        m: usize,
        b: usize,
        s: usize,
    ) -> Vec<(Vec<Vec<usize>>, Vec<usize>)> {
        let mut rng = seeded(seed);
        (0..m)
            .map(|_| {
                let toks: Vec<Vec<usize>> = (0..b)
                    .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
                    .collect();
                let targets: Vec<usize> = (0..b).map(|_| rng.gen_range(0..2)).collect();
                (toks, targets)
            })
            .collect()
    }

    /// The one row-split rule: ranges tile the rows contiguously in lane
    /// order, their lengths differ by at most one, and the micro-batch
    /// split built on it loses no row even when the lanes do not divide
    /// the rows. Where they do, it is the even split slice for slice.
    /// Fewer rows than lanes, or a short target list, is a typed error.
    #[test]
    fn shards_cover_every_row_in_order() {
        for rows in 0..20 {
            for lanes in 1..8 {
                let parts: Vec<_> = (0..lanes).map(|k| shard(rows, lanes, k)).collect();
                assert_eq!(parts[0].start, 0);
                assert_eq!(parts[lanes - 1].end, rows);
                assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
                assert!(parts
                    .iter()
                    .all(|p| p.len() == rows / lanes || p.len() == rows / lanes + 1));
                if rows % lanes == 0 {
                    let share = rows / lanes;
                    let even: Vec<_> = (0..lanes).map(|k| k * share..(k + 1) * share).collect();
                    assert_eq!(parts, even, "{rows} rows over {lanes} lanes");
                }
            }
        }
        assert_eq!(shard(16, 2, 1), 8..16);
        assert_eq!(shard(16, 6, 5), 14..16);

        for (rows, lanes) in [(4, 1), (4, 2), (6, 3), (5, 2), (7, 3), (3, 3)] {
            let mbs = micro_batches(77 + rows as u64, 3, rows, 5);
            let split = shard_micro_batches(&mbs, lanes).unwrap();
            for (m, (toks, targets)) in mbs.iter().enumerate() {
                let joined_toks: Vec<Vec<usize>> =
                    split.iter().flat_map(|lane| lane[m].0.clone()).collect();
                let joined_targets: Vec<usize> =
                    split.iter().flat_map(|lane| lane[m].1.clone()).collect();
                assert_eq!(&joined_toks, toks, "lane ranges must tile the rows");
                assert_eq!(&joined_targets, targets);
            }
            if rows % lanes == 0 {
                assert_eq!(split, split_micro_batches(&mbs, lanes).unwrap());
            } else {
                assert!(split_micro_batches(&mbs, lanes).is_err());
            }
        }
        let mut mbs = micro_batches(80, 2, 2, 5);
        let mut short = mbs.clone();
        short[1].1.truncate(1);
        mbs[1].0.truncate(1);
        mbs[1].1.truncate(1);
        for err in [
            shard_micro_batches(&mbs, 2).unwrap_err(),
            shard_micro_batches(&mbs, 0).unwrap_err(),
            shard_micro_batches(&short, 2).unwrap_err(),
        ] {
            assert!(
                matches!(err, EngineError::Tensor(TensorError::ShapeMismatch { .. })),
                "{err}"
            );
        }
    }

    #[test]
    fn short_targets_are_a_typed_error_not_a_panic() {
        let mut mbs = micro_batches(79, 2, 4, 5);
        mbs[1].1.truncate(1);
        let mut engine = HybridEngine::new(
            model(79, 4).partition(&[2, 2]).unwrap(),
            2,
            Schedule::OneFOneB,
        );
        for err in [
            engine.run_mini_batch(&mbs).unwrap_err(),
            split_micro_batches(&mbs, 2).unwrap_err(),
            shard_micro_batches(&mbs, 2).unwrap_err(),
        ] {
            assert!(
                matches!(err, EngineError::Tensor(TensorError::ShapeMismatch { .. })),
                "{err}"
            );
        }
        mbs[1].1.extend([0, 1, 0, 1]);
        assert!(split_micro_batches(&mbs, 2).is_err());
    }

    #[test]
    fn hybrid_gradients_match_monolithic() {
        let m = model(230, 4);
        let mbs = micro_batches(231, 2, 4, 5);

        // Monolithic reference.
        let mut mono = m.clone();
        let all_tokens: Vec<Vec<usize>> = mbs.iter().flat_map(|(t, _)| t.clone()).collect();
        let all_targets: Vec<usize> = mbs.iter().flat_map(|(_, t)| t.clone()).collect();
        let (logits, ctx) = mono.forward(&all_tokens).unwrap();
        let (mono_loss, dl) = cross_entropy(&logits, &all_targets).unwrap();
        mono.backward(&ctx, &dl).unwrap();
        let mut mono_grads: HashMap<String, Tensor> = HashMap::new();
        mono.visit_params_ref(&mut |p| {
            mono_grads.insert(p.name.clone(), p.grad.clone());
        });

        // Hybrid: 2 stages × 2 lanes = 4 "devices".
        let stages = m.partition(&[2, 2]).unwrap();
        let mut engine = HybridEngine::new(stages, 2, Schedule::OneFOneB);
        assert_eq!(engine.num_devices(), 4);
        let loss = engine.run_mini_batch(&mbs).unwrap();
        assert!(
            (loss - mono_loss).abs() < 1e-5,
            "loss {loss} vs {mono_loss}"
        );

        for lane in &engine.lanes {
            for stage in lane {
                stage.visit_params_ref(&mut |p| {
                    let mg = &mono_grads[&p.name];
                    assert!(
                        p.grad.approx_eq(mg, 1e-4),
                        "grad mismatch {}: |Δ|={}",
                        p.name,
                        p.grad.sub(mg).unwrap().norm()
                    );
                });
            }
        }
    }

    #[test]
    fn lanes_stay_synchronized_over_training() {
        let m = model(232, 2);
        let stages = m.partition(&[1, 1]).unwrap();
        let mut engine = HybridEngine::new(stages, 2, Schedule::OneFOneB);
        let mut opts: Vec<Box<dyn Optimizer>> =
            vec![Box::new(Sgd::new(0.05)), Box::new(Sgd::new(0.05))];
        for step in 0..3 {
            let mbs = micro_batches(240 + step, 2, 4, 4);
            engine.zero_grads();
            engine.run_mini_batch(&mbs).unwrap();
            engine.step(&mut opts);
        }
        // Lane parameters must agree bitwise after synced SGD steps.
        let lane0: HashMap<String, Tensor> = {
            let mut m = HashMap::new();
            for s in &engine.lanes[0] {
                s.visit_params_ref(&mut |p| {
                    m.insert(p.name.clone(), p.value.clone());
                });
            }
            m
        };
        for s in &engine.lanes[1] {
            s.visit_params_ref(&mut |p| {
                assert!(
                    p.value.approx_eq(&lane0[&p.name], 1e-6),
                    "lane divergence on {}",
                    p.name
                );
            });
        }
    }

    /// Forces every lane's parameter storage to a private copy (the
    /// pre-copy-on-write behavior), for memory/equivalence comparison.
    fn deep_copied(engine: &HybridEngine) -> HybridEngine {
        let mut lanes = engine.lanes.clone();
        for lane in &mut lanes {
            for s in lane {
                s.visit_params(&mut |p| {
                    p.value = Tensor::from_vec(p.value.data().to_vec(), p.value.dims()).unwrap();
                    p.grad = Tensor::from_vec(p.grad.data().to_vec(), p.grad.dims()).unwrap();
                });
            }
        }
        HybridEngine {
            lanes,
            schedule: engine.schedule,
        }
    }

    #[test]
    fn lane_replication_shares_backbone_storage_and_matches_deep_copy() {
        let m = model(246, 2);
        let g = 3usize;
        let single =
            HybridEngine::new(m.clone().partition(&[1, 1]).unwrap(), 1, Schedule::OneFOneB)
                .resident_param_bytes();

        let mut shared = HybridEngine::new(m.partition(&[1, 1]).unwrap(), g, Schedule::OneFOneB);
        // Replication is copy-on-write: three lanes resident at the cost of one.
        assert_eq!(shared.resident_param_bytes(), single);
        let mut deep = deep_copied(&shared);
        assert_eq!(deep.resident_param_bytes(), g * single);

        // Sharing must not change the math: same losses, bitwise-same grads.
        let mbs = micro_batches(247, 2, 3, 4);
        let shared_loss = shared.run_mini_batch(&mbs).unwrap();
        let deep_loss = deep.run_mini_batch(&mbs).unwrap();
        assert_eq!(shared_loss.to_bits(), deep_loss.to_bits());
        for (sl, dl) in shared.lanes.iter().zip(&deep.lanes) {
            for (ss, ds) in sl.iter().zip(dl) {
                let mut deep_grads: Vec<Tensor> = Vec::new();
                ds.visit_params_ref(&mut |p| deep_grads.push(p.grad.clone()));
                let mut idx = 0;
                ss.visit_params_ref(&mut |p| {
                    assert!(
                        p.grad.approx_eq(&deep_grads[idx], 0.0),
                        "sharing changed gradient bits at param {idx}"
                    );
                    idx += 1;
                });
            }
        }
        // Even after a backward pass the shared engine stays lighter: the
        // untouched parameter values still share one buffer per param.
        assert!(shared.resident_param_bytes() < deep.resident_param_bytes());
    }

    #[test]
    fn uneven_split_is_rejected() {
        let m = model(233, 2);
        let stages = m.partition(&[1, 1]).unwrap();
        let mut engine = HybridEngine::new(stages, 2, Schedule::OneFOneB);
        let mbs = micro_batches(234, 1, 3, 4); // 3 rows, 2 lanes
        assert!(engine.run_mini_batch(&mbs).is_err());
    }

    #[test]
    fn training_reduces_loss() {
        let m = model(235, 2);
        let stages = m.partition(&[1, 1]).unwrap();
        let mut engine = HybridEngine::new(stages, 2, Schedule::OneFOneB);
        let mut opts: Vec<Box<dyn Optimizer>> =
            vec![Box::new(Sgd::new(0.05)), Box::new(Sgd::new(0.05))];
        let mbs = micro_batches(236, 2, 4, 4);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..10 {
            engine.zero_grads();
            let loss = engine.run_mini_batch(&mbs).unwrap();
            if step == 0 {
                first = loss;
            }
            last = loss;
            engine.step(&mut opts);
        }
        assert!(last < first, "first {first} last {last}");
    }

    #[test]
    fn a_compute_error_beats_the_disconnections_it_caused() {
        // Lane 1's rows of the second micro-batch carry a target past the
        // two classes: its last stage fails in cross-entropy, and the
        // lane's first stage then loses its backward link. The engine must
        // return the compute error, promptly.
        let m = model(237, 2);
        let mut engine = HybridEngine::new(m.partition(&[1, 1]).unwrap(), 2, Schedule::OneFOneB);
        let mut mbs = micro_batches(238, 2, 4, 4);
        mbs[1].1[3] = 7;
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let out = engine.run_mini_batch(&mbs);
            tx.send((out, engine.group_width())).unwrap();
        });
        let (out, width) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("engine hung on a compute error");
        run.join().expect("engine thread");
        match out {
            Err(EngineError::Tensor(TensorError::IndexOutOfBounds { index: 7, bound: 2 })) => {}
            other => panic!("expected the cross-entropy error, got {other:?}"),
        }
        assert_eq!(width, 1, "the failed lane is removed, the survivor kept");
    }
}

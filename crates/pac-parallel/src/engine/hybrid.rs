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

/// One micro-batch: `(token rows, class targets)`.
pub type MicroBatch = (Vec<Vec<usize>>, Vec<usize>);

/// Splits every micro-batch row-wise into `g` equal lane shares — lane `k`
/// takes rows `[k·share, (k+1)·share)`. Public so the distributed driver
/// (`pac-net`) shards the mini-batch *identically* to [`HybridEngine`],
/// which is a precondition for bitwise-equal results.
///
/// # Errors
/// [`EngineError::Tensor`] when any micro-batch's row count is not a
/// multiple of `g` (uneven shares would break exact gradient averaging).
pub fn split_micro_batches(
    micro_batches: &[MicroBatch],
    g: usize,
) -> EngineResult<Vec<Vec<MicroBatch>>> {
    for (toks, _) in micro_batches {
        if toks.len() % g != 0 {
            return Err(EngineError::Tensor(TensorError::ShapeMismatch {
                op: "hybrid micro-batch must split evenly across lanes",
                lhs: vec![toks.len()],
                rhs: vec![g],
            }));
        }
    }
    Ok((0..g)
        .map(|k| {
            micro_batches
                .iter()
                .map(|(toks, targets)| {
                    let share = toks.len() / g;
                    (
                        toks[k * share..(k + 1) * share].to_vec(),
                        targets[k * share..(k + 1) * share].to_vec(),
                    )
                })
                .collect()
        })
        .collect())
}

/// Row counts per lane for one micro-batch of `rows` rows under relative
/// `weights` (higher weight ⇒ more rows — the inverse of measured lane
/// cost). Largest-remainder apportionment with a one-row floor per lane:
/// shares sum exactly to `rows`, equal weights reproduce the even split of
/// [`split_micro_batches`] when `rows` divides evenly, and a lane is never
/// starved to zero (a lane with no rows would desynchronize the 1F1B
/// schedule). Deterministic: ties go to the lower lane index.
///
/// # Errors
/// [`EngineError::Tensor`] when `rows < weights.len()` (cannot give every
/// lane a row) or `weights` is empty / contains a non-positive weight.
pub fn weighted_shares(rows: usize, weights: &[f64]) -> EngineResult<Vec<usize>> {
    let g = weights.len();
    if g == 0 || rows < g || weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
        return Err(EngineError::Tensor(TensorError::ShapeMismatch {
            op: "weighted micro-batch shares need >= 1 row per lane and positive weights",
            lhs: vec![rows],
            rhs: vec![g],
        }));
    }
    let total: f64 = weights.iter().sum();
    // Floor of the proportional share, with the one-row floor applied.
    let spendable = rows - g; // rows left after every lane's guaranteed one
    let mut shares: Vec<usize> = Vec::with_capacity(g);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(g);
    let mut assigned = 0usize;
    for (k, w) in weights.iter().enumerate() {
        let ideal = spendable as f64 * (w / total);
        let base = ideal.floor() as usize;
        shares.push(1 + base);
        assigned += base;
        remainders.push((k, ideal - base as f64));
    }
    // Hand the leftover rows to the largest fractional remainders; ties
    // break toward the lower lane index so the split is deterministic.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for &(k, _) in remainders.iter().take(spendable - assigned) {
        shares[k] += 1;
    }
    debug_assert_eq!(shares.iter().sum::<usize>(), rows);
    Ok(shares)
}

/// The weighted generalization of [`split_micro_batches`]: every
/// micro-batch is cut into *contiguous* row ranges sized by
/// [`weighted_shares`], lane `k` taking the `k`-th range. With equal
/// weights and evenly divisible rows this is bit-identical to
/// [`split_micro_batches`] (same contiguous slices in the same order), so
/// a driver can use the weighted path unconditionally and only diverge
/// from the in-process engines once measured lane costs actually differ.
///
/// # Errors
/// [`EngineError::Tensor`] when any micro-batch has fewer rows than lanes
/// or the weights are degenerate (see [`weighted_shares`]).
pub fn split_micro_batches_weighted(
    micro_batches: &[MicroBatch],
    weights: &[f64],
) -> EngineResult<Vec<Vec<MicroBatch>>> {
    let g = weights.len();
    let mut lanes: Vec<Vec<MicroBatch>> = vec![Vec::with_capacity(micro_batches.len()); g];
    for (toks, targets) in micro_batches {
        let shares = weighted_shares(toks.len(), weights)?;
        let mut start = 0usize;
        for (k, &share) in shares.iter().enumerate() {
            lanes[k].push((
                toks[start..start + share].to_vec(),
                targets[start..start + share].to_vec(),
            ));
            start += share;
        }
    }
    Ok(lanes)
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

    #[test]
    fn weighted_shares_apportion_exactly() {
        // Equal weights, divisible rows: the even split.
        assert_eq!(weighted_shares(4, &[1.0, 1.0]).unwrap(), vec![2, 2]);
        // Equal weights, ragged rows: leftover goes to the lowest lane.
        assert_eq!(weighted_shares(4, &[1.0, 1.0, 1.0]).unwrap(), vec![2, 1, 1]);
        // A lane twice as fast takes (roughly) twice the rows.
        assert_eq!(weighted_shares(6, &[2.0, 1.0]).unwrap(), vec![4, 2]);
        // The one-row floor: even a very slow lane keeps one row.
        let shares = weighted_shares(8, &[100.0, 1.0]).unwrap();
        assert_eq!(shares.iter().sum::<usize>(), 8);
        assert!(shares[1] >= 1 && shares[0] > shares[1]);
        // Degenerate inputs are typed errors, not panics.
        assert!(weighted_shares(1, &[1.0, 1.0]).is_err());
        assert!(weighted_shares(4, &[]).is_err());
        assert!(weighted_shares(4, &[1.0, 0.0]).is_err());
        assert!(weighted_shares(4, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn weighted_split_with_equal_weights_matches_even_split() {
        let mbs = micro_batches(77, 3, 4, 5);
        let even = split_micro_batches(&mbs, 2).unwrap();
        let weighted = split_micro_batches_weighted(&mbs, &[1.0, 1.0]).unwrap();
        assert_eq!(
            even, weighted,
            "equal weights must reproduce the even split"
        );
    }

    #[test]
    fn weighted_split_is_contiguous_and_loses_no_rows() {
        let mbs = micro_batches(78, 2, 5, 3);
        let lanes = split_micro_batches_weighted(&mbs, &[3.0, 1.0]).unwrap();
        for (m, (toks, targets)) in mbs.iter().enumerate() {
            let rejoined_toks: Vec<Vec<usize>> =
                lanes.iter().flat_map(|lane| lane[m].0.clone()).collect();
            let rejoined_targets: Vec<usize> =
                lanes.iter().flat_map(|lane| lane[m].1.clone()).collect();
            assert_eq!(&rejoined_toks, toks, "lane ranges must tile the rows");
            assert_eq!(&rejoined_targets, targets);
        }
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

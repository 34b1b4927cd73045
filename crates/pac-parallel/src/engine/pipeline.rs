//! Real threaded pipeline-parallel engine with 1F1B scheduling.
//!
//! One OS thread per stage ("device"); bounded `std::sync::mpsc` channels carry
//! activations forward and gradients backward, modeling the LAN links.
//! Every stage executes exactly the op sequence from
//! [`crate::schedule::stage_op_sequence`], so the real engine and the
//! timeline simulator implement the *same* discipline.
//!
//! Execution is supervised: stage threads return typed results, panics are
//! caught at join and attributed to their stage, and a neighbor's death
//! surfaces as [`EngineError::Disconnected`] instead of a cascading panic.
//! The engine injects no faults: it is the reference the distributed
//! workers, which run the same [`run_stage`], are checked against.

use crate::engine::error::{EngineError, EngineResult};
use crate::schedule::{stage_op_sequence, Op, Schedule, SimEvent};
use pac_model::{StageCtx, StageData, StageModel};
use pac_nn::cross_entropy;
use pac_tensor::Tensor;
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Result of running one mini-batch through the real pipeline.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The stages, with gradients accumulated (returned because stage
    /// threads take ownership).
    pub stages: Vec<StageModel>,
    /// Mean loss over micro-batches.
    pub loss: f32,
    /// Per-stage peak retained activation bytes observed (live validation
    /// of the 1F1B memory claim).
    pub peak_act_bytes: Vec<usize>,
    /// Measured timeline of every executed op, in the same format the
    /// simulator emits — start/end are seconds since mini-batch start,
    /// covering compute only (channel waits are idle, sends are comms).
    /// Feed to [`SimResult::from_events`](crate::schedule::SimResult::from_events)
    /// to render or compare against a simulated run.
    pub events: Vec<SimEvent>,
    /// Per-stage total compute time (seconds); `busy / wall_s` is the
    /// stage's utilization.
    pub stage_busy_s: Vec<f64>,
    /// Wall-clock duration of the whole mini-batch (seconds).
    pub wall_s: f64,
}

/// What one stage execution produces on success — returned by [`run_stage`]
/// whether the stage ran on an in-process thread or a remote worker.
#[derive(Debug)]
pub struct StageRun {
    /// The stage, with gradients accumulated (stage execution takes
    /// ownership so remote workers can keep their replica between steps).
    pub stage: StageModel,
    /// Sum of per-micro-batch losses (nonzero only on the last stage).
    pub loss_sum: f32,
    /// Peak retained activation bytes observed.
    pub peak_act_bytes: usize,
    /// Measured timeline of every executed op (seconds since `epoch`).
    pub events: Vec<SimEvent>,
    /// Total compute time (seconds).
    pub busy_s: f64,
}

/// Transport-generic neighbor links for one pipeline stage.
///
/// [`run_stage`] drives a stage purely through this trait, so the same 1F1B
/// op loop executes over in-process channels ([`ChannelLinks`])
/// and over real TCP sockets (`pac-net`) — which is what entitles the
/// distributed engines to claim bitwise equivalence with the in-process
/// ones: the float math is the very same code path, only the bytes' route
/// differs.
///
/// Ordering contract: both neighbors execute complementary deterministic op
/// sequences, so payloads for micro-batch `m` arrive in op order. An
/// implementation may assert the `micro` tag matches.
pub trait StageLinks {
    /// Ships an activation to the next stage.
    ///
    /// # Errors
    /// A typed transport error when the downstream neighbor is gone.
    fn send_fwd(&mut self, micro: usize, data: StageData) -> EngineResult<()>;
    /// Receives an activation from the previous stage.
    ///
    /// # Errors
    /// A typed transport error when the upstream neighbor is gone.
    fn recv_fwd(&mut self, micro: usize) -> EngineResult<StageData>;
    /// Ships a gradient to the previous stage.
    ///
    /// # Errors
    /// A typed transport error when the upstream neighbor is gone.
    fn send_bwd(&mut self, micro: usize, grad: Tensor) -> EngineResult<()>;
    /// Receives a gradient from the next stage.
    ///
    /// # Errors
    /// A typed transport error when the downstream neighbor is gone.
    fn recv_bwd(&mut self, micro: usize) -> EngineResult<Tensor>;
}

/// In-process [`StageLinks`] over bounded `sync_channel`s — the original
/// engine transport. A closed channel (dead neighbor) surfaces as
/// [`EngineError::Disconnected`]. Channels are optional per position: stage
/// 0 has no upstream, the last stage no downstream; using a missing link is
/// a scheduler bug and panics (caught and attributed at join).
pub struct ChannelLinks {
    lane: usize,
    stage: usize,
    fwd_tx: Option<SyncSender<(usize, StageData)>>,
    fwd_rx: Option<Receiver<(usize, StageData)>>,
    bwd_tx: Option<SyncSender<(usize, Tensor)>>,
    bwd_rx: Option<Receiver<(usize, Tensor)>>,
}

impl ChannelLinks {
    /// Wires a stage's channel endpoints (`None` where the chain ends).
    pub fn new(
        lane: usize,
        stage: usize,
        fwd_tx: Option<SyncSender<(usize, StageData)>>,
        fwd_rx: Option<Receiver<(usize, StageData)>>,
        bwd_tx: Option<SyncSender<(usize, Tensor)>>,
        bwd_rx: Option<Receiver<(usize, Tensor)>>,
    ) -> Self {
        ChannelLinks {
            lane,
            stage,
            fwd_tx,
            fwd_rx,
            bwd_tx,
            bwd_rx,
        }
    }

    fn disconnected(&self, micro: usize, forward: bool) -> EngineError {
        EngineError::Disconnected {
            lane: self.lane,
            stage: self.stage,
            micro,
            forward,
        }
    }
}

impl StageLinks for ChannelLinks {
    fn send_fwd(&mut self, micro: usize, data: StageData) -> EngineResult<()> {
        self.fwd_tx
            .as_ref()
            .expect("non-final stage has a forward sender")
            .send((micro, data))
            .map_err(|_| self.disconnected(micro, true))
    }

    fn recv_fwd(&mut self, micro: usize) -> EngineResult<StageData> {
        let (idx, data) = self
            .fwd_rx
            .as_ref()
            .expect("interior stage has a forward receiver")
            .recv()
            .map_err(|_| self.disconnected(micro, true))?;
        debug_assert_eq!(idx, micro, "forward arrived out of order");
        Ok(data)
    }

    fn send_bwd(&mut self, micro: usize, grad: Tensor) -> EngineResult<()> {
        self.bwd_tx
            .as_ref()
            .expect("non-first stage has a backward sender")
            .send((micro, grad))
            .map_err(|_| self.disconnected(micro, false))
    }

    fn recv_bwd(&mut self, micro: usize) -> EngineResult<Tensor> {
        let (idx, g) = self
            .bwd_rx
            .as_ref()
            .expect("non-final stage has a backward receiver")
            .recv()
            .map_err(|_| self.disconnected(micro, false))?;
        debug_assert_eq!(idx, micro, "backward arrived out of order");
        Ok(g)
    }
}

/// Runs one mini-batch of `micro_batches` through the stage chain with the
/// given schedule. `micro_batches[m]` is `(tokens, class_targets)`; the
/// last stage computes softmax cross-entropy and scales gradients by
/// `1 / M` so the accumulated gradient equals the full-batch mean gradient.
///
/// # Errors
/// The root cause of a failed run: [`EngineError::LanePanic`] when a stage
/// thread panics (caught at join, never propagated), else
/// [`EngineError::Tensor`] on math/shape failures or empty inputs, and
/// [`EngineError::Disconnected`] only when a stage lost its neighbor for
/// no other reported cause.
pub fn run_pipeline_mini_batch(
    stages: Vec<StageModel>,
    micro_batches: Vec<(Vec<Vec<usize>>, Vec<usize>)>,
    schedule: Schedule,
) -> EngineResult<PipelineOutcome> {
    run_lane(stages, micro_batches, schedule, 0)
}

/// [`run_pipeline_mini_batch`] as lane `lane` of a hybrid run: errors are
/// attributed to that lane.
pub(crate) fn run_lane(
    stages: Vec<StageModel>,
    micro_batches: Vec<(Vec<Vec<usize>>, Vec<usize>)>,
    schedule: Schedule,
    lane: usize,
) -> EngineResult<PipelineOutcome> {
    if stages.is_empty() || micro_batches.is_empty() {
        return Err(EngineError::Tensor(
            pac_tensor::TensorError::ShapeMismatch {
                op: "pipeline needs at least one stage and one micro-batch",
                lhs: vec![stages.len()],
                rhs: vec![micro_batches.len()],
            },
        ));
    }
    let s_n = stages.len();
    let m_n = micro_batches.len();

    // Channel capacity bounds in-flight transfers like a real link buffer.
    let cap = m_n.max(1);
    let mut fwd_txs: Vec<Option<SyncSender<(usize, StageData)>>> = Vec::new();
    let mut fwd_rxs: Vec<Option<Receiver<(usize, StageData)>>> = vec![None];
    let mut bwd_txs: Vec<Option<SyncSender<(usize, Tensor)>>> = vec![None];
    let mut bwd_rxs: Vec<Option<Receiver<(usize, Tensor)>>> = Vec::new();
    for _ in 0..s_n - 1 {
        let (ftx, frx) = sync_channel(cap);
        fwd_txs.push(Some(ftx));
        fwd_rxs.push(Some(frx));
        let (btx, brx) = sync_channel(cap);
        bwd_txs.push(Some(btx));
        bwd_rxs.push(Some(brx));
    }
    fwd_txs.push(None);
    bwd_rxs.push(None);

    let epoch = Instant::now();
    let joined: Vec<Result<EngineResult<StageRun>, EngineError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(s_n);
        for (s, stage) in stages.into_iter().enumerate() {
            let fwd_tx = fwd_txs[s].take();
            let fwd_rx = fwd_rxs[s].take();
            let bwd_tx = bwd_txs[s].take();
            let bwd_rx = bwd_rxs[s].take();
            // First stage needs the tokens, last stage needs the targets.
            let mb_inputs: Vec<(Vec<Vec<usize>>, Vec<usize>)> = if s == 0 || s == s_n - 1 {
                micro_batches.clone()
            } else {
                Vec::new()
            };
            handles.push(scope.spawn(move || {
                let mut links = ChannelLinks::new(lane, s, fwd_tx, fwd_rx, bwd_tx, bwd_rx);
                run_stage(stage, s, s_n, m_n, schedule, &mb_inputs, &mut links, &epoch)
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(s, h)| {
                h.join().map_err(|payload| EngineError::LanePanic {
                    lane,
                    stage: Some(s),
                    step: 0,
                    message: EngineError::panic_message(payload.as_ref()),
                })
            })
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    // Attribute the root cause: a panic beats a compute error beats the
    // disconnections it caused downstream.
    let mut disconnect: Option<EngineError> = None;
    let mut results: Vec<StageRun> = Vec::with_capacity(s_n);
    for r in joined {
        match r {
            Err(panic) => return Err(panic),
            Ok(Err(e @ EngineError::Disconnected { .. })) => {
                disconnect.get_or_insert(e);
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(run)) => results.push(run),
        }
    }
    if let Some(e) = disconnect {
        return Err(e);
    }

    let mut stages_out = Vec::with_capacity(s_n);
    let mut loss = 0.0f32;
    let mut peaks = Vec::with_capacity(s_n);
    let mut events = Vec::with_capacity(2 * s_n * m_n);
    let mut stage_busy_s = Vec::with_capacity(s_n);
    for (s, run) in results.into_iter().enumerate() {
        stages_out.push(run.stage);
        loss += run.loss_sum;
        peaks.push(run.peak_act_bytes);
        if pac_telemetry::enabled() {
            pac_telemetry::counter_add(
                &format!("pipeline.stage{s}.busy_ns"),
                (run.busy_s * 1e9) as u64,
            );
            pac_telemetry::counter_add(&format!("pipeline.stage{s}.ops"), run.events.len() as u64);
            pac_telemetry::gauge_max(
                &format!("pipeline.stage{s}.peak_act_bytes"),
                run.peak_act_bytes as u64,
            );
        }
        events.extend(run.events);
        stage_busy_s.push(run.busy_s);
    }
    pac_telemetry::counter_inc("pipeline.runs");
    pac_telemetry::counter_add("pipeline.wall_ns", (wall_s * 1e9) as u64);
    Ok(PipelineOutcome {
        stages: stages_out,
        loss: loss / m_n as f32,
        peak_act_bytes: peaks,
        events,
        stage_busy_s,
        wall_s,
    })
}

/// Executes one stage's full op sequence for a mini-batch, exchanging
/// activations/gradients with its neighbors through `links`. This is the
/// single implementation of the per-stage 1F1B discipline: the in-process
/// engine runs it on scoped threads over [`ChannelLinks`], and `pac-net`'s
/// distributed workers run the *same function* over TCP-backed links.
///
/// Transport failures surface as whatever typed error the links produce
/// ([`EngineError::Disconnected`] in-process, `EngineError::RankDown` over
/// sockets); math failures as [`EngineError::Tensor`]. Structural
/// invariants of the op sequence (a context present for every backward,
/// links wired per position) remain `expect`s — a violation is a scheduler
/// bug.
///
/// # Errors
/// Typed transport errors from `links`, [`EngineError::Tensor`] from the
/// stage math.
#[allow(clippy::too_many_arguments)]
pub fn run_stage<L: StageLinks>(
    mut stage: StageModel,
    s: usize,
    s_n: usize,
    m_n: usize,
    schedule: Schedule,
    mb_inputs: &[(Vec<Vec<usize>>, Vec<usize>)],
    links: &mut L,
    epoch: &Instant,
) -> EngineResult<StageRun> {
    let ops = stage_op_sequence(schedule, s, s_n, m_n);
    let mut ctxs: HashMap<usize, StageCtx> = HashMap::new();
    let mut outputs: HashMap<usize, Tensor> = HashMap::new();
    let mut loss_sum = 0.0f32;
    let mut live_act = 0usize;
    let mut peak_act = 0usize;
    let mut events: Vec<SimEvent> = Vec::with_capacity(2 * m_n);
    let mut busy = 0.0f64;
    for op in ops {
        match op {
            Op::F(m) => {
                let input = if s == 0 {
                    StageData::Tokens(mb_inputs[m].0.clone())
                } else {
                    links.recv_fwd(m)?
                };
                let t0 = epoch.elapsed().as_secs_f64();
                let (out, ctx) = stage.forward(input)?;
                let t1 = epoch.elapsed().as_secs_f64();
                busy += t1 - t0;
                events.push(SimEvent {
                    stage: s,
                    micro: m,
                    forward: true,
                    start: t0,
                    end: t1,
                });
                live_act += ctx.activation_bytes;
                peak_act = peak_act.max(live_act);
                ctxs.insert(m, ctx);
                match out {
                    StageData::Logits(l) => {
                        outputs.insert(m, l);
                    }
                    other => links.send_fwd(m, other)?,
                }
            }
            Op::B(m) => {
                // Receive before the timestamp so channel waits
                // count as idle; the last stage's loss compute
                // is part of its backward time.
                let received = if s == s_n - 1 {
                    None
                } else {
                    Some(links.recv_bwd(m)?)
                };
                let t0 = epoch.elapsed().as_secs_f64();
                let grad = match received {
                    Some(g) => g,
                    None => {
                        let logits = outputs.remove(&m).expect("logits missing for backward");
                        let (loss, dl) = cross_entropy(&logits, &mb_inputs[m].1)?;
                        loss_sum += loss;
                        dl.scale(1.0 / m_n as f32)
                    }
                };
                let ctx = ctxs.remove(&m).expect("ctx missing for backward");
                let upstream = stage.backward(&ctx, &grad)?;
                let t1 = epoch.elapsed().as_secs_f64();
                busy += t1 - t0;
                events.push(SimEvent {
                    stage: s,
                    micro: m,
                    forward: false,
                    start: t0,
                    end: t1,
                });
                live_act -= ctx.activation_bytes;
                ctx.recycle();
                pac_tensor::scratch::put(grad);
                if let Some(g) = upstream {
                    links.send_bwd(m, g)?;
                }
            }
        }
    }
    Ok(StageRun {
        stage,
        loss_sum,
        peak_act_bytes: peak_act,
        events,
        busy_s: busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::{EncoderModel, ModelConfig};
    use pac_nn::Module;
    use pac_tensor::rng::seeded;
    use rand::Rng as _;

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

    /// Reference: monolithic gradient over the concatenated mini-batch.
    fn monolithic_grads(
        m: &EncoderModel,
        mbs: &[(Vec<Vec<usize>>, Vec<usize>)],
    ) -> (f32, Vec<(String, Tensor)>) {
        let mut model = m.clone();
        let all_tokens: Vec<Vec<usize>> = mbs.iter().flat_map(|(t, _)| t.clone()).collect();
        let all_targets: Vec<usize> = mbs.iter().flat_map(|(_, t)| t.clone()).collect();
        let (logits, ctx) = model.forward(&all_tokens).unwrap();
        let (loss, dl) = cross_entropy(&logits, &all_targets).unwrap();
        model.backward(&ctx, &dl).unwrap();
        let mut grads = Vec::new();
        model.visit_params_ref(&mut |p| grads.push((p.name.clone(), p.grad.clone())));
        (loss, grads)
    }

    fn pipeline_grads(outcome: &PipelineOutcome) -> Vec<(String, Tensor)> {
        let mut grads = Vec::new();
        for s in &outcome.stages {
            s.visit_params_ref(&mut |p| grads.push((p.name.clone(), p.grad.clone())));
        }
        grads
    }

    #[test]
    fn pipeline_gradients_match_monolithic_for_both_schedules() {
        let m = model(200, 4);
        let mbs = micro_batches(201, 4, 2, 5);
        let (mono_loss, mono) = monolithic_grads(&m, &mbs);
        let mono_map: HashMap<String, Tensor> = mono.into_iter().collect();

        for schedule in [Schedule::OneFOneB, Schedule::GPipe] {
            let stages = m.clone().partition(&[2, 2]).unwrap();
            let out = run_pipeline_mini_batch(stages, mbs.clone(), schedule).unwrap();
            assert!(
                (out.loss - mono_loss).abs() < 1e-5,
                "{schedule:?}: loss {} vs {mono_loss}",
                out.loss
            );
            for (name, g) in pipeline_grads(&out) {
                let mg = &mono_map[&name];
                assert!(
                    g.approx_eq(mg, 1e-4),
                    "{schedule:?}: grad mismatch on {name} (|Δ|={})",
                    g.sub(mg).unwrap().norm()
                );
            }
        }
    }

    #[test]
    fn wave_limited_gpipe_matches_monolithic_and_bounds_memory() {
        // The memory-constrained Eco-FL schedule must be *numerically*
        // identical to the others — it only reorders work.
        let m = model(208, 4);
        let mbs = micro_batches(209, 6, 2, 5);
        let (mono_loss, mono) = monolithic_grads(&m, &mbs);
        let mono_map: HashMap<String, Tensor> = mono.into_iter().collect();
        let stages = m.clone().partition(&[2, 2]).unwrap();
        let out =
            run_pipeline_mini_batch(stages, mbs.clone(), Schedule::GPipeWave { wave: 2 }).unwrap();
        assert!((out.loss - mono_loss).abs() < 1e-5);
        for (name, g) in pipeline_grads(&out) {
            assert!(g.approx_eq(&mono_map[&name], 1e-4), "{name}");
        }
        // And it must hold fewer activations than unbounded GPipe.
        let stages2 = m.partition(&[2, 2]).unwrap();
        let unbounded = run_pipeline_mini_batch(stages2, mbs, Schedule::GPipe).unwrap();
        assert!(
            out.peak_act_bytes[0] < unbounded.peak_act_bytes[0],
            "wave {} vs gpipe {}",
            out.peak_act_bytes[0],
            unbounded.peak_act_bytes[0]
        );
    }

    #[test]
    fn deeper_pipelines_still_match() {
        let m = model(202, 4);
        let mbs = micro_batches(203, 3, 2, 4);
        let (_, mono) = monolithic_grads(&m, &mbs);
        let mono_map: HashMap<String, Tensor> = mono.into_iter().collect();
        let stages = m.partition(&[1, 1, 1, 1]).unwrap();
        let out = run_pipeline_mini_batch(stages, mbs, Schedule::OneFOneB).unwrap();
        for (name, g) in pipeline_grads(&out) {
            assert!(g.approx_eq(&mono_map[&name], 1e-4), "{name}");
        }
    }

    #[test]
    fn one_f_one_b_uses_less_activation_memory_than_gpipe() {
        let m = model(204, 4);
        let mbs = micro_batches(205, 8, 2, 5);
        let s1 = m.clone().partition(&[1, 1, 1, 1]).unwrap();
        let o1 = run_pipeline_mini_batch(s1, mbs.clone(), Schedule::OneFOneB).unwrap();
        let s2 = m.partition(&[1, 1, 1, 1]).unwrap();
        let o2 = run_pipeline_mini_batch(s2, mbs, Schedule::GPipe).unwrap();
        // The first stage shows the largest gap: 1F1B keeps ≤ S in flight,
        // GPipe keeps all M = 8.
        assert!(
            o1.peak_act_bytes[0] < o2.peak_act_bytes[0],
            "1F1B {} vs GPipe {}",
            o1.peak_act_bytes[0],
            o2.peak_act_bytes[0]
        );
    }

    #[test]
    fn single_stage_pipeline_degenerates_to_gradient_accumulation() {
        let m = model(206, 2);
        let mbs = micro_batches(207, 3, 2, 4);
        let (mono_loss, mono) = monolithic_grads(&m, &mbs);
        let mono_map: HashMap<String, Tensor> = mono.into_iter().collect();
        let stages = m.partition(&[2]).unwrap();
        let out = run_pipeline_mini_batch(stages, mbs, Schedule::OneFOneB).unwrap();
        assert!((out.loss - mono_loss).abs() < 1e-5);
        for (name, g) in pipeline_grads(&out) {
            assert!(g.approx_eq(&mono_map[&name], 1e-4), "{name}");
        }
    }

    #[test]
    fn a_compute_error_beats_the_disconnections_it_caused() {
        // The second micro-batch carries a target past the two classes: the
        // last stage fails in cross-entropy, and stage 0 then loses its
        // backward link. The run must return the compute error, promptly.
        let m = model(210, 2);
        let mut mbs = micro_batches(211, 3, 2, 4);
        mbs[1].1[1] = 5;
        let stages = m.partition(&[1, 1]).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            tx.send(run_pipeline_mini_batch(stages, mbs, Schedule::OneFOneB).map(|o| o.loss))
                .unwrap();
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pipeline hung on a compute error");
        run.join().expect("pipeline thread");
        match out {
            Err(EngineError::Tensor(pac_tensor::TensorError::IndexOutOfBounds {
                index: 5,
                bound: 2,
            })) => {}
            other => panic!("expected the cross-entropy error, got {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_are_typed_errors_not_panics() {
        let m = model(214, 2);
        let stages = m.partition(&[1, 1]).unwrap();
        assert!(run_pipeline_mini_batch(stages, Vec::new(), Schedule::OneFOneB).is_err());
        let mbs = micro_batches(215, 1, 2, 4);
        assert!(run_pipeline_mini_batch(Vec::new(), mbs, Schedule::OneFOneB).is_err());
    }
}

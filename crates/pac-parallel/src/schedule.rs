//! Deterministic pipeline-schedule simulation (GPipe-style flush vs the
//! paper's 1F1B), producing makespans and per-stage peak memory.
//!
//! The simulator executes each stage's known op sequence under cross-stage
//! data dependencies:
//!
//! * `F(s, m)` needs `F(s−1, m)` plus the forward activation transfer;
//! * `B(s, m)` needs `B(s+1, m)` plus the gradient transfer (the last stage
//!   starts backward right after its own forward — the loss is local);
//! * ops on one stage serialize in schedule order.
//!
//! 1F1B's advantage (paper §5.1) is *memory*: a stage holds at most
//! `S − s` in-flight micro-batches instead of all `M`, because each
//! backward releases its forward's activations before the next forward is
//! admitted.

/// Micro-batch scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One-forward-one-backward (PipeDream-flush), the paper's choice.
    OneFOneB,
    /// GPipe-style: all forwards, then all backwards.
    GPipe,
    /// Memory-constrained GPipe: micro-batches flow in waves of at most
    /// `wave` concurrently in-flight micro-batches, with a full flush
    /// between waves. This models the paper's §6.2 observation that Eco-FL
    /// "necessitates … a reduction in the number of micro-batches
    /// simultaneously input into the pipeline", which costs concurrency.
    GPipeWave {
        /// Maximum in-flight micro-batches per stage.
        wave: usize,
    },
}

/// One pipeline stage's simulated execution parameters. Times are for one
/// micro-batch on one device of the stage's group (data-parallel
/// subdivision is applied by the caller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStage {
    /// Forward time per micro-batch (seconds).
    pub fwd_s: f64,
    /// Backward time per micro-batch (seconds).
    pub bwd_s: f64,
    /// Activation transfer time to the next stage (seconds per micro-batch).
    pub send_fwd_s: f64,
    /// Gradient transfer time to the previous stage (seconds per
    /// micro-batch).
    pub send_bwd_s: f64,
    /// Resident weight bytes on each device of this stage.
    pub weight_bytes: usize,
    /// Activation bytes retained per in-flight micro-batch.
    pub act_bytes_per_mb: usize,
    /// Fixed training bytes (gradients, optimizer state, technique extras).
    pub fixed_bytes: usize,
    /// Gradient-synchronization time within this stage's group at
    /// mini-batch end (seconds).
    pub allreduce_s: f64,
}

/// One executed operation in the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// Stage index.
    pub stage: usize,
    /// Micro-batch id.
    pub micro: usize,
    /// True for forward, false for backward.
    pub forward: bool,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Outcome of a pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end mini-batch time including AllReduce (seconds).
    pub makespan_s: f64,
    /// Peak concurrently in-flight micro-batches per stage.
    pub peak_inflight: Vec<usize>,
    /// Peak bytes per stage device (weights + fixed + activations).
    pub peak_bytes: Vec<usize>,
    /// Fraction of stage-time slots idle (pipeline bubbles).
    pub bubble_fraction: f64,
    /// Every executed op with its start/end time (the paper's Figure 6(b)
    /// timeline; render with [`SimResult::ascii_gantt`]).
    pub events: Vec<SimEvent>,
}

impl SimResult {
    /// Maximum peak bytes over all stages.
    pub fn max_peak_bytes(&self) -> usize {
        self.peak_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Builds a `SimResult` from an event list recorded elsewhere — in
    /// particular the *real* engine's measured timeline
    /// (`PipelineOutcome::events`), so measured and simulated runs render
    /// through the same [`SimResult::ascii_gantt`] and are directly
    /// comparable.
    ///
    /// `peak_inflight` is replayed from forward/backward transitions;
    /// `peak_bytes` is not knowable from events alone and is zeroed.
    pub fn from_events(events: Vec<SimEvent>, n_stages: usize) -> SimResult {
        let mut inflight = vec![0isize; n_stages];
        let mut peak_inflight = vec![0usize; n_stages];
        let mut busy = vec![0.0f64; n_stages];
        let mut stage_end = vec![0.0f64; n_stages];
        // Replay in start order; per stage, ops never overlap.
        let mut ordered: Vec<&SimEvent> = events.iter().collect();
        ordered.sort_by(|a, b| a.start.total_cmp(&b.start));
        for e in ordered {
            if e.forward {
                inflight[e.stage] += 1;
                peak_inflight[e.stage] = peak_inflight[e.stage].max(inflight[e.stage] as usize);
            } else {
                inflight[e.stage] -= 1;
            }
            busy[e.stage] += e.end - e.start;
            stage_end[e.stage] = stage_end[e.stage].max(e.end);
        }
        let makespan = stage_end.iter().fold(0.0f64, |a, &b| a.max(b));
        let busy_total: f64 = busy.iter().sum();
        let bubble_fraction = if makespan > 0.0 && n_stages > 0 {
            1.0 - busy_total / (n_stages as f64 * makespan)
        } else {
            0.0
        };
        SimResult {
            makespan_s: makespan,
            peak_inflight,
            peak_bytes: vec![0; n_stages],
            bubble_fraction,
            events,
        }
    }

    /// Renders the timeline as an ASCII Gantt chart in the style of the
    /// paper's Figure 6(b): one row per stage, `width` character columns,
    /// forward cells as the micro-batch digit, backward cells as letters
    /// (`a` = micro-batch 0), idle as `·`.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let n_stages = self.peak_inflight.len();
        let span = self.makespan_s.max(1e-12);
        let mut rows = vec![vec![b'.'; width]; n_stages];
        for e in &self.events {
            let lo = ((e.start / span) * width as f64).floor() as usize;
            let hi = (((e.end / span) * width as f64).ceil() as usize).min(width);
            let ch = if e.forward {
                b'0' + (e.micro % 10) as u8
            } else {
                b'a' + (e.micro % 26) as u8
            };
            for cell in rows[e.stage].iter_mut().take(hi).skip(lo.min(width)) {
                *cell = ch;
            }
        }
        rows.iter()
            .enumerate()
            .map(|(s, r)| format!("stage {s} |{}|", String::from_utf8_lossy(r)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// First stage whose peak exceeds `limit`, if any (the OOM verdict).
    pub fn oom_stage(&self, limit: usize) -> Option<usize> {
        self.peak_bytes.iter().position(|&b| b > limit)
    }
}

/// One scheduled operation on a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Forward pass of micro-batch `m`.
    F(usize),
    /// Backward pass of micro-batch `m`.
    B(usize),
}

/// The op sequence stage `s` of `n_stages` executes for `m` micro-batches
/// under `schedule`. Shared by the timeline simulator and the real threaded
/// pipeline engine, so both execute the *same* discipline.
pub fn stage_op_sequence(schedule: Schedule, s: usize, n_stages: usize, m: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(2 * m);
    match schedule {
        Schedule::GPipe => {
            ops.extend((0..m).map(Op::F));
            ops.extend((0..m).map(Op::B));
        }
        Schedule::GPipeWave { wave } => {
            let w = wave.max(1);
            let mut start = 0usize;
            while start < m {
                let end = (start + w).min(m);
                ops.extend((start..end).map(Op::F));
                ops.extend((start..end).map(Op::B));
                start = end;
            }
        }
        Schedule::OneFOneB => {
            let warmup = (n_stages - 1 - s).min(m);
            let mut f = 0usize;
            let mut b = 0usize;
            for _ in 0..warmup {
                ops.push(Op::F(f));
                f += 1;
            }
            while f < m {
                ops.push(Op::F(f));
                f += 1;
                ops.push(Op::B(b));
                b += 1;
            }
            while b < m {
                ops.push(Op::B(b));
                b += 1;
            }
        }
    }
    ops
}

/// Simulates one mini-batch of `micro_batches` through `stages` under
/// `schedule`.
///
/// # Panics
/// Panics if `stages` is empty or `micro_batches` is zero (caller bug), or
/// if the schedule deadlocks (impossible for the shipped disciplines — this
/// is an internal consistency check).
pub fn simulate_pipeline(
    stages: &[SimStage],
    micro_batches: usize,
    schedule: Schedule,
) -> SimResult {
    assert!(!stages.is_empty(), "simulate_pipeline: no stages");
    assert!(micro_batches > 0, "simulate_pipeline: no micro-batches");
    let s_n = stages.len();
    let m = micro_batches;

    let sequences: Vec<Vec<Op>> = (0..s_n)
        .map(|s| stage_op_sequence(schedule, s, s_n, m))
        .collect();
    let mut ptr = vec![0usize; s_n];
    let mut stage_free = vec![0.0f64; s_n];
    let mut fwd_done = vec![vec![f64::NAN; m]; s_n];
    let mut bwd_done = vec![vec![f64::NAN; m]; s_n];
    let mut inflight = vec![0usize; s_n];
    let mut peak_inflight = vec![0usize; s_n];
    let mut busy = vec![0.0f64; s_n];
    let mut events: Vec<SimEvent> = Vec::with_capacity(2 * s_n * m);

    let mut remaining: usize = sequences.iter().map(Vec::len).sum();
    while remaining > 0 {
        let mut progressed = false;
        for s in 0..s_n {
            while ptr[s] < sequences[s].len() {
                let op = sequences[s][ptr[s]];
                // Dependency readiness.
                let ready = match op {
                    Op::F(mb) => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            let d = fwd_done[s - 1][mb];
                            if d.is_nan() {
                                None
                            } else {
                                Some(d + stages[s - 1].send_fwd_s)
                            }
                        }
                    }
                    Op::B(mb) => {
                        if s == s_n - 1 {
                            let d = fwd_done[s][mb];
                            if d.is_nan() {
                                None
                            } else {
                                Some(d)
                            }
                        } else {
                            let d = bwd_done[s + 1][mb];
                            if d.is_nan() {
                                None
                            } else {
                                Some(d + stages[s + 1].send_bwd_s)
                            }
                        }
                    }
                };
                let Some(ready) = ready else { break };
                let start = ready.max(stage_free[s]);
                let dur = match op {
                    Op::F(_) => stages[s].fwd_s,
                    Op::B(_) => stages[s].bwd_s,
                };
                let end = start + dur;
                stage_free[s] = end;
                busy[s] += dur;
                events.push(SimEvent {
                    stage: s,
                    micro: match op {
                        Op::F(mb) | Op::B(mb) => mb,
                    },
                    forward: matches!(op, Op::F(_)),
                    start,
                    end,
                });
                match op {
                    Op::F(mb) => {
                        fwd_done[s][mb] = end;
                        inflight[s] += 1;
                        peak_inflight[s] = peak_inflight[s].max(inflight[s]);
                    }
                    Op::B(mb) => {
                        bwd_done[s][mb] = end;
                        inflight[s] -= 1;
                    }
                }
                ptr[s] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        assert!(progressed, "pipeline schedule deadlocked (internal bug)");
    }

    // Each stage AllReduces its group's gradients after its last backward.
    let makespan = (0..s_n)
        .map(|s| stage_free[s] + stages[s].allreduce_s)
        .fold(0.0f64, f64::max);
    let busy_total: f64 = busy.iter().sum();
    // Compute span excludes the trailing AllReduce; degenerate zero-cost
    // schedules (all fwd_s = bwd_s = 0) have no slots to be idle in.
    let compute_span = stage_free.iter().fold(0.0f64, |a, &b| a.max(b));
    let bubble_fraction = if compute_span > 0.0 {
        1.0 - busy_total / (s_n as f64 * compute_span)
    } else {
        0.0
    };

    let peak_bytes = (0..s_n)
        .map(|s| {
            stages[s].weight_bytes
                + stages[s].fixed_bytes
                + peak_inflight[s] * stages[s].act_bytes_per_mb
        })
        .collect();

    SimResult {
        makespan_s: makespan,
        peak_inflight,
        peak_bytes,
        bubble_fraction,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, fwd: f64, bwd: f64, send: f64) -> Vec<SimStage> {
        vec![
            SimStage {
                fwd_s: fwd,
                bwd_s: bwd,
                send_fwd_s: send,
                send_bwd_s: send,
                weight_bytes: 100,
                act_bytes_per_mb: 10,
                fixed_bytes: 5,
                allreduce_s: 0.0,
            };
            n
        ]
    }

    #[test]
    fn single_stage_is_sequential() {
        let st = uniform(1, 1.0, 2.0, 0.0);
        for sched in [Schedule::OneFOneB, Schedule::GPipe] {
            let r = simulate_pipeline(&st, 4, sched);
            assert!(
                (r.makespan_s - 12.0).abs() < 1e-9,
                "{sched:?}: {}",
                r.makespan_s
            );
        }
    }

    #[test]
    fn pipeline_overlaps_micro_batches() {
        // 4 stages, 8 micro-batches: pipelined time must be far below
        // sequential (stages × micro × (f+b)) and above the critical path.
        let st = uniform(4, 1.0, 1.0, 0.0);
        let r = simulate_pipeline(&st, 8, Schedule::OneFOneB);
        let sequential = 4.0 * 8.0 * 2.0;
        // Per-stage work alone is 8 × 2 = 16.
        assert!(r.makespan_s < sequential * 0.5, "{}", r.makespan_s);
        assert!(r.makespan_s >= 16.0);
    }

    #[test]
    fn one_f_one_b_bounds_inflight_memory() {
        let st = uniform(4, 1.0, 1.0, 0.0);
        let m = 16;
        let r1 = simulate_pipeline(&st, m, Schedule::OneFOneB);
        let rg = simulate_pipeline(&st, m, Schedule::GPipe);
        // GPipe: every stage holds all M micro-batches at its forward peak.
        assert_eq!(rg.peak_inflight, vec![m; 4]);
        // 1F1B: stage s holds at most S − s.
        for (s, &p) in r1.peak_inflight.iter().enumerate() {
            assert!(p <= 4 - s, "stage {s} inflight {p}");
        }
        assert!(r1.max_peak_bytes() < rg.max_peak_bytes());
    }

    #[test]
    fn similar_makespans_for_both_schedules() {
        // With uniform stages 1F1B and GPipe have similar makespans (1F1B
        // trades memory, not time).
        let st = uniform(4, 1.0, 2.0, 0.1);
        let r1 = simulate_pipeline(&st, 8, Schedule::OneFOneB);
        let rg = simulate_pipeline(&st, 8, Schedule::GPipe);
        let ratio = r1.makespan_s / rg.makespan_s;
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn slowest_stage_gates_throughput() {
        let mut st = uniform(3, 1.0, 1.0, 0.0);
        st[1].fwd_s = 3.0;
        st[1].bwd_s = 3.0;
        let r = simulate_pipeline(&st, 8, Schedule::OneFOneB);
        // Stage 1 works 8 × 6 = 48 s; makespan must be ≥ that.
        assert!(r.makespan_s >= 48.0);
        assert!(r.makespan_s < 60.0);
    }

    #[test]
    fn communication_adds_latency() {
        let fast = simulate_pipeline(&uniform(4, 1.0, 1.0, 0.0), 4, Schedule::OneFOneB);
        let slow = simulate_pipeline(&uniform(4, 1.0, 1.0, 0.5), 4, Schedule::OneFOneB);
        assert!(slow.makespan_s > fast.makespan_s);
    }

    #[test]
    fn allreduce_extends_makespan() {
        let mut st = uniform(2, 1.0, 1.0, 0.0);
        let base = simulate_pipeline(&st, 4, Schedule::OneFOneB).makespan_s;
        st[0].allreduce_s = 5.0;
        let with_ar = simulate_pipeline(&st, 4, Schedule::OneFOneB).makespan_s;
        assert!(with_ar >= base, "AR should not shrink the makespan");
        assert!(with_ar - base > 0.5, "AR time not reflected");
    }

    #[test]
    fn more_stages_mean_more_bubbles() {
        let shallow = simulate_pipeline(&uniform(2, 1.0, 1.0, 0.1), 4, Schedule::OneFOneB);
        let deep = simulate_pipeline(&uniform(8, 1.0, 1.0, 0.1), 4, Schedule::OneFOneB);
        assert!(
            deep.bubble_fraction > shallow.bubble_fraction,
            "deep {} vs shallow {}",
            deep.bubble_fraction,
            shallow.bubble_fraction
        );
    }

    #[test]
    fn events_cover_every_op_without_stage_overlap() {
        let st = uniform(3, 1.0, 2.0, 0.1);
        let r = simulate_pipeline(&st, 4, Schedule::OneFOneB);
        assert_eq!(r.events.len(), 3 * 4 * 2);
        // Per stage: events are serialized (no overlap) and total busy time
        // equals M × (fwd + bwd).
        for s in 0..3 {
            let mut evs: Vec<_> = r.events.iter().filter(|e| e.stage == s).collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in evs.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12, "overlap on stage {s}");
            }
            let busy: f64 = evs.iter().map(|e| e.end - e.start).sum();
            assert!((busy - 4.0 * 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gantt_renders_all_stages() {
        let st = uniform(2, 1.0, 1.0, 0.0);
        let r = simulate_pipeline(&st, 3, Schedule::GPipe);
        let g = r.ascii_gantt(40);
        let lines: Vec<&str> = g.split("\n").collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("stage 0 |"));
        // Forward digits and backward letters both appear.
        assert!(g.contains('0') && g.contains('a'), "{g}");
    }

    #[test]
    fn oom_detection() {
        let st = uniform(2, 1.0, 1.0, 0.0);
        let r = simulate_pipeline(&st, 4, Schedule::GPipe);
        assert_eq!(r.oom_stage(usize::MAX), None);
        assert_eq!(r.oom_stage(0), Some(0));
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_stages_panic() {
        simulate_pipeline(&[], 1, Schedule::GPipe);
    }

    #[test]
    fn zero_cost_compute_is_finite() {
        // All fwd_s = bwd_s = 0: the schedule still "executes" but every op
        // is instantaneous. Makespan collapses to the AllReduce tail and
        // bubble_fraction must stay finite (there are no slots to idle in).
        let mut st = uniform(3, 0.0, 0.0, 0.0);
        st[2].allreduce_s = 0.25;
        for sched in [Schedule::OneFOneB, Schedule::GPipe] {
            let r = simulate_pipeline(&st, 4, sched);
            assert!(
                (r.makespan_s - 0.25).abs() < 1e-12,
                "{sched:?}: {}",
                r.makespan_s
            );
            assert!(r.bubble_fraction.is_finite(), "{sched:?}: NaN bubble");
            assert_eq!(r.bubble_fraction, 0.0);
            assert_eq!(r.events.len(), 3 * 4 * 2);
        }
    }

    #[test]
    fn zero_forward_time_only_still_simulates() {
        // fwd_s = 0 with nonzero bwd_s: forwards ripple through instantly,
        // backwards carry all the cost. Makespan = critical backward chain.
        let st = uniform(2, 0.0, 1.0, 0.0);
        let r = simulate_pipeline(&st, 3, Schedule::OneFOneB);
        assert!(r.makespan_s >= 3.0, "backwards alone take 3 s per stage");
        assert!(r.bubble_fraction.is_finite());
        assert!(
            (0.0..=1.0).contains(&r.bubble_fraction),
            "{}",
            r.bubble_fraction
        );
    }

    #[test]
    fn gantt_handles_zero_span_events() {
        // Zero-duration events at t = 0 map to zero-column cells; the chart
        // must render (all idle) rather than panic on the degenerate span.
        let st = uniform(2, 0.0, 0.0, 0.0);
        let r = simulate_pipeline(&st, 2, Schedule::GPipe);
        let g = r.ascii_gantt(20);
        let lines: Vec<&str> = g.split('\n').collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("stage 1 |"));
        // Width floor also applies: asking for 0 columns yields ≥ 10.
        let tiny = r.ascii_gantt(0);
        assert!(tiny.split('\n').all(|l| l.len() >= 10));
    }

    #[test]
    fn single_stage_with_allreduce_has_bounded_bubble() {
        // A single stage is never idle during compute; the AllReduce tail
        // extends the makespan but must not push bubble_fraction out of
        // [0, 1] (it is excluded from the idle accounting by design).
        let mut st = uniform(1, 1.0, 2.0, 0.0);
        st[0].allreduce_s = 10.0;
        let r = simulate_pipeline(&st, 4, Schedule::OneFOneB);
        assert!((r.makespan_s - 22.0).abs() < 1e-9, "{}", r.makespan_s);
        assert!(
            (0.0..=1.0).contains(&r.bubble_fraction),
            "bubble {} out of bounds",
            r.bubble_fraction
        );
        assert!(r.bubble_fraction.abs() < 1e-9, "single stage cannot bubble");
    }

    #[test]
    fn from_events_round_trips_a_simulated_timeline() {
        let st = uniform(3, 1.0, 2.0, 0.1);
        let sim = simulate_pipeline(&st, 4, Schedule::OneFOneB);
        let rebuilt = SimResult::from_events(sim.events.clone(), 3);
        // Makespan: from_events sees compute only (no AllReduce here).
        assert!(
            (rebuilt.makespan_s - sim.events.iter().fold(0.0f64, |a, e| a.max(e.end))).abs()
                < 1e-12
        );
        assert_eq!(rebuilt.peak_inflight, sim.peak_inflight);
        assert!((rebuilt.bubble_fraction - sim.bubble_fraction).abs() < 1e-9);
        assert_eq!(rebuilt.peak_bytes, vec![0; 3]);
    }

    #[test]
    fn from_events_empty_is_all_zero() {
        let r = SimResult::from_events(Vec::new(), 2);
        assert_eq!(r.makespan_s, 0.0);
        assert_eq!(r.bubble_fraction, 0.0);
        assert_eq!(r.peak_inflight, vec![0, 0]);
        assert!(r.ascii_gantt(12).contains("stage 1"));
    }
}

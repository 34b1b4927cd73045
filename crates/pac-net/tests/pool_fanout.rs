//! A count next to the `dist_world` timing: the rank threads of a thread
//! world *are* the parallelism, so no product of a step may fan out into
//! the shared pool. At the shape of the reference benchmark's `dist_world`
//! the four feed-forward products of a lane's micro-batch are
//! `[64,32]×[32,128]` and its transposes, 2^19 FLOPs each: under the old
//! 2^18 pooled-dispatch line that was 96 parallel calls (192 chunk tasks)
//! per step, exactly repeatable; under the line `pac_tensor::ops` draws
//! today it is none.
//!
//! The pool's counters are process-wide, so this file holds one test.

use pac_net::{run_world, DistConfig, Spawner, TenantJob};
use pac_parallel::engine::MicroBatch;
use pac_tensor::rayon::pool;
use pac_tensor::rng::seeded;
use rand::Rng;

const HIDDEN: usize = 32;
const STEPS: usize = 4;
const MICROS: usize = 2;
const ROWS: usize = 8;
const SEQ: usize = 16;

fn batches() -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(19);
    (0..STEPS)
        .map(|_| {
            (0..MICROS)
                .map(|_| {
                    let rows = (0..ROWS)
                        .map(|_| (0..SEQ).map(|_| rng.gen_range(0..64usize)).collect())
                        .collect();
                    let labels = (0..ROWS).map(|_| rng.gen_range(0..2usize)).collect();
                    (rows, labels)
                })
                .collect()
        })
        .collect()
}

#[test]
fn a_dist_world_step_makes_no_pool_call() {
    let mut cfg = DistConfig::loopback(2, 2);
    cfg.hidden = HIDDEN;
    let job = TenantJob::new(0, cfg, batches());

    let before = pool::stats();
    let report = run_world(&Spawner::Threads, job).expect("2x2 thread world over loopback");
    let after = pool::stats();

    assert_eq!(report.losses.len(), STEPS);
    assert_eq!(
        (
            after.parallel_calls - before.parallel_calls,
            after.tasks - before.tasks
        ),
        (0, 0),
        "pool calls and chunk tasks over {STEPS} steps of a 2x2 hidden-{HIDDEN} world"
    );
}

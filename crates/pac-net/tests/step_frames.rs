//! The snapshot request rides the step and a rank's liveness is its step
//! traffic: the coordinator writes the request with a step's frames and
//! collects the answer with its verdicts, so it never sits in one world's
//! round trip while a sibling world waits to be dispatched or settled —
//! and the snapshots it keeps are the ones it kept when it fetched them
//! between steps.
//!
//! A world keeps two steps in flight, so while a rank computes step t+1
//! the coordinator is still collecting step t's snapshot: every frame is
//! filed under the step it answers and the snapshot of step t is still the
//! parameters after step t.

use pac_net::simnet::WORKERS_PER_GEN;
use pac_net::{
    run_multiworld, run_world, Buggify, DistConfig, SimConfig, SimNet, SimSpawner, TenantJob,
};
use pac_parallel::engine::MicroBatch;
use pac_tensor::rng::seeded;
use rand::Rng;
use std::time::Duration;

/// `steps` mini-batches of `micros` micro-batches, `rows × seq` tokens
/// each, binary labels.
fn batches(
    seed: u64,
    steps: usize,
    micros: usize,
    rows: usize,
    seq: usize,
) -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(seed);
    (0..steps)
        .map(|_| {
            (0..micros)
                .map(|_| {
                    let toks: Vec<Vec<usize>> = (0..rows)
                        .map(|_| (0..seq).map(|_| rng.gen_range(0..64usize)).collect())
                        .collect();
                    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..2usize)).collect();
                    (toks, labels)
                })
                .collect()
        })
        .collect()
}

/// Virtual time of the first FIN on `actor`'s control connection (its
/// first dial): the coordinator releasing that rank's round.
fn released_at(net: &SimNet, actor: u32) -> u64 {
    let link = [
        format!("fin link=a{actor}.c0<"),
        format!("fin link=a{actor}.c0>"),
    ];
    net.trace_lines()
        .iter()
        .filter(|l| link.iter().any(|needle| l.contains(needle.as_str())))
        .map(|l| {
            let t = l.trim_start_matches("t=").trim_start();
            t[..t.find("ns").expect("trace time")]
                .parse::<u64>()
                .expect("trace time")
        })
        .min()
        .unwrap_or_else(|| panic!("actor {actor}'s control link never closed"))
}

/// World A's first rank writes nothing on its control socket, and A waits
/// out a 1 s step deadline before evicting it; world B shares the
/// coordinator and has no faults. B must dispatch, settle and retire every
/// step while A's verdict is still outstanding — the coordinator may not
/// sit in A's round trip while B idles.
#[test]
fn a_silent_rank_does_not_stall_its_sibling_world() {
    let mut slow = DistConfig::loopback(2, 1);
    slow.seed = 3;
    slow.net_timeout = Duration::from_secs(1);
    let mut quick = DistConfig::loopback(2, 1);
    quick.seed = 4;

    let net = SimNet::new(SimConfig::clean(61));
    let _coord = net.register(0);
    // Jobs are admitted in order, so launch 0 is A's first round and
    // launch 1 is B's.
    let mute_once = Buggify {
        mute_control: true,
        ..Buggify::default()
    };
    let spawner = SimSpawner::with_buggify_at(net.clone(), mute_once, 0, 0);
    let jobs = vec![
        TenantJob::new(1, slow, batches(31, 4, 2, 4, 6)),
        TenantJob::new(2, quick, batches(32, 3, 2, 4, 6)),
    ];
    let report = run_multiworld(&spawner, jobs).expect("multiworld run");
    assert!(net.panics().is_empty(), "panics: {:?}", net.panics());

    let (a, b) = (&report.worlds[0], &report.worlds[1]);
    assert!(
        a.log
            .iter()
            .any(|l| l.contains("peer missed its step deadline")),
        "A's silent rank must be evicted by its deadline: {:?}",
        a.log
    );
    assert_eq!(a.losses.len(), 4);
    assert_eq!((b.losses.len(), b.recoveries), (3, 0), "{:?}", b.log);

    // A's deadline is 1 s after A's first dispatch, so at least 1 s of
    // virtual time; B's round is released the moment B retires.
    let b_retired = released_at(&net, WORKERS_PER_GEN + 1);
    assert!(
        b_retired < 1_000_000_000,
        "B retired at {b_retired} ns, after A's step deadline"
    );
}

/// A fault-free 40-step world of the reference benchmark's `dist_world`
/// shape (2 stages × 2 lanes, hidden 32, two micro-batches of 8 rows × 16
/// tokens, a snapshot every 2 steps) keeps exactly the snapshots, and
/// counts exactly the bytes, that fetching them between steps did.
#[test]
fn snapshot_accounting_is_unchanged() {
    let mut cfg = DistConfig::loopback(2, 2);
    cfg.hidden = 32;
    let net = SimNet::new(SimConfig::clean(62));
    let _coord = net.register(0);
    let spawner = SimSpawner::new(net.clone());
    let report = run_world(&spawner, TenantJob::new(0, cfg, batches(33, 40, 2, 8, 16)))
        .expect("fault-free run");
    assert_eq!(report.losses.len(), 40);
    // The initial snapshot plus one at every even cursor 2..=38, each the
    // two canonical ranks' trainable `ParamSnap` frames.
    let rec = &report.recovery;
    assert_eq!(rec.checkpoints, 20);
    assert_eq!(rec.checkpoint_bytes, 4_309_460);
}

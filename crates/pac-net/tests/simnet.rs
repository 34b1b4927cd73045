//! Deterministic-simulation tests: the full distributed runtime —
//! rendezvous, mesh, 1F1B pipeline, ring collective, coordinator recovery —
//! running over the in-memory simulated transport with a virtual clock,
//! plus targeted adversary regressions (partial frames straddling read
//! deadlines, corruption, duplication, version skew).
//!
//! No test here opens a real socket.

use pac_net::simnet::Partition;
use pac_net::{
    run_world, Buggify, Conn, DistConfig, Listener, Msg, NetError, RankLoss, Reference, SimConfig,
    SimNet, SimSpawner, TenantJob, Transport,
};
use pac_parallel::engine::MicroBatch;
use pac_parallel::{FaultPlan, TimelineKind};
use pac_tensor::rng::seeded;
use rand::Rng;
use std::time::Duration;

const SEED: u64 = 7;
const STEPS: usize = 6;
const MICROS: usize = 2;
const ROWS_PER_MICRO: usize = 4;
const SEQ: usize = 6;

fn make_batches() -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(SEED ^ 0xda7a_5eed);
    (0..STEPS)
        .map(|_| {
            (0..MICROS)
                .map(|_| {
                    let rows: Vec<Vec<usize>> = (0..ROWS_PER_MICRO)
                        .map(|_| (0..SEQ).map(|_| rng.gen_range(0..64usize)).collect())
                        .collect();
                    let labels: Vec<usize> = (0..ROWS_PER_MICRO)
                        .map(|_| rng.gen_range(0..2usize))
                        .collect();
                    (rows, labels)
                })
                .collect()
        })
        .collect()
}

/// Runs a full distributed job inside one simulated world and returns the
/// report plus the world (for trace/panic inspection).
fn sim_run(
    sim_cfg: SimConfig,
    dist_cfg: DistConfig,
    batches: &[Vec<MicroBatch>],
    faults: &FaultPlan,
    buggify: Buggify,
) -> (Result<pac_net::WorldReport, pac_net::DistError>, SimNet) {
    let net = SimNet::new(sim_cfg);
    let _coord = net.register(0);
    let spawner = SimSpawner::with_buggify(net.clone(), buggify);
    let job = TenantJob {
        faults: faults.clone(),
        on_rank_loss: RankLoss::Shrink,
        ..TenantJob::new(0, dist_cfg, batches.to_vec())
    };
    (run_world(&spawner, job), net)
}

#[test]
fn sim_2x2_clean_world_is_bitwise_identical_to_inprocess() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();
    let reference = Reference::train(&cfg, &batches).expect("in-process reference");

    let (report, net) = sim_run(
        SimConfig::clean(41),
        cfg,
        &batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    let report = report.expect("simulated run");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    if let Err(e) = reference.compare(&report.losses, &report.final_params) {
        panic!("simulated run diverged from the in-process engine: {e}");
    }
    assert!(net.now_ns() > 0, "the run consumed virtual time");
}

#[test]
fn sim_trace_is_a_pure_function_of_the_seed() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();
    let run = |seed: u64| {
        let (report, net) = sim_run(
            SimConfig::clean(seed),
            cfg.clone(),
            &batches,
            &FaultPlan::none(),
            Buggify::default(),
        );
        report.expect("simulated run");
        (net.trace_lines(), net.now_ns())
    };
    let (trace_a, end_a) = run(99);
    let (trace_b, end_b) = run(99);
    assert_eq!(end_a, end_b, "virtual end time is seed-determined");
    assert_eq!(trace_a, trace_b, "same seed ⇒ byte-identical trace");
    let (trace_c, _) = run(100);
    assert_ne!(trace_a, trace_c, "different seed ⇒ different schedule");
}

#[test]
fn sim_crash_mid_run_recovers_with_full_loss_history() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();

    // Calibrate: how much virtual time does the clean run take?
    let (clean, net) = sim_run(
        SimConfig::clean(13),
        cfg.clone(),
        &batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    let clean = clean.expect("clean run");
    let t_end = net.now_ns();

    // Crash worker slot 1 (actor 2: stage 0, lane 1) halfway through.
    let mut sim_cfg = SimConfig::clean(13);
    sim_cfg.crashes.push((t_end / 2, 2));
    let (faulty, net) = sim_run(
        sim_cfg,
        cfg,
        &batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    let faulty = faulty.expect("crashed run must recover");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    assert_eq!(faulty.losses.len(), batches.len(), "full loss history");
    assert_eq!(faulty.recovery.replans, 1, "one replan for one crash");
    assert_eq!(faulty.final_lanes, 1, "crashed lane left the pool");
    let pos = |kind: TimelineKind| {
        faulty
            .recovery
            .timeline
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} in timeline"))
    };
    assert!(pos(TimelineKind::Replan) < pos(TimelineKind::Resume));
    let clean_final = *clean.losses.last().unwrap();
    let faulty_final = *faulty.losses.last().unwrap();
    assert!(clean_final.is_finite() && faulty_final.is_finite());
    assert!(
        (clean_final - faulty_final).abs() < 0.5,
        "recovered training drifted: {clean_final} vs {faulty_final}"
    );
}

#[test]
fn sim_partition_heals_or_fails_typed_never_hangs() {
    // Partition the coordinator from worker actor 1 for a window longer
    // than the net timeout: the run must fail with a typed error (rank
    // down exhausts lanes, or setup fails) — not hang, not panic.
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();
    let mut sim_cfg = SimConfig::clean(23);
    sim_cfg.partitions.push(Partition {
        a: 0,
        b: 1,
        from_ns: 0,
        to_ns: 120_000_000_000, // 2 virtual minutes, > setup + net timeouts
    });
    let (report, net) = sim_run(
        sim_cfg,
        cfg,
        &batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    assert!(report.is_err(), "fully partitioned world cannot train");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
}

/// The planted-bug self-test: a worker that applies its *local* gradient
/// before the AllReduce (and discards the averaged one) must diverge from
/// the in-process engine. This is the harness catching a real ordering
/// violation, not a tautology — with `lanes == 1` the bug is latent.
#[test]
fn sim_planted_allreduce_ordering_bug_is_caught() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();
    let ref_losses = Reference::train(&cfg, &batches)
        .expect("in-process reference")
        .losses;
    let (report, net) = sim_run(
        SimConfig::clean(7),
        cfg,
        &batches,
        &FaultPlan::none(),
        Buggify {
            apply_grad_before_allreduce: true,
            ..Buggify::default()
        },
    );
    let report = report.expect("buggified run still completes");
    assert!(net.panics().is_empty());
    let diverged = report
        .losses
        .iter()
        .zip(ref_losses.iter())
        .any(|(d, r)| d.to_bits() != r.to_bits());
    assert!(
        diverged,
        "planted grad-before-allreduce bug went undetected at lanes=2"
    );
}

// ---------------------------------------------------------------------------
// Adversary micro-regressions on a hand-built two-actor world.
// ---------------------------------------------------------------------------

/// One server actor, one client actor; returns (client conn, server conn).
fn two_actor_pair(net: &SimNet) -> (pac_net::SimConn, pac_net::SimConn) {
    net.preregister(1);
    let (tx, rx) = std::sync::mpsc::channel();
    let accept_net = net.clone();
    let t = std::thread::spawn(move || {
        let _g = accept_net.adopt(1);
        let listener = accept_net.bind().expect("bind");
        tx.send(listener.port()).expect("port handoff");
        listener
            .accept(Duration::from_secs(30), Duration::from_secs(30))
            .expect("accept")
    });
    let port = rx.recv().expect("server bound");
    let client = net.connect(port, Duration::from_secs(30)).expect("connect");
    let server = net.block_external(|| t.join().expect("server thread"));
    (client, server)
}

/// Regression for the partial-frame read-deadline fix: a frame whose
/// second fragment lands *after* the read deadline must surface
/// [`NetError::Timeout`] — not a checksum error from re-parsing a stale
/// buffer — and a retried recv must complete the same frame.
#[test]
fn sim_fragment_straddling_read_deadline_times_out_then_resumes() {
    let mut cfg = SimConfig::clean(3);
    cfg.frag_per_mille = 1000; // fragment every frame
    cfg.base_latency_ns = 1_000;
    cfg.jitter_ns = 0;
    // Fragment gaps up to 200× the 1 ms read deadline: most frames have
    // their second fragment land after the deadline expires mid-frame.
    cfg.frag_gap_ns = 200_000_000;
    let deadline = Duration::from_millis(1);
    let net = SimNet::new(cfg);
    let _g = net.register(0);
    let (mut client, mut server) = two_actor_pair(&net);
    client.set_timeout(Some(deadline)).expect("set timeout");

    const FRAMES: u64 = 20;
    for nonce in 0..FRAMES {
        server.send(&Msg::Heartbeat { nonce }).expect("send");
    }
    let mut timeouts = 0u32;
    for nonce in 0..FRAMES {
        // Retry through mid-frame deadlines; the frame must resume, never
        // desync into a checksum/magic error.
        let got = loop {
            match client.recv() {
                Ok(m) => break m,
                Err(NetError::Timeout) => timeouts += 1,
                Err(e) => panic!("mid-frame deadline must be Timeout, got {e:?}"),
            }
        };
        assert_eq!(got, Msg::Heartbeat { nonce }, "frames arrive in order");
    }
    assert!(
        timeouts > 0,
        "with 200x-deadline fragment gaps, some frame must straddle a deadline"
    );
}

/// A frame with a flipped byte is rejected with a *typed* checksum error;
/// the connection keeps working for the next clean frame.
#[test]
fn sim_corrupted_frame_is_typed_checksum_error() {
    let net = SimNet::new(SimConfig::clean(5));
    let _g = net.register(0);
    let (mut client, mut server) = two_actor_pair(&net);

    // Flip a payload byte (the header's length field must stay intact, or
    // the reader would legitimately wait for bytes that never arrive).
    let mut frame = pac_net::wire::encode_frame(&Msg::Heartbeat { nonce: 42 });
    frame[pac_net::wire::HEADER_LEN] ^= 0x40;
    server.send_raw(&frame).expect("send corrupted");
    match client.recv() {
        Err(NetError::BadChecksum { .. }) => {}
        other => panic!("corrupted frame must be BadChecksum, got {other:?}"),
    }
    server.send(&Msg::Shutdown).expect("send clean");
    assert_eq!(client.recv().expect("clean frame"), Msg::Shutdown);
}

/// `recv_expecting` on an unexpected-but-valid message is a typed
/// protocol error — no panic, and *not* an EOF misattribution.
#[test]
fn sim_unexpected_valid_message_is_typed_protocol_error() {
    let net = SimNet::new(SimConfig::clean(9));
    let _g = net.register(0);
    let (mut client, mut server) = two_actor_pair(&net);

    server.send(&Msg::Heartbeat { nonce: 1 }).expect("send");
    let got = client.recv_expecting("Hello", |m| matches!(m, Msg::Hello { .. }));
    match got {
        Err(NetError::Malformed(_)) => {}
        other => panic!("unexpected tag must be Malformed, got {other:?}"),
    }
}

/// A version-mismatched Hello is rejected as `BadVersion` with the
/// offending version number — not EOF, not a panic.
#[test]
fn sim_version_mismatched_hello_is_typed_bad_version() {
    let net = SimNet::new(SimConfig::clean(15));
    let _g = net.register(0);
    let (mut client, mut server) = two_actor_pair(&net);

    let mut frame = pac_net::wire::encode_frame(&Msg::Hello {
        slot: 0,
        listen_port: 9,
    });
    frame[4] = 9; // wire version byte
    server.send_raw(&frame).expect("send skewed hello");
    let got = client.recv_expecting("Hello", |m| matches!(m, Msg::Hello { .. }));
    match got {
        Err(NetError::BadVersion(9)) => {}
        other => panic!("version skew must be BadVersion(9), got {other:?}"),
    }
}

/// With a duplicating adversary, the same frame arrives twice; the second
/// copy trips `recv_expecting` as a protocol-state violation rather than
/// being silently consumed.
#[test]
fn sim_duplicated_frame_trips_protocol_state_check() {
    let mut cfg = SimConfig::clean(21);
    cfg.dup_per_mille = 1000; // duplicate every frame
    let net = SimNet::new(cfg);
    let _g = net.register(0);
    let (mut client, mut server) = two_actor_pair(&net);

    server
        .send(&Msg::Hello {
            slot: 3,
            listen_port: 44,
        })
        .expect("send");
    let first = client
        .recv_expecting("Hello", |m| matches!(m, Msg::Hello { .. }))
        .expect("first copy is the real Hello");
    assert_eq!(
        first,
        Msg::Hello {
            slot: 3,
            listen_port: 44
        }
    );
    // The duplicate is valid wire-format but wrong for the protocol state
    // (we now expect Ready): typed error, not a desync or panic.
    let second = client.recv_expecting("Ready", |m| matches!(m, Msg::Ready));
    match second {
        Err(NetError::Malformed(_)) => {}
        other => panic!("duplicate must trip the state check, got {other:?}"),
    }
}

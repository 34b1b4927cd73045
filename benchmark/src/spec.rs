//! The benchmark's contract in one place: metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is this module
//! rendered as JSON (`pac-benchmark spec`); a self-test keeps them equal.

use crate::json::{obj, Value};
use crate::workloads::Workload;

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 16;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every metric;
/// an operation is a fine-tuning session (`pac_solo`), a lockstep training
/// step (`dist_world`, `multi_world`) or a tenant job (`serve_*`).
///
/// Times are in reference-machine time (`reference.rs`). Over two sets of
/// ten runs per workload, each run with another seed, the widest spread
/// (inter-quartile distance over median) was 0.053 for the three time
/// metrics and 0.010 for peak memory, and no median moved by more than
/// 0.055 between the sets; the bounds are about three times that.
/// `setup_s` is a fraction of a millisecond on four workloads and gets
/// the widest bound.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        higher: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "rows/s",
        higher: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        higher: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
    /// The end-to-end metric and workload this figure should move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: true,
        moves,
    }
}

const SOLO: &str = "op_ms @ pac_solo";
const DIST: &str = "op_ms @ dist_world";
const MULTI: &str = "op_ms @ multi_world";
const CHURN: &str = "op_ms @ serve_churn";
const WARM: &str = "op_ms @ serve_warm";
const SERVE: &str = "op_ms @ serve_churn, serve_warm";

/// Single-layer figures of the traced run, grouped by workspace crate.
pub const PER_LAYER: [PerLayer; 77] = [
    // pac-tensor: kernels at the pac_solo per-replica shapes.
    lower("pac-tensor.matmul_nn.us", "us", SOLO),
    lower("pac-tensor.matmul_nt.us", "us", SOLO),
    lower("pac-tensor.matmul_tn.us", "us", SOLO),
    higher("pac-tensor.matmul.gflops", "gflop/s", SOLO),
    higher(
        "pac-tensor.scratch.reuse_ratio",
        "ratio",
        "peak_rss_mb, op_ms @ pac_solo",
    ),
    // pac-nn
    lower("pac-nn.attention.fwd.us", "us", SOLO),
    lower("pac-nn.attention.bwd.us", "us", SOLO),
    lower("pac-nn.feedforward.fwd.us", "us", SOLO),
    lower("pac-nn.feedforward.bwd.us", "us", SOLO),
    lower("pac-nn.cross_entropy.us", "us", SOLO),
    lower("pac-nn.adam_step.us", "us", "op_ms @ pac_solo, serve_warm"),
    // pac-model
    lower(
        "pac-model.encdec.forward.us",
        "us",
        "epoch-1 share of op_ms @ pac_solo",
    ),
    lower("pac-model.stage.forward.us", "us", DIST),
    lower("pac-model.stage.backward.us", "us", DIST),
    // pac-peft
    lower(
        "pac-peft.tuner.forward_full.us",
        "us",
        "epoch-1 share of op_ms @ pac_solo",
    ),
    lower(
        "pac-peft.tuner.forward_cached.us",
        "us",
        "cached-epoch share of op_ms @ pac_solo",
    ),
    lower("pac-peft.tuner.backward.us", "us", SOLO),
    lower(
        "pac-peft.cache.insert_batch.us",
        "us",
        "epoch-1 share of op_ms @ pac_solo",
    ),
    lower(
        "pac-peft.cache.get_batch.us",
        "us",
        "cached-epoch share of op_ms @ pac_solo",
    ),
    higher("pac-peft.cache.hit_ratio", "ratio", SOLO),
    lower("pac-peft.cache.bytes", "B", "peak_rss_mb @ pac_solo"),
    lower("pac-peft.checkpoint.encode.us", "us", SERVE),
    lower("pac-peft.checkpoint.decode.us", "us", CHURN),
    lower("pac-peft.checkpoint.bytes", "B", SERVE),
    // pac-data
    lower("pac-data.generate.ms", "ms", "setup_s, op_ms @ pac_solo"),
    lower("pac-data.batches.us", "us", SOLO),
    // pac-parallel
    lower(
        "pac-parallel.dp_step_tokens.ms",
        "ms",
        "epoch-1 share of op_ms @ pac_solo",
    ),
    lower(
        "pac-parallel.dp_step_cached.ms",
        "ms",
        "cached-epoch share of op_ms @ pac_solo",
    ),
    lower("pac-parallel.allreduce_mean.us", "us", SOLO),
    lower(
        "pac-parallel.hybrid.mini_batch.ms",
        "ms",
        "compute floor under op_ms @ dist_world",
    ),
    lower("pac-parallel.hybrid.stage_idle_ratio", "ratio", DIST),
    lower("pac-parallel.fill.plan_filled.us", "us", CHURN),
    lower("pac-parallel.fill.bubble_fraction", "ratio", MULTI),
    lower("pac-parallel.serialized.bubble_fraction", "ratio", MULTI),
    // pac-planner (pac-cluster is the cost model under it)
    lower("pac-planner.plan.ms", "ms", SOLO),
    lower("pac-planner.makespan_predicted_ms", "ms", DIST),
    higher(
        "pac-planner.makespan_error_ratio",
        "ratio",
        "model error, reported not gated",
    ),
    // pac-net
    lower("pac-net.wire.encode_act.us", "us", DIST),
    lower("pac-net.wire.decode_act.us", "us", DIST),
    lower("pac-net.wire.encode_grads.us", "us", DIST),
    lower("pac-net.wire.decode_grads.us", "us", DIST),
    lower(
        "pac-net.wire.bytes_per_op",
        "B",
        "op_ms @ dist_world, multi_world",
    ),
    lower(
        "pac-net.wire.frames_per_op",
        "count",
        "op_ms @ dist_world, multi_world",
    ),
    lower("pac-net.allreduce.exposed_ms_per_op", "ms", DIST),
    lower("pac-net.ring_allreduce.h32.ms", "ms", DIST),
    lower("pac-net.ring_allreduce.h128.ms", "ms", DIST),
    lower("pac-net.link.rtt_us", "us", DIST),
    higher("pac-net.link.bandwidth_mbps", "Mbit/s", DIST),
    lower(
        "pac-net.world.setup_ms",
        "ms",
        "op_ms @ dist_world, multi_world",
    ),
    lower("pac-net.world.step_ms", "ms", DIST),
    lower("pac-net.multiworld.wakeups_per_op", "count", MULTI),
    higher("pac-net.multiworld.overlap_ratio", "ratio", MULTI),
    // pac-store
    lower(
        "pac-store.disk.commit.us",
        "us",
        "durable deployments; not on an end-to-end path here",
    ),
    lower(
        "pac-store.disk.open.us",
        "us",
        "setup_s of a durable deployment",
    ),
    lower("pac-store.disk.latest.us", "us", CHURN),
    lower("pac-store.disk.committed.us", "us", CHURN),
    lower("pac-store.disk.bytes_per_commit", "B", WARM),
    lower("pac-store.disk.write_amplification", "ratio", WARM),
    lower("pac-store.mem.commit.us", "us", SERVE),
    lower("pac-store.mem.committed.us", "us", CHURN),
    // pac-serve
    lower("pac-serve.cache.get_hit.us", "us", WARM),
    lower("pac-serve.cache.insert_evict.us", "us", CHURN),
    lower("pac-serve.registry.publish.us", "us", SERVE),
    lower("pac-serve.registry.fetch.us", "us", CHURN),
    lower("pac-serve.router.route.ns", "ns", SERVE),
    higher("pac-serve.hit_ratio", "ratio", CHURN),
    lower("pac-serve.evictions_per_job", "ratio", CHURN),
    lower("pac-serve.warm_load.us", "us", WARM),
    lower("pac-serve.cold_load.us", "us", CHURN),
    lower(
        "pac-serve.resident_peak_bytes",
        "B",
        "peak_rss_mb @ serve_churn, serve_warm",
    ),
    lower("pac-serve.ticks_per_job", "ratio", SERVE),
    // pac-core
    lower(
        "pac-core.tenant_burst.us",
        "us",
        "compute floor under op_ms @ serve_churn, serve_warm",
    ),
    // pac-telemetry
    lower(
        "pac-telemetry.enabled_overhead_ratio",
        "ratio",
        "every op_ms once tracing moves in-program",
    ),
    lower(
        "pac-telemetry.counter_add_enabled.ns",
        "ns",
        "pac-telemetry.enabled_overhead_ratio",
    ),
    lower("pac-telemetry.site_disabled.ns", "ns", "every op_ms"),
    // the decomposed replay of pac_solo
    higher(
        "trace.coverage_ratio",
        "ratio",
        "parts sum to the whole @ pac_solo",
    ),
    lower(
        "trace.replay_vs_e2e_ratio",
        "ratio",
        "parts sum to the whole @ pac_solo",
    ),
];

pub fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in spec::PER_LAYER"))
}

pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::PacSolo => {
            "whole PAC flow in process at hidden 256: matmul-bound, two replicas, no net, store or serve"
        }
        Workload::DistWorld => {
            "one 2x2 world over loopback TCP at hidden 32: wire, ring and poll loop dominate, kernels idle"
        }
        Workload::MultiWorld => {
            "four co-tenant worlds on one coordinator thread: same pac-net layers, multiplexed"
        }
        Workload::ServeChurn => {
            "Zipf tenants with scans, working set far above the adapter cache: cold loads and evictions dominate"
        }
        Workload::ServeWarm => {
            "eight resident tenants: every load is a warm hit, burst compute and publish dominate, fetch never runs"
        }
    }
}

fn better(higher: bool) -> Value {
    Value::from(if higher { "higher" } else { "lower" })
}

/// `BENCHMARK.json`, with exactly the keys the contract names.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj([
        ("command", Value::from(command.to_vec())),
        ("paths", Value::from(vec!["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        obj([
                            ("name", Value::from(w.name())),
                            ("why", Value::from(why(w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", better(m.higher)),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", better(m.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(well_formed(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(json::parse(&text).expect("valid JSON"), benchmark_json());
    }
}

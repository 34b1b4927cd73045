//! `run`: measures one workload per child process and prints every metric.
//!
//! The process the user starts only spawns children, one per workload, so
//! peak memory, the global worker pool and the global telemetry map never
//! leak from one workload into the next. A child runs one warm-up
//! repetition, then repeats `set-up, timed call` until `--seconds` have
//! passed, and reports medians over the repetitions. Times are divided by
//! the machine's slowdown factor sampled next to each repetition
//! (`reference.rs`), so they read in reference-machine time.

use crate::json::{self, obj, Value};
use crate::probes::{self, Layers};
use crate::replay;
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::Summary;
use crate::trace;
use crate::workloads::{self, bits, prepare, Rep, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

pub const SCHEMA_VERSION: u64 = 1;

/// Set in the environment of a child, which measures; its absence marks
/// the process that spawns children.
const CHILD_ENV: &str = "PAC_BENCHMARK_CHILD";

/// glibc settings every child runs under: serve large blocks from the heap
/// and never trim it. With the defaults, every tensor above 128 KiB is an
/// mmap/munmap pair whose page faults cost 20 % of `pac_solo` and, in this
/// sandbox, vary threefold from run to run (README, "Steadiness").
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "4294967296"),
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
];

/// Extra set-ups timed before every repetition, so `setup_s` is a median
/// over a few dozen set-ups spread over the whole run.
const EXTRA_SETUPS: usize = 2;
const MIN_REPS: usize = 3;
/// Share of `--seconds` a traced run spends on end-to-end repetitions;
/// the probes and the replay take about as long again.
const TRACED_REP_SHARE: f64 = 0.4;

/// Where result and trace files go: `benchmark/out/`, next to the sources
/// this binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            opts.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pac-benchmark run: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if std::env::var_os(CHILD_ENV).is_some() {
        child(&opts)
    } else {
        parent(&opts)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pac-benchmark run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn result_path(workload: Workload, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "result-{}-trace{}.json",
        workload.name(),
        u8::from(traced)
    ))
}

/// Spawns one child per workload and merges what they wrote.
fn parent(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let started = Instant::now();
    let mut all_ok = true;
    let mut merged = Vec::new();
    for &w in &workloads {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .env(CHILD_ENV, "1")
            .envs(MALLOC_ENV)
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
        all_ok &= status.success();
        if let Ok(text) = std::fs::read_to_string(result_path(w, opts.traced)) {
            merged.push((w.name(), json::parse(&text)?));
        }
    }
    // With --workload the child's result line must stay the last line of
    // standard output, so the summary goes to the file only.
    if opts.workload.is_none() || opts.out.is_some() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = obj([
            ("schema_version", Value::from(SCHEMA_VERSION)),
            ("commit", Value::from(commit())),
            ("nproc", Value::from(nproc)),
            (
                "pool_threads",
                Value::from(
                    std::env::var("PAC_POOL_THREADS")
                        .ok()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(nproc),
                ),
            ),
            ("seed", Value::from(opts.seed)),
            ("seconds", Value::from(opts.seconds)),
            ("traced", Value::from(opts.traced)),
            ("workloads", obj(merged)),
        ]);
        let default = out_dir().join(if opts.traced {
            "results-traced.json"
        } else {
            "results.json"
        });
        let path = opts.out.clone().unwrap_or(default);
        std::fs::write(&path, doc.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if opts.workload.is_none() {
            println!(
                "wrote {} ({:.1} s)",
                path.display(),
                started.elapsed().as_secs_f64()
            );
        }
    }
    Ok(all_ok)
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// User plus system CPU seconds of this process, all threads, including
/// threads that have already exited. `/proc` counts in clock ticks, which
/// Linux fixes at 100 per second for user space.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the parenthesis that closes it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

#[derive(Default)]
struct Checks(Vec<Check>);

impl Checks {
    fn add(&mut self, name: &'static str, error: Option<String>) {
        // Keep one row per check: the first failure, or the last success.
        match self.0.iter_mut().find(|c| c.name == name) {
            Some(c) if !c.ok => {}
            Some(c) => (c.ok, c.detail) = (error.is_none(), error.unwrap_or_default()),
            None => self.0.push(Check {
                name,
                ok: error.is_none(),
                detail: error.unwrap_or_default(),
            }),
        }
    }

    fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }
}

fn mismatch(what: &str, got: &[u32], want: &[u32]) -> Option<String> {
    (got != want).then(|| {
        let at = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        format!(
            "{what}: {} losses against {}, first difference at index {at}",
            got.len(),
            want.len()
        )
    })
}

/// One timed repetition. Times are already divided by `factor`.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    /// The machine's slowdown around this repetition.
    factor: f64,
    ops: u64,
    rows: u64,
    telemetry: bool,
}

struct Measured {
    samples: Vec<Sample>,
    /// Every timed set-up of the run, in reference-machine seconds.
    setups: Vec<f64>,
    last: Rep,
    attempted: u64,
    failed: u64,
    /// Wall of the four tenant worlds run one at a time (`multi_world`),
    /// in reference-machine time.
    one_at_a_time_s: Option<f64>,
}

/// Warm-up, reference outputs, then the timed loop.
fn measure(
    w: Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Measured {
    // Reference outputs, computed once and outside every timing.
    let mut one_at_a_time_s = None;
    let reference = match w {
        Workload::DistWorld => {
            let cfg = workloads::world_config(2, 2, 7);
            let batches = workloads::world_batches(seed, workloads::dist::WORLD_STEPS);
            Some((
                "distributed == in-process",
                bits(&workloads::inprocess_losses(&cfg, &batches)),
            ))
        }
        Workload::MultiWorld => {
            let (solo, seconds, factor) = layers
                .reference
                .around(|| workloads::tenants_one_at_a_time(seed));
            one_at_a_time_s = Some(seconds / factor);
            Some(("tenant == solo", bits(&solo.concat())))
        }
        _ => None,
    };

    let warm = prepare(w, seed)();
    checks.add("outputs", warm.error.clone());
    if let Some((name, want)) = &reference {
        checks.add(name, mismatch(name, &warm.loss_bits, want));
    }
    let mut m = Measured {
        samples: Vec::new(),
        setups: Vec::new(),
        last: warm.clone(),
        attempted: 0,
        failed: 0,
        one_at_a_time_s,
    };
    pac_telemetry::reset();
    let mut before = layers.reference.sample();
    let started = Instant::now();
    while started.elapsed() < budget || m.samples.len() < MIN_REPS {
        // A traced run alternates telemetry off and on, so the two halves
        // see the same machine and their ratio is the tracing overhead.
        let telemetry = traced && m.samples.len() % 2 == 1;
        layers.rec.set_rep(m.samples.len() as u32);
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            drop(prepare(w, seed));
            m.setups.push(t.elapsed().as_secs_f64() / before);
        }
        let t = Instant::now();
        let call = layers.rec.span("setup", |_| prepare(w, seed));
        m.setups.push(t.elapsed().as_secs_f64() / before);
        pac_telemetry::set_enabled(telemetry);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let rep = layers.rec.span(w.name(), |_| call());
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        pac_telemetry::set_enabled(false);
        let after = layers.reference.sample();
        let factor = (before + after) / 2.0;

        checks.add("outputs", rep.error.clone());
        checks.add(
            "re-run == re-run",
            mismatch(
                "repetition against warm-up",
                &rep.loss_bits,
                &warm.loss_bits,
            ),
        );
        m.attempted += rep.ops;
        m.failed += rep.failed;
        m.samples.push(Sample {
            wall_s: wall_s / factor,
            cpu_s: cpu_s / factor,
            factor,
            ops: rep.ops,
            rows: rep.rows,
            telemetry,
        });
        m.last = rep;
        before = after;
    }
    m
}

/// What the normalisation did: the slowdown factors of the run and the
/// wall time per operation before it was divided by them.
fn reference_summary(m: &Measured) -> Vec<(&'static str, Summary)> {
    let plain = || m.samples.iter().filter(|s| !s.telemetry);
    let factors: Vec<f64> = plain().map(|s| s.factor).collect();
    let raw: Vec<f64> = plain()
        .map(|s| s.wall_s * s.factor / s.ops as f64 * 1e3)
        .collect();
    vec![
        ("slowdown_factor", Summary::median_of(&factors, "ratio")),
        ("raw_op_ms", Summary::median_of(&raw, "ms")),
    ]
}

fn end_to_end(m: &Measured) -> Vec<(&'static str, Summary)> {
    let per_rep = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        m.samples.iter().filter(|s| !s.telemetry).map(f).collect()
    };
    // CPU time is read in 10 ms ticks, too coarse for a median over short
    // repetitions: the value is total CPU over total operations, and the
    // per-repetition quartiles only describe its spread.
    let mut cpu = Summary::median_of(&per_rep(&|s| s.cpu_s / s.ops as f64 * 1e3), "ms");
    let (cpu_total, ops_total) = m
        .samples
        .iter()
        .filter(|s| !s.telemetry)
        .fold((0.0, 0u64), |(c, o), s| (c + s.cpu_s, o + s.ops));
    cpu.value = cpu_total / ops_total as f64 * 1e3;
    END_TO_END
        .iter()
        .map(|metric| {
            let summary = match metric.name {
                "op_ms" => {
                    Summary::median_of(&per_rep(&|s| s.wall_s / s.ops as f64 * 1e3), metric.unit)
                }
                "samples_per_s" => {
                    Summary::median_of(&per_rep(&|s| s.rows as f64 / s.wall_s), metric.unit)
                }
                "cpu_ms_per_op" => cpu.clone(),
                "peak_rss_mb" => Summary::single(peak_rss_mb(), metric.unit),
                "setup_s" => Summary::median_of(&m.setups, metric.unit),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (metric.name, summary)
        })
        .collect()
}

/// Self time of one span name of the replay, in reference-machine time.
struct ReplayRow {
    name: &'static str,
    self_ms: f64,
    calls: usize,
}

/// Figures only a traced run has: counters of the repetitions that ran
/// with telemetry on, report fields, the probes and the replay.
fn per_layer(
    w: Workload,
    seed: u64,
    m: &Measured,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Vec<ReplayRow> {
    let median_op_ms = |telemetry: bool| {
        let xs: Vec<f64> = m
            .samples
            .iter()
            .filter(|s| s.telemetry == telemetry)
            .map(|s| s.wall_s / s.ops as f64 * 1e3)
            .collect();
        Summary::median_of(&xs, "ms").median
    };
    let (plain_ms, traced_ms) = (median_op_ms(false), median_op_ms(true));
    layers.put("pac-telemetry.enabled_overhead_ratio", traced_ms / plain_ms);

    let ops: u64 = m
        .samples
        .iter()
        .filter(|s| s.telemetry)
        .map(|s| s.ops)
        .sum();
    let count = |name: &str| pac_telemetry::get(name).unwrap_or(0);
    let counter = |name: &str| count(name) as f64;
    let per_op = |name: &str| {
        if ops == 0 {
            0.0
        } else {
            counter(name) / ops as f64
        }
    };
    layers.put("pac-net.wire.bytes_per_op", per_op("net.bytes_sent"));
    layers.put("pac-net.wire.frames_per_op", per_op("net.msgs"));
    layers.put(
        "pac-net.allreduce.exposed_ms_per_op",
        per_op("net.allreduce.ns") / 1e6,
    );
    layers.put(
        "pac-net.multiworld.wakeups_per_op",
        per_op("multiworld.wakeups"),
    );
    layers.put(
        "pac-peft.cache.hit_ratio",
        workloads::ratio(
            count("cache.hits"),
            count("cache.hits") + count("cache.misses"),
        ),
    );
    layers.put("pac-peft.cache.bytes", counter("cache.bytes"));
    let scratch = pac_tensor::scratch::stats();
    layers.put(
        "pac-tensor.scratch.reuse_ratio",
        workloads::ratio(scratch.reuses, scratch.reuses + scratch.allocs),
    );
    for &(name, value) in &m.last.layer {
        layers.put(name, value);
    }
    if let Some(serial_s) = m.one_at_a_time_s {
        // Above 1, multiplexing the worlds beats running them in turn.
        layers.put(
            "pac-net.multiworld.overlap_ratio",
            serial_s * 1e3 / (plain_ms * m.last.ops as f64),
        );
    }

    let store_dir = out_dir().join(format!("store-probe-{}", std::process::id()));
    probes::run_all(layers, &store_dir);

    // The replay is compared with a plain pac_solo call on the same seed:
    // this workload's own repetitions, or one extra call.
    let (e2e_s, e2e_bits) = if w == Workload::PacSolo {
        (plain_ms / 1e3, m.last.loss_bits.clone())
    } else {
        let call = prepare(Workload::PacSolo, seed);
        let (rep, seconds, factor) = layers.reference.around(call);
        (seconds / factor, rep.loss_bits)
    };
    let Layers { rec, reference, .. } = layers;
    let (replayed, _, replay_factor) = reference.around(|| replay::pac_solo(rec, seed));
    checks.add(
        "replay == end-to-end",
        mismatch(
            "replayed epoch losses",
            &bits(&replayed.epoch_losses),
            &e2e_bits,
        ),
    );
    // The replay's spans are the tail of the list; their parents index the
    // full list, so rebase them onto the slice.
    let spans = layers.rec.spans();
    let root = spans
        .iter()
        .rposition(|s| s.name == "replay")
        .expect("the replay recorded its root span");
    let tree: Vec<trace::Span> = spans[root..]
        .iter()
        .cloned()
        .map(|mut s| {
            s.parent = s.parent.and_then(|p| p.checked_sub(root));
            s
        })
        .collect();
    let covered: u64 = tree
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(trace::Span::duration_ns)
        .sum();
    let coverage = covered as f64 / tree[0].duration_ns() as f64;
    let replay_rows = trace::self_time_by_name(&tree)
        .into_iter()
        .map(|(name, ns, calls)| ReplayRow {
            name,
            self_ms: ns as f64 / 1e6 / replay_factor,
            calls,
        })
        .collect();
    layers.put("trace.coverage_ratio", coverage);
    layers.put(
        "trace.replay_vs_e2e_ratio",
        replayed.wall_s / replay_factor / e2e_s,
    );
    checks.add(
        "replay coverage >= 0.95",
        (coverage < 0.95).then(|| format!("child spans cover {coverage:.3} of the replay")),
    );

    // A layer this workload never enters reports 0 for its counters.
    for metric in &PER_LAYER {
        if !layers.rows.iter().any(|(name, _)| *name == metric.name) {
            layers.put(metric.name, 0.0);
        }
    }
    layers
        .rows
        .sort_by_key(|(name, _)| PER_LAYER.iter().position(|m| m.name == *name));
    replay_rows
}

fn print_table(title: &str, rows: &[(&'static str, Summary)]) {
    println!("{title}");
    for (name, s) in rows {
        // A per-layer figure names the end-to-end metric it should move.
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  -> {}", m.moves));
        println!(
            "  {name:<44} {:>14.6} {:<8} n={:<5} q1={:.6} median={:.6} q3={:.6}{moves}",
            s.value, s.unit, s.n, s.q1, s.median, s.q3
        );
    }
}

fn child(opts: &Options) -> Result<bool, String> {
    let w = opts.workload.ok_or("a child needs --workload")?;
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let mut layers = Layers::new();
    let mut checks = Checks::default();
    let share = if opts.traced { TRACED_REP_SHARE } else { 1.0 };
    let budget = Duration::from_secs_f64(opts.seconds * share);
    let m = measure(w, opts.seed, budget, opts.traced, &mut layers, &mut checks);
    let e2e = end_to_end(&m);
    let mut replay_rows = Vec::new();
    if opts.traced {
        replay_rows = per_layer(w, opts.seed, &m, &mut layers, &mut checks);
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        std::fs::write(
            &path,
            trace::chrome_trace(layers.rec.spans(), w.name()).to_line(),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    println!(
        "workload {} seed {} seconds {} traced {}: {} repetitions, {} operations, {} failed",
        w.name(),
        opts.seed,
        opts.seconds,
        opts.traced,
        m.samples.len(),
        m.attempted,
        m.failed
    );
    print_table("end-to-end (tracing off, reference-machine time)", &e2e);
    let reference = reference_summary(&m);
    print_table("reference", &reference);
    if opts.traced {
        print_table("per layer", &layers.rows);
        println!("where the replay's time goes (self time by span)");
        for row in &replay_rows {
            println!(
                "  {:<44} {:>10.3} ms {:>5} calls",
                row.name, row.self_ms, row.calls
            );
        }
    }
    if let Some((_, ratio)) = layers
        .rows
        .iter()
        .find(|(name, _)| *name == "trace.replay_vs_e2e_ratio")
    {
        if !(0.85..=1.15).contains(&ratio.value) {
            println!(
                "warning: the replay took {:.2} of the end-to-end call; outside [0.85, 1.15] the parts do not sum to the whole",
                ratio.value
            );
        }
    }
    for c in &checks.0 {
        println!(
            "check {:<28} {}{}",
            c.name,
            if c.ok { "ok" } else { "FAILED " },
            c.detail
        );
    }

    let correct = checks.all_ok() && m.failed == 0;
    let summaries =
        |rows: &[(&'static str, Summary)]| obj(rows.iter().map(|(n, s)| (*n, s.to_json())));
    let doc = obj([
        ("e2e", summaries(&e2e)),
        ("reference", summaries(&reference)),
        ("layers", summaries(&layers.rows)),
        (
            "replay",
            obj(replay_rows.iter().map(|r| {
                (
                    r.name,
                    obj([
                        ("self_ms", Value::from(r.self_ms)),
                        ("calls", Value::from(r.calls)),
                    ]),
                )
            })),
        ),
        (
            "checks",
            Value::Arr(
                checks
                    .0
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", Value::from(c.name)),
                            ("ok", Value::from(c.ok)),
                            ("detail", Value::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ops_attempted", Value::from(m.attempted)),
        ("ops_failed", Value::from(m.failed)),
        ("repetitions", Value::from(m.samples.len())),
    ]);
    let path = result_path(w, opts.traced);
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // The contract's result line: the last line of standard output.
    let reported = if opts.traced { &layers.rows } else { &e2e };
    let line = obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(m.attempted.max(1))),
        ("failed", Value::from(m.failed)),
        (
            "metrics",
            obj(reported.iter().map(|(name, s)| {
                (
                    *name,
                    obj([
                        ("value", Value::from(s.value)),
                        ("unit", Value::from(s.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

//! Deterministic fault injection for the distributed runtime.
//!
//! PAC fine-tunes on a pool of flaky consumer edge devices, so every
//! recovery path — fail-stop replan, checkpoint resume, elastic joins,
//! durable cold restarts — must be exercised by tests that reproduce
//! bit-for-bit. A [`FaultPlan`] is a declarative list of failures pinned to
//! a global step and keyed by an original lane or device id, which stays
//! the same however the survivors renumber; a [`FaultClock`] carries the
//! plan through a run, answers the run loop's "does anything fail here?"
//! queries, and logs a recovery timeline that `repro --faults` renders.
//! Plans are pure data — no wall-clock, no global RNG — so a plan plus a
//! run's seed fully determines it.
//!
//! One run loop reads a plan: the pac-net coordinator, which meets real
//! process, socket and disk faults. The in-process engines read none: they
//! are the references its worlds are checked against. `pac_core::PacSession`
//! records only its durable snapshots and cold restarts on a timeline
//! ([`record`]), and both report through [`RecoveryReport`].
//!
//! The textual schema (accepted by [`FaultPlan::parse`] and `repro
//! --faults`) is `kind@key=value,...` joined by `;`. Each kind takes exactly
//! the keys below, each once:
//!
//! ```text
//! fail-stop@step=5,device=1
//! straggler@step=2,lane=1,delay-ms=40
//! join@step=6                             # a device offers to join
//! crash@step=3,at-byte=17                 # kill the checkpoint writer
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One injected failure, pinned to a precise point of the run.
///
/// `step` is the global mini-batch index (0-based) counted by the
/// [`FaultClock`]; replayed steps after a checkpoint restore get fresh
/// indices, so a fault fires exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The device leaves the pool permanently before executing this step
    /// (powered off, left the LAN). Recovery requires a replan.
    FailStop {
        /// Global step before which the device disappears.
        step: u64,
        /// Original device index (stable across earlier failures).
        device: usize,
    },
    /// The lane stalls for `delay_ms` before computing this step (thermal
    /// throttling, background load).
    Straggler {
        /// Global step the delay applies to.
        step: u64,
        /// Original id of the lane that stalls.
        lane: usize,
        /// Stall duration in milliseconds.
        delay_ms: u64,
    },
    /// A new device offers to join the pool before this step (powered on,
    /// came back in LAN range). Elastic runtimes admit it through the
    /// planner (`replan_with`) and grow the world; engines without a join
    /// path ignore the event.
    Join {
        /// Global step before which the device offers to join.
        step: u64,
    },
    /// The coordinator is killed `at_byte` bytes into the durable
    /// checkpoint append at this step — the crash adversary for the
    /// one-record-per-commit append. Runs persisting through a
    /// crash-capable store die mid-append, wherever in the commit record
    /// the offset lands; a cold restart must recover the last committed
    /// snapshot. Runs without a durable store ignore the event.
    Crash {
        /// Global step whose checkpoint append is torn.
        step: u64,
        /// Byte offset into the append at which the writer dies.
        at_byte: u64,
    },
}

impl Fault {
    /// The global step this fault fires at.
    pub fn step(&self) -> u64 {
        match self {
            Fault::FailStop { step, .. }
            | Fault::Straggler { step, .. }
            | Fault::Join { step }
            | Fault::Crash { step, .. } => *step,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::FailStop { step, device } => {
                write!(f, "fail-stop@step={step},device={device}")
            }
            Fault::Straggler {
                step,
                lane,
                delay_ms,
            } => write!(f, "straggler@step={step},lane={lane},delay-ms={delay_ms}"),
            Fault::Join { step } => write!(f, "join@step={step}"),
            Fault::Crash { step, at_byte } => {
                write!(f, "crash@step={step},at-byte={at_byte}")
            }
        }
    }
}

/// A deterministic schedule of failures for one training run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected failures, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (a fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Parses the textual schema (see module docs). Whitespace around
    /// separators is ignored; an empty string is the empty plan.
    ///
    /// # Errors
    /// Returns a human-readable description of the first malformed clause,
    /// naming it: an unknown kind, a key its kind does not take, a repeated
    /// or missing key, or a value that is not an integer.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, args) = clause
                .split_once('@')
                .ok_or_else(|| format!("'{clause}': expected kind@key=value,..."))?;
            let kind = kind.trim();
            // The keys each kind takes, all required, and how its values
            // (in key order) build the fault.
            type Build = fn(&[u64]) -> Fault;
            let (keys, build): (&[&str], Build) = match kind {
                "fail-stop" => (&["step", "device"], |v| Fault::FailStop {
                    step: v[0],
                    device: id(v[1]),
                }),
                "straggler" => (&["step", "lane", "delay-ms"], |v| Fault::Straggler {
                    step: v[0],
                    lane: id(v[1]),
                    delay_ms: v[2],
                }),
                "join" => (&["step"], |v| Fault::Join { step: v[0] }),
                "crash" => (&["step", "at-byte"], |v| Fault::Crash {
                    step: v[0],
                    at_byte: v[1],
                }),
                other => return Err(format!("unknown fault kind '{other}' in '{clause}'")),
            };
            let mut values: Vec<Option<u64>> = vec![None; keys.len()];
            for kv in args.split(',') {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("'{kv}': expected key=value in '{clause}'"))?;
                let k = k.trim();
                let i = keys
                    .iter()
                    .position(|&key| key == k)
                    .ok_or_else(|| format!("{kind} takes no key '{k}' in '{clause}'"))?;
                if values[i].is_some() {
                    return Err(format!("repeated key '{k}' in '{clause}'"));
                }
                let value = v.trim().parse();
                values[i] = Some(value.map_err(|_| format!("'{kv}': bad integer in '{clause}'"))?);
            }
            let values = keys
                .iter()
                .zip(values)
                .map(|(key, v)| v.ok_or_else(|| format!("'{clause}': missing {key}=")))
                .collect::<Result<Vec<u64>, String>>()?;
            faults.push(build(&values));
        }
        Ok(FaultPlan { faults })
    }
}

/// A lane or device id from a parsed plan. One past the address width
/// names no lane, like any id past the pool, rather than wrapping onto one.
fn id(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.faults.iter().map(Fault::to_string).collect();
        write!(f, "{}", parts.join(";"))
    }
}

/// What happened during a supervised run, in order — the recovery timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Global step the event belongs to.
    pub step: u64,
    /// Event category.
    pub kind: TimelineKind,
    /// Human-readable detail, e.g. `"device 1 fail-stop"`.
    pub detail: String,
}

/// Category of a [`TimelineEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// A fault from the plan fired.
    Injected,
    /// The pac-net coordinator lost a rank and respawned its world on the
    /// same topology (`RankLoss::Respawn`), to replay from the snapshot.
    Retry,
    /// A training checkpoint was snapshotted.
    Checkpoint,
    /// The planner produced a new plan over the surviving devices.
    Replan,
    /// Training resumed from a checkpoint.
    Resume,
    /// A joining device was admitted into (or rejected from) the pool.
    Join,
    /// Micro-batch shares were rebalanced across lanes (straggler
    /// mitigation).
    Rebalance,
}

impl fmt::Display for TimelineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TimelineKind::Injected => "inject",
            TimelineKind::Retry => "retry",
            TimelineKind::Checkpoint => "checkpoint",
            TimelineKind::Replan => "replan",
            TimelineKind::Resume => "resume",
            TimelineKind::Join => "join",
            TimelineKind::Rebalance => "rebalance",
        };
        f.write_str(s)
    }
}

/// Carries a [`FaultPlan`] through a run: counts global steps, answers the
/// run loop's injection queries, and records the recovery timeline.
///
/// The code that owns the mini-batch loop (a coordinator world, or a test)
/// calls [`FaultClock::advance`] once per mini-batch; all queries are
/// against explicit step numbers.
#[derive(Debug, Default)]
pub struct FaultClock {
    plan: FaultPlan,
    next_step: AtomicU64,
    log: Mutex<Vec<TimelineEvent>>,
}

impl FaultClock {
    /// Wraps a plan; the clock starts before step 0.
    pub fn new(plan: FaultPlan) -> Self {
        FaultClock {
            plan,
            next_step: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Starts the next mini-batch step and returns its index (0-based).
    pub fn advance(&self) -> u64 {
        self.next_step.fetch_add(1, Ordering::Relaxed)
    }

    /// The most recently started step (0 before the first [`advance`]).
    ///
    /// [`advance`]: FaultClock::advance
    pub fn current_step(&self) -> u64 {
        self.next_step.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Device that fail-stops before `step`, if any. Fires once per device;
    /// the caller tracks which devices are already gone.
    pub fn fail_stop(&self, step: u64) -> Option<usize> {
        self.plan.faults.iter().find_map(|f| match f {
            Fault::FailStop { step: s, device } if *s == step => Some(*device),
            _ => None,
        })
    }

    /// Straggler delay for the lane with original id `lane` at `step`, if
    /// any.
    pub fn straggler_delay(&self, step: u64, lane: usize) -> Option<Duration> {
        self.plan.faults.iter().find_map(|f| match f {
            Fault::Straggler {
                step: s,
                lane: l,
                delay_ms,
            } if *s == step && *l == lane => Some(Duration::from_millis(*delay_ms)),
            _ => None,
        })
    }

    /// How many devices offer to join the pool before `step`. Repeated
    /// `join@step=N` faults form a *wave*: the driver admits the whole
    /// wave with one replan and one catch-up snapshot rather than one
    /// membership event per joiner.
    pub fn joins(&self, step: u64) -> usize {
        self.plan
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::Join { step: s } if *s == step))
            .count()
    }

    /// Byte offset at which the durable checkpoint writer is killed during
    /// `step`'s append, if a crash is planned there. Fires once: the run
    /// dies with it.
    pub fn crash_point(&self, step: u64) -> Option<u64> {
        self.plan.faults.iter().find_map(|f| match f {
            Fault::Crash { step: s, at_byte } if *s == step => Some(*at_byte),
            _ => None,
        })
    }

    /// Appends an event to the recovery timeline (see [`record`]).
    pub fn note(&self, step: u64, kind: TimelineKind, detail: impl Into<String>) {
        record(&mut self.log.lock().unwrap(), step, kind, detail);
    }

    /// The recovery timeline recorded so far, in order.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        self.log.lock().unwrap().clone()
    }
}

/// Appends an event to a recovery timeline and mirrors it into telemetry
/// (`faults.injected`, `recovery.replans`, …).
pub fn record(
    timeline: &mut Vec<TimelineEvent>,
    step: u64,
    kind: TimelineKind,
    detail: impl Into<String>,
) {
    let counter = match kind {
        TimelineKind::Injected => "faults.injected",
        TimelineKind::Retry => "recovery.retries",
        TimelineKind::Checkpoint => "checkpoint.snapshots",
        TimelineKind::Replan => "recovery.replans",
        TimelineKind::Resume => "recovery.resumes",
        TimelineKind::Join => "membership.joins",
        TimelineKind::Rebalance => "membership.rebalances",
    };
    pac_telemetry::counter_inc(counter);
    timeline.push(TimelineEvent {
        step,
        kind,
        detail: detail.into(),
    });
}

/// Fault-handling summary of a run: the pac-net coordinator's worlds and
/// `pac_core::PacSession` report through it. All-zero but the snapshot
/// tallies for a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Faults from the plan that actually fired.
    pub faults_injected: usize,
    /// Times the planner produced a new plan over surviving devices.
    pub replans: u32,
    /// Training checkpoints snapshotted (including the initial one).
    pub checkpoints: usize,
    /// Total serialized size of all snapshots, in bytes.
    pub checkpoint_bytes: usize,
    /// Devices still alive at the end of the run.
    pub final_devices: usize,
    /// Ordered fault/recovery events (the recovery timeline).
    pub timeline: Vec<TimelineEvent>,
}

impl RecoveryReport {
    /// Builds a report from a recorded timeline plus the run loop's own
    /// tallies. `faults_injected` is derived from the timeline (every
    /// [`TimelineKind::Injected`] entry), so every run loop counts faults
    /// the same way.
    pub fn from_timeline(
        timeline: Vec<TimelineEvent>,
        replans: u32,
        checkpoints: usize,
        checkpoint_bytes: usize,
        final_devices: usize,
    ) -> Self {
        RecoveryReport {
            faults_injected: timeline
                .iter()
                .filter(|e| e.kind == TimelineKind::Injected)
                .count(),
            replans,
            checkpoints,
            checkpoint_bytes,
            final_devices,
            timeline,
        }
    }
}

/// Renders a recovery timeline as aligned `step  kind  detail` lines.
pub fn render_events(events: &[TimelineEvent]) -> String {
    if events.is_empty() {
        return "(no faults injected, no recovery actions)".into();
    }
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "step {:>4}  {:<10} {}\n",
            e.step, e.kind, e.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        let spec = "fail-stop@step=5,device=2;\
                    straggler@step=2,lane=1,delay-ms=40;join@step=7;\
                    crash@step=8,at-byte=17";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.faults.len(), 4);
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "straggler@lane=0,delay-ms=1",     // missing step
            "fail-stop@step=1",                // missing device
            "warp-core-breach@step=1,lane=0",  // unknown kind
            "join@step=x",                     // bad integer
            "straggler@step=1,lane=0,wait=10", // unknown key
            "crash@step=1",                    // missing at-byte
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
        // A key the kind does not take, a repeated key, the removed
        // `allreduce` and `lane-panic` kinds and `stage` key: refused,
        // naming the clause.
        for bad in [
            "join@step=1;fail-stop@step=1,device=0,lane=1",
            "join@step=1,step=2",
            "fail-stop@step=1,device=0,device=0",
            "allreduce@step=1,failures=1",
            "lane-panic@step=3,lane=0",
            "straggler@step=3,lane=0,delay-ms=1,stage=1",
            "crash@step=1,at-byte=2,device=0",
        ] {
            let clause = bad.rsplit(';').next().unwrap();
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains(clause), "{bad}: {err}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
    }

    #[test]
    fn clock_answers_point_queries() {
        let plan = FaultPlan::none()
            .with(Fault::FailStop { step: 2, device: 1 })
            .with(Fault::Straggler {
                step: 3,
                lane: 2,
                delay_ms: 15,
            })
            .with(Fault::Join { step: 5 })
            .with(Fault::Crash {
                step: 6,
                at_byte: 17,
            });
        let clock = FaultClock::new(plan);
        assert_eq!(clock.advance(), 0);
        assert_eq!(clock.advance(), 1);
        assert_eq!(clock.current_step(), 1);
        assert_eq!(clock.fail_stop(2), Some(1));
        assert_eq!(clock.fail_stop(0), None);
        assert_eq!(clock.straggler_delay(3, 2), Some(Duration::from_millis(15)));
        assert_eq!(clock.joins(5), 1);
        assert_eq!(clock.joins(4), 0);
        assert_eq!(clock.crash_point(6), Some(17));
        assert_eq!(clock.crash_point(5), None);
    }

    #[test]
    fn timeline_records_in_order() {
        let clock = FaultClock::default();
        clock.note(0, TimelineKind::Injected, "device 1 fail-stop");
        clock.note(0, TimelineKind::Replan, "2 survivors");
        clock.note(1, TimelineKind::Resume, "from step 0");
        let t = clock.timeline();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, TimelineKind::Injected);
        let text = render_events(&t);
        assert!(text.contains("replan"));
        assert!(text.contains("device 1 fail-stop"));
    }
}

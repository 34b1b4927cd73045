//! Deterministic fault injection for the training runtime.
//!
//! PAC fine-tunes on a pool of flaky consumer edge devices, so every
//! recovery path — lane supervision, AllReduce retry, checkpoint + replan —
//! must be exercised by tests that reproduce bit-for-bit. A [`FaultPlan`]
//! is a declarative list of failures pinned to precise injection points
//! (global step, lane, stage); a [`FaultClock`] carries the plan through a
//! run, answers the engines' "does anything fail here?" queries, and logs a
//! recovery timeline that `repro --faults` renders.
//!
//! Plans are seedable two ways: written explicitly (tests pin exact
//! injection points) or generated pseudo-randomly from a seed with
//! [`FaultPlan::scattered`] (soak tests sweep seeds). Both are pure data —
//! no wall-clock, no global RNG — so a plan plus a session seed fully
//! determines a run.
//!
//! The textual schema (accepted by [`FaultPlan::parse`] and `repro
//! --faults`) is `kind@key=value,...` joined by `;`:
//!
//! ```text
//! fail-stop@step=5,device=1
//! lane-panic@step=3,lane=0,stage=1
//! straggler@step=2,lane=1,delay-ms=40
//! allreduce@step=4,failures=2
//! allreduce@step=4,failures=9,lane=1      # unreachable peer: degrade
//! join@step=6                             # a device offers to join
//! crash@step=3,at-byte=17                 # kill the checkpoint writer
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One injected failure, pinned to a precise point of the run.
///
/// `step` is the global mini-batch index (0-based) counted by the
/// [`FaultClock`]; replayed steps after a checkpoint restore get fresh
/// indices, so a fault fires exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// The lane's worker thread panics when the given stage starts the
    /// mini-batch (models a crashing process / driver fault).
    LanePanic {
        /// Global step at which the panic fires.
        step: u64,
        /// Lane (data-parallel replica) that panics.
        lane: usize,
        /// Pipeline stage inside the lane where the panic is raised.
        stage: usize,
    },
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
        /// Lane that stalls.
        lane: usize,
        /// Stall duration in milliseconds.
        delay_ms: u64,
    },
    /// The gradient AllReduce at this step fails `failures` consecutive
    /// attempts before succeeding. If `failures` exceeds the engines'
    /// bounded retry budget, the collective is treated as permanently
    /// broken: with `lane` set the engine drops that (unreachable) lane and
    /// degrades to the survivors; with `lane` unset the step errors out.
    AllReduceTransient {
        /// Global step whose AllReduce is disturbed.
        step: u64,
        /// Number of consecutive failing attempts.
        failures: u32,
        /// Unreachable lane to drop if the retry budget is exhausted.
        lane: Option<usize>,
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
            Fault::LanePanic { step, .. }
            | Fault::FailStop { step, .. }
            | Fault::Straggler { step, .. }
            | Fault::AllReduceTransient { step, .. }
            | Fault::Join { step }
            | Fault::Crash { step, .. } => *step,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::LanePanic { step, lane, stage } => {
                write!(f, "lane-panic@step={step},lane={lane},stage={stage}")
            }
            Fault::FailStop { step, device } => {
                write!(f, "fail-stop@step={step},device={device}")
            }
            Fault::Straggler {
                step,
                lane,
                delay_ms,
            } => write!(f, "straggler@step={step},lane={lane},delay-ms={delay_ms}"),
            Fault::AllReduceTransient {
                step,
                failures,
                lane,
            } => {
                write!(f, "allreduce@step={step},failures={failures}")?;
                if let Some(l) = lane {
                    write!(f, ",lane={l}")?;
                }
                Ok(())
            }
            Fault::Join { step } => write!(f, "join@step={step}"),
            Fault::Crash { step, at_byte } => {
                write!(f, "crash@step={step},at-byte={at_byte}")
            }
        }
    }
}

/// A deterministic, seedable schedule of failures for one training run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Generates a pseudo-random plan from `seed`: roughly one fault per
    /// eight steps, scattered over `steps` steps, `devices` devices, and
    /// `stages` stages. The same seed always yields the same plan.
    pub fn scattered(seed: u64, steps: u64, devices: usize, stages: usize) -> Self {
        use rand::Rng as _;
        let mut rng = pac_tensor::rng::seeded(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut faults = Vec::new();
        let n = (steps / 8).max(1);
        for _ in 0..n {
            let step = rng.gen_range(0..steps.max(1));
            let lane = rng.gen_range(0..devices.max(1));
            match rng.gen_range(0..3u32) {
                0 => faults.push(Fault::Straggler {
                    step,
                    lane,
                    delay_ms: rng.gen_range(1..20),
                }),
                1 => faults.push(Fault::AllReduceTransient {
                    step,
                    failures: rng.gen_range(1..3),
                    lane: None,
                }),
                _ => faults.push(Fault::LanePanic {
                    step,
                    lane,
                    stage: rng.gen_range(0..stages.max(1)),
                }),
            }
        }
        FaultPlan { faults }
    }

    /// Parses the textual schema (see module docs). Whitespace around
    /// separators is ignored; an empty string is the empty plan.
    ///
    /// # Errors
    /// Returns a human-readable description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, args) = clause
                .split_once('@')
                .ok_or_else(|| format!("'{clause}': expected kind@key=value,..."))?;
            let mut step: Option<u64> = None;
            let mut lane: Option<usize> = None;
            let mut stage: Option<usize> = None;
            let mut device: Option<usize> = None;
            let mut delay_ms: Option<u64> = None;
            let mut failures: Option<u32> = None;
            let mut at_byte: Option<u64> = None;
            for kv in args.split(',') {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("'{kv}': expected key=value"))?;
                let (k, v) = (k.trim(), v.trim());
                let parse_err = |e| format!("'{kv}': {e}");
                match k {
                    "step" => step = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "lane" => lane = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "stage" => stage = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "device" => device = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "delay-ms" => delay_ms = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "failures" => failures = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    "at-byte" => at_byte = Some(v.parse().map_err(|_| parse_err("bad integer"))?),
                    other => return Err(format!("unknown key '{other}' in '{clause}'")),
                }
            }
            let step = step.ok_or_else(|| format!("'{clause}': missing step="))?;
            let fault = match kind.trim() {
                "lane-panic" => Fault::LanePanic {
                    step,
                    lane: lane.ok_or_else(|| format!("'{clause}': missing lane="))?,
                    stage: stage.ok_or_else(|| format!("'{clause}': missing stage="))?,
                },
                "fail-stop" => Fault::FailStop {
                    step,
                    device: device.ok_or_else(|| format!("'{clause}': missing device="))?,
                },
                "straggler" => Fault::Straggler {
                    step,
                    lane: lane.ok_or_else(|| format!("'{clause}': missing lane="))?,
                    delay_ms: delay_ms.ok_or_else(|| format!("'{clause}': missing delay-ms="))?,
                },
                "allreduce" => Fault::AllReduceTransient {
                    step,
                    failures: failures.ok_or_else(|| format!("'{clause}': missing failures="))?,
                    lane,
                },
                "join" => Fault::Join { step },
                "crash" => Fault::Crash {
                    step,
                    at_byte: at_byte.ok_or_else(|| format!("'{clause}': missing at-byte="))?,
                },
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            faults.push(fault);
        }
        Ok(FaultPlan { faults })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.faults.iter().map(Fault::to_string).collect();
        write!(f, "{}", parts.join(";"))
    }
}

/// What happened during a supervised run, in order — the recovery timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Global step the event belongs to.
    pub step: u64,
    /// Event category.
    pub kind: TimelineKind,
    /// Human-readable detail, e.g. `"device 1 fail-stop"`.
    pub detail: String,
}

/// Category of a [`TimelineEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimelineKind {
    /// A fault from the plan fired.
    Injected,
    /// A transient failure was retried.
    Retry,
    /// The engine dropped a lane and continued on the survivors.
    Degraded,
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
            TimelineKind::Degraded => "degrade",
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
/// engines' injection queries, and records the recovery timeline.
///
/// The driver that owns the mini-batch loop (the session, an engine run in
/// isolation, or a test) calls [`FaultClock::advance`] once per mini-batch;
/// all queries are against explicit step numbers so concurrent lane threads
/// need no further synchronization.
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

    /// A clock with no faults (supervision without injection).
    pub fn quiet() -> Self {
        FaultClock::new(FaultPlan::none())
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
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

    /// Stage at which `lane` must panic during `step`, if any.
    pub fn lane_panic_stage(&self, step: u64, lane: usize) -> Option<usize> {
        self.plan.faults.iter().find_map(|f| match f {
            Fault::LanePanic {
                step: s,
                lane: l,
                stage,
            } if *s == step && *l == lane => Some(*stage),
            _ => None,
        })
    }

    /// Straggler delay for `lane` at `step`, if any.
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

    /// True when at least one device offers to join the pool before
    /// `step`. Convenience over [`FaultClock::joins`] for callers that
    /// only care whether a membership event is due.
    pub fn join(&self, step: u64) -> bool {
        self.joins(step) > 0
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

    /// AllReduce disturbance at `step`: `(failing_attempts, unreachable
    /// lane)`. `(0, None)` when the collective is healthy.
    pub fn allreduce_fault(&self, step: u64) -> (u32, Option<usize>) {
        self.plan
            .faults
            .iter()
            .find_map(|f| match f {
                Fault::AllReduceTransient {
                    step: s,
                    failures,
                    lane,
                } if *s == step => Some((*failures, *lane)),
                _ => None,
            })
            .unwrap_or((0, None))
    }

    /// Appends an event to the recovery timeline and mirrors it into
    /// telemetry (`faults.injected`, `recovery.retries`,
    /// `recovery.replans`, …).
    pub fn note(&self, step: u64, kind: TimelineKind, detail: impl Into<String>) {
        let counter = match kind {
            TimelineKind::Injected => "faults.injected",
            TimelineKind::Retry => "recovery.retries",
            TimelineKind::Degraded => "recovery.degraded",
            TimelineKind::Checkpoint => "checkpoint.snapshots",
            TimelineKind::Replan => "recovery.replans",
            TimelineKind::Resume => "recovery.resumes",
            TimelineKind::Join => "membership.joins",
            TimelineKind::Rebalance => "membership.rebalances",
        };
        pac_telemetry::counter_inc(counter);
        self.log.lock().unwrap().push(TimelineEvent {
            step,
            kind,
            detail: detail.into(),
        });
    }

    /// The recovery timeline recorded so far, in order.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        self.log.lock().unwrap().clone()
    }

    /// Renders the timeline as aligned `step  kind  detail` lines.
    pub fn render_timeline(&self) -> String {
        render_events(&self.timeline())
    }
}

/// Renders a recovery timeline as aligned `step  kind  detail` lines
/// (what [`FaultClock::render_timeline`] produces for its own log).
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
        let spec = "lane-panic@step=3,lane=0,stage=1;fail-stop@step=5,device=2;\
                    straggler@step=2,lane=1,delay-ms=40;allreduce@step=4,failures=2;\
                    allreduce@step=6,failures=9,lane=1;join@step=7;\
                    crash@step=8,at-byte=17";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.faults.len(), 7);
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "lane-panic@lane=0,stage=1",       // missing step
            "fail-stop@step=1",                // missing device
            "warp-core-breach@step=1,lane=0",  // unknown kind
            "allreduce@step=x,failures=1",     // bad integer
            "straggler@step=1,lane=0,wait=10", // unknown key
            "crash@step=1",                    // missing at-byte
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: {bad}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ;  ").unwrap().is_empty());
    }

    #[test]
    fn scattered_is_deterministic_in_the_seed() {
        let a = FaultPlan::scattered(7, 32, 4, 2);
        let b = FaultPlan::scattered(7, 32, 4, 2);
        let c = FaultPlan::scattered(8, 32, 4, 2);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        assert!(!a.is_empty());
        assert!(a.faults.iter().all(|f| f.step() < 32));
    }

    #[test]
    fn clock_answers_point_queries() {
        let plan = FaultPlan::none()
            .with(Fault::FailStop { step: 2, device: 1 })
            .with(Fault::LanePanic {
                step: 1,
                lane: 0,
                stage: 1,
            })
            .with(Fault::Straggler {
                step: 3,
                lane: 2,
                delay_ms: 15,
            })
            .with(Fault::AllReduceTransient {
                step: 4,
                failures: 2,
                lane: Some(1),
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
        assert_eq!(clock.lane_panic_stage(1, 0), Some(1));
        assert_eq!(clock.lane_panic_stage(1, 1), None);
        assert_eq!(clock.straggler_delay(3, 2), Some(Duration::from_millis(15)));
        assert_eq!(clock.allreduce_fault(4), (2, Some(1)));
        assert_eq!(clock.allreduce_fault(5), (0, None));
        assert!(clock.join(5));
        assert!(!clock.join(4));
        assert_eq!(clock.crash_point(6), Some(17));
        assert_eq!(clock.crash_point(5), None);
    }

    #[test]
    fn timeline_records_in_order() {
        let clock = FaultClock::quiet();
        clock.note(0, TimelineKind::Injected, "device 1 fail-stop");
        clock.note(0, TimelineKind::Replan, "2 survivors");
        clock.note(1, TimelineKind::Resume, "from step 0");
        let t = clock.timeline();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, TimelineKind::Injected);
        let text = clock.render_timeline();
        assert!(text.contains("replan"));
        assert!(text.contains("device 1 fail-stop"));
    }
}

//! Lightweight global metrics for the PAC execution stack.
//!
//! Engines, the activation cache, and the trainer record counters, gauges,
//! and timing spans here; `repro --telemetry` renders the snapshot after a
//! run. Collection is **off by default**: every recording entry point
//! checks one relaxed atomic load and returns immediately when disabled,
//! so instrumented hot paths stay within noise of uninstrumented builds.
//!
//! Metric names are dot-separated paths, with the convention
//! `<subsystem>.<object>.<measure>`, e.g. `cache.hits`,
//! `pipeline.stage0.busy_ns`, `allreduce.bytes`, `membership.leaves` /
//! `membership.stale` (elastic-membership churn, and ranks that missed a
//! step deadline). The multi-tenant serving platform books
//! under `serve.*`: `serve.registry.publishes`, `serve.cache.hits` /
//! `serve.cache.misses` / `serve.cache.evictions` /
//! `serve.cache.resident_peak_bytes` (a max-gauge),
//! `serve.route.warm` / `serve.route.cold` / `serve.route.fresh`,
//! `serve.wait.ticks`, `serve.steps.serviced`, and
//! `serve.jobs.completed` / `serve.jobs.faulted` — the fairness and
//! hit-rate ledgers a `ServeReport` sums up. Spans append `.ns` and
//! `.calls` to their base name.
//!
//! The registry is deliberately global (a process models one training
//! node); tests that assert on metrics should [`reset`] first and not run
//! concurrently with other metric-asserting tests — use serial tests or
//! distinct metric names.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<BTreeMap<String, u64>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A monotonic nanosecond clock that spans read from. The default is the
/// process wall clock; a simulated runtime installs its virtual clock so
/// recorded timings are in virtual time.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

fn clock_slot() -> &'static RwLock<Option<Clock>> {
    static CLOCK: OnceLock<RwLock<Option<Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Installs (or with `None`, removes) a custom span clock. Spans capture
/// which clock was active when they started and read the same clock on
/// drop, so toggling mid-span cannot produce negative durations.
pub fn set_clock(clock: Option<Clock>) {
    *clock_slot().write().unwrap() = clock;
}

fn now_ns() -> (u64, bool) {
    if let Some(c) = clock_slot().read().unwrap().as_ref() {
        (c(), true)
    } else {
        (epoch().elapsed().as_nanos() as u64, false)
    }
}

/// Turns metric collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the named counter (creating it at zero).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut map = registry().lock().unwrap();
    *map.entry(name.to_string()).or_insert(0) += delta;
}

/// Increments the named counter by one.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Sets the named gauge to `value`, overwriting any previous value.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    registry().lock().unwrap().insert(name.to_string(), value);
}

/// Raises the named gauge to `value` if larger (high-water mark).
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut map = registry().lock().unwrap();
    let slot = map.entry(name.to_string()).or_insert(0);
    *slot = (*slot).max(value);
}

/// Reads one metric; `None` when absent (or collection never enabled).
pub fn get(name: &str) -> Option<u64> {
    registry().lock().unwrap().get(name).copied()
}

/// All metrics, sorted by name.
pub fn snapshot() -> Vec<(String, u64)> {
    registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// All metrics whose name starts with `prefix`, sorted by name.
pub fn snapshot_prefix(prefix: &str) -> Vec<(String, u64)> {
    snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .collect()
}

/// Clears all metrics (does not change the enabled flag).
pub fn reset() {
    registry().lock().unwrap().clear();
}

/// Folds a remote process's counter snapshot into this registry by
/// addition, so a distributed coordinator can aggregate its workers'
/// `net.*` traffic into one report (workers ship
/// [`snapshot_prefix`]`("net.")` at shutdown). Counter semantics only —
/// merging a gauge this way sums it, so ship counters, not gauges.
pub fn merge_counters<I>(rows: I)
where
    I: IntoIterator<Item = (String, u64)>,
{
    if !enabled() {
        return;
    }
    let mut map = registry().lock().unwrap();
    for (k, v) in rows {
        *map.entry(k).or_insert(0) += v;
    }
}

/// RAII timing span: on drop, adds elapsed nanoseconds to `<name>.ns` and
/// bumps `<name>.calls`. A no-op (no clock read) while collection is off.
#[must_use = "the span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    /// `(start ns, started on the custom clock)`; `None` while disabled.
    start: Option<(u64, bool)>,
}

/// Starts a timing span for `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(now_ns),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, was_virtual)) = self.start {
            let (now, is_virtual) = now_ns();
            // If the clock was swapped mid-span the difference is
            // meaningless; record zero rather than a bogus duration.
            let ns = if was_virtual == is_virtual {
                now.saturating_sub(start)
            } else {
                0
            };
            // Collection may have been toggled off mid-span; record anyway
            // so paired .ns/.calls stay consistent.
            let mut map = registry().lock().unwrap();
            *map.entry(format!("{}.ns", self.name)).or_insert(0) += ns;
            *map.entry(format!("{}.calls", self.name)).or_insert(0) += 1;
        }
    }
}

/// Formats a snapshot as aligned `name value` lines for terminal output.
pub fn render(rows: &[(String, u64)]) -> String {
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in rows {
        let line = if k.ends_with(".ns") {
            format!("{k:<width$}  {:>14.3} ms\n", *v as f64 / 1e6)
        } else if k.ends_with("bytes") {
            format!("{k:<width$}  {:>14.2} KiB\n", *v as f64 / 1024.0)
        } else {
            format!("{k:<width$}  {v:>14}\n")
        };
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so exercise everything in one test
    // to avoid cross-test interference under the parallel test runner.
    #[test]
    fn registry_lifecycle() {
        set_enabled(false);
        reset();
        counter_add("t.off", 5);
        assert_eq!(get("t.off"), None, "disabled collection must not record");

        set_enabled(true);
        counter_add("t.a", 2);
        counter_inc("t.a");
        gauge_set("t.g", 7);
        gauge_set("t.g", 3);
        gauge_max("t.m", 10);
        gauge_max("t.m", 4);
        {
            let _s = span("t.work");
            std::hint::black_box(1 + 1);
        }
        assert_eq!(get("t.a"), Some(3));
        assert_eq!(get("t.g"), Some(3));
        assert_eq!(get("t.m"), Some(10));
        assert_eq!(get("t.work.calls"), Some(1));
        assert!(get("t.work.ns").is_some());

        // Pluggable clock: a span on a virtual clock records virtual ns.
        let ticks = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let source = ticks.clone();
        set_clock(Some(Arc::new(move || {
            source.fetch_add(500, Ordering::SeqCst)
        })));
        {
            let _s = span("t.virtual");
        }
        set_clock(None);
        assert_eq!(get("t.virtual.ns"), Some(500), "virtual clock drives spans");

        merge_counters(vec![("t.a".to_string(), 4), ("t.new".to_string(), 1)]);
        assert_eq!(get("t.a"), Some(7), "merge adds into existing counters");
        assert_eq!(get("t.new"), Some(1), "merge creates missing counters");

        let pre = snapshot_prefix("t.");
        assert!(pre.len() >= 5);
        assert!(pre.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by name");

        let text = render(&pre);
        assert!(text.contains("t.a"));
        assert!(text.contains("ms"), "span ns rendered in ms: {text}");

        set_enabled(false);
        reset();
        assert!(snapshot().is_empty());
    }
}

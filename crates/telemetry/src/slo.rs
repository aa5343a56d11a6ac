//! Multi-window SLO burn-rate tracking and alerting with hysteresis.
//!
//! Google-SRE-style burn-rate alerting over the [`timeseries`] store
//! (scaled from hours to seconds for an in-process serving SLO): an SLO
//! is a *bad-events / total-events* counter pair plus an objective
//! (`0.999` → an error budget of `0.1 %`). The **burn rate** over a
//! window is the observed bad ratio divided by the budget — burn 1 means
//! the budget is being consumed exactly at the sustainable pace, burn 14
//! means fourteen times too fast.
//!
//! Each SLO evaluates two alert rules, each over a *pair* of windows so a
//! spike must both register (long window) and still be happening (short
//! window) before paging:
//!
//! * **fast** — short 5 s / long 60 s, high threshold (default 14.4):
//!   catches an acute burst within seconds;
//! * **slow** — short 60 s / long 600 s, low threshold (default 6):
//!   catches a simmering regression the fast rule's threshold forgives.
//!
//! Transitions run a hysteresis state machine: a rule **fires** when both
//! its windows exceed the threshold, and **resolves** only after both sit
//! below `resolve_factor × threshold` for `resolve_hold` consecutive
//! evaluations — an alert cannot flap across the boundary on a noisy
//! ratio. Rule state is exposed as gauges (`slo_burn_rate`,
//! `slo_alert_firing`), transition counters, and a bounded in-memory
//! event ring (flight-recorder style: newest transitions retained, cold
//! to read, queryable for exposition).
//!
//! Evaluation is allocation-free in the steady state (burn queries hit
//! the store's alloc-free scalar paths; events allocate only on the rare
//! transition), so it rides the [`Sampler`]'s zero-alloc tick hook.
//!
//! [`timeseries`]: crate::timeseries
//! [`Sampler`]: crate::timeseries::Sampler

use crate::registry::{Counter, Gauge, Registry};
use crate::timeseries::TimeStore;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Most labels our series carry; SLO series must fit in the stack buffer
/// used to borrow them without allocating.
const MAX_LABELS: usize = 4;

/// Retained alert transitions.
const EVENT_CAP: usize = 64;

/// A `(name, labels)` series reference into the time-series store.
#[derive(Debug, Clone)]
pub struct SeriesRef {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl SeriesRef {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> SeriesRef {
        assert!(
            labels.len() <= MAX_LABELS,
            "too many labels for an SLO series"
        );
        SeriesRef {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// One alert rule: a window pair and its burn threshold.
#[derive(Debug, Clone, Copy)]
pub struct AlertRule {
    /// Confirmation window (seconds): the burst must still be happening.
    pub short_window: f64,
    /// Detection window (seconds): the burst must be big enough to matter.
    pub long_window: f64,
    /// Fire when the burn rate over *both* windows is at or above this.
    pub burn_threshold: f64,
}

/// One SLO: a bad/total counter pair, an objective, and two alert rules.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short identifier, used as the `slo` label ("deadline", "shed").
    pub name: String,
    /// Counter of SLO-violating events.
    pub bad: SeriesRef,
    /// Counter of all events.
    pub total: SeriesRef,
    /// Target good ratio, e.g. `0.999`. The error budget is `1 − objective`.
    pub objective: f64,
    /// Acute-burst rule (default 5 s / 60 s at burn ≥ 14.4).
    pub fast: AlertRule,
    /// Simmering-regression rule (default 60 s / 600 s at burn ≥ 6).
    pub slow: AlertRule,
    /// Hysteresis: resolve only below `resolve_factor × burn_threshold`.
    pub resolve_factor: f64,
    /// Consecutive healthy evaluations required to resolve.
    pub resolve_hold: u32,
    /// Windows with fewer total events than this read as burn 0 — an idle
    /// service is healthy, not 0/0-undefined.
    pub min_events: f64,
}

impl SloSpec {
    /// A spec with the scaled Google-SRE window/threshold defaults.
    pub fn new(name: &str, bad: SeriesRef, total: SeriesRef, objective: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            bad,
            total,
            objective,
            fast: AlertRule {
                short_window: 5.0,
                long_window: 60.0,
                burn_threshold: 14.4,
            },
            slow: AlertRule {
                short_window: 60.0,
                long_window: 600.0,
                burn_threshold: 6.0,
            },
            resolve_factor: 0.8,
            resolve_hold: 3,
            min_events: 1.0,
        }
    }
}

/// One alert transition, newest-last in [`SloEngine::events`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Store timestamp of the evaluation that transitioned.
    pub t: f64,
    /// The SLO's name.
    pub slo: String,
    /// `"fast"` or `"slow"`.
    pub alert: &'static str,
    /// `true` on firing, `false` on resolve.
    pub firing: bool,
}

/// Point-in-time SLO summary (what `HealthReply` carries).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloStatus {
    /// Worst fast-rule long-window burn across SLOs.
    pub fast_burn: f64,
    /// Worst slow-rule long-window burn across SLOs.
    pub slow_burn: f64,
    /// Alert rules currently firing across SLOs.
    pub firing: u32,
}

/// Hysteresis state of one alert rule.
struct RuleState {
    firing: bool,
    healthy_streak: u32,
    /// Long-window burn at the last evaluation.
    last_burn: f64,
    firing_gauge: Gauge,
    short_gauge: Gauge,
    long_gauge: Gauge,
    fired_total: Counter,
    resolved_total: Counter,
}

struct SloState {
    spec: SloSpec,
    fast: RuleState,
    slow: RuleState,
}

/// The alert engine: owns per-rule hysteresis state, evaluates against a
/// [`TimeStore`], and exposes burn rates and alert states back into the
/// registry it was built over.
pub struct SloEngine {
    inner: Mutex<EngineInner>,
}

struct EngineInner {
    slos: Vec<SloState>,
    events: VecDeque<AlertEvent>,
}

fn window_label(seconds: f64) -> String {
    if seconds >= 60.0 && (seconds % 60.0) == 0.0 {
        format!("{}m", (seconds / 60.0) as u64)
    } else {
        format!("{}s", seconds as u64)
    }
}

fn rule_state(reg: &Registry, slo: &str, alert: &'static str, rule: &AlertRule) -> RuleState {
    let short = window_label(rule.short_window);
    let long = window_label(rule.long_window);
    RuleState {
        firing: false,
        healthy_streak: 0,
        last_burn: 0.0,
        firing_gauge: reg.gauge_with(
            "slo_alert_firing",
            &[("slo", slo), ("alert", alert)],
            "1 while the alert rule is firing, 0 otherwise",
        ),
        short_gauge: reg.gauge_with(
            "slo_burn_rate",
            &[("slo", slo), ("alert", alert), ("window", &short)],
            "error-budget burn rate over the rule's short window",
        ),
        long_gauge: reg.gauge_with(
            "slo_burn_rate",
            &[("slo", slo), ("alert", alert), ("window", &long)],
            "error-budget burn rate over the rule's long window",
        ),
        fired_total: reg.counter_with(
            "slo_alert_transitions_total",
            &[("slo", slo), ("alert", alert), ("to", "firing")],
            "resolved→firing transitions",
        ),
        resolved_total: reg.counter_with(
            "slo_alert_transitions_total",
            &[("slo", slo), ("alert", alert), ("to", "resolved")],
            "firing→resolved transitions",
        ),
    }
}

/// Borrows owned label pairs into a stack buffer — the query path stays
/// allocation-free.
fn borrow_labels<'a>(
    labels: &'a [(String, String)],
    buf: &'a mut [(&'a str, &'a str); MAX_LABELS],
) -> &'a [(&'a str, &'a str)] {
    for (slot, (k, v)) in buf.iter_mut().zip(labels) {
        *slot = (k.as_str(), v.as_str());
    }
    &buf[..labels.len()]
}

/// Burn rate of `bad/total` over `window`: bad ratio divided by the error
/// budget; 0 when the window holds fewer than `min_events` total events
/// or the store has no history yet.
fn burn_over(
    store: &TimeStore,
    bad: &SeriesRef,
    total: &SeriesRef,
    window: f64,
    budget: f64,
    min_events: f64,
) -> f64 {
    let mut buf = [("", ""); MAX_LABELS];
    let total_d = store
        .counter_delta(&total.name, borrow_labels(&total.labels, &mut buf), window)
        .unwrap_or(0.0);
    if total_d < min_events {
        return 0.0;
    }
    let mut buf = [("", ""); MAX_LABELS];
    let bad_d = store
        .counter_delta(&bad.name, borrow_labels(&bad.labels, &mut buf), window)
        .unwrap_or(0.0);
    let ratio = (bad_d / total_d).clamp(0.0, 1.0);
    if budget > 0.0 {
        ratio / budget
    } else if ratio > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

impl SloEngine {
    /// Builds the engine, registering its gauges/counters on `reg` (use
    /// the registry the store samples so alert state shows up in the same
    /// scrape).
    pub fn with_registry(reg: &Registry, specs: Vec<SloSpec>) -> SloEngine {
        let slos = specs
            .into_iter()
            .map(|spec| {
                assert!(
                    (0.0..1.0).contains(&spec.objective),
                    "objective must be in [0, 1)"
                );
                SloState {
                    fast: rule_state(reg, &spec.name, "fast", &spec.fast),
                    slow: rule_state(reg, &spec.name, "slow", &spec.slow),
                    spec,
                }
            })
            .collect();
        SloEngine {
            inner: Mutex::new(EngineInner {
                slos,
                events: VecDeque::with_capacity(EVENT_CAP),
            }),
        }
    }

    /// Builds the engine against the process-wide registry.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine::with_registry(crate::global(), specs)
    }

    /// Evaluates every rule against the store's current history at store
    /// time `t`. Allocation-free unless an alert transitions.
    pub fn evaluate(&self, store: &TimeStore, t: f64) {
        let mut inner = self.inner.lock().expect("slo lock");
        let inner = &mut *inner;
        for slo in &mut inner.slos {
            let budget = 1.0 - slo.spec.objective;
            for (rule, state) in [
                (&slo.spec.fast, &mut slo.fast),
                (&slo.spec.slow, &mut slo.slow),
            ] {
                let short = burn_over(
                    store,
                    &slo.spec.bad,
                    &slo.spec.total,
                    rule.short_window,
                    budget,
                    slo.spec.min_events,
                );
                let long = burn_over(
                    store,
                    &slo.spec.bad,
                    &slo.spec.total,
                    rule.long_window,
                    budget,
                    slo.spec.min_events,
                );
                state.last_burn = long;
                state.short_gauge.set(short);
                state.long_gauge.set(long);
                let over = short >= rule.burn_threshold && long >= rule.burn_threshold;
                let resolve_line = slo.spec.resolve_factor * rule.burn_threshold;
                let calm = short < resolve_line && long < resolve_line;
                let transition = if !state.firing && over {
                    state.firing = true;
                    state.healthy_streak = 0;
                    state.fired_total.inc();
                    Some(true)
                } else if state.firing {
                    if calm {
                        state.healthy_streak += 1;
                        if state.healthy_streak >= slo.spec.resolve_hold {
                            state.firing = false;
                            state.resolved_total.inc();
                            Some(false)
                        } else {
                            None
                        }
                    } else {
                        // Hysteresis: any not-calm evaluation restarts the
                        // resolve hold, including the in-between band
                        // `[resolve_line, threshold)` that neither fires
                        // nor calms — the anti-flap region.
                        state.healthy_streak = 0;
                        None
                    }
                } else {
                    None
                };
                state.firing_gauge.set(if state.firing { 1.0 } else { 0.0 });
                if let Some(firing) = transition {
                    if inner.events.len() == EVENT_CAP {
                        inner.events.pop_front();
                    }
                    inner.events.push_back(AlertEvent {
                        t,
                        slo: slo.spec.name.clone(),
                        alert: if std::ptr::eq(rule, &slo.spec.fast) {
                            "fast"
                        } else {
                            "slow"
                        },
                        firing,
                    });
                }
            }
        }
    }

    /// Worst-case burn summary plus the firing count.
    pub fn status(&self) -> SloStatus {
        let inner = self.inner.lock().expect("slo lock");
        let mut s = SloStatus::default();
        for slo in &inner.slos {
            s.fast_burn = s.fast_burn.max(slo.fast.last_burn);
            s.slow_burn = s.slow_burn.max(slo.slow.last_burn);
            s.firing += u32::from(slo.fast.firing) + u32::from(slo.slow.firing);
        }
        s
    }

    /// Long-window burn rates of one named SLO: `(fast rule, slow rule)`,
    /// as of the most recent evaluation. `None` for an unknown name.
    pub fn slo_burns(&self, slo: &str) -> Option<(f64, f64)> {
        let inner = self.inner.lock().expect("slo lock");
        inner
            .slos
            .iter()
            .find(|s| s.spec.name == slo)
            .map(|s| (s.fast.last_burn, s.slow.last_burn))
    }

    /// Whether a specific rule (`"fast"`/`"slow"`) of a named SLO is
    /// currently firing.
    pub fn is_firing(&self, slo: &str, alert: &str) -> bool {
        let inner = self.inner.lock().expect("slo lock");
        inner
            .slos
            .iter()
            .find(|s| s.spec.name == slo)
            .is_some_and(|s| match alert {
                "fast" => s.fast.firing,
                "slow" => s.slow.firing,
                _ => false,
            })
    }

    /// The retained transition events, oldest first.
    pub fn events(&self) -> Vec<AlertEvent> {
        let inner = self.inner.lock().expect("slo lock");
        inner.events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TsConfig;

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    /// Build a deadline SLO with second-scale test windows.
    fn test_spec() -> SloSpec {
        let mut spec = SloSpec::new(
            "deadline",
            SeriesRef::new("t_deadline_miss_total", &[("server", "a")]),
            SeriesRef::new("t_deadline_total", &[("server", "a")]),
            0.999,
        );
        spec.fast = AlertRule {
            short_window: 5.0,
            long_window: 20.0,
            burn_threshold: 14.4,
        };
        spec.slow = AlertRule {
            short_window: 20.0,
            long_window: 60.0,
            burn_threshold: 6.0,
        };
        spec
    }

    /// The acceptance regression: a synthetic deadline-miss burst fires
    /// the fast-window alert, recovery resolves it, and the transition
    /// log shows exactly one firing→resolved cycle — no flapping across
    /// either boundary.
    #[test]
    fn burst_fires_fast_alert_and_recovery_resolves_without_flapping() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 128,
                hist_capacity: 2,
            },
        );
        let total = reg.counter_with("t_deadline_total", &[("server", "a")], "");
        let miss = reg.counter_with("t_deadline_miss_total", &[("server", "a")], "");
        let engine = SloEngine::with_registry(reg, vec![test_spec()]);

        let mut fired_at = None;
        let mut resolved_at = None;
        for t in 1..=120u64 {
            total.add(100);
            if (40..50).contains(&t) {
                miss.add(50); // 50 % misses: burn 500 ≫ 14.4
            }
            store.tick_at(t as f64);
            engine.evaluate(&store, t as f64);
            let firing = engine.is_firing("deadline", "fast");
            if firing && fired_at.is_none() {
                fired_at = Some(t);
            }
            if fired_at.is_some() && resolved_at.is_none() && !firing {
                resolved_at = Some(t);
            }
        }
        let fired_at = fired_at.expect("fast alert never fired");
        let resolved_at = resolved_at.expect("fast alert never resolved");
        assert!(
            (40..=45).contains(&fired_at),
            "fired at {fired_at}, expected within the burst"
        );
        // The long (20 s) window stays hot until the burst ages out at
        // t≈70, then resolve_hold=3 calm evaluations must pass.
        assert!(
            (52..=80).contains(&resolved_at),
            "resolved at {resolved_at}"
        );

        // No flapping: the fast rule transitioned exactly twice, in order.
        let fast_events: Vec<_> = engine
            .events()
            .into_iter()
            .filter(|e| e.alert == "fast")
            .collect();
        assert_eq!(fast_events.len(), 2, "fast rule flapped: {fast_events:?}");
        assert!(fast_events[0].firing && !fast_events[1].firing);
        assert_eq!(fast_events[0].t, fired_at as f64);
        assert_eq!(fast_events[1].t, resolved_at as f64);

        // Gauges mirror the final state — both in the registry and in the
        // store's sampled history.
        let g = reg.gauge_with(
            "slo_alert_firing",
            &[("slo", "deadline"), ("alert", "fast")],
            "",
        );
        assert_eq!(g.get(), 0.0);
        assert_eq!(
            store.gauge_last(
                "slo_alert_firing",
                &[("slo", "deadline"), ("alert", "fast")]
            ),
            Some(0.0),
        );
        let fired = reg.counter_with(
            "slo_alert_transitions_total",
            &[("slo", "deadline"), ("alert", "fast"), ("to", "firing")],
            "",
        );
        let resolved = reg.counter_with(
            "slo_alert_transitions_total",
            &[("slo", "deadline"), ("alert", "fast"), ("to", "resolved")],
            "",
        );
        assert_eq!((fired.get(), resolved.get()), (1, 1));
    }

    /// Burn in the anti-flap band `[resolve_line, threshold)` must keep a
    /// firing alert firing and a resolved alert resolved.
    #[test]
    fn hysteresis_band_neither_fires_nor_resolves() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 128,
                hist_capacity: 2,
            },
        );
        let total = reg.counter_with("t_deadline_total", &[("server", "a")], "");
        let miss = reg.counter_with("t_deadline_miss_total", &[("server", "a")], "");
        let mut spec = test_spec();
        // Tight windows so each tick dominates both.
        spec.fast = AlertRule {
            short_window: 1.0,
            long_window: 2.0,
            burn_threshold: 14.4,
        };
        // Park the slow rule so the event log isolates the fast rule.
        spec.slow.burn_threshold = f64::INFINITY;
        let engine = SloEngine::with_registry(reg, vec![spec]);

        // Band ratio: threshold 14.4, resolve line 11.52 (0.8×); a 1.3 %
        // miss ratio burns at 13 — inside the band.
        let mut t = 0.0;
        let mut step = |miss_n: u64, engine: &SloEngine| {
            t += 1.0;
            total.add(1000);
            miss.add(miss_n);
            store.tick_at(t);
            engine.evaluate(&store, t);
        };
        // Not firing + band burn → stays resolved.
        for _ in 0..5 {
            step(13, &engine);
        }
        assert!(!engine.is_firing("deadline", "fast"));
        // Cross the threshold → fires.
        for _ in 0..3 {
            step(30, &engine);
        }
        assert!(engine.is_firing("deadline", "fast"));
        // Back into the band → must NOT resolve, however long.
        for _ in 0..10 {
            step(13, &engine);
        }
        assert!(engine.is_firing("deadline", "fast"));
        // Calm → resolves after the hold.
        for _ in 0..5 {
            step(0, &engine);
        }
        assert!(!engine.is_firing("deadline", "fast"));
        assert_eq!(engine.events().len(), 2);
    }

    #[test]
    fn idle_service_is_healthy_and_status_aggregates() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(reg, TsConfig::default());
        let _total = reg.counter_with("t_deadline_total", &[("server", "a")], "");
        let _miss = reg.counter_with("t_deadline_miss_total", &[("server", "a")], "");
        let engine = SloEngine::with_registry(reg, vec![test_spec()]);
        store.tick_at(1.0);
        store.tick_at(2.0);
        engine.evaluate(&store, 2.0);
        let s = engine.status();
        assert_eq!(s, SloStatus::default());
        assert!(!engine.is_firing("deadline", "fast"));
        assert!(!engine.is_firing("nope", "fast"));
        assert!(engine.events().is_empty());
    }
}

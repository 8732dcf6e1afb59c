//! One unified record per scheduling run: analytic cost, routed traffic
//! and collected [`Metrics`] side by side.
//!
//! The analytic model (`pim-sched`), the routed simulation (this crate)
//! and the observability layer (`pim-metrics`) each describe the same run
//! from a different angle. [`RunReport`] flattens all three into a single
//! serializable row — the export format behind `pim-cli run --metrics`
//! and the per-row `"metrics"` objects in `BENCH_sched.json` — and
//! [`collect_run_report`] is the one-call front end that produces it.
//!
//! JSON is hand-rolled ([`RunReport::to_json`]) with the shared
//! [`pim_trace::json`] escaper: the offline build has no JSON crate.

use crate::cycle::CycleResult;
use crate::error::RunError;
use crate::report::SimReport;
use pim_par::Pool;
use pim_sched::schedule::{CostBreakdown, Schedule};
use pim_sched::{MemoryPolicy, Metrics, MetricsReport, Run};
use pim_trace::flat::FlatView;
use pim_trace::json;

/// Everything one run produced, in export order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Registry name of the scheduler that produced the run.
    pub scheduler: String,
    /// Memory policy the run scheduled under (debug form).
    pub policy: String,
    /// Analytic total cost — must equal `total_hop_volume`.
    pub analytic_total: u64,
    /// Analytic volume-weighted reference traffic.
    pub analytic_reference: u64,
    /// Analytic inter-window movement traffic.
    pub analytic_movement: u64,
    /// Routed hop-volume over all windows.
    pub total_hop_volume: u64,
    /// Routed fetch hop-volume.
    pub fetch_hop_volume: u64,
    /// Routed move hop-volume.
    pub move_hop_volume: u64,
    /// Sum of per-window completion-time lower bounds.
    pub completion_time: u64,
    /// Sum of per-window *simulated* completion cycles (cycle-accurate,
    /// under link contention) — always ≥ `completion_time`.
    pub simulated_completion_cycles: u64,
    /// Largest per-window peak of flits simultaneously in flight.
    pub peak_in_flight: usize,
    /// Simulated completion cycle of every window, in window order.
    pub window_completion_cycles: Vec<u64>,
    /// Sum of per-window completion cycles under precedence-gated release
    /// ([`crate::simulate_cycles_dag`]), when the run carried a task DAG.
    pub dag_completion_cycles: Option<u64>,
    /// Per-window gated completion cycles (empty without a DAG).
    pub dag_window_completion_cycles: Vec<u64>,
    /// Most loaded link (`"src->dst"`), if any traffic flowed.
    pub hottest_link: Option<String>,
    /// Volume on the hottest link (0 when no traffic flowed).
    pub hottest_link_volume: u64,
    /// Mean volume over links that carried traffic.
    pub mean_active_link_volume: f64,
    /// Hottest over mean active link volume.
    pub link_imbalance: f64,
    /// Scheduler-side observability (cache, phases, placements, pool).
    pub metrics: MetricsReport,
}

impl RunReport {
    /// Assemble a report from the pieces a caller already has (the bench
    /// tables schedule and simulate themselves; [`collect_run_report`]
    /// does the whole pipeline for everyone else).
    pub fn from_parts(
        scheduler: &str,
        policy: MemoryPolicy,
        analytic: CostBreakdown,
        sim: &SimReport,
        cycles: &[CycleResult],
        metrics: MetricsReport,
    ) -> Self {
        let (hottest_link, hottest_link_volume) = match sim.hottest_link() {
            Some((l, v)) => (Some(l.to_string()), v),
            None => (None, 0),
        };
        RunReport {
            scheduler: scheduler.to_string(),
            policy: format!("{policy:?}"),
            analytic_total: analytic.total(),
            analytic_reference: analytic.reference,
            analytic_movement: analytic.movement,
            total_hop_volume: sim.total_hop_volume(),
            fetch_hop_volume: sim.total_fetch_hop_volume(),
            move_hop_volume: sim.total_move_hop_volume(),
            completion_time: sim.total_completion_time(),
            simulated_completion_cycles: cycles.iter().map(|c| c.completion_cycle).sum(),
            peak_in_flight: cycles.iter().map(|c| c.peak_in_flight).max().unwrap_or(0),
            window_completion_cycles: cycles.iter().map(|c| c.completion_cycle).collect(),
            dag_completion_cycles: None,
            dag_window_completion_cycles: Vec::new(),
            hottest_link,
            hottest_link_volume,
            mean_active_link_volume: sim.mean_active_link_volume(),
            link_imbalance: sim.link_imbalance(),
            metrics,
        }
    }

    /// Attach precedence-gated cycle results (`pim-cli run --dag`, the
    /// DAG bench tables): the report gains a `"dag"` JSON section.
    pub fn with_dag_cycles(mut self, cycles: &[CycleResult]) -> Self {
        self.dag_completion_cycles = Some(cycles.iter().map(|c| c.completion_cycle).sum());
        self.dag_window_completion_cycles = cycles.iter().map(|c| c.completion_cycle).collect();
        self
    }

    /// Serialize as one JSON object. Non-finite float fields render as
    /// `0.0` — the struct's fields are public, and a hand-assembled report
    /// must not be able to emit bare `NaN` (invalid JSON).
    pub fn to_json(&self) -> String {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let hottest = match &self.hottest_link {
            Some(l) => format!("\"{}\"", json::escape(l)),
            None => "null".to_string(),
        };
        let windows = self
            .window_completion_cycles
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let dag = match self.dag_completion_cycles {
            Some(total) => format!(
                "\"dag\":{{\"completion_cycles\":{},\"window_completion_cycles\":[{}]}},",
                total,
                self.dag_window_completion_cycles
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"scheduler\":\"{}\",\"policy\":\"{}\",",
                "\"analytic\":{{\"total\":{},\"reference\":{},\"movement\":{}}},",
                "\"sim\":{{\"total_hop_volume\":{},\"fetch_hop_volume\":{},",
                "\"move_hop_volume\":{},\"completion_time\":{},",
                "\"hottest_link\":{},\"hottest_link_volume\":{},",
                "\"mean_active_link_volume\":{:.4},\"link_imbalance\":{:.4}}},",
                "\"cycle\":{{\"completion_cycles\":{},\"peak_in_flight\":{},",
                "\"window_completion_cycles\":[{}]}},{}",
                "\"metrics\":{}}}"
            ),
            json::escape(&self.scheduler),
            json::escape(&self.policy),
            self.analytic_total,
            self.analytic_reference,
            self.analytic_movement,
            self.total_hop_volume,
            self.fetch_hop_volume,
            self.move_hop_volume,
            self.completion_time,
            hottest,
            self.hottest_link_volume,
            finite(self.mean_active_link_volume),
            finite(self.link_imbalance),
            self.simulated_completion_cycles,
            self.peak_in_flight,
            windows,
            dag,
            self.metrics.to_json(),
        )
    }
}

/// Schedule `name` over `trace` under `policy`, simulate the result (both
/// the routed hop-volume pass and the cycle-accurate pass), and return the
/// unified report (plus the schedule for further use).
///
/// `metrics` decides the observability depth: pass
/// [`Metrics::enabled()`] to collect cache/phase/placement/pool data, or
/// [`Metrics::disabled()`] for a zero-overhead run whose report carries
/// `"enabled": false` and zeros. The schedule is bit-identical either way
/// (property-tested in the conformance suite). Either pipeline half can
/// fail, hence the combined [`RunError`].
pub fn collect_run_report(
    name: &str,
    trace: &dyn FlatView,
    policy: MemoryPolicy,
    pool: Pool,
    metrics: Metrics,
) -> Result<(Schedule, RunReport), RunError> {
    let schedule = Run::new(trace)
        .policy(policy)
        .parallel(pool)
        .metrics(metrics.clone())
        .run_named(name)
        .map_err(RunError::Sched)?;
    let sim = crate::simulate(trace, &schedule, pool);
    let cycles = crate::cycle::simulate_cycles_observed(trace, &schedule, pool, &metrics)
        .map_err(RunError::Sim)?;
    let analytic = schedule.evaluate(trace);
    let canonical = pim_sched::registry()
        .get(name)
        .map(|s| s.name())
        .unwrap_or(name);
    let report =
        RunReport::from_parts(canonical, policy, analytic, &sim, &cycles, metrics.report());
    Ok((schedule, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::Grid;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    /// The paper's running example shape: a 4×4 array.
    fn paper_trace() -> FlatTrace {
        let grid = Grid::new(4, 4);
        FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 4)]),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn total_hop_volume_equals_analytic_cost() {
        let trace = paper_trace();
        for name in ["SCDS", "LOMCDS", "GOMCDS"] {
            let (schedule, report) = collect_run_report(
                name,
                &trace,
                MemoryPolicy::Unbounded,
                Pool::serial(),
                Metrics::enabled(),
            )
            .unwrap();
            assert_eq!(
                report.total_hop_volume,
                schedule.evaluate(&trace).total(),
                "{name}: routed volume vs analytic cost"
            );
            assert_eq!(report.analytic_total, report.total_hop_volume);
            assert!(report.metrics.enabled);
            // cycle-accurate completion can never beat the lower bound
            assert!(report.simulated_completion_cycles >= report.completion_time);
            assert_eq!(
                report.window_completion_cycles.len(),
                trace.num_windows(),
                "one simulated completion per window"
            );
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let trace = paper_trace();
        let err = collect_run_report(
            "no-such",
            &trace,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            Metrics::disabled(),
        )
        .expect_err("unknown scheduler");
        assert!(matches!(
            err,
            RunError::Sched(pim_sched::SchedError::UnknownScheduler(_))
        ));
    }

    #[test]
    fn json_has_the_three_sections() {
        let trace = paper_trace();
        let (_, report) = collect_run_report(
            "gomcds",
            &trace,
            MemoryPolicy::Capacity(2),
            Pool::serial(),
            Metrics::enabled(),
        )
        .unwrap();
        let json = report.to_json();
        for key in [
            "\"scheduler\":\"GOMCDS\"",
            "\"policy\":",
            "\"analytic\":",
            "\"sim\":",
            "\"total_hop_volume\":",
            "\"hottest_link\":",
            "\"cycle\":",
            "\"completion_cycles\":",
            "\"peak_in_flight\":",
            "\"window_completion_cycles\":[",
            "\"metrics\":",
            "\"enabled\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\\u{"), "raw rust escapes leaked");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        let trace = paper_trace();
        let (_, mut report) = collect_run_report(
            "gomcds",
            &trace,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            Metrics::disabled(),
        )
        .unwrap();
        report.scheduler = "a\"b\\c".to_string();
        report.policy = "x\ny".to_string();
        report.hottest_link = Some("\u{1}".to_string());
        let text = report.to_json();
        assert!(text.contains("\"scheduler\":\"a\\\"b\\\\c\""), "{text}");
        assert!(text.contains("\"policy\":\"x\\ny\""), "{text}");
        assert!(text.contains("\"hottest_link\":\"\\u0001\""), "{text}");
        let doc = json::parse(&text).expect("escaped report is valid JSON");
        assert_eq!(
            doc.get("scheduler").and_then(|v| v.as_str()),
            Some("a\"b\\c")
        );
        assert_eq!(doc.get("policy").and_then(|v| v.as_str()), Some("x\ny"));
        let sim = doc.get("sim").expect("sim section");
        assert_eq!(
            sim.get("hottest_link").and_then(|v| v.as_str()),
            Some("\u{1}")
        );
    }

    #[test]
    fn dag_section_appears_only_when_attached() {
        let trace = paper_trace();
        let (schedule, report) = collect_run_report(
            "gomcds",
            &trace,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            Metrics::disabled(),
        )
        .unwrap();
        assert!(!report.to_json().contains("\"dag\":"));
        // Edge-free cover DAG: gated cycles equal the plain ones.
        let mut tasks = Vec::new();
        for w in 0..trace.num_windows() {
            for d in 0..trace.num_data() {
                let d = pim_trace::ids::DataId(d as u32);
                if !trace.window_run(d, w).is_empty() {
                    tasks.push(pim_trace::dag::Task {
                        window: w as u32,
                        data: vec![d],
                        wcet: 1,
                    });
                }
            }
        }
        let dag = pim_trace::dag::TaskDag::new(trace.num_windows(), tasks, vec![]).unwrap();
        let gated = crate::simulate_cycles_dag(&trace, &schedule, &dag, Pool::serial()).unwrap();
        let report = report.with_dag_cycles(&gated);
        assert_eq!(
            report.dag_completion_cycles,
            Some(report.simulated_completion_cycles)
        );
        let json = report.to_json();
        assert!(json.contains("\"dag\":{\"completion_cycles\":"), "{json}");
        assert!(json.contains("\"window_completion_cycles\":["), "{json}");
    }
}

//! The benchmark's own checks, on tiny instances: traced and untraced
//! runs agree on costs, the layer figures of each workload add up to its
//! traced job, the parse/build split is positive, and `BENCHMARK.json`
//! lists exactly the metrics a run reports.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use perfbench::report::Metric;
use perfbench::{run, Outcome, RunConfig, Workload, E2E_METRICS, LAYER_METRICS};
use pim_trace::json::{self, Value};

fn tiny(workload: Workload, traced: bool) -> Outcome {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let cfg = RunConfig {
        workload,
        seed: 42,
        seconds: 0.3,
        traced,
        shape: workload.tiny_shape(),
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{n}", workload.name())),
        setup_reps: 1,
        setup_seconds: 0.0,
        pinned: Vec::new(),
    };
    let out = run(&cfg);
    assert!(
        out.correct(),
        "{} traced={traced}: {:?}",
        workload.name(),
        out.notes
    );
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

fn names(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

/// How far the layer figures that partition a job may sum from the
/// traced job time, as a share of it.
const PARTITION_TOLERANCE: f64 = 0.05;

/// The per-layer figures that together make up one job of `w`, in
/// seconds, and what they should add up to. Every figure is measured on
/// its own (a median of its own spans, or of separate layer calls), so a
/// layer split that misses or double-counts part of the job shows here.
fn partition(w: Workload, out: &Outcome) -> (Vec<(&'static str, f64)>, f64) {
    let m = |name: &'static str| (name, value(&out.metrics, name));
    let job_s = value(&out.metrics, "bench.job_traced_ms") / 1e3;
    match w {
        Workload::TextBatch => (
            vec![
                m("trace.flat.from_reader_s"),
                m("sched.flat.scds_unbounded_s"),
                m("sched.replay.scds_s"),
                m("sched.fold.scds_s"),
                m("sched.flat.lomcds_unbounded_s"),
                m("sched.replay.lomcds_s"),
                m("sched.fold.lomcds_s"),
            ],
            job_s,
        ),
        Workload::StreamPimb => (
            vec![m("sched.stream.scds_s"), m("sched.stream.lomcds_s")],
            job_s,
        ),
        Workload::GomcdsDp => (
            vec![
                m("trace.binfmt.open_s"),
                m("sched.flat.gomcds_unbounded_s"),
                m("sched.replay.gomcds_s"),
                m("sched.fold.gomcds_s"),
            ],
            job_s,
        ),
        // A warm schedule on an idle daemon, as its client sees it: the
        // core's work (decode included) plus a ping's round trip through
        // transport and queue. Under the two clients of a session,
        // requests also wait for each other, which no layer figure covers.
        Workload::ServeMixed => {
            let us = |(name, v): (&'static str, f64)| (name, v / 1e6);
            (
                vec![us(m("serve.core.schedule_us")), us(m("serve.transport_us"))],
                out.spans.median_s("serve.request.isolated"),
            )
        }
    }
}

// One test walks every workload in turn: the checks time spans, and
// workloads run side by side would disturb each other's timings.
#[test]
fn traced_and_untraced_runs_agree_and_layers_add_up_to_the_job() {
    for w in Workload::ALL {
        let plain = tiny(w, false);
        let traced = tiny(w, true);
        assert_eq!(plain.costs, traced.costs, "{}: costs differ", w.name());
        assert!(!plain.costs.is_empty());
        assert_eq!(names(&plain.metrics), E2E_METRICS.to_vec());
        assert_eq!(names(&traced.metrics), LAYER_METRICS.to_vec());
        for m in plain.metrics.iter().chain(&traced.metrics) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(value(&plain.metrics, "job_p10_ms") > 0.0);

        let (parts, whole) = partition(w, &traced);
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        assert!(whole > 0.0, "{}: no traced job time", w.name());
        assert!(
            (sum - whole).abs() <= PARTITION_TOLERANCE * whole,
            "{}: layers sum to {sum:.6} s, the traced job takes {whole:.6} s: {parts:?}",
            w.name()
        );
    }
}

/// `parse_self_s` is by definition `from_reader_s - from_records_s` (the
/// library has no public parse-only call); what can go wrong is a build
/// measured on different records than the parse, which would make
/// building alone outrun parse and build together.
#[test]
fn parse_and_build_split_the_text_load() {
    let out = tiny(Workload::TextBatch, true);
    let m = &out.metrics;
    let (reader, records, parse) = (
        value(m, "trace.flat.from_reader_s"),
        value(m, "trace.flat.from_records_s"),
        value(m, "trace.flat.parse_self_s"),
    );
    assert!(
        records > 0.0 && reader > records,
        "reader {reader} s, records {records} s"
    );
    assert!(parse > 0.0, "parse {parse} s");
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_runs_report() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), own(E2E_METRICS));
    assert_eq!(listed(&doc, "per_layer"), own(LAYER_METRICS));
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            let field = |f: &str| w.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, ours);
}

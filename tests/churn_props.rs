//! Property tests for incremental rescheduling under churn: random base
//! traces driven through random edit sequences must keep the incremental
//! engine's schedule **bit-identical** to a from-scratch re-schedule of
//! the materialized trace after *every* delta — for every supported
//! method under unbounded, scaled-minimum, and tight explicit capacity —
//! and its running cost ([`IncrementalRun::cost`]) equal to a full fold
//! of that schedule over the materialized trace.
//!
//! This pins the ≥10× churn speedup claim to exactness: the fast path is
//! only allowed to exist because these tests hold.

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::{
    flat_gomcds, flat_lomcds, flat_scds, flat_total_cost, IncrementalRun, MemoryPolicy, Method,
    Metrics, Schedule,
};
use pim_trace::edit::TraceDelta;
use pim_trace::flat::{FlatRecord, FlatTrace};
use pim_trace::ids::DataId;
use proptest::prelude::*;

/// A base instance small enough to re-solve from scratch after every edit.
#[derive(Debug, Clone)]
struct Instance {
    grid: Grid,
    num_windows: usize,
    num_data: usize,
    records: Vec<(u32, u32, u32, u32)>, // (datum, window, proc, count)
}

impl Instance {
    fn flat(&self) -> FlatTrace {
        FlatTrace::from_records(
            self.grid,
            self.num_windows,
            self.num_data,
            self.records.iter().map(|&(d, w, p, c)| FlatRecord {
                datum: DataId(d),
                window: w,
                proc: ProcId(p),
                count: c,
            }),
        )
        .expect("strategy emits only in-range records")
    }
}

/// One raw edit op; indices are reduced modulo the live bounds at apply
/// time so appends composing with rewrites stay in range.
#[derive(Debug, Clone)]
enum RawOp {
    SetRun {
        datum: u32,
        window: u32,
        refs: Vec<(u32, u32)>,
    },
    AppendWindow {
        rows: Vec<(u32, u32, u32)>,
    },
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    ((2u32..=4, 2u32..=4), 1usize..=4, 1usize..=5).prop_flat_map(|((w, h), nw, nd)| {
        let m = w * h;
        proptest::collection::vec(
            (0..nd as u32, 0..nw as u32, 0..m, 1u32..5),
            0..=(3 * nd).min(12),
        )
        .prop_map(move |records| Instance {
            grid: Grid::new(w, h),
            num_windows: nw,
            num_data: nd,
            records,
        })
    })
}

/// A 4×4 instance of 64–160 data: enough for one delta to dirty the 64
/// data from which a resolve fans its kernel out over the pool.
fn arb_wide_instance() -> impl Strategy<Value = Instance> {
    (64usize..=160, 1usize..=4).prop_flat_map(|(nd, nw)| {
        proptest::collection::vec((0..nd as u32, 0..nw as u32, 0u32..16, 1u32..5), nd..=2 * nd)
            .prop_map(move |records| Instance {
                grid: Grid::new(4, 4),
                num_windows: nw,
                num_data: nd,
                records,
            })
    })
}

/// One run rewrite for each of 64–160 consecutive data from `start`; the
/// ids wrap modulo the data count, so at least 64 distinct data change.
fn arb_wide_delta() -> impl Strategy<Value = Vec<RawOp>> {
    let run = (
        0u32..=u32::MAX,
        proptest::collection::vec((0u32..=u32::MAX, 1u32..5), 0..3),
    );
    (0u32..160, proptest::collection::vec(run, 64..=160)).prop_map(|(start, runs)| {
        runs.into_iter()
            .enumerate()
            .map(|(i, (window, refs))| RawOp::SetRun {
                datum: start + i as u32,
                window,
                refs,
            })
            .collect()
    })
}

/// Edit sequence: 1–4 deltas of 1–3 ops each. `SetRun` refs may be empty
/// (run removal) and `AppendWindow` rows may be empty (an idle window).
fn arb_deltas() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    let op = prop_oneof![
        (
            0u32..=u32::MAX,
            0u32..=u32::MAX,
            proptest::collection::vec((0u32..=u32::MAX, 1u32..5), 0..3),
        )
            .prop_map(|(datum, window, refs)| RawOp::SetRun {
                datum,
                window,
                refs
            }),
        proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX, 1u32..5), 0..3)
            .prop_map(|rows| RawOp::AppendWindow { rows }),
    ];
    proptest::collection::vec(proptest::collection::vec(op, 1..=3), 1..=4)
}

/// Reduce a raw delta against the live instance bounds, tracking appended
/// windows so later ops in the same delta may target them.
fn concretize(inst: &Instance, mut num_windows: usize, raw: &[RawOp]) -> TraceDelta {
    let m = inst.grid.num_procs() as u32;
    let nd = inst.num_data as u32;
    let mut delta = TraceDelta::new();
    for op in raw {
        match op {
            RawOp::SetRun {
                datum,
                window,
                refs,
            } => {
                delta.set_run(
                    DataId(datum % nd),
                    window % num_windows as u32,
                    refs.iter().map(|&(p, c)| (ProcId(p % m), c)),
                );
            }
            RawOp::AppendWindow { rows } => {
                delta.append_window(
                    rows.iter()
                        .map(|&(d, p, c)| (DataId(d % nd), ProcId(p % m), c)),
                );
                num_windows += 1;
            }
        }
    }
    delta
}

fn scratch(flat: &FlatTrace, method: Method, policy: MemoryPolicy) -> Schedule {
    let pool = Pool::serial();
    match method {
        Method::Scds => flat_scds(flat, policy, pool),
        Method::Lomcds => flat_lomcds(flat, policy, pool),
        _ => flat_gomcds(flat, policy, pool),
    }
    .expect("policies chosen feasible")
}

/// The engine's schedule equals a from-scratch run of the materialized
/// trace under its policy, and its running cost equals a full fold of
/// that schedule.
fn check_engine(engine: &mut IncrementalRun, what: &str) -> Result<(), proptest::TestCaseError> {
    let flat = engine.trace().materialize();
    let (method, policy) = (engine.method(), engine.policy());
    let want = scratch(&flat, method, policy);
    prop_assert_eq!(
        engine.schedule(),
        &want,
        "{} diverged under {:?} ({})",
        method,
        policy,
        what
    );
    let fold = flat_total_cost(&flat, engine.schedule());
    let cost = engine.cost().expect("resolved engine");
    prop_assert_eq!(
        cost,
        fold,
        "{} cost ledger diverged under {:?} ({})",
        method,
        policy,
        what
    );
    Ok(())
}

const METHODS: [Method; 3] = [Method::Scds, Method::Lomcds, Method::Gomcds];

/// Feasible policy set for an instance: unbounded, the paper's scaled
/// minimum, and the tightest explicit capacity that still fits the data.
fn policies(inst: &Instance) -> [MemoryPolicy; 3] {
    let tight = (inst.num_data as u32).div_ceil(inst.grid.num_procs() as u32);
    [
        MemoryPolicy::Unbounded,
        MemoryPolicy::ScaledMinimum { factor: 2 },
        MemoryPolicy::Capacity(tight.max(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine tracks a from-scratch re-schedule bit for bit after
    /// every delta of a random edit sequence, and so does its running
    /// cost. Even deltas go through `incremental`; odd ones are batched,
    /// one `apply` per op and a single `resolve`. Each run ends with an
    /// appended window and a switch to the next policy.
    #[test]
    fn incremental_tracks_scratch_after_every_delta(
        inst in arb_instance(),
        deltas in arb_deltas(),
    ) {
        let policies = policies(&inst);
        for method in METHODS {
            for (k, &policy) in policies.iter().enumerate() {
                let mut engine =
                    IncrementalRun::new(inst.flat(), method, policy, Pool::serial())
                        .expect("supported method");
                check_engine(&mut engine, "initial")?;
                let mut num_windows = inst.num_windows;
                for (i, raw) in deltas.iter().enumerate() {
                    if i % 2 == 0 {
                        let delta = concretize(&inst, num_windows, raw);
                        engine.incremental(&delta).expect("in-range delta");
                    } else {
                        for op in raw {
                            let delta = concretize(&inst, num_windows, std::slice::from_ref(op));
                            engine.apply(&delta).expect("in-range delta");
                        }
                        engine.resolve().expect("feasible policy");
                    }
                    num_windows += raw
                        .iter()
                        .filter(|op| matches!(op, RawOp::AppendWindow { .. }))
                        .count();
                    check_engine(&mut engine, &format!("delta {i}"))?;
                }
                let mut append = TraceDelta::new();
                append.append_window([(DataId(0), ProcId(0), 2)]);
                engine.incremental(&append).expect("in-range delta");
                check_engine(&mut engine, "append")?;
                engine
                    .set_policy(policies[(k + 1) % policies.len()])
                    .expect("feasible policy");
                check_engine(&mut engine, "policy switch")?;
            }
        }
    }

    /// Degenerate deltas — empty delta, run removal, empty appended
    /// window — leave the engine in lockstep with scratch too.
    #[test]
    fn degenerate_deltas_hold_parity(inst in arb_instance()) {
        for method in METHODS {
            let policy = MemoryPolicy::Unbounded;
            let mut engine =
                IncrementalRun::new(inst.flat(), method, policy, Pool::serial())
                    .expect("supported method");
            let before = engine.schedule().clone();

            // Empty delta: no version bump, schedule untouched.
            let v = engine.version();
            engine.incremental(&TraceDelta::new()).unwrap();
            prop_assert_eq!(engine.version(), v);
            prop_assert_eq!(engine.schedule(), &before);

            // Remove datum 0's run in window 0, then append an empty window.
            let mut delta = TraceDelta::new();
            delta.remove_run(DataId(0), 0);
            delta.append_window([]);
            engine.incremental(&delta).unwrap();
            check_engine(&mut engine, "removal and idle window")?;
        }
    }

    /// A delta that dirties at least 64 data takes the resolve's pooled
    /// branch (on a two-thread pool) and still tracks scratch bit for bit,
    /// cost ledger included, for every method and policy.
    #[test]
    fn pooled_resolves_track_scratch(
        inst in arb_wide_instance(),
        raw in arb_wide_delta(),
    ) {
        let delta = concretize(&inst, inst.num_windows, &raw);
        for method in METHODS {
            for policy in policies(&inst) {
                let metrics = Metrics::enabled();
                let mut engine = IncrementalRun::with_metrics(
                    inst.flat(),
                    method,
                    policy,
                    Pool::with_threads(2),
                    metrics.clone(),
                )
                .expect("supported method");
                engine.incremental(&delta).expect("in-range delta");
                prop_assert!(metrics.report().incremental.dirty_data >= 64);
                check_engine(&mut engine, "pooled delta")?;
            }
        }
    }
}

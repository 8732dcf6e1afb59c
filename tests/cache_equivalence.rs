//! Bit-identity of the cached scheduling path.
//!
//! The shared cost-table cache ([`pim_sched::CostCache`]), the reusable
//! [`pim_sched::Workspace`], and the persistent `pim-par` worker pool are
//! pure performance work: every schedule they produce must be *bit
//! identical* to the pre-cache reference implementations
//! ([`pim_reference::schedule`]) across random traces, degenerate and
//! non-square grids, and every memory policy. The old code survives, out
//! of the library, as the oracle.
//!
//! Since the `Scheduler`-trait refactor this doubles as the registry-wide
//! conformance suite: `registry_conformance_across_wrappers` drives every
//! *registered* strategy — including `baseline`/`online`/`kcopy`/
//! `replicate`, which have no `Method` variant — through the sequential
//! and parallel execution wrappers of [`pim_sched::Run`] and requires the
//! two to agree exactly. The same discipline covers the observability
//! layer: `metrics_never_change_a_schedule_bit` proves that attaching an
//! enabled [`pim_sched::Metrics`] sink is pure observation, and
//! `flat_backed_cache_bit_identical` runs the registry straight off a
//! memory-mapped `.pimb` ([`pim_trace::BinTrace`]).

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::{
    flat_gomcds, flat_lomcds, flat_scds, flat_total_cost, schedule, stream_schedule_with,
    IncrementalRun, MemoryPolicy, Method, Run, StreamConfig,
};
use pim_trace::flat::{span_window, FlatRecord, FlatTrace};
use pim_trace::ids::DataId;
use pim_trace::window::WindowRefs;
use pim_trace::BinTrace;
use proptest::prelude::*;

/// Grids the cache must handle: degenerate 1×n row, the paper's square
/// array, a non-square 7×3, and random small shapes.
fn arb_grid() -> impl Strategy<Value = Grid> {
    prop_oneof![
        Just(Grid::new(1, 7)),
        Just(Grid::new(7, 1)),
        Just(Grid::new(4, 4)),
        Just(Grid::new(7, 3)),
        (1u32..=6, 1u32..=6).prop_map(|(w, h)| Grid::new(w, h)),
    ]
}

/// Random `(processor, count)` pairs of one window over a grid (possibly
/// none); about one count in six is 0.
fn arb_refs(grid: Grid) -> impl Strategy<Value = Vec<(u32, u32)>> {
    let m = grid.num_procs() as u32;
    proptest::collection::vec((0..m, 0u32..6), 0..6)
}

/// Random windowed trace: up to 4 data × up to 6 windows, built through
/// [`FlatTrace::from_records`], which keeps zero-count records (so some
/// window runs carry no references at all).
fn arb_trace() -> impl Strategy<Value = FlatTrace> {
    arb_grid().prop_flat_map(|grid| {
        (1usize..=4, 1usize..=6).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(proptest::collection::vec(arb_refs(grid), nw..=nw), nd..=nd)
                .prop_map(move |per_data| {
                    let mut records = Vec::new();
                    for (d, windows) in per_data.iter().enumerate() {
                        for (w, pairs) in windows.iter().enumerate() {
                            records.extend(pairs.iter().map(|&(p, count)| FlatRecord {
                                datum: DataId(d as u32),
                                window: w as u32,
                                proc: ProcId(p),
                                count,
                            }));
                        }
                    }
                    FlatTrace::from_records(grid, nw, nd, records).unwrap()
                })
        })
    })
}

/// Three data over three windows on a 4×4 grid: two referenced data with
/// an interior empty window, and one never-referenced datum.
fn sample_trace() -> FlatTrace {
    let grid = Grid::new(4, 4);
    FlatTrace::from_windows(
        grid,
        vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(1, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
            ],
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
            ],
            vec![WindowRefs::new(), WindowRefs::new(), WindowRefs::new()],
        ],
    )
    .unwrap()
}

/// The flat drivers, on one and two threads, equal the pre-cache
/// reference schedulers on a fixed trace under every policy shape.
#[test]
fn flat_paths_match_classic_schedulers() {
    let flat = sample_trace();
    for (pool, policy) in [
        (Pool::with_threads(2), MemoryPolicy::Unbounded),
        (
            Pool::with_threads(2),
            MemoryPolicy::ScaledMinimum { factor: 2 },
        ),
        (Pool::with_threads(2), MemoryPolicy::Capacity(1)),
        (Pool::serial(), MemoryPolicy::Capacity(1)),
    ] {
        for (method, fast) in [
            (
                Method::Scds,
                flat_scds as fn(&FlatTrace, MemoryPolicy, Pool) -> _,
            ),
            (Method::Lomcds, flat_lomcds),
            (Method::Gomcds, flat_gomcds),
        ] {
            // The pre-cache reference schedulers are the oracle.
            let classic = pim_reference::schedule(method, &flat, policy).unwrap();
            assert_eq!(
                fast(&flat, policy, pool).unwrap(),
                classic,
                "{method} {policy:?}"
            );
        }
    }
}

/// GOMCDS with either solver, unbounded and at capacity 1, equals its
/// pre-cache reference on a fixed trace with an interior empty window.
#[test]
fn cached_matches_uncached() {
    let grid = Grid::new(5, 4);
    let trace = FlatTrace::from_windows(
        grid,
        vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
            ],
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
            ],
        ],
    )
    .unwrap();
    for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
        for method in [Method::GomcdsNaive, Method::Gomcds] {
            assert_eq!(
                schedule(method, &trace, policy),
                pim_reference::schedule(method, &trace, policy).unwrap(),
                "policy {policy:?} method {method}"
            );
        }
    }
}

/// A window run whose records all carry count 0 is an empty window for
/// LOMCDS, as for the oracle: it neither takes a center of its own nor
/// anchors the datum. Every driver of the LOMCDS kernels — registry, flat,
/// incremental and stream — must agree; both cases used to land on `P0`.
#[test]
fn zero_count_runs_are_empty_windows() {
    let grid = Grid::new(4, 4);
    let (p11, p33) = (grid.proc_xy(1, 1), grid.proc_xy(3, 3));
    let rec = |window, proc, count| FlatRecord {
        datum: DataId(0),
        window,
        proc,
        count,
    };
    let cases = [
        // An all-zero run between two references.
        vec![rec(0, p33, 2), rec(1, p11, 0), rec(2, p33, 1)],
        // An all-zero first run ahead of the first reference.
        vec![rec(0, p11, 0), rec(2, p33, 1)],
    ];
    for (i, records) in cases.into_iter().enumerate() {
        let flat = FlatTrace::from_records(grid, 3, 1, records).unwrap();
        for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
            let oracle = pim_reference::schedule(Method::Lomcds, &flat, policy).unwrap();
            assert_eq!(oracle.centers_of(DataId(0)), &[p33; 3], "case {i}");
            assert_eq!(flat_total_cost(&flat, &oracle).total(), 0, "case {i}");
            let what = format!("case {i} {policy:?}");
            assert_eq!(schedule(Method::Lomcds, &flat, policy), oracle, "{what}");
            assert_eq!(
                flat_lomcds(&flat, policy, Pool::serial()).unwrap(),
                oracle,
                "{what}"
            );
            let run =
                IncrementalRun::new(flat.clone(), Method::Lomcds, policy, Pool::serial()).unwrap();
            assert_eq!(run.schedule(), &oracle, "{what}");
        }
        let path = std::env::temp_dir().join(format!(
            "pim-cache-equivalence-{}-zero-{i}.pimb",
            std::process::id()
        ));
        pim_trace::binfmt::pack_file(&flat, &path).unwrap();
        let mut rows = Vec::new();
        let streamed = stream_schedule_with(
            &path,
            Method::Lomcds,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            StreamConfig::default(),
            |_, row| rows.push(row.to_vec()),
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(streamed.unwrap().cost.total(), 0, "case {i} streamed");
        assert_eq!(rows, vec![vec![p33; 3]], "case {i} streamed");
    }
}

/// `trace` packed into a `.pimb` and memory-mapped back. The file is
/// unlinked at once; the mapping keeps its bytes alive.
fn mapped(trace: &FlatTrace) -> BinTrace {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "pim-cache-equivalence-{}-{n}.pimb",
        std::process::id()
    ));
    pim_trace::binfmt::pack_file(trace, &path).expect("pack to the temp dir");
    let bin = BinTrace::open(&path).expect("reopen the packed trace");
    let _ = std::fs::remove_file(&path);
    bin
}

/// Memory policies to cross with every method: unconstrained, the paper's
/// doubled balanced minimum, and the tightest uniform capacity that still
/// fits every datum.
fn policies(trace: &FlatTrace) -> [MemoryPolicy; 3] {
    let tight = (trace.num_data() as u32).div_ceil(trace.grid().num_procs() as u32);
    [
        MemoryPolicy::Unbounded,
        MemoryPolicy::ScaledMinimum { factor: 2 },
        MemoryPolicy::Capacity(tight.max(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: for every method and policy, the cached
    /// dispatch produces exactly the schedule the pre-cache reference does —
    /// same centers, not just same cost.
    #[test]
    fn cached_schedules_bit_identical_to_uncached(trace in arb_trace()) {
        for method in Method::ALL {
            for policy in policies(&trace) {
                let cached = schedule(method, &trace, policy);
                let reference = pim_reference::schedule(method, &trace, policy).unwrap();
                prop_assert_eq!(
                    &cached, &reference,
                    "{} under {:?} diverged from reference", method, policy
                );
            }
        }
    }

    /// Persistent-pool determinism: any pool width produces the serial
    /// schedule, for every method (index-ordered output contract).
    #[test]
    fn persistent_pool_matches_serial(trace in arb_trace(), threads in 2usize..=8) {
        for method in Method::ALL {
            let par = |pool| Run::new(&trace).parallel(pool).run_method(method).unwrap();
            let serial = par(Pool::serial());
            let parallel = par(Pool::with_threads(threads));
            prop_assert_eq!(
                &serial, &parallel,
                "{} with {} threads diverged from serial", method, threads
            );
            // and the parallel (unconstrained) path agrees with `schedule`
            let seq = schedule(method, &trace, MemoryPolicy::Unbounded);
            prop_assert_eq!(&seq, &parallel, "{} parallel != sequential", method);
        }
    }

    /// Registry-wide conformance: every registered scheduler × every memory
    /// policy is bit-identical across the sequential and parallel execution
    /// wrappers. For bounded policies the parallel wrapper runs the
    /// two-phase scheme (parallel per-datum computation, sequential
    /// capacity replay in datum order), so this pins that the two-phase
    /// replay reproduces the sequential capacity resolution exactly — not
    /// merely the same cost.
    #[test]
    fn registry_conformance_across_wrappers(trace in arb_trace(), threads in 2usize..=8) {
        for scheduler in pim_sched::registry().iter() {
            for policy in policies(&trace) {
                let cached = Run::new(&trace).policy(policy).run(scheduler);
                let parallel = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .run(scheduler);
                prop_assert_eq!(
                    &cached, &parallel,
                    "{} under {:?}: parallel != cached", scheduler.name(), policy
                );
            }
        }
    }

    /// Metrics collection is pure observation: for every registered
    /// scheduler × policy × {sequential, parallel} wrapper, a run with an
    /// enabled metrics sink produces exactly the schedule the metrics-free
    /// run does — same centers, not just same cost.
    #[test]
    fn metrics_never_change_a_schedule_bit(trace in arb_trace(), threads in 2usize..=4) {
        for scheduler in pim_sched::registry().iter() {
            for policy in policies(&trace) {
                let plain = Run::new(&trace).policy(policy).run(scheduler);
                let metrics = pim_sched::Metrics::enabled();
                let observed = Run::new(&trace)
                    .policy(policy)
                    .metrics(metrics.clone())
                    .run(scheduler);
                prop_assert_eq!(
                    &plain, &observed,
                    "{} under {:?}: metrics changed the sequential schedule",
                    scheduler.name(), policy
                );
                let par_metrics = pim_sched::Metrics::enabled();
                let par_observed = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .metrics(par_metrics.clone())
                    .run(scheduler);
                prop_assert_eq!(
                    &plain, &par_observed,
                    "{} under {:?}: metrics changed the parallel schedule",
                    scheduler.name(), policy
                );
                // the observed runs actually recorded something observable
                prop_assert!(metrics.report().enabled);
                prop_assert!(par_metrics.report().enabled);
            }
        }
    }

    /// Without an attached DAG the precedence-aware strategies *are*
    /// GOMCDS, bit for bit, across every execution wrapper — the
    /// precedence layer is invisible until `Run::dag` opts in.
    #[test]
    fn precedence_schedulers_without_a_dag_are_gomcds(
        trace in arb_trace(),
        threads in 2usize..=4,
    ) {
        for policy in policies(&trace) {
            let gomcds = Run::new(&trace).policy(policy).run_named("GOMCDS");
            for name in ["list-scds", "edf-scds"] {
                let s = Run::new(&trace).policy(policy).run_named(name);
                match (&gomcds, &s) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} under {:?}", name, policy),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(
                        false,
                        "{} under {:?}: feasibility diverged from GOMCDS", name, policy
                    ),
                }
                let par = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .run_named(name);
                match (&gomcds, &par) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b, "{} (parallel) under {:?}", name, policy
                    ),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(
                        false,
                        "{} (parallel) under {:?}: feasibility diverged", name, policy
                    ),
                }
            }
        }
    }

    /// Where the spans live never matters: every registered scheduler run
    /// through [`Run`] on a memory-mapped `.pimb` packed from the trace
    /// returns exactly what the run on the owned trace returns — the same
    /// schedule or the same typed error — and every [`Method`] on the
    /// mapped file equals the reference oracle.
    #[test]
    fn flat_backed_cache_bit_identical(trace in arb_trace()) {
        let bin = mapped(&trace);
        prop_assert!(bin.is_mapped());
        let policies = [
            MemoryPolicy::Unbounded,
            MemoryPolicy::Capacity(1),
            MemoryPolicy::ScaledMinimum { factor: 2 },
        ];
        for scheduler in pim_sched::registry().iter() {
            for policy in policies {
                let owned = Run::new(&trace).policy(policy).run(scheduler);
                let mapped = Run::new(&bin).policy(policy).run(scheduler);
                prop_assert_eq!(
                    &owned, &mapped,
                    "{} under {:?}: the mapped run diverged", scheduler.name(), policy
                );
            }
        }
        for method in Method::ALL {
            for policy in policies {
                let mapped = Run::new(&bin).policy(policy).run_method(method);
                let oracle = pim_reference::schedule(method, &bin, policy);
                prop_assert_eq!(
                    &mapped, &oracle,
                    "{} under {:?}: the mapped run diverged from the oracle", method, policy
                );
            }
        }
    }

    /// The flat fast paths (incremental medians + chunk-sharded fan-out +
    /// capacity replay) are bit-identical to the pre-cache reference
    /// schedulers (`pim_reference::schedule`) for every policy, and
    /// `flat_total_cost` charges exactly what `Schedule::evaluate` does.
    #[test]
    fn flat_fast_paths_bit_identical(flat in arb_trace(), threads in 1usize..=4) {
        let trace = &flat;
        let pool = Pool::with_threads(threads);
        for policy in policies(trace) {
            for (method, fast) in [
                (Method::Scds, flat_scds as fn(&FlatTrace, MemoryPolicy, Pool) -> _),
                (Method::Lomcds, flat_lomcds),
                (Method::Gomcds, flat_gomcds),
            ] {
                let classic = pim_reference::schedule(method, trace, policy).unwrap();
                let fast = fast(&flat, policy, pool)
                    .unwrap_or_else(|e| panic!("{method} {policy:?}: {e}"));
                prop_assert_eq!(
                    &classic, &fast,
                    "flat {} under {:?} diverged", method, policy
                );
                prop_assert_eq!(
                    flat_total_cost(&flat, &fast),
                    classic.evaluate(trace),
                    "flat cost model diverged for {} under {:?}", method, policy
                );
            }
        }
    }

    /// Incremental window medians equal the scan-based center selection on
    /// random traces: sliding per-window sweeps and extending merged
    /// prefixes both match `median_center`.
    #[test]
    fn incremental_medians_match_scan_selection(trace in arb_trace()) {
        let grid = trace.grid();
        let mut st = pim_sched::median::MedianState::default();
        for d in 0..trace.num_data() {
            let d = DataId(d as u32);
            let rs: Vec<WindowRefs> = (0..trace.num_windows())
                .map(|w| {
                    let run = span_window(trace.span(d), w);
                    WindowRefs::from_pairs(run.iter().map(|r| (r.proc(&grid), r.count)))
                })
                .collect();
            // Sliding single-window sweep.
            st.reset(&grid);
            for (w, refs) in rs.iter().enumerate() {
                for r in refs.iter() {
                    let p = grid.point_of(r.proc);
                    st.add(p.x, p.y, r.count as u64);
                }
                prop_assert_eq!(
                    st.center(&grid),
                    pim_sched::median::median_center(&grid, refs),
                    "datum {:?} window {}: sliding median diverged", d, w
                );
                for r in refs.iter() {
                    let p = grid.point_of(r.proc);
                    st.remove(p.x, p.y, r.count as u64);
                }
            }
            // Extending merged prefix (the SCDS shape).
            st.reset(&grid);
            for hi in 1..=trace.num_windows() {
                for r in rs[hi - 1].iter() {
                    let p = grid.point_of(r.proc);
                    st.add(p.x, p.y, r.count as u64);
                }
                prop_assert_eq!(
                    st.center(&grid),
                    pim_sched::median::median_center(&grid, &WindowRefs::merged(&rs[..hi])),
                    "datum {:?} prefix 0..{}: extending median diverged", d, hi
                );
            }
        }
    }

    /// The pool helpers themselves: per-worker state plus repeated reuse of
    /// the long-lived workers never change the output.
    #[test]
    fn parallel_map_with_deterministic(items in proptest::collection::vec(0u64..1000, 0..200)) {
        let expect: Vec<u64> = items.iter().enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        for pool in [Pool::serial(), Pool::with_threads(4), Pool::with_threads(8)] {
            let got = pim_par::parallel_map_with(
                pool,
                &items,
                Vec::<u64>::new,
                |scratch, i, &x| {
                    scratch.push(x); // per-worker state, grows across items
                    x.wrapping_mul(31).wrapping_add(i as u64)
                },
            );
            prop_assert_eq!(&got, &expect);
        }
    }
}

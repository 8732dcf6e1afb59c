//! Task precedence DAGs attached to a windowed trace.
//!
//! The 1998 paper assumes every reference in an execution window is ready
//! the instant the window opens. Real PIM workloads are dependence graphs:
//! an LU pivot's scaling step must finish before the trailing update that
//! consumes it may start. [`TaskDag`] makes that structure a first-class,
//! *optional* layer on top of a windowed trace ([`crate::flat::FlatView`]):
//!
//! * every [`Task`] lives in one execution window and **owns** a slice of
//!   that window's references — the set of data whose window-`w` reference
//!   strings belong to the task;
//! * edges connect tasks with `pred.window <= succ.window` (cross-window
//!   edges are legal; the window barrier already orders them, but they
//!   still contribute to critical-path lengths);
//! * within a window the ownership sets are disjoint, and
//!   [`TaskDag::validate_cover`] checks the partition is *complete* against
//!   a concrete trace: every `(window, datum)` pair with a non-empty
//!   reference string is owned by exactly one task, and no task owns a pair
//!   the trace never references.
//!
//! Schedulers read the DAG through [`TaskDag::topo_order`] /
//! [`TaskDag::preds`] / [`TaskDag::owner`]; the cycle simulator uses the
//! intra-window edges to gate message release. A trace with no DAG (or an
//! edge-free DAG) must behave exactly as before — that conformance is
//! pinned by proptests in `tests/cache_equivalence.rs`.
//!
//! The on-disk form is a small, self-contained JSON document
//! ([`TaskDag::to_json`] / [`TaskDag::from_json`]) so DAGs can ride next to
//! the binary trace encoding without a new container format.

use crate::flat::{span_window_runs, FlatView};
use crate::ids::DataId;
use crate::json;

/// One node of the precedence graph: a task in execution window `window`
/// owning the window-`window` reference strings of every datum in `data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// The execution window the task runs in.
    pub window: u32,
    /// The data whose references in `window` this task owns.
    pub data: Vec<DataId>,
    /// Worst-case execution time (abstract units; used by priority
    /// heuristics, not by the cycle simulator).
    pub wcet: u64,
}

/// Why a [`TaskDag`] could not be built or did not match a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A task named a window `>= num_windows`.
    WindowOutOfRange {
        /// Index of the offending task.
        task: usize,
        /// Its out-of-range window.
        window: u32,
        /// Number of windows the DAG declares.
        num_windows: usize,
    },
    /// An edge endpoint named a task `>= num_tasks`.
    TaskOutOfRange {
        /// The offending task index.
        task: u32,
        /// Number of tasks in the DAG.
        num_tasks: usize,
    },
    /// An edge connected a task to itself.
    SelfEdge {
        /// The task with the self loop.
        task: u32,
    },
    /// An edge ran backwards in window order (`pred.window > succ.window`).
    BackwardEdge {
        /// Predecessor endpoint.
        pred: u32,
        /// Successor endpoint.
        succ: u32,
    },
    /// The edges form a cycle.
    Cycle,
    /// Two tasks in the same window both claimed a datum.
    DuplicateOwner {
        /// The contested window.
        window: u32,
        /// The contested datum.
        datum: DataId,
        /// The two claiming tasks.
        tasks: (u32, u32),
    },
    /// The trace references a `(window, datum)` pair no task owns.
    Unowned {
        /// Window of the orphaned references.
        window: u32,
        /// The orphaned datum.
        datum: DataId,
    },
    /// A task owns a `(window, datum)` pair the trace never references,
    /// or a datum outside the trace's population.
    OwnsUnreferenced {
        /// Index of the offending task.
        task: usize,
        /// Its window.
        window: u32,
        /// The never-referenced datum.
        datum: DataId,
    },
    /// The DAG and the trace disagree on the window count.
    WindowCountMismatch {
        /// Windows the DAG declares.
        dag: usize,
        /// Windows the trace has.
        trace: usize,
    },
    /// The JSON input did not parse or had the wrong shape.
    Json(String),
}

impl core::fmt::Display for DagError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DagError::WindowOutOfRange {
                task,
                window,
                num_windows,
            } => write!(
                f,
                "task {task}: window {window} out of range (dag declares {num_windows})"
            ),
            DagError::TaskOutOfRange { task, num_tasks } => {
                write!(f, "edge endpoint {task} out of range (dag has {num_tasks} tasks)")
            }
            DagError::SelfEdge { task } => write!(f, "task {task} depends on itself"),
            DagError::BackwardEdge { pred, succ } => write!(
                f,
                "edge {pred} -> {succ} runs backwards in window order"
            ),
            DagError::Cycle => write!(f, "precedence edges form a cycle"),
            DagError::DuplicateOwner {
                window,
                datum,
                tasks,
            } => write!(
                f,
                "datum {} in window {window} owned by both task {} and task {}",
                datum.0, tasks.0, tasks.1
            ),
            DagError::Unowned { window, datum } => write!(
                f,
                "datum {} is referenced in window {window} but no task owns it",
                datum.0
            ),
            DagError::OwnsUnreferenced {
                task,
                window,
                datum,
            } => write!(
                f,
                "task {task} owns datum {} in window {window} but the trace never references it there",
                datum.0
            ),
            DagError::WindowCountMismatch { dag, trace } => write!(
                f,
                "dag declares {dag} windows but the trace has {trace}"
            ),
            DagError::Json(msg) => write!(f, "bad dag json: {msg}"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated task precedence DAG over a trace's execution windows.
///
/// Construction ([`TaskDag::new`]) checks windows are in range, edges are
/// forward-in-window, self-loop free and acyclic, and per-window ownership
/// is disjoint; [`TaskDag::validate_cover`] additionally checks the
/// partition exactly covers a concrete trace's non-empty reference
/// strings. Adjacency is stored CSR both ways, and a topological order is
/// precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDag {
    num_windows: usize,
    tasks: Vec<Task>,
    edges: Vec<(u32, u32)>,
    succ_off: Vec<usize>,
    succ_adj: Vec<u32>,
    pred_off: Vec<usize>,
    pred_adj: Vec<u32>,
    /// Task ids grouped by window, ascending.
    window_tasks: Vec<Vec<u32>>,
    /// Sorted `(window, datum) -> owning task` lookup.
    owners: Vec<(u32, u32, u32)>,
    topo: Vec<u32>,
}

impl TaskDag {
    /// Build and validate a DAG. `edges` are `(pred, succ)` task-index
    /// pairs; duplicates are tolerated (deduplicated in the adjacency).
    pub fn new(
        num_windows: usize,
        tasks: Vec<Task>,
        mut edges: Vec<(u32, u32)>,
    ) -> Result<TaskDag, DagError> {
        let num_windows = num_windows.max(1);
        let n = tasks.len();
        for (i, t) in tasks.iter().enumerate() {
            if t.window as usize >= num_windows {
                return Err(DagError::WindowOutOfRange {
                    task: i,
                    window: t.window,
                    num_windows,
                });
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for &(a, b) in &edges {
            for &e in &[a, b] {
                if e as usize >= n {
                    return Err(DagError::TaskOutOfRange {
                        task: e,
                        num_tasks: n,
                    });
                }
            }
            if a == b {
                return Err(DagError::SelfEdge { task: a });
            }
            if tasks[a as usize].window > tasks[b as usize].window {
                return Err(DagError::BackwardEdge { pred: a, succ: b });
            }
        }
        // Ownership: disjoint per window.
        let mut owners: Vec<(u32, u32, u32)> = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.data {
                owners.push((t.window, d.0, i as u32));
            }
        }
        owners.sort_unstable();
        for pair in owners.windows(2) {
            if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 {
                return Err(DagError::DuplicateOwner {
                    window: pair[0].0,
                    datum: DataId(pair[0].1),
                    tasks: (pair[0].2, pair[1].2),
                });
            }
        }
        // CSR adjacency both ways.
        let (succ_off, succ_adj) = csr(n, edges.iter().map(|&(a, b)| (a, b)));
        let (pred_off, pred_adj) = csr(n, edges.iter().map(|&(a, b)| (b, a)));
        // Kahn's algorithm: detects cycles and yields the topo order used
        // by priority passes. Ready tasks pop in ascending id order so the
        // order is deterministic.
        let mut indeg: Vec<usize> = (0..n).map(|t| pred_off[t + 1] - pred_off[t]).collect();
        let mut ready: std::collections::BinaryHeap<core::cmp::Reverse<u32>> = (0..n as u32)
            .filter(|&t| indeg[t as usize] == 0)
            .map(core::cmp::Reverse)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(core::cmp::Reverse(t)) = ready.pop() {
            topo.push(t);
            for &s in &succ_adj[succ_off[t as usize]..succ_off[t as usize + 1]] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(core::cmp::Reverse(s));
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        let mut window_tasks = vec![Vec::new(); num_windows];
        for (i, t) in tasks.iter().enumerate() {
            window_tasks[t.window as usize].push(i as u32);
        }
        Ok(TaskDag {
            num_windows,
            tasks,
            edges,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            window_tasks,
            owners,
            topo,
        })
    }

    /// Check the ownership partition exactly covers `trace`: every
    /// `(window, datum)` with a non-empty reference string is owned, and
    /// nothing owned is unreferenced.
    pub fn validate_cover<V: FlatView + ?Sized>(&self, trace: &V) -> Result<(), DagError> {
        if self.num_windows != trace.num_windows() {
            return Err(DagError::WindowCountMismatch {
                dag: self.num_windows,
                trace: trace.num_windows(),
            });
        }
        for d in 0..trace.num_data() {
            let d = DataId(d as u32);
            for (w, _) in span_window_runs(trace.span(d)) {
                if self.owner(w, d).is_none() {
                    return Err(DagError::Unowned {
                        window: w,
                        datum: d,
                    });
                }
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.data {
                let referenced = d.index() < trace.num_data()
                    && !trace.window_run(d, t.window as usize).is_empty();
                if !referenced {
                    return Err(DagError::OwnsUnreferenced {
                        task: i,
                        window: t.window,
                        datum: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of execution windows the DAG spans.
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The task with index `t`.
    pub fn task(&self, t: u32) -> &Task {
        &self.tasks[t as usize]
    }

    /// All tasks, in index order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The deduplicated `(pred, succ)` edge list, sorted.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Direct predecessors of task `t`.
    pub fn preds(&self, t: u32) -> &[u32] {
        &self.pred_adj[self.pred_off[t as usize]..self.pred_off[t as usize + 1]]
    }

    /// Direct successors of task `t`.
    pub fn succs(&self, t: u32) -> &[u32] {
        &self.succ_adj[self.succ_off[t as usize]..self.succ_off[t as usize + 1]]
    }

    /// Tasks assigned to window `w`, ascending by task index.
    pub fn tasks_in_window(&self, w: u32) -> &[u32] {
        &self.window_tasks[w as usize]
    }

    /// The task owning datum `d`'s references in window `w`, if any.
    pub fn owner(&self, w: u32, d: DataId) -> Option<u32> {
        self.owners
            .binary_search_by_key(&(w, d.0), |&(ow, od, _)| (ow, od))
            .ok()
            .map(|i| self.owners[i].2)
    }

    /// A topological order of the task indices (deterministic: ready tasks
    /// are emitted in ascending id order).
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// Serialize to the JSON document [`TaskDag::from_json`] accepts:
    ///
    /// ```json
    /// {"version":1,"num_windows":2,
    ///  "tasks":[{"window":0,"data":[0,1],"wcet":3}],
    ///  "edges":[[0,1]]}
    /// ```
    pub fn to_json(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\":1,\"num_windows\":{},\"tasks\":[",
            self.num_windows
        );
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"window\":{},\"data\":[", t.window);
            for (j, d) in t.data.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", d.0);
            }
            let _ = write!(out, "],\"wcet\":{}}}", t.wcet);
        }
        out.push_str("],\"edges\":[");
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{a},{b}]");
        }
        out.push_str("]}");
        out
    }

    /// Parse and validate the JSON document produced by
    /// [`TaskDag::to_json`]. Keys may appear in any order; unknown keys
    /// are rejected so typos fail loudly.
    pub fn from_json(text: &str) -> Result<TaskDag, DagError> {
        let v = json::parse(text).map_err(DagError::Json)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| err("top level must be an object"))?;
        let mut version = None;
        let mut num_windows = None;
        let mut tasks: Option<Vec<Task>> = None;
        let mut edges: Option<Vec<(u32, u32)>> = None;
        for (k, val) in obj {
            match k.as_str() {
                "version" => version = Some(val.as_u64().ok_or_else(|| err("version"))?),
                "num_windows" => {
                    num_windows = Some(val.as_u64().ok_or_else(|| err("num_windows"))? as usize)
                }
                "tasks" => {
                    let arr = val.as_arr().ok_or_else(|| err("tasks must be an array"))?;
                    let mut ts = Vec::with_capacity(arr.len());
                    for tv in arr {
                        ts.push(parse_task(tv)?);
                    }
                    tasks = Some(ts);
                }
                "edges" => {
                    let arr = val.as_arr().ok_or_else(|| err("edges must be an array"))?;
                    let mut es = Vec::with_capacity(arr.len());
                    for ev in arr {
                        let pair = ev.as_arr().ok_or_else(|| err("edge must be a pair"))?;
                        if pair.len() != 2 {
                            return Err(err("edge must be a pair"));
                        }
                        let a = pair[0].as_u64().ok_or_else(|| err("edge endpoint"))?;
                        let b = pair[1].as_u64().ok_or_else(|| err("edge endpoint"))?;
                        es.push((narrow(a, "edge endpoint")?, narrow(b, "edge endpoint")?));
                    }
                    edges = Some(es);
                }
                other => return Err(err(&format!("unknown key {other:?}"))),
            }
        }
        match version {
            Some(1) => {}
            Some(v) => return Err(err(&format!("unsupported version {v}"))),
            None => return Err(err("missing version")),
        }
        let num_windows = num_windows.ok_or_else(|| err("missing num_windows"))?;
        TaskDag::new(
            num_windows,
            tasks.ok_or_else(|| err("missing tasks"))?,
            edges.ok_or_else(|| err("missing edges"))?,
        )
    }
}

fn err(msg: &str) -> DagError {
    DagError::Json(msg.to_string())
}

fn narrow(v: u64, what: &str) -> Result<u32, DagError> {
    u32::try_from(v).map_err(|_| err(&format!("{what} {v} overflows u32")))
}

fn parse_task(v: &json::Value) -> Result<Task, DagError> {
    let obj = v.as_obj().ok_or_else(|| err("task must be an object"))?;
    let mut window = None;
    let mut data = None;
    let mut wcet = None;
    for (k, val) in obj {
        match k.as_str() {
            "window" => {
                window = Some(narrow(
                    val.as_u64().ok_or_else(|| err("task window"))?,
                    "window",
                )?)
            }
            "wcet" => wcet = Some(val.as_u64().ok_or_else(|| err("task wcet"))?),
            "data" => {
                let arr = val
                    .as_arr()
                    .ok_or_else(|| err("task data must be an array"))?;
                let mut ds = Vec::with_capacity(arr.len());
                for dv in arr {
                    let d = dv.as_u64().ok_or_else(|| err("datum id"))?;
                    ds.push(DataId(narrow(d, "datum id")?));
                }
                data = Some(ds);
            }
            other => return Err(err(&format!("unknown task key {other:?}"))),
        }
    }
    Ok(Task {
        window: window.ok_or_else(|| err("task missing window"))?,
        data: data.ok_or_else(|| err("task missing data"))?,
        wcet: wcet.unwrap_or(0),
    })
}

/// Build a CSR adjacency from `(from, to)` pairs over `n` nodes.
fn csr(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<usize>, Vec<u32>) {
    let mut off = vec![0usize; n + 1];
    for (from, _) in pairs.clone() {
        off[from as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut adj = vec![0u32; off[n]];
    let mut cursor = off.clone();
    for (from, to) in pairs {
        adj[cursor[from as usize]] = to;
        cursor[from as usize] += 1;
    }
    // Each node's neighbor run ascending, for deterministic iteration.
    for i in 0..n {
        adj[off[i]..off[i + 1]].sort_unstable();
    }
    (off, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatTrace;
    use crate::window::WindowRefs;
    use pim_array::grid::Grid;

    fn task(window: u32, data: &[u32], wcet: u64) -> Task {
        Task {
            window,
            data: data.iter().map(|&d| DataId(d)).collect(),
            wcet,
        }
    }

    fn sample_dag() -> TaskDag {
        // w0: t0 {d0}, t1 {d1};  w1: t2 {d0, d1}
        // edges: t0 -> t1 (intra-window), t0 -> t2, t1 -> t2 (cross-window)
        TaskDag::new(
            2,
            vec![task(0, &[0], 3), task(0, &[1], 1), task(1, &[0, 1], 2)],
            vec![(0, 1), (0, 2), (1, 2)],
        )
        .unwrap()
    }

    fn sample_trace() -> FlatTrace {
        let grid = Grid::new(4, 4);
        FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 4)]),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn adjacency_and_lookup() {
        let dag = sample_dag();
        assert_eq!(dag.num_tasks(), 3);
        assert_eq!(dag.preds(0), &[] as &[u32]);
        assert_eq!(dag.succs(0), &[1, 2]);
        assert_eq!(dag.preds(2), &[0, 1]);
        assert_eq!(dag.tasks_in_window(0), &[0, 1]);
        assert_eq!(dag.tasks_in_window(1), &[2]);
        assert_eq!(dag.owner(0, DataId(0)), Some(0));
        assert_eq!(dag.owner(0, DataId(1)), Some(1));
        assert_eq!(dag.owner(1, DataId(0)), Some(2));
        assert_eq!(dag.owner(1, DataId(2)), None);
        assert_eq!(dag.topo_order(), &[0, 1, 2]);
    }

    #[test]
    fn cover_validation() {
        let dag = sample_dag();
        dag.validate_cover(&sample_trace()).unwrap();

        // A trace referencing a datum the dag does not own.
        let grid = Grid::new(4, 4);
        let extra = FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
                    WindowRefs::new(),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                    WindowRefs::new(),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 0), 1)]),
                    WindowRefs::new(),
                ],
            ],
        )
        .unwrap();
        assert!(matches!(
            sample_dag().validate_cover(&extra),
            Err(DagError::Unowned {
                window: 0,
                datum: DataId(2)
            })
        ));

        // A dag owning a (window, datum) the trace never touches.
        let trace = sample_trace();
        let over = TaskDag::new(
            2,
            vec![
                task(0, &[0, 1], 1),
                task(1, &[0, 1, 2], 1), // datum 2 never referenced
            ],
            vec![(0, 1)],
        )
        .unwrap();
        assert!(matches!(
            over.validate_cover(&trace),
            Err(DagError::OwnsUnreferenced {
                datum: DataId(2),
                ..
            })
        ));

        // Window count mismatch.
        let one = TaskDag::new(1, vec![task(0, &[0], 1)], vec![]).unwrap();
        assert!(matches!(
            one.validate_cover(&trace),
            Err(DagError::WindowCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_structure() {
        assert!(matches!(
            TaskDag::new(1, vec![task(1, &[0], 1)], vec![]),
            Err(DagError::WindowOutOfRange { .. })
        ));
        assert!(matches!(
            TaskDag::new(1, vec![task(0, &[0], 1)], vec![(0, 5)]),
            Err(DagError::TaskOutOfRange { task: 5, .. })
        ));
        assert!(matches!(
            TaskDag::new(1, vec![task(0, &[0], 1)], vec![(0, 0)]),
            Err(DagError::SelfEdge { task: 0 })
        ));
        assert!(matches!(
            TaskDag::new(2, vec![task(1, &[0], 1), task(0, &[0], 1)], vec![(0, 1)]),
            Err(DagError::BackwardEdge { pred: 0, succ: 1 })
        ));
        assert!(matches!(
            TaskDag::new(
                1,
                vec![task(0, &[0], 1), task(0, &[1], 1), task(0, &[2], 1)],
                vec![(0, 1), (1, 2), (2, 0)]
            ),
            Err(DagError::Cycle)
        ));
        assert!(matches!(
            TaskDag::new(1, vec![task(0, &[0], 1), task(0, &[0], 1)], vec![]),
            Err(DagError::DuplicateOwner { tasks: (0, 1), .. })
        ));
    }

    #[test]
    fn empty_dag_is_fine() {
        let dag = TaskDag::new(3, vec![], vec![]).unwrap();
        assert_eq!(dag.num_tasks(), 0);
        assert_eq!(dag.topo_order(), &[] as &[u32]);
        // ...but covers only an unreferenced trace.
        let grid = Grid::new(2, 2);
        let empty = FlatTrace::from_windows(
            grid,
            vec![vec![
                WindowRefs::new(),
                WindowRefs::new(),
                WindowRefs::new(),
            ]],
        )
        .unwrap();
        dag.validate_cover(&empty).unwrap();
    }

    #[test]
    fn json_round_trip() {
        let dag = sample_dag();
        let text = dag.to_json();
        assert!(text.starts_with("{\"version\":1,"));
        let back = TaskDag::from_json(&text).unwrap();
        assert_eq!(back, dag);

        // Empty dag round-trips too.
        let empty = TaskDag::new(1, vec![], vec![]).unwrap();
        assert_eq!(TaskDag::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_accepts_reordered_keys_and_whitespace() {
        let text = r#"
            { "edges": [[0, 1]],
              "tasks": [ {"data": [0], "window": 0},
                         {"wcet": 7, "window": 1, "data": [0, 1]} ],
              "num_windows": 2, "version": 1 }
        "#;
        let dag = TaskDag::from_json(text).unwrap();
        assert_eq!(dag.num_tasks(), 2);
        assert_eq!(dag.task(0).wcet, 0); // wcet optional, defaults 0
        assert_eq!(dag.task(1).wcet, 7);
        assert_eq!(dag.edges(), &[(0, 1)]);
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{\"version\":2,\"num_windows\":1,\"tasks\":[],\"edges\":[]}",
            "{\"version\":1,\"tasks\":[],\"edges\":[]}",
            "{\"version\":1,\"num_windows\":1,\"tasks\":[],\"edges\":[[0]]}",
            "{\"version\":1,\"num_windows\":1,\"tasks\":[],\"edges\":[],\"bogus\":3}",
            "{\"version\":1,\"num_windows\":1,\"tasks\":[{\"window\":0}],\"edges\":[]}",
            "{\"version\":1,\"num_windows\":1,\"tasks\":[],\"edges\":[]} trailing",
        ] {
            assert!(TaskDag::from_json(bad).is_err(), "accepted: {bad}");
        }
    }
}

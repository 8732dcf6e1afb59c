//! Cycle-level network simulation.
//!
//! [`crate::contention`] gives a closed-form *lower bound* on a window's
//! completion time; this module actually clocks the mesh: store-and-forward
//! flit transport, one flit per link per cycle, FIFO arbitration with
//! deterministic tie-breaking (oldest flit first, then lowest message id).
//! It reports the cycle at which the last flit of the window arrives.
//!
//! Invariants (tested):
//!
//! * simulated completion ≥ the analytic lower bound, always;
//! * a single message completes in exactly `distance + volume − 1` cycles
//!   (wormhole pipelining across store-and-forward hops of 1-flit depth);
//! * total delivered flit-hops equal the analytic hop-volume.
//!
//! ## Event-driven engine
//!
//! [`run_window`] is queue-driven: each message's x-y route is flattened
//! **once** into a slice of dense link slots, its `volume` flits exist only
//! as per-hop `sent`/`avail` counters, and every link owns a tiny priority
//! queue holding at most one entry per waiting message hop — the head
//! flit, keyed by `(flit index, message id)`, which is exactly the
//! injection-order priority a clock-every-flit loop arbitrates by. Each
//! simulated cycle then costs `O(active links · log queue)` instead of
//! `O(flits in flight)`: blocked traffic waits in its queue for free, and
//! a cycle with no eligible link never runs (the loop ends — in this
//! model some flit moves every cycle, so active cycles are dense).
//!
//! The literal clock-every-flit loop is `pim-reference`'s `run_window`;
//! the two are pinned bit-identical on `(completion_cycle, flit_hops,
//! peak_in_flight)` over random grids and message sets in
//! `tests/cycle_props.rs`, the same oracle pattern the cost cache and
//! grouping rework used.
//!
//! The model is intentionally minimal — infinite node buffers, no
//! virtual channels — because its role is to show that hop-volume savings
//! translate into wall-clock savings under contention, not to model a
//! specific router.
//!
//! ## Precedence-gated release
//!
//! [`CycleSim::run_window_gated`] generalizes injection: given a
//! [`WindowPrecedence`] (one window's gating, distilled from a
//! [`TaskDag`]), a task's messages enter the network only once every
//! intra-window predecessor task has delivered all of its traffic —
//! completion-triggered release instead of all-at-window-start. Queue
//! keys become `(release cycle + flit index, message id)`, which is still
//! exactly injection order; with no precedence every release is 0, so the
//! gated engine is bit-identical to [`run_window`] (pinned by tests).
//! Cross-window DAG edges need no gating here: windows are simulated
//! independently and their completions summed, which is a barrier no
//! intra-window release can cross.

use crate::error::{SimError, SAFETY_VALVE_CYCLES};
use crate::message::{Message, MessageKind};
use pim_array::grid::Grid;
use pim_array::routing::{visit_xy_links, LinkIndex};
use pim_sched::Metrics;
use pim_trace::dag::TaskDag;
use pim_trace::flat::FlatView;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of clocking one window's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleResult {
    /// Cycle at which the last flit arrived (0 for no traffic).
    pub completion_cycle: u64,
    /// Total flit-hops delivered; equals the analytic hop-volume.
    pub flit_hops: u64,
    /// Peak number of flits in flight in any single cycle.
    pub peak_in_flight: usize,
}

impl CycleResult {
    const EMPTY: CycleResult = CycleResult {
        completion_cycle: 0,
        flit_hops: 0,
        peak_in_flight: 0,
    };
}

/// A link's queue entry: the *head* waiting flit of one message at one
/// hop. Ordered by `(injection cycle, message id)` — release cycle plus
/// flit index, the same priority the brute-force injection-sorted scan gives
/// (releases are all 0 without precedence) — with the flattened hop index
/// carried as payload.
type QueueEntry = Reverse<(u64, u32)>;

fn entry(inject_cycle: u64, msg: usize, hop: usize) -> QueueEntry {
    Reverse(((inject_cycle << 32) | msg as u64, hop as u32))
}

/// Group id for messages no task owns (move-only traffic of data with no
/// references in the window): released at cycle 0, never gated.
const UNGATED: u32 = u32::MAX;

/// Reusable event-driven simulator for one grid.
///
/// Construction sizes the per-link queues once; [`CycleSim::run_window`]
/// reuses every buffer, so a worker thread clocking many windows
/// allocates only when a window is larger than any it has seen before
/// (the same high-water discipline as `pim_sched::Workspace`).
pub struct CycleSim {
    grid: Grid,
    links: LinkIndex,
    /// Flattened routes of all messages: one dense link slot per hop.
    route: Vec<u32>,
    /// Per-message offset into `route`; one trailing sentinel.
    m_start: Vec<u32>,
    /// Per-message flit count.
    m_vol: Vec<u32>,
    /// Per hop: flits already sent across this hop's link.
    sent: Vec<u32>,
    /// Per hop (downstream of the source): flits arrived and not yet sent.
    avail: Vec<u32>,
    /// Per link slot: waiting message heads, highest priority first.
    queues: Vec<BinaryHeap<QueueEntry>>,
    /// Per link slot: already scheduled for the next cycle.
    scheduled: Vec<bool>,
    /// Links with at least one eligible head this cycle / next cycle.
    active: Vec<u32>,
    active_next: Vec<u32>,
    /// Flits that crossed a link this cycle and land one hop downstream
    /// at the next: `(flattened hop, message id)`.
    arrivals: Vec<(u32, u32)>,
    /// Injection-rate deltas for the peak-in-flight sweep.
    rate_delta: Vec<i64>,
    /// Flits leaving the network per cycle, for the same sweep.
    retire_cnt: Vec<u32>,
    /// Per-message release cycle (all 0 without precedence).
    m_release: Vec<u64>,
    /// Per-message owning task group, [`UNGATED`] when none (gated runs).
    m_group: Vec<u32>,
    /// Per group: gated messages not yet fully delivered.
    g_outstanding: Vec<u32>,
    /// Per group: intra-window predecessor groups not yet complete.
    g_pred_left: Vec<u32>,
    /// CSR offsets/ids of each group's flattened messages.
    g_msg_off: Vec<u32>,
    g_msg_adj: Vec<u32>,
    /// Groups whose last message retired this cycle.
    done_buf: Vec<u32>,
    /// Groups whose predecessor count just hit zero (release worklist).
    worklist: Vec<u32>,
}

impl CycleSim {
    /// Build a simulator for `grid`.
    pub fn new(grid: Grid) -> Self {
        let links = LinkIndex::new(grid);
        let slots = links.num_slots();
        CycleSim {
            grid,
            links,
            route: Vec::new(),
            m_start: Vec::new(),
            m_vol: Vec::new(),
            sent: Vec::new(),
            avail: Vec::new(),
            queues: (0..slots).map(|_| BinaryHeap::new()).collect(),
            scheduled: vec![false; slots],
            active: Vec::new(),
            active_next: Vec::new(),
            arrivals: Vec::new(),
            rate_delta: Vec::new(),
            retire_cnt: Vec::new(),
            m_release: Vec::new(),
            m_group: Vec::new(),
            g_outstanding: Vec::new(),
            g_pred_left: Vec::new(),
            g_msg_off: Vec::new(),
            g_msg_adj: Vec::new(),
            done_buf: Vec::new(),
            worklist: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.route.clear();
        self.m_start.clear();
        self.m_vol.clear();
        self.sent.clear();
        self.avail.clear();
        self.active.clear();
        self.active_next.clear();
        self.arrivals.clear();
        self.rate_delta.clear();
        self.retire_cnt.clear();
        self.m_release.clear();
        self.m_group.clear();
        self.g_outstanding.clear();
        self.g_pred_left.clear();
        self.g_msg_off.clear();
        self.g_msg_adj.clear();
        self.done_buf.clear();
        self.worklist.clear();
        debug_assert!(self.queues.iter().all(|q| q.is_empty()));
        debug_assert!(self.scheduled.iter().all(|s| !s));
    }

    fn schedule(&mut self, link: usize) {
        if !self.scheduled[link] {
            self.scheduled[link] = true;
            self.active_next.push(link as u32);
        }
    }

    /// Clock one window's messages to completion.
    ///
    /// Flits of message `m` are injected one per cycle starting at cycle 0
    /// (a node can source one flit of each of its messages per cycle — the
    /// serialization bottleneck is the links, which is what we study).
    ///
    /// Bit-identical to `pim-reference`'s brute-force `run_window` on
    /// `(completion_cycle, flit_hops, peak_in_flight)`; the event-driven
    /// path refuses up front with [`SimError::NoProgress`] when the
    /// window's flit-hop volume reaches [`SAFETY_VALVE_CYCLES`] (its cycle
    /// count is bounded by its hop volume, so the brute-force loop's
    /// in-loop valve could only ever trip past that point).
    pub fn run_window(&mut self, messages: &[Message]) -> Result<CycleResult, SimError> {
        self.run_window_gated(messages, None)
    }

    /// [`CycleSim::run_window`] under completion-triggered release: each
    /// message belongs to a task group (per `prec`, built from the same
    /// `messages` slice), and a group's messages are injected only once
    /// every intra-window predecessor group has delivered all of its
    /// traffic — one cycle after the predecessor's last flit crosses its
    /// final link. Groups with no gated traffic (all local or
    /// zero-volume) complete the moment they release and cascade. With
    /// `prec == None` every message releases at cycle 0 and the result is
    /// bit-identical to [`CycleSim::run_window`].
    pub fn run_window_gated(
        &mut self,
        messages: &[Message],
        prec: Option<&WindowPrecedence>,
    ) -> Result<CycleResult, SimError> {
        self.reset();

        // Flatten every route once: no per-flit route clone, no link
        // lookup per hop per cycle.
        let grid = self.grid;
        let links = self.links;
        let mut hop_volume: u64 = 0;
        for (i, m) in messages.iter().enumerate() {
            if m.is_local() || m.volume == 0 {
                continue;
            }
            let start = self.route.len();
            self.m_start.push(start as u32);
            self.m_vol.push(m.volume);
            if let Some(p) = prec {
                self.m_group.push(p.msg_group[i]);
            }
            let route = &mut self.route;
            visit_xy_links(&grid, m.src, m.dst, |l| {
                route.push(links.index_of(l) as u32);
            });
            hop_volume += (self.route.len() - start) as u64 * m.volume as u64;
        }
        self.m_start.push(self.route.len() as u32);
        if self.m_vol.is_empty() {
            return Ok(CycleResult::EMPTY);
        }
        if hop_volume >= SAFETY_VALVE_CYCLES {
            return Err(SimError::NoProgress {
                cycle: SAFETY_VALVE_CYCLES,
            });
        }

        self.sent.resize(self.route.len(), 0);
        self.avail.resize(self.route.len(), 0);
        self.m_release.resize(self.m_vol.len(), 0);

        match prec {
            None => {
                // The classic model: everything enters at window start.
                for msg in 0..self.m_vol.len() {
                    self.inject(msg, 0);
                }
            }
            Some(p) => {
                debug_assert_eq!(
                    p.msg_group.len(),
                    messages.len(),
                    "WindowPrecedence built from a different message slice"
                );
                let ng = p.num_groups();
                self.g_pred_left.extend_from_slice(&p.indeg);
                self.g_outstanding.resize(ng, 0);
                self.g_msg_off.resize(ng + 1, 0);
                for &g in &self.m_group {
                    if g != UNGATED {
                        self.g_outstanding[g as usize] += 1;
                        self.g_msg_off[g as usize + 1] += 1;
                    }
                }
                for g in 0..ng {
                    self.g_msg_off[g + 1] += self.g_msg_off[g];
                }
                // Counting-sort messages into per-group lists, borrowing
                // `done_buf` as the fill cursor.
                self.g_msg_adj.resize(self.g_msg_off[ng] as usize, 0);
                self.done_buf.extend_from_slice(&self.g_msg_off[..ng]);
                for msg in 0..self.m_group.len() {
                    let g = self.m_group[msg];
                    if g != UNGATED {
                        let c = self.done_buf[g as usize] as usize;
                        self.g_msg_adj[c] = msg as u32;
                        self.done_buf[g as usize] += 1;
                    }
                }
                self.done_buf.clear();
                // Unowned traffic and dependency-free groups release at
                // cycle 0; all-local groups complete instantly, cascading
                // through `drain_releases`.
                for msg in 0..self.m_group.len() {
                    if self.m_group[msg] == UNGATED {
                        self.inject(msg, 0);
                    }
                }
                for g in 0..ng {
                    if self.g_pred_left[g] == 0 {
                        self.worklist.push(g as u32);
                    }
                }
                self.drain_releases(p, 0);
            }
        }

        let mut cycle: u64 = 0;
        let mut completion: u64 = 0;
        let mut flit_hops: u64 = 0;
        loop {
            std::mem::swap(&mut self.active, &mut self.active_next);
            self.active_next.clear();
            if self.active.is_empty() {
                break;
            }
            for i in 0..self.active.len() {
                self.scheduled[self.active[i] as usize] = false;
            }
            self.arrivals.clear();

            // Every active link forwards its highest-priority head flit.
            for i in 0..self.active.len() {
                let l = self.active[i] as usize;
                let Reverse((key, hop)) = self.queues[l]
                    .pop()
                    .expect("scheduled link has a queued head flit");
                let msg = (key & u32::MAX as u64) as usize;
                let hop = hop as usize;
                self.sent[hop] += 1;
                flit_hops += 1;
                let next_hop = hop + 1;
                if next_hop == self.m_start[msg + 1] as usize {
                    // Last hop: the flit leaves the network after this cycle.
                    let r = (cycle + 1) as usize;
                    completion = cycle + 1;
                    if self.retire_cnt.len() <= r {
                        self.retire_cnt.resize(r + 1, 0);
                    }
                    self.retire_cnt[r] += 1;
                    if prec.is_some() && self.sent[hop] == self.m_vol[msg] {
                        // Whole message delivered: retire it from its
                        // owning task group.
                        let g = self.m_group[msg];
                        if g != UNGATED {
                            self.g_outstanding[g as usize] -= 1;
                            if self.g_outstanding[g as usize] == 0 {
                                self.done_buf.push(g);
                            }
                        }
                    }
                } else {
                    self.arrivals.push((next_hop as u32, msg as u32));
                }
                // Re-arm this hop's head: at the source the backlog is
                // implicit (flit `sent` exists iff `sent < volume`, and is
                // always injected by the next cycle); downstream it is
                // `avail − sent`.
                let first = self.m_start[msg] as usize;
                let waiting = if hop == first {
                    self.sent[hop] < self.m_vol[msg]
                } else {
                    self.avail[hop] > self.sent[hop]
                };
                if waiting {
                    self.queues[l].push(entry(
                        self.m_release[msg] + self.sent[hop] as u64,
                        msg,
                        hop,
                    ));
                }
                if !self.queues[l].is_empty() {
                    self.schedule(l);
                }
            }

            // Arrivals land one cycle after crossing; apply them only after
            // every link arbitrated, so a flit cannot be forwarded (or win
            // arbitration) in the cycle it arrives.
            for i in 0..self.arrivals.len() {
                let (hop, msg) = self.arrivals[i];
                let (hop, msg) = (hop as usize, msg as usize);
                self.avail[hop] += 1;
                if self.avail[hop] == self.sent[hop] + 1 {
                    let l = self.route[hop] as usize;
                    self.queues[l].push(entry(
                        self.m_release[msg] + self.sent[hop] as u64,
                        msg,
                        hop,
                    ));
                    self.schedule(l);
                }
            }

            // Groups that finished this cycle release their intra-window
            // successors at the next one (the completing flit leaves the
            // network first); deferred past arbitration so a release can
            // never feed a link arbitrated later in the same cycle.
            if let Some(p) = prec {
                if !self.done_buf.is_empty() {
                    for i in 0..self.done_buf.len() {
                        let g = self.done_buf[i];
                        for &s in p.succs(g) {
                            self.g_pred_left[s as usize] -= 1;
                            if self.g_pred_left[s as usize] == 0 {
                                self.worklist.push(s);
                            }
                        }
                    }
                    self.done_buf.clear();
                    self.drain_releases(p, cycle + 1);
                }
            }
            cycle += 1;
        }
        debug_assert_eq!(flit_hops, hop_volume);

        // Peak flits in flight, swept from the aggregate injection ramp
        // (+1 per message per cycle while flits remain) minus retirements.
        let mut rate: i64 = 0;
        let mut in_flight: i64 = 0;
        let mut peak: i64 = 0;
        for c in 0..completion as usize {
            rate += self.rate_delta.get(c).copied().unwrap_or(0);
            in_flight += rate - self.retire_cnt.get(c).copied().unwrap_or(0) as i64;
            peak = peak.max(in_flight);
        }

        Ok(CycleResult {
            completion_cycle: completion,
            flit_hops,
            peak_in_flight: peak as usize,
        })
    }

    /// Release one message at cycle `release`: its head flit enters its
    /// first link's queue and the injection ramp is recorded for the
    /// peak-in-flight sweep. Flit `f` becomes available at the source at
    /// cycle `release + f`, which is exactly its queue key.
    fn inject(&mut self, msg: usize, release: u64) {
        self.m_release[msg] = release;
        let first = self.m_start[msg] as usize;
        self.avail[first] = 1; // flit 0 is at the source on release
        let l = self.route[first] as usize;
        self.queues[l].push(entry(release, msg, first));
        self.schedule(l);
        let lo = release as usize;
        let hi = lo + self.m_vol[msg] as usize;
        if self.rate_delta.len() <= hi {
            self.rate_delta.resize(hi + 1, 0);
        }
        self.rate_delta[lo] += 1;
        self.rate_delta[hi] -= 1;
    }

    /// Release every group on the worklist at cycle `t`, cascading
    /// through groups with no gated traffic: they complete the moment
    /// they release, unblocking their successors at the same cycle
    /// (local work is free, matching the analytic cost model).
    fn drain_releases(&mut self, prec: &WindowPrecedence, t: u64) {
        while let Some(g) = self.worklist.pop() {
            let g = g as usize;
            let lo = self.g_msg_off[g] as usize;
            let hi = self.g_msg_off[g + 1] as usize;
            for k in lo..hi {
                let msg = self.g_msg_adj[k] as usize;
                self.inject(msg, t);
            }
            if self.g_outstanding[g] == 0 {
                for &s in prec.succs(g as u32) {
                    self.g_pred_left[s as usize] -= 1;
                    if self.g_pred_left[s as usize] == 0 {
                        self.worklist.push(s);
                    }
                }
            }
        }
    }
}

/// One window's precedence gating, distilled from a [`TaskDag`]: the
/// owning task group of every message plus the window-internal release
/// edges. Cross-window edges are dropped — the window barrier (windows
/// simulated independently, completions summed) already enforces them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPrecedence {
    /// Per message (same indexing as the slice handed to
    /// [`CycleSim::run_window_gated`]): group id local to this window, or
    /// [`UNGATED`] for move-only traffic of data with no references here.
    msg_group: Vec<u32>,
    /// Intra-window successor CSR over groups.
    succ_off: Vec<u32>,
    succ_adj: Vec<u32>,
    /// Per group: number of intra-window predecessors.
    indeg: Vec<u32>,
}

impl WindowPrecedence {
    /// Distill `dag`'s gating for `window` over that window's `messages`
    /// (as produced by [`crate::engine::window_messages`]).
    ///
    /// Fetch traffic for a datum no task owns means the DAG does not
    /// cover the trace ([`SimError::UnownedMessage`]); move-only traffic
    /// without an owner is legal and rides ungated at cycle 0.
    ///
    /// # Panics
    /// Panics if `window >= dag.num_windows()`;
    /// [`simulate_cycles_dag`] checks the window counts up front.
    pub fn build(
        dag: &TaskDag,
        window: usize,
        messages: &[Message],
    ) -> Result<WindowPrecedence, SimError> {
        let w = window as u32;
        let tasks = dag.tasks_in_window(w);
        let local = |t: u32| {
            tasks
                .binary_search(&t)
                .expect("task listed in its own window") as u32
        };
        let mut msg_group = Vec::with_capacity(messages.len());
        for m in messages {
            let group = match dag.owner(w, m.data) {
                Some(t) => local(t),
                None if m.kind == MessageKind::Move => UNGATED,
                None => {
                    return Err(SimError::UnownedMessage {
                        window: w,
                        datum: m.data.0,
                    })
                }
            };
            msg_group.push(group);
        }
        let mut indeg = vec![0u32; tasks.len()];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (li, &t) in tasks.iter().enumerate() {
            for &p in dag.preds(t) {
                if dag.task(p).window == w {
                    edges.push((local(p), li as u32));
                    indeg[li] += 1;
                }
            }
        }
        edges.sort_unstable();
        let mut succ_off = vec![0u32; tasks.len() + 1];
        for &(from, _) in &edges {
            succ_off[from as usize + 1] += 1;
        }
        for g in 0..tasks.len() {
            succ_off[g + 1] += succ_off[g];
        }
        let succ_adj = edges.iter().map(|&(_, to)| to).collect();
        Ok(WindowPrecedence {
            msg_group,
            succ_off,
            succ_adj,
            indeg,
        })
    }

    fn num_groups(&self) -> usize {
        self.indeg.len()
    }

    fn succs(&self, g: u32) -> &[u32] {
        let lo = self.succ_off[g as usize] as usize;
        let hi = self.succ_off[g as usize + 1] as usize;
        &self.succ_adj[lo..hi]
    }
}

/// Clock one window's messages to completion (one-shot front end over
/// [`CycleSim`]; build the workspace yourself to amortize it over many
/// windows).
pub fn run_window(grid: &Grid, messages: &[Message]) -> Result<CycleResult, SimError> {
    CycleSim::new(*grid).run_window(messages)
}

/// Clock every window of a (trace, schedule) pair, in parallel across
/// windows through the persistent `pim-par` pool; each worker reuses one
/// [`CycleSim`] across all the windows it claims. Returns one
/// [`CycleResult`] per window, bit-identical regardless of thread count;
/// the first failing window (in window order) short-circuits the result.
pub fn simulate_cycles(
    trace: &dyn FlatView,
    schedule: &pim_sched::schedule::Schedule,
    pool: pim_par::Pool,
) -> Result<Vec<CycleResult>, SimError> {
    simulate_cycles_observed(trace, schedule, pool, &Metrics::disabled())
}

/// [`simulate_cycles`] with observability: records a `cycle-sim` phase
/// around the whole pass and a `cycle-sim/window` phase per window into
/// `metrics` (no-ops on a disabled handle; the results are bit-identical
/// either way).
pub fn simulate_cycles_observed(
    trace: &dyn FlatView,
    schedule: &pim_sched::schedule::Schedule,
    pool: pim_par::Pool,
    metrics: &Metrics,
) -> Result<Vec<CycleResult>, SimError> {
    let _whole = metrics.phase("cycle-sim");
    let grid = trace.grid();
    let windows: Vec<usize> = (0..trace.num_windows()).collect();
    pim_par::parallel_map_with(
        pool,
        &windows,
        || CycleSim::new(grid),
        |sim, _, &w| {
            let _t = metrics.phase("cycle-sim/window");
            let msgs = crate::engine::window_messages(trace, schedule, w);
            sim.run_window(&msgs)
        },
    )
    .into_iter()
    .collect()
}

/// Clock every window of a (trace, schedule) pair under completion-
/// triggered release: a task's traffic enters the network only once all
/// its intra-window DAG predecessors have delivered theirs (cross-window
/// edges are already honored by the window barrier). With an edge-free
/// DAG this is bit-identical to [`simulate_cycles`]. Parallel across
/// windows; the first failing window (in window order) short-circuits.
pub fn simulate_cycles_dag(
    trace: &dyn FlatView,
    schedule: &pim_sched::schedule::Schedule,
    dag: &TaskDag,
    pool: pim_par::Pool,
) -> Result<Vec<CycleResult>, SimError> {
    if dag.num_windows() != trace.num_windows() {
        return Err(SimError::DagWindows {
            dag: dag.num_windows(),
            trace: trace.num_windows(),
        });
    }
    let grid = trace.grid();
    let windows: Vec<usize> = (0..trace.num_windows()).collect();
    pim_par::parallel_map_with(
        pool,
        &windows,
        || CycleSim::new(grid),
        |sim, _, &w| {
            let msgs = crate::engine::window_messages(trace, schedule, w);
            let prec = WindowPrecedence::build(dag, w, &msgs)?;
            sim.run_window_gated(&msgs, Some(&prec))
        },
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::window_completion_time;
    use crate::message::MessageKind;
    use pim_trace::ids::DataId;

    fn msg(grid: &Grid, sx: u32, sy: u32, dx: u32, dy: u32, vol: u32) -> Message {
        Message {
            src: grid.proc_xy(sx, sy),
            dst: grid.proc_xy(dx, dy),
            volume: vol,
            data: DataId(0),
            window: 0,
            kind: MessageKind::Fetch,
        }
    }

    fn run(grid: &Grid, msgs: &[Message]) -> CycleResult {
        run_window(grid, msgs).expect("event sim")
    }

    #[test]
    fn empty_and_local_are_free() {
        let g = Grid::new(4, 4);
        assert_eq!(run(&g, &[]).completion_cycle, 0);
        let local = msg(&g, 1, 1, 1, 1, 5);
        let r = run(&g, &[local]);
        assert_eq!(r.completion_cycle, 0);
        assert_eq!(r.flit_hops, 0);
    }

    #[test]
    fn zero_volume_messages_are_free() {
        let g = Grid::new(4, 4);
        let r = run(&g, &[msg(&g, 0, 0, 3, 3, 0)]);
        assert_eq!(r, CycleResult::EMPTY);
    }

    #[test]
    fn single_message_takes_dist_plus_volume_minus_one() {
        let g = Grid::new(4, 4);
        for (dist, vol) in [(1u64, 1u32), (3, 1), (3, 4), (6, 2)] {
            let m = msg(
                &g,
                0,
                0,
                dist.min(3) as u32,
                dist.saturating_sub(3) as u32,
                vol,
            );
            let d = g.dist(m.src, m.dst);
            let r = run(&g, &[m]);
            assert_eq!(r.completion_cycle, d + vol as u64 - 1, "d={d} vol={vol}");
            assert_eq!(r.flit_hops, d * vol as u64);
        }
    }

    #[test]
    fn contention_serializes_shared_link() {
        let g = Grid::new(4, 4);
        // two messages share their entire 1-hop route
        let a = msg(&g, 0, 0, 1, 0, 3);
        let b = msg(&g, 0, 0, 1, 0, 3);
        let r = run(&g, &[a, b]);
        // 6 flits over one link: exactly 6 cycles
        assert_eq!(r.completion_cycle, 6);
        assert_eq!(r.flit_hops, 6);
    }

    #[test]
    fn disjoint_messages_run_in_parallel() {
        let g = Grid::new(4, 4);
        let a = msg(&g, 0, 0, 3, 0, 2);
        let b = msg(&g, 0, 3, 3, 3, 2);
        let r = run(&g, &[a, b]);
        assert_eq!(r.completion_cycle, 3 + 2 - 1);
    }

    #[test]
    fn simulated_time_at_least_lower_bound() {
        let g = Grid::new(4, 4);
        let cases: Vec<Vec<Message>> = vec![
            vec![msg(&g, 0, 0, 3, 3, 2), msg(&g, 0, 0, 3, 0, 1)],
            vec![
                msg(&g, 0, 0, 1, 0, 5),
                msg(&g, 0, 0, 2, 0, 5),
                msg(&g, 1, 1, 1, 3, 2),
            ],
            (0..10)
                .map(|i| msg(&g, i % 4, 0, 3 - i % 4, 3, 1 + i % 3))
                .collect(),
        ];
        for msgs in cases {
            let bound = window_completion_time(&g, &msgs);
            let r = run(&g, &msgs);
            assert!(
                r.completion_cycle >= bound,
                "simulated {} < bound {bound}",
                r.completion_cycle
            );
        }
    }

    #[test]
    fn flit_hops_equal_hop_volume() {
        let g = Grid::new(4, 4);
        let msgs = vec![msg(&g, 0, 0, 3, 3, 2), msg(&g, 2, 1, 0, 2, 4)];
        let hop_volume: u64 = msgs
            .iter()
            .map(|m| g.dist(m.src, m.dst) * m.volume as u64)
            .sum();
        assert_eq!(run(&g, &msgs).flit_hops, hop_volume);
    }

    #[test]
    fn peak_in_flight_bounded_by_flits() {
        let g = Grid::new(4, 4);
        let msgs = vec![msg(&g, 0, 0, 3, 3, 3)];
        let r = run(&g, &msgs);
        assert!(r.peak_in_flight <= 3);
        assert!(r.peak_in_flight >= 1);
    }

    #[test]
    fn workspace_reuse_is_stateless() {
        let g = Grid::new(4, 4);
        let heavy = vec![msg(&g, 0, 0, 3, 3, 6), msg(&g, 0, 0, 3, 0, 6)];
        let light = vec![msg(&g, 1, 0, 2, 0, 1)];
        let mut sim = CycleSim::new(g);
        let first = sim.run_window(&heavy).unwrap();
        let second = sim.run_window(&light).unwrap();
        let third = sim.run_window(&heavy).unwrap();
        assert_eq!(first, third, "reuse leaked state across windows");
        assert_eq!(second, run_window(&g, &light).unwrap());
    }

    fn dmsg(grid: &Grid, sx: u32, sy: u32, dx: u32, dy: u32, vol: u32, d: u32) -> Message {
        Message {
            data: DataId(d),
            ..msg(grid, sx, sy, dx, dy, vol)
        }
    }

    fn task(w: u32, data: &[u32]) -> pim_trace::dag::Task {
        pim_trace::dag::Task {
            window: w,
            data: data.iter().map(|&d| DataId(d)).collect(),
            wcet: 1,
        }
    }

    fn dag(
        num_windows: usize,
        tasks: Vec<pim_trace::dag::Task>,
        edges: Vec<(u32, u32)>,
    ) -> TaskDag {
        TaskDag::new(num_windows, tasks, edges).expect("valid dag")
    }

    #[test]
    fn edge_free_gating_is_bit_identical() {
        let g = Grid::new(4, 4);
        let msgs = vec![
            dmsg(&g, 0, 0, 3, 3, 4, 0),
            dmsg(&g, 3, 3, 0, 0, 4, 1),
            dmsg(&g, 0, 3, 3, 0, 2, 2),
            dmsg(&g, 1, 1, 1, 1, 9, 3), // local: its group has no traffic
        ];
        let d = dag(
            1,
            vec![task(0, &[0]), task(0, &[1]), task(0, &[2]), task(0, &[3])],
            vec![],
        );
        let prec = WindowPrecedence::build(&d, 0, &msgs).unwrap();
        let plain = run(&g, &msgs);
        let gated = CycleSim::new(g)
            .run_window_gated(&msgs, Some(&prec))
            .unwrap();
        assert_eq!(gated, plain);
    }

    #[test]
    fn chain_gating_delays_the_successor() {
        let g = Grid::new(4, 4);
        let msgs = vec![
            dmsg(&g, 0, 0, 1, 0, 3, 0), // last flit crosses at cycle 2
            dmsg(&g, 2, 0, 3, 0, 1, 1), // disjoint link; alone: 1 cycle
        ];
        let plain = run(&g, &msgs);
        assert_eq!(plain.completion_cycle, 3);
        let d = dag(1, vec![task(0, &[0]), task(0, &[1])], vec![(0, 1)]);
        let prec = WindowPrecedence::build(&d, 0, &msgs).unwrap();
        let gated = CycleSim::new(g)
            .run_window_gated(&msgs, Some(&prec))
            .unwrap();
        // Datum 1 releases at 3, one cycle after datum 0's last flit
        // crossed, and lands at 4; hop volume is unchanged.
        assert_eq!(gated.completion_cycle, 4);
        assert_eq!(gated.flit_hops, plain.flit_hops);
    }

    #[test]
    fn local_only_groups_release_successors_immediately() {
        let g = Grid::new(4, 4);
        let msgs = vec![
            dmsg(&g, 1, 1, 1, 1, 5, 0), // local: never enters the network
            dmsg(&g, 0, 0, 2, 0, 2, 1),
        ];
        let d = dag(1, vec![task(0, &[0]), task(0, &[1])], vec![(0, 1)]);
        let prec = WindowPrecedence::build(&d, 0, &msgs).unwrap();
        let gated = CycleSim::new(g)
            .run_window_gated(&msgs, Some(&prec))
            .unwrap();
        // The predecessor's work is local (free): no gating delay at all.
        assert_eq!(gated, run(&g, &msgs));
    }

    #[test]
    fn unowned_traffic_must_be_move_only() {
        let g = Grid::new(4, 4);
        let d = dag(1, vec![task(0, &[0])], vec![]);
        // A move of a datum with no references in the window rides ungated.
        let mv = Message {
            kind: MessageKind::Move,
            ..dmsg(&g, 0, 0, 1, 0, 1, 7)
        };
        let prec = WindowPrecedence::build(&d, 0, &[mv]).unwrap();
        let r = CycleSim::new(g)
            .run_window_gated(&[mv], Some(&prec))
            .unwrap();
        assert_eq!(r.completion_cycle, 1);
        // A fetch of an unowned datum is a cover violation.
        let fetch = dmsg(&g, 0, 0, 1, 0, 1, 7);
        assert_eq!(
            WindowPrecedence::build(&d, 0, &[fetch]).unwrap_err(),
            SimError::UnownedMessage {
                window: 0,
                datum: 7
            }
        );
    }

    #[test]
    fn dag_sim_matches_plain_on_edge_free_and_cross_window_dags() {
        use pim_trace::builder::TraceBuilder;
        let g = Grid::new(4, 4);
        let mut b = TraceBuilder::new(g, 3);
        b.step()
            .access(g.proc_xy(0, 0), DataId(0))
            .access(g.proc_xy(3, 3), DataId(1));
        b.step()
            .access(g.proc_xy(3, 0), DataId(0))
            .access(g.proc_xy(0, 3), DataId(2));
        b.step().access(g.proc_xy(2, 2), DataId(1));
        let trace = b.finish().window_fixed(1);
        let sched = pim_sched::Run::new(&trace).run_named("gomcds").unwrap();
        // One task per (window, referenced datum), covering the trace.
        let mut tasks = Vec::new();
        for w in 0..trace.num_windows() {
            for d in 0..trace.num_data() {
                let did = DataId(d as u32);
                if !trace.window_run(did, w).is_empty() {
                    tasks.push(pim_trace::dag::Task {
                        window: w as u32,
                        data: vec![did],
                        wcet: 1,
                    });
                }
            }
        }
        let edge_free = TaskDag::new(trace.num_windows(), tasks.clone(), vec![]).unwrap();
        edge_free.validate_cover(&trace).unwrap();
        let plain = simulate_cycles(&trace, &sched, pim_par::Pool::serial()).unwrap();
        let gated =
            simulate_cycles_dag(&trace, &sched, &edge_free, pim_par::Pool::serial()).unwrap();
        assert_eq!(gated, plain);
        // Cross-window edges are covered by the window barrier: adding
        // one changes nothing.
        let t0 = edge_free.tasks_in_window(0)[0];
        let t1 = edge_free.tasks_in_window(1)[0];
        let cross = TaskDag::new(trace.num_windows(), tasks, vec![(t0, t1)]).unwrap();
        let gated2 = simulate_cycles_dag(&trace, &sched, &cross, pim_par::Pool::serial()).unwrap();
        assert_eq!(gated2, plain);
        // A DAG for the wrong window count is a typed error.
        let stub = TaskDag::new(1, vec![], vec![]).unwrap();
        assert_eq!(
            simulate_cycles_dag(&trace, &sched, &stub, pim_par::Pool::serial()).unwrap_err(),
            SimError::DagWindows {
                dag: 1,
                trace: trace.num_windows()
            }
        );
    }

    #[test]
    fn oversized_window_is_a_typed_error() {
        let g = Grid::new(4, 4);
        // 2 · 1 073 741 824 flit-hops ≥ the valve: refused, not clocked.
        let m = msg(&g, 0, 0, 2, 0, 1 << 30);
        assert_eq!(
            run_window(&g, &[m]),
            Err(SimError::NoProgress {
                cycle: SAFETY_VALVE_CYCLES
            })
        );
    }
}

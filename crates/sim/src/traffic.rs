//! Per-processor traffic accounting.
//!
//! Complements [`crate::report::SimReport`]'s per-link view with a
//! per-node one: how much volume each processor injects (as a datum's
//! center serving remote references, or as the source of a move), receives
//! (as a referencing processor or a move target), and forwards (as an
//! intermediate hop on someone else's x-y route). Forwarding traffic is
//! what PIM designers fear most — it steals memory bandwidth from the
//! node's own compute — so schedulers that reduce total hops *and* spread
//! forwarding matter.

use crate::engine::window_messages;
use pim_array::grid::{Grid, ProcId};
use pim_array::routing::visit_xy_route;
use pim_sched::schedule::Schedule;
use pim_trace::flat::FlatView;

/// Volume totals for one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Volume originating here (message source).
    pub injected: u64,
    /// Volume terminating here (message destination).
    pub received: u64,
    /// Volume passing through as an intermediate hop.
    pub forwarded: u64,
}

impl NodeTraffic {
    /// Everything this node's network interface handles.
    pub fn total(&self) -> u64 {
        self.injected + self.received + self.forwarded
    }
}

/// Per-processor traffic of a whole (trace, schedule) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMap {
    nodes: Vec<NodeTraffic>,
}

impl TrafficMap {
    /// Traffic of one processor.
    pub fn node(&self, p: ProcId) -> NodeTraffic {
        self.nodes[p.index()]
    }

    /// Iterate `(proc, traffic)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, NodeTraffic)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &t)| (ProcId(i as u32), t))
    }

    /// Total forwarded volume — pure overhead on third-party nodes.
    pub fn total_forwarded(&self) -> u64 {
        self.nodes.iter().map(|n| n.forwarded).sum()
    }

    /// The processor whose interface handles the most volume.
    pub fn busiest(&self) -> (ProcId, NodeTraffic) {
        self.iter()
            .max_by_key(|&(p, t)| (t.total(), u32::MAX - p.0))
            .expect("non-empty grid")
    }
}

/// Route every transfer and accumulate per-node traffic.
pub fn traffic_map(trace: &dyn FlatView, schedule: &Schedule) -> TrafficMap {
    let grid: Grid = trace.grid();
    let mut nodes = vec![NodeTraffic::default(); grid.num_procs()];
    for w in 0..trace.num_windows() {
        for m in window_messages(trace, schedule, w) {
            if m.is_local() {
                continue;
            }
            let vol = m.volume as u64;
            nodes[m.src.index()].injected += vol;
            nodes[m.dst.index()].received += vol;
            visit_xy_route(&grid, m.src, m.dst, |p| {
                if p != m.src && p != m.dst {
                    nodes[p.index()].forwarded += vol;
                }
            });
        }
    }
    TrafficMap { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pim_trace::flat::FlatTrace;
    use pim_trace::window::WindowRefs;

    #[test]
    fn single_transfer_accounting() {
        let grid = Grid::new(4, 4);
        // datum at (0,0), referenced 3 times from (2,0): route crosses (1,0)
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(2, 0), 3)])]],
        )
        .unwrap();
        let s = Schedule::static_placement(grid, vec![grid.proc_xy(0, 0)], 1);
        let t = traffic_map(&trace, &s);
        assert_eq!(t.node(grid.proc_xy(0, 0)).injected, 3);
        assert_eq!(t.node(grid.proc_xy(2, 0)).received, 3);
        assert_eq!(t.node(grid.proc_xy(1, 0)).forwarded, 3);
        assert_eq!(t.total_forwarded(), 3);
        let (busiest, traffic) = t.busiest();
        assert_eq!(traffic.total(), 3);
        // all three nodes tie at 3; tie-break favours the lowest id
        assert_eq!(busiest, grid.proc_xy(0, 0));
    }

    #[test]
    fn local_references_produce_no_traffic() {
        let grid = Grid::new(2, 2);
        let trace = FlatTrace::from_windows(
            grid,
            vec![vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 9)])]],
        )
        .unwrap();
        let s = Schedule::static_placement(grid, vec![grid.proc_xy(1, 1)], 1);
        let t = traffic_map(&trace, &s);
        assert!(t.iter().all(|(_, n)| n.total() == 0));
    }

    #[test]
    fn moves_counted_as_injected_and_received() {
        let grid = Grid::new(4, 4);
        let trace = FlatTrace::from_windows(grid, vec![vec![WindowRefs::new(), WindowRefs::new()]])
            .unwrap();
        let s = Schedule::new(grid, vec![vec![grid.proc_xy(0, 0), grid.proc_xy(0, 2)]]);
        let t = traffic_map(&trace, &s);
        assert_eq!(t.node(grid.proc_xy(0, 0)).injected, 1);
        assert_eq!(t.node(grid.proc_xy(0, 2)).received, 1);
        assert_eq!(t.node(grid.proc_xy(0, 1)).forwarded, 1);
    }
}

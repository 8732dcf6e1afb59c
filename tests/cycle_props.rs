//! Property tests for the event-driven cycle simulator.
//!
//! The rewrite in `pim_sim::cycle` is pinned bit-identical to the
//! brute-force oracle it replaced ([`pim_reference::run_window`]) — the
//! same oracle discipline the cost cache and grouping rework used — and
//! its completion times are checked
//! against the analytic `window_completion_time` lower bound. Run by
//! `scripts/ci.sh` in release mode (the vendored proptest shim derives a
//! fixed per-test seed, so the corpus is reproducible).

use pim_array::grid::{Grid, ProcId};
use pim_sim::contention::window_completion_time;
use pim_sim::cycle::CycleSim;
use pim_sim::message::{Message, MessageKind};
use pim_sim::WindowPrecedence;
use pim_trace::dag::{Task, TaskDag};
use pim_trace::ids::DataId;
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (1u32..=8, 1u32..=8).prop_map(|(w, h)| Grid::new(w, h))
}

/// Random message sets over the grid: arbitrary endpoint pairs (locals
/// included — they must be free), volumes 0..=9 (zero-volume must also be
/// free), message ids in declaration order as `window_messages` produces
/// them.
fn arb_window() -> impl Strategy<Value = (Grid, Vec<Message>)> {
    arb_grid().prop_flat_map(|grid| {
        let n = grid.num_procs() as u32;
        proptest::collection::vec((0..n, 0..n, 0u32..10), 0..24).prop_map(move |triples| {
            let msgs = triples
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst, volume))| Message {
                    src: ProcId(src),
                    dst: ProcId(dst),
                    volume,
                    data: DataId(i as u32),
                    window: 0,
                    kind: if i % 3 == 0 {
                        MessageKind::Move
                    } else {
                        MessageKind::Fetch
                    },
                })
                .collect();
            (grid, msgs)
        })
    })
}

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

/// A dense mixed case: shared links in both axes, opposing directions,
/// different volumes — the shapes most likely to shake out an arbitration
/// divergence from the oracle.
#[test]
fn crossing_and_opposing_traffic_matches_oracle() {
    let g = Grid::new(4, 4);
    let msgs = vec![
        msg(&g, 0, 0, 3, 3, 4),
        msg(&g, 3, 3, 0, 0, 4),
        msg(&g, 0, 3, 3, 0, 2),
        msg(&g, 3, 0, 0, 3, 5),
        msg(&g, 1, 1, 1, 1, 9), // local noise between the ids
        msg(&g, 0, 0, 3, 3, 1),
        msg(&g, 2, 0, 2, 3, 7),
    ];
    let event = CycleSim::new(g).run_window(&msgs).expect("event sim");
    let oracle = pim_reference::run_window(&g, &msgs).expect("oracle sim");
    assert_eq!(event, oracle, "event-driven diverged from the oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The event-driven simulator and the brute-force oracle agree bit for
    /// bit on every observable: completion, delivered flit-hops, and the
    /// peak number of flits in flight.
    #[test]
    fn event_driven_matches_oracle((grid, msgs) in arb_window()) {
        let event = CycleSim::new(grid).run_window(&msgs).expect("event sim");
        let oracle = pim_reference::run_window(&grid, &msgs).expect("oracle sim");
        prop_assert_eq!(event, oracle, "event-driven diverged from the oracle");
    }

    /// Reusing one workspace across windows never changes a result.
    #[test]
    fn workspace_reuse_matches_one_shot(
        (grid, msgs) in arb_window(),
        rounds in 1usize..4,
    ) {
        let fresh = CycleSim::new(grid).run_window(&msgs).expect("fresh sim");
        let mut sim = CycleSim::new(grid);
        for _ in 0..rounds {
            let reused = sim.run_window(&msgs).expect("reused sim");
            prop_assert_eq!(reused, fresh, "workspace reuse leaked state");
        }
    }

    /// Simulated completion can never beat the analytic bandwidth/latency
    /// lower bound, and delivered flit-hops equal the analytic hop-volume.
    #[test]
    fn completion_dominates_analytic_bound((grid, msgs) in arb_window()) {
        let r = CycleSim::new(grid).run_window(&msgs).expect("event sim");
        let bound = window_completion_time(&grid, &msgs);
        prop_assert!(
            r.completion_cycle >= bound,
            "simulated {} < analytic bound {}", r.completion_cycle, bound
        );
        let hop_volume: u64 = msgs
            .iter()
            .filter(|m| !m.is_local())
            .map(|m| grid.dist(m.src, m.dst) * m.volume as u64)
            .sum();
        prop_assert_eq!(r.flit_hops, hop_volume);
    }

    /// Precedence-gated release with an edge-free DAG injects everything
    /// at cycle 0 — pinned bit-identical to the ungated simulator on every
    /// observable (the no-DAG conformance of the gating layer).
    #[test]
    fn edge_free_gating_matches_ungated((grid, msgs) in arb_window()) {
        let plain = CycleSim::new(grid).run_window(&msgs).expect("plain sim");
        let tasks: Vec<Task> = msgs
            .iter()
            .map(|m| Task { window: 0, data: vec![m.data], wcet: 1 })
            .collect();
        let dag = TaskDag::new(1, tasks, vec![]).expect("edge-free dag");
        let prec = WindowPrecedence::build(&dag, 0, &msgs).expect("one task per message");
        let gated = CycleSim::new(grid)
            .run_window_gated(&msgs, Some(&prec))
            .expect("gated sim");
        prop_assert_eq!(gated, plain, "edge-free gating diverged from the ungated sim");
    }

    /// Gating under a full serial chain can only delay injection: the
    /// delivered flit-hops are conserved and completion never improves on
    /// the all-at-window-start run.
    #[test]
    fn chain_gating_conserves_hops_and_never_speeds_up((grid, msgs) in arb_window()) {
        let plain = CycleSim::new(grid).run_window(&msgs).expect("plain sim");
        let tasks: Vec<Task> = msgs
            .iter()
            .map(|m| Task { window: 0, data: vec![m.data], wcet: 1 })
            .collect();
        let edges = (1..tasks.len() as u32).map(|t| (t - 1, t)).collect();
        let dag = TaskDag::new(1, tasks, edges).expect("chain dag");
        let prec = WindowPrecedence::build(&dag, 0, &msgs).expect("one task per message");
        let gated = CycleSim::new(grid)
            .run_window_gated(&msgs, Some(&prec))
            .expect("gated sim");
        prop_assert_eq!(gated.flit_hops, plain.flit_hops, "gating lost flits");
        prop_assert!(
            gated.peak_in_flight <= plain.peak_in_flight,
            "serializing release cannot raise the in-flight peak"
        );
        prop_assert!(
            gated.completion_cycle >= plain.completion_cycle,
            "gated {} beat ungated {}", gated.completion_cycle, plain.completion_cycle
        );
    }
}

//! The brute-force cycle loop `pim_sim::cycle`'s event-driven simulator
//! replaced: every flit is materialized and every in-flight flit is
//! visited every cycle.

use pim_array::grid::{Grid, ProcId};
use pim_array::routing::{xy_route, Link, LinkIndex};
use pim_sim::message::Message;
use pim_sim::{CycleResult, SimError, SAFETY_VALVE_CYCLES};

/// One flit in transit.
#[derive(Debug, Clone)]
struct Flit {
    /// Remaining route (next hop is `route[pos]` → `route[pos + 1]`).
    route: std::sync::Arc<[ProcId]>,
    pos: usize,
    /// Message id for deterministic arbitration (FIFO by injection order).
    msg: usize,
}

impl Flit {
    fn arrived(&self) -> bool {
        self.pos + 1 == self.route.len()
    }
    fn next_link(&self, links: &LinkIndex) -> usize {
        links.index_of(Link {
            from: self.route[self.pos],
            to: self.route[self.pos + 1],
        })
    }
}

/// Clock one window's messages to completion, one flit per link per
/// cycle, oldest flit first and then lowest message id — the same model
/// as `pim_sim::cycle::run_window`, which is pinned bit-identical to this
/// loop. `O(cycles × flits in flight)`: use only for validation and for
/// timing the event-driven simulator against.
pub fn run_window(grid: &Grid, messages: &[Message]) -> Result<CycleResult, SimError> {
    let links = LinkIndex::new(*grid);
    // Materialize flits: message m with volume v yields v flits injected at
    // cycles 0..v (one per cycle).
    let mut pending: Vec<(u64, Flit)> = Vec::new(); // (injection cycle, flit)
    for (mid, m) in messages.iter().enumerate() {
        if m.is_local() {
            continue;
        }
        let route: std::sync::Arc<[ProcId]> = xy_route(grid, m.src, m.dst).into();
        for f in 0..m.volume {
            pending.push((
                f as u64,
                Flit {
                    route: route.clone(),
                    pos: 0,
                    msg: mid,
                },
            ));
        }
    }
    // Stable order: by injection cycle, then message id (FIFO fairness).
    pending.sort_by_key(|(c, f)| (*c, f.msg));

    let mut in_flight: Vec<Flit> = Vec::new();
    let mut cycle: u64 = 0;
    let mut flit_hops: u64 = 0;
    let mut peak = 0usize;
    let mut next_pending = 0usize;
    let mut link_busy = vec![false; links.num_slots()];

    while next_pending < pending.len() || !in_flight.is_empty() {
        // inject this cycle's flits
        while next_pending < pending.len() && pending[next_pending].0 <= cycle {
            in_flight.push(pending[next_pending].1.clone());
            next_pending += 1;
        }
        peak = peak.max(in_flight.len());

        // arbitration: flits claim their next link in order (older messages
        // first — the Vec is kept in injection order).
        link_busy.iter_mut().for_each(|b| *b = false);
        let mut still_flying = Vec::with_capacity(in_flight.len());
        for mut flit in in_flight.drain(..) {
            let link = flit.next_link(&links);
            if link_busy[link] {
                still_flying.push(flit); // blocked this cycle
                continue;
            }
            link_busy[link] = true;
            flit.pos += 1;
            flit_hops += 1;
            if !flit.arrived() {
                still_flying.push(flit);
            }
        }
        in_flight = still_flying;
        cycle += 1;

        // safety valve: progress is guaranteed (at least one flit moves per
        // cycle when any is in flight), so this can only trip on a future
        // modelling bug — reported as a typed error, not a panic.
        if cycle >= SAFETY_VALVE_CYCLES {
            return Err(SimError::NoProgress { cycle });
        }
    }
    Ok(CycleResult {
        completion_cycle: cycle,
        flit_hops,
        peak_in_flight: peak,
    })
}

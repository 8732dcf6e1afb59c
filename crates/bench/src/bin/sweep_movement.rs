//! Ablation F: movement-cost crossover.
//!
//! The paper charges one time unit per hop for moving a datum — implicitly
//! assuming data items are as cheap to move as to reference. Real PIM
//! arrays move whole rows/pages; this sweep scales the per-hop movement
//! charge (`move_weight` = datum transfer volume) and watches the optimal
//! policy collapse: GOMCDS (re-solved with the weighted cost graph) moves
//! less and less until it degenerates into SCDS, while LOMCDS — which
//! ignores movement when picking centers — falls behind SCDS. The
//! crossover point is the figure's payload.

use pim_array::grid::Grid;
use pim_sched::gomcds::gomcds_schedule_volumes;
use pim_sched::{schedule, MemoryPolicy, Method};
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;
    let csv = std::env::args().any(|a| a == "--csv");
    let bench = Benchmark::CodeReverse;
    let (trace, _) = windowed(bench, grid, n, 2, 1998);

    // Weight-independent schedules, evaluated under each weight.
    let scds = schedule(Method::Scds, &trace, MemoryPolicy::Unbounded);
    let lomcds = schedule(Method::Lomcds, &trace, MemoryPolicy::Unbounded);

    if csv {
        println!("move_weight,scds,lomcds,gomcds,gomcds_moves");
    } else {
        println!(
            "Movement-cost crossover on benchmark {} ({n}x{n}, 4x4 array, unbounded memory)\n",
            bench.label()
        );
        println!(
            "{:>11} {:>10} {:>10} {:>10} {:>13}",
            "move_weight", "SCDS", "LOMCDS", "GOMCDS", "GOMCDS moves"
        );
    }

    for weight in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        // Re-solve GOMCDS against the weighted cost graph.
        let volumes = vec![weight; trace.num_data()];
        let gomcds = gomcds_schedule_volumes(&trace, &volumes);

        let sc = scds.evaluate_volumes(&trace, &volumes).total();
        let lo = lomcds.evaluate_volumes(&trace, &volumes).total();
        let go = gomcds.evaluate_volumes(&trace, &volumes).total();
        assert!(go <= sc && go <= lo, "weighted GOMCDS must stay optimal");

        if csv {
            println!("{weight},{sc},{lo},{go},{}", gomcds.num_moves());
        } else {
            println!(
                "{:>11} {:>10} {:>10} {:>10} {:>13}",
                weight,
                sc,
                lo,
                go,
                gomcds.num_moves()
            );
        }
    }
    if !csv {
        println!(
            "\nSCDS is weight-invariant (it never moves). As movement gets\n\
             expensive GOMCDS sheds its moves and converges to SCDS from\n\
             below; LOMCDS, blind to movement cost, crosses above SCDS."
        );
    }
}

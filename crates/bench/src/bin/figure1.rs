//! Regenerates **Figure 1 / Section 3.3** of the paper: the worked example
//! of the three schedulers on one datum `D` over a 4×4 array and four
//! execution windows. Prints the per-window reference counts, each
//! scheduler's center sequence and total cost, and checks them against the
//! centers stated in the paper's prose.

use pim_sched::{schedule, MemoryPolicy, Method};
use pim_trace::ids::DataId;
use pim_workloads::paper_example::{expectation, figure1_trace, grid};

fn main() {
    let (trace, _) = figure1_trace();
    let g = grid();
    let exp = expectation();

    println!("Figure 1: processor references for data D (4x4 array, 4 windows)\n");
    for w in 0..trace.num_windows() {
        println!("execution window {w}:");
        for y in 0..g.height() {
            let mut line = String::from("  ");
            for x in 0..g.width() {
                let run = trace.window_run(DataId(0), w);
                let v = run
                    .iter()
                    .find(|r| (r.x, r.y) == (x, y))
                    .map_or(0, |r| r.count);
                line.push_str(&format!("{v:>3}"));
            }
            println!("{line}");
        }
    }
    println!();

    for (method, name) in [
        (Method::Scds, "SCDS"),
        (Method::Lomcds, "LOMCDS"),
        (Method::Gomcds, "GOMCDS"),
    ] {
        let s = schedule(method, &trace, MemoryPolicy::Unbounded);
        let centers: Vec<String> = (0..trace.num_windows())
            .map(|w| {
                let p = g.point_of(s.center(DataId(0), w));
                format!("({},{})", p.x, p.y)
            })
            .collect();
        println!(
            "{name:<7} centers: {}  total cost: {}",
            centers.join(" "),
            s.evaluate(&trace).total()
        );
    }

    println!(
        "\npaper prose: SCDS center (1,0); LOMCDS (1,0) (1,3) (1,0) (1,1); \
         GOMCDS (1,0) (1,0) (1,0) (1,1)"
    );
    println!(
        "reconstructed costs: SCDS {}, LOMCDS {}, GOMCDS {} (GOMCDS < LOMCDS < SCDS: {})",
        exp.scds_cost,
        exp.lomcds_cost,
        exp.gomcds_cost,
        exp.gomcds_cost < exp.lomcds_cost && exp.lomcds_cost < exp.scds_cost
    );
}

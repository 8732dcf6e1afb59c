//! Uniform handle over every benchmark.
//!
//! The experiment drivers (tables, sweeps, CLI) all speak in terms of
//! [`Benchmark`] values; the paper's evaluation set is
//! [`Benchmark::paper_set`].

use crate::cholesky::{cholesky_trace, CholeskyParams};
use crate::code::{code_trace, CodeParams};
use crate::combos;
use crate::fft::{fft_trace, FftParams};
use crate::lu::{lu_trace, LuParams};
use crate::matmul::{matmul_trace, MatMulParams};
use crate::sor::{sor_trace, SorParams};
use crate::space::DataSpace;
use crate::stencil::{stencil_trace, StencilParams};
use crate::transpose::{transpose_trace, TransposeParams};
use crate::trisolve::{trisolve_trace, TrisolveParams};
use pim_array::grid::Grid;
use pim_trace::flat::FlatTrace;
use pim_trace::step::StepTrace;

/// Every workload the harness can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// Paper benchmark 1: LU factorization.
    Lu,
    /// Paper benchmark 2: matrix squaring.
    MatMul,
    /// Paper benchmark 3: LU then CODE.
    LuCode,
    /// Paper benchmark 4: matrix squaring then CODE.
    MatMulCode,
    /// Paper benchmark 5: CODE then reversed CODE.
    CodeReverse,
    /// Extra: the synthetic CODE kernel alone.
    Code,
    /// Extra: Jacobi five-point stencil (negative control).
    Jacobi,
    /// Extra: repeated transpose + row sweep.
    Transpose,
    /// Extra: red-black SOR.
    Sor,
    /// Extra: right-looking Cholesky factorization.
    Cholesky,
    /// Extra: triangular solve with many right-hand sides (wavefront).
    Trisolve,
    /// Extra: radix-2 FFT butterflies (stage-doubling partner distance).
    Fft,
}

impl Benchmark {
    /// The paper's evaluation set, in table order (benchmarks 1–5).
    pub fn paper_set() -> [Benchmark; 5] {
        [
            Benchmark::Lu,
            Benchmark::MatMul,
            Benchmark::LuCode,
            Benchmark::MatMulCode,
            Benchmark::CodeReverse,
        ]
    }

    /// Table label: the paper's benchmark number, or a name for extras.
    pub fn label(&self) -> &'static str {
        match self {
            Benchmark::Lu => "1",
            Benchmark::MatMul => "2",
            Benchmark::LuCode => "3",
            Benchmark::MatMulCode => "4",
            Benchmark::CodeReverse => "5",
            Benchmark::Code => "code",
            Benchmark::Jacobi => "jacobi",
            Benchmark::Transpose => "transpose",
            Benchmark::Sor => "sor",
            Benchmark::Cholesky => "cholesky",
            Benchmark::Trisolve => "trisolve",
            Benchmark::Fft => "fft",
        }
    }

    /// Long name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Lu => "LU factorization",
            Benchmark::MatMul => "matrix squaring",
            Benchmark::LuCode => "LU + CODE",
            Benchmark::MatMulCode => "matmul + CODE",
            Benchmark::CodeReverse => "CODE + reverse CODE",
            Benchmark::Code => "CODE kernel",
            Benchmark::Jacobi => "Jacobi stencil",
            Benchmark::Transpose => "transpose",
            Benchmark::Sor => "red-black SOR",
            Benchmark::Cholesky => "Cholesky factorization",
            Benchmark::Trisolve => "triangular solve",
            Benchmark::Fft => "FFT butterflies",
        }
    }

    /// Parse a label or name back into a benchmark.
    pub fn parse(s: &str) -> Option<Benchmark> {
        let all = [
            Benchmark::Lu,
            Benchmark::MatMul,
            Benchmark::LuCode,
            Benchmark::MatMulCode,
            Benchmark::CodeReverse,
            Benchmark::Code,
            Benchmark::Jacobi,
            Benchmark::Transpose,
            Benchmark::Sor,
            Benchmark::Cholesky,
            Benchmark::Trisolve,
            Benchmark::Fft,
        ];
        all.into_iter().find(|b| {
            b.label().eq_ignore_ascii_case(s)
                || b.name().eq_ignore_ascii_case(s)
                || format!("b{}", b.label()).eq_ignore_ascii_case(s)
        })
    }

    /// Generate the raw step trace with an explicit iteration partition
    /// (the paper's *iteration partition* pre-stage). Kernels without an
    /// iteration space of their own (the synthetic CODE) ignore it.
    pub fn generate_with_layout(
        &self,
        grid: Grid,
        n: u32,
        seed: u64,
        iter_layout: pim_array::layout::Layout,
    ) -> (StepTrace, DataSpace) {
        use pim_array::layout::Layout;
        let _ = Layout::Block2D; // keep the import local and explicit
        match self {
            Benchmark::Lu => lu_trace(grid, LuParams { n, iter_layout }),
            Benchmark::MatMul => matmul_trace(grid, MatMulParams { n, iter_layout }),
            Benchmark::LuCode => {
                let (lu, lu_space) = lu_trace(grid, LuParams { n, iter_layout });
                let (code, code_space) = code_trace(grid, CodeParams::new(n, seed));
                (lu.concat(&code), lu_space.union(code_space))
            }
            Benchmark::MatMulCode => {
                let (mm, mm_space) = matmul_trace(grid, MatMulParams { n, iter_layout });
                let (code, code_space) = code_trace(grid, CodeParams::new(n, seed));
                (mm.concat(&code), mm_space.union(code_space))
            }
            Benchmark::CodeReverse | Benchmark::Code => self.generate(grid, n, seed),
            Benchmark::Jacobi => stencil_trace(
                grid,
                StencilParams {
                    n,
                    sweeps: (n / 2).max(2),
                    iter_layout,
                },
            ),
            Benchmark::Transpose => transpose_trace(
                grid,
                TransposeParams {
                    n,
                    passes: (n / 4).max(2),
                    iter_layout,
                },
            ),
            Benchmark::Sor => sor_trace(
                grid,
                SorParams {
                    n,
                    sweeps: (n / 2).max(2),
                    iter_layout,
                },
            ),
            Benchmark::Cholesky => cholesky_trace(grid, CholeskyParams { n, iter_layout }),
            Benchmark::Trisolve => trisolve_trace(grid, TrisolveParams { n, iter_layout }),
            Benchmark::Fft => fft_trace(
                grid,
                FftParams {
                    points: (n * n).next_power_of_two(),
                    iter_layout,
                },
            ),
        }
    }

    /// Generate the raw step trace for an `n × n` data size.
    pub fn generate(&self, grid: Grid, n: u32, seed: u64) -> (StepTrace, DataSpace) {
        match self {
            Benchmark::Lu => lu_trace(grid, LuParams::new(n)),
            Benchmark::MatMul => matmul_trace(grid, MatMulParams::new(n)),
            Benchmark::LuCode => combos::lu_then_code(grid, n, seed),
            Benchmark::MatMulCode => combos::matmul_then_code(grid, n, seed),
            Benchmark::CodeReverse => combos::code_then_reverse(grid, n, seed),
            Benchmark::Code => code_trace(grid, CodeParams::new(n, seed)),
            Benchmark::Jacobi => stencil_trace(grid, StencilParams::new(n, (n / 2).max(2))),
            Benchmark::Transpose => transpose_trace(grid, TransposeParams::new(n, (n / 4).max(2))),
            Benchmark::Sor => sor_trace(grid, SorParams::new(n, (n / 2).max(2))),
            Benchmark::Cholesky => cholesky_trace(grid, CholeskyParams::new(n)),
            Benchmark::Trisolve => trisolve_trace(grid, TrisolveParams::new(n)),
            Benchmark::Fft => {
                // map the n×n "size" convention onto a power-of-two vector
                fft_trace(grid, FftParams::new((n * n).next_power_of_two()))
            }
        }
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generate a benchmark and window it with `steps_per_window` steps per
/// execution window — the standard entry point for experiments.
pub fn windowed(
    bench: Benchmark,
    grid: Grid,
    n: u32,
    steps_per_window: usize,
    seed: u64,
) -> (FlatTrace, DataSpace) {
    let (steps, space) = bench.generate(grid, n, seed);
    (steps.window_fixed(steps_per_window), space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::validate::validate_steps;

    #[test]
    fn every_benchmark_generates_valid_traces() {
        let grid = Grid::new(4, 4);
        for b in [
            Benchmark::Lu,
            Benchmark::MatMul,
            Benchmark::LuCode,
            Benchmark::MatMulCode,
            Benchmark::CodeReverse,
            Benchmark::Code,
            Benchmark::Jacobi,
            Benchmark::Transpose,
            Benchmark::Sor,
            Benchmark::Cholesky,
            Benchmark::Trisolve,
            Benchmark::Fft,
        ] {
            let (t, space) = b.generate(grid, 8, 11);
            assert_eq!(validate_steps(&t), Ok(()), "{b}");
            assert_eq!(t.num_data, space.total_data(), "{b}");
            assert!(t.total_refs() > 0, "{b}");
            let (w, _) = windowed(b, grid, 8, 2, 11);
            assert_eq!(w.total_volume(), t.total_refs(), "{b}");
        }
    }

    #[test]
    fn paper_set_order() {
        let labels: Vec<&str> = Benchmark::paper_set().iter().map(|b| b.label()).collect();
        assert_eq!(labels, vec!["1", "2", "3", "4", "5"]);
    }

    #[test]
    fn parse_labels_and_names() {
        assert_eq!(Benchmark::parse("1"), Some(Benchmark::Lu));
        assert_eq!(Benchmark::parse("b3"), Some(Benchmark::LuCode));
        assert_eq!(Benchmark::parse("jacobi"), Some(Benchmark::Jacobi));
        assert_eq!(Benchmark::parse("LU factorization"), Some(Benchmark::Lu));
        assert_eq!(Benchmark::parse("nope"), None);
    }

    #[test]
    fn windowed_respects_window_size() {
        let grid = Grid::new(4, 4);
        let (t, _) = Benchmark::Lu.generate(grid, 8, 0);
        let (w, _) = windowed(Benchmark::Lu, grid, 8, 2, 0);
        assert_eq!(w.num_windows(), t.num_steps().div_ceil(2));
    }
}

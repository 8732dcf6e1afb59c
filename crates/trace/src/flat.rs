//! Flat structure-of-arrays (SoA) trace layout — the one in-memory trace
//! representation.
//!
//! [`FlatTrace`] stores every datum's reference strings datum-major in
//! **one** contiguous `refs` array (CSR layout): per datum an
//! `(offset, len)` span of [`FlatRef`] records carrying the window id, the
//! axis-projected processor coordinates, and the access count. Schedulers
//! iterate a datum's whole reference run as a plain slice — no per-window
//! allocation, no pointer chasing, and the axis projections the L1 cost
//! machinery wants are precomputed in the record.
//!
//! Invariants (established by every constructor):
//!
//! * a datum's records are sorted by `(window, y, x)` — window-major, then
//!   ascending processor id (`id = y·width + x`), matching the iteration
//!   order of [`crate::window::WindowRefs::iter`];
//! * at most one record per `(datum, window, processor)` triple (duplicate
//!   input records aggregate their counts, saturating at `u32::MAX`);
//! * every record's window is `< num_windows` and its coordinates are on
//!   the grid.
//!
//! [`FlatTrace::from_records`] is the one validating constructor: step
//! windowing ([`crate::step::StepTrace::window_fixed`]), the text loader
//! ([`FlatTrace::from_reader`]) and hand-written traces
//! ([`FlatTrace::from_windows`]) all route through it.

use crate::ids::DataId;
use crate::window::WindowRefs;
use pim_array::grid::{Grid, ProcId};
use std::io::BufRead;

/// One reference in the flat layout: "in `window`, the processor at
/// `(x, y)` touched this datum `count` times".
///
/// `#[repr(C)]` pins the field order so the record has a guaranteed
/// 16-byte layout (four `u32`s, no padding, every bit pattern valid) —
/// [`crate::binfmt`] relies on this to reinterpret mapped file bytes as
/// `&[FlatRef]` without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct FlatRef {
    /// Execution window of the reference.
    pub window: u32,
    /// Column of the referencing processor (x axis projection).
    pub x: u32,
    /// Row of the referencing processor (y axis projection).
    pub y: u32,
    /// Access count (reference volume).
    pub count: u32,
}

impl FlatRef {
    /// The referencing processor's dense id on `grid`.
    #[inline]
    pub fn proc(&self, grid: &Grid) -> ProcId {
        grid.proc_xy(self.x, self.y)
    }
}

/// One raw `(datum, window, proc, count)` record fed to
/// [`FlatTrace::from_records`]. Records may arrive in any order and may
/// repeat a `(datum, window, proc)` triple (counts aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatRecord {
    /// The referenced datum.
    pub datum: DataId,
    /// Execution window of the access.
    pub window: u32,
    /// Referencing processor.
    pub proc: ProcId,
    /// Access count.
    pub count: u32,
}

/// Why a flat trace could not be built or parsed.
#[derive(Debug)]
pub enum FlatTraceError {
    /// A record referenced a window `>= num_windows`.
    WindowOutOfRange {
        /// The offending window id.
        window: u32,
        /// Number of windows the trace declares.
        num_windows: usize,
    },
    /// A record referenced a processor outside the grid.
    ProcOutOfRange {
        /// The offending processor id.
        proc: u32,
        /// Number of processors on the grid.
        num_procs: usize,
    },
    /// A record referenced a datum `>= num_data` (header-declared count).
    DatumOutOfRange {
        /// The offending datum id.
        datum: u32,
        /// Number of data the trace declares.
        num_data: usize,
    },
    /// The datum population does not fit the dense 32-bit id space.
    IdOverflow(crate::ids::IdOverflow),
    /// A line of the text format did not parse.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The underlying reader failed.
    Io(std::io::Error),
}

impl core::fmt::Display for FlatTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlatTraceError::WindowOutOfRange {
                window,
                num_windows,
            } => write!(f, "window {window} out of range (trace has {num_windows})"),
            FlatTraceError::ProcOutOfRange { proc, num_procs } => {
                write!(f, "processor {proc} out of range (grid has {num_procs})")
            }
            FlatTraceError::DatumOutOfRange { datum, num_data } => {
                write!(f, "datum {datum} out of range (trace declares {num_data})")
            }
            FlatTraceError::IdOverflow(e) => write!(f, "{e}"),
            FlatTraceError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            FlatTraceError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl std::error::Error for FlatTraceError {}

impl From<std::io::Error> for FlatTraceError {
    fn from(e: std::io::Error) -> Self {
        FlatTraceError::Io(e)
    }
}

impl From<crate::ids::IdOverflow> for FlatTraceError {
    fn from(e: crate::ids::IdOverflow) -> Self {
        FlatTraceError::IdOverflow(e)
    }
}

/// Read-only accessor surface of a datum-major CSR trace.
///
/// Everything `pim_sched`'s flat schedulers consume is behind this trait,
/// so they run unchanged against an owned in-memory [`FlatTrace`] or a
/// zero-copy [`crate::binfmt::BinTrace`] borrowing memory-mapped file
/// bytes. Implementations must uphold the CSR invariants documented in
/// the [module docs](self): spans sorted by `(window, y, x)`, duplicates
/// aggregated, windows and coordinates in range.
///
/// The `Sync` bound lets schedulers shard spans across the worker pool by
/// shared reference.
pub trait FlatView: Sync {
    /// The processor grid.
    fn grid(&self) -> Grid;
    /// Number of execution windows.
    fn num_windows(&self) -> usize;
    /// Number of data items.
    fn num_data(&self) -> usize;
    /// Total number of (aggregated) reference records.
    fn num_refs(&self) -> usize;
    /// Datum `d`'s whole reference run, window-major.
    fn span(&self, d: DataId) -> &[FlatRef];

    /// Sum of every record's count.
    fn total_volume(&self) -> u64 {
        (0..self.num_data())
            .map(|d| {
                self.span(DataId(d as u32))
                    .iter()
                    .map(|r| r.count as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Datum `d`'s references in window `w` (possibly empty), found by
    /// binary search within the span.
    fn window_run(&self, d: DataId, w: usize) -> &[FlatRef] {
        span_window(self.span(d), w)
    }

    /// A contiguous chunk size for sharding per-datum work over `threads`
    /// workers: targets several chunks per worker (for load balancing)
    /// while keeping each chunk's reference footprint large enough that
    /// workers stream cache-friendly runs of `refs` instead of ping-ponging
    /// over single data.
    fn suggested_chunk(&self, threads: usize) -> usize {
        let nd = self.num_data();
        if nd == 0 {
            return 1;
        }
        let per_thread = nd.div_ceil(threads.max(1));
        // ~8 chunks per worker, each at least one datum.
        per_thread.div_ceil(8).clamp(1, per_thread.max(1))
    }
}

/// A span's references in window `w` (possibly empty), found by binary
/// search on the sorted window ids.
pub fn span_window(span: &[FlatRef], w: usize) -> &[FlatRef] {
    let lo = span.partition_point(|r| (r.window as usize) < w);
    let hi = span.partition_point(|r| (r.window as usize) <= w);
    &span[lo..hi]
}

/// Iterate a span's non-empty windows as `(window, run)` pairs in
/// ascending window order. Works for any [`FlatView`] span.
pub fn span_window_runs(span: &[FlatRef]) -> impl Iterator<Item = (u32, &[FlatRef])> {
    span.chunk_by(|a, b| a.window == b.window)
        .map(|run| (run[0].window, run))
}

/// Datum-major CSR view of a whole windowed trace (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTrace {
    grid: Grid,
    num_windows: usize,
    /// `offsets[d]..offsets[d + 1]` is datum `d`'s span in `refs`.
    offsets: Vec<usize>,
    refs: Vec<FlatRef>,
}

impl FlatTrace {
    /// Build from raw records in any order. `num_data` fixes the datum
    /// population (trailing never-referenced data are legal); duplicate
    /// `(datum, window, proc)` records aggregate their counts, saturating
    /// at `u32::MAX`. Beyond the output arrays, peak memory is one
    /// `(DataId, FlatRef)` pair per input record.
    pub fn from_records(
        grid: Grid,
        num_windows: usize,
        num_data: usize,
        records: impl IntoIterator<Item = FlatRecord>,
    ) -> Result<FlatTrace, FlatTraceError> {
        let num_windows = num_windows.max(1);
        let _ = DataId::try_from_index(num_data.saturating_sub(1))?;
        let mut tagged: Vec<(u32, FlatRef)> = Vec::new();
        for r in records {
            if r.datum.index() >= num_data {
                return Err(FlatTraceError::DatumOutOfRange {
                    datum: r.datum.0,
                    num_data,
                });
            }
            if r.window as usize >= num_windows {
                return Err(FlatTraceError::WindowOutOfRange {
                    window: r.window,
                    num_windows,
                });
            }
            if r.proc.index() >= grid.num_procs() {
                return Err(FlatTraceError::ProcOutOfRange {
                    proc: r.proc.0,
                    num_procs: grid.num_procs(),
                });
            }
            let p = grid.point_of(r.proc);
            tagged.push((
                r.datum.0,
                FlatRef {
                    window: r.window,
                    x: p.x,
                    y: p.y,
                    count: r.count,
                },
            ));
        }
        // Sort into the canonical (datum, window, proc) order, then
        // aggregate duplicates in place.
        tagged.sort_unstable_by_key(|&(d, r)| (d, r.window, r.y, r.x));
        let mut offsets = vec![0usize; num_data + 1];
        let mut refs: Vec<FlatRef> = Vec::with_capacity(tagged.len());
        let mut cursor = 0usize; // next datum whose offset is unset
        for (d, r) in tagged {
            let same_key = refs.last().is_some_and(|last| {
                cursor == d as usize + 1
                    && last.window == r.window
                    && last.y == r.y
                    && last.x == r.x
            });
            if same_key {
                let last = refs.last_mut().expect("checked non-empty");
                last.count = last.count.saturating_add(r.count);
                continue;
            }
            while cursor <= d as usize {
                offsets[cursor] = refs.len();
                cursor += 1;
            }
            refs.push(r);
        }
        while cursor <= num_data {
            offsets[cursor] = refs.len();
            cursor += 1;
        }
        Ok(FlatTrace {
            grid,
            num_windows,
            offsets,
            refs,
        })
    }

    /// Assemble a hand-written trace from per-datum, per-window reference
    /// strings (`per_data[d][w]`), for tests and examples. Every datum must
    /// list the same number of windows; a datum with none is padded to one
    /// empty window. Routed through [`FlatTrace::from_records`], so a
    /// processor off the grid is rejected.
    ///
    /// # Panics
    /// Panics when data list different window counts.
    pub fn from_windows(
        grid: Grid,
        per_data: Vec<Vec<WindowRefs>>,
    ) -> Result<FlatTrace, FlatTraceError> {
        let num_windows = per_data.first().map_or(1, Vec::len).max(1);
        let mut records = Vec::new();
        for (d, windows) in per_data.iter().enumerate() {
            assert!(
                windows.len() == num_windows || windows.is_empty(),
                "ragged window counts"
            );
            for (w, refs) in windows.iter().enumerate() {
                records.extend(refs.iter().map(|r| FlatRecord {
                    datum: DataId(d as u32),
                    window: w as u32,
                    proc: r.proc,
                    count: r.count,
                }));
            }
        }
        FlatTrace::from_records(grid, num_windows, per_data.len(), records)
    }

    /// Assemble from already-canonical CSR parts: `offsets[d]..offsets[d+1]`
    /// spans `refs`, every span sorted by `(window, y, x)` with duplicates
    /// pre-aggregated. Used by [`crate::edit::EditableTrace::materialize`],
    /// whose overlay spans uphold the invariants by construction; debug
    /// builds re-check the ordering.
    pub(crate) fn from_sorted_parts(
        grid: Grid,
        num_windows: usize,
        offsets: Vec<usize>,
        refs: Vec<FlatRef>,
    ) -> FlatTrace {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().expect("non-empty"), refs.len());
        debug_assert!(offsets.windows(2).all(|w| {
            refs[w[0]..w[1]]
                .windows(2)
                .all(|p| (p[0].window, p[0].y, p[0].x) < (p[1].window, p[1].y, p[1].x))
        }));
        debug_assert!(refs.iter().all(|r| (r.window as usize) < num_windows.max(1)
            && r.x < grid.width()
            && r.y < grid.height()));
        FlatTrace {
            grid,
            num_windows: num_windows.max(1),
            offsets,
            refs,
        }
    }

    /// Stream the line-oriented text format (see [`FlatTrace::to_text`]):
    ///
    /// ```text
    /// flat v1 <width> <height> <num_windows> <num_data>
    /// <datum> <window> <proc> <count>
    /// ...
    /// ```
    ///
    /// Blank lines and `#` comments are skipped. Records may arrive in any
    /// order.
    pub fn from_reader(reader: impl BufRead) -> Result<FlatTrace, FlatTraceError> {
        let parse = |line: usize, field: &str, what: &str| -> Result<u64, FlatTraceError> {
            field.parse::<u64>().map_err(|_| FlatTraceError::Parse {
                line,
                msg: format!("bad {what}: {field:?}"),
            })
        };
        let mut header: Option<(Grid, usize, usize)> = None;
        let mut records: Vec<FlatRecord> = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = i + 1;
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            if header.is_none() {
                if fields.len() != 6 || fields[0] != "flat" || fields[1] != "v1" {
                    return Err(FlatTraceError::Parse {
                        line: lineno,
                        msg: "expected header: flat v1 <width> <height> <windows> <data>"
                            .to_string(),
                    });
                }
                let w = parse(lineno, fields[2], "width")? as u32;
                let h = parse(lineno, fields[3], "height")? as u32;
                if w == 0 || h == 0 || w.checked_mul(h).is_none() {
                    return Err(FlatTraceError::Parse {
                        line: lineno,
                        msg: format!("bad grid {w}x{h}"),
                    });
                }
                let nw = parse(lineno, fields[4], "window count")? as usize;
                let nd = parse(lineno, fields[5], "data count")? as usize;
                header = Some((Grid::new(w, h), nw, nd));
                continue;
            }
            if fields.len() != 4 {
                return Err(FlatTraceError::Parse {
                    line: lineno,
                    msg: format!("expected 4 fields, got {}", fields.len()),
                });
            }
            let datum = parse(lineno, fields[0], "datum")?;
            let window = parse(lineno, fields[1], "window")?;
            let proc = parse(lineno, fields[2], "proc")?;
            let count = parse(lineno, fields[3], "count")?;
            let narrow = |v: u64, what: &str| -> Result<u32, FlatTraceError> {
                u32::try_from(v).map_err(|_| FlatTraceError::Parse {
                    line: lineno,
                    msg: format!("{what} {v} overflows u32"),
                })
            };
            records.push(FlatRecord {
                datum: DataId(narrow(datum, "datum")?),
                window: narrow(window, "window")?,
                proc: ProcId(narrow(proc, "proc")?),
                count: narrow(count, "count")?,
            });
        }
        let (grid, nw, nd) = header.ok_or(FlatTraceError::Parse {
            line: 0,
            msg: "empty input: missing flat v1 header".to_string(),
        })?;
        FlatTrace::from_records(grid, nw, nd, records)
    }

    /// Serialize to the text format [`FlatTrace::from_reader`] accepts.
    pub fn to_text(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flat v1 {} {} {} {}",
            self.grid.width(),
            self.grid.height(),
            self.num_windows,
            self.num_data()
        );
        for d in 0..self.num_data() {
            for r in self.span(DataId(d as u32)) {
                let proc = self.grid.proc_xy(r.x, r.y).0;
                let _ = writeln!(out, "{} {} {} {}", d, r.window, proc, r.count);
            }
        }
        out
    }

    /// The processor grid.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of data items.
    #[inline]
    pub fn num_data(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of execution windows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Total number of (aggregated) reference records.
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.refs.len()
    }

    /// Sum of every record's count.
    pub fn total_volume(&self) -> u64 {
        self.refs.iter().map(|r| r.count as u64).sum()
    }

    /// Datum `d`'s whole reference run, window-major.
    #[inline]
    pub fn span(&self, d: DataId) -> &[FlatRef] {
        &self.refs[self.offsets[d.index()]..self.offsets[d.index() + 1]]
    }

    /// Datum `d`'s references in window `w` (possibly empty), found by
    /// binary search within the span.
    pub fn window_run(&self, d: DataId, w: usize) -> &[FlatRef] {
        span_window(self.span(d), w)
    }

    /// The raw CSR offset array (`num_data + 1` entries, first `0`, last
    /// `num_refs`). Used by [`crate::binfmt`]'s writer.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw aggregated-reference array, all spans concatenated.
    /// Used by [`crate::binfmt`]'s writer.
    pub(crate) fn refs(&self) -> &[FlatRef] {
        &self.refs
    }
}

// Shared-ownership wrappers view exactly what they point at, so call
// sites that hold an `Arc<FlatTrace>` (e.g. the serve store) pass it to
// generic schedulers directly.
impl<V: FlatView + Send + ?Sized> FlatView for std::sync::Arc<V> {
    fn grid(&self) -> Grid {
        (**self).grid()
    }
    fn num_windows(&self) -> usize {
        (**self).num_windows()
    }
    fn num_data(&self) -> usize {
        (**self).num_data()
    }
    fn num_refs(&self) -> usize {
        (**self).num_refs()
    }
    fn span(&self, d: DataId) -> &[FlatRef] {
        (**self).span(d)
    }
    fn total_volume(&self) -> u64 {
        (**self).total_volume()
    }
}

impl FlatView for FlatTrace {
    fn grid(&self) -> Grid {
        FlatTrace::grid(self)
    }
    fn num_windows(&self) -> usize {
        FlatTrace::num_windows(self)
    }
    fn num_data(&self) -> usize {
        FlatTrace::num_data(self)
    }
    fn num_refs(&self) -> usize {
        FlatTrace::num_refs(self)
    }
    fn span(&self, d: DataId) -> &[FlatRef] {
        FlatTrace::span(self, d)
    }
    fn total_volume(&self) -> u64 {
        FlatTrace::total_volume(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_windows(grid: Grid) -> Vec<Vec<WindowRefs>> {
        vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3), (grid.proc_xy(3, 2), 1)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 5)]),
            ],
            vec![
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2)]),
                WindowRefs::new(),
            ],
            vec![WindowRefs::new(), WindowRefs::new(), WindowRefs::new()],
        ]
    }

    fn sample_trace() -> FlatTrace {
        let grid = Grid::new(4, 3);
        FlatTrace::from_windows(grid, sample_windows(grid)).unwrap()
    }

    /// Datum `d`'s window `w` re-aggregated as a one-window value.
    fn window_refs(flat: &FlatTrace, d: usize, w: usize) -> WindowRefs {
        let grid = flat.grid();
        WindowRefs::from_pairs(
            flat.window_run(DataId(d as u32), w)
                .iter()
                .map(|r| (r.proc(&grid), r.count)),
        )
    }

    #[test]
    fn round_trips_through_windowed() {
        let grid = Grid::new(4, 3);
        let windows = sample_windows(grid);
        let flat = FlatTrace::from_windows(grid, windows.clone()).unwrap();
        assert_eq!(flat.num_data(), 3);
        assert_eq!(flat.num_windows(), 3);
        assert_eq!(flat.num_refs(), 4);
        assert_eq!(flat.total_volume(), 11);
        for (d, ws) in windows.iter().enumerate() {
            for (w, refs) in ws.iter().enumerate() {
                assert_eq!(&window_refs(&flat, d, w), refs, "datum {d} window {w}");
            }
        }
    }

    #[test]
    fn from_windows_rejects_off_grid_procs() {
        let g = Grid::new(2, 2);
        let ok = FlatTrace::from_windows(g, vec![vec![WindowRefs::from_pairs([(ProcId(3), 1)])]]);
        assert_eq!(ok.unwrap().num_refs(), 1);
        let bad = FlatTrace::from_windows(g, vec![vec![WindowRefs::from_pairs([(ProcId(9), 1)])]]);
        assert!(matches!(
            bad,
            Err(FlatTraceError::ProcOutOfRange { proc: 9, .. })
        ));
    }

    #[test]
    fn spans_and_window_runs() {
        let flat = sample_trace();
        assert_eq!(flat.span(DataId(0)).len(), 3);
        assert_eq!(flat.span(DataId(2)).len(), 0);
        assert_eq!(flat.window_run(DataId(0), 0).len(), 2);
        assert_eq!(flat.window_run(DataId(0), 1).len(), 0);
        assert_eq!(flat.window_run(DataId(0), 2).len(), 1);
        let runs: Vec<(u32, usize)> = span_window_runs(flat.span(DataId(0)))
            .map(|(w, run)| (w, run.len()))
            .collect();
        assert_eq!(runs, vec![(0, 2), (2, 1)]);
        assert!(span_window_runs(flat.span(DataId(2))).next().is_none());
    }

    #[test]
    fn records_aggregate_and_sort() {
        let grid = Grid::new(4, 4);
        let rec = |d: u32, w: u32, p: u32, c: u32| FlatRecord {
            datum: DataId(d),
            window: w,
            proc: ProcId(p),
            count: c,
        };
        // shuffled, with a duplicate (1, 0, 5)
        let flat = FlatTrace::from_records(
            grid,
            2,
            3,
            vec![
                rec(1, 0, 5, 2),
                rec(0, 1, 3, 1),
                rec(1, 0, 5, 4),
                rec(0, 0, 9, 7),
            ],
        )
        .unwrap();
        assert_eq!(flat.num_refs(), 3);
        assert_eq!(flat.window_run(DataId(1), 0)[0].count, 6);
        let d0: Vec<u32> = flat.span(DataId(0)).iter().map(|r| r.window).collect();
        assert_eq!(d0, vec![0, 1]);
        assert_eq!(flat.span(DataId(2)).len(), 0);
        // the same references written per window agree
        let by_windows = FlatTrace::from_windows(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(ProcId(9), 7)]),
                    WindowRefs::from_pairs([(ProcId(3), 1)]),
                ],
                vec![WindowRefs::from_pairs([(ProcId(5), 6)]), WindowRefs::new()],
                vec![WindowRefs::new(), WindowRefs::new()],
            ],
        )
        .unwrap();
        assert_eq!(by_windows, flat);
    }

    #[test]
    fn record_validation() {
        let grid = Grid::new(2, 2);
        let rec = |d: u32, w: u32, p: u32| FlatRecord {
            datum: DataId(d),
            window: w,
            proc: ProcId(p),
            count: 1,
        };
        assert!(matches!(
            FlatTrace::from_records(grid, 1, 1, vec![rec(1, 0, 0)]),
            Err(FlatTraceError::DatumOutOfRange { datum: 1, .. })
        ));
        assert!(matches!(
            FlatTrace::from_records(grid, 1, 1, vec![rec(0, 1, 0)]),
            Err(FlatTraceError::WindowOutOfRange { window: 1, .. })
        ));
        assert!(matches!(
            FlatTrace::from_records(grid, 1, 1, vec![rec(0, 0, 4)]),
            Err(FlatTraceError::ProcOutOfRange { proc: 4, .. })
        ));
    }

    #[test]
    fn text_round_trip() {
        let flat = sample_trace();
        let text = flat.to_text();
        let back = FlatTrace::from_reader(text.as_bytes()).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn reader_skips_comments_and_reports_errors() {
        let ok = "# big trace\nflat v1 4 4 2 2\n\n0 0 3 2 # inline comment\n1 1 15 1\n";
        let flat = FlatTrace::from_reader(ok.as_bytes()).unwrap();
        assert_eq!(flat.num_refs(), 2);
        assert_eq!(flat.grid(), Grid::new(4, 4));

        let bad_header = "flat v2 4 4 2 2\n";
        assert!(matches!(
            FlatTrace::from_reader(bad_header.as_bytes()),
            Err(FlatTraceError::Parse { line: 1, .. })
        ));
        let bad_row = "flat v1 4 4 2 2\n0 0 three 1\n";
        let err = FlatTrace::from_reader(bad_row.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let empty = "";
        assert!(FlatTrace::from_reader(empty.as_bytes()).is_err());
    }

    #[test]
    fn suggested_chunk_shapes() {
        let flat = sample_trace();
        assert_eq!(flat.suggested_chunk(8), 1);
        let grid = Grid::new(2, 2);
        let many = FlatTrace::from_records(grid, 1, 100_000, vec![]).unwrap();
        let chunk = many.suggested_chunk(4);
        assert!(chunk >= 1 && chunk * 4 * 8 >= 100_000 - 4 * 8 * chunk);
        assert!(chunk <= 100_000usize.div_ceil(4));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Per-window reference lists biased toward the degenerate corners:
        /// windows are empty more often than not, so zero-reference datums,
        /// all-empty windows and single-window traces (`nw == 1`) all occur.
        fn arb_degenerate_windows() -> impl Strategy<Value = (Grid, Vec<Vec<WindowRefs>>)> {
            (2u32..5, 2u32..5, 1usize..4, 1usize..5).prop_flat_map(|(wd, ht, nw, nd)| {
                let grid = Grid::new(wd, ht);
                let m = grid.num_procs() as u32;
                let window = proptest::collection::vec((0..m, 1u32..6), 0..3);
                proptest::collection::vec(proptest::collection::vec(window, nw..=nw), nd..=nd)
                    .prop_map(move |data| {
                        let per_data = data
                            .into_iter()
                            .map(|ws| {
                                ws.into_iter()
                                    .map(|pairs| {
                                        WindowRefs::from_pairs(
                                            pairs.into_iter().map(|(p, c)| (ProcId(p), c)),
                                        )
                                    })
                                    .collect()
                            })
                            .collect();
                        (grid, per_data)
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn degenerate_traces_round_trip((grid, windows) in arb_degenerate_windows()) {
                let flat = FlatTrace::from_windows(grid, windows.clone()).unwrap();
                prop_assert_eq!(flat.num_windows(), windows[0].len());
                let volume: u64 = windows.iter().flatten().map(WindowRefs::total_volume).sum();
                prop_assert_eq!(flat.total_volume(), volume);
                for (d, ws) in windows.iter().enumerate() {
                    for (w, refs) in ws.iter().enumerate() {
                        prop_assert_eq!(&window_refs(&flat, d, w), refs);
                    }
                }
                prop_assert_eq!(FlatTrace::from_reader(flat.to_text().as_bytes()).unwrap(), flat);
            }

            #[test]
            fn from_records_agrees_with_from_trace((grid, windows) in arb_degenerate_windows()) {
                let flat = FlatTrace::from_windows(grid, windows).unwrap();
                // Re-feed the flattened refs as raw records, reversed so
                // the canonical sort actually has work to do.
                let mut records = Vec::new();
                for d in 0..flat.num_data() {
                    for r in flat.span(DataId(d as u32)) {
                        records.push(FlatRecord {
                            datum: DataId(d as u32),
                            window: r.window,
                            proc: grid.proc_xy(r.x, r.y),
                            count: r.count,
                        });
                    }
                }
                records.reverse();
                let rebuilt = FlatTrace::from_records(
                    grid,
                    flat.num_windows(),
                    flat.num_data(),
                    records,
                )
                .expect("records came from a valid trace");
                prop_assert_eq!(rebuilt, flat);
            }
        }
    }
}

//! Out-of-core scheduling: walk a `.pimb` binary trace in bounded chunks.
//!
//! [`crate::flat`] needs the whole CSR resident (owned or mapped); this
//! module schedules a trace whose refs never fit — or should never sit —
//! in memory. [`stream_schedule`] walks the datum-major CSR of a
//! [`pim_trace::binfmt`] file in contiguous datum chunks:
//!
//! * a dedicated I/O thread reads and decodes chunk `k + 1` while the
//!   worker pool schedules chunk `k` (double-buffered: exactly two chunk
//!   buffers cycle between the reader and the scheduler, so peak memory is
//!   the offsets array plus two chunks, independent of trace size);
//! * within a chunk, the pure per-datum phase (merged medians for SCDS,
//!   per-window median sweeps for LOMCDS, layered shortest paths for
//!   GOMCDS) is sharded over the [`pim_par`] pool exactly as the
//!   in-memory path shards the whole trace;
//! * the sequential capacity replay runs between chunks in ascending datum
//!   order against persistent capacity state — the same
//!   [`crate::scds`] and [`crate::gomcds`] replay objects the in-memory
//!   drivers use — so bounded runs stay **bit-identical** to
//!   [`crate::flat`].
//!
//! Chunking is possible exactly when every scheduling decision depends
//! only on (a) the datum's own span and (b) state accumulated over lower
//! datum ids. That covers SCDS and GOMCDS under every policy — both
//! replays are datum-ordered (SCDS against one occupancy map, GOMCDS
//! against one map per window) — and LOMCDS with unbounded memory (pure
//! per-datum). Bounded LOMCDS replays *window-major across all data* —
//! window 0 of the last datum is decided before window 1 of the first —
//! so no datum-ordered pass can reproduce it; it returns
//! [`StreamError::Unsupported`], as does every method without a streaming
//! driver (grouping, the naive-solver ablation), and callers fall back to
//! the in-memory/mapped [`crate::flat`] path.
//!
//! Schedules at this scale are also too big to keep: 10M data × 32
//! windows of centers is more memory than the chunks saved. The pipeline
//! therefore folds each datum's center row into the exact
//! [`crate::flat::flat_total_cost`] accumulation (and hands it to an
//! optional per-datum sink) instead of materializing a
//! [`crate::schedule::Schedule`].
//!
//! Everything read from the file is validated before use — header, CSR
//! offsets, and each chunk's spans (bounds, ordering) — and the running
//! payload checksum is verified once the last chunk has been read, so a
//! corrupt file always surfaces as a typed error by the time
//! [`stream_schedule`] returns.

use crate::cache::DatumCostCache;
use crate::error::{ensure_feasible, SchedError};
use crate::flat::{datum_cost, fan_out};
use crate::gomcds::{GomcdsReplay, Solver};
use crate::median::MedianState;
use crate::pipeline::{MemoryPolicy, Method};
use crate::scds::ScdsReplay;
use crate::schedule::CostBreakdown;
use crate::workspace::Workspace;
use pim_array::grid::ProcId;
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::binfmt::{
    decode_offsets, decode_refs, validate_offsets, validate_span, BinError, Checksum, Header,
    HEADER_LEN, OFFSET_BYTES, REF_BYTES,
};
use pim_trace::flat::FlatRef;
use pim_trace::ids::DataId;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::mpsc::{Receiver, Sender, SyncSender};

/// Tuning knobs for the out-of-core walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    /// Data per chunk; `0` picks [`StreamConfig::AUTO_CHUNK_DATA`].
    pub chunk_data: usize,
}

impl StreamConfig {
    /// Default chunk granularity: 256k data per chunk keeps two decoded
    /// chunk buffers around tens of MB at typical reference densities
    /// while amortizing thread handoff over plenty of scheduling work.
    pub const AUTO_CHUNK_DATA: usize = 256 * 1024;

    fn resolved_chunk(&self) -> usize {
        if self.chunk_data == 0 {
            Self::AUTO_CHUNK_DATA
        } else {
            self.chunk_data
        }
    }
}

/// Why an out-of-core run failed.
#[derive(Debug)]
pub enum StreamError {
    /// The binary container could not be read or failed validation.
    Bin(BinError),
    /// Scheduling itself failed (infeasible policy, capacity exhausted).
    Sched(SchedError),
    /// The method × policy combination cannot be chunk-streamed (bounded
    /// LOMCDS replays window-major across all data; other methods have no
    /// streaming driver); use the in-memory or memory-mapped
    /// [`crate::flat`] path instead.
    Unsupported {
        /// The requested method.
        method: Method,
    },
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Bin(e) => write!(f, "{e}"),
            StreamError::Sched(e) => write!(f, "{e}"),
            StreamError::Unsupported { method } => write!(
                f,
                "{method} cannot be chunk-streamed under this memory policy (streaming \
                 covers SCDS and GOMCDS under any policy, LOMCDS unbounded); schedule \
                 it via the in-memory flat path"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<BinError> for StreamError {
    fn from(e: BinError) -> Self {
        StreamError::Bin(e)
    }
}

impl From<SchedError> for StreamError {
    fn from(e: SchedError) -> Self {
        StreamError::Sched(e)
    }
}

/// What a completed out-of-core run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Total schedule cost, bit-identical to evaluating the equivalent
    /// in-memory schedule with [`crate::flat::flat_total_cost`].
    pub cost: CostBreakdown,
    /// Data scheduled.
    pub num_data: usize,
    /// Aggregated reference records consumed.
    pub num_refs: usize,
    /// Chunks the trace was walked in.
    pub num_chunks: usize,
}

enum Msg {
    Chunk { idx: usize, refs: Vec<FlatRef> },
    Fail(std::io::Error),
    Done { checksum: u64 },
}

/// Double-buffered chunk reader over the refs region of a `.pimb` file.
///
/// `open` reads and validates the header and the whole offsets array
/// (the only per-trace state kept resident: 8 bytes per datum), then a
/// spawned I/O thread reads, checksums and decodes ref chunks ahead of
/// the consumer.
struct ChunkReader {
    header: Header,
    offsets: Vec<u64>,
    /// Datum ranges `[d0, d1)` of each chunk, covering `0..num_data`.
    bounds: Vec<(usize, usize)>,
    next: usize,
    rx: Receiver<Msg>,
    free_tx: Sender<Vec<FlatRef>>,
    done: bool,
}

impl ChunkReader {
    fn open(path: &Path, chunk_data: usize) -> Result<ChunkReader, StreamError> {
        let mut file = std::fs::File::open(path).map_err(BinError::Io)?;
        let file_len = file.metadata().map_err(BinError::Io)?.len();
        let mut head = [0u8; HEADER_LEN];
        if file_len < HEADER_LEN as u64 {
            return Err(BinError::Length {
                expected: HEADER_LEN as u64,
                actual: file_len,
            }
            .into());
        }
        file.read_exact(&mut head).map_err(BinError::Io)?;
        let header = Header::parse(&head)?;
        if file_len != header.total_len() {
            return Err(BinError::Length {
                expected: header.total_len(),
                actual: file_len,
            }
            .into());
        }

        // Offsets: streamed in bounded pieces, folded into the running
        // payload checksum, decoded to one u64 per datum.
        let mut sum = Checksum::new();
        let mut offsets: Vec<u64> = Vec::with_capacity(header.num_data + 1);
        let mut remaining = header.offsets_bytes();
        let mut buf = vec![0u8; (4 << 20).min(remaining.max(OFFSET_BYTES))];
        while remaining > 0 {
            let take = buf.len().min(remaining);
            // keep 8-byte boundaries for checksum/decode
            let take = take - (take % OFFSET_BYTES);
            file.read_exact(&mut buf[..take]).map_err(BinError::Io)?;
            sum.update(&buf[..take]);
            decode_offsets(&buf[..take], &mut offsets);
            remaining -= take;
        }
        validate_offsets(&offsets, header.num_refs as u64)?;

        let bounds: Vec<(usize, usize)> = (0..header.num_data)
            .step_by(chunk_data.max(1))
            .map(|d0| (d0, (d0 + chunk_data.max(1)).min(header.num_data)))
            .collect();

        // Two chunk buffers cycle between reader and consumer: the I/O
        // thread fills k + 1 while the pool schedules k.
        let (full_tx, rx) = std::sync::mpsc::sync_channel::<Msg>(2);
        let (free_tx, free_rx) = std::sync::mpsc::channel::<Vec<FlatRef>>();
        for _ in 0..2 {
            let _ = free_tx.send(Vec::new());
        }
        let refs_base = HEADER_LEN as u64 + header.offsets_bytes() as u64;
        let ranges: Vec<(u64, u64)> = bounds
            .iter()
            .map(|&(d0, d1)| (offsets[d0], offsets[d1]))
            .collect();
        std::thread::spawn(move || read_loop(file, refs_base, ranges, sum, free_rx, full_tx));

        Ok(ChunkReader {
            header,
            offsets,
            bounds,
            next: 0,
            rx,
            free_tx,
            done: false,
        })
    }

    /// The next chunk's datum range and decoded refs, or `None` once the
    /// whole trace has been served *and* the payload checksum verified.
    fn next_chunk(&mut self) -> Result<Option<(usize, usize, Vec<FlatRef>)>, StreamError> {
        if self.done {
            return Ok(None);
        }
        if self.next == self.bounds.len() {
            self.done = true;
            return match self.rx.recv() {
                Ok(Msg::Done { checksum }) if checksum == self.header.checksum => Ok(None),
                Ok(Msg::Done { checksum }) => Err(BinError::Checksum {
                    expected: self.header.checksum,
                    actual: checksum,
                }
                .into()),
                Ok(Msg::Fail(e)) => Err(BinError::Io(e).into()),
                Ok(Msg::Chunk { .. }) | Err(_) => {
                    Err(BinError::Io(std::io::Error::other("trace reader thread died")).into())
                }
            };
        }
        match self.rx.recv() {
            Ok(Msg::Chunk { idx, refs }) => {
                debug_assert_eq!(idx, self.next);
                let (d0, d1) = self.bounds[self.next];
                self.next += 1;
                Ok(Some((d0, d1, refs)))
            }
            Ok(Msg::Fail(e)) => Err(BinError::Io(e).into()),
            Ok(Msg::Done { .. }) | Err(_) => {
                Err(BinError::Io(std::io::Error::other("trace reader thread died")).into())
            }
        }
    }

    /// Hand a drained chunk buffer back for reuse.
    fn recycle(&mut self, refs: Vec<FlatRef>) {
        let _ = self.free_tx.send(refs);
    }
}

/// Body of the I/O thread: for each chunk's ref range, wait for a free
/// buffer, read + checksum + decode, and send it on. Exits silently when
/// the consumer hangs up (early error or drop on the main side).
fn read_loop(
    mut file: std::fs::File,
    refs_base: u64,
    ranges: Vec<(u64, u64)>,
    mut sum: Checksum,
    free_rx: Receiver<Vec<FlatRef>>,
    tx: SyncSender<Msg>,
) {
    let mut raw: Vec<u8> = Vec::new();
    for (idx, &(r0, r1)) in ranges.iter().enumerate() {
        let Ok(mut refs) = free_rx.recv() else { return };
        refs.clear();
        raw.resize((r1 - r0) as usize * REF_BYTES, 0);
        let io = file
            .seek(SeekFrom::Start(refs_base + r0 * REF_BYTES as u64))
            .and_then(|_| file.read_exact(&mut raw));
        if let Err(e) = io {
            let _ = tx.send(Msg::Fail(e));
            return;
        }
        sum.update(&raw);
        decode_refs(&raw, &mut refs);
        if tx.send(Msg::Chunk { idx, refs }).is_err() {
            return;
        }
    }
    let _ = tx.send(Msg::Done {
        checksum: sum.finish(),
    });
}

/// Span lookup within one resident chunk.
struct ChunkSpans<'a> {
    d0: usize,
    base: u64,
    offsets: &'a [u64],
    refs: &'a [FlatRef],
}

impl ChunkSpans<'_> {
    fn span(&self, d: DataId) -> &[FlatRef] {
        let i = d.index() - self.d0;
        let lo = (self.offsets[i] - self.base) as usize;
        let hi = (self.offsets[i + 1] - self.base) as usize;
        &self.refs[lo..hi]
    }
}

/// Schedule the binary trace at `path` out-of-core, discarding placements
/// after costing them. See [`stream_schedule_with`] for the sink variant
/// and the module docs for the supported method × policy matrix.
pub fn stream_schedule(
    path: impl AsRef<Path>,
    method: Method,
    policy: MemoryPolicy,
    pool: Pool,
    config: StreamConfig,
) -> Result<StreamOutcome, StreamError> {
    stream_schedule_with(path, method, policy, pool, config, |_, _| {})
}

/// [`stream_schedule`] with a per-datum sink: `sink(d, centers)` receives
/// every datum's final center row (one entry per window) in ascending
/// datum order, before the row is discarded. The rows are exactly the
/// [`Schedule`](crate::schedule::Schedule) rows the in-memory path would
/// materialize, which is how tests and the parity smoke compare the two
/// pipelines without holding a full schedule.
pub fn stream_schedule_with(
    path: impl AsRef<Path>,
    method: Method,
    policy: MemoryPolicy,
    pool: Pool,
    config: StreamConfig,
    mut sink: impl FnMut(DataId, &[ProcId]),
) -> Result<StreamOutcome, StreamError> {
    match (method, policy) {
        (Method::Scds | Method::Gomcds, _) | (Method::Lomcds, MemoryPolicy::Unbounded) => {}
        _ => return Err(StreamError::Unsupported { method }),
    }

    let mut reader = ChunkReader::open(path.as_ref(), config.resolved_chunk())?;
    let header = reader.header;
    let grid = header.grid;
    let nd = header.num_data;
    let nw = header.num_windows;
    let spec = policy.resolve(&grid, nd);
    ensure_feasible(&grid, spec, nd).map_err(StreamError::Sched)?;

    let mut scds = ScdsReplay::new(&grid, spec, &Metrics::disabled());
    let mut gomcds = (method == Method::Gomcds)
        .then(|| GomcdsReplay::new(&grid, nw, spec, Solver::DistanceTransform));
    let mut ws = Workspace::new();
    let mut cost = CostBreakdown::default();
    let mut row = vec![ProcId(0); nw];
    let mut ids: Vec<DataId> = Vec::new();
    let mut num_chunks = 0usize;

    while let Some((d0, d1, refs)) = reader.next_chunk()? {
        num_chunks += 1;
        let spans = ChunkSpans {
            d0,
            base: reader.offsets[d0],
            offsets: &reader.offsets[d0..=d1],
            refs: &refs,
        };
        ids.clear();
        ids.extend((d0 as u32..d1 as u32).map(DataId));
        for &d in &ids {
            validate_span(&grid, nw, spans.span(d))?;
        }
        let mut emit = |d: DataId, centers: &[ProcId]| {
            cost.add(datum_cost(&grid, spans.span(d), centers, 1));
            sink(d, centers);
        };
        match method {
            Method::Scds => {
                let medians = fan_out(pool, &ids, MedianState::default, |med, d| {
                    crate::scds::span_median(&grid, spans.span(d), med)
                });
                for (&d, c) in ids.iter().zip(medians) {
                    row.fill(scds.place(&grid, d, spans.span(d), c)?);
                    emit(d, &row);
                }
            }
            Method::Lomcds => {
                let rows = fan_out(pool, &ids, MedianState::default, |med, d| {
                    crate::lomcds::span_window_medians(&grid, spans.span(d), nw, med)
                });
                for (&d, r) in ids.iter().zip(&rows) {
                    emit(d, r);
                }
            }
            _ => {
                let replay = gomcds.as_mut().expect("built for GOMCDS above");
                let datum = |d| DatumCostCache::build_flat(&grid, spans.span(d), nw);
                let rows = replay.place_all(&ids, datum, pool, &mut ws)?;
                for (&d, r) in ids.iter().zip(&rows) {
                    emit(d, r);
                }
            }
        }
        reader.recycle(refs);
    }

    Ok(StreamOutcome {
        cost,
        num_data: nd,
        num_refs: header.num_refs,
        num_chunks,
    })
}

/// Convenience: stream-schedule and return only the total cost, for
/// parity checks against `flat_total_cost(flat, &schedule)`.
pub fn stream_total_cost(
    path: impl AsRef<Path>,
    method: Method,
    policy: MemoryPolicy,
    pool: Pool,
    config: StreamConfig,
) -> Result<CostBreakdown, StreamError> {
    Ok(stream_schedule(path, method, policy, pool, config)?.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{flat_gomcds, flat_lomcds, flat_scds, flat_total_cost};
    use crate::schedule::Schedule;
    use pim_array::grid::{Grid, ProcId as P};
    use pim_trace::flat::{FlatRecord, FlatTrace};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "pim-stream-test-{}-{}-{tag}.pimb",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A deterministic irregular trace: ~3 refs per datum with clustered
    /// processors, some data untouched.
    fn synthetic(grid: Grid, nw: usize, nd: usize) -> FlatTrace {
        let mut state = 0x1998_c0de_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut records = Vec::new();
        for d in 0..nd as u32 {
            if d % 17 == 3 {
                continue; // leave some data unreferenced
            }
            let n = 1 + (rng() % 5) as usize;
            for _ in 0..n {
                records.push(FlatRecord {
                    datum: DataId(d),
                    window: (rng() % nw as u64) as u32,
                    proc: P((rng() % grid.num_procs() as u64) as u32),
                    count: 1 + (rng() % 7) as u32,
                });
            }
        }
        FlatTrace::from_records(grid, nw, nd, records).unwrap()
    }

    fn collect_stream(
        path: &Path,
        method: Method,
        policy: MemoryPolicy,
        chunk_data: usize,
    ) -> (Schedule, StreamOutcome) {
        let grid;
        let nw;
        {
            let bin = pim_trace::binfmt::BinTrace::open(path).unwrap();
            grid = bin.header().grid;
            nw = bin.header().num_windows;
        }
        let mut rows: Vec<Vec<ProcId>> = Vec::new();
        let out = stream_schedule_with(
            path,
            method,
            policy,
            Pool::with_threads(2),
            StreamConfig { chunk_data },
            |d, centers| {
                assert_eq!(d.index(), rows.len(), "sink order is datum-ascending");
                assert_eq!(centers.len(), nw);
                rows.push(centers.to_vec());
            },
        )
        .unwrap();
        (Schedule::new(grid, rows), out)
    }

    #[test]
    fn stream_matches_in_memory_across_methods_and_chunks() {
        let grid = Grid::new(5, 4);
        let flat = synthetic(grid, 6, 257);
        let path = temp_path("parity");
        pim_trace::binfmt::pack_file(&flat, &path).unwrap();
        let pool = Pool::with_threads(2);

        for chunk_data in [1usize, 7, 64, 1000] {
            for (method, policy) in [
                (Method::Scds, MemoryPolicy::Unbounded),
                (Method::Scds, MemoryPolicy::ScaledMinimum { factor: 2 }),
                (Method::Lomcds, MemoryPolicy::Unbounded),
                (Method::Gomcds, MemoryPolicy::Unbounded),
                (Method::Gomcds, MemoryPolicy::ScaledMinimum { factor: 2 }),
                // ⌈257 / 20⌉: every window's slots are nearly all taken.
                (Method::Gomcds, MemoryPolicy::Capacity(13)),
            ] {
                let expect = match method {
                    Method::Scds => flat_scds(&flat, policy, pool).unwrap(),
                    Method::Lomcds => flat_lomcds(&flat, policy, pool).unwrap(),
                    Method::Gomcds => flat_gomcds(&flat, policy, pool).unwrap(),
                    _ => unreachable!(),
                };
                let (got, out) = collect_stream(&path, method, policy, chunk_data);
                assert_eq!(got, expect, "{method} {policy:?} chunk={chunk_data}");
                assert_eq!(
                    out.cost,
                    flat_total_cost(&flat, &expect),
                    "{method} {policy:?} chunk={chunk_data} cost"
                );
                assert_eq!(out.num_data, flat.num_data());
                assert_eq!(out.num_refs, flat.num_refs());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounded_scds_capacity_fallback_is_bit_identical() {
        // Tight capacity forces the spill path (full processor list) for
        // many data; the replay must still match in any chunking.
        let grid = Grid::new(3, 3);
        let flat = synthetic(grid, 4, 40);
        let path = temp_path("cap1");
        pim_trace::binfmt::pack_file(&flat, &path).unwrap();
        let pool = Pool::with_threads(2);
        let policy = MemoryPolicy::Capacity(5);
        let expect = flat_scds(&flat, policy, pool).unwrap();
        for chunk_data in [1usize, 3, 100] {
            let (got, out) = collect_stream(&path, Method::Scds, policy, chunk_data);
            assert_eq!(got, expect, "chunk={chunk_data}");
            assert_eq!(out.cost, flat_total_cost(&flat, &expect));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bounded_multicenter_is_typed_unsupported() {
        let grid = Grid::new(3, 3);
        let flat = synthetic(grid, 3, 20);
        let path = temp_path("unsup");
        pim_trace::binfmt::pack_file(&flat, &path).unwrap();
        let pool = Pool::serial();
        for (method, policy) in [
            (Method::Lomcds, MemoryPolicy::Capacity(3)),
            (Method::Lomcds, MemoryPolicy::ScaledMinimum { factor: 2 }),
            (Method::GroupedLocal, MemoryPolicy::Capacity(3)),
            (Method::GroupedLocal, MemoryPolicy::Unbounded),
            (Method::GomcdsNaive, MemoryPolicy::Unbounded),
        ] {
            let err =
                stream_schedule(&path, method, policy, pool, StreamConfig::default()).unwrap_err();
            assert!(matches!(err, StreamError::Unsupported { .. }), "{method}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_errors_are_typed() {
        let grid = Grid::new(3, 3);
        let flat = synthetic(grid, 3, 50);
        let path = temp_path("corrupt");
        let mut bytes = pim_trace::binfmt::encode_flat(&flat);
        let pool = Pool::serial();

        // corrupt a payload byte deep in the refs region: the run only
        // fails once the checksum is verified, but it *does* fail.
        let at = bytes.len() - 5;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = stream_schedule(
            &path,
            Method::Scds,
            MemoryPolicy::Unbounded,
            pool,
            StreamConfig { chunk_data: 8 },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Bin(BinError::Checksum { .. })
                    | StreamError::Bin(BinError::Corrupt(_))
            ),
            "{err:?}"
        );

        // truncated mid-refs: typed length error before any scheduling
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes[..bytes.len() - REF_BYTES]).unwrap();
        let err = stream_schedule(
            &path,
            Method::Scds,
            MemoryPolicy::Unbounded,
            pool,
            StreamConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Bin(BinError::Length { .. })));

        // capacity exhaustion surfaces the scheduling error
        std::fs::write(&path, &bytes).unwrap();
        let err = stream_schedule(
            &path,
            Method::Scds,
            MemoryPolicy::Capacity(1),
            pool,
            StreamConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Sched(_)));

        std::fs::remove_file(&path).ok();
        assert!(matches!(
            stream_schedule(
                &path,
                Method::Scds,
                MemoryPolicy::Unbounded,
                pool,
                StreamConfig::default()
            ),
            Err(StreamError::Bin(BinError::Io(_)))
        ));
    }

    #[test]
    fn empty_and_tiny_traces_stream() {
        let grid = Grid::new(2, 2);
        let flat = FlatTrace::from_records(grid, 2, 0, vec![]).unwrap();
        let path = temp_path("empty");
        pim_trace::binfmt::pack_file(&flat, &path).unwrap();
        let out = stream_schedule(
            &path,
            Method::Scds,
            MemoryPolicy::Unbounded,
            Pool::serial(),
            StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(out.num_data, 0);
        assert_eq!(out.cost, CostBreakdown::default());
        std::fs::remove_file(&path).ok();
    }
}

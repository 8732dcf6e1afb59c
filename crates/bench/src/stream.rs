//! Out-of-core streaming report: the measurement phases behind
//! `BENCH_stream.json`.
//!
//! The report compares the streaming pipeline ([`pim_sched::stream`])
//! against the resident in-memory pipeline (whole-file decode +
//! [`pim_sched::flat`]) on the same packed `.pimb` instance: wall time,
//! total cost (asserted bit-identical) and peak RSS. `VmHWM` is a
//! process-wide high-water mark — it only rises — so the two pipelines
//! cannot share a process without the first phase's peak masking the
//! second's. `report_stream` therefore re-executes itself once per phase
//! (`--phase pack|stream|inmem|load`); each child prints one
//! machine-readable `phase-result` line that the parent parses back with
//! [`parse_phase_line`] and folds into the JSON document.

use crate::scale::{synthetic_flat, SCALE_SEED, SCALE_WINDOWS};
use pim_array::grid::Grid;
use pim_sched::{
    flat_lomcds, flat_scds, flat_total_cost, stream_schedule, MemoryPolicy, Method, StreamConfig,
};
use pim_trace::binfmt;
use pim_trace::flat::FlatTrace;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Marker prefix of the one stdout line a child phase emits.
pub const PHASE_MARKER: &str = "phase-result";

/// Render a child phase's result line: `phase-result k=v k=v ...`.
/// Keys and values must not contain whitespace (all are identifiers or
/// decimal numbers).
pub fn render_phase_line(pairs: &[(&str, String)]) -> String {
    let mut line = String::from(PHASE_MARKER);
    for (k, v) in pairs {
        debug_assert!(!v.contains(char::is_whitespace), "kv value {v:?}");
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    line
}

/// Parse a [`render_phase_line`] line out of a child's stdout. Returns
/// `None` when `out` holds no marker line; malformed pairs on a marker
/// line are an error the caller should surface (a half-written line means
/// the child died mid-print).
pub fn parse_phase_line(out: &str) -> Option<BTreeMap<String, String>> {
    let line = out
        .lines()
        .find(|l| l.starts_with(PHASE_MARKER))?
        .strip_prefix(PHASE_MARKER)
        .expect("just matched the prefix");
    let mut map = BTreeMap::new();
    for pair in line.split_whitespace() {
        let (k, v) = pair
            .split_once('=')
            .unwrap_or_else(|| panic!("malformed phase pair {pair:?}"));
        map.insert(k.to_string(), v.to_string());
    }
    Some(map)
}

/// What the pack phase produced.
#[derive(Debug, Clone, Copy)]
pub struct PackStats {
    /// Bytes written to the `.pimb` file.
    pub bytes: u64,
    /// Aggregated reference runs in the instance.
    pub num_refs: usize,
}

/// Child phase: generate the canonical synthetic instance (the
/// [`crate::scale`] generator: [`SCALE_WINDOWS`] windows, seed
/// [`SCALE_SEED`]) and pack it to `path`.
pub fn pack_phase(path: &Path, side: u32, num_data: usize) -> PackStats {
    let grid = Grid::new(side, side);
    let flat = synthetic_flat(grid, SCALE_WINDOWS, num_data, SCALE_SEED);
    let bytes =
        binfmt::pack_file(&flat, path).unwrap_or_else(|e| panic!("pack {}: {e}", path.display()));
    PackStats {
        bytes,
        num_refs: flat.num_refs(),
    }
}

/// One pipeline's measurement within a method row.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Total schedule cost (reference + movement).
    pub cost: u64,
    /// End-to-end wall time — file open through final cost — nanoseconds.
    pub ns: u128,
    /// Process peak RSS after the phase, kilobytes (0 when unavailable).
    pub peak_rss_kb: u64,
    /// Chunks the streaming walk used (0 for the in-memory pipeline).
    pub num_chunks: usize,
}

fn method_of(label: &str) -> Method {
    match label {
        "scds" => Method::Scds,
        "lomcds" => Method::Lomcds,
        other => panic!("no stream harness for method {other}"),
    }
}

/// Child phase: schedule the `.pimb` at `path` out-of-core and fold the
/// cost, never materializing the trace or the schedule. `chunk_data` `0`
/// takes the [`StreamConfig`] default (the smoke gate passes a small
/// explicit chunk so even its 50k instance walks multiple chunks).
pub fn stream_phase(path: &Path, method_label: &str, chunk_data: usize) -> PhaseStats {
    let method = method_of(method_label);
    let start = Instant::now();
    let out = stream_schedule(
        path,
        method,
        MemoryPolicy::Unbounded,
        pim_par::Pool::auto(),
        StreamConfig { chunk_data },
    )
    .unwrap_or_else(|e| panic!("stream {method_label} on {}: {e}", path.display()));
    PhaseStats {
        cost: out.cost.total(),
        ns: start.elapsed().as_nanos(),
        peak_rss_kb: crate::timing::peak_rss_kb().unwrap_or(0),
        num_chunks: out.num_chunks,
    }
}

/// Child phase: the resident baseline — decode the whole `.pimb` into an
/// owned [`FlatTrace`], run the in-memory flat scheduler, evaluate the
/// materialized schedule.
pub fn inmem_phase(path: &Path, method_label: &str) -> PhaseStats {
    let method = method_of(method_label);
    let pool = pim_par::Pool::auto();
    let start = Instant::now();
    let flat = binfmt::load_flat(path).unwrap_or_else(|e| panic!("load {}: {e}", path.display()));
    let sched = match method {
        Method::Scds => flat_scds(&flat, MemoryPolicy::Unbounded, pool),
        _ => flat_lomcds(&flat, MemoryPolicy::Unbounded, pool),
    }
    .expect("unbounded cannot exhaust");
    let cost = flat_total_cost(&flat, &sched).total();
    PhaseStats {
        cost,
        ns: start.elapsed().as_nanos(),
        peak_rss_kb: crate::timing::peak_rss_kb().unwrap_or(0),
        num_chunks: 0,
    }
}

/// What the load-comparison phase measured.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Data in the comparison instance.
    pub num_data: usize,
    /// Memory-mapped binary open ([`pim_trace::BinTrace::open`]) wall
    /// time — map + checksum + full CSR validation — nanoseconds.
    pub binary_ns: u128,
    /// Text parse ([`FlatTrace::from_reader`]) wall time, ns.
    pub text_ns: u128,
}

impl LoadStats {
    /// `text_ns / binary_ns`.
    pub fn speedup(&self) -> f64 {
        self.text_ns as f64 / self.binary_ns.max(1) as f64
    }
}

/// Child phase: write the same instance in both formats under `dir`, then
/// time a full load of each (best of `reps`, see [`crate::timing`]). The
/// binary side is [`pim_trace::BinTrace::open`] — the memory-mapped
/// zero-copy path `pim-cli run --bin` and the serve `path` load take —
/// which validates the checksum and every CSR invariant and ends in a
/// trace the flat schedulers consume directly through `FlatView`. The
/// text side is the full parse into an owned [`FlatTrace`].
pub fn load_phase(dir: &Path, side: u32, num_data: usize, reps: u32) -> LoadStats {
    let grid = Grid::new(side, side);
    let flat = synthetic_flat(grid, SCALE_WINDOWS, num_data, SCALE_SEED);
    let bin_path = dir.join("load_cmp.pimb");
    let text_path = dir.join("load_cmp.txt");
    binfmt::pack_file(&flat, &bin_path).expect("pack comparison instance");
    std::fs::write(&text_path, flat.to_text()).expect("write text instance");
    drop(flat);

    let (binary_ns, bin_trace) = crate::timing::bench_ns(reps, || {
        pim_trace::BinTrace::open(&bin_path).expect("binary load")
    });
    let (text_ns, text_flat) = crate::timing::bench_ns(reps, || {
        let file = std::fs::File::open(&text_path).expect("open text instance");
        FlatTrace::from_reader(BufReader::new(file)).expect("text load")
    });
    assert_eq!(
        bin_trace.to_flat().to_text(),
        text_flat.to_text(),
        "binary and text loads decoded different traces"
    );
    LoadStats {
        num_data,
        binary_ns,
        text_ns,
    }
}

/// One method's stream-vs-resident comparison.
#[derive(Debug, Clone, Copy)]
pub struct StreamRow {
    /// Registry name of the method (`scds`, `lomcds`).
    pub method: &'static str,
    /// The out-of-core pipeline.
    pub stream: PhaseStats,
    /// The resident in-memory pipeline.
    pub inmem: PhaseStats,
}

impl StreamRow {
    /// `stream.peak_rss_kb / inmem.peak_rss_kb` — the bounded-memory claim.
    pub fn rss_ratio(&self) -> f64 {
        self.stream.peak_rss_kb as f64 / self.inmem.peak_rss_kb.max(1) as f64
    }

    /// Whether the folded streaming cost matched the in-memory cost bit
    /// for bit (the parent asserts this before rendering).
    pub fn parity(&self) -> bool {
        self.stream.cost == self.inmem.cost
    }
}

/// Render the `BENCH_stream.json` document (hand-rolled JSON; the
/// offline build has no JSON crate and the schema is flat).
pub fn render_json(
    side: u32,
    num_data: usize,
    chunk_data: usize,
    pack: PackStats,
    load: LoadStats,
    rows: &[StreamRow],
) -> String {
    use std::fmt::Write as _;
    let resolved_chunk = if chunk_data == 0 {
        StreamConfig::AUTO_CHUNK_DATA
    } else {
        chunk_data
    };
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"windows\": {SCALE_WINDOWS}, \"seed\": {SCALE_SEED}, \
         \"memory\": \"unbounded\", \"chunk_data\": {resolved_chunk}}},",
    );
    let _ = writeln!(
        json,
        "  \"instance\": {{\"grid\": \"{side}x{side}\", \"num_data\": {num_data}, \
         \"num_refs\": {}, \"file_bytes\": {}}},",
        pack.num_refs, pack.bytes,
    );
    let _ = write!(
        json,
        "  \"load\": {{\"num_data\": {}, \"binary_ns\": {}, \"text_ns\": {}, \
         \"speedup\": {:.3}}},\n  \"rows\": [\n",
        load.num_data,
        load.binary_ns,
        load.text_ns,
        load.speedup(),
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    {{\"method\": \"{}\", \"stream_ns\": {}, \"stream_cost\": {}, \
             \"stream_peak_rss_kb\": {}, \"num_chunks\": {}, \"inmem_ns\": {}, \
             \"inmem_cost\": {}, \"inmem_peak_rss_kb\": {}, \"rss_ratio\": {:.4}, \
             \"parity\": {}}}",
            row.method,
            row.stream.ns,
            row.stream.cost,
            row.stream.peak_rss_kb,
            row.stream.num_chunks,
            row.inmem.ns,
            row.inmem.cost,
            row.inmem.peak_rss_kb,
            row.rss_ratio(),
            row.parity(),
        );
    }
    json.push_str("\n  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_line_round_trips() {
        let line = render_phase_line(&[("cost", 42.to_string()), ("ns", 7.to_string())]);
        let map = parse_phase_line(&format!("noise\n{line}\nmore noise\n")).unwrap();
        assert_eq!(map["cost"], "42");
        assert_eq!(map["ns"], "7");
        assert!(parse_phase_line("no marker here\n").is_none());
    }

    #[test]
    fn phases_agree_end_to_end_in_process() {
        let dir = std::env::temp_dir().join(format!("pim_stream_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pimb");
        let pack = pack_phase(&path, 6, 300);
        assert!(pack.bytes > binfmt::HEADER_LEN as u64);
        let mut rows = Vec::new();
        for method in ["scds", "lomcds"] {
            let stream = stream_phase(&path, method, 64);
            let inmem = inmem_phase(&path, method);
            assert_eq!(stream.cost, inmem.cost, "{method} cost parity");
            rows.push(StreamRow {
                method: if method == "scds" { "scds" } else { "lomcds" },
                stream,
                inmem,
            });
        }
        let load = load_phase(&dir, 6, 300, 1);
        assert!(load.binary_ns > 0 && load.text_ns > 0);
        assert!(
            rows.iter().all(|r| r.stream.num_chunks > 1),
            "chunk 64 over 300 data must walk multiple chunks"
        );
        let json = render_json(6, 300, 64, pack, load, &rows);
        for key in [
            "\"instance\"",
            "\"file_bytes\"",
            "\"load\"",
            "\"speedup\"",
            "\"stream_peak_rss_kb\"",
            "\"rss_ratio\"",
            "\"parity\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The document must parse with the repo's own JSON parser.
        pim_trace::json::parse(&json).expect("render_json emits valid JSON");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

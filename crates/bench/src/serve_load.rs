//! Closed-loop load generator for the `pim-serve` daemon: the
//! measurement rows behind `BENCH_serve.json`.
//!
//! Each row stands up an in-process TCP daemon, loads one synthetic
//! flat instance (the [`crate::scale`] generator), then drives it from
//! `concurrency` client threads, each with its own connection, issuing
//! requests back to back (closed loop: a client waits for its response
//! before sending the next). Three request mixes:
//!
//! * **warm** — repeated `schedule` against the resident engine: the
//!   steady-state cache-hit regime, the latency the acceptance bound
//!   (p99 ≤ 100 ms on a warm 16×16 × 100k trace) is about;
//! * **churn** — each request is an `edit` carrying a ~1%-of-data delta
//!   followed by the engine's incremental re-solve;
//! * **cold** — each rep evicts the engine (`evict` scope `engine`,
//!   untimed) and then times a from-scratch `schedule` build.
//!
//! Latencies are measured client-side (request write → response read),
//! so they include queueing — that is the number a daemon user sees.
//! The separate [`burst_row`] deliberately under-provisions the daemon
//! (1 worker, tiny queue) and hammers it to show admission control
//! rejecting with typed `overloaded` responses instead of queueing
//! without bound.

use std::sync::Arc;
use std::time::Instant;

use pim_array::grid::Grid;
use pim_serve::{Client, ServeConfig, Server};
use pim_trace::ids::DataId;
use pim_trace::json::{self, Value};
use pim_trace::TraceDelta;

use crate::scale::{synthetic_flat, Rng64, SCALE_SEED, SCALE_WINDOWS};

/// One `BENCH_serve.json` row.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Square grid side length.
    pub side: u32,
    /// Number of data in the instance.
    pub num_data: usize,
    /// Request mix (`warm`, `churn`, `cold`).
    pub mode: &'static str,
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Requests attempted across all clients (timed ops only).
    pub requests: usize,
    /// Successful responses.
    pub ok: u64,
    /// Typed `overloaded` rejections.
    pub overloaded: u64,
    /// Any other error responses.
    pub errors: u64,
    /// Wall time of the whole row, nanoseconds.
    pub elapsed_ns: u128,
    /// Client-side latencies of successful timed ops, nanoseconds.
    pub latency_ns: Vec<u64>,
}

impl ServeRow {
    /// Successful requests per second over the row's wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.ok as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// Nearest-rank percentile over the successful latencies, µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.latency_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * p).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
    }

    /// Worst successful latency, µs.
    pub fn max_us(&self) -> f64 {
        self.latency_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }
}

fn response_ok(line: &str) -> bool {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        .unwrap_or(false)
}

fn response_error(line: &str) -> Option<String> {
    json::parse(line)
        .ok()?
        .get("error")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Build the `load` request line for a synthetic instance.
fn load_line(side: u32, num_data: usize) -> String {
    let grid = Grid::new(side, side);
    let flat = synthetic_flat(grid, SCALE_WINDOWS, num_data, SCALE_SEED);
    let mut line = String::from("{\"op\":\"load\",\"text\":\"");
    json::escape_into(&mut line, &flat.to_text());
    line.push_str("\"}");
    line
}

/// One churn delta (~1% of data, same shapes as the instance generator),
/// rendered as an `edit` request line.
fn edit_line(key: &str, side: u32, num_data: usize, rng: &mut Rng64) -> String {
    let grid = Grid::new(side, side);
    let (w, h) = (grid.width() as u64, grid.height() as u64);
    let dirty = (num_data / 100).max(1);
    let mut delta = TraceDelta::new();
    for _ in 0..dirty {
        let d = rng.below(num_data as u64) as u32;
        let window = rng.below(SCALE_WINDOWS as u64) as u32;
        let x = rng.below(w) as u32;
        let y = rng.below(h) as u32;
        delta.set_run(
            DataId(d),
            window,
            vec![(grid.proc_xy(x, y), 1 + rng.below(4) as u32)],
        );
    }
    format!(
        "{{\"op\":\"edit\",\"trace\":\"{key}\",\"delta\":{}}}",
        delta.to_json()
    )
}

struct Harness {
    server: Server,
    key: String,
}

/// Start a daemon, load the instance, and `schedule` once so the engine
/// is resident before any client starts.
fn stand_up(config: &ServeConfig, side: u32, num_data: usize, method: &str) -> Harness {
    let server = Server::start_tcp(config, "127.0.0.1:0").expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect");
    let loaded = client
        .request(&load_line(side, num_data))
        .expect("load request");
    let key = json::parse(&loaded)
        .ok()
        .and_then(|v| v.get("trace").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("load failed: {loaded}"));
    let warm = client
        .request(&format!(
            "{{\"op\":\"schedule\",\"trace\":\"{key}\",\"method\":\"{method}\"}}"
        ))
        .expect("priming schedule");
    assert!(response_ok(&warm), "priming schedule failed: {warm}");
    Harness { server, key }
}

fn drive(
    harness: &Harness,
    side: u32,
    num_data: usize,
    mode: &'static str,
    method: &'static str,
    concurrency: usize,
    reps_per_client: usize,
) -> ServeRow {
    let addr = harness.server.tcp_addr().expect("tcp endpoint");
    let key = Arc::new(harness.key.clone());
    let started = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|c| {
            let key = Arc::clone(&key);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("client connect");
                // Untimed warmup ping: absorbs connection setup (accept-poll
                // latency) so the measured reps see steady-state service time.
                let _ = client.request("{\"op\":\"ping\"}").expect("warmup ping");
                let mut rng = Rng64::new(SCALE_SEED ^ (0xD00D + c as u64));
                let schedule =
                    format!("{{\"op\":\"schedule\",\"trace\":\"{key}\",\"method\":\"{method}\"}}");
                let evict =
                    format!("{{\"op\":\"evict\",\"trace\":\"{key}\",\"scope\":\"engine\"}}");
                let mut latencies = Vec::with_capacity(reps_per_client);
                let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
                for _ in 0..reps_per_client {
                    let line = match mode {
                        "warm" => schedule.clone(),
                        "cold" => {
                            // Untimed engine eviction forces the next
                            // schedule to rebuild from the base trace.
                            let _ = client.request(&evict).expect("evict request");
                            schedule.clone()
                        }
                        "churn" => edit_line(&key, side, num_data, &mut rng),
                        other => panic!("unknown serve mode {other}"),
                    };
                    let start = Instant::now();
                    let response = client.request(&line).expect("request round trip");
                    let elapsed = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    if response_ok(&response) {
                        ok += 1;
                        latencies.push(elapsed);
                    } else if response_error(&response).as_deref() == Some("overloaded") {
                        overloaded += 1;
                    } else {
                        errors += 1;
                    }
                }
                (ok, overloaded, errors, latencies)
            })
        })
        .collect();
    let mut row = ServeRow {
        side,
        num_data,
        mode,
        concurrency,
        requests: concurrency * reps_per_client,
        ok: 0,
        overloaded: 0,
        errors: 0,
        elapsed_ns: 0,
        latency_ns: Vec::new(),
    };
    for h in handles {
        let (ok, overloaded, errors, latencies) = h.join().expect("client thread");
        row.ok += ok;
        row.overloaded += overloaded;
        row.errors += errors;
        row.latency_ns.extend(latencies);
    }
    row.elapsed_ns = started.elapsed().as_nanos();
    row
}

/// Measure one load row against a fresh, adequately provisioned daemon.
pub fn serve_row(
    side: u32,
    num_data: usize,
    mode: &'static str,
    method: &'static str,
    concurrency: usize,
    reps_per_client: usize,
) -> ServeRow {
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 256,
        cache_bytes: 1 << 30,
        pool_threads: 0,
    };
    let harness = stand_up(&config, side, num_data, method);
    let row = drive(
        &harness,
        side,
        num_data,
        mode,
        method,
        concurrency,
        reps_per_client,
    );
    harness.server.shutdown();
    assert_eq!(
        row.errors, 0,
        "{mode} row hit non-overload errors against a fresh daemon"
    );
    row
}

/// Hammer a deliberately under-provisioned daemon (1 worker, queue of 2)
/// with `concurrency` warm-schedule clients; admission control must shed
/// load as typed `overloaded` rejections, and every client must get an
/// answer for every request (no hangs).
pub fn burst_row(side: u32, num_data: usize, concurrency: usize, reps: usize) -> ServeRow {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        cache_bytes: 1 << 30,
        pool_threads: 0,
    };
    let harness = stand_up(&config, side, num_data, "scds");
    let mut row = drive(&harness, side, num_data, "warm", "scds", concurrency, reps);
    row.mode = "burst";
    harness.server.shutdown();
    assert_eq!(
        row.ok + row.overloaded + row.errors,
        row.requests as u64,
        "every burst request must be answered"
    );
    row
}

/// Render rows (and the burst row) as the `BENCH_serve.json` document
/// (hand-rolled JSON; the offline build has no JSON crate).
pub fn render_json(rows: &[ServeRow], burst: &ServeRow) -> String {
    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"config\": {{\"windows\": {SCALE_WINDOWS}, \"seed\": {SCALE_SEED}, \
         \"loop\": \"closed\"}},\n  \"rows\": [\n"
    );
    let render_row = |json: &mut String, row: &ServeRow| {
        let _ = write!(
            json,
            "    {{\"grid\": \"{0}x{0}\", \"num_data\": {1}, \"mode\": \"{2}\", \
             \"concurrency\": {3}, \"requests\": {4}, \"ok\": {5}, \
             \"overloaded\": {6}, \"errors\": {7}, \"elapsed_ns\": {8}, \
             \"throughput_rps\": {9:.1}, \"p50_us\": {10:.1}, \"p90_us\": {11:.1}, \
             \"p99_us\": {12:.1}, \"max_us\": {13:.1}}}",
            row.side,
            row.num_data,
            row.mode,
            row.concurrency,
            row.requests,
            row.ok,
            row.overloaded,
            row.errors,
            row.elapsed_ns,
            row.throughput_rps(),
            row.percentile_us(0.50),
            row.percentile_us(0.90),
            row.percentile_us(0.99),
            row.max_us(),
        );
    };
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        render_row(&mut json, row);
    }
    json.push_str("\n  ],\n  \"burst\":\n");
    render_row(&mut json, burst);
    json.push_str("\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_and_cold_rows_measure() {
        let warm = serve_row(8, 1000, "warm", "scds", 2, 20);
        assert_eq!(warm.ok, 40);
        assert_eq!(warm.overloaded, 0);
        assert!(warm.percentile_us(0.5) > 0.0);
        assert!(warm.percentile_us(0.5) <= warm.percentile_us(0.99));
        let cold = serve_row(8, 1000, "cold", "scds", 1, 3);
        assert_eq!(cold.ok, 3);
        // A cold build parses + solves from scratch; warm is a cache hit.
        assert!(cold.percentile_us(0.5) >= warm.percentile_us(0.5));
    }

    #[test]
    fn churn_row_measures() {
        let row = serve_row(8, 1000, "churn", "lomcds", 2, 5);
        assert_eq!(row.ok, 10);
        assert_eq!(row.errors, 0);
    }

    #[test]
    fn burst_sheds_load_without_hanging() {
        let row = burst_row(8, 500, 12, 30);
        assert!(
            row.overloaded > 0,
            "under-provisioned daemon must reject some of {} requests",
            row.requests
        );
        assert!(row.ok > 0, "some requests must still succeed");
        let json = render_json(&[], &row);
        assert!(pim_trace::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"burst\""));
    }

    #[test]
    fn json_document_parses() {
        let row = serve_row(8, 400, "warm", "scds", 1, 4);
        let doc = render_json(std::slice::from_ref(&row), &row);
        let v = pim_trace::json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        let rows = v.get("rows").and_then(Value::as_arr).expect("rows array");
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get("throughput_rps").is_some());
        assert!(v.get("burst").and_then(|b| b.get("overloaded")).is_some());
    }
}

//! Transport-independent request execution.
//!
//! [`ServeCore`] owns everything a request needs — the resident-trace
//! store, the shared scheduling pool, the enabled [`Metrics`] handle
//! threaded into every engine build, the server counters and the
//! shutdown flag — and turns one request line into one response line.
//! Transports ([`crate::server`]) only move bytes and enforce admission
//! control; tests can call [`ServeCore::handle_line`] directly and get
//! byte-identical responses to the socket path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use pim_metrics::Metrics;
use pim_par::Pool;
use pim_sched::{IncrementalError, IncrementalRun, MemoryPolicy, Method};
use pim_trace::FlatTrace;

use crate::error::ServeError;
use crate::proto::{self, EvictScope, LoadSource, Request};
use crate::stats::ServerStats;
use crate::store::{self, TraceStore};

/// Daemon sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Service worker threads executing requests.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with `overloaded`.
    pub queue_capacity: usize,
    /// Resident-trace store byte budget.
    pub cache_bytes: u64,
    /// Threads in the shared scheduling pool (0 = serial).
    pub pool_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_bytes: 256 << 20,
            pool_threads: 0,
        }
    }
}

/// Queue occupancy a `stats` response reports: `(depth, capacity)`.
/// Direct (transport-less) callers pass `(0, 0)`.
pub type QueueView = (usize, usize);

/// The daemon's shared state and request dispatcher.
pub struct ServeCore {
    store: TraceStore,
    stats: ServerStats,
    metrics: Metrics,
    pool: Pool,
    shutdown: AtomicBool,
}

impl ServeCore {
    /// Build the shared state for `config`.
    pub fn new(config: &ServeConfig) -> ServeCore {
        ServeCore {
            store: TraceStore::new(config.cache_bytes),
            stats: ServerStats::default(),
            metrics: Metrics::enabled(),
            pool: if config.pool_threads == 0 {
                Pool::serial()
            } else {
                Pool::with_threads(config.pool_threads)
            },
            shutdown: AtomicBool::new(false),
        }
    }

    /// The server counters (transports record admission rejections here).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The resident-trace store.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Whether a `shutdown` request has begun the drain.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the drain flag (idempotent).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Execute one request line and render the response line. Never
    /// panics on request input — every failure is a typed error
    /// response. Also records per-op counters and service latency.
    pub fn handle_line(&self, line: &str, queue: QueueView) -> String {
        let started = Instant::now();
        let (id, parsed) = proto::parse_request(line);
        let response = match parsed {
            Err(err) => {
                self.stats.record_error();
                proto::error_response(id, &err)
            }
            Ok(req) => {
                self.stats.record_op(req.op());
                if self.is_shutting_down()
                    && !matches!(req, Request::Stats | Request::Ping | Request::Shutdown)
                {
                    self.stats.record_error();
                    proto::error_response(id, &ServeError::ShuttingDown)
                } else {
                    match self.execute(req, queue) {
                        Ok(fields) => proto::ok_response(id, &fields),
                        Err(err) => {
                            self.stats.record_error();
                            proto::error_response(id, &err)
                        }
                    }
                }
            }
        };
        self.stats
            .record_latency(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        response
    }

    fn execute(&self, req: Request, queue: QueueView) -> Result<String, ServeError> {
        match req {
            Request::Load { source } => self.do_load(source),
            Request::Schedule {
                trace,
                method,
                policy,
            } => self.do_schedule(trace, method, policy),
            Request::Simulate { trace } => self.do_simulate(trace),
            Request::Edit { trace, delta } => self.do_edit(trace, &delta),
            Request::Stats => Ok(self.do_stats(queue)),
            Request::Evict { trace, scope } => Ok(self.do_evict(trace, scope)),
            Request::Ping => Ok("\"pong\":true".to_string()),
            Request::Shutdown => {
                self.begin_shutdown();
                Ok("\"draining\":true".to_string())
            }
        }
    }

    fn do_load(&self, source: LoadSource) -> Result<String, ServeError> {
        let flat = match source {
            LoadSource::Text(text) => FlatTrace::from_reader(text.as_bytes())?,
            // The binary file is memory-mapped and fully validated
            // (checksum + structure) before the resident copy is made;
            // any failure is a typed `io_error`. The content key is the
            // same one an equivalent text load would produce, so path
            // and text loads of one trace dedup to one resident entry.
            LoadSource::Path(path) => pim_trace::BinTrace::open(&path)?.to_flat(),
        };
        let grid = flat.grid();
        let (windows, data, refs) = (flat.num_windows(), flat.num_data(), flat.num_refs());
        let (key, fresh) = self.store.insert(flat)?;
        Ok(format!(
            "\"trace\":\"{}\",\"fresh\":{fresh},\"grid\":[{},{}],\
             \"windows\":{windows},\"data\":{data},\"refs\":{refs}",
            store::key_hex(key),
            grid.width(),
            grid.height(),
        ))
    }

    /// Look up + lock helper: returns the entry `Arc` for `key`
    /// (store lock released before return, per the lock ordering).
    fn entry(
        &self,
        key: u64,
    ) -> Result<std::sync::Arc<std::sync::Mutex<store::Entry>>, ServeError> {
        self.store
            .get(key)
            .ok_or_else(|| ServeError::UnknownTrace(store::key_hex(key)))
    }

    fn do_schedule(
        &self,
        key: u64,
        method: Method,
        policy: MemoryPolicy,
    ) -> Result<String, ServeError> {
        if !matches!(method, Method::Scds | Method::Lomcds | Method::Gomcds) {
            return Err(ServeError::UnknownMethod(method.name().to_string()));
        }
        let slot = self.entry(key)?;
        let mut entry = slot.lock().expect("entry lock");
        let warm = entry.engine_matches(method, policy);
        if !warm {
            // A rebuilt engine starts a fresh edit history from the
            // current version of the trace.
            entry.engine = Some(IncrementalRun::with_metrics(
                entry.current_trace(),
                method,
                policy,
                self.pool,
                self.metrics.clone(),
            )?);
        }
        self.stats.record_engine(warm);
        let engine = entry.engine.as_mut().expect("engine resident");
        let cost = engine.cost()?;
        let fields = format!(
            "\"trace\":\"{}\",\"method\":\"{}\",\"warm\":{warm},\"version\":{},\
             \"fallbacks\":{},\"cost\":{{\"reference\":{},\"movement\":{},\"total\":{}}}",
            store::key_hex(key),
            engine.method().name(),
            engine.version(),
            engine.fallbacks(),
            cost.reference,
            cost.movement,
            cost.total(),
        );
        let bytes = entry.resident_bytes();
        drop(entry);
        self.store.record_bytes(key, bytes);
        Ok(fields)
    }

    fn do_simulate(&self, key: u64) -> Result<String, ServeError> {
        let slot = self.entry(key)?;
        let entry = slot.lock().expect("entry lock");
        let Some(engine) = &entry.engine else {
            return Err(ServeError::NoSchedule(store::key_hex(key)));
        };
        let report = pim_sim::simulate(engine.trace(), engine.schedule(), self.pool);
        Ok(format!(
            "\"trace\":\"{}\",\"version\":{},\"hop_volume\":{},\"fetch_hop_volume\":{},\
             \"move_hop_volume\":{},\"completion_time\":{}",
            store::key_hex(key),
            engine.version(),
            report.total_hop_volume(),
            report.total_fetch_hop_volume(),
            report.total_move_hop_volume(),
            report.total_completion_time(),
        ))
    }

    fn do_edit(&self, key: u64, delta: &pim_trace::TraceDelta) -> Result<String, ServeError> {
        let slot = self.entry(key)?;
        let mut entry = slot.lock().expect("entry lock");
        let engine = match entry.engine.as_mut() {
            Some(engine) => engine,
            None => return Err(ServeError::NoSchedule(store::key_hex(key))),
        };
        match engine.incremental(delta) {
            Ok(()) => {}
            Err(IncrementalError::Trace(e)) => return Err(ServeError::Trace(e)),
            Err(IncrementalError::Sched(e)) => {
                // The engine's state is unspecified after a scheduling
                // failure mid-resolve; drop it so the next `schedule`
                // rebuilds from the base rather than serving garbage.
                entry.engine = None;
                let bytes = entry.resident_bytes();
                drop(entry);
                self.store.record_bytes(key, bytes);
                return Err(ServeError::Sched(e));
            }
        }
        let engine = entry.engine.as_ref().expect("still resident");
        let fields = format!(
            "\"trace\":\"{}\",\"version\":{},\"fallbacks\":{},\"ops\":{}",
            store::key_hex(key),
            engine.version(),
            engine.fallbacks(),
            delta.len(),
        );
        let bytes = entry.resident_bytes();
        drop(entry);
        self.store.record_bytes(key, bytes);
        Ok(fields)
    }

    fn do_stats(&self, queue: QueueView) -> String {
        let store = self.store.stats();
        format!(
            "\"server\":{},\"store\":{{\"traces\":{},\"bytes\":{},\"budget\":{},\
             \"evictions\":{}}},\"metrics\":{}",
            self.stats.to_json(queue.0, queue.1),
            store.traces,
            store.bytes,
            store.budget,
            store.evictions,
            self.metrics.report().to_json(),
        )
    }

    fn do_evict(&self, key: u64, scope: EvictScope) -> String {
        let evicted = match scope {
            EvictScope::Trace => self.store.remove(key),
            EvictScope::Engine => match self.store.get(key) {
                None => false,
                Some(slot) => {
                    let mut entry = slot.lock().expect("entry lock");
                    let had = entry.engine.take().is_some();
                    let bytes = entry.resident_bytes();
                    drop(entry);
                    self.store.record_bytes(key, bytes);
                    had
                }
            },
        };
        let scope_name = match scope {
            EvictScope::Trace => "trace",
            EvictScope::Engine => "engine",
        };
        format!(
            "\"trace\":\"{}\",\"scope\":\"{scope_name}\",\"evicted\":{evicted}",
            store::key_hex(key)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sched::flat_total_cost;
    use pim_trace::json::{parse, Value};

    const NO_QUEUE: QueueView = (0, 0);

    fn core() -> ServeCore {
        ServeCore::new(&ServeConfig::default())
    }

    fn trace_text() -> String {
        // 4×4 grid, 2 windows, 3 data; every datum referenced in both
        // windows so edits and incremental resolves have work to do.
        let mut s = String::from("flat v1 4 4 2 3\n");
        for d in 0..3u32 {
            for w in 0..2u32 {
                s.push_str(&format!("{d} {w} {} {}\n", (d * 5 + w * 3) % 16, 2 + d));
            }
        }
        s
    }

    fn load_req(text: &str) -> String {
        let mut line = String::from("{\"id\":1,\"op\":\"load\",\"text\":\"");
        pim_trace::json::escape_into(&mut line, text);
        line.push_str("\"}");
        line
    }

    fn ok(core: &ServeCore, line: &str) -> Value {
        let resp = core.handle_line(line, NO_QUEUE);
        let v = parse(&resp).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{resp}"));
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "expected ok: {resp}"
        );
        v
    }

    fn fail(core: &ServeCore, line: &str) -> String {
        let resp = core.handle_line(line, NO_QUEUE);
        let v = parse(&resp).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{resp}"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{resp}");
        v.get("error")
            .and_then(Value::as_str)
            .expect("error kind present")
            .to_string()
    }

    #[test]
    fn full_request_cycle() {
        let core = core();
        let loaded = ok(&core, &load_req(&trace_text()));
        let key = loaded
            .get("trace")
            .and_then(Value::as_str)
            .expect("trace key")
            .to_string();
        assert_eq!(loaded.get("fresh").and_then(Value::as_bool), Some(true));

        // Cold then warm schedule.
        let line = format!(r#"{{"id":2,"op":"schedule","trace":"{key}","method":"scds"}}"#);
        let cold = ok(&core, &line);
        assert_eq!(cold.get("warm").and_then(Value::as_bool), Some(false));
        let total = cold
            .get("cost")
            .and_then(|c| c.get("total"))
            .and_then(Value::as_u64)
            .expect("cost total");
        let warm = ok(&core, &line);
        assert_eq!(warm.get("warm").and_then(Value::as_bool), Some(true));
        assert_eq!(
            warm.get("cost")
                .and_then(|c| c.get("total"))
                .and_then(Value::as_u64),
            Some(total)
        );

        // Simulation agrees with the analytic cost (hop-volume == total).
        let sim = ok(&core, &format!(r#"{{"op":"simulate","trace":"{key}"}}"#));
        assert_eq!(sim.get("hop_volume").and_then(Value::as_u64), Some(total));

        // Edit bumps the version; a later schedule stays warm.
        let edit = format!(
            r#"{{"op":"edit","trace":"{key}","delta":{{"version":1,"ops":[{{"op":"set_run","datum":0,"window":1,"refs":[[9,4]]}}]}}}}"#
        );
        let edited = ok(&core, &edit);
        assert_eq!(edited.get("version").and_then(Value::as_u64), Some(1));
        let warm2 = ok(&core, &line);
        assert_eq!(warm2.get("warm").and_then(Value::as_bool), Some(true));
        assert_eq!(warm2.get("version").and_then(Value::as_u64), Some(1));

        // Stats reflect the traffic and parse end to end.
        let stats = ok(&core, r#"{"op":"stats"}"#);
        let server = stats.get("server").expect("server block");
        assert_eq!(
            server
                .get("requests")
                .and_then(|r| r.get("schedule"))
                .and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(server.get("engine_builds").and_then(Value::as_u64), Some(1));
        assert!(stats
            .get("metrics")
            .and_then(|m| m.get("enabled"))
            .is_some());
        assert_eq!(
            stats
                .get("store")
                .and_then(|s| s.get("traces"))
                .and_then(Value::as_u64),
            Some(1)
        );

        // Engine evict forces the next schedule cold; trace evict forgets it.
        let ev = ok(
            &core,
            &format!(r#"{{"op":"evict","trace":"{key}","scope":"engine"}}"#),
        );
        assert_eq!(ev.get("evicted").and_then(Value::as_bool), Some(true));
        let cold2 = ok(&core, &line);
        assert_eq!(cold2.get("warm").and_then(Value::as_bool), Some(false));
        ok(&core, &format!(r#"{{"op":"evict","trace":"{key}"}}"#));
        assert_eq!(fail(&core, &line), "unknown_trace");
    }

    #[test]
    fn error_paths_are_typed() {
        let core = core();
        assert_eq!(fail(&core, "garbage"), "bad_request");
        assert_eq!(
            fail(
                &core,
                r#"{"op":"schedule","trace":"0000000000000099","method":"scds"}"#
            ),
            "unknown_trace"
        );
        let loaded = ok(&core, &load_req(&trace_text()));
        let key = loaded
            .get("trace")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        // Parseable but non-incremental method names are refused.
        assert_eq!(
            fail(
                &core,
                &format!(r#"{{"op":"schedule","trace":"{key}","method":"gomcds-naive"}}"#)
            ),
            "unknown_method"
        );
        // simulate/edit before any schedule.
        assert_eq!(
            fail(&core, &format!(r#"{{"op":"simulate","trace":"{key}"}}"#)),
            "no_schedule"
        );
        let edit = format!(r#"{{"op":"edit","trace":"{key}","delta":{{"version":1,"ops":[]}}}}"#);
        assert_eq!(fail(&core, &edit), "no_schedule");
        // Out-of-range edit against a live engine is a trace error and
        // leaves the engine serviceable.
        ok(
            &core,
            &format!(r#"{{"op":"schedule","trace":"{key}","method":"scds"}}"#),
        );
        let bad_edit = format!(
            r#"{{"op":"edit","trace":"{key}","delta":{{"version":1,"ops":[{{"op":"set_run","datum":99,"window":0,"refs":[[0,1]]}}]}}}}"#
        );
        assert_eq!(fail(&core, &bad_edit), "trace_error");
        let warm = ok(
            &core,
            &format!(r#"{{"op":"schedule","trace":"{key}","method":"scds"}}"#),
        );
        assert_eq!(warm.get("warm").and_then(Value::as_bool), Some(true));
        // Malformed trace text is a trace error, not a panic.
        assert_eq!(
            fail(&core, &load_req("flat v1 4 4 1 1\n0 9 0 0 1\n")),
            "trace_error"
        );
    }

    #[test]
    fn shutdown_refuses_new_work_but_answers_probes() {
        let core = core();
        let v = ok(&core, r#"{"op":"shutdown"}"#);
        assert_eq!(v.get("draining").and_then(Value::as_bool), Some(true));
        assert!(core.is_shutting_down());
        assert_eq!(fail(&core, &load_req(&trace_text())), "shutting_down");
        ok(&core, r#"{"op":"ping"}"#);
        ok(&core, r#"{"op":"stats"}"#);
    }

    #[test]
    fn schedule_parity_with_direct_flat_run() {
        // The daemon's cost must be bit-identical to calling the flat
        // scheduler directly on the same trace.
        let core = core();
        let text = trace_text();
        let loaded = ok(&core, &load_req(&text));
        let key = loaded
            .get("trace")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        for method in ["scds", "lomcds", "gomcds"] {
            let v = ok(
                &core,
                &format!(r#"{{"op":"schedule","trace":"{key}","method":"{method}"}}"#),
            );
            let served = v
                .get("cost")
                .and_then(|c| c.get("total"))
                .and_then(Value::as_u64)
                .expect("cost");
            let flat = FlatTrace::from_reader(text.as_bytes()).unwrap();
            let solve = match Method::parse(method).unwrap() {
                Method::Scds => pim_sched::flat_scds,
                Method::Lomcds => pim_sched::flat_lomcds,
                Method::Gomcds => pim_sched::flat_gomcds,
                other => panic!("not served: {other}"),
            };
            let sched = solve(&flat, MemoryPolicy::Unbounded, Pool::serial()).unwrap();
            assert_eq!(served, flat_total_cost(&flat, &sched).total(), "{method}");
        }
    }

    /// Temp `.pimb` path that is cleaned up on drop.
    struct TempBin(std::path::PathBuf);

    impl TempBin {
        fn pack(flat: &FlatTrace, name: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("pim_serve_core_{}_{name}.pimb", std::process::id()));
            pim_trace::binfmt::pack_file(flat, &path).expect("pack temp trace");
            TempBin(path)
        }

        fn req(&self) -> String {
            let mut line = String::from("{\"op\":\"load\",\"path\":\"");
            pim_trace::json::escape_into(&mut line, &self.0.display().to_string());
            line.push_str("\"}");
            line
        }
    }

    impl Drop for TempBin {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn load_by_path_admits_and_schedules() {
        let core = core();
        let flat = FlatTrace::from_reader(trace_text().as_bytes()).unwrap();
        let bin = TempBin::pack(&flat, "admit");
        let loaded = ok(&core, &bin.req());
        assert_eq!(loaded.get("fresh").and_then(Value::as_bool), Some(true));
        assert_eq!(loaded.get("data").and_then(Value::as_u64), Some(3));
        let key = loaded
            .get("trace")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let v = ok(
            &core,
            &format!(r#"{{"op":"schedule","trace":"{key}","method":"scds"}}"#),
        );
        assert!(v.get("cost").is_some());
    }

    #[test]
    fn load_by_path_dedups_against_text_load() {
        // Path and text loads of the same trace must hash to one
        // resident entry: the second load reports fresh:false and the
        // same key.
        let core = core();
        let text = trace_text();
        let by_text = ok(&core, &load_req(&text));
        let flat = FlatTrace::from_reader(text.as_bytes()).unwrap();
        let bin = TempBin::pack(&flat, "dedup");
        let by_path = ok(&core, &bin.req());
        assert_eq!(by_path.get("fresh").and_then(Value::as_bool), Some(false));
        assert_eq!(
            by_path.get("trace").and_then(Value::as_str),
            by_text.get("trace").and_then(Value::as_str)
        );
    }

    #[test]
    fn load_by_path_failures_are_typed_io_errors() {
        let core = core();
        let missing = std::env::temp_dir().join(format!(
            "pim_serve_core_{}_missing.pimb",
            std::process::id()
        ));
        let mut line = String::from("{\"op\":\"load\",\"path\":\"");
        pim_trace::json::escape_into(&mut line, &missing.display().to_string());
        line.push_str("\"}");
        assert_eq!(fail(&core, &line), "io_error");

        // Corrupt container: flip a refs byte so the checksum mismatches.
        let flat = FlatTrace::from_reader(trace_text().as_bytes()).unwrap();
        let bin = TempBin::pack(&flat, "corrupt");
        let mut bytes = std::fs::read(&bin.0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&bin.0, &bytes).unwrap();
        assert_eq!(fail(&core, &bin.req()), "io_error");
        assert!(core.handle_line(&bin.req(), NO_QUEUE).contains("detail"));
    }
}

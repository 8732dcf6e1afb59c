//! serve-mixed: an in-process TCP `pim-serve` daemon under a closed-loop
//! schedule/edit mix.
//!
//! Setup starts the daemon (its default 2 workers and serial pool), loads
//! one synthetic trace per client as text and primes its LOMCDS engine.
//! Each of the [`CLIENTS`] clients holds one connection, owns one trace,
//! and sends cycles of five requests: four bounded-LOMCDS
//! `schedule`s and one `edit` carrying a 1%-of-data delta, the edit's
//! place in the cycle drawn from the client's seeded stream. A client
//! sends its next request only after the previous response arrived.
//!
//! Requests take three paths: an edit runs the engine's incremental
//! apply + resolve; the first schedule after an edit materializes the
//! edited trace and folds its cost; every other schedule is a warm hit.
//! Every response is checked against a direct `IncrementalRun` replay of
//! the same deltas, outside the measured region.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pim_bench::scale::{synthetic_flat, Rng64};
use pim_par::Pool;
use pim_sched::{flat_total_cost, IncrementalRun, Method};
use pim_serve::{proto, Client, ServeConfig, ServeCore, Server};
use pim_trace::edit::TraceDelta;
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;
use pim_trace::json::{self, Value};

use crate::report::{nproc, Metric};
use crate::spans::Spans;
use crate::{
    csr_bytes, e2e_metrics, layer_metrics, repeat_setup, rss, stats, sub_seed, Outcome, RunConfig,
    Shape, BOUNDED, MB,
};

/// Requests per cycle: four schedules and one edit.
const CYCLE: usize = 5;

/// Cycles per job. A single cycle's time depends on where its edit falls
/// (an edit last in its cycle leaves the materialize to the next one), so
/// cycle times split into two modes; twenty cycles in a row average that
/// out.
const JOB_CYCLES: usize = 20;

/// Closed-loop clients, one connection each. Fixed, so that the workload
/// and its pinned costs are the same on every host; a host with fewer
/// CPUs is flagged in the report, not given a smaller workload.
const CLIENTS: usize = 2;

/// Timed pings in a traced run (their median round trip is
/// `serve.transport_us`), each followed by a timed warm schedule on the
/// same idle connection (which the benchmark's tests split into core and
/// transport).
const PINGS: usize = 500;

/// Requests per client replayed through the transport-less core and the
/// decoder in a traced run.
const LAYER_OPS: usize = 400;

/// The bounded policy as the wire protocol spells it.
const POLICY_JSON: &str = "{\"scaled_min\":2}";

/// One request of the mix.
#[derive(Debug)]
enum Op {
    /// A bounded-LOMCDS `schedule`.
    Schedule,
    /// An `edit` carrying this delta.
    Edit(TraceDelta),
}

/// A client's seeded request stream. Replaying a fresh `Mix` with the
/// same seed and client yields the same requests, which is how responses
/// are checked without storing the deltas.
struct Mix {
    rng: Rng64,
    base: Arc<FlatTrace>,
    slot: usize,
    edit_slot: usize,
    picked: Vec<bool>,
}

impl Mix {
    /// The stream of `client` for run seed `seed`, editing `base` (the
    /// trace the client owns).
    fn new(seed: u64, client: usize, base: Arc<FlatTrace>) -> Mix {
        Mix {
            rng: Rng64::new(sub_seed(seed, 0x6d69_7800 + client as u64)),
            picked: vec![false; base.num_data()],
            base,
            slot: 0,
            edit_slot: 0,
        }
    }

    /// The next request.
    fn next_op(&mut self) -> Op {
        if self.slot == 0 {
            self.edit_slot = self.rng.below(CYCLE as u64) as usize;
        }
        let op = if self.slot == self.edit_slot {
            Op::Edit(self.delta())
        } else {
            Op::Schedule
        };
        self.slot = (self.slot + 1) % CYCLE;
        op
    }

    /// 1% of the data (distinct), each with one of its windows rewritten
    /// to a run shaped like the generator's: one reference (two in one
    /// case of eight) next to one of the datum's original references.
    /// Edits only ever rewrite windows the base trace references, so the
    /// trace keeps its size and the mix stays stationary however many
    /// edits a run makes.
    fn delta(&mut self) -> TraceDelta {
        let grid = self.base.grid();
        let (w, h) = (grid.width() as i64, grid.height() as i64);
        let n = self.base.num_data();
        let dirty = (n / 100).max(1);
        let mut chosen = Vec::with_capacity(dirty);
        while chosen.len() < dirty {
            let d = self.rng.below(n as u64) as usize;
            if !self.picked[d] {
                self.picked[d] = true;
                chosen.push(d);
            }
        }
        let mut delta = TraceDelta::new();
        for d in chosen {
            self.picked[d] = false;
            let span = self.base.span(DataId(d as u32));
            if span.is_empty() {
                continue;
            }
            let window = span[self.rng.below(span.len() as u64) as usize].window;
            let home = span[self.rng.below(span.len() as u64) as usize];
            let nrefs = 1 + u64::from(self.rng.below(8) == 0);
            let refs: Vec<_> = (0..nrefs)
                .map(|_| {
                    let x = (home.x as i64 + self.rng.below(3) as i64 - 1).clamp(0, w - 1) as u32;
                    let y = (home.y as i64 + self.rng.below(3) as i64 - 1).clamp(0, h - 1) as u32;
                    (grid.proc_xy(x, y), 1 + self.rng.below(4) as u32)
                })
                .collect();
            delta.set_run(DataId(d as u32), window, refs);
        }
        delta
    }
}

/// The trace client `client` owns.
fn client_trace(seed: u64, client: usize, shape: Shape) -> FlatTrace {
    synthetic_flat(
        shape.grid(),
        shape.windows,
        shape.data,
        sub_seed(seed, 0x7472_6163_6500 + client as u64),
    )
}

fn schedule_line(key: &str) -> String {
    format!("{{\"op\":\"schedule\",\"trace\":\"{key}\",\"method\":\"lomcds\",\"policy\":{POLICY_JSON}}}")
}

fn request_line(key: &str, op: &Op) -> String {
    match op {
        Op::Schedule => schedule_line(key),
        Op::Edit(delta) => format!(
            "{{\"op\":\"edit\",\"trace\":\"{key}\",\"delta\":{}}}",
            delta.to_json()
        ),
    }
}

fn load_line(flat: &FlatTrace) -> String {
    let mut line = String::from("{\"op\":\"load\",\"text\":\"");
    json::escape_into(&mut line, &flat.to_text());
    line.push_str("\"}");
    line
}

/// What a response said, as far as the check needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// A schedule's trace version and total cost.
    Schedule {
        /// Edit version the cost belongs to.
        version: u64,
        /// Total cost.
        total: u64,
    },
    /// An edit's new version and the engine's fallback count.
    Edit {
        /// Version after the edit.
        version: u64,
        /// Full capacity replays so far.
        fallbacks: u64,
    },
    /// An error response or a failed round trip.
    Failed,
}

fn u64_at(v: &Value, path: &[&str]) -> Option<u64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_u64()
}

fn parse_reply(op: &Op, line: &str) -> Reply {
    let Ok(v) = json::parse(line) else {
        return Reply::Failed;
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Reply::Failed;
    }
    let version = u64_at(&v, &["version"]);
    let reply = match op {
        Op::Schedule => version
            .zip(u64_at(&v, &["cost", "total"]))
            .map(|(version, total)| Reply::Schedule { version, total }),
        Op::Edit(_) => version
            .zip(u64_at(&v, &["fallbacks"]))
            .map(|(version, fallbacks)| Reply::Edit { version, fallbacks }),
    };
    reply.unwrap_or(Reply::Failed)
}

/// One client's state for one session.
struct ClientState {
    key: String,
    mix: Mix,
    /// `(is_edit, latency_ns, reply)` of every request sent, in order.
    log: Vec<(bool, u64, Reply)>,
    /// The client could not connect, or its first ping failed.
    lost: bool,
}

/// Drive one client until `deadline`, finishing its current cycle. The
/// untimed ping first absorbs connection set-up.
fn drive(addr: SocketAddr, st: &mut ClientState, deadline: Instant, s: &mut Spans) {
    let Ok(mut client) = Client::connect_tcp(addr) else {
        st.lost = true;
        return;
    };
    if client.request("{\"op\":\"ping\"}").is_err() {
        st.lost = true;
        return;
    }
    while Instant::now() < deadline || !st.log.len().is_multiple_of(CYCLE) {
        let op = st.mix.next_op();
        let line = request_line(&st.key, &op);
        let name = match op {
            Op::Schedule => "request.schedule",
            Op::Edit(_) => "request.edit",
        };
        let start = Instant::now();
        let response = s.layer(name, |_| client.request(&line));
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // An error response leaves the connection usable; a failed round
        // trip does not.
        let (reply, broken) = match response {
            Ok(text) => (parse_reply(&op, &text), false),
            Err(_) => (Reply::Failed, true),
        };
        st.log.push((matches!(op, Op::Edit(_)), ns, reply));
        if st.log.len().is_multiple_of(CYCLE * JOB_CYCLES) {
            let job = &st.log[st.log.len() - CYCLE * JOB_CYCLES..];
            s.push("job", job.iter().map(|e| e.1).sum());
        }
        if broken {
            return;
        }
    }
}

/// A running daemon with every client's trace loaded and primed.
struct Daemon {
    server: Server,
    keys: Vec<String>,
    bases: Vec<Arc<FlatTrace>>,
}

/// The daemon's default sizing: 2 workers and a serial scheduling pool,
/// so neither the pool nor the clients exceed `nproc` on two cores.
fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// Threads the daemon's scheduling pool runs on (0 means serial).
fn pool_threads() -> usize {
    serve_config().pool_threads.max(1)
}

fn key_of(response: &str) -> Option<String> {
    json::parse(response)
        .ok()?
        .get("trace")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Setup: generate each client's trace, start the daemon, load the
/// traces as text and prime their engines.
fn stand_up(cfg: &RunConfig, clients: usize) -> Daemon {
    let server = Server::start_tcp(&serve_config(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect to the daemon");
    let bases: Vec<_> = (0..clients)
        .map(|c| Arc::new(client_trace(cfg.seed, c, cfg.shape)))
        .collect();
    let keys = bases
        .iter()
        .map(|flat| {
            let loaded = client.request(&load_line(flat)).expect("load request");
            let key = key_of(&loaded).unwrap_or_else(|| panic!("load failed: {loaded}"));
            let primed = client
                .request(&schedule_line(&key))
                .expect("priming schedule");
            assert!(
                primed.contains("\"ok\":true"),
                "priming schedule failed: {primed}"
            );
            key
        })
        .collect();
    Daemon {
        server,
        keys,
        bases,
    }
}

/// One measured stretch of the mix against a freshly primed daemon.
struct Session {
    states: Vec<ClientState>,
    wall_s: f64,
    spans: Spans,
    /// Peak RSS while the clients ran, kilobytes.
    peak_kb: f64,
}

/// Run every client against `daemon` for `seconds`.
fn session(daemon: &Daemon, seed: u64, seconds: f64, traced: bool) -> Session {
    let addr = daemon.server.tcp_addr().expect("tcp endpoint");
    let mut states: Vec<ClientState> = daemon
        .keys
        .iter()
        .zip(&daemon.bases)
        .enumerate()
        .map(|(c, (key, base))| ClientState {
            key: key.clone(),
            mix: Mix::new(seed, c, Arc::clone(base)),
            log: Vec::new(),
            lost: false,
        })
        .collect();
    let _ = rss::reset_peak();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                scope.spawn(move || {
                    let mut s = Spans::new(traced);
                    drive(addr, st, deadline, &mut s);
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_kb = rss::peak_rss_kb().unwrap_or(0) as f64;
    let mut spans = Spans::new(traced);
    for log in logs {
        spans.absorb(log);
    }
    Session {
        states,
        wall_s,
        spans,
        peak_kb,
    }
}

/// What replaying one client's requests found.
#[derive(Default)]
struct Check {
    /// Responses that were errors or disagreed with the replay.
    failed: u64,
    /// Costs before and after the first edit.
    pins: Vec<u64>,
    /// The replay engine's full capacity replays.
    fallbacks: u64,
    spans: Spans,
}

/// Replay client `c`'s logged requests on a standalone `IncrementalRun`
/// and count the responses that disagree with it.
fn check_client(
    seed: u64,
    c: usize,
    base: &Arc<FlatTrace>,
    st: &ClientState,
    traced: bool,
) -> Check {
    let mut check = Check {
        failed: st.log.iter().filter(|e| e.2 == Reply::Failed).count() as u64,
        spans: Spans::new(traced),
        ..Check::default()
    };
    let s = &mut check.spans;
    let Ok(mut run) =
        IncrementalRun::new((**base).clone(), Method::Lomcds, BOUNDED, Pool::serial())
    else {
        check.failed = st.log.len() as u64;
        return check;
    };
    let fold = |run: &IncrementalRun, s: &mut Spans| {
        let flat = s.layer("trace.edit.materialize", |_| run.trace().materialize());
        s.layer("sched.fold.lomcds", |_| {
            flat_total_cost(&flat, run.schedule()).total()
        })
    };
    let mut cost = (run.version(), fold(&run, s));
    check.pins.push(cost.1);
    let mut mix = Mix::new(seed, c, Arc::clone(base));
    for &(_, _, reply) in &st.log {
        let op = mix.next_op();
        if reply == Reply::Failed {
            // The daemon refused or lost this request; it applied nothing.
            continue;
        }
        let expected = match op {
            Op::Edit(delta) => {
                let applied = s.layer("sched.incremental.apply", |_| run.apply(&delta));
                let resolved = s.layer("sched.incremental.resolve", |_| run.resolve());
                if applied.is_err() || resolved.is_err() {
                    check.failed += 1;
                    break;
                }
                if check.pins.len() == 1 {
                    check.pins.push(fold(&run, s));
                }
                Reply::Edit {
                    version: run.version(),
                    fallbacks: run.fallbacks(),
                }
            }
            Op::Schedule => {
                if cost.0 != run.version() {
                    cost = (run.version(), fold(&run, s));
                }
                Reply::Schedule {
                    version: cost.0,
                    total: cost.1,
                }
            }
        };
        if expected != reply {
            check.failed += 1;
        }
    }
    check.fallbacks = run.fallbacks();
    check
}

/// Check every client of a session, one thread per client.
fn check_session(
    seed: u64,
    daemon_bases: &[Arc<FlatTrace>],
    sess: &Session,
    traced: bool,
) -> Vec<Check> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sess
            .states
            .iter()
            .zip(daemon_bases)
            .enumerate()
            .map(|(c, (st, base))| scope.spawn(move || check_client(seed, c, base, st, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .collect()
    })
}

/// Traced runs only: the daemon's own counters, the round trip of a ping
/// (transport and queue hand-off with next to no work) and of a warm
/// schedule on an otherwise idle daemon, and a session's first requests
/// through the decoder and the transport-less core.
fn layer_calls(
    daemon: &Daemon,
    sess: &Session,
    seed: u64,
    s: &mut Spans,
    v: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let addr = daemon.server.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).map_err(|e| e.to_string())?;
    let stats_line = client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| e.to_string())?;
    // Pings alternate with warm schedules, so both see the same host.
    let line = schedule_line(&daemon.keys[0]);
    for _ in 0..PINGS {
        let pong = s
            .layer("serve.transport.ping", |_| {
                client.request("{\"op\":\"ping\"}")
            })
            .map_err(|e| e.to_string())?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("ping answered {pong}"));
        }
        let reply = s
            .layer("serve.request.isolated", |_| client.request(&line))
            .map_err(|e| e.to_string())?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("schedule answered {reply}"));
        }
    }
    if let Ok(doc) = json::parse(&stats_line) {
        let builds = u64_at(&doc, &["server", "engine_builds"]).unwrap_or(0) as f64;
        let reuses = u64_at(&doc, &["server", "engine_reuses"]).unwrap_or(0) as f64;
        v.insert(
            "serve.engine_reuse_ratio",
            reuses / (builds + reuses).max(1.0),
        );
        if let Some(p50) = doc
            .get("server")
            .and_then(|x| x.get("latency"))
            .and_then(|x| x.get("p50_us"))
            .and_then(Value::as_f64)
        {
            v.insert("serve.service_p50_us", p50);
        }
    }

    let core = ServeCore::new(&serve_config());
    for (c, (st, base)) in sess.states.iter().zip(&daemon.bases).enumerate() {
        core.handle_line(&load_line(base), (0, 0));
        core.handle_line(&schedule_line(&st.key), (0, 0));
        let mut mix = Mix::new(seed, c, Arc::clone(base));
        for _ in 0..st.log.len().min(LAYER_OPS) {
            let op = mix.next_op();
            let line = request_line(&st.key, &op);
            let _ = s.layer("serve.proto.decode", |_| {
                std::hint::black_box(proto::parse_request(&line))
            });
            let name = match op {
                Op::Schedule => "serve.core.schedule",
                Op::Edit(_) => "serve.core.edit",
            };
            s.layer(name, |_| core.handle_line(&line, (0, 0)));
        }
    }
    Ok(())
}

fn latencies_us(sess: &Session, edit: bool) -> Vec<f64> {
    sess.states
        .iter()
        .flat_map(|st| {
            st.log
                .iter()
                .filter(move |e| e.0 == edit && e.2 != Reply::Failed)
                .map(|e| e.1 as f64 / 1e3)
        })
        .collect()
}

/// The serve-mixed workload (see the module docs).
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let clients = CLIENTS;
    let (daemon, setup_s) = repeat_setup(cfg, || stand_up(cfg, clients), |d| d.server.shutdown());
    let mut out = Outcome::default();

    // A traced run splits its time between an untraced session, a traced
    // session and the layer calls; each session starts from a freshly
    // primed daemon, so both see the same requests on the same state.
    let share = if cfg.traced {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let plain = session(&daemon, cfg.seed, share, false);
    let peak_kb = plain.peak_kb;
    let bases = daemon.bases.clone();
    daemon.server.shutdown();

    let mut v = BTreeMap::new();
    let mut layer_spans = Spans::new(cfg.traced);
    let mut sessions = vec![plain];
    if cfg.traced {
        let fresh = stand_up(cfg, clients);
        let traced = session(&fresh, cfg.seed, share, true);
        if let Err(e) = layer_calls(&fresh, &traced, cfg.seed, &mut layer_spans, &mut v) {
            out.notes.push(format!("layer calls failed: {e}"));
            out.attempted += 1;
            out.failed += 1;
        }
        fresh.server.shutdown();
        sessions.push(traced);
    }

    // The check: every response of every session against a replay.
    let mut fallbacks = 0;
    for (i, sess) in sessions.iter().enumerate() {
        for check in check_session(cfg.seed, &bases, sess, cfg.traced) {
            out.failed += check.failed;
            fallbacks += check.fallbacks;
            if i == 0 {
                out.costs.extend(&check.pins);
            }
            layer_spans.absorb(check.spans);
        }
        for (c, st) in sess.states.iter().enumerate() {
            out.attempted += st.log.len() as u64;
            // A client that never got through, or finished no cycle, is a
            // failed op even though it logged no failed request.
            if st.lost || st.log.len() < CYCLE {
                out.notes.push(format!(
                    "client {c} {}",
                    if st.lost {
                        "could not connect"
                    } else {
                        "completed no cycle"
                    }
                ));
                out.attempted += 1;
                out.failed += 1;
            }
        }
    }
    out.reference_ok = cfg.pinned.is_empty() || cfg.pinned == out.costs;
    if !out.reference_ok {
        out.notes.push(format!(
            "pinned costs {:?}, measured {:?}",
            cfg.pinned, out.costs
        ));
        // The replay agreed with responses that disagree with the pins.
        out.failed = out.attempted;
    }

    let plain = &sessions[0];
    let (sched_us, edit_us) = (latencies_us(plain, false), latencies_us(plain, true));
    out.detail = vec![
        Metric::new("schedule_p50_us", stats::median(&sched_us), "us"),
        Metric::new("schedule_p99_us", stats::percentile(&sched_us, 0.99), "us"),
        Metric::new("edit_p50_us", stats::median(&edit_us), "us"),
        Metric::new("edit_p99_us", stats::percentile(&edit_us, 0.99), "us"),
        Metric::new(
            "serve_rps",
            (sched_us.len() + edit_us.len()) as f64 / plain.wall_s,
            "1/s",
        ),
        Metric::new(
            "job_p50_ms",
            stats::median(&plain.spans.samples("job")) * 1e3,
            "ms",
        ),
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_kb / 1024.0, "MB"),
    ];
    out.working_set = bases
        .iter()
        .map(|b| csr_bytes(b.num_data(), b.num_refs()))
        .sum();
    if clients > nproc() {
        out.notes.push(format!(
            "{clients} client connections exceed nproc {}: the clients measure \
             the host's scheduler as much as the daemon",
            nproc()
        ));
    }
    out.notes.push(format!(
        "samples: {} schedules ({} beyond p99), {} edits ({} beyond p99); client \
         connections: {clients}; pool threads: {} (nproc {})",
        sched_us.len(),
        stats::beyond(&sched_us, 0.99),
        edit_us.len(),
        stats::beyond(&edit_us, 0.99),
        pool_threads(),
        nproc(),
    ));
    let job_s = plain.spans.samples("job");
    if cfg.traced {
        let m = |name: &str| layer_spans.median_s(name);
        v.insert(
            "sched.incremental.apply_us",
            m("sched.incremental.apply") * 1e6,
        );
        v.insert(
            "sched.incremental.resolve_us",
            m("sched.incremental.resolve") * 1e6,
        );
        v.insert("sched.incremental.fallbacks", fallbacks as f64);
        v.insert(
            "trace.edit.materialize_ms",
            m("trace.edit.materialize") * 1e3,
        );
        v.insert("sched.fold.lomcds_s", m("sched.fold.lomcds"));
        v.insert("serve.proto.decode_us", m("serve.proto.decode") * 1e6);
        v.insert("serve.core.schedule_us", m("serve.core.schedule") * 1e6);
        v.insert("serve.core.edit_us", m("serve.core.edit") * 1e6);
        v.insert("serve.transport_us", m("serve.transport.ping") * 1e6);
        let untraced_ms = stats::median(&job_s) * 1e3;
        let traced_ms = sessions[1].spans.median_s("job") * 1e3;
        v.insert("bench.job_untraced_ms", untraced_ms);
        v.insert("bench.job_traced_ms", traced_ms);
        v.insert("bench.trace_overhead_ms", traced_ms - untraced_ms);
        v.insert("bench.pool_threads", pool_threads() as f64);
        v.insert("bench.client_connections", clients as f64);
        v.insert("bench.working_set_mb", out.working_set as f64 / MB);
        out.metrics = layer_metrics(&v);
        let mut spans = sessions.pop().expect("traced session").spans;
        spans.absorb(layer_spans);
        out.spans = spans;
    } else {
        out.metrics = e2e_metrics(&setup_s, &job_s, peak_kb);
        out.spans = sessions.pop().expect("untraced session").spans;
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.detail.push(Metric::new("failed_ratio", ratio, "ratio"));
    out
}

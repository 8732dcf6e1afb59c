//! End-to-end exercise of the serve daemon over a real socket: load,
//! schedule, edit, simulate, stats and evict round-trips; schedules and
//! simulations, before and after edits, that match a direct in-process
//! run on the (materialized) trace bit for bit (checked through the full
//! cost breakdown); typed `overloaded` rejections under an over-capacity
//! burst; and typed errors (never a hang or a dropped connection) for
//! malformed request lines, including lines that are not UTF-8.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::flat::{flat_gomcds, flat_lomcds, flat_scds, flat_total_cost};
use pim_sched::pipeline::MemoryPolicy;
use pim_sched::Schedule;
use pim_serve::{Client, ServeConfig, Server};
use pim_trace::edit::{EditableTrace, TraceDelta};
use pim_trace::flat::{FlatRecord, FlatTrace};
use pim_trace::ids::DataId;
use pim_trace::json::{self, Value};

/// A deterministic 6×6 trace with enough structure that the three
/// schedulers produce distinct non-trivial placements.
fn test_trace() -> FlatTrace {
    let grid = Grid::new(6, 6);
    let (nw, nd) = (8, 40);
    let records = (0..nd as u32).flat_map(|d| {
        (0..nw as u32).filter_map(move |w| {
            if (d + w) % 3 == 0 {
                None
            } else {
                Some(FlatRecord {
                    datum: DataId(d),
                    window: w,
                    proc: ProcId((d * 7 + w * 11) % 36),
                    count: 1 + (d + w) % 5,
                })
            }
        })
    });
    FlatTrace::from_records(grid, nw, nd, records).expect("test trace builds")
}

fn load_request(flat: &FlatTrace) -> String {
    let mut text = String::from(r#"{"op":"load","text":""#);
    json::escape_into(&mut text, &flat.to_text());
    text.push_str("\"}");
    text
}

fn parse_ok(response: &str) -> Value {
    let v = json::parse(response).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok response, got: {response}"
    );
    v
}

fn parse_err(response: &str) -> String {
    let v = json::parse(response).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(false),
        "expected error response, got: {response}"
    );
    v.get("error")
        .and_then(Value::as_str)
        .expect("error kind present")
        .to_string()
}

fn cost_of(v: &Value) -> (u64, u64, u64) {
    let cost = v.get("cost").expect("cost present");
    (
        cost.get("reference").and_then(Value::as_u64).unwrap(),
        cost.get("movement").and_then(Value::as_u64).unwrap(),
        cost.get("total").and_then(Value::as_u64).unwrap(),
    )
}

/// A `simulate` response equals the simulator run directly on `flat`.
fn assert_simulated(v: &Value, flat: &FlatTrace, schedule: &Schedule, what: &str) {
    let report = pim_sim::simulate(flat, schedule, Pool::with_threads(1));
    for (field, want) in [
        ("hop_volume", report.total_hop_volume()),
        ("fetch_hop_volume", report.total_fetch_hop_volume()),
        ("move_hop_volume", report.total_move_hop_volume()),
        ("completion_time", report.total_completion_time()),
    ] {
        assert_eq!(
            v.get(field).and_then(Value::as_u64),
            Some(want),
            "{what} {field}"
        );
    }
}

#[test]
fn socket_session_matches_direct_run() {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 32,
        cache_bytes: 64 << 20,
        pool_threads: 1,
    };
    let server = Server::start_tcp(&config, "127.0.0.1:0").expect("daemon starts");
    let addr = server.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("client connects");

    let flat = test_trace();
    let loaded = parse_ok(&client.request(&load_request(&flat)).unwrap());
    let key = loaded
        .get("trace")
        .and_then(Value::as_str)
        .expect("trace key")
        .to_string();
    assert_eq!(loaded.get("fresh").and_then(Value::as_bool), Some(true));

    // Every incremental-capable method served over the socket must agree
    // with an in-process run on the full cost breakdown.
    let pool = Pool::with_threads(1);
    for (method, direct) in [
        ("scds", flat_scds(&flat, MemoryPolicy::Unbounded, pool)),
        ("lomcds", flat_lomcds(&flat, MemoryPolicy::Unbounded, pool)),
        ("gomcds", flat_gomcds(&flat, MemoryPolicy::Unbounded, pool)),
    ] {
        let schedule = direct.expect("direct schedule");
        let expected = flat_total_cost(&flat, &schedule);
        let response = parse_ok(
            &client
                .request(&format!(
                    r#"{{"op":"schedule","trace":"{key}","method":"{method}"}}"#
                ))
                .unwrap(),
        );
        let (reference, movement, total) = cost_of(&response);
        assert_eq!(reference, expected.reference, "{method} reference cost");
        assert_eq!(movement, expected.movement, "{method} movement cost");
        assert_eq!(total, expected.total(), "{method} total cost");
    }

    // Edit bumps the version; the follow-up schedule is warm and its cost
    // matches a from-scratch run over the edited trace.
    let edit = format!(
        r#"{{"op":"edit","trace":"{key}","delta":{{"version":1,"ops":[{{"op":"set_run","datum":3,"window":2,"refs":[[0,9],[35,1]]}}]}}}}"#
    );
    let edited = parse_ok(&client.request(&edit).unwrap());
    assert_eq!(edited.get("version").and_then(Value::as_u64), Some(1));

    let warm = parse_ok(
        &client
            .request(&format!(
                r#"{{"op":"schedule","trace":"{key}","method":"gomcds"}}"#
            ))
            .unwrap(),
    );
    assert_eq!(warm.get("warm").and_then(Value::as_bool), Some(true));
    let mut editable = EditableTrace::new(flat.clone());
    let mut delta = TraceDelta::new();
    delta.set_run(DataId(3), 2, [(ProcId(0), 9), (ProcId(35), 1)]);
    editable.apply(&delta).expect("edit applies");
    let expected_flat = editable.materialize();
    let direct = flat_gomcds(&expected_flat, MemoryPolicy::Unbounded, pool).unwrap();
    let expected = flat_total_cost(&expected_flat, &direct);
    let (reference, movement, total) = cost_of(&warm);
    assert_eq!(reference, expected.reference, "post-edit reference cost");
    assert_eq!(movement, expected.movement, "post-edit movement cost");
    assert_eq!(total, expected.total(), "post-edit total cost");
    let simulate = format!(r#"{{"op":"simulate","trace":"{key}"}}"#);
    let sim = parse_ok(&client.request(&simulate).unwrap());
    assert_simulated(&sim, &expected_flat, &direct, "post-edit gomcds");

    // A second edit appends a window and rewrites a run. Each further
    // method then builds a cold engine from the edited trace (the second
    // and third from an engine that was itself rebuilt, at version 0),
    // and its schedule and simulation match direct runs on the
    // materialized trace.
    let edit = format!(
        r#"{{"op":"edit","trace":"{key}","delta":{{"version":1,"ops":[{{"op":"append_window","rows":[[5,7,3],[3,0,1]]}},{{"op":"set_run","datum":10,"window":0,"refs":[[20,4]]}}]}}}}"#
    );
    let edited = parse_ok(&client.request(&edit).unwrap());
    assert_eq!(edited.get("version").and_then(Value::as_u64), Some(3));
    let mut delta = TraceDelta::new();
    delta
        .append_window([(DataId(5), ProcId(7), 3), (DataId(3), ProcId(0), 1)])
        .set_run(DataId(10), 0, [(ProcId(20), 4)]);
    editable.apply(&delta).expect("edit applies");
    let expected_flat = editable.materialize();
    let bounded = MemoryPolicy::ScaledMinimum { factor: 2 };
    for (method, policy_json, direct) in [
        (
            "lomcds",
            r#"{"scaled_min":2}"#,
            flat_lomcds(&expected_flat, bounded, pool),
        ),
        (
            "scds",
            r#""unbounded""#,
            flat_scds(&expected_flat, MemoryPolicy::Unbounded, pool),
        ),
        (
            "gomcds",
            r#"{"scaled_min":2}"#,
            flat_gomcds(&expected_flat, bounded, pool),
        ),
    ] {
        let direct = direct.expect("direct schedule");
        let response = parse_ok(
            &client
                .request(&format!(
                    r#"{{"op":"schedule","trace":"{key}","method":"{method}","policy":{policy_json}}}"#
                ))
                .unwrap(),
        );
        assert_eq!(response.get("warm").and_then(Value::as_bool), Some(false));
        let expected = flat_total_cost(&expected_flat, &direct);
        let (reference, movement, total) = cost_of(&response);
        assert_eq!(
            (reference, movement, total),
            (expected.reference, expected.movement, expected.total()),
            "{method} after two edits"
        );
        let sim = parse_ok(&client.request(&simulate).unwrap());
        assert_simulated(&sim, &expected_flat, &direct, method);
    }

    // Stats reflect the session and parse as JSON.
    let stats = parse_ok(&client.request(r#"{"op":"stats"}"#).unwrap());
    let requests = stats
        .get("server")
        .and_then(|s| s.get("requests"))
        .expect("request counters");
    assert!(requests.get("schedule").and_then(Value::as_u64).unwrap() >= 7);
    assert_eq!(
        stats
            .get("store")
            .and_then(|s| s.get("traces"))
            .and_then(Value::as_u64),
        Some(1)
    );

    // Evicting the trace makes follow-up schedules fail typed.
    let evicted = parse_ok(
        &client
            .request(&format!(r#"{{"op":"evict","trace":"{key}"}}"#))
            .unwrap(),
    );
    assert_eq!(evicted.get("evicted").and_then(Value::as_bool), Some(true));
    let kind = parse_err(
        &client
            .request(&format!(
                r#"{{"op":"schedule","trace":"{key}","method":"scds"}}"#
            ))
            .unwrap(),
    );
    assert_eq!(kind, "unknown_trace");

    server.shutdown();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_daemon_survives() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_bytes: 16 << 20,
        pool_threads: 1,
    };
    let server = Server::start_tcp(&config, "127.0.0.1:0").expect("daemon starts");
    let addr = server.tcp_addr().expect("tcp endpoint");
    let mut client = Client::connect_tcp(addr).expect("client connects");

    for (line, want) in [
        ("this is not json", "bad_request"),
        ("{}", "bad_request"),
        (r#"{"op":"teleport"}"#, "unknown_method"),
        (r#"{"op":"load"}"#, "bad_request"),
        (r#"{"op":"load","text":"flat v2 1 1 1 1"}"#, "trace_error"),
        (
            r#"{"op":"schedule","trace":"zzzz","method":"scds"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"schedule","trace":"00000000000000aa","method":"scds"}"#,
            "unknown_trace",
        ),
        (
            r#"{"op":"edit","trace":"00000000000000aa","delta":5}"#,
            "bad_request",
        ),
    ] {
        assert_eq!(
            parse_err(&client.request(line).unwrap()),
            want,
            "line: {line}"
        );
    }

    // The daemon still answers real work on the same connection.
    let flat = test_trace();
    let loaded = parse_ok(&client.request(&load_request(&flat)).unwrap());
    let key = loaded
        .get("trace")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    parse_ok(
        &client
            .request(&format!(
                r#"{{"op":"schedule","trace":"{key}","method":"scds"}}"#
            ))
            .unwrap(),
    );

    // A line that is not UTF-8 gets a typed answer too, and the raw
    // connection keeps serving.
    let mut raw = std::net::TcpStream::connect(addr).expect("raw client connects");
    raw.write_all(b"\xff\xfe\n{\"op\":\"ping\"}\n").unwrap();
    let mut lines = BufReader::new(raw).lines();
    assert_eq!(parse_err(&lines.next().unwrap().unwrap()), "bad_request");
    let pong = parse_ok(&lines.next().unwrap().unwrap());
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn over_capacity_burst_is_shed_not_queued() {
    // One worker, a queue of one, and clients that outnumber both: the
    // daemon must answer every request (no hang) and shed the excess as
    // typed `overloaded` rejections.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        cache_bytes: 16 << 20,
        pool_threads: 1,
    };
    let server = Server::start_tcp(&config, "127.0.0.1:0").expect("daemon starts");
    let addr = server.tcp_addr().expect("tcp endpoint");

    let flat = test_trace();
    let mut setup = Client::connect_tcp(addr).expect("setup client");
    let loaded = parse_ok(&setup.request(&load_request(&flat)).unwrap());
    let key: Arc<str> = loaded.get("trace").and_then(Value::as_str).unwrap().into();

    let answered = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let key = Arc::clone(&key);
            let answered = Arc::clone(&answered);
            let overloaded = Arc::clone(&overloaded);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("burst client");
                let line = format!(r#"{{"op":"schedule","trace":"{key}","method":"gomcds"}}"#);
                for _ in 0..20 {
                    let response = client.request(&line).expect("always answered");
                    answered.fetch_add(1, Ordering::Relaxed);
                    let v = json::parse(&response).expect("response parses");
                    match v.get("ok").and_then(Value::as_bool) {
                        Some(true) => {}
                        Some(false) => {
                            assert_eq!(
                                v.get("error").and_then(Value::as_str),
                                Some("overloaded"),
                                "unexpected error: {response}"
                            );
                            let depth = v
                                .get("queue_depth")
                                .and_then(Value::as_u64)
                                .expect("overloaded carries queue depth");
                            assert!(depth <= 1);
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        None => panic!("malformed response: {response}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst client thread");
    }
    assert_eq!(
        answered.load(Ordering::Relaxed),
        8 * 20,
        "every request answered"
    );
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "over-capacity burst produced no rejections"
    );

    // Server-side counter agrees that rejections happened.
    let stats = parse_ok(&setup.request(r#"{"op":"stats"}"#).unwrap());
    let rejected = stats
        .get("server")
        .and_then(|s| s.get("rejected_overloaded"))
        .and_then(Value::as_u64)
        .unwrap();
    assert_eq!(rejected, overloaded.load(Ordering::Relaxed));
    server.shutdown();
}

#[test]
fn unix_socket_round_trip() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_bytes: 16 << 20,
        pool_threads: 1,
    };
    let path = std::env::temp_dir().join(format!("pim-serve-e2e-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::start_unix(&config, &path).expect("daemon starts");
    let mut client = Client::connect_unix(&path).expect("client connects");
    let pong = parse_ok(&client.request(r#"{"id":7,"op":"ping"}"#).unwrap());
    assert_eq!(pong.get("id").and_then(Value::as_u64), Some(7));
    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

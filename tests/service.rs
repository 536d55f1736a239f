//! The experiment service's contract, pinned end to end over real
//! TCP connections:
//!
//! 1. **The protocol round-trips.** A `run` request's body is
//!    byte-identical to `lru-leak run <id> --json`; an `adhoc`
//!    request's body to `lru-leak adhoc <sc> --json`; `status`
//!    reports the counters.
//! 2. **Identical concurrent requests coalesce.** N clients asking
//!    for the same artifact cost exactly one simulation
//!    (counter-verified) and every one of them receives the same
//!    bytes; the shared result cache backs the guarantee for
//!    stragglers that miss the single-flight window.
//! 3. **Deadlines are structured.** A request whose budget expires —
//!    even while queued — gets an `error` event with status
//!    `timeout`, not a hang or a dropped connection.
//! 4. **Disconnects cancel.** A client that goes away mid-job stops
//!    paying for it: the server cancels the job cooperatively.
//! 5. **Shutdown drains.** Queued jobs complete and their clients
//!    get results before `Server::run` returns.
//! 6. **Hostile input is a typed error.** A request nested deeper
//!    than the JSON parser's cap, or a scenario whose counts pass
//!    `MAX_COUNT`, is a `bad_request`, and the server keeps serving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use lru_leak::scenario::Value;
use lru_leak_cli::run_cli;
use lru_leak_server::{client, Server, ServerConfig, ServerHandle, MAX_FRAME_BYTES};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Binds a server on an ephemeral port, runs it on its own thread,
/// and returns `(addr, handle, join)`.
fn spawn_server(
    config: ServerConfig,
) -> (
    String,
    ServerHandle,
    thread::JoinHandle<std::io::Result<lru_leak_server::ServerSummary>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lru-leak-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `run` request for `fig5`, pinned to a tiny deterministic
/// configuration so the suite stays fast.
fn fig5_request() -> Value {
    Value::obj()
        .with("cmd", "run")
        .with("artifact", "fig5")
        .with("trials", 2u64)
        .with("seed", 99u64)
}

/// What the CLI prints for the same configuration.
fn fig5_cli_body() -> String {
    run_cli(&args(&[
        "run", "fig5", "--json", "--trials", "2", "--seed", "99",
    ]))
    .expect("cli run")
}

fn body_of(event: &Value) -> String {
    assert_eq!(
        event.get("event").and_then(Value::as_str),
        Some("result"),
        "expected a result event, got {event}"
    );
    event
        .get("body")
        .and_then(Value::as_str)
        .expect("result body")
        .to_string()
}

#[test]
fn run_and_adhoc_bodies_match_the_cli_byte_for_byte() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    // Artifact request == `lru-leak run fig5 --json ...`. The
    // accepted event announces up front that the job rides the
    // lockstep batch path (fig5 is covert + hyper-threaded +
    // noiseless, so every cell is eligible).
    let mut accepted = Vec::new();
    let event =
        client::request(&addr, &fig5_request(), |e| accepted.push(e.clone())).expect("run request");
    assert_eq!(
        accepted
            .first()
            .and_then(|e| e.get("lockstep"))
            .and_then(Value::as_bool),
        Some(true),
        "accepted event flags lockstep jobs"
    );
    assert_eq!(body_of(&event), fig5_cli_body());
    let status = event.get("status").expect("job status");
    assert_eq!(status.get("cells").and_then(Value::as_u64), Some(2));
    assert_eq!(
        status.get("lockstep_cells").and_then(Value::as_u64),
        Some(2),
        "both fig5 cells ran lockstep"
    );

    // Adhoc request == `lru-leak adhoc <sc> --json`.
    let sc = lru_leak::scenario::Scenario::builder()
        .message(lru_leak::scenario::MessageSource::Alternating { bits: 8 })
        .seed(7)
        .build()
        .unwrap();
    let adhoc = Value::obj()
        .with("cmd", "adhoc")
        .with("scenario", sc.to_json());
    let event = client::request(&addr, &adhoc, |_| {}).expect("adhoc request");
    let reference =
        run_cli(&args(&["adhoc", &sc.to_json().to_string(), "--json"])).expect("cli adhoc");
    assert_eq!(body_of(&event), reference);

    // Status reflects what just happened.
    let status = client::status(&addr).expect("status");
    assert_eq!(status.get("event").and_then(Value::as_str), Some("status"));
    assert_eq!(status.get("requests").and_then(Value::as_u64), Some(2));
    assert_eq!(status.get("completed").and_then(Value::as_u64), Some(2));
    assert_eq!(status.get("failed").and_then(Value::as_u64), Some(0));
    // fig5's two cells plus the (eligible) adhoc scenario.
    assert_eq!(
        status.get("lockstep_cells").and_then(Value::as_u64),
        Some(3)
    );

    // A malformed request is a structured error, not a dropped
    // connection.
    let bad = Value::obj().with("cmd", "run").with("artifact", "fig99");
    let event = client::request(&addr, &bad, |_| {}).expect("bad request");
    assert_eq!(event.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(
        event.get("status").and_then(Value::as_str),
        Some("bad_request")
    );

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 1);
}

#[test]
fn identical_concurrent_requests_cost_exactly_one_simulation() {
    let dir = tmp_dir("coalesce");
    // The artificial 800ms job delay holds the single-flight window
    // open so the followers reliably join the leader's flight.
    let (addr, handle, join) = spawn_server(ServerConfig {
        cache_dir: Some(dir.clone()),
        job_delay: Some(Duration::from_millis(800)),
        ..ServerConfig::default()
    });

    let leader = {
        let addr = addr.clone();
        thread::spawn(move || client::request(&addr, &fig5_request(), |_| {}).expect("leader"))
    };
    // Give the leader time to be admitted and start its delay.
    thread::sleep(Duration::from_millis(150));
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                client::request(&addr, &fig5_request(), |_| {}).expect("follower")
            })
        })
        .collect();

    let reference = fig5_cli_body();
    let lead_body = body_of(&leader.join().unwrap());
    assert_eq!(lead_body, reference, "leader body differs from the CLI");
    for f in followers {
        assert_eq!(
            body_of(&f.join().unwrap()),
            reference,
            "follower body differs from the CLI"
        );
    }

    // The core guarantee: four requests, one simulation. fig5 has
    // two grid cells; exactly those two were computed, regardless of
    // whether a straggler coalesced or was served from the cache.
    let s = handle.summary();
    assert_eq!(s.requests, 4);
    assert_eq!(s.completed, 4);
    assert_eq!(s.computed_cells, 2, "more than one simulation ran");
    assert!(s.coalesced >= 1, "no follower joined the flight");

    // A warm repeat is a pure cache hit — still zero new work, still
    // the same bytes.
    let event = client::request(&addr, &fig5_request(), |_| {}).expect("warm request");
    assert_eq!(body_of(&event), reference);
    let s = handle.summary();
    assert_eq!(s.computed_cells, 2, "the warm request recomputed");
    assert!(s.cached_cells >= 2, "the warm request missed the cache");

    handle.begin_shutdown();
    join.join().unwrap().expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_is_a_structured_timeout() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        job_delay: Some(Duration::from_millis(1300)),
        ..ServerConfig::default()
    });

    let request = fig5_request().with("timeout_secs", 1u64);
    let event = client::request(&addr, &request, |_| {}).expect("request");
    assert_eq!(event.get("event").and_then(Value::as_str), Some("error"));
    assert_eq!(event.get("status").and_then(Value::as_str), Some("timeout"));
    assert!(
        event.get("message").and_then(Value::as_str).is_some(),
        "timeout carries a message"
    );

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn a_hostile_nesting_depth_is_a_bad_request_and_the_server_survives() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    // 100k open arrays would overflow an uncapped recursive parser's
    // stack, which aborts the whole process, not one connection.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let line = format!("{{\"cmd\":\"adhoc\",\"scenario\":{}\n", "[".repeat(100_000));
        stream.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("recv");
        let event = Value::parse(reply.trim()).expect("error event");
        assert_eq!(
            event.get("status").and_then(Value::as_str),
            Some("bad_request")
        );
        let message = event.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("nesting"), "{message}");
    }

    let event = client::request(&addr, &fig5_request(), |_| {}).expect("request");
    assert_eq!(body_of(&event), fig5_cli_body());

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!((summary.failed, summary.completed), (1, 1));
}

#[test]
fn trials_past_a_count_cap_are_a_bad_request_and_the_server_survives() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    // l2_lru_channel sends one bit per trial: past MAX_COUNT the grid
    // does not validate, and the request is rejected before admission.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let request = Value::obj()
            .with("cmd", "run")
            .with("artifact", "l2_lru_channel")
            .with("trials", (lru_leak::scenario::MAX_COUNT + 1) as u64);
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("recv");
        let event = Value::parse(reply.trim()).expect("error event");
        assert_eq!(
            event.get("status").and_then(Value::as_str),
            Some("bad_request"),
            "{event}"
        );
        let message = event.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("incompatible scenario"), "{message}");
    }

    let event = client::request(&addr, &fig5_request(), |_| {}).expect("request");
    assert_eq!(body_of(&event), fig5_cli_body());

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!((summary.failed, summary.completed), (1, 1));
}

#[test]
fn oversized_adhoc_counts_are_a_bad_request_and_status_still_answers() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    // 10^12 multi-set frames once sized a 24 TB buffer up front and
    // aborted the whole server; a 10^12 `trials` override bypassed
    // validation because it was applied after it.
    let multi_set = r#"{"platform":"e5-2690","policy":"tree-plru","variant":"alg1-shared-memory","sharing":"hyper-threaded","defense":"none","workload":"idle","noise":"none","hierarchy":"inclusive","params":{"d":8,"target_set":0,"ts":6000,"tr":600},"message":{"alternating":16},"kind":{"multi-set":{"sets":4,"frames":1000000000000}},"trials":1,"seed":7}"#;
    let covert = lru_leak::scenario::Scenario::builder()
        .build()
        .unwrap()
        .to_json();
    for (request, field) in [
        (
            Value::obj()
                .with("cmd", "adhoc")
                .with("scenario", Value::parse(multi_set).unwrap()),
            "multi-set frames",
        ),
        (
            Value::obj()
                .with("cmd", "adhoc")
                .with("scenario", covert)
                .with("trials", 1_000_000_000_000u64),
            "trials",
        ),
    ] {
        let event = client::request(&addr, &request, |_| {}).expect("a final event");
        assert_eq!(
            event.get("status").and_then(Value::as_str),
            Some("bad_request"),
            "{event}"
        );
        let message = event.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("incompatible scenario"), "{message}");
        assert!(
            message.contains(&format!("{field} must be <=")),
            "{message}"
        );
    }

    let status = client::status(&addr).expect("status after the rejections");
    assert_eq!(status.get("event").and_then(Value::as_str), Some("status"));

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!((summary.failed, summary.completed), (2, 0));
}

#[test]
fn an_oversized_frame_is_a_bad_request_and_the_server_survives() {
    let (addr, handle, join) = spawn_server(ServerConfig::default());

    // 2 MiB without a newline, on the NDJSON path (first byte `{`)
    // and on the HTTP request line. The server stops reading at
    // MAX_FRAME_BYTES, so the tail of the write may fail: send from
    // a second thread and read the rejection here.
    for head in ["{", "GET /"] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let sender = thread::spawn(move || {
            let mut frame = head.as_bytes().to_vec();
            frame.resize(2 * MAX_FRAME_BYTES, b'a');
            let _ = writer.write_all(&frame);
        });
        let mut reply = String::new();
        // The connection closes after the reply (possibly with a
        // reset, since the server leaves the tail unread).
        let _ = stream.read_to_string(&mut reply);
        sender.join().unwrap();
        if head == "GET /" {
            assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
        }
        let event = reply.lines().last().unwrap_or_default();
        let event = Value::parse(event).expect("error event");
        assert_eq!(
            event.get("status").and_then(Value::as_str),
            Some("bad_request"),
            "{head}: {event}"
        );
    }

    let event = client::request(&addr, &fig5_request(), |_| {}).expect("request");
    assert_eq!(body_of(&event), fig5_cli_body());

    handle.begin_shutdown();
    let summary = join.join().unwrap().expect("server run");
    assert_eq!((summary.failed, summary.completed), (2, 1));
}

#[test]
fn a_client_disconnect_cancels_the_job() {
    let (addr, handle, join) = spawn_server(ServerConfig {
        job_delay: Some(Duration::from_millis(2000)),
        ..ServerConfig::default()
    });

    // Speak the protocol by hand so the connection can be dropped
    // mid-job: send the request, wait for `accepted`, hang up.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(format!("{}\n", fig5_request()).as_bytes())
            .expect("send");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("recv");
        let accepted = Value::parse(line.trim()).expect("accepted event");
        assert_eq!(
            accepted.get("event").and_then(Value::as_str),
            Some("accepted")
        );
    } // <- the stream drops here, while the job is still in its delay

    // The reader thread notices the hangup and cancels the request's
    // token; the job fails as `cancelled` well before it would have
    // finished naturally.
    let t0 = Instant::now();
    while handle.summary().failed == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "disconnect was never noticed: {:?}",
            handle.summary()
        );
        thread::sleep(Duration::from_millis(25));
    }
    let s = handle.summary();
    assert_eq!(s.failed, 1);
    assert_eq!(s.completed, 0);
    assert_eq!(s.computed_cells, 0, "the cancelled job still simulated");

    handle.begin_shutdown();
    join.join().unwrap().expect("server run");
}

#[test]
fn shutdown_drains_queued_jobs_before_returning() {
    // Capacity 1 trial-unit: any job is admissible on an idle ledger,
    // but a second job must queue until the first completes.
    let (addr, handle, join) = spawn_server(ServerConfig {
        max_inflight_trials: 1,
        job_delay: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });

    let first = {
        let addr = addr.clone();
        thread::spawn(move || client::request(&addr, &fig5_request(), |_| {}).expect("first"))
    };
    thread::sleep(Duration::from_millis(100));
    let queued = {
        let addr = addr.clone();
        let request = Value::obj()
            .with("cmd", "run")
            .with("artifact", "table3")
            .with("trials", 1u64)
            .with("seed", 99u64);
        thread::spawn(move || client::request(&addr, &request, |_| {}).expect("queued"))
    };
    thread::sleep(Duration::from_millis(100));

    // Drain begins while the first job is still running and the
    // second is still waiting for admission credits.
    handle.begin_shutdown();

    // Both clients still get their results…
    assert_eq!(
        body_of(&first.join().unwrap()),
        fig5_cli_body(),
        "in-flight job lost to the drain"
    );
    let queued_body = body_of(&queued.join().unwrap());
    let reference = run_cli(&args(&[
        "run", "table3", "--json", "--trials", "1", "--seed", "99",
    ]))
    .expect("cli table3");
    assert_eq!(queued_body, reference, "queued job lost to the drain");

    // …and the server then comes down cleanly with the books
    // balanced.
    let summary = join.join().unwrap().expect("server run");
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
}

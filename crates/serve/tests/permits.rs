//! Execution-permit safety over real sockets: a permit comes back on
//! every path, panics included, a queued request answers itself at the
//! drain deadline without waiting for the request holding the permit, and
//! permit handover and combined answers wake their sessions directly.

use halk_kg::{generate, Graph, SynthConfig};
use halk_serve::protocol::{AskEngine, ErrorKind, Response};
use halk_serve::{Client, Engine, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn small_graph(seed: u64) -> Graph {
    generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(seed))
}

/// One permit, fast ticks, and a short drain.
fn one_permit() -> ServeConfig {
    ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(20),
        stall: Duration::from_millis(200),
        drain: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

#[test]
fn panicking_requests_return_the_only_permit() {
    let g = small_graph(60);
    let t = g.triples()[0];
    let sparql = format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0);
    let query = halk_sparql::sparql_to_query(&sparql).unwrap();
    let shape = halk_logic::plan::PlanShape::compile(&query);
    let want =
        halk_logic::plan::execute_set(&shape, &halk_logic::plan::PlanBindings::of(&query), &g);

    let server = Server::start(Engine::new(g, None).test_faults(true), one_permit()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..5 {
        match c.ask(AskEngine::Exact, 5, 0, "__panic__").unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Panic, "panic #{i}"),
            other => panic!("panic #{i}: unexpected {other:?}"),
        }
    }
    // Had any panic kept the permit, this ask could only queue until its
    // deadline.
    match c.ask(AskEngine::Exact, 10, 5_000, &sparql).unwrap() {
        Response::Answers { total, ids } => {
            assert_eq!(total, want.len());
            let want: Vec<u32> = want.iter().take(10).map(|e| e.0).collect();
            assert_eq!(ids, want);
        }
        other => panic!("unexpected {other:?}"),
    }
    match c.stats().unwrap() {
        Response::Stats { pairs } => {
            let depth = pairs
                .iter()
                .find(|(n, _)| n == "queue_depth")
                .map(|&(_, v)| v);
            assert_eq!(depth, Some(0), "{pairs:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
}

#[test]
fn queued_request_answers_itself_at_the_drain_deadline() {
    let g = small_graph(61);
    let server = Server::start(Engine::new(g, None).test_faults(true), one_permit()).unwrap();
    let addr = server.local_addr();

    // The sleeper takes the only permit and keeps it for 1.5 s.
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:1500").unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    let t0 = Instant::now();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.ask(AskEngine::Exact, 1, 5_000, "__sleep__:10").unwrap();
        (resp, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(150)); // the waiter is queued
    server.begin_shutdown();

    // 200 ms of drain, then the waiter's next tick flushes it — long
    // before the sleeper lets go of the permit.
    let (resp, answered_after) = waiter.join().unwrap();
    assert!(
        !sleeper.is_finished(),
        "the waiter must not wait for the permit holder"
    );
    match resp {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Shutdown),
        other => panic!("expected ERR shutdown, got {other:?}"),
    }
    assert!(
        answered_after < Duration::from_millis(1_000),
        "answered after {answered_after:?}"
    );

    // In-flight work still finishes, and join is bounded by it.
    let j0 = Instant::now();
    server.join();
    assert!(j0.elapsed() < Duration::from_secs(5), "{:?}", j0.elapsed());
    assert_eq!(sleeper.join().unwrap(), Response::Pong);
}

/// A released permit wakes the queued session it passes to, and a leader
/// wakes every session it answered in its combining pass: neither waits
/// for the `read_timeout` tick, set here far beyond the test's bound.
#[test]
fn handed_over_permits_and_combined_answers_wake_their_sessions() {
    let cfg = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let engine = Engine::new(small_graph(62), None).test_faults(true);
    let server = Server::start(engine, cfg).unwrap();
    let addr = server.local_addr();
    let t0 = Instant::now();
    let ask_at = |delay_ms: u64, probe: &'static str| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay_ms));
            let mut c = Client::connect(addr).unwrap();
            let resp = c.ask(AskEngine::Exact, 1, 5_000, probe).unwrap();
            (resp, t0.elapsed())
        })
    };
    // The first ask holds the permit until ~300 ms. The second queues
    // behind it and runs in the first one's combining pass until ~600 ms.
    // The third queues after that pass began, so the permit passes to it.
    let asks = [
        ask_at(0, "__sleep__:300"),
        ask_at(100, "__sleep__:300"),
        ask_at(400, "__sleep__:10"),
    ];
    for (i, ask) in asks.into_iter().enumerate() {
        let (resp, after) = ask.join().unwrap();
        assert_eq!(resp, Response::Pong, "ask #{i}");
        assert!(after < Duration::from_secs(3), "ask #{i} after {after:?}");
    }
    server.join();
}

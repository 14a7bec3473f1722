//! Load generator + correctness checker for the `halk serve` daemon.
//!
//! Usage:
//!
//! ```text
//! load_gen --addr HOST:PORT --graph graph.tsv [--model DIR]
//!          [--duration-ms 3000] [--clients 4] [--seed 1] [--top 10]
//!          [--deadline-ms 2000] [--faults] [--precision f32]
//! ```
//!
//! Replays mixed traffic over every paper structure expressible in the
//! SPARQL subset (all 24: projections, intersections, unions, differences
//! and the negation family), verifying each served answer **bit-for-bit**
//! against a locally computed reference — the exact engine's answer sets
//! and the embedding scorer's scores must round-trip the wire unchanged.
//! `--precision` must match the daemon's `--precision`: the reference
//! then scores against an entity-trig table stored at that precision, so
//! a quantized daemon is checked bit-for-bit too (its sharded top-k equals
//! the full-vector top-k at the same precision). With `--faults` it
//! additionally runs an adversarial side
//! channel: mid-request disconnects, slowloris writers, malformed and
//! oversized frames, connection bursts past the admission limit, and
//! query shapes that expand exponentially (a diamond pattern, an
//! intersection of `UNION`s), each of which must come back as
//! `ERR bad_query` or it counts as a mismatch.
//!
//! Prints one JSON summary line (latency quantiles from a `halk-obs`
//! histogram, shed/error counts, and `"mismatches"` which must be 0) and
//! exits nonzero on any mismatch — `scripts/ci.sh` gates on both.

use halk_core::{top_k_indices, HalkModel, Precision};
use halk_kg::tsv;
use halk_logic::plan::{execute_set, PlanBindings, PlanShape};
use halk_logic::{Query, Sampler, Structure};
use halk_obs::metrics;
use halk_serve::{AskEngine, Client, ErrorKind, Response};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Query → SPARQL rendering
// ---------------------------------------------------------------------------

/// Renders a computation tree into the SPARQL subset the Adaptor accepts.
///
/// The rendering follows the Adaptor's grammar backwards: projection
/// chains become triples through fresh intermediate variables, an
/// intersection's branches become conjunctive patterns on the same
/// variable, `Union` becomes `{…} UNION {…}`, a root `Difference` becomes
/// `MINUS` on the SELECT variable, and `Negation` (or a nested
/// `Difference`, which is the same set algebra) becomes
/// `FILTER NOT EXISTS`. Returns `None` for trees outside the subset
/// (e.g. a bare anchor).
fn query_to_sparql(q: &Query) -> Option<String> {
    let mut body = String::new();
    let mut next_var = 0usize;
    if let Query::Difference(parts) = q {
        // Only the SELECT variable supports MINUS; nested differences are
        // rendered as FILTER NOT EXISTS by `render` below.
        let (first, rest) = parts.split_first()?;
        render(first, "x", &mut body, &mut next_var)?;
        for part in rest {
            body.push_str("MINUS { ");
            render(part, "x", &mut body, &mut next_var)?;
            body.push_str("} ");
        }
    } else {
        render(q, "x", &mut body, &mut next_var)?;
    }
    Some(format!("SELECT ?x WHERE {{ {body}}}"))
}

/// Appends patterns binding `?var` to `out`. Fresh intermediate variables
/// come from `next_var`.
fn render(q: &Query, var: &str, out: &mut String, next_var: &mut usize) -> Option<()> {
    match q {
        Query::Anchor(_) => None, // a variable cannot be bound to a constant
        Query::Projection { rel, input } => {
            match input.as_ref() {
                Query::Anchor(e) => {
                    out.push_str(&format!("e:{} r:{} ?{var} . ", e.0, rel.0));
                }
                other => {
                    let v = format!("v{}", *next_var);
                    *next_var += 1;
                    render(other, &v, out, next_var)?;
                    out.push_str(&format!("?{v} r:{} ?{var} . ", rel.0));
                }
            }
            Some(())
        }
        Query::Intersection(children) => {
            for child in children {
                match child {
                    Query::Negation(inner) => {
                        out.push_str("FILTER NOT EXISTS { ");
                        render(inner, var, out, next_var)?;
                        out.push_str("} ");
                    }
                    other => render(other, var, out, next_var)?,
                }
            }
            Some(())
        }
        Query::Union(children) => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    out.push_str("UNION ");
                }
                out.push_str("{ ");
                render(child, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
        Query::Negation(inner) => {
            out.push_str("FILTER NOT EXISTS { ");
            render(inner, var, out, next_var)?;
            out.push_str("} ");
            Some(())
        }
        Query::Difference(parts) => {
            // Nested difference: a \ b ≡ a ∩ ¬b over the entity universe.
            let (first, rest) = parts.split_first()?;
            render(first, var, out, next_var)?;
            for part in rest {
                out.push_str("FILTER NOT EXISTS { ");
                render(part, var, out, next_var)?;
                out.push_str("} ");
            }
            Some(())
        }
    }
}

// ---------------------------------------------------------------------------
// Work items with precomputed references
// ---------------------------------------------------------------------------

struct WorkItem {
    structure: &'static str,
    sparql: String,
    /// Exact answer ids in set order (full, not truncated).
    exact_ids: Vec<u32>,
    /// HaLk reference: (entity, score-bits) for the top-k rows, plus the
    /// total row count; `None` when no model was given.
    halk_top: Option<(Vec<(u32, u32)>, usize)>,
}

fn build_workload(
    graph: &halk_kg::Graph,
    model: Option<&HalkModel>,
    precision: Precision,
    top: usize,
    per_structure: usize,
    seed: u64,
) -> Vec<WorkItem> {
    let sampler = Sampler::new(graph);
    let trig = model.map(|m| m.entity_trig_with(precision));
    let mut scores = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    for s in Structure::all() {
        let mut got = 0;
        for _ in 0..per_structure * 4 {
            if got == per_structure {
                break;
            }
            let Some(gq) = sampler.sample(s, &mut rng) else {
                continue;
            };
            let Some(sparql) = query_to_sparql(&gq.query) else {
                continue;
            };
            // The reference is computed from the rendered text, exactly as
            // the daemon will see it — any render/adapt disagreement with
            // the sampled tree shows up here, not as a served mismatch.
            let query = match halk_sparql::sparql_to_query(&sparql) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("load_gen: render bug for {}: {e}\n  {sparql}", s.name());
                    continue;
                }
            };
            let shape = PlanShape::compile(&query);
            let exact = execute_set(&shape, &PlanBindings::of(&query), graph);
            let exact_ids: Vec<u32> = exact.iter().map(|e| e.0).collect();
            let halk_top = model.zip(trig.as_ref()).map(|(m, trig)| {
                m.score_all_with(trig, &query, &mut scores);
                let ids = top_k_indices(&scores, top);
                let pairs = ids
                    .iter()
                    .map(|&i| (i, scores[i as usize].to_bits()))
                    .collect();
                (pairs, scores.len())
            });
            items.push(WorkItem {
                structure: s.name(),
                sparql,
                exact_ids,
                halk_top,
            });
            got += 1;
        }
        if got == 0 {
            eprintln!("load_gen: no renderable sample for structure {}", s.name());
        }
    }
    items
}

// ---------------------------------------------------------------------------
// Shared tallies
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    ok: AtomicU64,
    mismatches: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_deadline: AtomicU64,
    truncated: AtomicU64,
    server_errors: AtomicU64,
    io_errors: AtomicU64,
    fault_probes: AtomicU64,
}

fn check_response(item: &WorkItem, engine: AskEngine, top: usize, resp: &Response) -> bool {
    match (engine, resp) {
        (AskEngine::Exact, Response::Answers { total, ids }) => {
            *total == item.exact_ids.len()
                && ids.as_slice() == &item.exact_ids[..top.min(item.exact_ids.len())]
        }
        (
            AskEngine::Halk,
            Response::Scores {
                truncated: false,
                scored_rows,
                hits,
            },
        ) => {
            let Some((ref pairs, rows)) = item.halk_top else {
                return false;
            };
            *scored_rows == rows
                && hits.len() == pairs.len()
                && hits
                    .iter()
                    .zip(pairs)
                    .all(|(&(id, score), &(want_id, want_bits))| {
                        id == want_id && score.to_bits() == want_bits
                    })
        }
        _ => false,
    }
}

fn client_loop(
    addr: &str,
    items: &[WorkItem],
    top: usize,
    deadline_ms: u64,
    stop: &AtomicBool,
    tally: &Tally,
    seed: u64,
) {
    let latency = metrics::histogram("loadgen_latency_us");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client: Option<Client> = None;
    while !stop.load(Ordering::Relaxed) {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    tally.io_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            },
        };
        let item = &items[rng.gen_range(0..items.len())];
        let engine = if item.halk_top.is_some() && rng.gen_bool(0.5) {
            AskEngine::Halk
        } else {
            AskEngine::Exact
        };
        tally.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        match c.ask(engine, top, deadline_ms, &item.sparql) {
            Ok(resp) => {
                latency.record(t0.elapsed().as_micros() as u64);
                match &resp {
                    Response::Error { kind, .. } => match kind {
                        ErrorKind::Overloaded => {
                            tally.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        ErrorKind::Deadline => {
                            tally.shed_deadline.fetch_add(1, Ordering::Relaxed);
                        }
                        ErrorKind::Shutdown => {}
                        _ => {
                            tally.server_errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("load_gen: server error on {}: {resp:?}", item.structure);
                        }
                    },
                    Response::Scores {
                        truncated: true, ..
                    } => {
                        tally.truncated.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if check_response(item, engine, top, &resp) {
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                        } else {
                            tally.mismatches.fetch_add(1, Ordering::Relaxed);
                            eprintln!(
                                "load_gen: MISMATCH on {} ({engine:?}): {resp:?}\n  {}",
                                item.structure, item.sparql
                            );
                        }
                    }
                }
            }
            Err(_) => {
                tally.io_errors.fetch_add(1, Ordering::Relaxed);
                client = None; // reconnect on the next iteration
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Two small ASKs whose patterns expand exponentially: a 22-level diamond
/// (`?v_i` forks into `?a_i`, `?b_i` and rejoins at `?v_{i+1}`; ~2^22 tree
/// nodes) and an intersection of 24 two-way `UNION`s on `?x` (2^24 DNF
/// branches). The Adaptor's caps must turn both into `ERR bad_query`.
fn adversarial_shapes() -> [String; 2] {
    let mut diamond = String::from("SELECT ?x WHERE { e:0 r:0 ?v0 . ");
    for i in 0..22 {
        let j = i + 1;
        diamond.push_str(&format!(
            "?v{i} r:0 ?a{i} . ?v{i} r:1 ?b{i} . ?a{i} r:0 ?v{j} . ?b{i} r:1 ?v{j} . "
        ));
    }
    diamond.push_str("?v22 r:0 ?x . }");
    let mut unions = String::from("SELECT ?x WHERE { ");
    for i in 0..24 {
        unions.push_str(&format!("{{ e:{i} r:0 ?x . }} UNION {{ e:{i} r:1 ?x . }} "));
    }
    unions.push('}');
    [diamond, unions]
}

/// One adversarial pass: malformed frame, oversized header, mid-request
/// disconnect, slowloris dribble, a panicking request, the exponential
/// query shapes, and a connection burst. Every probe but the shapes is
/// fire-and-forget; the daemon must survive them all (the main clients
/// keep verifying answers concurrently), and a shape answered with
/// anything but `ERR bad_query` is a mismatch.
fn fault_loop(addr: &str, stop: &AtomicBool, tally: &Tally, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = adversarial_shapes();
    while !stop.load(Ordering::Relaxed) {
        match rng.gen_range(0..7u32) {
            // Garbage inside a well-formed frame.
            0 => {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let mut junk = vec![0u8; rng.gen_range(1..64)];
                    rng.fill_bytes(junk.as_mut_slice());
                    let mut frame = (junk.len() as u32).to_le_bytes().to_vec();
                    frame.extend(junk);
                    let _ = s.write_all(&frame);
                }
            }
            // Oversized length declaration — must be rejected unallocated.
            1 => {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(&u32::MAX.to_le_bytes());
                }
            }
            // Mid-request disconnect: half a frame, then vanish.
            2 => {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(&[64, 0, 0, 0, b'A', b'S', b'K']);
                }
            }
            // Slowloris: dribble one byte, stall past the budget.
            3 => {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(&[64, 0, 0, 0, b'A']);
                    for _ in 0..30 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            // A deliberately panicking request: the daemon (booted with
            // --test-faults true in CI) must isolate it to an ERR frame.
            4 => {
                if let Ok(mut c) = Client::connect(addr) {
                    let _ = c.ask(AskEngine::Exact, 1, 1_000, "__panic__");
                }
            }
            // Exponential query shapes: rejected by the Adaptor's caps
            // while the session prepares them, before admission.
            5 => {
                if let Ok(mut c) = Client::connect(addr) {
                    for sparql in &shapes {
                        match c.ask(AskEngine::Exact, 1, 1_000, sparql) {
                            Ok(Response::Error {
                                kind: ErrorKind::BadQuery,
                                ..
                            }) => {}
                            Ok(resp) => {
                                tally.mismatches.fetch_add(1, Ordering::Relaxed);
                                eprintln!("load_gen: MISMATCH on an exponential shape: {resp:?}");
                            }
                            Err(_) => {
                                tally.io_errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            }
            // Burst: a volley of simultaneous connections to push past
            // the session/admission limits.
            _ => {
                let conns: Vec<_> = (0..24)
                    .filter_map(|_| TcpStream::connect(addr).ok())
                    .collect();
                for mut s in conns {
                    let _ = s.write_all(&halk_serve::protocol::encode_frame(b"PING"));
                }
            }
        }
        tally.fault_probes.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(rng.gen_range(10..80)));
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let mut addr = None;
    let mut graph_path = None;
    let mut model_dir: Option<String> = None;
    let mut duration_ms = 3_000u64;
    let mut clients = 4usize;
    let mut seed = 1u64;
    let mut top = 10usize;
    let mut deadline_ms = 2_000u64;
    let mut faults = false;
    let mut precision = Precision::F32;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--addr" => addr = Some(val("--addr")),
            "--graph" => graph_path = Some(val("--graph")),
            "--model" => model_dir = Some(val("--model")),
            "--duration-ms" => duration_ms = val("--duration-ms").parse().expect("number"),
            "--clients" => clients = val("--clients").parse().expect("number"),
            "--seed" => seed = val("--seed").parse().expect("number"),
            "--top" => top = val("--top").parse().expect("number"),
            "--deadline-ms" => deadline_ms = val("--deadline-ms").parse().expect("number"),
            "--faults" => faults = true,
            "--precision" => {
                let v = val("--precision");
                precision = match v.parse() {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("load_gen: --precision: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: load_gen --addr HOST:PORT --graph graph.tsv [--model DIR] \
                     [--duration-ms N] [--clients N] [--seed N] [--top N] \
                     [--deadline-ms N] [--faults] [--precision f32|i16]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("load_gen: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("load_gen: --addr is required");
        return ExitCode::from(2);
    };
    let Some(graph_path) = graph_path else {
        eprintln!("load_gen: --graph is required");
        return ExitCode::from(2);
    };

    let graph = match tsv::load(Path::new(&graph_path)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("load_gen: cannot load graph {graph_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match &model_dir {
        Some(dir) => match HalkModel::load(&graph, Path::new(dir)) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("load_gen: cannot load model {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let items = build_workload(&graph, model.as_ref(), precision, top, 4, seed);
    if items.is_empty() {
        eprintln!("load_gen: workload is empty (graph too small?)");
        return ExitCode::FAILURE;
    }
    let structures: std::collections::BTreeSet<_> = items.iter().map(|i| i.structure).collect();
    eprintln!(
        "load_gen: {} queries over {} structures against {addr}",
        items.len(),
        structures.len()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(Tally::default());
    let items = Arc::new(items);
    let addr = Arc::new(addr);

    let mut handles = Vec::new();
    for i in 0..clients.max(1) {
        let (addr, items, stop, tally) = (addr.clone(), items.clone(), stop.clone(), tally.clone());
        handles.push(std::thread::spawn(move || {
            client_loop(
                &addr,
                &items,
                top,
                deadline_ms,
                &stop,
                &tally,
                seed ^ (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
            );
        }));
    }
    if faults {
        for i in 0..2 {
            let (addr, stop, tally) = (addr.clone(), stop.clone(), tally.clone());
            handles.push(std::thread::spawn(move || {
                fault_loop(&addr, &stop, &tally, seed ^ (0xfa017 + i));
            }));
        }
    }

    std::thread::sleep(Duration::from_millis(duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }

    // Daemon-side counters from the STATS frame, so batching and the
    // server's own rolling latency/queue view show up as measured numbers
    // in the summary; 0s when the daemon is unreachable or predates the
    // STATS verb. `serve_p50_us`/`serve_p99_us` are the daemon's rolling
    // (~60 s window) quantiles — compare them against the client-observed
    // `p50_us`/`p99_us` to see how much the wire and the queue add.
    let (mut batched_groups, mut batch_p50, mut batch_p99, mut batch_cap) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut serve_p50, mut serve_p99, mut queue_depth) = (0u64, 0u64, 0u64);
    if let Ok(mut c) = Client::connect(&*addr) {
        if let Ok(Response::Stats { pairs }) = c.stats() {
            for (k, v) in pairs {
                match k.as_str() {
                    "batched_groups" => batched_groups = v,
                    "batch_size_p50" => batch_p50 = v,
                    "batch_size_p99" => batch_p99 = v,
                    "batch_cap" => batch_cap = v,
                    "latency_p50_us" => serve_p50 = v,
                    "latency_p99_us" => serve_p99 = v,
                    "queue_depth" => queue_depth = v,
                    _ => {}
                }
            }
        }
    }

    let latency = metrics::histogram("loadgen_latency_us");
    let summary = format!(
        "{{\"requests\":{},\"ok\":{},\"mismatches\":{},\"shed_overloaded\":{},\
         \"shed_deadline\":{},\"truncated\":{},\"server_errors\":{},\"io_errors\":{},\
         \"fault_probes\":{},\"structures\":{},\"p50_us\":{},\"p99_us\":{},\
         \"batched_groups\":{batched_groups},\"batch_size_p50\":{batch_p50},\
         \"batch_size_p99\":{batch_p99},\"batch_cap\":{batch_cap},\
         \"serve_p50_us\":{serve_p50},\"serve_p99_us\":{serve_p99},\
         \"queue_depth\":{queue_depth}}}",
        tally.requests.load(Ordering::Relaxed),
        tally.ok.load(Ordering::Relaxed),
        tally.mismatches.load(Ordering::Relaxed),
        tally.shed_overloaded.load(Ordering::Relaxed),
        tally.shed_deadline.load(Ordering::Relaxed),
        tally.truncated.load(Ordering::Relaxed),
        tally.server_errors.load(Ordering::Relaxed),
        tally.io_errors.load(Ordering::Relaxed),
        tally.fault_probes.load(Ordering::Relaxed),
        structures.len(),
        latency.quantile(0.5),
        latency.quantile(0.99),
    );
    println!("{summary}");

    let failed =
        tally.mismatches.load(Ordering::Relaxed) > 0 || tally.ok.load(Ordering::Relaxed) == 0;
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_kg::{generate, SynthConfig};

    /// Every sampleable structure renders to SPARQL that adapts back to a
    /// query with identical exact answers.
    #[test]
    fn rendered_sparql_preserves_exact_answers() {
        let g = generate(&SynthConfig::fb237_like(), &mut StdRng::seed_from_u64(9));
        let sampler = Sampler::new(&g);
        let mut rng = StdRng::seed_from_u64(10);
        let mut rendered = 0;
        for s in Structure::all() {
            for _ in 0..6 {
                let Some(gq) = sampler.sample(s, &mut rng) else {
                    continue;
                };
                let Some(sparql) = query_to_sparql(&gq.query) else {
                    panic!("structure {} did not render", s.name());
                };
                let round = halk_sparql::sparql_to_query(&sparql)
                    .unwrap_or_else(|e| panic!("{}: {e}\n  {sparql}", s.name()));
                let want = execute_set(
                    &PlanShape::compile(&gq.query),
                    &PlanBindings::of(&gq.query),
                    &g,
                );
                let got = execute_set(&PlanShape::compile(&round), &PlanBindings::of(&round), &g);
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    want.iter().collect::<Vec<_>>(),
                    "{}: answers diverge\n  {sparql}",
                    s.name()
                );
                rendered += 1;
            }
        }
        assert!(rendered > 50, "only {rendered} renderings exercised");
    }
}

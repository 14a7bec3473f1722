//! Workload inputs, generated from `--seed` alone: the graph, the model
//! and boot files the daemon reads, and the request pool with its
//! per-thread send sequences.

use crate::load::{Expect, Item};
use crate::render::query_to_sparql;
use crate::spec::{Boot, Pool, ServeSpec, DEADLINE_MS, LANES, TOP};
use halk_core::{HalkConfig, HalkModel};
use halk_kg::{generate, Graph, SynthConfig};
use halk_logic::plan::{execute_set, PlanBindings, PlanShape};
use halk_logic::{Sampler, Structure};
use halk_serve::protocol::encode_frame;
use halk_serve::{AskEngine, Request};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

/// Length of each thread's send sequence over a hot pool (it wraps).
const HOT_SEQUENCE: usize = 1 << 16;

/// Derives an independent RNG stream for one purpose from the run seed.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}

/// The fb237-like synthetic graph at a given scale.
pub fn synth_graph(n_entities: usize, n_triples: usize, seed: u64) -> Graph {
    let cfg = SynthConfig {
        n_entities,
        n_triples,
        ..SynthConfig::fb237_like()
    };
    generate(&cfg, &mut rng_for(seed, 1))
}

/// The served model's hyper-parameters (`d = 32`); scoring cost does not
/// depend on training, so the daemon serves a freshly initialized model.
pub fn model_config(seed: u64) -> HalkConfig {
    HalkConfig {
        seed,
        ..HalkConfig::default()
    }
}

/// The boot files of one serve run and the `halk serve` flags naming them.
pub struct BootFiles {
    pub args: Vec<String>,
    pub graph_tsv: PathBuf,
    pub model_dir: PathBuf,
    pub snapshot: PathBuf,
}

/// Everything one serve run sends and checks.
pub struct Requests {
    pub items: Vec<Item>,
    /// Item `i`'s SPARQL text.
    pub sparql: Vec<String>,
    /// Each client thread's send order (indices into `items`).
    pub seqs: Vec<Vec<u32>>,
    /// FNV-1a over every item frame and both sequences: equal hashes mean
    /// two runs send identical bytes in identical order.
    pub hash: u64,
}

/// Generates the workload's graph (and model), writes the daemon's boot
/// files into `dir`, and builds the request pool.
pub fn build_serve(spec: &ServeSpec, seed: u64, dir: &Path) -> io::Result<(BootFiles, Requests)> {
    let g = synth_graph(spec.n_entities, spec.n_triples, seed);
    let graph_tsv = dir.join("graph.tsv");
    let model_dir = dir.join("model");
    let snapshot = dir.join("graph.snap");
    let args: Vec<String> = match spec.boot {
        Boot::Tsv { model } => {
            halk_kg::tsv::save(&g, &graph_tsv)?;
            let mut args = vec!["--graph".to_string(), path_arg(&graph_tsv)];
            if model {
                HalkModel::new(&g, model_config(seed)).save(&model_dir)?;
                args.extend(["--model".to_string(), path_arg(&model_dir)]);
            }
            args
        }
        Boot::Snapshot => {
            halk_snap::write_file(&snapshot, &g, &HalkModel::new(&g, model_config(seed)))?;
            vec!["--snapshot".to_string(), path_arg(&snapshot)]
        }
    };
    let files = BootFiles {
        args,
        graph_tsv,
        model_dir,
        snapshot,
    };
    Ok((files, request_pool(&g, spec.engine, spec.pool, seed)))
}

/// The request pool of one engine over `g`, and each thread's sequence.
pub fn request_pool(g: &Graph, engine: AskEngine, pool: Pool, seed: u64) -> Requests {
    let (distinct, count) = match pool {
        Pool::Distinct(n) => (true, n),
        Pool::Hot(per_structure) => (false, per_structure * Structure::all().len()),
    };
    // Structures come round-robin; shuffling only within each cycle of 24
    // keeps every 24 consecutive sends evenly spread over the structures,
    // so each measurement window sees the same mix.
    let mut queries = sample_pool(g, count, distinct, seed, engine);
    let mut rng = rng_for(seed, 3);
    for cycle in queries.chunks_mut(Structure::all().len()) {
        cycle.shuffle(&mut rng);
    }

    let mut items = Vec::with_capacity(queries.len());
    let mut sparql = Vec::with_capacity(queries.len());
    for (text, expect) in queries {
        let req = Request::Ask {
            engine,
            top: TOP,
            deadline_ms: DEADLINE_MS,
            sparql: text.clone(),
        };
        items.push(Item {
            frame: encode_frame(req.encode().as_bytes()),
            expect,
        });
        sparql.push(text);
    }

    let n = items.len() as u32;
    let seqs: Vec<Vec<u32>> = match pool {
        // Disjoint halves: thread t sends items t, t + LANES, ...
        Pool::Distinct(_) => (0..LANES as u32)
            .map(|t| (t..n).step_by(LANES).collect())
            .collect(),
        // Cycles of fresh permutations: every item once per cycle.
        Pool::Hot(_) => (0..LANES as u64)
            .map(|t| {
                let mut rng = rng_for(seed, 100 + t);
                let mut seq = Vec::with_capacity(HOT_SEQUENCE);
                while seq.len() < HOT_SEQUENCE {
                    let mut cycle: Vec<u32> = (0..n).collect();
                    cycle.shuffle(&mut rng);
                    seq.extend(cycle);
                }
                seq
            })
            .collect(),
    };
    let hash = fnv(items.iter().map(|it| it.frame.as_slice()), &seqs);
    Requests {
        items,
        sparql,
        seqs,
        hash,
    }
}

/// The first `n` requests in the order the open loop sends them: the
/// threads' sequences interleaved.
pub fn send_order(seqs: &[Vec<u32>], n: usize) -> Vec<u32> {
    (0..)
        .flat_map(|k| seqs.iter().map(move |s| s[k % s.len()]))
        .take(n)
        .collect()
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Samples `count` queries, structure `i % 24` for the `i`-th, rendered
/// to SPARQL and adapted back, in generation order. An exact expectation
/// holds the answers of the *adapted* query — what the daemon will
/// compute. Sampling fans out over two threads (even and odd `i`) with
/// independent streams; with `distinct`, repeated query texts are dropped.
fn sample_pool(
    g: &Graph,
    count: usize,
    distinct: bool,
    seed: u64,
    engine: AskEngine,
) -> Vec<(String, Expect)> {
    let structures = Structure::all();
    let halves: Vec<Vec<Option<(String, Expect)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|half| {
                let structures = &structures;
                s.spawn(move || {
                    let sampler = Sampler::new(g);
                    let mut rng = rng_for(seed, 10 + half);
                    (half as usize..count)
                        .step_by(2)
                        .map(|i| {
                            let s = structures[i % structures.len()];
                            (0..16).find_map(|_| render_one(g, &sampler, s, engine, &mut rng))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sampling thread panicked"))
            .collect()
    });
    // Re-interleave the halves back into generation order.
    let mut halves: Vec<_> = halves.into_iter().map(Vec::into_iter).collect();
    let mut seen = HashSet::new();
    (0..count)
        .filter_map(|i| halves[i % 2].next().flatten())
        .filter(|(text, _)| !distinct || seen.insert(text.clone()))
        .collect()
}

fn render_one(
    g: &Graph,
    sampler: &Sampler,
    s: Structure,
    engine: AskEngine,
    rng: &mut StdRng,
) -> Option<(String, Expect)> {
    let gq = sampler.sample(s, rng)?;
    let text = query_to_sparql(&gq.query)?;
    let q = halk_sparql::sparql_to_query(&text).ok()?;
    let expect = match engine {
        AskEngine::Exact => {
            let ans = execute_set(&PlanShape::compile(&q), &PlanBindings::of(&q), g);
            Expect::Exact {
                total: ans.len(),
                ids: ans.iter().take(TOP).map(|e| e.0).collect(),
            }
        }
        AskEngine::Halk => Expect::Halk {
            rows: g.n_entities(),
        },
    };
    Some((text, expect))
}

/// FNV-1a 64 over length-prefixed frames, then the sequences.
fn fnv<'a>(frames: impl Iterator<Item = &'a [u8]>, seqs: &[Vec<u32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in frames {
        eat(&(f.len() as u64).to_le_bytes());
        eat(f);
    }
    for s in seqs {
        eat(&(s.len() as u64).to_le_bytes());
        for i in s {
            eat(&i.to_le_bytes());
        }
    }
    h
}

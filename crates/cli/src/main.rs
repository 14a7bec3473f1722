//! `halk` — command-line interface to the HaLk reproduction.
//!
//! ```text
//! halk gen   --dataset fb15k|fb237|nell --out graph.tsv [--seed N]
//! halk stats --graph graph.tsv
//! halk train --graph graph.tsv --out model_dir [--steps N] [--dim N] [--seed N]
//!            [--checkpoint-every N] [--checkpoint-dir DIR]
//!            [--keep-checkpoints K] [--resume FILE]
//! halk ask   --graph graph.tsv --sparql 'SELECT ?x WHERE { e:0 r:0 ?x . }'
//!            [--model model_dir] [--engine exact|halk|match] [--top N]
//! halk serve --graph graph.tsv | --snapshot file.snap [--precision f32|i16] ...
//! halk snapshot build   --graph graph.tsv --model model_dir --out file.snap
//! halk snapshot inspect --snap file.snap
//! halk help
//! ```
//!
//! Every failure path surfaces as a typed [`CliError`] printed to stderr
//! with a nonzero exit code (2 for usage errors, 1 for everything else) —
//! the binary never panics on bad input.

mod args;

use args::{ArgError, Args};
use halk_core::{train_model, HalkConfig, HalkModel, Precision, TrainConfig, TrainError};
use halk_kg::{generate, stats::GraphStats, tsv, Graph, SynthConfig};
use halk_logic::Structure;
use halk_matching::Matcher;
use halk_obs::Deadline;
use halk_serve::{AskEngine, Engine, Response};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every way a `halk` invocation can fail.
#[derive(Debug)]
enum CliError {
    /// Command-line syntax or flag errors.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A graph file could not be read or parsed.
    Graph { path: String, error: io::Error },
    /// Training failed (checkpoint/resume problems, nothing trainable, …).
    Train(TrainError),
    /// A model directory could not be written or read.
    Model { dir: String, error: io::Error },
    /// The engine rejected the query: bad SPARQL, or an entity or
    /// relation id outside the graph.
    Query(String),
    /// Any other IO failure, with the path involved.
    Io { path: String, error: io::Error },
    /// A flag parsed but its value is out of range for this invocation
    /// (e.g. `serve --shards 0`, or more shards than entities).
    Flag { flag: &'static str, detail: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown subcommand '{c}' (try `halk help`)")
            }
            CliError::Graph { path, error } => write!(f, "cannot read graph {path}: {error}"),
            CliError::Train(e) => write!(f, "training failed: {e}"),
            CliError::Model { dir, error } => write!(f, "model directory {dir}: {error}"),
            CliError::Query(detail) => write!(f, "bad SPARQL query: {detail}"),
            CliError::Io { path, error } => write!(f, "{path}: {error}"),
            CliError::Flag { flag, detail } => write!(f, "invalid --{flag}: {detail}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        CliError::Train(e)
    }
}

/// An engine reply that is not an answer: `prepare` and `execute` report
/// every failure as a typed [`Response::Error`].
impl From<Response> for CliError {
    fn from(r: Response) -> Self {
        match r {
            Response::Error { detail, .. } => CliError::Query(detail),
            other => CliError::Query(format!("unexpected engine reply {other:?}")),
        }
    }
}

impl CliError {
    /// Usage mistakes exit with 2, operational failures with 1.
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Args(_) | CliError::UnknownCommand(_) | CliError::Flag { .. } => {
                ExitCode::from(2)
            }
            _ => ExitCode::FAILURE,
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

fn run(mut argv: Vec<String>) -> Result<(), CliError> {
    // `snapshot` takes an action word (`build` / `inspect`); lift it out so
    // the uniform `--flag value` grammar handles the rest.
    let action = if argv.first().map(String::as_str) == Some("snapshot")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        Some(argv.remove(1))
    } else {
        None
    };
    let args = Args::parse(argv)?;
    init_obs(&args);
    let result = match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "train" => cmd_train(&args),
        "ask" => cmd_ask(&args),
        "serve" => cmd_serve(&args),
        "top" => cmd_top(&args),
        "snapshot" => cmd_snapshot(&args, action.as_deref()),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    };
    finish_obs(&args);
    result
}

/// Installs the pool-stats observability hooks and honors `HALK_TRACE` plus
/// the `--trace` flag (accepted by every subcommand).
fn init_obs(args: &Args) {
    halk_core::obs::install();
    halk_obs::trace::init_from_env();
    if let Some(path) = args.optional("trace") {
        if let Err(e) = halk_obs::trace::init_trace(path) {
            halk_obs::log!(Error, "cannot open trace file {path}: {e}");
        }
    }
}

/// Writes the `--metrics-out` snapshot (if requested) and flushes the
/// trace. Runs on success and failure alike so partial runs still leave
/// their observability artifacts behind.
fn finish_obs(args: &Args) {
    if let Some(path) = args.optional("metrics-out") {
        match halk_obs::metrics::write_snapshot(path) {
            Ok(()) => eprintln!("metrics snapshot written to {path}"),
            Err(e) => halk_obs::log!(Error, "cannot write metrics snapshot {path}: {e}"),
        }
    }
    halk_obs::trace::flush();
}

const HELP: &str = "\
halk — answering logical queries on knowledge graphs (HaLk, ICDE 2023)

USAGE:
  halk gen   --dataset fb15k|fb237|nell --out graph.tsv [--seed N]
  halk stats --graph graph.tsv
  halk train --graph graph.tsv --out model_dir [--steps N] [--dim N] [--seed N]
             [--checkpoint-every N]   write a checkpoint every N steps
             [--checkpoint-dir DIR]   where to put them (default: OUT/checkpoints)
             [--keep-checkpoints K]   rotate, keeping the last K (default 3)
             [--resume FILE]          resume a run from a checkpoint file
             [--threads N]            worker threads (0 = auto, also via
                                      HALK_THREADS; results are identical
                                      at any setting)
  halk ask   --graph graph.tsv --sparql QUERY
             [--model model_dir] [--engine exact|halk|match] [--top N]
  halk serve --graph graph.tsv [--model model_dir] [--addr 127.0.0.1:7464]
             [--workers N]            execution permits: at most N
                                      requests execute at once, each on
                                      its own session thread (default 2)
             [--queue-cap N] [--max-sessions N]
             [--default-deadline-ms N] [--drain-ms N]
             [--shards N]              arc shards for sharded scoring
                                      (omit for auto: the thread budget;
                                      must be 1..=entity count)
             [--batch-cap N]          most same-skeleton requests one
                                      permit holder batches into a single
                                      kernel pass (default 16; must be >= 1)
             [--snapshot FILE]        boot from a binary snapshot instead
                                      of --graph/--model (fast cold start)
             [--precision f32|i16]    trig table storage precision
                                      (f32 = bit-exact default; i16
                                      halves resident bytes and
                                      preserves ranks — DESIGN.md §14)
             [--obs-addr HOST:PORT]   serve GET /metrics, /metrics.json
                                      and /healthz on a dedicated thread
                                      (DESIGN.md §16; port 0 = OS-picked,
                                      printed as `metrics on ...`)
             [--slow-ms N]            log queries slower than N ms with a
                                      per-phase breakdown (also via
                                      HALK_SLOW_MS; 0 = log every query)
             answer queries as a daemon until SIGINT/SIGTERM or a
             SHUTDOWN frame; degrades gracefully under overload
             (see DESIGN.md §12 for the wire protocol)
  halk top   --addr HOST:PORT         the daemon's --obs-addr endpoint
             [--serve-addr HOST:PORT] also poll the daemon's STATS verb
             [--interval-ms N]        refresh cadence (default 1000)
             [--once true]            print one snapshot and exit
             live one-screen view of a running daemon: qps, rolling
             p50/p99, queue depth, shed/panic rates, batch sizes,
             cache hits, per-region pool load
  halk snapshot build   --graph graph.tsv --model model_dir --out FILE
  halk snapshot inspect --snap FILE
             versioned CRC-framed binary snapshots of graph + model;
             `serve --snapshot` boots from them without touching TSVs
  halk help

  `train` and `serve` handle SIGINT/SIGTERM gracefully: train finishes
  the in-flight step and writes a final checkpoint; serve stops
  accepting, drains in-flight requests to a deadline, and flushes
  observability artifacts.

OBSERVABILITY (any subcommand):
  --trace FILE         write a JSONL span trace (same as HALK_TRACE=FILE)
  --metrics-out FILE   write a metrics snapshot on exit (.prom for
                       Prometheus text, anything else for JSON)
  HALK_LOG=error|warn|info|debug   stderr log level (default: error)
  `train` additionally writes results/cli_train/manifest.json
";

fn load_graph(args: &Args) -> Result<Graph, CliError> {
    let path = args.required("graph")?;
    tsv::load(Path::new(path)).map_err(|error| CliError::Graph {
        path: path.to_string(),
        error,
    })
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let dataset = args.required("dataset")?;
    let out = args.required("out")?;
    let seed: u64 = args.parsed_or("seed", 40)?;
    let cfg = match dataset {
        "fb15k" => SynthConfig::fb15k_like(),
        "fb237" => SynthConfig::fb237_like(),
        "nell" => SynthConfig::nell_like(),
        other => return Err(ArgError::BadValue("dataset", other.into()).into()),
    };
    use rand::SeedableRng;
    let g = generate(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
    tsv::save(&g, Path::new(out)).map_err(|error| CliError::Io {
        path: out.to_string(),
        error,
    })?;
    println!(
        "wrote {out}: {} entities, {} relations, {} triples",
        g.n_entities(),
        g.n_relations(),
        g.n_triples()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let s = GraphStats::compute(&g);
    println!("entities          {}", s.n_entities);
    println!("relations         {}", s.n_relations);
    println!("triples           {}", s.n_triples);
    println!("avg degree        {:.2}", s.avg_degree);
    println!("median degree     {}", s.median_degree);
    println!("max degree        {}", s.max_degree);
    println!("inverse leakage   {:.0}%", 100.0 * s.inverse_leakage);
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let out = args.required("out")?;
    let steps: usize = args.parsed_or("steps", 3000)?;
    let dim: usize = args.parsed_or("dim", 32)?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let checkpoint_every: usize = args.parsed_or("checkpoint-every", 0)?;
    let keep_checkpoints: usize = args.parsed_or("keep-checkpoints", 3)?;
    let checkpoint_dir = match args.optional("checkpoint-dir") {
        Some(dir) => Some(PathBuf::from(dir)),
        None if checkpoint_every > 0 => Some(Path::new(out).join("checkpoints")),
        None => None,
    };
    let resume_from = args.optional("resume").map(PathBuf::from);
    let threads: usize = args.parsed_or("threads", 0)?;
    if threads > 0 {
        // Also steer any Pool::auto() users (evaluation, scoring) beyond
        // this TrainConfig.
        halk_par::set_threads(threads);
    }

    let cfg = HalkConfig {
        dim,
        hidden: 2 * dim,
        steps,
        seed,
        ..HalkConfig::default()
    };
    let mut model = HalkModel::new(&g, cfg);

    // SIGINT/SIGTERM ask training to finish the in-flight step, write a
    // final checkpoint, and exit cleanly. The watcher thread bridges the
    // process-global signal flag into the `TrainConfig::stop` switch.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher_done = Arc::new(AtomicBool::new(false));
    let signal_flag = halk_serve::signal::install_shutdown_flag();
    let watcher = {
        let stop = stop.clone();
        let done = watcher_done.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if signal_flag.load(Ordering::Relaxed) {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };
    let tc = TrainConfig {
        steps,
        log_every: (steps / 10).max(1),
        seed,
        checkpoint_every,
        checkpoint_dir,
        keep_checkpoints,
        resume_from,
        threads,
        stop: Some(stop.clone()),
        ..TrainConfig::default()
    };
    let mut manifest = halk_obs::Manifest::new("cli_train");
    manifest.config_int("steps", steps as u64);
    manifest.config_int("dim", dim as u64);
    manifest.config_str("graph", args.required("graph")?);
    manifest.set_int("seed", seed);
    manifest.set_int("threads", halk_par::auto_threads() as u64);

    let train_start = std::time::Instant::now();
    let result = train_model(&mut model, &g, &Structure::training(), &tc);
    watcher_done.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let stats = result?;
    manifest.phase("train", train_start.elapsed());

    let save_start = std::time::Instant::now();
    model
        .save(Path::new(out))
        .map_err(|error| CliError::Model {
            dir: out.to_string(),
            error,
        })?;
    manifest.phase("save", save_start.elapsed());
    manifest.metric("tail_loss", f64::from(stats.tail_loss()));
    manifest.metric("rollbacks", stats.rollbacks as f64);
    match manifest.write() {
        Ok(p) => eprintln!("manifest written to {}", p.display()),
        Err(e) => halk_obs::log!(Error, "cannot write train manifest: {e}"),
    }
    if stats.start_step > 0 {
        println!("resumed at step {}", stats.start_step);
    }
    if stats.interrupted {
        let at = stats.start_step + stats.losses.len();
        if checkpoint_every > 0 {
            println!("interrupted by signal after step {at}; final checkpoint written — resume with --resume");
        } else {
            println!("interrupted by signal after step {at}");
        }
    }
    if stats.rollbacks > 0 {
        println!("recovered from {} diverged step(s)", stats.rollbacks);
    }
    println!(
        "trained {} steps in {:.1?} (tail loss {:.3}); model saved to {out}",
        stats.losses.len(),
        stats.wall,
        stats.tail_loss()
    );
    Ok(())
}

fn cmd_ask(args: &Args) -> Result<(), CliError> {
    let g = load_graph(args)?;
    let sparql = args.required("sparql")?;
    let engine_name = args.optional("engine").unwrap_or("exact");
    let top: usize = args.parsed_or("top", 10)?;
    let (ask, model) = match engine_name {
        "exact" | "match" => (AskEngine::Exact, None),
        "halk" => {
            let dir = args.required("model")?;
            let model = HalkModel::load(&g, Path::new(dir)).map_err(|error| CliError::Model {
                dir: dir.to_string(),
                error,
            })?;
            (AskEngine::Halk, Some(model))
        }
        other => return Err(ArgError::BadValue("engine", other.into()).into()),
    };

    // The daemon's engine: `ask` and `serve` share one validation rule
    // (ids inside the graph) and one answer path.
    let engine = Engine::new(g, model);
    let prepared = engine.prepare(ask, sparql)?;
    let (query, shape) = prepared
        .plan()
        .expect("fault probes are off outside the drill");
    println!("computation tree: {}", query.render());
    if engine_name == "match" {
        let hits = Matcher::new(engine.graph()).answer(query);
        println!("matcher results (top {top}):");
        for m in hits.iter().take(top) {
            println!("  {}  (score {:.1})", m.entity, m.score);
        }
        return Ok(());
    }
    if ask == AskEngine::Exact {
        println!(
            "compiled plan: {} slot(s), {} branch(es)",
            shape.n_slots(),
            shape.n_branches()
        );
    }
    match engine.execute_prepared(&prepared, top, &Deadline::never()) {
        Response::Answers { total, ids } => println!("exact answers ({total} total): {ids:?}"),
        Response::Scores { hits, .. } => {
            println!("HaLk top-{top}:");
            for (e, distance) in hits {
                println!("  e{e}  (distance {distance:.3})");
            }
        }
        other => return Err(other.into()),
    }
    Ok(())
}

/// `halk snapshot build|inspect` — produce and examine versioned binary
/// snapshots (graph + grouping + config + parameters in one CRC-framed
/// file; see DESIGN.md §14).
fn cmd_snapshot(args: &Args, action: Option<&str>) -> Result<(), CliError> {
    match action {
        Some("build") => {
            let g = load_graph(args)?;
            let dir = args.required("model")?;
            let model = HalkModel::load(&g, Path::new(dir)).map_err(|error| CliError::Model {
                dir: dir.to_string(),
                error,
            })?;
            let out = args.required("out")?;
            let started = std::time::Instant::now();
            halk_snap::write_file(Path::new(out), &g, &model).map_err(|error| CliError::Io {
                path: out.to_string(),
                error,
            })?;
            let meta = halk_snap::inspect_file(Path::new(out)).map_err(|error| CliError::Io {
                path: out.to_string(),
                error,
            })?;
            println!(
                "wrote {out}: snapshot v{} — {} entities, {} relations, {} triples, \
                 {} params ({} bytes) in {:.1?}",
                meta.version,
                meta.n_entities,
                meta.n_relations,
                meta.n_triples,
                meta.n_params,
                meta.total_bytes,
                started.elapsed()
            );
            Ok(())
        }
        Some("inspect") => {
            let path = args.required("snap")?;
            let meta = halk_snap::inspect_file(Path::new(path)).map_err(|error| CliError::Io {
                path: path.to_string(),
                error,
            })?;
            println!("snapshot version  {}", meta.version);
            println!("entities          {}", meta.n_entities);
            println!("relations         {}", meta.n_relations);
            println!("triples           {}", meta.n_triples);
            println!("groups            {}", meta.n_groups);
            println!("dim               {}", meta.dim);
            println!("param tensors     {}", meta.n_params);
            println!("param scalars     {}", meta.n_scalars);
            println!("total bytes       {}", meta.total_bytes);
            for (name, bytes) in &meta.sections {
                println!("  section {name}   {bytes} bytes");
            }
            Ok(())
        }
        Some(other) => Err(ArgError::BadValue("action", other.into()).into()),
        None => Err(ArgError::MissingFlag("action (build|inspect)").into()),
    }
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let boot_start = std::time::Instant::now();
    // Boot either from a binary snapshot (graph + model + grouping + the
    // precomputed trig table in one validated read) or from the TSV +
    // model-directory cold path. The snapshot keeps its trig so the engine
    // can re-slice it instead of recomputing sin/cos per entity row.
    let (g, model, boot_trig) = match args.optional("snapshot") {
        Some(path) => {
            let (g, m, trig) =
                halk_snap::read_file(Path::new(path)).map_err(|error| CliError::Io {
                    path: path.to_string(),
                    error,
                })?;
            (g, Some(m), Some(trig))
        }
        None => {
            let g = load_graph(args)?;
            let model =
                match args.optional("model") {
                    Some(dir) => Some(HalkModel::load(&g, Path::new(dir)).map_err(|error| {
                        CliError::Model {
                            dir: dir.to_string(),
                            error,
                        }
                    })?),
                    None => None,
                };
            (g, model, None)
        }
    };
    let addr = args.optional("addr").unwrap_or("127.0.0.1:7464");
    let defaults = halk_serve::ServeConfig::default();
    let cfg = halk_serve::ServeConfig {
        addr: addr.to_string(),
        obs_addr: args.optional("obs-addr").map(str::to_string),
        workers: args.parsed_or("workers", defaults.workers)?,
        queue_cap: args.parsed_or("queue-cap", defaults.queue_cap)?,
        max_sessions: args.parsed_or("max-sessions", defaults.max_sessions)?,
        default_deadline: Duration::from_millis(args.parsed_or(
            "default-deadline-ms",
            defaults.default_deadline.as_millis() as u64,
        )?),
        drain: Duration::from_millis(
            args.parsed_or("drain-ms", defaults.drain.as_millis() as u64)?,
        ),
        ..defaults
    };
    let has_model = model.is_some();
    let faults = args
        .optional("test-faults")
        .is_some_and(|v| v == "true" || v == "1");
    // Omitting --shards means auto (the thread budget); an explicit value
    // must be a sane shard count for *this* graph — zero shards or more
    // shards than entities is a configuration mistake, rejected up front
    // with a typed error instead of panicking deep in the table build.
    let shards_opt = match args.optional("shards") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| ArgError::BadValue("shards", v.to_string()))?;
            if n == 0 {
                return Err(CliError::Flag {
                    flag: "shards",
                    detail: "must be at least 1 (omit the flag for auto)".to_string(),
                });
            }
            if n > g.n_entities() {
                return Err(CliError::Flag {
                    flag: "shards",
                    detail: format!("{n} shards exceed the graph's {} entities", g.n_entities()),
                });
            }
            Some(n)
        }
    };
    // Omitting --batch-cap keeps the engine default; an explicit 0 would
    // silently disable batching-with-a-bound, so reject it.
    let batch_cap = match args.optional("batch-cap") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| ArgError::BadValue("batch-cap", v.to_string()))?;
            if n == 0 {
                return Err(CliError::Flag {
                    flag: "batch-cap",
                    detail: "must be at least 1".to_string(),
                });
            }
            Some(n)
        }
    };
    // `--slow-ms` overrides the HALK_SLOW_MS environment default; 0 is
    // legitimate (flag every request — CI uses it to exercise the path).
    let slow_ms = match args.optional("slow-ms") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| ArgError::BadValue("slow-ms", v.to_string()))?,
        ),
    };
    let precision: Precision = args.parsed_or("precision", Precision::F32)?;
    let mut engine = match (boot_trig, model) {
        (Some(trig), Some(m)) => {
            halk_serve::Engine::with_boot_table(g, m, &trig, shards_opt, precision)
        }
        (_, model) => halk_serve::Engine::with_options(g, model, shards_opt, precision),
    }
    .test_faults(faults);
    if let Some(cap) = batch_cap {
        engine = engine.batch_cap(cap);
    }
    if slow_ms.is_some() {
        engine = engine.slow_ms(slow_ms);
    }
    let boot = boot_start.elapsed();
    halk_obs::metrics::gauge("halk_serve_boot_ns").set(boot.as_nanos() as f64);
    eprintln!(
        "booted in {boot:.1?} ({}; precision {precision}, trig resident {} bytes)",
        if args.optional("snapshot").is_some() {
            "snapshot"
        } else {
            "tsv"
        },
        engine.trig_resident_bytes(),
    );

    let mut manifest = halk_obs::Manifest::new("serve");
    match args.optional("snapshot") {
        Some(path) => manifest.config_str("snapshot", path),
        None => manifest.config_str("graph", args.required("graph")?),
    }
    manifest.config_str("addr", addr);
    manifest.config_int("workers", cfg.workers as u64);
    manifest.config_int("queue_cap", cfg.queue_cap as u64);
    manifest.config_int("shards", engine.n_shards() as u64);
    manifest.config_int("batch_cap", engine.max_batch() as u64);
    manifest.config_str("precision", precision.name());
    manifest.set_int("boot_ns", boot.as_nanos() as u64);
    manifest.set_int("trig_resident_bytes", engine.trig_resident_bytes() as u64);
    manifest.set_bool("model_loaded", has_model);

    let signal_flag = halk_serve::signal::install_shutdown_flag();
    let started = std::time::Instant::now();
    let server = halk_serve::Server::start(engine, cfg).map_err(|error| CliError::Io {
        path: addr.to_string(),
        error,
    })?;
    println!("listening on {}", server.local_addr());
    if let Some(obs) = server.obs_addr() {
        // Same stdout discovery contract as `listening on` — scripts boot
        // with port 0 and scrape the resolved address from here.
        println!("metrics on {obs}");
    }

    // Serve until a signal lands or a client sends a SHUTDOWN frame;
    // either way drain in-flight work before exiting.
    while !signal_flag.load(Ordering::Relaxed) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining");
    server.begin_shutdown();
    server.join();
    manifest.phase("serve", started.elapsed());

    let m = halk_obs::metrics::counter("halk_serve_requests_total").get();
    manifest.metric("requests_total", m as f64);
    manifest.metric(
        "overloaded_total",
        halk_obs::metrics::counter("halk_serve_overloaded_total").get() as f64,
    );
    manifest.metric(
        "deadline_shed_total",
        halk_obs::metrics::counter("halk_serve_deadline_shed_total").get() as f64,
    );
    manifest.metric(
        "panics_total",
        halk_obs::metrics::counter("halk_serve_panics_total").get() as f64,
    );
    let lat = halk_obs::metrics::histogram("halk_serve_latency_us");
    manifest.metric("latency_p50_us", lat.quantile(0.5) as f64);
    manifest.metric("latency_p99_us", lat.quantile(0.99) as f64);
    match manifest.write() {
        Ok(p) => eprintln!("manifest written to {}", p.display()),
        Err(e) => halk_obs::log!(Error, "cannot write serve manifest: {e}"),
    }
    println!("served {m} request(s); goodbye");
    Ok(())
}

// ---------------------------------------------------------------- halk top

/// One bounded HTTP/1.0 GET against the daemon's scrape endpoint; returns
/// the response body (everything after the blank line).
fn http_get_body(addr: &str, path: &str) -> io::Result<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.set_write_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let body = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .map(|(_, b)| b.to_string())
        .unwrap_or(raw);
    Ok(body)
}

/// Walks `path` into nested JSON objects and reads a number; 0.0 when any
/// step is missing, so a young daemon (no samples yet) renders as zeros.
fn json_num(v: &serde_json::Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn json_bool(v: &serde_json::Value, path: &[&str]) -> bool {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return false,
        }
    }
    cur.as_bool().unwrap_or(false)
}

fn json_str<'a>(v: &'a serde_json::Value, path: &[&str]) -> &'a str {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return "?",
        }
    }
    cur.as_str().unwrap_or("?")
}

/// Renders one screenful of daemon state from a `/metrics.json` snapshot
/// (plus optional `STATS` pairs from the query port).
fn render_top(addr: &str, v: &serde_json::Value, stats: Option<&[(String, u64)]>) -> String {
    use std::fmt::Write as _;
    let wrate = |name: &str| json_num(v, &["window", "counters", name, "rate"]);
    let wq = |name: &str, q: &str| json_num(v, &["window", "histograms", name, q]);
    let ctotal = |name: &str| json_num(v, &["cumulative", "counters", name]);
    let window_s = json_num(v, &["window_us"]).max(json_num(v, &["window", "window_us"])) / 1e6;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "halk top — {addr}   (rolling window {window_s:.0}s; rates are per-second)"
    );
    let _ = writeln!(
        out,
        "requests  {:>10.1}/s   total {:>10}",
        wrate("halk_serve_requests_total"),
        ctotal("halk_serve_requests_total") as u64,
    );
    let _ = writeln!(
        out,
        "latency   p50 {:>8}us   p99 {:>8}us   queue wait p99 {:>8}us",
        wq("halk_serve_latency_us", "p50") as u64,
        wq("halk_serve_latency_us", "p99") as u64,
        wq("halk_serve_queue_wait_us", "p99") as u64,
    );
    let _ = writeln!(
        out,
        "queue     depth {:>3} / cap {:<4}  sessions {:>3} / max {:<4}",
        json_num(v, &["health", "queue_depth"]) as u64,
        json_num(v, &["health", "queue_cap"]) as u64,
        json_num(v, &["health", "sessions"]) as u64,
        json_num(v, &["health", "max_sessions"]) as u64,
    );
    let _ = writeln!(
        out,
        "shed      overloaded {:>6.1}/s   deadline {:>6.1}/s   panics {:>6.1}/s",
        wrate("halk_serve_overloaded_total"),
        wrate("halk_serve_deadline_shed_total"),
        wrate("halk_serve_panics_total"),
    );
    let _ = writeln!(
        out,
        "batch     p50 {:>3}  p99 {:>3}   grouped {:>6.1}/s   truncated {:>6.1}/s",
        wq("halk_serve_batch_size", "p50") as u64,
        wq("halk_serve_batch_size", "p99") as u64,
        wrate("halk_serve_batched_groups_total"),
        wrate("halk_serve_truncated_total"),
    );
    let _ = writeln!(
        out,
        "cache     scorer hits {:>6.1}/s   builds {:>6.1}/s   slow queries {:>6.1}/s",
        wrate("halk_exec_cache_hits_total"),
        wrate("halk_exec_cache_builds_total"),
        wrate("halk_serve_slow_queries_total"),
    );
    // Pool load per labeled region: the windowed busy/wall sums give the
    // mean number of active workers over the window (can exceed 1.0).
    if let serde_json::Value::Object(fields) = v
        .get("window")
        .and_then(|w| w.get("histograms"))
        .unwrap_or(&serde_json::Value::Null)
    {
        let mut any = false;
        for (name, _) in fields.iter() {
            let Some(region) = name.strip_prefix("halk_pool_wall_us_") else {
                continue;
            };
            let wall = wq(name, "sum");
            let busy = wq(&format!("halk_pool_busy_us_{region}"), "sum");
            if wall > 0.0 {
                if !any {
                    let _ = write!(out, "pool      ");
                    any = true;
                }
                let _ = write!(out, "{region} x{:.1}  ", busy / wall);
            }
        }
        if any {
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "health    draining={}  model={}  shards={}  precision={}  resident {:.1} MB",
        json_bool(v, &["health", "draining"]),
        json_bool(v, &["health", "has_model"]),
        json_num(v, &["health", "shards"]) as u64,
        json_str(v, &["health", "precision"]),
        json_num(v, &["health", "trig_resident_bytes"]) / (1024.0 * 1024.0),
    );
    if let Some(pairs) = stats {
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map_or(0, |&(_, x)| x);
        let _ = writeln!(
            out,
            "stats     p50 {}us  p99 {}us  depth {}  boot {:.1}ms  (query-port STATS)",
            get("latency_p50_us"),
            get("latency_p99_us"),
            get("queue_depth"),
            get("boot_ns") as f64 / 1e6,
        );
    }
    out
}

/// `halk top`: poll a daemon's `--obs-addr` endpoint (and optionally its
/// query port's STATS verb) and redraw a one-screen live view.
fn cmd_top(args: &Args) -> Result<(), CliError> {
    let addr = args.required("addr")?;
    let once = args
        .optional("once")
        .is_some_and(|x| x == "true" || x == "1");
    let interval = Duration::from_millis(args.parsed_or("interval-ms", 1_000u64)?);
    loop {
        let body = http_get_body(addr, "/metrics.json").map_err(|error| CliError::Io {
            path: format!("{addr}/metrics.json"),
            error,
        })?;
        let v: serde_json::Value = serde_json::from_str(&body).map_err(|e| CliError::Io {
            path: format!("{addr}/metrics.json"),
            error: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        })?;
        let stats = match args.optional("serve-addr") {
            Some(sa) => {
                let mut c = halk_serve::Client::connect(sa).map_err(|error| CliError::Io {
                    path: sa.to_string(),
                    error,
                })?;
                match c.stats() {
                    Ok(halk_serve::Response::Stats { pairs }) => Some(pairs),
                    _ => None,
                }
            }
            None => None,
        };
        let screen = render_top(addr, &v, stats.as_deref());
        if once {
            print!("{screen}");
            return Ok(());
        }
        // ANSI clear + home: redraw in place like top(1).
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = io::stdout().flush();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("halk_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_line(line: &str) -> Result<(), CliError> {
        run(line.split_whitespace().map(str::to_string).collect())
    }

    #[test]
    fn gen_stats_ask_pipeline() {
        let g = tmp("g.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset fb237 --out {gs} --seed 3")).unwrap();
        run_line(&format!("stats --graph {gs}")).unwrap();
        // Ask with the exact engine over an edge that must exist.
        let graph = tsv::load(&g).unwrap();
        let t = graph.triples()[0];
        run(vec![
            "ask".into(),
            "--graph".into(),
            gs.into(),
            "--sparql".into(),
            format!("SELECT ?x WHERE {{ e:{} r:{} ?x . }}", t.h.0, t.r.0),
        ])
        .unwrap();
    }

    #[test]
    fn render_top_reads_window_rates_quantiles_and_pool_sums() {
        let v: serde_json::Value = serde_json::from_str(
            r#"{"cumulative":{"counters":{"halk_serve_requests_total":900}},
                "window":{"window_us":60000000,
                  "counters":{"halk_serve_requests_total":{"total":150,"rate":2.5}},
                  "histograms":{
                    "halk_serve_latency_us":{"count":150,"sum":9000,"p50":63,"p99":511},
                    "halk_pool_wall_us_model_batch":{"count":10,"sum":4000,"p50":511,"p99":511},
                    "halk_pool_busy_us_model_batch":{"count":20,"sum":7000,"p50":511,"p99":511}}},
                "health":{"shards":2,"precision":"f32"}}"#,
        )
        .unwrap();
        let out = render_top("127.0.0.1:9", &v, None);
        assert!(out.contains("rolling window 60s"), "{out}");
        assert!(
            out.contains("requests         2.5/s   total        900"),
            "{out}"
        );
        assert!(out.contains("p99      511us"), "{out}");
        assert!(out.contains("pool      model_batch x1.8"), "{out}");
    }

    #[test]
    fn unknown_subcommand_fails() {
        let err = run_line("frobnicate").unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
        assert_eq!(err.exit_code(), ExitCode::from(2));
        assert!(matches!(run_line("").unwrap_err(), CliError::Args(_)));
    }

    #[test]
    fn ask_requires_model_for_halk_engine() {
        let g = tmp("g2.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset nell --out {gs} --seed 4")).unwrap();
        let err = run(vec![
            "ask".into(),
            "--graph".into(),
            gs.into(),
            "--sparql".into(),
            "SELECT ?x WHERE { e:0 r:0 ?x . }".into(),
            "--engine".into(),
            "halk".into(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
    }

    #[test]
    fn ask_rejects_out_of_range_ids_under_every_engine() {
        let g = tmp("g_ask_ids.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset nell --out {gs} --seed 5")).unwrap();
        let model = tmp("model_ask_ids");
        HalkModel::new(&tsv::load(&g).unwrap(), HalkConfig::tiny())
            .save(&model)
            .unwrap();
        let ms = model.to_str().unwrap();
        for engine in ["exact", "halk", "match"] {
            for (sparql, id) in [
                ("SELECT ?x WHERE { e:999999 r:0 ?x . }", "e:999999"),
                ("SELECT ?x WHERE { e:0 r:99999 ?x . }", "r:99999"),
            ] {
                let err = run(vec![
                    "ask".into(),
                    "--graph".into(),
                    gs.into(),
                    "--model".into(),
                    ms.into(),
                    "--engine".into(),
                    engine.into(),
                    "--sparql".into(),
                    sparql.into(),
                ])
                .unwrap_err();
                assert!(matches!(err, CliError::Query(_)), "{engine}: {err}");
                assert_eq!(err.exit_code(), ExitCode::FAILURE);
                assert!(err.to_string().contains(id), "{engine}: {err}");
            }
        }
    }

    #[test]
    fn serve_rejects_bad_shards_and_batch_cap_with_typed_errors() {
        let g = tmp("g_serve_flags.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset nell --out {gs} --seed 6")).unwrap();
        // Explicit zero is a mistake, not auto (omit the flag for that).
        let err = run_line(&format!("serve --graph {gs} --shards 0")).unwrap_err();
        assert!(
            matches!(err, CliError::Flag { flag: "shards", .. }),
            "{err}"
        );
        assert_eq!(err.exit_code(), ExitCode::from(2));
        // More shards than entities can't all be non-empty.
        let n = tsv::load(&g).unwrap().n_entities();
        let err = run_line(&format!("serve --graph {gs} --shards {}", n + 1)).unwrap_err();
        assert!(
            matches!(err, CliError::Flag { flag: "shards", .. }),
            "{err}"
        );
        // A zero batch cap would mean "never batch anything, not even 1".
        let err = run_line(&format!("serve --graph {gs} --batch-cap 0")).unwrap_err();
        assert!(
            matches!(
                err,
                CliError::Flag {
                    flag: "batch-cap",
                    ..
                }
            ),
            "{err}"
        );
        // Unparsable values stay ordinary arg errors.
        let err = run_line(&format!("serve --graph {gs} --batch-cap lots")).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgError::BadValue(..))),
            "{err}"
        );
    }

    #[test]
    fn missing_graph_file_is_a_graph_error_not_a_panic() {
        let err = run_line("stats --graph /definitely/not/there.tsv").unwrap_err();
        assert!(matches!(err, CliError::Graph { .. }));
        assert_eq!(err.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    fn bad_resume_checkpoint_is_a_train_error() {
        let g = tmp("g3.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset nell --out {gs} --seed 5")).unwrap();
        let bogus = tmp("bogus.ckpt");
        std::fs::write(&bogus, b"garbage").unwrap();
        let out = tmp("model_resume_err");
        let err = run_line(&format!(
            "train --graph {gs} --out {} --steps 5 --resume {}",
            out.display(),
            bogus.display()
        ))
        .unwrap_err();
        assert!(
            matches!(err, CliError::Train(TrainError::Resume { .. })),
            "{err}"
        );
    }

    #[test]
    fn help_prints() {
        run_line("help").unwrap();
    }

    #[test]
    fn snapshot_build_and_inspect_pipeline() {
        let g = tmp("g_snap.tsv");
        let gs = g.to_str().unwrap();
        run_line(&format!("gen --dataset nell --out {gs} --seed 6")).unwrap();
        let model_dir = tmp("model_snap");
        run_line(&format!(
            "train --graph {gs} --out {} --steps 3 --dim 8",
            model_dir.display()
        ))
        .unwrap();
        let snap = tmp("deploy.snap");
        run_line(&format!(
            "snapshot build --graph {gs} --model {} --out {}",
            model_dir.display(),
            snap.display()
        ))
        .unwrap();
        run_line(&format!("snapshot inspect --snap {}", snap.display())).unwrap();

        // The snapshot decodes to the same deployment the TSV path loads.
        let graph = tsv::load(&g).unwrap();
        let model = HalkModel::load(&graph, &model_dir).unwrap();
        let (g2, m2, _trig) = halk_snap::read_file(&snap).unwrap();
        assert_eq!(g2.triples(), graph.triples());
        let q = halk_sparql::sparql_to_query("SELECT ?x WHERE { e:0 r:0 ?x . }").unwrap();
        assert_eq!(model.score_all(&q), m2.score_all(&q));

        // Action word is mandatory and validated.
        assert!(run_line("snapshot --snap nope").is_err());
        assert!(run_line(&format!("snapshot frob --snap {}", snap.display())).is_err());
        // A corrupt snapshot is a typed IO error, not a panic.
        let bad = tmp("bad.snap");
        std::fs::write(&bad, b"HALKSNAPgarbage").unwrap();
        let err = run_line(&format!("snapshot inspect --snap {}", bad.display())).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }

    #[test]
    fn bad_dataset_rejected() {
        let err = run_line("gen --dataset wikidata --out /tmp/x.tsv").unwrap_err();
        assert!(err.to_string().contains("dataset"), "{err}");
    }
}

//! `bench_e2e` — the end-to-end benchmark of the HaLk stack.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//! bench_e2e --sets 2 [--seed N] [--seconds S]
//! bench_e2e --smoke [--seed N]
//! ```
//!
//! Serve workloads (`halk_8k`, `halk_64k`, `exact_64k`) boot the real
//! `halk serve` process and drive it from this process with two threads
//! and two connections; `train_eval` runs training and evaluation
//! in-process. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a separate traced run (and writes
//! `per_layer.json` plus a JSONL trace under `.bench_work/out/`). The last
//! stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Any wrong answer makes `correct` false and the exit code 1.
//!
//! `--sets N` runs every workload N times (alternating the order) and
//! checks that each end-to-end metric repeats within its bound.
//! `--smoke` is a ~10 s pass against an in-process server. See README.md
//! for the metrics, workloads and bounds.

mod daemon;
mod inputs;
mod load;
mod render;
mod report;
mod serve;
mod smoke;
mod spec;
mod stats;
mod traced;
mod train_eval;

use report::Report;
use serde_json::Value;
use spec::{END_TO_END, TRAIN_EVAL, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      bench_e2e --sets N [--seed N] [--seconds S]\n\
                     \x20      bench_e2e --smoke [--seed N]\n\
                     workloads: halk_8k halk_64k exact_64k train_eval";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        sets: 0,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--sets" => a.sets = value()?.parse().map_err(|_| "bad --sets")?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if a.workload.is_none() && a.sets == 0 && !a.smoke {
        return Err("nothing to do".to_string());
    }
    Ok(a)
}

/// Runs one workload in a fresh work directory under `.bench_work`.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> std::io::Result<Report> {
    // Absolute: the daemon runs inside the work directory.
    let root = std::env::current_dir()?.join(".bench_work");
    let work = root.join(format!("{name}-s{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work)?;
    let out = root.join("out").join(format!("{name}-s{seed}"));
    if trace {
        std::fs::create_dir_all(&out)?;
    }
    let result = match (spec::serve_spec(name), trace) {
        (Some(s), false) => serve::run(&s, seed, seconds, &work),
        (Some(s), true) => traced::run_serve(&s, seed, seconds, &work, &out),
        (None, false) => train_eval::run(seed, seconds),
        (None, true) => train_eval::run_traced(seed, seconds, &out),
    };
    // Kept when something went wrong: it holds the daemon's log.
    if matches!(&result, Ok(r) if r.correct) {
        let _ = std::fs::remove_dir_all(&work);
    } else {
        eprintln!("{name}: work files kept in {}", work.display());
    }
    if trace {
        eprintln!(
            "{name}: per-layer detail in {}",
            out.join("per_layer.json").display()
        );
    }
    result
}

/// `--sets N`: every workload N times, alternating the order, each in a
/// child process; prints each (metric, workload) spread — (max − min) /
/// median — against the metric's bound.
fn sets(n: usize, seed: u64, seconds: f64) -> ExitCode {
    let exe: PathBuf = std::env::current_exe().expect("own executable");
    let mut values: Vec<(&str, &str, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for set in 0..n {
        let mut order = WORKLOADS.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit())
                .output();
            let line = child
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().last().map(str::to_string));
            let Some(v) = line.and_then(|l| serde_json::from_str::<Value>(&l).ok()) else {
                eprintln!("set {set}: {w} failed");
                ok = false;
                continue;
            };
            for m in END_TO_END {
                let x = v["metrics"][m.name]["value"].as_f64().unwrap_or(f64::NAN);
                match values
                    .iter_mut()
                    .find(|(mw, mn, _)| *mw == w && *mn == m.name)
                {
                    Some((_, _, xs)) => xs.push(x),
                    None => values.push((w, m.name, vec![x])),
                }
            }
        }
    }
    println!(
        "{:<12} {:<16} {:<7} {:>8} {:>6}  values",
        "workload", "metric", "better", "spread", "bound"
    );
    for (w, name, xs) in &values {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("known metric");
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        let spread = (hi - lo) / stats::median(xs);
        let within = spread <= m.bound;
        ok &= within;
        println!(
            "{w:<12} {name:<16} {:<7} {spread:>8.4} {:>6.2}  {xs:?}{}",
            m.better.as_str(),
            m.bound,
            if within { "" } else { "  BREACH" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.sets > 0 {
        return sets(args.sets, args.seed, args.seconds);
    }
    let result = if args.smoke {
        smoke::run(args.seed)
    } else {
        let name = args.workload.as_deref().unwrap_or(TRAIN_EVAL);
        run_workload(name, args.seed, args.seconds, args.trace)
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("bench_e2e: outputs were not correct");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Spawning, timing and stopping the real `halk serve` process.

use crate::spec::DAEMON_THREADS;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a boot may take before the benchmark gives up on it.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// The `halk` binary: built into the same target directory as this
/// benchmark, so it sits next to the running executable.
pub fn halk_exe() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let halk = exe.with_file_name("halk");
    if halk.is_file() {
        Ok(halk)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; build the daemon into the same target directory (run.sh does)",
                halk.display()
            ),
        ))
    }
}

/// A running daemon. Dropping it kills the process if [`Daemon::stop`]
/// was not called, so no run leaves one behind.
pub struct Daemon {
    child: Option<Child>,
    /// Query-plane address from the `listening on` line.
    pub addr: String,
    /// Scrape address from the `metrics on` line (`--obs-addr` boots).
    pub obs: Option<String>,
    lines: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `halk serve <args>` in `cwd` with the benchmark's fixed
    /// serving flags, and blocks until it prints `listening on`. Returns
    /// the daemon and the spawn-to-listening time.
    pub fn boot(args: &[String], cwd: &Path, obs: bool) -> io::Result<(Daemon, Duration)> {
        let threads = DAEMON_THREADS.to_string();
        let mut cmd = Command::new(halk_exe()?);
        cmd.arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--workers", &threads])
            .args(["--shards", &threads, "--precision", "f32"]);
        if obs {
            cmd.args(["--obs-addr", "127.0.0.1:0"]);
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(cwd.join("daemon.log"))?;
        cmd.current_dir(cwd)
            .env("HALK_THREADS", &threads)
            .env_remove("HALK_TRACE")
            .env_remove("HALK_SLOW_MS")
            .env_remove("HALK_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));

        let t0 = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            obs: None,
            lines,
            reader: Some(reader),
        };
        daemon.addr = daemon.await_line("listening on ")?;
        let booted = t0.elapsed();
        if obs {
            daemon.obs = Some(daemon.await_line("metrics on ")?);
        }
        Ok((daemon, booted))
    }

    /// Waits for the daemon's next stdout line and returns what follows
    /// `prefix` on it.
    fn await_line(&self, prefix: &str) -> io::Result<String> {
        let line = self.lines.recv_timeout(BOOT_TIMEOUT).map_err(|_| {
            io::Error::other(format!(
                "daemon printed no `{prefix}` line (see daemon.log in the work directory)"
            ))
        })?;
        line.strip_prefix(prefix)
            .map(|s| s.trim().to_string())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon output: {line}")))
    }

    /// Peak resident set size (`VmHWM`) of the daemon, in kB.
    pub fn vm_hwm_kb(&self) -> io::Result<u64> {
        let pid = self.child.as_ref().expect("daemon is running").id();
        vm_hwm_kb(&format!("/proc/{pid}/status"))
    }

    /// Sends `SHUTDOWN`, waits for the drain and the process exit, and
    /// checks the daemon said goodbye.
    pub fn stop(mut self) -> io::Result<()> {
        let mut c = halk_serve::Client::connect(&self.addr)?;
        let bye = c.shutdown()?;
        if bye != halk_serve::Response::Bye {
            return Err(io::Error::other(format!("SHUTDOWN answered {bye:?}")));
        }
        let status = self.child.take().expect("daemon is running").wait()?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let rest: Vec<String> = self.lines.try_iter().collect();
        if !status.success() || !rest.iter().any(|l| l.contains("goodbye")) {
            return Err(io::Error::other(format!(
                "daemon exited with {status} after {rest:?}"
            )));
        }
        Ok(())
    }

    /// One HTTP GET against the `--obs-addr` endpoint; returns the body.
    pub fn scrape(&self, path: &str) -> io::Result<String> {
        let addr = self.obs.as_deref().expect("booted with --obs-addr");
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
        let mut text = String::new();
        s.read_to_string(&mut text)?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| io::Error::other("malformed scrape response"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Parses `VmHWM` (kB) out of a `/proc/<pid>/status` file.
pub fn vm_hwm_kb(status_path: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

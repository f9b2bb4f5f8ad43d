//! The programs under test: building the release binaries from the
//! checkout, running them as child processes, and measuring each one's
//! peak resident set.

use std::io::{BufRead, BufReader, Read};
use std::os::raw::c_int;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucsim::model::Json;

/// Paths of the release binaries built from the checkout.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The `ucsim` CLI.
    pub ucsim: PathBuf,
    /// The `ucsim-serve` job service.
    pub serve: PathBuf,
}

/// Builds `ucsim` and `ucsim-serve` in release mode from the repository
/// at `root` (a no-op when they are fresh) and returns their paths, as
/// Cargo reports them — so `CARGO_TARGET_DIR` is honoured.
///
/// # Errors
///
/// A message when Cargo fails or does not report both executables.
pub fn build(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--message-format=json",
            "--bin",
            "ucsim",
            "--bin",
            "ucsim-serve",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build failed: {}", out.status));
    }
    let (mut ucsim, mut serve) = (None, None);
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        let Some(exe) = msg.get("executable").and_then(Json::as_str) else {
            continue;
        };
        let path = PathBuf::from(exe);
        match path.file_name().and_then(|n| n.to_str()) {
            Some("ucsim") => ucsim = Some(path),
            Some("ucsim-serve") => serve = Some(path),
            _ => {}
        }
    }
    match (ucsim, serve) {
        (Some(ucsim), Some(serve)) => Ok(Bins { ucsim, serve }),
        _ => Err("cargo did not report the ucsim and ucsim-serve executables".to_owned()),
    }
}

extern "C" {
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGTERM: c_int = 15;

/// Asks the child to stop, as `kill -TERM` would. It has not been reaped
/// (the caller still owns it), so the pid cannot have been reused.
fn terminate(child: &Child) {
    let pid = c_int::try_from(child.id()).expect("Linux pids fit a c_int");
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// Waits for the child to end and reaps it; after `timeout` it is killed.
/// Returns whether it exited with status 0. Polls every 100 µs; time an
/// operation to its output's end (as [`run_timed`] does), not to this.
///
/// # Errors
///
/// The I/O error of waiting.
pub fn reap(child: &mut Child, timeout: Duration) -> std::io::Result<bool> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status.success());
        }
        if Instant::now() >= deadline {
            child.kill()?;
            child.wait()?;
            return Ok(false);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Peak resident set (`VmHWM`) of a live, unreaped process, in KiB.
///
/// Read from /proc rather than from wait4's rusage: a child's rusage
/// also counts the resident set of the parent it was spawned from.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Samples a running child's peak resident set until stopped; the last
/// sample before the child exits is its peak.
struct RssWatch {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl RssWatch {
    /// Starts sampling `child` every two milliseconds.
    fn start(child: &Child) -> RssWatch {
        let pid = child.id();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Acquire) {
                peak = peak_rss_kb(pid).unwrap_or(0).max(peak);
                std::thread::park_timeout(Duration::from_millis(2));
            }
            peak
        });
        RssWatch { stop, thread }
    }

    /// Stops sampling at once and returns the peak in KiB. Call it before
    /// reaping the child, so its pid cannot name another process
    /// meanwhile.
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread.join().unwrap_or(0)
    }
}

/// One finished child process, timed from its start to the end of its
/// standard output.
pub struct Timed {
    /// Wall time from spawning to standard output's end, ms.
    pub ms: f64,
    /// Its standard output.
    pub stdout: String,
    /// Its peak resident set, KiB (0 when not sampled).
    pub peak_kb: u64,
    /// Whether it exited with status 0 and its output was read whole.
    pub ok: bool,
}

/// Runs `cmd` to its end with standard output piped and standard error
/// discarded, sampling its peak resident set when `watch` is set. The
/// time stops when standard output reaches its end, which is when the
/// process exits, before the benchmark stops its memory sampler or reaps
/// the process.
///
/// # Errors
///
/// A message when the process cannot be started or waited for.
pub fn run_timed(cmd: &mut Command, watch: bool) -> Result<Timed, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let rss = watch.then(|| RssWatch::start(&child));
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak_kb = rss.map_or(0, RssWatch::finish);
    let clean = reap(&mut child, Duration::from_secs(120)).map_err(|e| e.to_string())?;
    Ok(Timed {
        ms,
        stdout,
        peak_kb,
        ok: clean && read.is_ok(),
    })
}

/// A running `ucsim-serve`, stopped with SIGTERM (its graceful drain) by
/// [`ServeProc::stop`] and killed if dropped while running.
pub struct ServeProc {
    child: Option<Child>,
    /// The `host:port` it listens on.
    pub addr: String,
    log: Option<JoinHandle<String>>,
}

impl ServeProc {
    /// Starts `ucsim-serve` on an ephemeral port with `args` and waits
    /// until it reports its address.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start or never listens.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServeProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the server's log for its whole life, so it can never
        // block on a full pipe; the address line is handed over first.
        let log = std::thread::spawn(move || {
            let mut rest = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let addr = addr.split_whitespace().next().unwrap_or("").to_owned();
                    let _ = tx.send(addr);
                } else if rest.len() < 16 * 1024 {
                    rest.push_str(&line);
                    rest.push('\n');
                }
            }
            rest
        });
        let mut proc = ServeProc {
            child: Some(child),
            addr: String::new(),
            log: Some(log),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err(format!("ucsim-serve did not listen: {}", proc.kill_log())),
        }
    }

    /// Stops the server gracefully and reaps it; returns its peak
    /// resident set in KiB.
    ///
    /// # Errors
    ///
    /// A message when it does not drain and exit cleanly in time.
    pub fn stop(mut self) -> Result<u64, String> {
        let mut child = self.child.take().expect("stop runs once");
        let peak = peak_rss_kb(child.id()).unwrap_or(0);
        terminate(&child);
        let clean = reap(&mut child, Duration::from_secs(60)).map_err(|e| e.to_string())?;
        let log = self.log.take().map(|h| h.join().unwrap_or_default());
        if clean {
            Ok(peak)
        } else {
            Err(format!("ucsim-serve did not stop cleanly: {log:?}"))
        }
    }

    fn kill_log(&mut self) -> String {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.log
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.kill_log();
    }
}

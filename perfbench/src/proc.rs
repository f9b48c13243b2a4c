//! The program under test as its own process: `waves serve`, spawned,
//! measured from outside (`/proc/<pid>/status`) and stopped.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waves_net::{Client, ClientConfig};
use waves_obs::{MetricId, Recorder};

/// How a `waves serve` process is configured.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    pub shards: usize,
    pub window: u64,
    pub eps: f64,
    /// Durable state directory (default sync policy and checkpoint
    /// cadence); `None` serves from memory.
    pub persist: Option<PathBuf>,
    /// Attach the server's metrics registry (`--stats`), for `STATS`.
    pub stats: bool,
}

/// A running `waves serve` child. Dropping it kills the process and
/// waits for it, so no error path leaves a server behind.
pub struct Serve {
    child: Option<Child>,
    out: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Serve {
    /// Spawn and wait for the `listening on <addr>` line.
    pub fn spawn(bin: &Path, o: &ServeOpts) -> Result<Serve, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--shards", &o.shards.to_string()])
            .args(["--window", &o.window.to_string()])
            .args(["--eps", &o.eps.to_string()]);
        if let Some(dir) = &o.persist {
            cmd.arg("--persist-dir").arg(dir);
        }
        if o.stats {
            cmd.arg("--stats");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut serve = Serve {
            child: Some(child),
            out,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                serve.addr = addr;
                Ok(serve)
            }
            _ => Err(format!("waves serve did not announce an address: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Ask the server to stop over the wire and wait for the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked =
            connect(self.addr).and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let exited = self.wait_exit(Duration::from_secs(20));
        asked?;
        exited
    }

    /// `SIGKILL`: the hard crash the durable workload recovers from.
    pub fn kill(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        let killed = child.kill();
        child.wait().map_err(|e| e.to_string())?;
        killed.map_err(|e| e.to_string())
    }

    fn wait_exit(&mut self, limit: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        let t0 = Instant::now();
        loop {
            // The exit lines (and the metrics dump under --stats) fit
            // in the pipe buffer; read them once the process is gone.
            let exited = child.try_wait().map_err(|e| e.to_string())?;
            if exited.is_some() {
                let _ = self.out.read_to_end(&mut Vec::new());
            }
            match exited {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("waves serve exited with {status}")),
                None if t0.elapsed() > limit => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("waves serve did not exit after SHUTDOWN".into());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A client with budgets generous enough for a recovering or busy
/// server on a 2-core machine.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    connect_recorded(addr, Arc::new(waves_obs::NoopRecorder))
}

pub fn connect_recorded<R: Recorder + Send + Sync + 'static>(
    addr: SocketAddr,
    rec: Arc<R>,
) -> Result<Client<R>, String> {
    Client::connect_recorded(addr, client_config(), rec).map_err(|e| format!("connect {addr}: {e}"))
}

pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

/// Counts the bytes a client puts on and takes off the wire. It lives
/// in the benchmark process, outside the server.
#[derive(Debug, Default)]
pub struct WireBytes(AtomicU64);

impl WireBytes {
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Recorder for WireBytes {
    fn incr(&self, id: MetricId, by: u64) {
        if matches!(id, MetricId::NetBytesSent | MetricId::NetBytesReceived) {
            self.0.fetch_add(by, Ordering::Relaxed);
        }
    }
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// steal is time a virtual machine's host ran something else while the
/// machine's CPUs had work. Shown next to each run's figures; `None` where unreadable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// From the C library that `std` links on Linux.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds process `pid` has run, all its threads, ended ones
/// included, to the nanosecond: its CPU-time clock, as
/// `clock_getcpuclockid(3)` names it. The kernel leaves host steal out
/// of it (paravirtual steal accounting), so on a shared host it moves
/// far less than wall time. NaN where unreadable.
pub fn cpu_s(pid: u32) -> f64 {
    // CPUCLOCK_SCHED (2) of the process whose id is encoded as ~pid << 3.
    let clock = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and `clock_gettime` writes only through it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Replace `to` with a copy of the directory tree `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for e in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        let dst = to.join(e.file_name());
        if e.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), &dst).map_err(|err| format!("{}: {err}", dst.display()))?;
        }
    }
    Ok(())
}

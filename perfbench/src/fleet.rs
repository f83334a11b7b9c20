//! The system under test as separate processes: [`DAEMONS`] `sealpaa serve
//! --threads 1` daemons behind one `sealpaa route`. A [`Layout`] fixes the
//! addresses once, so every restart reuses them: the router's ring hashes
//! backend addresses, and restored snapshots only hit when they are stable.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sealpaa_server::json::Json;

use crate::gen::DAEMONS;

const SHUTDOWN: &str = "{\"kind\":\"shutdown\"}";
const STATS: &str = "{\"kind\":\"stats\"}";
/// How long a process gets to exit after a shutdown request before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);
/// Socket deadline for control round trips.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Niceness of the fleet's processes. The load generator shares the CPUs
/// with them; at equal priority a busy fleet delays its wake-ups by
/// milliseconds, which would show up as latency the stack did not cause.
const FLEET_NICE: &str = "10";

/// A command running the `sealpaa` binary at [`FLEET_NICE`].
fn sealpaa(bin: &Path) -> Command {
    let mut cmd = Command::new("nice");
    cmd.args(["-n", FLEET_NICE]).arg(bin);
    cmd
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> io::Result<WorkDir> {
        let path = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Addresses and daemon settings shared by every start of one fleet.
pub struct Layout {
    bin: PathBuf,
    pub router: SocketAddr,
    pub daemons: Vec<SocketAddr>,
    cache_entries: usize,
    snapshots: Option<Vec<PathBuf>>,
}

fn free_ports(count: usize) -> io::Result<Vec<u16>> {
    // Hold every listener until all are bound so the ports are distinct.
    let listeners = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

impl Layout {
    /// A fleet of [`DAEMONS`] daemons with `cache_entries` each; with
    /// `snapshots`, each daemon persists its cache under `work` on
    /// shutdown and restores it on start.
    pub fn new(
        bin: &Path,
        work: &Path,
        cache_entries: usize,
        snapshots: bool,
    ) -> io::Result<Layout> {
        let ports = free_ports(1 + DAEMONS)?;
        let addr = |port: u16| SocketAddr::from(([127, 0, 0, 1], port));
        Ok(Layout {
            bin: bin.to_owned(),
            router: addr(ports[0]),
            daemons: ports[1..].iter().map(|&p| addr(p)).collect(),
            cache_entries,
            snapshots: snapshots.then(|| {
                (0..DAEMONS)
                    .map(|i| work.join(format!("daemon{i}.snap")))
                    .collect()
            }),
        })
    }

    pub fn snapshot_paths(&self) -> &[PathBuf] {
        self.snapshots.as_deref().unwrap_or(&[])
    }

    /// Spawns the daemons, then the router, then sends `probe` through the
    /// router. Returns the fleet, the probe's answer and the set-up time:
    /// from the first spawn until that answer arrived.
    pub fn start(&self, probe: &str) -> io::Result<(Fleet, String, Duration)> {
        let t0 = Instant::now();
        let mut fleet = Fleet {
            procs: Vec::with_capacity(DAEMONS + 1),
            router: self.router,
            daemons: self.daemons.clone(),
        };
        for (i, addr) in self.daemons.iter().enumerate() {
            let mut cmd = sealpaa(&self.bin);
            cmd.args(["serve", "--threads", "1", "--idle-timeout-ms", "0"])
                .arg("--addr")
                .arg(addr.to_string())
                .arg("--cache-entries")
                .arg(self.cache_entries.to_string());
            if let Some(paths) = &self.snapshots {
                cmd.arg("--cache-snapshot")
                    .arg(&paths[i])
                    .args(["--snapshot-interval-ms", "0"]);
            }
            fleet.spawn(cmd)?;
        }
        let backends: Vec<String> = self.daemons.iter().map(SocketAddr::to_string).collect();
        let mut cmd = sealpaa(&self.bin);
        cmd.arg("route")
            .arg("--addr")
            .arg(self.router.to_string())
            .arg("--backends")
            .arg(backends.join(","));
        fleet.spawn(cmd)?;
        let answer = roundtrip(self.router, probe)?;
        Ok((fleet, answer, t0.elapsed()))
    }
}

struct Proc {
    child: Child,
    // Held open so the process never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// A running fleet. Dropping it kills whatever has not exited.
pub struct Fleet {
    procs: Vec<Proc>,
    pub router: SocketAddr,
    pub daemons: Vec<SocketAddr>,
}

impl Fleet {
    /// Spawns one process and waits for its "listening" line, which both
    /// binaries print once bound (a daemon after restoring its snapshot).
    fn spawn(&mut self, mut cmd: Command) -> io::Result<()> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        self.procs.push(Proc {
            child,
            _stdout: stdout,
        });
        if !line.contains("listening on") {
            return Err(io::Error::other(format!(
                "process did not start listening: {line:?}"
            )));
        }
        Ok(())
    }

    /// The router's `stats` result.
    pub fn router_stats(&self) -> io::Result<Json> {
        stats(self.router)
    }

    /// Each daemon's `stats` result.
    pub fn daemon_stats(&self) -> io::Result<Vec<Json>> {
        self.daemons.iter().map(|&a| stats(a)).collect()
    }

    /// User plus system CPU time used so far, summed over every process, in
    /// seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        self.procs
            .iter()
            .map(|p| cpu_s(&format!("/proc/{}/stat", p.child.id())))
            .sum()
    }

    /// Peak resident set (`VmHWM`) summed over every process, in MiB.
    pub fn rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0u64;
        for p in &self.procs {
            kib += vm_hwm_kib(&format!("/proc/{}/status", p.child.id()))?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// Graceful stop: the router first (it leaves its backends running),
    /// then each daemon, which persists its snapshot on the way out.
    pub fn stop(mut self) -> io::Result<()> {
        let addrs: Vec<SocketAddr> = self
            .daemons
            .iter()
            .copied()
            .chain(std::iter::once(self.router))
            .collect();
        // Processes were spawned daemons-first, router last.
        for i in (0..self.procs.len()).rev() {
            roundtrip(addrs[i], SHUTDOWN)?;
            let proc = self.procs.pop().expect("one process per address");
            wait_or_kill(proc.child)?;
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for mut p in self.procs.drain(..) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

fn wait_or_kill(mut child: Child) -> io::Result<()> {
    let deadline = Instant::now() + EXIT_GRACE;
    while Instant::now() < deadline {
        if child.try_wait()?.is_some() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill()?;
    child.wait()?;
    Err(io::Error::other("process ignored its shutdown request"))
}

/// Sends one line on a fresh connection and reads one answer line.
pub fn roundtrip(addr: SocketAddr, line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer)?;
    if answer.is_empty() {
        return Err(io::Error::other(format!("{addr} closed without answering")));
    }
    Ok(answer.trim_end().to_owned())
}

fn stats(addr: SocketAddr) -> io::Result<Json> {
    let answer = roundtrip(addr, STATS)?;
    let doc = Json::parse(&answer).map_err(io::Error::other)?;
    doc.get("result")
        .cloned()
        .ok_or_else(|| io::Error::other(format!("stats answer without result: {answer}")))
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB.
pub fn vm_hwm_kib(status_path: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU time of a `/proc/<pid>/stat` file, in seconds.
pub fn cpu_s(stat_path: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(stat_path)?;
    cpu_ticks(&stat)
        .map(|t| t as f64 / USER_HZ)
        .ok_or_else(|| io::Error::other(format!("no CPU times in {stat_path}")))
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from its last closing parenthesis, after which field 3 starts.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let user: u64 = fields.next()?.parse().ok()?;
    let system: u64 = fields.next()?.parse().ok()?;
    Some(user + system)
}

/// A numeric field at `path` (object keys) inside a stats document.
pub fn field(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_counts_fields_after_the_command_name() {
        let stat = "42 (odd) name)) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 1 0";
        assert_eq!(cpu_ticks(stat), Some(12));
        assert_eq!(cpu_ticks("42 (x) S 1"), None);
    }
}

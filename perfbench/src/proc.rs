//! Driving the release `urc` binary as a child process: one-shot
//! compiles, and `urc --listen` servers spoken to over TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use ur_query::json::escape as esc;

pub type Res<T> = Result<T, String>;

/// What a finished one-shot `urc` run left behind.
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: String,
    pub elapsed: Duration,
    /// Peak resident set of the process, in KiB.
    pub max_rss_kib: u64,
}

/// Runs `urc ARGS` in `dir` to completion, timing spawn to exit.
pub fn run_urc(urc: &Path, dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Res<Finished> {
    let mut cmd = Command::new(urc);
    cmd.args(args)
        .current_dir(dir)
        .env("UR_CACHE_DIR", "")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", urc.display()))?;
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("urc stdout: {e}"))?;
    }
    let (status, max_rss_kib) = wait_rusage(&mut child)?;
    Ok(Finished {
        status,
        stdout,
        elapsed: t0.elapsed(),
        max_rss_kib,
    })
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, which also reports its peak RSS — std's
/// `wait` does not.
fn wait_rusage(child: &mut Child) -> Res<(ExitStatus, u64)> {
    use std::os::unix::process::ExitStatusExt;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `pid` is our own unreaped child, `status` and `ru` are
    // valid, exclusively borrowed out-parameters of the sizes wait4
    // writes (an int and a 144-byte `struct rusage` on 64-bit Linux).
    let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    if r != pid {
        return Err(format!("wait4({pid}) failed"));
    }
    Ok((ExitStatus::from_raw(status), ru.longs[0].max(0) as u64))
}

/// A running `urc --listen` server.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `urc --listen 127.0.0.1:0 EXTRA` in `dir` and waits for
    /// its `{"listening":"HOST:PORT"}` line.
    pub fn spawn(urc: &Path, dir: &Path, extra: &[&str]) -> Res<Server> {
        let mut child = Command::new(urc)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", urc.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".into());
        };
        let mut stdout = BufReader::new(out);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("\"listening\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .and_then(|s| s.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    /// Resident set of the server right now, in MiB.
    pub fn rss_mib(&self) -> Res<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmRSS line".to_string())
    }

    /// Drains the server through a `shutdown` request and waits for it
    /// to exit; kills it if it has not exited within `patience`.
    pub fn shutdown(mut self, patience: Duration) -> Res<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.call("{\"cmd\":\"shutdown\"}"));
        // The final summary line, then EOF.
        let mut rest = String::new();
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let _ = self.stdout.read_to_string(&mut rest);
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (a, _) => Err(format!("server shutdown: {:?}, exit {status}", a.err())),
                };
            }
            if t0.elapsed() > patience {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("server did not drain in time; killed".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only when a run failed before `shutdown`: never leave
        // a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-delimited JSON connection to a server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, line: &str) -> Res<String> {
        let mut req = String::with_capacity(line.len() + 1);
        req.push_str(line);
        req.push('\n');
        self.writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(n) if n > 0 => Ok(resp),
            Ok(_) => Err("connection closed".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

// -------------------------------------------------- protocol helpers

pub fn load_req(src: &str) -> String {
    format!("{{\"cmd\":\"load\",\"source\":\"{}\"}}", esc(src))
}

pub fn eval_req(expr: &str) -> String {
    format!("{{\"cmd\":\"eval\",\"expr\":\"{}\"}}", esc(expr))
}

pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// The string field `key` of a flat response (`eval`, `db`).
pub fn str_field(resp: &str, key: &str) -> Option<String> {
    ur_query::json::parse_flat_object(resp)?.remove(key)
}

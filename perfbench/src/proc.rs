//! Server processes, the client's line connections, and `/proc` reads.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;

/// How long a server may take to boot (graph generation, recovery, paging).
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// One blocking line-protocol connection. Deliberately not the repository's
/// `LineClient`, so client-side changes there cannot move these numbers.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request and returns its one-line reply.
    pub fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// A request whose reply must be a JSON object without an `error` field.
    pub fn request_json(&mut self, request: &str) -> Result<Json, String> {
        let reply = self
            .round_trip(request)
            .map_err(|e| format!("`{}`: {e}", request.trim_end()))?;
        let json = Json::parse(reply)?;
        if json.get("error").is_some() {
            return Err(format!("`{}` failed: {reply}", request.trim_end()));
        }
        Ok(json)
    }

    /// The process-wide kernel walk-pair counter from a `metrics` scrape.
    pub fn walk_pairs(&mut self) -> Result<u64, String> {
        self.writer
            .write_all(b"metrics\n")
            .map_err(|e| e.to_string())?;
        let mut value = None;
        loop {
            self.line.clear();
            if self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err("server closed the connection mid-scrape".into());
            }
            let line = self.line.trim_end();
            if line == "# EOF" {
                break;
            }
            if let Some(rest) = line.strip_prefix("simrank_kernel_walk_pairs_total ") {
                value = rest.trim().parse().ok();
            }
        }
        value.ok_or_else(|| "scrape has no simrank_kernel_walk_pairs_total".to_string())
    }
}

/// A `simrank-serve` child process. Dropping it kills a still-running child.
pub struct Server {
    pub name: String,
    pub addr: String,
    child: Option<Child>,
    log: PathBuf,
}

impl Server {
    /// Starts `simrank-serve <args> --listen 127.0.0.1:0` and waits until it
    /// reports its address.
    pub fn spawn(
        binary: &Path,
        name: &str,
        args: &[String],
        run_dir: &Path,
        tmpdir: &Path,
    ) -> Result<Server, String> {
        let addr_file = run_dir.join(format!("{name}.addr"));
        let log = run_dir.join(format!("{name}.log"));
        let _ = fs::remove_file(&addr_file);
        let child = Command::new(binary)
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .env("TMPDIR", tmpdir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut server = Server {
            name: name.to_string(),
            addr: String::new(),
            child: Some(child),
            log,
        };
        let start = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(status) = server.child_mut().try_wait().map_err(|e| e.to_string())? {
                server.child = None;
                return Err(format!(
                    "{name} exited at boot ({status}): {}",
                    server.log_tail()
                ));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(format!("{name} did not listen within {BOOT_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("server already reaped")
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> Result<u64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{}: no VmHWM", self.name))
    }

    /// Asks the server to drain over the protocol and waits for a clean exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        if self.child.is_none() {
            return Ok(());
        }
        let acked = Conn::connect(&self.addr)
            .and_then(|mut c| c.round_trip("shutdown\n").map(|_| ()))
            .is_ok();
        let start = Instant::now();
        loop {
            if let Some(status) = self.child_mut().try_wait().map_err(|e| e.to_string())? {
                self.child = None;
                return match (acked, status.success()) {
                    (true, true) => Ok(()),
                    _ => Err(format!(
                        "{} exited badly ({status}): {}",
                        self.name,
                        self.log_tail()
                    )),
                };
            }
            if start.elapsed() > EXIT_TIMEOUT {
                self.kill();
                return Err(format!(
                    "{} did not exit within {EXIT_TIMEOUT:?}",
                    self.name
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn log_tail(&self) -> String {
        let text = fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Minor page faults taken so far by the calling thread.
pub fn thread_minor_faults() -> u64 {
    // Fields after the `(comm)` group start at field 3 (state); minflt is 10.
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Copies a flat directory (a store data dir has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// FNV-1a over every file of a flat directory, in name order.
pub fn dir_digest(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let mut digest = Fnv::new();
    for path in names {
        digest.add(path.file_name().unwrap_or_default().as_encoded_bytes());
        digest.add(&fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(digest.0)
}

/// 64-bit FNV-1a, for reply and data-dir digests.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

//! A minimal blocking client session for the newline-framed line protocol.
//!
//! One implementation shared by `simrank-client`, the end-to-end tests, and
//! the network demo, so a framing change cannot silently drift between
//! them.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use exactsim_obs::fault;

/// Evaluates a network fault site, mapping an injected failure onto the
/// `io::Error` the real operation would have produced.
fn injected(site: &str) -> io::Result<()> {
    match fault::check(site) {
        Some(_) => Err(fault::injected_io_error(site)),
        None => Ok(()),
    }
}

/// A blocking line-protocol session over one TCP connection: send one
/// request line, read one JSON reply line (see [`crate::protocol`] for the
/// grammar and [`crate::net`] for the framing).
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl LineClient {
    /// Connects to a `simrank-serve --listen` server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<LineClient> {
        injected(fault::sites::NET_CONNECT)?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// [`LineClient::connect`] with explicit connect and read deadlines, for
    /// callers that must answer *something* when a server is down rather
    /// than block — the router treats either timeout as a
    /// `shard_unavailable` condition. A `read_timeout` of `None` keeps reads
    /// blocking.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        read_timeout: Option<Duration>,
    ) -> io::Result<LineClient> {
        injected(fault::sites::NET_CONNECT)?;
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(read_timeout)?;
                    return Ok(LineClient {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: BufWriter::new(stream),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Replaces the read deadline for every later reply; `None` makes reads
    /// block.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line (the newline is appended here).
    pub fn send(&mut self, request: &str) -> io::Result<()> {
        injected(fault::sites::NET_WRITE)?;
        writeln!(self.writer, "{request}")?;
        self.writer.flush()
    }

    /// Reads one reply line, without sending anything first — capacity
    /// rejections arrive proactively, before any request.
    /// [`io::ErrorKind::UnexpectedEof`] means the server closed the
    /// connection.
    pub fn receive(&mut self) -> io::Result<String> {
        injected(fault::sites::NET_READ)?;
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            _ => Ok(line.trim_end().to_string()),
        }
    }

    /// Sends one request and reads its one-line reply.
    pub fn round_trip(&mut self, request: &str) -> io::Result<String> {
        self.send(request)?;
        self.receive()
    }

    /// Sends one request and reads a multi-line reply up to (and including)
    /// the line equal to `terminator`. The protocol's only multi-line reply
    /// is `metrics`, whose Prometheus payload ends with a `# EOF` line:
    ///
    /// ```no_run
    /// # let mut client = exactsim_service::net::LineClient::connect("127.0.0.1:7878").unwrap();
    /// let scrape = client.round_trip_multi("metrics", "# EOF").unwrap();
    /// assert!(scrape.ends_with("# EOF\n"));
    /// ```
    pub fn round_trip_multi(&mut self, request: &str, terminator: &str) -> io::Result<String> {
        self.send(request)?;
        let mut payload = String::new();
        loop {
            let line = self.receive()?;
            payload.push_str(&line);
            payload.push('\n');
            if line == terminator {
                return Ok(payload);
            }
        }
    }
}

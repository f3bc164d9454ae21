//! The spawned `netuncert_serve` process and the client side of its wire.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use netuncert_serve::frame::{self, BINARY_MAGIC};
use netuncert_serve::protocol::{Request, RequestBody, Response};
use serde::Deserialize;

use crate::inputs::{Framing, Item};

/// How long a drained service may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(20);

/// The largest binary reply accepted before allocating for it.
const MAX_REPLY: usize = 1 << 24;

/// A running service. Dropping it kills and reaps the process, so no path
/// out of the benchmark leaves it behind.
pub struct Service {
    child: Option<Child>,
    /// Held so the service never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: String,
}

impl Service {
    /// Spawns the service on an ephemeral port and waits for its
    /// `listening on <addr>` banner.
    pub fn spawn(path: &Path) -> Result<Service, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let service = Service {
            child: Some(child),
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(service),
            _ => Err(format!("unexpected service banner {banner:?}")),
        }
    }

    /// Drains the service with a `Shutdown` request and reports whether it
    /// exited with status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr, Framing::Json).map_err(|e| e.to_string())?;
        conn.call(RequestBody::Shutdown)?;
        drop(conn);
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("service exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("service did not exit after Shutdown".into());
                }
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection in either framing.
pub struct Conn {
    framing: Framing,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    /// Connects, negotiating the binary framing with its magic byte.
    pub fn open(addr: &str, framing: Framing) -> std::io::Result<Conn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        if framing == Framing::Binary {
            writer.write_all(&[BINARY_MAGIC])?;
        }
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            framing,
            writer,
            reader,
            reply: Vec::new(),
        })
    }

    /// This connection's framing.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Writes pre-encoded request bytes and reads one reply into an
    /// internal buffer; returns the reply (JSON line without its newline,
    /// or a binary payload). The caller times this call.
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<&[u8]> {
        self.exchange(wire, None)
    }

    /// [`round_trip`](Conn::round_trip) that also records when the request
    /// was written, when the first reply bytes arrived, and when the last
    /// did.
    pub fn round_trip_traced(&mut self, wire: &[u8]) -> std::io::Result<(&[u8], [Instant; 3])> {
        let mut spans = [Instant::now(); 3];
        let reply = self.exchange(wire, Some(&mut spans))?;
        Ok((reply, spans))
    }

    fn exchange(
        &mut self,
        wire: &[u8],
        mut spans: Option<&mut [Instant; 3]>,
    ) -> std::io::Result<&[u8]> {
        self.writer.write_all(wire)?;
        if let Some(s) = spans.as_deref_mut() {
            s[0] = Instant::now();
        }
        self.reply.clear();
        match self.framing {
            Framing::Json => {
                if let Some(s) = spans.as_deref_mut() {
                    self.reader.fill_buf()?;
                    s[1] = Instant::now();
                }
                if self.reader.read_until(b'\n', &mut self.reply)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                if self.reply.last() == Some(&b'\n') {
                    self.reply.pop();
                }
            }
            Framing::Binary => {
                let mut header = [0u8; 4];
                self.reader.read_exact(&mut header)?;
                if let Some(s) = spans.as_deref_mut() {
                    s[1] = Instant::now();
                }
                let len = u32::from_le_bytes(header) as usize;
                if len > MAX_REPLY {
                    return Err(std::io::ErrorKind::InvalidData.into());
                }
                self.reply.resize(len, 0);
                self.reader.read_exact(&mut self.reply)?;
            }
        }
        if let Some(s) = spans {
            s[2] = Instant::now();
        }
        Ok(&self.reply)
    }

    /// An untimed typed call, for the admin verbs around the timed phase.
    pub fn call(&mut self, body: RequestBody) -> Result<Response, String> {
        let item = Item::encode(Request { id: 0, body }, Some(self.framing));
        let framing = self.framing;
        let reply = self
            .round_trip(item.wire(framing))
            .map_err(|e| format!("admin call: {e}"))?
            .to_vec();
        parse_reply(framing, &reply)
    }
}

/// Decodes one reply in `framing` into a typed response.
pub fn parse_reply(framing: Framing, reply: &[u8]) -> Result<Response, String> {
    match framing {
        Framing::Json => {
            let line = std::str::from_utf8(reply).map_err(|e| e.to_string())?;
            serde_json::from_str::<Response>(line).map_err(|e| format!("bad reply: {e}"))
        }
        Framing::Binary => {
            let value = frame::decode_value(reply).map_err(|e| e.to_string())?;
            Response::from_value(&value).map_err(|e| format!("bad reply: {e}"))
        }
    }
}

/// Spawns the service and times spawn → first answered request (a
/// `Stats`), the per-service set-up cost.
pub fn spawn_timed(path: &Path) -> Result<(Service, Duration), String> {
    let stats = Item::encode(
        Request {
            id: 0,
            body: RequestBody::Stats,
        },
        Some(Framing::Json),
    );
    let start = Instant::now();
    let service = Service::spawn(path)?;
    let mut conn = Conn::open(&service.addr, Framing::Json).map_err(|e| e.to_string())?;
    conn.round_trip(stats.wire(Framing::Json))
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = start.elapsed();
    Ok((service, elapsed))
}

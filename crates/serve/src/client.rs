//! A minimal blocking client for the service's wire, in either framing.
//!
//! One [`Client`] owns one connection. [`Client::connect`] speaks the
//! classic newline-delimited JSON; [`Client::connect_binary`] opens with
//! the [`BINARY_MAGIC`] byte and speaks length-prefixed binary frames
//! ([`crate::frame`]) instead. Requests are written one at a time and
//! responses read back in order — the service guarantees per-connection
//! ordering, so a blocking call-and-wait client needs no correlation
//! machinery beyond the echoed request `id`.
//!
//! Both framings expose the same [`call_line`](Client::call_line)
//! primitive over canonical JSON lines: a binary client re-encodes the
//! line as a frame on the way out and re-serialises the decoded response
//! on the way back, so the replay harness can diff the two framings (and
//! direct in-process calls) byte-for-byte.
//!
//! For callers that talk to the service repeatedly from short-lived scopes
//! (harness drivers, sweep shards), [`ClientPool`] keeps a bounded set of
//! idle connections and hands them back out instead of reconnecting per
//! call — the session verbs in particular reward staying on one warm
//! connection.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::frame::{Framing, MessageReader, Step, BINARY_MAGIC};
use crate::protocol::{Limits, Request, RequestBody, Response};

/// A blocking connection to a running `netuncert_serve` instance.
pub struct Client {
    writer: TcpStream,
    reader: MessageReader<BufReader<TcpStream>>,
    next_id: u64,
}

/// Errors a client call can hit: transport trouble or an unparseable
/// response line (a healthy service never produces the latter).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, write, read, or early EOF).
    Io(std::io::Error),
    /// The response line did not decode as a [`Response`].
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::BadResponse(line) => {
                write!(f, "response line did not parse: {line}")
            }
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:4700"`) speaking
    /// newline-delimited JSON.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, Framing::Json)
    }

    /// Connects to `addr` and negotiates the binary framing by sending the
    /// magic byte before anything else.
    pub fn connect_binary<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let mut client = Client::connect_with(addr, Framing::Binary)?;
        client.writer.write_all(&[BINARY_MAGIC])?;
        client.writer.flush()?;
        Ok(client)
    }

    fn connect_with<A: ToSocketAddrs>(addr: A, framing: Framing) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        // Request lines are small and latency-bound; never wait on Nagle.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader: MessageReader::new(reader, framing, Limits::default().max_line_bytes),
            next_id: 1,
        })
    }

    /// Sends one request body and blocks for its response. Request ids are
    /// assigned sequentially per connection. A binary client round-trips
    /// the typed values directly — no JSON text on the wire at all.
    pub fn call(&mut self, body: RequestBody) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_typed(&Request { id, body })
    }

    /// Sends one pre-serialised request line and returns the raw response
    /// line (no trailing newline). This is the byte-level primitive the
    /// replay harness diffs against direct engine calls — a binary client
    /// carries the same JSON value through the compact framing and
    /// re-serialises the answer, so both framings return identical lines
    /// for identical requests.
    pub fn call_line(&mut self, line: &str) -> Result<String, ClientError> {
        match self.reader.framing() {
            Framing::Json => {
                Framing::Json.write(&mut self.writer, line.as_bytes())?;
                let reply = String::from_utf8_lossy(self.reply()?);
                Ok(reply.trim_end_matches(['\n', '\r']).to_string())
            }
            Framing::Binary => {
                let request = serde_json::from_str::<Request>(line)
                    .map_err(|_| ClientError::BadResponse(line.to_string()))?;
                let response = self.call_typed(&request)?;
                Ok(serde_json::to_string(&response).expect("wire types always serialise"))
            }
        }
    }

    /// One typed round trip in this connection's framing.
    fn call_typed(&mut self, request: &Request) -> Result<Response, ClientError> {
        let framing = self.reader.framing();
        framing.write(&mut self.writer, &framing.encode(request))?;
        let reply = self.reply()?;
        framing.decode(reply).map_err(ClientError::BadResponse)
    }

    /// Blocks for the next whole reply message.
    fn reply(&mut self) -> Result<&[u8], ClientError> {
        let (kind, why) = loop {
            match self.reader.step()? {
                Step::Message => return Ok(self.reader.message()),
                Step::Pending => {}
                Step::Oversize => break (ErrorKind::InvalidData, "reply exceeds the frame cap"),
                Step::Eof => break (ErrorKind::UnexpectedEof, "service closed the connection"),
            }
        };
        Err(ClientError::Io(std::io::Error::new(kind, why)))
    }
}

/// A bounded pool of reusable connections to one service address.
///
/// [`get`](ClientPool::get) pops an idle connection (or dials a fresh one)
/// and returns it wrapped in a [`PooledClient`] guard; dropping the guard
/// puts the connection back on the idle list, up to `max_idle`. The wire is
/// strictly call-and-wait per connection, so a returned connection is
/// always at a frame boundary and safe to reuse — **except** after a
/// transport error, where the stream may be mid-frame: discard the guard
/// with [`PooledClient::discard`] instead of dropping it, and the
/// connection dies with it.
pub struct ClientPool {
    addr: String,
    binary: bool,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
}

impl ClientPool {
    /// A pool of newline-delimited JSON connections to `addr`, keeping at
    /// most `max_idle` idle connections alive.
    pub fn json(addr: impl Into<String>, max_idle: usize) -> Self {
        ClientPool {
            addr: addr.into(),
            binary: false,
            idle: Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// The binary-framing variant of [`json`](ClientPool::json).
    pub fn binary(addr: impl Into<String>, max_idle: usize) -> Self {
        ClientPool {
            addr: addr.into(),
            binary: true,
            idle: Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// Checks a connection out: an idle one if available, else a fresh
    /// dial.
    pub fn get(&self) -> Result<PooledClient<'_>, ClientError> {
        let reused = self.idle.lock().expect("pool lock poisoned").pop();
        let client = match reused {
            Some(client) => client,
            None if self.binary => Client::connect_binary(&self.addr)?,
            None => Client::connect(&self.addr)?,
        };
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }

    /// Idle connections currently parked in the pool.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("pool lock poisoned").len()
    }

    fn put_back(&self, client: Client) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < self.max_idle {
            idle.push(client);
        }
        // Over the cap: the connection drops here and closes.
    }
}

/// A checked-out pool connection; derefs to [`Client`]. Dropping it returns
/// the connection to the pool.
pub struct PooledClient<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl PooledClient<'_> {
    /// Consumes the guard *without* returning the connection to the pool.
    /// Use after a transport error, when the stream may no longer sit at a
    /// frame boundary.
    pub fn discard(mut self) {
        self.client = None;
    }
}

impl Deref for PooledClient<'_> {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("client present until drop")
    }
}

impl DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("client present until drop")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            self.pool.put_back(client);
        }
    }
}

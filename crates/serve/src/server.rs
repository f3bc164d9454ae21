//! The resident TCP service: listener, bounded job queue, fixed worker
//! pool, graceful drain.
//!
//! Architecture: one acceptor (the thread inside [`Server::run`]), one
//! lightweight reader thread per connection, and a **fixed pool** of worker
//! threads that do all engine work. Reader threads parse frames and answer
//! three classes of request themselves — parse failures, `Stats`/`Shutdown`
//! and validation errors, and any compute request whose compiled policy the
//! worker's own walk answers from the warm tier alone (the warm-only probe,
//! `ServeState::try_handle_fast`) — and enqueue everything else on a
//! **depth-capped** queue the workers share. A request that finds the queue
//! full is rejected immediately with a typed
//! [`ErrorKind::Busy`] carrying the
//! observed depth and the cap: under overload the service answers `Busy`
//! promptly and keeps serving cached requests through the reader fast path,
//! instead of queueing without bound behind the slow work.
//!
//! Framing is negotiated per connection by the first byte: a client that
//! opens with [`BINARY_MAGIC`] speaks length-prefixed binary frames
//! ([`crate::frame`]) for the rest of the connection; anything else is the
//! classic newline-delimited JSON. Both framings carry the same wire types
//! and produce identical decoded answers.
//!
//! Graceful shutdown: a `Shutdown` request flips the draining flag (its
//! connection gets an ack first). The acceptor wakes via a self-connect,
//! stops accepting, and waits for every connection reader — which notice
//! the flag through a short read timeout. A reader that is **mid-frame**
//! when the flag flips does not silently drop the started request: it
//! grants the peer a few more poll ticks to finish the frame (a completed
//! frame is answered normally — by then with a typed `Shutdown` error from
//! the draining gate), and if the frame still has not completed it answers
//! with a typed `Shutdown` error itself before closing. When the last
//! reader exits the queue closes, the workers drain what is queued and
//! exit, and [`Server::run`] returns `Ok(())` — the binary's exit 0.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;

use netuncert_core::obs::{elapsed_ns, Gauge};

use crate::compile::BuiltRequest;
use crate::frame::{self, BINARY_MAGIC};
use crate::protocol::{ErrorKind, Response, ResponseBody, WireError};
use crate::state::{ServeConfig, ServeState};

/// How often an idle connection reader wakes to check the draining flag.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// Extra [`DRAIN_POLL`] ticks a reader grants an already-started frame
/// once draining begins, before answering it with a typed `Shutdown` error
/// and closing.
const DRAIN_GRACE_TICKS: u32 = 3;

/// One unit of work for the pool: a built request (the very one the
/// reader's fast-path probe ran on — nothing is decoded or hashed again)
/// plus the channel that hands the finished response back to the
/// connection's reader thread.
struct Job {
    request: BuiltRequest,
    reply: Sender<Response>,
    /// When the reader pushed this job — the start of its queue wait.
    enqueued: Instant,
}

/// Why a [`JobQueue::push`] was refused.
enum PushError {
    /// The queue held `.0` jobs, at or over its cap — the back-pressure
    /// rejection.
    Full(usize),
    /// The queue is closed (late drain); the job is handed back so the
    /// reader can run it inline.
    Closed(Box<Job>),
}

/// The depth-capped job queue the readers feed and the workers drain.
/// `push` never blocks — admission control happens at the door, so a
/// rejected request learns its fate immediately instead of queueing behind
/// the very overload it is part of.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
    /// Mirrors the live depth into `serve.queue_depth`; updated under the
    /// queue lock so the gauge never observes a torn transition.
    depth: Arc<Gauge>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    /// Admits a job if there is room, else reports `Full` with the observed
    /// depth (or `Closed` with the job handed back).
    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed(Box::new(job)));
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full(inner.jobs.len()));
        }
        inner.jobs.push_back(job);
        self.depth.set(inner.jobs.len() as u64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed **and**
    /// drained, which is a worker's signal to exit.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().ok()?;
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                self.depth.set(inner.jobs.len() as u64);
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).ok()?;
        }
    }

    /// Closes the queue: queued jobs still drain, new pushes get `Closed`.
    fn close(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.closed = true;
        }
        self.ready.notify_all();
    }
}

/// A bound service, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
    queue_depth: usize,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) with the given
    /// configuration.
    pub fn bind(addr: &str, config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServeState::new(config)),
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
        })
    }

    /// The actually bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine-side state (shared; useful for in-process tests).
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Serves until a `Shutdown` request has drained the service. Blocks.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let queue = Arc::new(JobQueue::new(
            self.queue_depth,
            Arc::clone(&self.state.obs().queue_depth),
        ));
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || worker_loop(&state, &queue))
            })
            .collect();

        let live_readers = Arc::clone(&self.state.obs().readers);
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.state.draining() {
                break;
            }
            // Readers whose connection closed have exited: drop their
            // handles, so the acceptor holds one per live connection rather
            // than one per connection ever accepted.
            readers.retain(|reader| !reader.is_finished());
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            let queue = Arc::clone(&queue);
            let addr_copy = addr;
            let live = LiveReader::enter(&live_readers);
            readers.push(std::thread::spawn(move || {
                let _live = live;
                connection_loop(stream, &state, &queue, addr_copy);
            }));
        }
        for reader in readers {
            let _ = reader.join();
        }
        // All readers are gone, so nothing can push any more: close the
        // queue, let the workers drain what is left, and join them.
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Counts one connection reader in `serve.readers` from its spawn until its
/// thread ends (unwinding included).
struct LiveReader(Arc<Gauge>);

impl LiveReader {
    fn enter(gauge: &Arc<Gauge>) -> Self {
        gauge.add(1);
        LiveReader(Arc::clone(gauge))
    }
}

impl Drop for LiveReader {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A worker: pull one job, run it through the engine state, send the
/// response back. Exits when the queue closes (all readers gone).
///
/// The queue only ever holds compute verbs (the reader fast path always
/// answers admin verbs itself), so the wait/service histograms here — plus
/// the fast-path and inline records in [`respond`] — together count exactly
/// the compute requests the service answered.
fn worker_loop(state: &ServeState, queue: &JobQueue) {
    let obs = state.obs();
    while let Some(job) = queue.pop() {
        obs.queue_wait.record(elapsed_ns(job.enqueued));
        obs.busy_workers.add(1);
        let service_start = Instant::now();
        let response = state.handle_built(job.request);
        obs.service.record(elapsed_ns(service_start));
        obs.busy_workers.sub(1);
        // The reader may have hung up (client gone) — fine, drop the reply.
        let _ = job.reply.send(response);
    }
}

/// Answers one built request from a reader thread: the warm fast path if
/// it applies, else the bounded queue — with a typed `Busy` rejection when
/// the queue is full, and an inline evaluation when the pool is already
/// gone (late drain). Requests that need engine work (compute verbs,
/// `Upload`, `Edit`) are the ones the queue-wait/service histograms count.
fn respond(state: &ServeState, queue: &JobQueue, request: BuiltRequest) -> Response {
    let obs = state.obs();
    let received = Instant::now();
    let compute = request.is_compute();
    let request = match state.try_handle_fast(request) {
        Ok(response) => {
            obs.admit_fast.incr(1);
            if compute {
                // A fast-path answer never queued: zero wait, and its whole
                // cost is service time.
                obs.queue_wait.record(0);
                obs.service.record(elapsed_ns(received));
            }
            return response;
        }
        Err(punted) => *punted,
    };
    let id = request.id;
    let (reply_tx, reply_rx) = channel();
    match queue.push(Job {
        request,
        reply: reply_tx,
        enqueued: Instant::now(),
    }) {
        Ok(()) => {
            obs.admit_queued.incr(1);
            reply_rx.recv().unwrap_or_else(|_| Response {
                id,
                body: ResponseBody::Error(WireError::new(
                    ErrorKind::Engine,
                    "the worker handling this request died before answering",
                )),
            })
        }
        Err(PushError::Full(depth)) => {
            // The only tally of a rejection (`Stats.rejected` reads it).
            obs.admit_busy.incr(1);
            Response {
                id,
                body: ResponseBody::Error(WireError::busy(depth, queue.capacity)),
            }
        }
        Err(PushError::Closed(job)) => {
            // Late drain: the pool is gone, so the reader evaluates the job
            // inline. Its wait is however long the failed push took.
            obs.admit_inline.incr(1);
            obs.queue_wait.record(elapsed_ns(job.enqueued));
            let service_start = Instant::now();
            let response = state.handle_built(job.request);
            obs.service.record(elapsed_ns(service_start));
            response
        }
    }
}

/// The typed answer for a frame that was started but never completed by
/// the time the drain grace ran out.
fn drain_abandoned_response() -> Response {
    Response {
        id: 0,
        body: ResponseBody::Error(WireError::new(
            ErrorKind::Shutdown,
            "service is draining and the in-flight frame never completed",
        )),
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One connection: sniff the first byte to pick the framing, then serve
/// frames until the client closes, the service drains, or the connection
/// poisons itself (oversize line). A `Shutdown` request is acked and then
/// this connection closes; an over-long frame gets a typed `Oversize`
/// error and also closes (the stream can no longer be framed), leaving
/// every other connection and the pool untouched.
fn connection_loop(
    stream: TcpStream,
    state: &ServeState,
    queue: &JobQueue,
    server_addr: SocketAddr,
) {
    // Response frames are small and latency-bound; never wait on Nagle.
    let _ = stream.set_nodelay(true);
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(DRAIN_POLL));
    let mut writer = stream;
    // Framing sniff: peek (not read) the first byte, honouring draining
    // while the connection sits idle before its first request.
    let mut first = [0u8; 1];
    loop {
        match read_half.peek(&mut first) {
            Ok(0) => return, // client closed without sending anything
            Ok(_) => break,
            Err(e) if is_timeout(&e) => {
                if state.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if first[0] == BINARY_MAGIC {
        // Consume the sniffed magic byte; it is already buffered, so this
        // cannot block.
        let mut magic = [0u8; 1];
        if !matches!(read_half.read(&mut magic), Ok(1)) {
            return;
        }
        binary_loop(read_half, state, queue, &mut writer, server_addr);
    } else {
        json_loop(
            BufReader::new(read_half),
            state,
            queue,
            &mut writer,
            server_addr,
        );
    }
}

/// The newline-delimited JSON framing loop.
fn json_loop(
    mut reader: BufReader<TcpStream>,
    state: &ServeState,
    queue: &JobQueue,
    writer: &mut TcpStream,
    server_addr: SocketAddr,
) {
    let max_line = state.limits().max_line_bytes;
    let mut line = String::new();
    let mut grace = 0u32;
    loop {
        // `take` caps the bytes one frame may consume; timeouts leave the
        // partial line in `line` and the loop resumes it.
        let read = (&mut reader)
            .take((max_line + 1) as u64)
            .read_line(&mut line);
        match read {
            Ok(0) => return, // client closed
            Ok(_) if line.len() > max_line && !line.ends_with('\n') => {
                let reply = state.handle_oversize_line();
                let _ = write_line(writer, &reply);
                return;
            }
            Ok(_) if !line.ends_with('\n') => {
                // take() hit its cap exactly at a frame boundary case or the
                // peer sent EOF without a newline: treat as a final frame.
                let done = dispatch_line(state, queue, writer, &line);
                line.clear();
                if done {
                    let _ = wake_acceptor(server_addr);
                }
                return; // EOF after an unterminated line
            }
            Ok(_) => {
                grace = 0;
                let done = dispatch_line(state, queue, writer, &line);
                line.clear();
                if done {
                    // The shutdown ack is written; unblock the acceptor so
                    // run() can stop accepting and join everyone.
                    let _ = wake_acceptor(server_addr);
                    return;
                }
            }
            Err(e) if is_timeout(&e) => {
                if !state.draining() {
                    continue;
                }
                if line.is_empty() {
                    return; // idle connection: drain closes it silently
                }
                // A frame is in flight: let the peer finish it for a few
                // more ticks, then answer it as abandoned rather than
                // dropping it without a word.
                grace += 1;
                if grace > DRAIN_GRACE_TICKS {
                    let encoded = serde_json::to_string(&drain_abandoned_response())
                        .expect("wire types always serialise");
                    let _ = write_line(writer, &encoded);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Decodes one line, answers it (fast path, queue, or typed parse error),
/// writes the response line. Returns `true` when the service is draining
/// (connection closes).
fn dispatch_line(state: &ServeState, queue: &JobQueue, writer: &mut TcpStream, line: &str) -> bool {
    let response = match state.compile_line(line) {
        Ok(request) => respond(state, queue, request),
        Err(parse_error) => *parse_error,
    };
    let encoded = serde_json::to_string(&response).expect("wire types always serialise");
    let _ = write_line(writer, &encoded);
    state.draining()
}

/// How one polled read ended.
enum PollRead {
    /// The buffer was filled.
    Filled,
    /// The peer closed (possibly mid-buffer — the connection is gone either
    /// way).
    Eof,
    /// Draining fired. `mid_frame` says whether a frame had been started
    /// (the grace ticks are exhausted) or the connection was simply idle.
    Drained { mid_frame: bool },
    /// A hard I/O error.
    Failed,
}

/// Fills `buf` from short timeout-bounded reads, honouring the draining
/// flag between them: an idle connection closes silently, a started frame
/// (`frame_started`, or any byte of `buf` already read) gets
/// [`DRAIN_GRACE_TICKS`] extra polls to complete before being abandoned.
fn read_poll(
    reader: &mut TcpStream,
    buf: &mut [u8],
    state: &ServeState,
    frame_started: bool,
) -> PollRead {
    let mut at = 0;
    let mut grace = 0u32;
    while at < buf.len() {
        match reader.read(&mut buf[at..]) {
            Ok(0) => return PollRead::Eof,
            Ok(n) => {
                at += n;
                grace = 0;
            }
            Err(e) if is_timeout(&e) => {
                if !state.draining() {
                    continue;
                }
                if !frame_started && at == 0 {
                    return PollRead::Drained { mid_frame: false };
                }
                grace += 1;
                if grace > DRAIN_GRACE_TICKS {
                    return PollRead::Drained { mid_frame: true };
                }
            }
            Err(_) => return PollRead::Failed,
        }
    }
    PollRead::Filled
}

/// The length-prefixed binary framing loop ([`crate::frame`]).
fn binary_loop(
    mut reader: TcpStream,
    state: &ServeState,
    queue: &JobQueue,
    writer: &mut TcpStream,
    server_addr: SocketAddr,
) {
    let max_len = state.limits().max_line_bytes;
    loop {
        let mut header = [0u8; 4];
        match read_poll(&mut reader, &mut header, state, false) {
            PollRead::Filled => {}
            PollRead::Drained { mid_frame: true } => {
                let _ = write_binary_response(writer, &drain_abandoned_response());
                return;
            }
            PollRead::Eof | PollRead::Drained { mid_frame: false } | PollRead::Failed => return,
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > max_len {
            // Mirrors the JSON loop's oversize contract: typed error, then
            // close (the stream could still be framed, but the peer is
            // violating the cap — same policy on both framings).
            let _ = write_binary_response(writer, &state.oversize_response());
            return;
        }
        let mut payload = vec![0u8; len];
        match read_poll(&mut reader, &mut payload, state, true) {
            PollRead::Filled => {}
            PollRead::Drained { .. } => {
                let _ = write_binary_response(writer, &drain_abandoned_response());
                return;
            }
            PollRead::Eof | PollRead::Failed => return,
        }
        let response = match state.compile_frame(&payload) {
            Ok(request) => respond(state, queue, request),
            Err(parse_error) => *parse_error,
        };
        if write_binary_response(writer, &response).is_err() {
            return;
        }
        if state.draining() {
            let _ = wake_acceptor(server_addr);
            return;
        }
    }
}

/// Writes one response as a binary frame.
fn write_binary_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let payload = frame::encode_value(&response.to_value());
    frame::write_frame(writer, &payload)
}

/// Writes one response line as a single buffer (one packet on loopback).
fn write_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(response.len() + 1);
    buf.extend_from_slice(response.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// Self-connects to the acceptor so its blocking `accept` wakes up and
/// observes the draining flag.
fn wake_acceptor(addr: SocketAddr) -> std::io::Result<()> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
    drop(stream);
    Ok(())
}

impl ServeState {
    /// The typed reply for a line that exceeded the framing cap.
    pub(crate) fn handle_oversize_line(&self) -> String {
        serde_json::to_string(&self.oversize_response()).expect("wire types always serialise")
    }

    /// The typed response for a frame that exceeded the framing cap.
    pub(crate) fn oversize_response(&self) -> Response {
        Response {
            id: 0,
            body: ResponseBody::Error(WireError::new(
                ErrorKind::Oversize,
                format!(
                    "request line exceeds the {}-byte cap",
                    self.limits().max_line_bytes
                ),
            )),
        }
    }
}

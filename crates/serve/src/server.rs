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
//! opens with [`BINARY_MAGIC`](crate::frame::BINARY_MAGIC) speaks
//! length-prefixed binary frames for the rest of the connection; anything
//! else is the classic newline-delimited JSON. Both framings run through
//! one connection loop: [`crate::frame`] owns the sniff, the capped
//! message cut and the writer, and both carry the same wire types and
//! produce identical decoded answers.
//!
//! Graceful shutdown: a `Shutdown` request flips the draining flag (its
//! connection gets an ack first). The acceptor wakes via a self-connect,
//! stops accepting, and waits for every connection reader — which notice
//! the flag through a short read timeout, or after any read that leaves a
//! message unfinished. A reader that is **mid-frame** when it sees the flag
//! does not silently drop the started request: it grants the peer a fixed
//! grace window to finish the frame (a completed frame is answered
//! normally — by then with a typed `Shutdown` error from the draining
//! gate), and if the frame still has not completed it answers with a typed
//! `Shutdown` error itself before closing. When the last reader exits the
//! queue closes, the workers drain what is queued and exit, and
//! [`Server::run`] returns `Ok(())` — the binary's exit 0.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netuncert_core::obs::{elapsed_ns, Gauge};

use crate::compile::BuiltRequest;
use crate::frame::{Framing, MessageReader, Step};
use crate::protocol::{ErrorKind, Response, ResponseBody, WireError};
use crate::state::{ServeConfig, ServeState};

/// How often an idle connection reader wakes to check the draining flag.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// [`DRAIN_POLL`] ticks a reader grants an already-started frame from the
/// moment it sees the drain, before answering it with a typed `Shutdown`
/// error and closing. Progress on the frame does not extend the grace.
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

/// One connection, in either framing: sniff the first byte, then serve
/// messages until the client closes, the service drains, or the connection
/// poisons itself (an oversize message). A `Shutdown` request is acked and
/// then this connection closes; an oversize message gets a typed
/// `Oversize` error and also closes (the stream can no longer be trusted),
/// leaving every other connection and the pool untouched.
///
/// The drain rule: once the reader sees the draining flag, an idle
/// connection closes silently, and a started message gets
/// [`DRAIN_GRACE_TICKS`] × [`DRAIN_POLL`] from that moment to complete —
/// progress does not extend it — before it is answered with a typed
/// `Shutdown` error. The reader checks after every timeout and after every
/// partial read, so a trickling peer cannot hold the drain open.
fn connection_loop(
    stream: TcpStream,
    state: &ServeState,
    queue: &JobQueue,
    server_addr: SocketAddr,
) {
    // Response frames are small and latency-bound; never wait on Nagle.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(DRAIN_POLL));
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let framing = loop {
        match Framing::sniff(&mut reader) {
            Ok(Some(framing)) => break framing,
            Err(e) if is_timeout(&e) && !state.draining() => {}
            // Closed, failed, or drained before the first byte.
            _ => return,
        }
    };
    let mut messages = MessageReader::new(reader, framing, state.limits().max_line_bytes);
    let mut grace_ends = None;
    loop {
        let step = match messages.step() {
            Ok(step) => step,
            // A timeout is a step without progress.
            Err(e) if is_timeout(&e) => Step::Pending,
            Err(_) => return,
        };
        let response = match step {
            Step::Message => match state.compile(framing, messages.message()) {
                Ok(request) => respond(state, queue, request),
                Err(parse_error) => *parse_error,
            },
            Step::Oversize => state.oversize_response(),
            Step::Eof => return,
            Step::Pending if !state.draining() => continue,
            // An idle connection: the drain closes it silently.
            Step::Pending if !messages.mid_message() => return,
            Step::Pending => {
                let ends = *grace_ends
                    .get_or_insert_with(|| Instant::now() + DRAIN_POLL * DRAIN_GRACE_TICKS);
                if Instant::now() < ends {
                    continue;
                }
                drain_abandoned_response()
            }
        };
        let written = framing.write(&mut writer, &framing.encode(&response));
        if step == Step::Message && state.draining() {
            // The reply is written; unblock the acceptor so run() can stop
            // accepting and join everyone.
            let _ = wake_acceptor(server_addr);
            return;
        }
        if step != Step::Message || written.is_err() {
            return;
        }
    }
}

/// Self-connects to the acceptor so its blocking `accept` wakes up and
/// observes the draining flag.
fn wake_acceptor(addr: SocketAddr) -> std::io::Result<()> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
    drop(stream);
    Ok(())
}

impl ServeState {
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

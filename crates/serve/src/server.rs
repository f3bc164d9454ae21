//! The resident TCP service: listener, compute permits, graceful drain.
//!
//! Architecture: one acceptor (the thread inside [`Server::run`]) and one
//! thread per connection, which reads, answers and writes every request on
//! it. A reader answers three classes of request without engine work —
//! parse failures, `Stats`/`Shutdown` and validation errors, and any
//! compute request whose compiled policy the walk answers from the warm
//! tier alone (the warm-only probe, `ServeState::try_handle_fast`). Every
//! other request runs its engine walk on the reader under a **compute
//! permit**. There are `workers` permits; while every one is held, at most
//! `queue_depth` readers wait for one, admitted in arrival order. The next
//! reader is answered at once with a typed [`ErrorKind::Busy`] carrying
//! the number of waiting readers and the cap: under overload the service
//! answers `Busy` promptly and keeps serving cached requests, which take
//! no permit, instead of waiting without bound behind the slow work. An
//! engine panic costs its request one typed `Engine` error: the permit is
//! released and the connection keeps serving.
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
//! `Shutdown` error itself before closing. When the last reader exits,
//! [`Server::run`] returns `Ok(())` — the binary's exit 0.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netuncert_core::obs::{elapsed_ns, Gauge};

use crate::compile::BuiltRequest;
use crate::frame::{Framing, MessageReader, Step};
use crate::protocol::{ErrorKind, Response, ResponseBody, WireError};
use crate::state::{ObsHandles, ServeConfig, ServeState};

/// How often an idle connection reader wakes to check the draining flag.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// [`DRAIN_POLL`] ticks a reader grants an already-started frame from the
/// moment it sees the drain, before answering it with a typed `Shutdown`
/// error and closing. Progress on the frame does not extend the grace.
const DRAIN_GRACE_TICKS: u32 = 3;

/// The compute admission gate: at most `permits` readers run engine work
/// at once, and while every permit is held at most `capacity` more wait
/// for one, first come, first served: a freed permit goes to the lowest
/// waiting ticket, and an arrival never overtakes a waiter. Refusal never
/// blocks.
struct PermitGate {
    tickets: Mutex<Tickets>,
    freed: Condvar,
    permits: usize,
    capacity: usize,
    /// Waiting readers (`serve.queue_depth`) and held permits
    /// (`serve.busy_workers`), set under the lock so neither gauge
    /// observes a torn transition.
    waiting: Arc<Gauge>,
    held: Arc<Gauge>,
}

#[derive(Default)]
struct Tickets {
    /// Permits held right now.
    held: usize,
    /// The ticket the next waiting reader takes.
    next: u64,
    /// The ticket admitted next; `next - serving` readers wait.
    serving: u64,
}

impl PermitGate {
    fn new(permits: usize, capacity: usize, obs: &ObsHandles) -> Self {
        PermitGate {
            tickets: Mutex::new(Tickets::default()),
            freed: Condvar::new(),
            permits: permits.max(1),
            capacity: capacity.max(1),
            waiting: Arc::clone(&obs.queue_depth),
            held: Arc::clone(&obs.busy_workers),
        }
    }

    /// Only counter arithmetic runs under the lock, so the tickets stay
    /// valid across a panic, and a permit dropped while unwinding returns.
    fn lock(&self) -> MutexGuard<'_, Tickets> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a permit, first waiting behind every earlier waiter if all
    /// permits are held. `Err(depth)` refuses the reader without waiting
    /// when `depth` (= `capacity`) readers already wait.
    fn acquire(&self) -> Result<Permit<'_>, usize> {
        let mut tickets = self.lock();
        let ahead = tickets.next - tickets.serving;
        if ahead > 0 || tickets.held == self.permits {
            if ahead >= self.capacity as u64 {
                return Err(ahead as usize);
            }
            let ticket = tickets.next;
            tickets.next += 1;
            self.waiting.set(tickets.next - tickets.serving);
            while tickets.serving != ticket || tickets.held == self.permits {
                tickets = self
                    .freed
                    .wait(tickets)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            tickets.serving += 1;
            self.waiting.set(tickets.next - tickets.serving);
        }
        tickets.held += 1;
        self.held.set(tickets.held as u64);
        // Several permits may have come free before this waiter woke: the
        // next ticket may be able to go too.
        let pass_on = tickets.serving != tickets.next && tickets.held < self.permits;
        drop(tickets);
        if pass_on {
            self.freed.notify_all();
        }
        Ok(Permit(self))
    }
}

/// One held compute permit; dropping it, normally or while unwinding,
/// admits the longest waiter.
struct Permit<'a>(&'a PermitGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let gate = self.0;
        let mut tickets = gate.lock();
        tickets.held -= 1;
        gate.held.set(tickets.held as u64);
        let waiters = tickets.serving != tickets.next;
        drop(tickets);
        if waiters {
            gate.freed.notify_all();
        }
    }
}

/// A bound service, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    gate: Arc<PermitGate>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) with the given
    /// configuration.
    pub fn bind(addr: &str, config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServeState::new(config));
        let gate = PermitGate::new(config.workers, config.queue_depth, state.obs());
        Ok(Server {
            listener,
            state,
            gate: Arc::new(gate),
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
            let gate = Arc::clone(&self.gate);
            let live = LiveReader::enter(&live_readers);
            readers.push(std::thread::spawn(move || {
                let _live = live;
                connection_loop(stream, &state, &gate, addr);
            }));
        }
        for reader in readers {
            let _ = reader.join();
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

/// Answers one built request on its reader thread: the warm probe if it
/// applies, else the engine walk under a compute permit ([`run_gated`]).
/// Requests that need engine work (compute verbs, `Upload`, `Edit`) are
/// the ones the permit-wait/service histograms count.
fn respond(state: &ServeState, gate: &PermitGate, request: BuiltRequest) -> Response {
    let obs = state.obs();
    let received = Instant::now();
    let compute = request.is_compute();
    match state.try_handle_fast(request) {
        Ok(response) => {
            obs.admit_fast.incr(1);
            if compute {
                // A warm answer never waited for a permit: zero wait, and
                // its whole cost is service time.
                obs.queue_wait.record(0);
                obs.service.record(elapsed_ns(received));
            }
            response
        }
        Err(punted) => run_gated(state, gate, punted.id, || state.handle_built(*punted)),
    }
}

/// Runs request `id`'s engine work under a permit, or answers a typed
/// `Busy` when every permit is held and the waiting line is full. A panic
/// in `work` becomes a typed `Engine` error, counted in
/// `serve.compute_panics`; the permit is released either way.
fn run_gated(
    state: &ServeState,
    gate: &PermitGate,
    id: u64,
    work: impl FnOnce() -> Response,
) -> Response {
    let obs = state.obs();
    let arrived = Instant::now();
    let permit = match gate.acquire() {
        Ok(permit) => permit,
        Err(depth) => {
            // The only tally of a rejection (`Stats.rejected` reads it).
            obs.admit_busy.incr(1);
            return Response {
                id,
                body: ResponseBody::Error(WireError::busy(depth, gate.capacity)),
            };
        }
    };
    obs.admit_queued.incr(1);
    obs.queue_wait.record(elapsed_ns(arrived));
    let service_start = Instant::now();
    let response = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| {
        obs.compute_panics.incr(1);
        let error = WireError::new(ErrorKind::Engine, "the engine panicked on this request");
        state.finish(id, ResponseBody::Error(error))
    });
    obs.service.record(elapsed_ns(service_start));
    drop(permit);
    response
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
/// leaving every other connection untouched.
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
    gate: &PermitGate,
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
                Ok(request) => respond(state, gate, request),
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

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    use super::*;

    /// A one-permit gate with room for two waiters, on a fresh state whose
    /// gauges the gate publishes into.
    fn one_permit_gate() -> (ServeState, PermitGate) {
        let config = ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let state = ServeState::new(&config);
        let gate = PermitGate::new(config.workers, config.queue_depth, state.obs());
        (state, gate)
    }

    /// Spins until `gauge` reads `value`. The gauges are set under the gate
    /// lock, so this is the synchronisation point; the deadline only turns
    /// a hang into a failure.
    fn until(gauge: &Gauge, value: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge.value() != value {
            assert!(
                Instant::now() < deadline,
                "gauge stuck at {}",
                gauge.value()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_full_line_refuses_the_next_reader_with_its_depth() {
        let (state, gate) = one_permit_gate();
        let obs = state.obs();
        let held = gate.acquire().expect("a free permit");
        std::thread::scope(|scope| {
            let first = scope.spawn(|| drop(gate.acquire().expect("admitted")));
            until(&obs.queue_depth, 1);
            let second = scope.spawn(|| drop(gate.acquire().expect("admitted")));
            until(&obs.queue_depth, 2);
            assert_eq!(gate.acquire().err(), Some(2), "a third waiter is Busy(2)");
            drop(held);
            first.join().expect("first waiter");
            second.join().expect("second waiter");
        });
        assert_eq!(obs.queue_depth.value(), 0);
        assert_eq!(obs.busy_workers.value(), 0);
    }

    #[test]
    fn each_released_permit_admits_the_longest_waiter_even_on_unwind() {
        let (state, gate) = one_permit_gate();
        let obs = state.obs();
        let (admitted_tx, admitted) = channel();
        let held = gate.acquire().expect("a free permit");
        assert_eq!(obs.busy_workers.value(), 1);
        let gate = &gate;
        std::thread::scope(|scope| {
            let (go_first, first_go) = channel::<()>();
            let first_admitted = admitted_tx.clone();
            let first = scope.spawn(move || {
                let permit = gate.acquire().expect("admitted");
                first_admitted.send("first").unwrap();
                first_go.recv().unwrap();
                // Unwinding drops the permit.
                let _permit = permit;
                panic!("a waiter that unwinds while holding its permit");
            });
            until(&obs.queue_depth, 1);
            let (go_second, second_go) = channel::<()>();
            let second = scope.spawn(move || {
                let permit = gate.acquire().expect("admitted");
                admitted_tx.send("second").unwrap();
                second_go.recv().unwrap();
                drop(permit);
            });
            until(&obs.queue_depth, 2);

            // A normal drop admits exactly the first arrival.
            drop(held);
            assert_eq!(admitted.recv().unwrap(), "first");
            assert_eq!(obs.queue_depth.value(), 1, "the second still waits");
            assert_eq!(obs.busy_workers.value(), 1);

            // An unwinding drop admits exactly the next one.
            go_first.send(()).unwrap();
            assert!(first.join().is_err(), "the first waiter unwound");
            assert_eq!(admitted.recv().unwrap(), "second");
            assert_eq!(obs.queue_depth.value(), 0);
            assert_eq!(obs.busy_workers.value(), 1);

            go_second.send(()).unwrap();
            second.join().expect("second waiter");
        });
        assert_eq!(obs.queue_depth.value(), 0);
        assert_eq!(obs.busy_workers.value(), 0);
    }

    #[test]
    fn a_panicking_computation_costs_one_typed_error_and_keeps_the_permit() {
        let (state, gate) = one_permit_gate();
        let registry = state.registry();
        let response = run_gated(&state, &gate, 41, || panic!("injected engine fault"));
        assert_eq!(response.id, 41);
        let ResponseBody::Error(err) = response.body else {
            panic!("expected a typed error, got {response:?}");
        };
        assert_eq!(err.kind, ErrorKind::Engine);
        assert_eq!(registry.counter("serve.compute_panics").value(), 1);
        assert_eq!(registry.counter("serve.replies.error").value(), 1);
        assert_eq!(registry.histogram("serve.queue_wait_ns").count(), 1);
        assert_eq!(registry.histogram("serve.service_ns").count(), 1);
        assert_eq!(state.obs().busy_workers.value(), 0, "the permit came back");

        // The same gate still serves.
        let response = run_gated(&state, &gate, 42, || Response {
            id: 42,
            body: ResponseBody::Shutdown,
        });
        assert!(matches!(response.body, ResponseBody::Shutdown));
        assert_eq!(registry.counter("serve.admit_queued").value(), 2);
        assert_eq!(registry.counter("serve.compute_panics").value(), 1);
    }
}

//! The readiness-driven connection layer (`--io-model event`, Linux).
//!
//! One poll thread owns every socket: the listener, a wakeup pipe, and each
//! client connection, all registered with an `epoll` [`Poller`] (see the
//! `sys` module) and driven by readiness instead of blocking reads. A
//! connection costs one registry entry — ten thousand idle clients are ten
//! thousand [`LineConn`]s, not ten thousand threads. The connections, the
//! accept/refuse step and the deadline sweeps are the `conn` module's,
//! shared with the `sealpaa route` gateway; this loop adds the daemon's
//! dispatch.
//!
//! # Pipelining
//!
//! The poll thread never computes. Each framed request line is triaged by
//! [`classify_event`]; anything needing analysis becomes a [`WorkerPool`]
//! job that sends a [`Completion`] back over an mpsc channel and rouses the
//! poll thread through the wakeup pipe. Because the reader does not wait
//! for the answer, one connection may have many requests in flight (128 at
//! most; past that its reads pause until completions drain). Responses are
//! written in *completion* order, tagged with the client-supplied `id` —
//! pipelined clients must reassemble by `id`, not by position.
//!
//! # Backpressure and deadlines
//!
//! Flow control that the threads model gets from blocking calls is
//! re-expressed as state:
//!
//! * a full pool queue defers jobs to a retry queue instead of blocking the
//!   poll thread (the poll timeout is capped while anything is deferred);
//! * a peer that stops reading accumulates output in its connection buffer;
//!   past 4 MiB its reads pause — the server stops consuming requests from
//!   a client that won't take answers;
//! * idle and write deadlines become poll-timeout arithmetic: the loop
//!   sleeps until the nearest deadline and sweeps expired connections.
//!
//! [`WorkerPool`]: crate::pool::WorkerPool

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::conn::{timeout_ms, Clients, LineConn, LineEvent, TOKEN_LISTENER};
use crate::pool::{Job, TrySubmit};
use crate::protocol::error_response;
use crate::server::{
    classify_event, maybe_persist_snapshot, persist_snapshot, snapshot_due_in, trace_request,
    LineAction, Served, Server, ServerState, Work, IDLE_TIMEOUT,
};
use crate::sys::{Poller, WakePipe, Waker, EPOLLIN};

/// Registration token for the wakeup pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Poll-timeout cap while jobs wait in the deferred queue, so freed pool
/// slots are noticed even without a completion wakeup.
const DEFERRED_RETRY_MS: u64 = 50;

/// A finished worker job on its way back to the poll thread.
struct Completion {
    conn: u64,
    bytes_in: usize,
    served: Served,
}

/// Serves `server` with the event loop until a `shutdown` request drains
/// it. Entry point used by [`Server::run`].
pub(crate) fn run(server: Server) -> io::Result<()> {
    let mut event_loop = EventLoop::new(server)?;
    let result = event_loop.serve();
    // Join the workers *before* the wake pipe drops: worker closures hold
    // `Waker` copies of its write fd, which must not dangle onto a reused
    // descriptor.
    event_loop.state.pool.shutdown();
    result
}

struct EventLoop {
    state: Arc<ServerState>,
    poller: Poller,
    wake: WakePipe,
    waker: Waker,
    tx: mpsc::Sender<Completion>,
    rx: mpsc::Receiver<Completion>,
    clients: Clients,
    /// Jobs the pool queue had no room for, retried in order.
    deferred: VecDeque<Job>,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn new(server: Server) -> io::Result<EventLoop> {
        let Server {
            listener,
            state,
            max_connections,
            idle_timeout,
            write_timeout,
            ..
        } = server;
        let poller = Poller::new()?;
        let clients = Clients::new(
            listener,
            &poller,
            max_connections,
            state.max_line_bytes,
            "server overloaded: connection limit reached, retry later",
        )?;
        let wake = WakePipe::new()?;
        poller.register(wake.read_fd(), TOKEN_WAKE, EPOLLIN)?;
        let waker = wake.waker();
        let (tx, rx) = mpsc::channel();
        Ok(EventLoop {
            state,
            poller,
            wake,
            waker,
            tx,
            rx,
            clients,
            deferred: VecDeque::new(),
            idle_timeout,
            write_timeout,
            scratch: vec![0u8; 64 * 1024],
        })
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut ready = Vec::new();
        loop {
            let timeout = self.poll_timeout_ms(Instant::now());
            self.poller.wait(&mut ready, timeout)?;
            for r in std::mem::take(&mut ready) {
                match r.token {
                    TOKEN_LISTENER => {
                        let (admitted, refused) = self.clients.accept(&self.poller);
                        let metrics = &self.state.metrics;
                        (0..admitted).for_each(|_| metrics.connection_opened());
                        (0..refused).for_each(|_| metrics.record_shed());
                    }
                    TOKEN_WAKE => self.wake.drain(),
                    token => {
                        if r.readable() {
                            self.handle_readable(token);
                        }
                        if r.writable() {
                            self.flush(token);
                        }
                    }
                }
            }
            self.drain_completions();
            self.retry_deferred();
            self.enforce_deadlines(Instant::now());
            self.publish_gauges();
            maybe_persist_snapshot(&self.state);
            if self.clients.draining && self.clients.conns.is_empty() && self.deferred.is_empty() {
                // Capture everything the drain computed before exiting, so
                // the next start is warm.
                persist_snapshot(&self.state);
                return Ok(());
            }
        }
    }

    /// Milliseconds until the nearest deadline, or `None` to wait forever.
    fn poll_timeout_ms(&self, now: Instant) -> Option<i32> {
        let deadlines = [
            self.clients
                .next_deadline(now, self.idle_timeout, LineConn::idle_since),
            self.clients
                .next_deadline(now, self.write_timeout, LineConn::stalled_since),
            (!self.deferred.is_empty()).then(|| Duration::from_millis(DEFERRED_RETRY_MS)),
            // A dirty cache snapshot must get written even if every client
            // goes quiet — an infinite epoll wait would defer it forever.
            snapshot_due_in(&self.state),
        ];
        deadlines.into_iter().flatten().min().map(timeout_ms)
    }

    fn handle_readable(&mut self, token: u64) {
        let mut events: Vec<LineEvent> = Vec::new();
        let Some(conn) = self.clients.conns.get_mut(&token) else {
            return;
        };
        if !conn.read(&mut self.scratch, &mut events) {
            self.drop_conn(token);
            return;
        }
        for event in events {
            if !self.clients.conns.contains_key(&token) || !self.handle_line_event(token, event) {
                break;
            }
        }
        // One flush for the whole readable batch: a pipelined burst of
        // cache hits goes out as one write instead of waking the peer once
        // per response.
        self.flush(token);
    }

    /// Reacts to one framed event. Returns `false` when the connection
    /// should stop consuming further buffered input.
    fn handle_line_event(&mut self, token: u64, event: LineEvent) -> bool {
        let bytes_in = event.bytes();
        match classify_event(&self.state, &event) {
            None => true,
            Some(LineAction::Respond(served)) => {
                trace_request(
                    &self.state,
                    served.kind,
                    served.ok,
                    served.cached,
                    bytes_in,
                    served.error.as_deref(),
                );
                let shutdown = served.shutdown;
                self.enqueue_response(token, served.response);
                if shutdown {
                    self.begin_drain();
                    return false;
                }
                if event.ends_input() {
                    if let Some(conn) = self.clients.conns.get_mut(&token) {
                        conn.closing = true;
                    }
                    return false;
                }
                true
            }
            Some(LineAction::Work { work, .. }) => {
                self.submit(token, bytes_in, work);
                true
            }
        }
    }

    /// Runs `work` on the pool and routes its answer back to connection
    /// `token` as a [`Completion`].
    fn submit(&mut self, token: u64, bytes_in: usize, work: Work) {
        if let Some(conn) = self.clients.conns.get_mut(&token) {
            conn.in_flight += 1;
            self.state
                .metrics
                .record_pipeline_depth(conn.in_flight as u64);
        }
        let state = Arc::clone(&self.state);
        let tx = self.tx.clone();
        let waker = self.waker;
        let job: Job = Box::new(move || {
            let served = work(&state);
            tx.send(Completion {
                conn: token,
                bytes_in,
                served,
            })
            .ok();
            waker.wake();
        });
        // Never block the poll thread: a full queue parks the job in the
        // deferred queue (order preserved).
        if !self.deferred.is_empty() {
            self.deferred.push_back(job);
            return;
        }
        match self.state.pool.try_submit(job) {
            Ok(()) => {}
            Err(TrySubmit::Full(job)) => self.deferred.push_back(job),
            // Only reachable mid-shutdown; the connection is about to be
            // torn down anyway.
            Err(TrySubmit::Closed(_)) => {}
        }
    }

    fn retry_deferred(&mut self) {
        while let Some(job) = self.deferred.pop_front() {
            match self.state.pool.try_submit(job) {
                Ok(()) => {}
                Err(TrySubmit::Full(job)) => {
                    self.deferred.push_front(job);
                    break;
                }
                Err(TrySubmit::Closed(_)) => break,
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut touched: Vec<u64> = Vec::new();
        while let Ok(Completion {
            conn: token,
            bytes_in,
            served,
        }) = self.rx.try_recv()
        {
            // A connection that died while its job ran is gone: the work
            // still happened (and was cached), only the response is dropped.
            let Some(conn) = self.clients.conns.get_mut(&token) else {
                continue;
            };
            conn.in_flight -= 1;
            conn.enqueue(served.response);
            trace_request(
                &self.state,
                served.kind,
                served.ok,
                served.cached,
                bytes_in,
                served.error.as_deref(),
            );
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        // One flush per connection after the whole drain: completions for a
        // pipelined client coalesce into one write instead of one per job.
        // (The flush also resumes reads that hit the pipeline cap and
        // settles a closing connection.)
        for token in touched {
            self.flush(token);
        }
    }

    fn enqueue_response(&mut self, token: u64, response: String) {
        if let Some(conn) = self.clients.conns.get_mut(&token) {
            conn.enqueue(response);
        }
    }

    /// Writes what the socket takes; drops the connection once it failed or
    /// has settled.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.clients.conns.get_mut(&token) else {
            return;
        };
        if !conn.flush(&self.poller, token) {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        // Dropping the stream closes the fd, which deregisters it from the
        // poller implicitly.
        if self.clients.conns.remove(&token).is_some() {
            self.state.metrics.connection_closed();
        }
    }

    fn enforce_deadlines(&mut self, now: Instant) {
        let stalled = self
            .clients
            .expired(now, self.write_timeout, LineConn::stalled_since);
        for token in stalled {
            // The peer stopped reading; nothing useful can be written.
            self.state.metrics.record_timeout();
            self.drop_conn(token);
        }
        let idle = self
            .clients
            .expired(now, self.idle_timeout, LineConn::idle_since);
        for token in idle {
            self.state.metrics.record_timeout();
            trace_request(&self.state, None, false, false, 0, Some(IDLE_TIMEOUT));
            if let Some(conn) = self.clients.conns.get_mut(&token) {
                conn.enqueue(error_response(None, IDLE_TIMEOUT).render());
                conn.closing = true;
            }
            self.flush(token);
        }
    }

    /// Stops accepting and reading; the loop exits once every accepted
    /// request has been answered and every response written.
    fn begin_drain(&mut self) {
        if self.clients.draining {
            return;
        }
        self.state.shutdown.store(true, Ordering::SeqCst);
        for token in self.clients.drain(&self.poller) {
            self.flush(token);
        }
    }

    fn publish_gauges(&self) {
        let metrics = &self.state.metrics;
        let conns = &self.clients.conns;
        metrics.set_registered_fds(conns.len() as u64);
        // Summed over the live connections, so however a connection is torn
        // down, its unsent bytes leave the gauge with it.
        let pending: usize = conns.values().map(LineConn::out_pending).sum();
        metrics.set_pending_write_bytes(pending as u64);
    }
}

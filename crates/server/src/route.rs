//! The `sealpaa route` gateway (Linux): one process that fronts N backend
//! daemons and makes them look like a single, larger one.
//!
//! The router owns no analysis engines and no result cache. Its one job is
//! placement: every request is canonicalized exactly like the daemon would
//! ([`cache_key`]), and the canonical key is
//! **consistent-hashed** onto a ring of healthy backends. Equivalent
//! requests from *any* client therefore always land on the same backend —
//! each backend's LRU holds a disjoint shard of the key space, and the
//! fleet's aggregate cache capacity scales with the backend count instead
//! of duplicating the same hot entries N times. Keyless requests (inline
//! profile traces) carry no reusable result and are spread round-robin.
//!
//! Placement hashes with FNV-1a 64 through the SplitMix64 finalizer, a
//! function fixed by its specification, so a toolchain upgrade cannot move
//! keys away from the backends whose caches (and snapshots) hold them. The
//! finalizer matters: canonical keys differ mostly in their trailing
//! characters, which plain FNV-1a leaves clustered on the ring.
//!
//! Connections are the `conn` module's `LineConn`s, the same ones the
//! daemon's event loop drives: clients under the daemon's pipelining and
//! output caps, and one pipelined link per backend. Each link carries at
//! most 128 in-flight requests, exactly like a direct pipelined client;
//! excess forwards queue at the router. Client `id`s are rewritten to
//! router-internal sequence numbers on the way up and restored on the way
//! down, so many clients multiplex onto one link without id collisions.
//!
//! `batch` envelopes are fanned out: items are grouped by their target
//! backend, each group is forwarded as a sub-batch (items verbatim, so
//! per-item ids and per-item error isolation are preserved), and the
//! replies are reassembled into the single response envelope the client
//! expects — same shape, same per-item ordering, aggregate `computed`
//! count, and `cached` only if every backend answered from cache.
//!
//! Health is active: every `health_interval_ms` the router probes each
//! connected backend with a `stats` request and reconnects lost ones. A
//! backend that dies (connection error, EOF, or an unanswered probe) is
//! removed from the ring; its in-flight requests are answered with
//! structured errors (never silently dropped), and subsequent traffic
//! re-routes to the survivors. With no healthy backend at all the router
//! sheds: a structured error per request, the connection stays up.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sealpaa_sim::SplitMix64;

use crate::canonical::cache_key;
use crate::conn::{timeout_ms, Clients, LineConn, LineEvent, MAX_PIPELINE, TOKEN_LISTENER};
use crate::fnv::Fnv1a;
use crate::json::Json;
use crate::protocol::{
    body_from_doc, error_response, ok_response, render_batch_ok_response, BatchBody, RequestBody,
    MAX_LINE_BYTES,
};
use crate::sys::Poller;

/// Backend `i` is registered under `BACKEND_TOKEN_BASE - i`; client tokens
/// count up from 0 and can never collide.
const BACKEND_TOKEN_BASE: u64 = u64::MAX - 1;

/// Virtual ring points per backend: enough that removing one backend moves
/// only ~1/N of the key space and that per-backend shares stay close to
/// uniform (share variance shrinks with the point count).
const RING_POINTS: u64 = 128;
/// Bound on one backend *response* line. Responses (especially batch
/// responses) are legitimately larger than request lines, but a response
/// beyond this is a protocol failure, not data.
const MAX_BACKEND_LINE_BYTES: usize = 64 << 20;
/// Blocking connect budget per reconnect attempt (the health tick pays it,
/// never the per-request path).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(200);

/// Gateway configuration; [`Default`] gives sensible local settings (but no
/// backends — those are always explicit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteConfig {
    /// Listen address, e.g. `127.0.0.1:4527`. Port 0 picks an ephemeral
    /// port (query it via [`Router::local_addr`]).
    pub addr: String,
    /// Backend daemon addresses (`host:port`), the shard set.
    pub backends: Vec<String>,
    /// Maximum concurrently served client connections; beyond it new
    /// connections are shed with a structured error (0 disables the cap).
    pub max_connections: usize,
    /// Maximum client request-line length in bytes, enforced while reading.
    pub max_line_bytes: usize,
    /// Write deadline in milliseconds: a client that stops reading its
    /// responses for this long is disconnected (0 disables).
    pub write_timeout_ms: u64,
    /// Health-check cadence in milliseconds: how often each backend is
    /// probed and lost backends are re-dialed.
    pub health_interval_ms: u64,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            addr: "127.0.0.1:4527".to_owned(),
            backends: Vec::new(),
            max_connections: 256,
            max_line_bytes: MAX_LINE_BYTES,
            write_timeout_ms: 60_000,
            health_interval_ms: 2_000,
        }
    }
}

/// A bound-but-not-yet-running router.
#[derive(Debug)]
pub struct Router {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: RouteConfig,
}

impl Router {
    /// Binds the listen socket. Backends are dialed by [`Router::run`];
    /// binding succeeds even while every backend is down.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound, or
    /// an [`ErrorKind::InvalidInput`] error when no backends are configured.
    pub fn bind(config: RouteConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "a router needs at least one backend address",
            ));
        }
        let addr = config
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("unresolvable address {}", config.addr)))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Router {
            listener,
            local_addr,
            config,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request arrives, then drains in-flight
    /// requests and returns. Backend daemons are *not* shut down.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the event loop itself fails
    /// (per-connection and per-backend errors only affect that peer).
    pub fn run(self) -> io::Result<()> {
        RouteLoop::new(self)?.serve()
    }
}

/// One configured backend: its address is permanent, its link comes and
/// goes with its health.
struct Backend {
    addr: String,
    link: Option<LineConn>,
    /// Rendered request lines waiting for an in-flight slot on the link.
    wait: VecDeque<String>,
    /// Requests ever handed to this backend (a placement gauge).
    forwarded: u64,
    /// The last health probe has not been answered yet; a second unanswered
    /// tick declares the backend dead.
    probe_outstanding: bool,
}

/// What a backend response settles, looked up by the router-internal id.
enum Pending {
    /// One forwarded single request.
    Single {
        client: u64,
        original_id: Option<Json>,
        backend: usize,
    },
    /// One sub-batch of a fanned-out client batch.
    BatchPart {
        batch: u64,
        group: usize,
        backend: usize,
    },
    /// A health probe; the response is discarded.
    Probe { backend: usize },
}

impl Pending {
    fn backend(&self) -> usize {
        match self {
            Pending::Single { backend, .. }
            | Pending::BatchPart { backend, .. }
            | Pending::Probe { backend } => *backend,
        }
    }
}

/// The item positions (and original ids, for loss errors) of one sub-batch.
struct GroupSlots {
    positions: Vec<(usize, Option<Json>)>,
}

/// A client batch mid-reassembly.
struct BatchState {
    client: u64,
    original_id: Option<Json>,
    started: Instant,
    count: u64,
    computed: u64,
    all_cached: bool,
    /// Rendered sub-responses by original item position.
    slots: Vec<Option<String>>,
    groups: Vec<GroupSlots>,
    outstanding: usize,
}

struct RouteLoop {
    poller: Poller,
    clients: Clients,
    backends: Vec<Backend>,
    /// The consistent-hash ring over healthy backends, sorted by point.
    ring: Vec<(u64, usize)>,
    /// Round-robin cursor for keyless requests.
    rr: usize,
    pending: HashMap<u64, Pending>,
    next_request: u64,
    batches: HashMap<u64, BatchState>,
    next_batch: u64,
    write_timeout: Option<Duration>,
    health_interval: Duration,
    last_health: Instant,
    requests: u64,
    errors: u64,
    shed: u64,
    scratch: Vec<u8>,
}

impl RouteLoop {
    fn new(router: Router) -> io::Result<RouteLoop> {
        let Router {
            listener, config, ..
        } = router;
        let poller = Poller::new()?;
        let clients = Clients::new(
            listener,
            &poller,
            config.max_connections,
            config.max_line_bytes.max(1),
            "router overloaded: connection limit reached, retry later",
        )?;
        let backends = config
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                link: None,
                wait: VecDeque::new(),
                forwarded: 0,
                probe_outstanding: false,
            })
            .collect();
        let mut this = RouteLoop {
            poller,
            clients,
            backends,
            ring: Vec::new(),
            rr: 0,
            pending: HashMap::new(),
            next_request: 0,
            batches: HashMap::new(),
            next_batch: 0,
            write_timeout: (config.write_timeout_ms > 0)
                .then(|| Duration::from_millis(config.write_timeout_ms)),
            health_interval: Duration::from_millis(config.health_interval_ms.max(1)),
            last_health: Instant::now(),
            requests: 0,
            errors: 0,
            shed: 0,
            scratch: vec![0u8; 64 * 1024],
        };
        // Dial every backend once up front so the first request after bind
        // has a ring to land on.
        for i in 0..this.backends.len() {
            this.try_connect(i);
        }
        Ok(this)
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut ready = Vec::new();
        loop {
            let timeout = self.poll_timeout_ms(Instant::now());
            self.poller.wait(&mut ready, Some(timeout))?;
            for r in std::mem::take(&mut ready) {
                if r.token == TOKEN_LISTENER {
                    self.shed += self.clients.accept(&self.poller).1 as u64;
                } else if let Some(i) = backend_index(r.token, self.backends.len()) {
                    if r.readable() {
                        self.backend_readable(i);
                    }
                    if r.writable() {
                        self.flush_backend(i);
                    }
                } else {
                    if r.readable() {
                        self.client_readable(r.token);
                    }
                    if r.writable() {
                        self.flush_client(r.token);
                    }
                }
            }
            let now = Instant::now();
            if now.duration_since(self.last_health) >= self.health_interval {
                self.last_health = now;
                self.health_tick();
            }
            let stalled = self
                .clients
                .expired(now, self.write_timeout, LineConn::stalled_since);
            for token in stalled {
                self.drop_client(token);
            }
            if self.clients.draining && self.settled() {
                return Ok(());
            }
        }
    }

    /// Draining is finished once every client is gone and nothing but
    /// health probes is outstanding.
    fn settled(&self) -> bool {
        self.clients.conns.is_empty()
            && self.batches.is_empty()
            && self
                .pending
                .values()
                .all(|p| matches!(p, Pending::Probe { .. }))
    }

    fn poll_timeout_ms(&self, now: Instant) -> i32 {
        let health = self
            .health_interval
            .saturating_sub(now.duration_since(self.last_health));
        let stall = self
            .clients
            .next_deadline(now, self.write_timeout, LineConn::stalled_since);
        timeout_ms(stall.map_or(health, |stall| stall.min(health)))
    }

    // ---- clients -------------------------------------------------------

    fn client_readable(&mut self, token: u64) {
        let mut events: Vec<LineEvent> = Vec::new();
        let Some(client) = self.clients.conns.get_mut(&token) else {
            return;
        };
        if !client.read(&mut self.scratch, &mut events) {
            self.drop_client(token);
            return;
        }
        for event in events {
            if !self.clients.conns.contains_key(&token) || !self.handle_client_line(token, event) {
                break;
            }
        }
        self.flush_client(token);
    }

    /// Reacts to one framed client event; returns `false` once the
    /// connection should stop consuming buffered input.
    fn handle_client_line(&mut self, token: u64, event: LineEvent) -> bool {
        if let LineEvent::Line(line) = &event {
            return line.trim().is_empty() || self.handle_request(token, line);
        }
        self.errors += 1;
        let message = event.rejection(self.clients.max_line).unwrap_or_default();
        self.enqueue_client(token, error_response(None, &message).render());
        if event.ends_input() {
            if let Some(client) = self.clients.conns.get_mut(&token) {
                client.closing = true;
            }
            return false;
        }
        true
    }

    /// Triage of one request line — the router's counterpart of the
    /// daemon's `classify_line`, minus everything that computes.
    fn handle_request(&mut self, token: u64, line: &str) -> bool {
        let started = Instant::now();
        let fail = |this: &mut RouteLoop, id: Option<&Json>, message: &str| {
            this.errors += 1;
            let response = error_response(id, message).render();
            this.enqueue_client(token, response);
        };
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                fail(self, None, &e.to_string());
                return true;
            }
        };
        if !matches!(doc, Json::Object(_)) {
            let id = doc.get("id").cloned();
            fail(self, id.as_ref(), "a request must be a JSON object");
            return true;
        }
        let id = doc.get("id").cloned();
        let body = match body_from_doc(&doc) {
            Ok(body) => body,
            Err(message) => {
                fail(self, id.as_ref(), &message);
                return true;
            }
        };
        match body {
            RequestBody::Stats => {
                self.requests += 1;
                let result = self.stats_result();
                let micros = started.elapsed().as_micros() as u64;
                let response = ok_response(id.as_ref(), "stats", false, micros, result).render();
                self.enqueue_client(token, response);
                true
            }
            RequestBody::Shutdown => {
                self.requests += 1;
                let micros = started.elapsed().as_micros() as u64;
                let result = Json::object().field("stopping", true).build();
                let response = ok_response(id.as_ref(), "shutdown", false, micros, result).render();
                self.enqueue_client(token, response);
                self.begin_drain();
                false
            }
            RequestBody::Batch(spec) => {
                self.forward_batch(token, &doc, id, &spec, started);
                true
            }
            body => {
                let key = cache_key(&body);
                let Some(backend) = self.place(key.as_deref()) else {
                    self.shed += 1;
                    fail(
                        self,
                        id.as_ref(),
                        "no healthy backend available, retry later",
                    );
                    return true;
                };
                self.forward_single(token, backend, doc, id);
                true
            }
        }
    }

    /// The backend for one request: consistent hash of its canonical key,
    /// or round-robin over healthy backends for uncacheable requests.
    fn place(&mut self, key: Option<&str>) -> Option<usize> {
        match key {
            Some(key) => route_on(&self.ring, key),
            None => {
                let healthy: Vec<usize> = (0..self.backends.len())
                    .filter(|&i| self.backends[i].link.is_some())
                    .collect();
                if healthy.is_empty() {
                    return None;
                }
                self.rr = self.rr.wrapping_add(1);
                Some(healthy[self.rr % healthy.len()])
            }
        }
    }

    fn forward_single(&mut self, token: u64, backend: usize, mut doc: Json, id: Option<Json>) {
        let internal = self.next_request;
        self.next_request += 1;
        set_internal_id(&mut doc, internal);
        self.pending.insert(
            internal,
            Pending::Single {
                client: token,
                original_id: id,
                backend,
            },
        );
        if let Some(client) = self.clients.conns.get_mut(&token) {
            client.in_flight += 1;
        }
        self.requests += 1;
        self.send_to_backend(backend, doc.render());
    }

    /// Fans one client batch out to its target backends as per-backend
    /// sub-batches, preserving the items (and their ids) verbatim so each
    /// daemon's per-item error isolation carries through unchanged.
    fn forward_batch(
        &mut self,
        token: u64,
        doc: &Json,
        id: Option<Json>,
        spec: &crate::protocol::BatchSpec,
        started: Instant,
    ) {
        self.requests += 1;
        let raw_items = doc
            .get("requests")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        // `body_from_doc` accepted the envelope, so the raw array and the
        // parsed items are index-aligned.
        debug_assert_eq!(raw_items.len(), spec.items.len());
        let count = spec.items.len() as u64;
        if spec.items.is_empty() {
            // Mirror an empty batch on the daemon: nothing computed,
            // trivially all-cached.
            let micros = started.elapsed().as_micros() as u64;
            let response = render_batch_ok_response(id.as_ref(), true, micros, 0, 0, "");
            self.enqueue_client(token, response);
            return;
        }
        // Place every item. Invalid items are forwarded too — the daemon
        // answers them with the per-item structured error, so the router
        // never has to re-implement (or risk diverging from) its messages.
        let mut placements: Vec<usize> = Vec::with_capacity(spec.items.len());
        for item in &spec.items {
            let placed = match &item.body {
                BatchBody::Parsed(Ok(body)) => self.place(cache_key(body).as_deref()),
                BatchBody::Parsed(Err(_)) => self.place(None),
                // A duplicate resolves like its original, keeping the pair
                // on one backend (where the daemon dedups it again).
                BatchBody::DuplicateOf(j) => placements.get(*j).copied(),
            };
            let Some(backend) = placed else {
                self.shed += 1;
                self.errors += 1;
                let response =
                    error_response(id.as_ref(), "no healthy backend available, retry later")
                        .render();
                self.enqueue_client(token, response);
                return;
            };
            placements.push(backend);
        }
        // Group item positions by backend, preserving item order per group.
        let mut by_backend: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        for (pos, &backend) in placements.iter().enumerate() {
            let group = by_backend.entry(backend).or_insert_with(|| {
                order.push(backend);
                Vec::new()
            });
            group.push(pos);
        }
        let bid = self.next_batch;
        self.next_batch += 1;
        let mut state = BatchState {
            client: token,
            original_id: id,
            started,
            count,
            computed: 0,
            all_cached: true,
            slots: (0..spec.items.len()).map(|_| None).collect(),
            groups: Vec::with_capacity(order.len()),
            outstanding: order.len(),
        };
        if let Some(client) = self.clients.conns.get_mut(&token) {
            client.in_flight += 1;
        }
        let mut sends: Vec<(usize, String)> = Vec::with_capacity(order.len());
        for backend in order {
            let positions = &by_backend[&backend];
            let internal = self.next_request;
            self.next_request += 1;
            let group_index = state.groups.len();
            state.groups.push(GroupSlots {
                positions: positions
                    .iter()
                    .map(|&p| (p, spec.items[p].id.clone()))
                    .collect(),
            });
            self.pending.insert(
                internal,
                Pending::BatchPart {
                    batch: bid,
                    group: group_index,
                    backend,
                },
            );
            let sub = Json::object()
                .field("kind", "batch")
                .field("id", internal)
                .field(
                    "requests",
                    positions
                        .iter()
                        .map(|&p| raw_items[p].clone())
                        .collect::<Vec<_>>(),
                )
                .build();
            sends.push((backend, sub.render()));
        }
        self.batches.insert(bid, state);
        for (backend, line) in sends {
            self.send_to_backend(backend, line);
        }
    }

    // ---- backends ------------------------------------------------------

    fn try_connect(&mut self, i: usize) {
        if self.backends[i].link.is_some() {
            return;
        }
        let Some(addr) = self.backends[i]
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
        else {
            return;
        };
        let Ok(stream) = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let link = LineConn::link(stream, MAX_BACKEND_LINE_BYTES);
        if link.register(&self.poller, backend_token(i)).is_err() {
            return;
        }
        self.backends[i].link = Some(link);
        self.backends[i].probe_outstanding = false;
        self.rebuild_ring();
    }

    fn rebuild_ring(&mut self) {
        let healthy = self
            .backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.link.is_some());
        self.ring = ring_over(healthy.map(|(i, b)| (i, b.addr.as_str())));
    }

    /// Queues one rendered request line for a backend link, respecting the
    /// 128-in-flight pipelining contract (excess lines wait at the router).
    fn send_to_backend(&mut self, i: usize, line: String) {
        let backend = &mut self.backends[i];
        backend.forwarded += 1;
        // Without a link the send raced with a drop; the pending sweep has
        // already answered (or will answer) this request's owner.
        if backend.link.is_some() {
            backend.wait.push_back(line);
            self.pump_backend(i);
        }
    }

    fn backend_readable(&mut self, i: usize) {
        let mut events: Vec<LineEvent> = Vec::new();
        let Some(link) = self.backends[i].link.as_mut() else {
            return;
        };
        let mut alive = link.read(&mut self.scratch, &mut events);
        for event in events {
            // A backend speaking garbage is as gone as a dead one.
            let settled = match &event {
                LineEvent::Line(line) => self.handle_backend_response(i, line),
                LineEvent::TooLong { .. } | LineEvent::InvalidUtf8 { .. } => false,
            };
            if !settled {
                alive = false;
                break;
            }
        }
        if alive {
            self.pump_backend(i);
        } else {
            self.drop_backend(i);
        }
    }

    /// Settles one backend response line. Returns `false` when the line is
    /// a protocol violation and the backend must be dropped.
    fn handle_backend_response(&mut self, i: usize, line: &str) -> bool {
        let Ok(mut doc) = Json::parse(line) else {
            return false;
        };
        let Some(internal) = doc.get("id").and_then(Json::as_u64) else {
            // A response the router never asked for (e.g. the daemon's
            // id-less idle-timeout notice as it closes the link).
            return false;
        };
        let Some(pending) = self.pending.remove(&internal) else {
            // Stale: its owner was already answered by a loss sweep.
            return true;
        };
        if let Some(link) = self.backends[i].link.as_mut() {
            link.in_flight = link.in_flight.saturating_sub(1);
        }
        match pending {
            Pending::Probe { .. } => {
                self.backends[i].probe_outstanding = false;
            }
            Pending::Single {
                client,
                original_id,
                ..
            } => {
                restore_id(&mut doc, original_id);
                let response = doc.render();
                if let Some(c) = self.clients.conns.get_mut(&client) {
                    c.in_flight = c.in_flight.saturating_sub(1);
                }
                self.enqueue_client(client, response);
                self.flush_client(client);
            }
            Pending::BatchPart { batch, group, .. } => {
                self.settle_batch_part(batch, group, &doc);
            }
        }
        true
    }

    /// Folds one sub-batch response into its batch, completing the batch
    /// when it was the last outstanding group.
    fn settle_batch_part(&mut self, bid: u64, group: usize, doc: &Json) {
        let Some(state) = self.batches.get_mut(&bid) else {
            return;
        };
        let positions = std::mem::take(&mut state.groups[group].positions);
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            let results = doc
                .get("result")
                .and_then(|r| r.get("results"))
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            for (slot, (pos, id)) in positions.iter().enumerate() {
                state.slots[*pos] = Some(match results.get(slot) {
                    Some(sub) => sub.render(),
                    // A short results array is a backend bug; the item
                    // still gets a structured answer.
                    None => {
                        state.all_cached = false;
                        error_response(id.as_ref(), "backend returned a short batch").render()
                    }
                });
            }
            state.computed += doc
                .get("result")
                .and_then(|r| r.get("computed"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if doc.get("cached").and_then(Json::as_bool) != Some(true) {
                state.all_cached = false;
            }
        } else {
            // The whole sub-batch failed (e.g. the backend was draining):
            // every item of this group fails with its message, the other
            // groups are unaffected.
            let message = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("backend error")
                .to_owned();
            state.all_cached = false;
            for (pos, id) in &positions {
                state.slots[*pos] = Some(error_response(id.as_ref(), &message).render());
            }
        }
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.complete_batch(bid);
        }
    }

    fn complete_batch(&mut self, bid: u64) {
        let Some(state) = self.batches.remove(&bid) else {
            return;
        };
        let mut subs = String::new();
        for (pos, slot) in state.slots.into_iter().enumerate() {
            if pos > 0 {
                subs.push(',');
            }
            match slot {
                Some(rendered) => subs.push_str(&rendered),
                None => {
                    subs.push_str(&error_response(None, "backend returned a short batch").render())
                }
            }
        }
        let micros = state.started.elapsed().as_micros() as u64;
        let response = render_batch_ok_response(
            state.original_id.as_ref(),
            state.all_cached,
            micros,
            state.count,
            state.computed,
            &subs,
        );
        if let Some(c) = self.clients.conns.get_mut(&state.client) {
            c.in_flight = c.in_flight.saturating_sub(1);
        }
        self.enqueue_client(state.client, response);
        self.flush_client(state.client);
    }

    /// Moves waiting lines into freed in-flight slots and flushes.
    fn pump_backend(&mut self, i: usize) {
        let backend = &mut self.backends[i];
        if let Some(link) = backend.link.as_mut() {
            while link.in_flight < MAX_PIPELINE {
                let Some(line) = backend.wait.pop_front() else {
                    break;
                };
                link.in_flight += 1;
                link.enqueue(line);
            }
        }
        self.flush_backend(i);
    }

    /// Tears a backend down: every request in flight on (or queued for) the
    /// link is answered with a structured error, the ring is rebuilt, and
    /// the next health tick re-dials.
    fn drop_backend(&mut self, i: usize) {
        if self.backends[i].link.take().is_none() {
            return;
        }
        self.backends[i].wait.clear();
        self.backends[i].probe_outstanding = false;
        self.rebuild_ring();
        let message = format!("backend {} unavailable", self.backends[i].addr);
        let lost: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.backend() == i)
            .map(|(&id, _)| id)
            .collect();
        for id in lost {
            match self.pending.remove(&id) {
                Some(Pending::Single {
                    client,
                    original_id,
                    ..
                }) => {
                    self.errors += 1;
                    let response = error_response(original_id.as_ref(), &message).render();
                    if let Some(c) = self.clients.conns.get_mut(&client) {
                        c.in_flight = c.in_flight.saturating_sub(1);
                    }
                    self.enqueue_client(client, response);
                    self.flush_client(client);
                }
                Some(Pending::BatchPart { batch, group, .. }) => {
                    self.errors += 1;
                    if let Some(state) = self.batches.get_mut(&batch) {
                        let positions = std::mem::take(&mut state.groups[group].positions);
                        state.all_cached = false;
                        for (pos, item_id) in &positions {
                            state.slots[*pos] =
                                Some(error_response(item_id.as_ref(), &message).render());
                        }
                        state.outstanding -= 1;
                        if state.outstanding == 0 {
                            self.complete_batch(batch);
                        }
                    }
                }
                Some(Pending::Probe { .. }) | None => {}
            }
        }
    }

    fn health_tick(&mut self) {
        for i in 0..self.backends.len() {
            if self.backends[i].link.is_none() {
                self.try_connect(i);
                continue;
            }
            if self.backends[i].probe_outstanding {
                // The previous probe went unanswered for a whole interval:
                // the daemon answers `stats` inline, so silence means the
                // process (or the path to it) is gone.
                self.drop_backend(i);
                continue;
            }
            if self.clients.draining {
                continue;
            }
            let internal = self.next_request;
            self.next_request += 1;
            self.pending.insert(internal, Pending::Probe { backend: i });
            self.backends[i].probe_outstanding = true;
            let probe = Json::object()
                .field("kind", "stats")
                .field("id", internal)
                .build();
            // Probes ride the normal pipeline, so they also verify that the
            // link is not wedged behind its in-flight window.
            let line = probe.render();
            self.backends[i].forwarded = self.backends[i].forwarded.saturating_sub(1); // probes are not placements
            self.send_to_backend(i, line);
        }
    }

    fn flush_backend(&mut self, i: usize) {
        let Some(link) = self.backends[i].link.as_mut() else {
            return;
        };
        if !link.flush(&self.poller, backend_token(i)) {
            self.drop_backend(i);
        }
    }

    // ---- client output -------------------------------------------------

    fn enqueue_client(&mut self, token: u64, response: String) {
        if let Some(client) = self.clients.conns.get_mut(&token) {
            client.enqueue(response);
        }
    }

    fn flush_client(&mut self, token: u64) {
        let Some(client) = self.clients.conns.get_mut(&token) else {
            return;
        };
        if !client.flush(&self.poller, token) {
            self.drop_client(token);
        }
    }

    fn drop_client(&mut self, token: u64) {
        // Responses still in flight for this client find no entry and are
        // discarded on arrival; batches complete and discard at enqueue.
        self.clients.conns.remove(&token);
    }

    fn begin_drain(&mut self) {
        if self.clients.draining {
            return;
        }
        for token in self.clients.drain(&self.poller) {
            self.flush_client(token);
        }
    }

    /// The router's own `stats` payload. The schema is the router's, not
    /// the daemon's: a gateway has placement gauges, not engine histograms.
    fn stats_result(&self) -> Json {
        let backends: Vec<Json> = self
            .backends
            .iter()
            .map(|b| {
                Json::object()
                    .field("addr", b.addr.as_str())
                    .field("healthy", b.link.is_some())
                    .field(
                        "in_flight",
                        b.link
                            .as_ref()
                            .map_or(0, |l| (l.in_flight + b.wait.len()) as u64),
                    )
                    .field("forwarded", b.forwarded)
                    .build()
            })
            .collect();
        Json::object()
            .field("role", "router")
            .field("requests", self.requests)
            .field("errors", self.errors)
            .field("shed", self.shed)
            .field("clients", self.clients.conns.len() as u64)
            .field("backends", backends)
            .build()
    }
}

fn backend_token(i: usize) -> u64 {
    BACKEND_TOKEN_BASE - i as u64
}

fn backend_index(token: u64, count: usize) -> Option<usize> {
    let i = (BACKEND_TOKEN_BASE.checked_sub(token))? as usize;
    (i < count).then_some(i)
}

/// A ring position: FNV-1a 64 over `parts` through the SplitMix64
/// finalizer, so inputs differing only in their last bytes still land far
/// apart.
fn placement_hash(parts: &[&[u8]]) -> u64 {
    let mut hash = Fnv1a::new();
    for part in parts {
        hash.update(part);
    }
    SplitMix64::new(hash.finish()).next_u64()
}

/// The ring over `backends` (index and address each), sorted by point.
fn ring_over<'a>(backends: impl Iterator<Item = (usize, &'a str)>) -> Vec<(u64, usize)> {
    let mut ring: Vec<(u64, usize)> = backends
        .flat_map(|(i, addr)| {
            (0..RING_POINTS)
                .map(move |point| (placement_hash(&[addr.as_bytes(), &point.to_le_bytes()]), i))
        })
        .collect();
    ring.sort_unstable();
    ring
}

/// The ring lookup: the first point clockwise from the key's hash, wrapping
/// at the top. `None` on an empty ring (no healthy backends).
fn route_on(ring: &[(u64, usize)], key: &str) -> Option<usize> {
    if ring.is_empty() {
        return None;
    }
    let h = placement_hash(&[key.as_bytes()]);
    let idx = ring.partition_point(|&(point, _)| point < h);
    Some(ring[idx % ring.len()].1)
}

/// Rewrites (or adds) the request's `id` to the router-internal sequence
/// number, preserving every other field byte-for-byte on re-render.
fn set_internal_id(doc: &mut Json, internal: u64) {
    if let Json::Object(fields) = doc {
        let value = Json::from(internal);
        match fields.iter_mut().find(|(k, _)| k == "id") {
            Some(slot) => slot.1 = value,
            None => fields.push(("id".to_owned(), value)),
        }
    }
}

/// Puts the client's original `id` back into a backend response (or strips
/// the internal one when the client sent none), in place so the response's
/// field order is exactly what a direct daemon connection would produce.
fn restore_id(doc: &mut Json, original: Option<Json>) {
    if let Json::Object(fields) = doc {
        match original {
            Some(id) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "id") {
                    slot.1 = id;
                }
            }
            None => fields.retain(|(k, _)| k != "id"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(addrs: &[&str]) -> Vec<(u64, usize)> {
        ring_over(addrs.iter().copied().enumerate())
    }

    #[test]
    fn ring_routing_is_deterministic_and_covers_all_backends() {
        let ring = ring_of(&["a:1", "b:2", "c:3"]);
        let mut seen = [0usize; 3];
        for i in 0..512 {
            let key = format!("analyze|key-{i}");
            let first = route_on(&ring, &key).expect("non-empty ring");
            let second = route_on(&ring, &key).expect("non-empty ring");
            assert_eq!(first, second, "placement must be deterministic");
            seen[first] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 0, "backend {i} never selected");
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        // The consistent-hashing property: keys that did not hash to the
        // removed backend keep their placement.
        let full = ring_of(&["a:1", "b:2", "c:3"]);
        let without_c = ring_of(&["a:1", "b:2"]);
        let mut moved = 0;
        for i in 0..512 {
            let key = format!("analyze|key-{i}");
            let before = route_on(&full, &key).expect("full ring");
            let after = route_on(&without_c, &key).expect("reduced ring");
            if before != 2 {
                assert_eq!(before, after, "surviving placements must not move");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "some keys must have been on the removed backend");
    }

    /// Canonical-style keys that differ only in their trailing characters,
    /// the shape that clusters on a ring without a finalizer.
    fn trailing_keys(count: usize) -> Vec<String> {
        (0..count)
            .map(|i| {
                format!("analyze|0001,0001,0001,0001|3fb999999999999a|3fb999999999999a|{i:016x}")
            })
            .collect()
    }

    const FLEET: [&str; 4] = [
        "127.0.0.1:4518",
        "127.0.0.1:4519",
        "127.0.0.1:4520",
        "127.0.0.1:4521",
    ];

    #[test]
    fn placement_is_pinned_for_fixed_addresses_and_keys() {
        // Placement is part of the fleet's contract: a key must land where
        // its warm cache and snapshot are, on every build. These indices
        // (reproduced by an independent FNV-1a 64 + SplitMix64 model) may
        // only change together with a documented move of every key.
        let ring = ring_of(&FLEET[..3]);
        let placed: Vec<usize> = trailing_keys(16)
            .iter()
            .chain(&["simulate.mc|20000|7|1|x".to_owned(), String::new()])
            .map(|key| route_on(&ring, key).expect("non-empty ring"))
            .collect();
        assert_eq!(
            placed,
            [1, 0, 0, 1, 2, 0, 2, 2, 1, 2, 2, 2, 1, 0, 1, 0, 0, 1]
        );
    }

    #[test]
    fn keys_differing_only_at_the_end_spread_evenly() {
        let keys = trailing_keys(20_000);
        for n in 2..=FLEET.len() {
            let ring = ring_of(&FLEET[..n]);
            let mut counts = vec![0usize; n];
            for key in &keys {
                counts[route_on(&ring, key).expect("non-empty ring")] += 1;
            }
            for &count in &counts {
                let share = count as f64 / keys.len() as f64;
                assert!(
                    (share - 1.0 / n as f64).abs() <= 0.1,
                    "{n} backends split {counts:?}"
                );
            }
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        assert_eq!(route_on(&[], "anything"), None);
    }

    #[test]
    fn internal_id_rewrite_and_restore_round_trip() {
        let mut doc = Json::parse(r#"{"id":"client-7","kind":"analyze","width":4}"#).expect("doc");
        let original = doc.get("id").cloned();
        set_internal_id(&mut doc, 42);
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(42));
        restore_id(&mut doc, original);
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("client-7"));
        // Field order survives the round trip.
        assert_eq!(
            doc.render(),
            r#"{"id":"client-7","kind":"analyze","width":4}"#
        );
    }

    #[test]
    fn idless_requests_get_an_internal_id_that_is_stripped_again() {
        let mut doc = Json::parse(r#"{"kind":"stats"}"#).expect("doc");
        set_internal_id(&mut doc, 9);
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
        restore_id(&mut doc, None);
        assert!(doc.get("id").is_none());
        assert_eq!(doc.render(), r#"{"kind":"stats"}"#);
    }

    #[test]
    fn bind_requires_backends() {
        let err = Router::bind(RouteConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..RouteConfig::default()
        })
        .expect_err("no backends must not bind");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}

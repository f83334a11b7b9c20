//! The connection core shared by the daemon and the `sealpaa route` gateway:
//! one bounded line framer, one nonblocking line connection, and the
//! accept/refuse and deadline steps every epoll loop runs.
//!
//! # Framing
//!
//! [`LineFramer`] splits a byte stream into `\n`-terminated lines and
//! enforces the line limit *while the bytes arrive*: once a line outgrows
//! the limit its bytes are discarded as they stream in, so memory stays
//! bounded by one limit-sized line, and the stream resyncs at the next
//! newline. The event loops feed it whatever each nonblocking read
//! returned; the blocking threads/`--stdio` loop drives the same framer over
//! `BufRead` ([`LineFramer::read_from`]).
//!
//! # Connections
//!
//! [`LineConn`] is one nonblocking socket speaking lines: the framer, an
//! output buffer, the epoll interest derived from its flow-control state,
//! and the stall clock behind the write deadline. It plays one of two roles:
//!
//! * a **client** (of the daemon or the router) reads once per readiness
//!   event — level-triggered epoll reports the socket again while input is
//!   pending, so one flooding client cannot starve the rest — and pauses
//!   its reads past [`MAX_PIPELINE`] requests in flight or
//!   `MAX_CONN_OUT_BYTES` of unsent output, so a peer that won't take its
//!   answers stops being read. EOF ends its input;
//! * a router's **link** to a backend daemon drains the socket on every
//!   event (each buffered response line has a client waiting) and never
//!   pauses its reads, since the link's in-flight cap paces what is *sent*
//!   to the backend instead. EOF means the backend is gone.

use std::io::{self, BufRead, ErrorKind};
// The framer is portable (the threads model runs everywhere); connections
// and listeners ride the Linux-only epoll wrapper.
#[cfg(target_os = "linux")]
use std::{
    collections::HashMap,
    io::{Read, Write},
    net::{TcpListener, TcpStream},
    os::fd::AsRawFd,
    time::{Duration, Instant},
};

#[cfg(target_os = "linux")]
use crate::{
    protocol::error_response,
    sys::{Poller, EPOLLIN, EPOLLOUT, EPOLLRDHUP},
};

/// Registration token for a loop's listen socket.
#[cfg(target_os = "linux")]
pub(crate) const TOKEN_LISTENER: u64 = u64::MAX;

/// In-flight request cap per connection — the daemon's pipelining
/// contract. A client's reads pause past it until answers drain; a router
/// holds further requests for a backend link until that link's answers do.
#[cfg(target_os = "linux")]
pub(crate) const MAX_PIPELINE: usize = 128;
/// Unsent-output cap per client: past it the client's reads pause until the
/// peer drains its responses.
#[cfg(target_os = "linux")]
const MAX_CONN_OUT_BYTES: usize = 4 << 20;
/// Already-written output prefix beyond which the buffer is compacted, so a
/// long-lived slow reader cannot grow it through bytes it has taken.
#[cfg(target_os = "linux")]
const COMPACT_BYTES: usize = 4096;

/// One framed unit of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LineEvent {
    /// A complete line within the limit, valid UTF-8, without its newline.
    Line(String),
    /// The line ran past the limit; its bytes were discarded as they
    /// streamed in. `bytes` is the full observed length.
    TooLong { bytes: usize },
    /// The line fit but is not valid UTF-8.
    InvalidUtf8 { bytes: usize },
}

impl LineEvent {
    /// Bytes the line took on the wire, without its newline.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            LineEvent::Line(line) => line.len(),
            LineEvent::TooLong { bytes } | LineEvent::InvalidUtf8 { bytes } => *bytes,
        }
    }

    /// The structured error that answers a line the framer refused (the
    /// daemon and the router word it alike), or `None` for a good line.
    pub(crate) fn rejection(&self, max: usize) -> Option<String> {
        match self {
            LineEvent::Line(_) => None,
            LineEvent::TooLong { bytes } => Some(format!(
                "request of {bytes} bytes exceeds the {max} byte line limit"
            )),
            LineEvent::InvalidUtf8 { .. } => Some("request line is not valid UTF-8".to_owned()),
        }
    }

    /// A peer that sends a line that is not UTF-8 won't speak the protocol
    /// from here on: answer it, then stop reading. (After an over-long line
    /// the stream has resynced at the newline, and serving goes on.)
    pub(crate) fn ends_input(&self) -> bool {
        matches!(self, LineEvent::InvalidUtf8 { .. })
    }
}

/// Splits a byte stream into lines of at most `max` bytes.
pub(crate) struct LineFramer {
    max: usize,
    /// The current partial line, kept only while within the limit.
    line: Vec<u8>,
    /// Observed bytes of the current line, counted even while overflowing.
    len: usize,
    /// The current line ran past the limit and is being discarded.
    overflowed: bool,
}

impl LineFramer {
    pub(crate) fn new(max: usize) -> LineFramer {
        LineFramer {
            max,
            line: Vec::new(),
            len: 0,
            overflowed: false,
        }
    }

    /// Takes in `data` up to and including its first newline: how many
    /// bytes were consumed, and the line they completed, if any.
    fn push(&mut self, data: &[u8]) -> (usize, Option<LineEvent>) {
        let end = data.iter().position(|&b| b == b'\n');
        let chunk = &data[..end.unwrap_or(data.len())];
        self.len += chunk.len();
        if !self.overflowed {
            if self.len <= self.max {
                self.line.extend_from_slice(chunk);
            } else {
                self.overflowed = true;
                self.line = Vec::new(); // free what was gathered so far
            }
        }
        match end {
            Some(i) => (i + 1, Some(self.complete())),
            None => (data.len(), None),
        }
    }

    /// Frames every line `data` completes into `events`; a trailing partial
    /// line waits for more input.
    pub(crate) fn feed(&mut self, mut data: &[u8], events: &mut Vec<LineEvent>) {
        while !data.is_empty() {
            let (used, event) = self.push(data);
            events.extend(event);
            data = &data[used..];
        }
    }

    /// End of input: an unterminated final line still counts.
    pub(crate) fn finish(&mut self) -> Option<LineEvent> {
        (self.len > 0 || self.overflowed).then(|| self.complete())
    }

    /// The next line from a blocking reader, or `None` at end of input.
    /// Bytes past the line's newline stay in the reader. Read errors,
    /// including an expired read deadline (`WouldBlock`/`TimedOut`), are
    /// returned as they are.
    pub(crate) fn read_from(&mut self, input: &mut impl BufRead) -> io::Result<Option<LineEvent>> {
        loop {
            let available = match input.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(self.finish());
            }
            let (used, event) = self.push(available);
            input.consume(used);
            if event.is_some() {
                return Ok(event);
            }
        }
    }

    fn complete(&mut self) -> LineEvent {
        let bytes = std::mem::take(&mut self.len);
        let line = std::mem::take(&mut self.line);
        if std::mem::take(&mut self.overflowed) {
            LineEvent::TooLong { bytes }
        } else {
            match String::from_utf8(line) {
                Ok(line) => LineEvent::Line(line),
                Err(_) => LineEvent::InvalidUtf8 { bytes },
            }
        }
    }
}

/// One nonblocking, line-oriented socket (see the module docs for the
/// client and link roles).
#[cfg(target_os = "linux")]
pub(crate) struct LineConn {
    stream: TcpStream,
    framer: LineFramer,
    /// Pending output; bytes before `out_pos` are already written.
    out: Vec<u8>,
    out_pos: usize,
    /// A client: requests accepted whose answers are not yet enqueued. A
    /// link: requests written whose answers are outstanding.
    pub(crate) in_flight: usize,
    /// When input last arrived (the daemon's idle deadline).
    last_activity: Instant,
    /// Since when the peer has left us unable to make write progress.
    stalled_since: Option<Instant>,
    /// Currently registered epoll interest.
    interest: u32,
    /// Input is over (EOF, a line that ended it, a deadline, or a drain):
    /// reading stops, and the connection closes once nothing is in flight
    /// and nothing is unsent.
    pub(crate) closing: bool,
    /// A router's link to a backend daemon rather than a client (see the
    /// module docs for how the two roles read).
    link: bool,
}

#[cfg(target_os = "linux")]
impl LineConn {
    fn new(stream: TcpStream, max_line: usize, link: bool) -> LineConn {
        LineConn {
            stream,
            framer: LineFramer::new(max_line),
            out: Vec::new(),
            out_pos: 0,
            in_flight: 0,
            last_activity: Instant::now(),
            stalled_since: None,
            interest: EPOLLIN | EPOLLRDHUP,
            closing: false,
            link,
        }
    }

    /// A router's connection to a backend daemon, already nonblocking.
    pub(crate) fn link(stream: TcpStream, max_line: usize) -> LineConn {
        LineConn::new(stream, max_line, true)
    }

    /// Starts watching the socket under `token`.
    pub(crate) fn register(&self, poller: &Poller, token: u64) -> io::Result<()> {
        poller.register(self.stream.as_raw_fd(), token, self.interest)
    }

    /// Output enqueued but not yet accepted by the socket.
    pub(crate) fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Since when the connection has sat idle — open, nothing in flight,
    /// nothing unsent — or `None` while it is busy or closing.
    pub(crate) fn idle_since(&self) -> Option<Instant> {
        (!self.closing && self.in_flight == 0 && self.out_pending() == 0)
            .then_some(self.last_activity)
    }

    /// Since when writes have made no progress, if they are stalled.
    pub(crate) fn stalled_since(&self) -> Option<Instant> {
        self.stalled_since
    }

    /// Takes in what the socket has — one read for a client, everything
    /// until it would block for a link — and frames it into `events`.
    /// Returns `false` when the connection is dead: a read error, or a
    /// link's EOF (events a link framed before dying still stand). A
    /// client's EOF emits its unterminated final line and starts closing.
    pub(crate) fn read(&mut self, scratch: &mut [u8], events: &mut Vec<LineEvent>) -> bool {
        loop {
            match self.stream.read(scratch) {
                Ok(0) if self.link => return false,
                Ok(0) => {
                    events.extend(self.framer.finish());
                    self.closing = true;
                    return true;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.framer.feed(&scratch[..n], events);
                    if !self.link {
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
    }

    /// Appends one line to the output. A drained buffer adopts the
    /// allocation outright, so a large (e.g. batch) response is never copied
    /// again. Owners [`flush`](LineConn::flush) once a whole batch of lines
    /// is enqueued, so back-to-back lines share one `write`.
    pub(crate) fn enqueue(&mut self, line: String) {
        if self.out_pos == self.out.len() {
            self.out = line.into_bytes();
            self.out_pos = 0;
        } else {
            self.out.extend_from_slice(line.as_bytes());
        }
        self.out.push(b'\n');
    }

    /// Writes as much output as the socket takes, re-registers the epoll
    /// interest if the flow-control state changed it, and reports whether
    /// the connection lives on: `false` once the socket failed, or once a
    /// closing connection has settled (nothing in flight, nothing unsent).
    /// The owner drops it then.
    pub(crate) fn flush(&mut self, poller: &Poller, token: u64) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_pos += n;
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stalled_since.get_or_insert_with(Instant::now);
                    break;
                }
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            self.stalled_since = None;
        } else if self.out_pos > COMPACT_BYTES {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        let paused = !self.link
            && (self.in_flight >= MAX_PIPELINE || self.out_pending() > MAX_CONN_OUT_BYTES);
        let mut want = 0;
        if !self.closing && !paused {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if self.out_pending() > 0 {
            want |= EPOLLOUT;
        }
        if want != self.interest {
            self.interest = want;
            poller.modify(self.stream.as_raw_fd(), token, want).ok();
        }
        !(self.closing && self.in_flight == 0 && self.out_pending() == 0)
    }
}

/// A loop's listen socket and its live client connections, keyed by token
/// (counting up from 0; other tokens count down from [`TOKEN_LISTENER`]).
#[cfg(target_os = "linux")]
pub(crate) struct Clients {
    listener: TcpListener,
    pub(crate) conns: HashMap<u64, LineConn>,
    next_token: u64,
    /// Connections beyond this many are refused (0: no cap).
    max_connections: usize,
    /// Every client's line limit.
    pub(crate) max_line: usize,
    /// The rendered refusal line sent to connections past the cap.
    refusal: String,
    /// The listener is closed to new connections.
    pub(crate) draining: bool,
}

#[cfg(target_os = "linux")]
impl Clients {
    /// Registers the listener (nonblocking) under [`TOKEN_LISTENER`].
    /// Connections past `max_connections` get one structured error line
    /// saying `refusal`, then a close.
    pub(crate) fn new(
        listener: TcpListener,
        poller: &Poller,
        max_connections: usize,
        max_line: usize,
        refusal: &str,
    ) -> io::Result<Clients> {
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        Ok(Clients {
            listener,
            conns: HashMap::new(),
            next_token: 0,
            max_connections,
            max_line,
            refusal: format!("{}\n", error_response(None, refusal).render()),
            draining: false,
        })
    }

    /// Accepts every waiting connection, admitting each (nonblocking,
    /// `TCP_NODELAY`, registered) or refusing it at the cap. Returns how
    /// many were admitted and how many refused.
    pub(crate) fn accept(&mut self, poller: &Poller) -> (usize, usize) {
        let (mut admitted, mut refused) = (0, 0);
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Nothing left — or a transient per-connection failure (the
                // peer reset before accept), which must not kill the loop.
                Err(_) => break,
            };
            if self.draining || stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.max_connections > 0 && self.conns.len() >= self.max_connections {
                // Best effort: one small write into a fresh socket buffer; a
                // peer that cannot take even that gets a bare close.
                let _ = (&stream).write_all(self.refusal.as_bytes());
                refused += 1;
                continue;
            }
            // Pipelined clients interleave small request and response lines;
            // Nagle would serialize them round trip by round trip.
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            let conn = LineConn::new(stream, self.max_line, false);
            // An unregistered connection could never be served.
            if conn.register(poller, token).is_ok() {
                self.conns.insert(token, conn);
                admitted += 1;
            }
        }
        (admitted, refused)
    }

    /// Closes the listener to new connections and ends every connection's
    /// input. Returns every token, for the owner to flush: each closes once
    /// its in-flight answers are written.
    pub(crate) fn drain(&mut self, poller: &Poller) -> Vec<u64> {
        self.draining = true;
        poller.deregister(self.listener.as_raw_fd()).ok();
        for conn in self.conns.values_mut() {
            conn.closing = true;
        }
        self.conns.keys().copied().collect()
    }

    /// Connections whose `clock` (e.g. [`LineConn::stalled_since`]) started
    /// at least `limit` ago; none without a limit.
    pub(crate) fn expired(
        &self,
        now: Instant,
        limit: Option<Duration>,
        clock: fn(&LineConn) -> Option<Instant>,
    ) -> Vec<u64> {
        let Some(limit) = limit else {
            return Vec::new();
        };
        self.conns
            .iter()
            .filter(|(_, conn)| clock(conn).is_some_and(|since| now.duration_since(since) >= limit))
            .map(|(&token, _)| token)
            .collect()
    }

    /// Time until the soonest deadline that [`Clients::expired`] would
    /// report for the same `limit` and `clock`.
    pub(crate) fn next_deadline(
        &self,
        now: Instant,
        limit: Option<Duration>,
        clock: fn(&LineConn) -> Option<Instant>,
    ) -> Option<Duration> {
        let limit = limit?;
        self.conns
            .values()
            .filter_map(clock)
            .map(|since| limit.saturating_sub(now.duration_since(since)))
            .min()
    }
}

/// An epoll timeout for a deadline `due` from now, +1 ms so the sweep runs
/// *after* the deadline, not a hair before.
#[cfg(target_os = "linux")]
pub(crate) fn timeout_ms(due: Duration) -> i32 {
    due.as_millis().min(i32::MAX as u128 - 1) as i32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_sim::Xoshiro256pp;
    use std::io::{BufReader, Cursor};

    /// The framing contract, spelled out independently of the framer:
    /// split at newlines, and a trailing fragment is a line only if it is
    /// not empty.
    fn oracle(stream: &[u8], max: usize) -> Vec<LineEvent> {
        let mut parts: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        if parts.last().is_some_and(|part| part.is_empty()) {
            parts.pop();
        }
        parts
            .into_iter()
            .map(|part| match std::str::from_utf8(part) {
                _ if part.len() > max => LineEvent::TooLong { bytes: part.len() },
                Ok(line) => LineEvent::Line(line.to_owned()),
                Err(_) => LineEvent::InvalidUtf8 { bytes: part.len() },
            })
            .collect()
    }

    fn below(rng: &mut Xoshiro256pp, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// Feeds `stream` in chunks of random sizes up to `max_chunk`,
    /// checking after every chunk that the framer holds no more than `max`
    /// bytes and none at all while discarding an over-long line.
    fn feed_in_chunks(
        stream: &[u8],
        max: usize,
        max_chunk: usize,
        rng: &mut Xoshiro256pp,
    ) -> Vec<LineEvent> {
        let mut framer = LineFramer::new(max);
        let mut events = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let n = (1 + below(rng, max_chunk)).min(rest.len());
            framer.feed(&rest[..n], &mut events);
            rest = &rest[n..];
            assert!(
                framer.line.len() <= max,
                "retained {} > {max}",
                framer.line.len()
            );
            if framer.overflowed {
                assert_eq!(framer.line.capacity(), 0, "an over-long line keeps nothing");
            }
        }
        events.extend(framer.finish());
        events
    }

    /// Reads `stream` through a `BufReader` of `capacity` bytes, the way the
    /// blocking threads/`--stdio` loop does.
    fn read_blocking(stream: &[u8], max: usize, capacity: usize) -> Vec<LineEvent> {
        let mut input = BufReader::with_capacity(capacity, Cursor::new(stream.to_vec()));
        let mut framer = LineFramer::new(max);
        let mut events = Vec::new();
        while let Some(event) = framer.read_from(&mut input).expect("in-memory read") {
            assert!(framer.line.len() <= max);
            events.push(event);
        }
        events
    }

    /// A random stream: short, empty, at-limit, over-limit, multi-byte and
    /// non-UTF-8 lines, with or without a final newline.
    fn random_stream(rng: &mut Xoshiro256pp, max: usize) -> Vec<u8> {
        let mut stream = Vec::new();
        for _ in 0..1 + below(rng, 24) {
            match below(rng, 7) {
                0 => {}
                1 => stream.extend_from_slice(b"{\"kind\":\"stats\"}"),
                2 => stream.extend(std::iter::repeat_n(b'a', max)),
                3 => stream.extend(std::iter::repeat_n(b'b', max + 1)),
                4 => stream.extend(std::iter::repeat_n(b'c', max * (2 + below(rng, 5)))),
                5 => stream.extend_from_slice("é✓".repeat(1 + below(rng, 3)).as_bytes()),
                _ => stream.extend_from_slice(b"\"\xff\xfe\""),
            }
            stream.push(b'\n');
        }
        if below(rng, 2) == 0 {
            stream.pop(); // an unterminated final line
        }
        stream
    }

    #[test]
    fn framer_events_do_not_depend_on_how_the_stream_is_split() {
        let flood = vec![b'x'; 1 << 20];
        let fixed: [(&[u8], usize, Vec<LineEvent>); 3] = [
            (
                b"yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\nok\n",
                16,
                vec![
                    LineEvent::TooLong { bytes: 64 },
                    LineEvent::Line("ok".to_owned()),
                ],
            ),
            (
                b"short\nexactly8\ntoolongline\ntail",
                8,
                vec![
                    LineEvent::Line("short".to_owned()),
                    LineEvent::Line("exactly8".to_owned()),
                    LineEvent::TooLong { bytes: 11 },
                    LineEvent::Line("tail".to_owned()),
                ],
            ),
            // A newline-free flood far past the limit is discarded as it
            // streams in and reported once, at EOF.
            (&flood, 4096, vec![LineEvent::TooLong { bytes: 1 << 20 }]),
        ];
        for (seed, (stream, max, expected)) in fixed.iter().enumerate() {
            let mut rng = Xoshiro256pp::seed_from_u64(seed as u64);
            assert_eq!(
                &oracle(stream, *max),
                expected,
                "oracle, fixed input {seed}"
            );
            for max_chunk in [1, 7, 512, stream.len()] {
                if stream.len() / max_chunk > 1 << 16 {
                    continue; // byte-at-a-time over the 1 MiB flood: slow, not stronger
                }
                let events = feed_in_chunks(stream, *max, max_chunk, &mut rng);
                assert_eq!(
                    &events, expected,
                    "fixed input {seed}, chunks ≤ {max_chunk}"
                );
            }
            assert_eq!(
                &read_blocking(stream, *max, 512),
                expected,
                "fixed input {seed}"
            );
        }
        for seed in 0..200u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let max = 1 + below(&mut rng, 40);
            let stream = random_stream(&mut rng, max);
            let expected = oracle(&stream, max);
            for max_chunk in [1, 2, 1 + below(&mut rng, 3 * max), stream.len().max(1)] {
                let events = feed_in_chunks(&stream, max, max_chunk, &mut rng);
                assert_eq!(events, expected, "seed {seed}, chunks ≤ {max_chunk}");
            }
            let capacity = 1 + below(&mut rng, 2 * max);
            assert_eq!(
                read_blocking(&stream, max, capacity),
                expected,
                "seed {seed}, reader capacity {capacity}"
            );
        }
    }
}

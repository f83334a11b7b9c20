//! Load generation against one address. The open loop sends on a seeded
//! schedule from one sender thread (which sleeps until each due time) and
//! reads on one receiver thread, timing each answer from its *intended*
//! send time. The closed loop keeps a fixed number of requests in flight on
//! each connection, one thread per connection.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a connection may wait for any answer before the run gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Judges one answer line for the request with this client id.
pub type Check<'a> = &'a (dyn Fn(u64, &str) -> bool + Sync);

/// Outcome of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests (or sub-requests) sent.
    pub attempted: u64,
    /// Sent but unanswered, refused or wrong.
    pub failed: u64,
    /// Latency of every answered request line, in µs.
    pub latencies_us: Vec<f64>,
    /// For each latency: when its request was due (open loop) or answered
    /// (closed loop), in seconds from the phase start.
    pub at_s: Vec<f64>,
    /// Sub-requests answered (lines times items per line).
    pub completed_items: u64,
    /// From the phase start until the last answer.
    pub elapsed: Duration,
    /// Bytes of all answer lines, newline excluded.
    pub response_bytes: u64,
    /// Open loop only: how late each send left, in µs.
    pub late_us: Vec<f64>,
    /// Answers kept for checks after the phase, by client id.
    pub kept: Vec<(u64, String)>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.at_s.extend(other.at_s);
        self.completed_items += other.completed_items;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.response_bytes += other.response_bytes;
        self.late_us.extend(other.late_us);
        self.kept.extend(other.kept);
    }
}

/// The client id an answer line starts with (`{"id":N,...`).
pub fn leading_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Sends `lines[i]` (newline-terminated, client id `i`) at `schedule[i]` ns
/// after the phase start on one connection. `keep` selects answers to
/// return for later checks.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    schedule: &[u64],
    check: Check<'_>,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> io::Result<Phase> {
    assert_eq!(lines.len(), schedule.len());
    let stream = connect(addr)?;
    let reader = stream.try_clone()?;
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_nanos(schedule[i]);
    let (sent, mut phase) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut phase = Phase::default();
            let mut reader = BufReader::with_capacity(1 << 16, reader);
            let mut line = String::new();
            let mut answered = 0usize;
            while answered < n {
                line.clear();
                if !matches!(reader.read_line(&mut line), Ok(len) if len > 0) {
                    break;
                }
                let now = Instant::now();
                answered += 1;
                let text = line.trim_end();
                phase.response_bytes += text.len() as u64;
                match leading_id(text).filter(|&id| (id as usize) < n) {
                    Some(id) => {
                        let due = due(id as usize);
                        let latency = now.saturating_duration_since(due);
                        phase.latencies_us.push(latency.as_secs_f64() * 1e6);
                        phase.at_s.push(due.duration_since(start).as_secs_f64());
                        phase.completed_items += 1;
                        phase.elapsed = now.saturating_duration_since(start);
                        if !check(id, text) {
                            phase.failed += 1;
                        }
                        if keep(id) {
                            phase.kept.push((id, text.to_owned()));
                        }
                    }
                    None => phase.failed += 1,
                }
            }
            phase
        });
        let mut writer = &stream;
        let mut late_us = Vec::with_capacity(n);
        let mut sent = 0u64;
        for (i, line) in lines.iter().enumerate() {
            let due = due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
            sent += 1;
        }
        let mut phase = receiver.join().expect("receiver thread panicked");
        phase.late_us = late_us;
        (sent, phase)
    });
    phase.attempted = n as u64;
    // Unsent or unanswered requests fail.
    phase.failed += n as u64 - sent.min(phase.completed_items);
    Ok(phase)
}

/// One closed-loop connection's source of request lines.
pub trait LineSource: Sync {
    /// Line (without newline) for sequence number `seq` of connection
    /// `conn`, using `seq` as its client id; `None` when exhausted.
    fn line(&self, conn: usize, seq: u64) -> Option<String>;
    /// Judges the answer to `seq` on `conn`.
    fn check(&self, conn: usize, seq: u64, answer: &str) -> bool;
    /// Sub-requests carried by one line.
    fn items(&self) -> u64 {
        1
    }
}

/// `connections` connections, each keeping `in_flight` lines outstanding
/// until `duration` has passed, then draining.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    in_flight: usize,
    duration: Duration,
    source: &dyn LineSource,
) -> io::Result<Phase> {
    let start = Instant::now();
    let deadline = start + duration;
    let phases = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                s.spawn(move || connection_loop(addr, conn, in_flight, start, deadline, source))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<io::Result<Vec<Phase>>>()
    })?;
    let mut total = Phase::default();
    for p in phases {
        total.merge(p);
    }
    Ok(total)
}

fn connection_loop(
    addr: SocketAddr,
    conn: usize,
    in_flight: usize,
    start: Instant,
    deadline: Instant,
    source: &dyn LineSource,
) -> io::Result<Phase> {
    let stream = connect(addr)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = &stream;
    let mut phase = Phase::default();
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    let mut seq = 0u64;
    let mut send = |seq: &mut u64, outstanding: &mut HashMap<u64, Instant>| -> io::Result<bool> {
        let Some(mut line) = source.line(conn, *seq) else {
            return Ok(false);
        };
        line.push('\n');
        outstanding.insert(*seq, Instant::now());
        writer.write_all(line.as_bytes())?;
        *seq += 1;
        Ok(true)
    };
    for _ in 0..in_flight {
        if !send(&mut seq, &mut outstanding)? {
            break;
        }
    }
    let mut line = String::new();
    while !outstanding.is_empty() {
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(len) if len > 0) {
            break;
        }
        let now = Instant::now();
        let text = line.trim_end();
        phase.response_bytes += text.len() as u64;
        let sent = leading_id(text).and_then(|id| outstanding.remove(&id).map(|t| (id, t)));
        match sent {
            Some((id, t)) => {
                phase
                    .latencies_us
                    .push(now.duration_since(t).as_secs_f64() * 1e6);
                phase.at_s.push(now.duration_since(start).as_secs_f64());
                phase.completed_items += source.items();
                phase.elapsed = now.duration_since(start);
                if !source.check(conn, id, text) {
                    phase.failed += source.items();
                }
            }
            None => phase.failed += source.items(),
        }
        if now < deadline {
            send(&mut seq, &mut outstanding)?;
        }
    }
    phase.attempted = seq * source.items();
    phase.failed += outstanding.len() as u64 * source.items();
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_id_reads_the_client_id() {
        assert_eq!(leading_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(leading_id("{\"ok\":true}"), None);
        assert_eq!(leading_id("{\"id\":\"x\"}"), None);
    }
}

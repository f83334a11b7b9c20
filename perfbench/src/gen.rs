//! Seeded request lines for the three serving workloads. Everything here is
//! a pure function of the seed; the daemons and the router only ever see
//! the lines built from it.
//!
//! The traffic mix is an assumption, not a record: no trace of real traffic
//! exists to weight the request kinds, so every kind a workload names gets
//! an equal share of its lines, dealt in seeded blocks that hold each kind
//! once (no run draws more of one kind than another). The parameter ranges
//! are assumptions too: `analyze` widths of 16-63 bits for computed
//! requests, and for the other kinds the sizes at which the mean engine
//! call stays under about a millisecond on a 2-vCPU host, so the open loops
//! keep the two one-worker daemons well short of saturation.

use std::collections::HashSet;

use sealpaa_server::canonical::cache_key;
use sealpaa_server::protocol::Request;

use crate::rng::{Rng, Zipf};

/// Backend daemons behind the router.
pub const DAEMONS: usize = 2;
/// Distinct keys of `warm_route`.
pub const WARM_KEYS: usize = 2048;
/// Per-daemon cache capacity for `warm_route`: even if every warm key
/// landed on one daemon, none would be evicted.
pub const WARM_CACHE_ENTRIES: usize = 8192;
/// Zipf exponent of the per-connection key popularity. At 1.0 the ten most
/// popular keys take a third of the traffic, so the seed would decide the
/// response-size mix; at 0.7 they take about an eighth.
pub const WARM_ZIPF_S: f64 = 0.7;
/// Per-daemon cache capacity for `cold_route` (small, so inserts evict).
pub const COLD_CACHE_ENTRIES: usize = 1024;
/// Per-daemon cache capacity for `batch_sweep`.
pub const BATCH_CACHE_ENTRIES: usize = 1024;
/// `batch_sweep` draws items from twice the fleet's cache capacity.
pub const BATCH_WORKING_SET: usize = 2 * DAEMONS * BATCH_CACHE_ENTRIES;
/// Items per batch line, of which [`BATCH_REPEATS`] repeat earlier ones.
pub const BATCH_ITEMS: usize = 64;
pub const BATCH_REPEATS: usize = 16;
/// Distinct batch compositions per connection (cycled with fresh ids).
pub const BATCH_SEQUENCE: usize = 512;
/// Entries of a daemon connection's hot tier (`HOT_CACHE_ENTRIES` in the
/// server).
pub const HOT_TIER: usize = 8;

const CELLS: [&str; 7] = [
    "lpaa1", "lpaa2", "lpaa3", "lpaa4", "lpaa5", "lpaa6", "lpaa7",
];
const BLOCK_CELLS: [&str; 4] = ["accurate", "lpaa1", "lpaa2", "lpaa5"];
const SYNTH: [&str; 4] = ["uniform", "gaussian-sum", "random-walk", "image-gradient"];

/// One request: its JSON fields without the id, its kind and its canonical
/// cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    pub kind: &'static str,
    pub fields: String,
    pub key: String,
}

impl Body {
    /// The request line (without newline) under client id `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}}}", self.fields)
    }

    /// Parses `fields` with the server's own parser; `None` when the
    /// request would be rejected or is not cacheable.
    fn parse(fields: String) -> Option<Body> {
        let request = Request::parse(&format!("{{{fields}}}")).ok()?;
        let key = cache_key(&request.body)?;
        Some(Body {
            kind: request.body.kind(),
            fields,
            key,
        })
    }
}

fn grid_p(rng: &mut Rng) -> String {
    format!("{:.2}", rng.range(1, 19) as f64 / 20.0)
}

fn gear_fields(rng: &mut Rng, widths: &[usize], p: &str) -> Option<String> {
    let n = *rng.pick(widths);
    let r = rng.range(1, 4);
    let overlap = rng.range(0, 4);
    sealpaa_gear::GearConfig::new(n, r, overlap).ok()?;
    Some(format!(
        "\"kind\":\"gear\",\"n\":{n},\"r\":{r},\"overlap\":{overlap},\"p\":{p}"
    ))
}

/// A block-adder configuration of 2..=`max_blocks` blocks, each 2..=
/// `max_width` bits wide; the exact error distribution costs grow steeply
/// with the total width.
fn blocks_config(rng: &mut Rng, max_blocks: usize, max_width: usize) -> String {
    let blocks = rng.range(2, max_blocks);
    let mut parts = Vec::with_capacity(blocks);
    for j in 0..blocks {
        let width = rng.range(2, max_width);
        let prediction = if j == 0 { 0 } else { rng.range(0, 2) };
        parts.push(format!("{width}:{prediction}:{}", rng.pick(&BLOCK_CELLS)));
    }
    parts.join(",")
}

fn fir_fields(rng: &mut Rng, p: &str) -> String {
    let taps: Vec<String> = (0..rng.range(2, 4))
        .map(|_| rng.range(1, 4).to_string())
        .collect();
    format!(
        "\"kind\":\"datapath\",\"topology\":\"fir\",\"coefficients\":[{}],\"width\":{},\"cell\":\"{}\",\"p\":{p}",
        taps.join(","),
        rng.range(4, 8),
        rng.pick(&CELLS)
    )
}

/// Deals kind indices `0..kinds` in seeded blocks that hold each kind once.
struct Dealer {
    kinds: usize,
    hand: Vec<usize>,
}

impl Dealer {
    fn new(kinds: usize) -> Dealer {
        Dealer {
            kinds,
            hand: Vec::with_capacity(kinds),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.hand.is_empty() {
            self.hand.extend(0..self.kinds);
            rng.shuffle(&mut self.hand);
        }
        self.hand.pop().expect("the hand was just refilled")
    }
}

/// Kinds of the cheap cacheable requests: `analyze`, `gear`, `blocks`,
/// `datapath`.
const SMALL_KINDS: usize = 4;

/// A cheap cacheable request of kind `kind` (see [`SMALL_KINDS`]) over a
/// small parameter grid, or `None` for an invalid draw.
fn small_body(rng: &mut Rng, kind: usize) -> Option<Body> {
    let p = grid_p(rng);
    let fields = match kind {
        0 => format!(
            "\"kind\":\"analyze\",\"width\":{},\"cell\":\"{}\",\"p\":{p}",
            rng.range(8, 32),
            rng.pick(&CELLS)
        ),
        1 => gear_fields(rng, &[8, 12, 16, 20, 24, 32], &p)?,
        2 => format!(
            "\"kind\":\"blocks\",\"config\":\"{}\",\"p\":{p}",
            blocks_config(rng, 2, 3)
        ),
        _ => fir_fields(rng, &p),
    };
    Body::parse(fields)
}

/// `count` small requests with pairwise distinct canonical keys, in equal
/// shares per kind.
fn distinct_small_bodies(rng: &mut Rng, count: usize) -> Vec<Body> {
    let mut seen = HashSet::new();
    let mut dealer = Dealer::new(SMALL_KINDS);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let kind = dealer.next(rng);
        loop {
            if let Some(body) = small_body(rng, kind) {
                if seen.insert(body.key.clone()) {
                    out.push(body);
                    break;
                }
            }
        }
    }
    out
}

/// Engine kinds of the computing requests: `analyze`, `simulate`,
/// `compare`, `gear`, `blocks`, `dse`, `profile`, `datapath`.
const COLD_KINDS: usize = 8;

/// A computing request of kind `kind` (see [`COLD_KINDS`]). Probabilities
/// carry six random decimals, seeds are random, so draws almost never share
/// a key.
fn cold_body(rng: &mut Rng, kind: usize) -> Option<Body> {
    let p = format!("{:.6}", 0.02 + 0.96 * rng.unit());
    let cell = *rng.pick(&CELLS);
    let fields = match kind {
        0 => format!(
            "\"kind\":\"analyze\",\"width\":{},\"cell\":\"{cell}\",\"p\":{p}",
            rng.range(16, 63)
        ),
        1 => format!(
            "\"kind\":\"simulate\",\"width\":{},\"cell\":\"{cell}\",\"p\":{p},\"mode\":\"monte_carlo\",\"samples\":16384,\"seed\":{},\"threads\":1",
            rng.range(16, 32),
            rng.next_u64() >> 12
        ),
        2 => format!(
            "\"kind\":\"compare\",\"width\":{},\"cell\":\"{cell}\",\"p\":{p}",
            rng.range(6, 10)
        ),
        3 => gear_fields(rng, &[16, 20, 24, 28, 32], &p)?,
        4 => format!(
            "\"kind\":\"blocks\",\"config\":\"{}\",\"p\":{p}",
            blocks_config(rng, 3, 4)
        ),
        5 => format!(
            "\"kind\":\"dse\",\"width\":5,\"candidates\":[\"lpaa1\",\"lpaa2\",\"lpaa5\",\"accurate\"],\"p\":{p},\"threads\":1"
        ),
        6 => format!(
            "\"kind\":\"profile\",\"width\":{},\"synth\":\"{}\",\"records\":4096,\"seed\":{}",
            rng.range(8, 16),
            rng.pick(&SYNTH),
            rng.next_u64() >> 12
        ),
        _ => fir_fields(rng, &p),
    };
    Body::parse(fields)
}

/// Poisson arrival offsets (ns from the phase start) at `rate` per second
/// over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = rng.exp(1.0 / rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exp(1.0 / rate);
    }
    out
}

/// Share of a stream whose key is among the last [`HOT_TIER`] distinct keys
/// seen before it: the most that a per-connection hot tier of that size can
/// answer.
pub fn hot_eligible_frac<K: PartialEq + Clone>(stream: &[K]) -> f64 {
    if stream.is_empty() {
        return 0.0;
    }
    let mut recent: Vec<K> = Vec::with_capacity(HOT_TIER + 1);
    let mut eligible = 0usize;
    for key in stream {
        if let Some(i) = recent.iter().position(|k| k == key) {
            eligible += 1;
            recent.remove(i);
        } else if recent.len() == HOT_TIER {
            recent.remove(0);
        }
        recent.push(key.clone());
    }
    eligible as f64 / stream.len() as f64
}

/// `warm_route`: a few thousand cheap keys, Zipf-popular per connection.
pub struct Warm {
    pub keys: Vec<Body>,
    /// Key index per open-loop line, with its Poisson due offset.
    pub open_keys: Vec<usize>,
    pub open_schedule: Vec<u64>,
    /// Per capacity-phase connection: a cycled sequence of key indices.
    pub closed_keys: Vec<Vec<usize>>,
}

/// Length of each cycled capacity-phase key sequence.
const CLOSED_SEQUENCE: usize = 1 << 16;

impl Warm {
    pub fn new(seed: u64, rate: f64, open_seconds: f64, connections: usize) -> Warm {
        let keys = distinct_small_bodies(&mut Rng::derive(seed, 1), WARM_KEYS);
        let zipf = Zipf::new(keys.len(), WARM_ZIPF_S);
        // Connection `c` ranks the keys by its own seeded permutation.
        let stream = |c: usize, len: usize| -> Vec<usize> {
            let mut rng = Rng::derive(seed, 100 + c as u64);
            let mut order: Vec<usize> = (0..keys.len()).collect();
            rng.shuffle(&mut order);
            (0..len).map(|_| order[zipf.sample(&mut rng)]).collect()
        };
        let open_schedule = poisson_schedule(&mut Rng::derive(seed, 2), rate, open_seconds);
        let open_keys = stream(0, open_schedule.len());
        let closed_keys = (0..connections)
            .map(|c| stream(1 + c, CLOSED_SEQUENCE))
            .collect();
        Warm {
            keys,
            open_keys,
            open_schedule,
            closed_keys,
        }
    }
}

/// `cold_route`: every line a distinct canonical key, over every engine.
pub struct Cold {
    pub open: Vec<Body>,
    pub open_schedule: Vec<u64>,
    /// Per capacity-phase connection; never reused, so never cached.
    pub closed: Vec<Vec<Body>>,
}

impl Cold {
    pub fn new(
        seed: u64,
        rate: f64,
        open_seconds: f64,
        connections: usize,
        closed_per_connection: usize,
    ) -> Cold {
        let open_schedule = poisson_schedule(&mut Rng::derive(seed, 2), rate, open_seconds);
        let mut rng = Rng::derive(seed, 3);
        let mut seen = HashSet::new();
        let mut dealer = Dealer::new(COLD_KINDS);
        let mut next = || {
            let kind = dealer.next(&mut rng);
            loop {
                if let Some(body) = cold_body(&mut rng, kind) {
                    if seen.insert(body.key.clone()) {
                        return body;
                    }
                }
            }
        };
        let open = (0..open_schedule.len()).map(|_| next()).collect();
        let closed = (0..connections)
            .map(|_| (0..closed_per_connection).map(|_| next()).collect())
            .collect();
        Cold {
            open,
            open_schedule,
            closed,
        }
    }
}

/// `batch_sweep`: 64-item batches over a working set twice the fleet's
/// cache capacity, with repeats inside each batch.
pub struct Batch {
    pub working_set: Vec<Body>,
    /// Per connection: a cycled sequence of batches of working-set indices.
    pub batches: Vec<Vec<Vec<usize>>>,
}

impl Batch {
    pub fn new(seed: u64, connections: usize) -> Batch {
        let working_set = distinct_small_bodies(&mut Rng::derive(seed, 1), BATCH_WORKING_SET);
        let batches = (0..connections)
            .map(|c| {
                let mut rng = Rng::derive(seed, 200 + c as u64);
                (0..BATCH_SEQUENCE)
                    .map(|_| {
                        let mut items: Vec<usize> = (0..BATCH_ITEMS - BATCH_REPEATS)
                            .map(|_| rng.range(0, working_set.len() - 1))
                            .collect();
                        // Each repeat lands right after the item it copies,
                        // inside the parser's dedup window.
                        for _ in 0..BATCH_REPEATS {
                            let j = rng.range(0, items.len() - 1);
                            items.insert(j + 1, items[j]);
                        }
                        items
                    })
                    .collect()
            })
            .collect();
        Batch {
            working_set,
            batches,
        }
    }

    /// The batch line for sequence number `seq` of a connection; item `i`
    /// gets id `seq * BATCH_ITEMS + i`.
    pub fn line(&self, items: &[usize], seq: u64) -> String {
        let mut out = format!("{{\"id\":{seq},\"kind\":\"batch\",\"requests\":[");
        for (i, &w) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&self.working_set[w].line(seq * BATCH_ITEMS as u64 + i as u64));
        }
        out.push_str("]}");
        out
    }

    /// Items that repeat an earlier item of the same batch, over all items.
    pub fn dup_frac(&self) -> f64 {
        let (mut dups, mut items) = (0usize, 0usize);
        for batch in self.batches.iter().flatten() {
            let mut seen = HashSet::new();
            for &w in batch {
                items += 1;
                if !seen.insert(&self.working_set[w].key) {
                    dups += 1;
                }
            }
        }
        dups as f64 / items.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_server::cache::ResultCache;

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        let lines = |seed: u64| -> Vec<String> {
            let warm = Warm::new(seed, 5000.0, 0.2, 2);
            let cold = Cold::new(seed, 1000.0, 0.2, 2, 50);
            let batch = Batch::new(seed, 2);
            let mut out: Vec<String> = warm
                .open_keys
                .iter()
                .enumerate()
                .map(|(i, &k)| warm.keys[k].line(i as u64))
                .collect();
            out.extend(warm.open_schedule.iter().map(u64::to_string));
            out.extend(warm.closed_keys[1][..100].iter().map(usize::to_string));
            out.extend(cold.open.iter().enumerate().map(|(i, b)| b.line(i as u64)));
            out.extend(cold.closed[1].iter().map(|b| b.line(0)));
            out.extend((0..4).map(|s| batch.line(&batch.batches[1][s], s as u64)));
            out
        };
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(43));
    }

    #[test]
    fn cold_lines_have_pairwise_distinct_canonical_keys() {
        let cold = Cold::new(7, 2000.0, 1.0, 2, 500);
        let all: Vec<&Body> = cold
            .open
            .iter()
            .chain(cold.closed.iter().flatten())
            .collect();
        assert!(all.len() > 2500);
        let mut keys = HashSet::new();
        for body in &all {
            // Re-derive the key from the exact line the server receives.
            let request = Request::parse(&body.line(9)).expect("valid line");
            let key = cache_key(&request.body).expect("cacheable");
            assert!(keys.insert(key), "duplicate key in {}", body.fields);
        }
        let kinds: HashSet<&str> = all.iter().map(|b| b.kind).collect();
        for kind in [
            "analyze", "simulate", "compare", "gear", "blocks", "dse", "profile", "datapath",
        ] {
            assert!(kinds.contains(kind), "no {kind} line");
        }
    }

    #[test]
    fn kinds_come_in_equal_shares() {
        let shares = |bodies: &[&Body]| -> Vec<usize> {
            let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
            for b in bodies {
                *counts.entry(b.kind).or_default() += 1;
            }
            counts.into_values().collect()
        };
        // The whole stream is dealt in blocks holding each kind once.
        let cold = Cold::new(11, 2000.0, 0.5, 2, 301);
        let all: Vec<&Body> = cold
            .open
            .iter()
            .chain(cold.closed.iter().flatten())
            .collect();
        let counts = shares(&all);
        assert_eq!(counts.len(), COLD_KINDS);
        let (lo, hi) = (counts.iter().min(), counts.iter().max());
        assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1), "{counts:?}");
        let warm = Warm::new(11, 5000.0, 0.1, 2);
        let keys: Vec<&Body> = warm.keys.iter().collect();
        assert_eq!(shares(&keys), vec![WARM_KEYS / SMALL_KINDS; SMALL_KINDS]);
    }

    #[test]
    fn warm_key_set_fits_one_daemon_cache() {
        let warm = Warm::new(3, 5000.0, 0.1, 2);
        assert_eq!(warm.keys.len(), WARM_KEYS);
        // Worst case: every key lands on the same daemon.
        let cache = ResultCache::new(WARM_CACHE_ENTRIES);
        for body in &warm.keys {
            cache.insert(body.key.clone(), "x".to_owned());
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, WARM_KEYS);
    }

    #[test]
    fn batch_working_set_is_twice_fleet_capacity() {
        let batch = Batch::new(5, 2);
        let keys: HashSet<&String> = batch.working_set.iter().map(|b| &b.key).collect();
        let fleet_capacity = DAEMONS * BATCH_CACHE_ENTRIES;
        let ratio = keys.len() as f64 / fleet_capacity as f64;
        assert!((1.9..=2.1).contains(&ratio), "ratio {ratio}");
        for items in batch.batches.iter().flatten() {
            assert_eq!(items.len(), BATCH_ITEMS);
        }
        let dup = batch.dup_frac();
        let planned = BATCH_REPEATS as f64 / BATCH_ITEMS as f64;
        assert!(dup >= planned && dup < planned + 0.05, "dup {dup}");
    }

    #[test]
    fn hot_eligible_frac_matches_hand_count() {
        // Window of the last 8 distinct keys, oldest first:
        //   a b        -> [a b]              (2 misses)
        //   a          -> [b a]              eligible
        //   c..h       -> [b a c d e f g h]  (6 misses)
        //   i          -> [a c d e f g h i]  miss, evicts b
        //   a, i       -> eligible, eligible
        //   b          -> miss (evicted earlier)
        let stream = [
            "a", "b", "a", "c", "d", "e", "f", "g", "h", "i", "a", "i", "b",
        ];
        let expected = 3.0 / 13.0;
        assert!((hot_eligible_frac(&stream) - expected).abs() < 1e-12);
        assert_eq!(hot_eligible_frac::<u8>(&[]), 0.0);
        assert_eq!(hot_eligible_frac(&[1, 1, 1, 1]), 0.75);
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let s = poisson_schedule(&mut Rng::new(1), 5000.0, 2.0);
        assert!((9500..10_500).contains(&s.len()), "{}", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s.last().expect("non-empty") < 2_000_000_000);
    }
}

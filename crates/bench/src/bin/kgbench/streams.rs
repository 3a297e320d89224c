//! Seeded input streams shared by `update_20k` and `serve_20k`: the
//! corporate-event stream the writer applies and the query batches the
//! reader answers. Both are pure functions of the seed and the initial
//! registry, so the same seed replays byte-identical inputs.

use kgm_common::{Oid, OidSpace, Value};
use kgm_runtime::Rng;
use kgm_vadalog::{EpochSnapshot, Update};

/// Payloads of companies an `incorporate` event creates start here, far
/// above any node OID the generator assigns.
const NEW_COMPANY_BASE: u64 = 1 << 40;

/// One corporate event, expressed as an EDB change to `company/1` and
/// `own/3`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new company `newco` in which `owner` takes a majority stake.
    Incorporate { owner: Oid, newco: Oid, weight: f64 },
    /// A minority stake (weight below 0.5) between two existing companies.
    Acquire { owner: Oid, owned: Oid, weight: f64 },
    /// Retraction of a majority stake that is live when the event applies.
    Divest { owner: Oid, owned: Oid, weight: f64 },
}

fn own(owner: Oid, owned: Oid, weight: f64) -> (String, Vec<Value>) {
    (
        "own".to_string(),
        vec![Value::Oid(owner), Value::Oid(owned), Value::Float(weight)],
    )
}

impl Event {
    /// True for the one event kind that deletes (the DRed path).
    pub fn is_delete(&self) -> bool {
        matches!(self, Event::Divest { .. })
    }

    /// The event as an engine update.
    pub fn to_update(self) -> Update {
        match self {
            Event::Incorporate {
                owner,
                newco,
                weight,
            } => Update {
                inserts: vec![
                    ("company".to_string(), vec![Value::Oid(newco)]),
                    own(owner, newco, weight),
                ],
                deletes: Vec::new(),
            },
            Event::Acquire {
                owner,
                owned,
                weight,
            } => Update {
                inserts: vec![own(owner, owned, weight)],
                deletes: Vec::new(),
            },
            Event::Divest {
                owner,
                owned,
                weight,
            } => Update {
                inserts: Vec::new(),
                deletes: vec![own(owner, owned, weight)],
            },
        }
    }
}

/// Event kinds per [`WINDOW`] consecutive events: 5 `incorporate`, 4
/// `acquire`, 1 `divest`, in seeded order. Every window holds the same mix,
/// so a pass of whole windows holds exactly the documented shares.
const WINDOW: [Kind; 10] = [
    Kind::Incorporate,
    Kind::Incorporate,
    Kind::Incorporate,
    Kind::Incorporate,
    Kind::Incorporate,
    Kind::Acquire,
    Kind::Acquire,
    Kind::Acquire,
    Kind::Acquire,
    Kind::Divest,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Incorporate,
    Acquire,
    Divest,
}

/// The event stream: 50% `incorporate`, 40% `acquire`, 10% `divest`, mixed
/// per window of ten. It tracks the companies and the live majority stakes
/// itself, so every `divest` names a stake that exists when its event is
/// applied in order.
pub struct EventStream {
    rng: Rng,
    window: Vec<Kind>,
    companies: Vec<Oid>,
    majority: Vec<(Oid, Oid, f64)>,
    next_company: u64,
}

impl EventStream {
    /// A stream over an initial EDB with these `companies` and these live
    /// `own` facts (`(owner, owned, weight)`).
    pub fn new(seed: u64, companies: Vec<Oid>, own: &[(Oid, Oid, f64)]) -> EventStream {
        assert!(companies.len() >= 2, "the event stream needs two companies");
        EventStream {
            rng: Rng::seed_from_u64(seed ^ 0x5eed_e7e7),
            window: Vec::new(),
            companies,
            majority: own.iter().copied().filter(|s| s.2 > 0.5).collect(),
            next_company: NEW_COMPANY_BASE,
        }
    }

    fn company(&mut self) -> Oid {
        self.companies[self.rng.gen_range(0..self.companies.len())]
    }
}

impl Iterator for EventStream {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.window.is_empty() {
            self.window = WINDOW.to_vec();
            self.rng.shuffle(&mut self.window);
        }
        let kind = self.window.pop().expect("refilled above");
        if kind == Kind::Divest && !self.majority.is_empty() {
            let i = self.rng.gen_range(0..self.majority.len());
            let (owner, owned, weight) = self.majority.swap_remove(i);
            return Some(Event::Divest {
                owner,
                owned,
                weight,
            });
        }
        if kind == Kind::Acquire {
            let owner = self.company();
            let mut owned = self.company();
            while owned == owner {
                owned = self.company();
            }
            let weight = self.rng.gen_range(0.01..0.5);
            return Some(Event::Acquire {
                owner,
                owned,
                weight,
            });
        }
        // An incorporation, or a divest with no live majority stake left.
        let owner = self.company();
        let newco = Oid::new(OidSpace::Ground, self.next_company);
        self.next_company += 1;
        let weight = self.rng.gen_range(0.51..1.0);
        self.companies.push(newco);
        self.majority.push((owner, newco, weight));
        Some(Event::Incorporate {
            owner,
            newco,
            weight,
        })
    }
}

/// Queries per reader batch.
pub const BATCH: usize = 256;

const AGGREGATES: [&str; 4] = ["count controls", "count own", "sum own 2", "max own 2"];

/// One slot of a reader batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `path controls` at slot 0: the epoch's first graph query, which
    /// builds its property-graph projection.
    PathCold,
    /// `path controls` again at slot 128, on the already-built projection.
    PathWarm,
    /// A Cypher pattern at slot 1, on the projection built at slot 0.
    Cypher,
    /// One of four count/sum/max aggregates (every slot ≡ 2 mod 8).
    Aggregate(usize),
    /// A point lookup of the `row`-th `own` row (modulo the epoch's row
    /// count); a `miss` asks for a weight no stake ever has.
    Point { row: u64, miss: bool },
}

impl Query {
    /// The query text against `epoch`, and for a point lookup the row a
    /// correct answer returns (`None` for a miss).
    pub fn text(self, epoch: &EpochSnapshot) -> (String, Option<Vec<Value>>) {
        match self {
            Query::PathCold | Query::PathWarm => ("path controls".to_string(), None),
            Query::Cypher => ("cypher (a:v)-[e:own]->(b:v) return (a,b)".to_string(), None),
            Query::Aggregate(k) => (AGGREGATES[k].to_string(), None),
            Query::Point { row, miss } => {
                let rows = epoch.rows("own");
                let r = &rows[(row % rows.len() as u64) as usize];
                let lit = |v: &Value| match v {
                    Value::Oid(o) => format!("#{}", o.payload()),
                    Value::Float(f) => format!("{f:?}"),
                    other => panic!("generated `own` rows hold oids and floats, not {other:?}"),
                };
                // Weights lie in [0.01, 1.0]; 9.9 matches no stake.
                let weight = if miss { "9.9".to_string() } else { lit(&r[2]) };
                let text = format!("point own({}, {}, {weight})", lit(&r[0]), lit(&r[1]));
                (text, (!miss).then(|| r.clone()))
            }
        }
    }
}

/// Seeded reader batches of [`BATCH`] queries each.
pub struct QueryStream {
    rng: Rng,
}

impl QueryStream {
    pub fn new(seed: u64) -> QueryStream {
        QueryStream {
            rng: Rng::seed_from_u64(seed ^ 0x0b5e_4e4d),
        }
    }

    /// The next batch: `path controls` at slots 0 (cold) and 128 (warm),
    /// Cypher at slot 1, an aggregate at every slot ≡ 2 (mod 8), and point
    /// lookups everywhere else, every fourth of them a guaranteed miss.
    pub fn batch(&mut self) -> Vec<Query> {
        let mut points = 0usize;
        (0..BATCH)
            .map(|slot| match slot {
                0 => Query::PathCold,
                1 => Query::Cypher,
                128 => Query::PathWarm,
                s if s % 8 == 2 => Query::Aggregate((s / 8) % AGGREGATES.len()),
                _ => {
                    points += 1;
                    Query::Point {
                        row: self.rng.next_u64(),
                        miss: points.is_multiple_of(4),
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgm_common::FxHashSet;

    fn registry() -> (Vec<Oid>, Vec<(Oid, Oid, f64)>) {
        let companies: Vec<Oid> = (1..=50).map(Oid::ground).collect();
        let own = (0..49)
            .map(|i| {
                (
                    companies[i],
                    companies[i + 1],
                    if i % 3 == 0 { 0.7 } else { 0.2 },
                )
            })
            .collect();
        (companies, own)
    }

    fn events(seed: u64, n: usize) -> Vec<Event> {
        let (companies, own) = registry();
        EventStream::new(seed, companies, &own).take(n).collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let text = |seed| format!("{:?}", events(seed, 500));
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
        let batches = |seed| {
            let mut q = QueryStream::new(seed);
            format!("{:?}", (0..4).map(|_| q.batch()).collect::<Vec<_>>())
        };
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7), batches(8));
    }

    #[test]
    fn every_window_holds_the_documented_mix() {
        let evs = events(3, 100 * WINDOW.len());
        for window in evs.chunks(WINDOW.len()) {
            let count = |f: fn(&Event) -> bool| window.iter().filter(|e| f(e)).count();
            assert_eq!(count(|e| matches!(e, Event::Incorporate { .. })), 5);
            assert_eq!(count(|e| matches!(e, Event::Acquire { .. })), 4);
            assert_eq!(count(Event::is_delete), 1);
        }
    }

    #[test]
    fn every_divest_targets_a_live_majority_stake() {
        let (_, own) = registry();
        let mut live: FxHashSet<(Oid, Oid, u64)> =
            own.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect();
        for e in events(11, 5_000) {
            match e {
                Event::Incorporate {
                    owner,
                    newco,
                    weight,
                } => {
                    assert!(weight > 0.5);
                    live.insert((owner, newco, weight.to_bits()));
                }
                Event::Acquire {
                    owner,
                    owned,
                    weight,
                } => {
                    assert!(weight < 0.5 && owner != owned);
                    live.insert((owner, owned, weight.to_bits()));
                }
                Event::Divest {
                    owner,
                    owned,
                    weight,
                } => {
                    assert!(weight > 0.5);
                    assert!(
                        live.remove(&(owner, owned, weight.to_bits())),
                        "divest of a stake that is not live: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_mix_matches_the_documented_slots() {
        let batch = QueryStream::new(1).batch();
        assert_eq!(batch.len(), BATCH);
        assert_eq!(batch[0], Query::PathCold);
        assert_eq!(batch[1], Query::Cypher);
        assert_eq!(batch[128], Query::PathWarm);
        let aggregates: Vec<usize> = (0..BATCH)
            .filter(|&s| matches!(batch[s], Query::Aggregate(_)))
            .collect();
        assert_eq!(aggregates.len(), 32);
        assert!(aggregates.iter().all(|s| s % 8 == 2));
        let points: Vec<bool> = batch
            .iter()
            .filter_map(|q| match q {
                Query::Point { miss, .. } => Some(*miss),
                _ => None,
            })
            .collect();
        assert_eq!(points.len(), BATCH - 3 - 32);
        assert_eq!(points.iter().filter(|&&m| m).count(), points.len() / 4);
        assert!(points.iter().skip(3).step_by(4).all(|&m| m));
    }
}

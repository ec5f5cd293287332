//! Black-box flight recorder: a bounded ring of recent events and
//! metric-delta rounds, frozen into deterministic JSON captures when
//! something goes wrong.
//!
//! An aircraft flight recorder is useless if it only starts writing
//! after the crash; this one continuously retains the last
//! [`DEFAULT_FLIGHT_EVENTS`] structured events (anomaly verdicts, shed
//! decisions, SLO breaches) and the last [`DEFAULT_FLIGHT_ROUNDS`]
//! series rounds, so the moment a degraded round, MAD anomaly or SLO
//! breach fires, [`FlightRecorder::capture`] snapshots the ring into a
//! [`FlightCapture`] — the state *leading up to* the incident, not just
//! the incident itself.
//!
//! Everything is keyed by round keys and monotone sequence numbers —
//! never wall-clock — and rounds are filtered through
//! [`is_deterministic_metric`](crate::is_deterministic_metric), so a
//! capture (and its JSON) is byte-identical across runs at the same
//! seed. The handle is `Arc`-backed and cheap to clone into the service
//! and the serve frontend.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::series::{is_deterministic_metric, SeriesRound};
use crate::sync::lock;

/// Default bound on the event ring.
pub const DEFAULT_FLIGHT_EVENTS: usize = 128;
/// Default bound on the retained series-round ring.
pub const DEFAULT_FLIGHT_ROUNDS: usize = 16;
/// Default bound on retained captures (later incidents are counted but
/// not stored — the earliest black boxes are the valuable ones).
pub const DEFAULT_FLIGHT_CAPTURES: usize = 32;

/// One recorded event: what happened, in which round, in what order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number across the recorder's lifetime.
    pub seq: u64,
    /// Round key (scan day) the event belongs to.
    pub key: u32,
    /// Dot-separated event kind, e.g. `service.anomaly.udp53`.
    pub kind: String,
    /// Free-form `(name, value)` detail pairs.
    pub args: Vec<(String, String)>,
}

/// A frozen copy of the ring at incident time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightCapture {
    /// Sequence number at capture time (orders captures globally).
    pub seq: u64,
    /// Round key the incident fired on.
    pub key: u32,
    /// Why the capture fired, e.g. `degraded-round` or
    /// `slo:publish-freshness`.
    pub reason: String,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// The retained (deterministic-column) series rounds, oldest first.
    pub rounds: Vec<SeriesRound>,
}

struct Inner {
    max_events: usize,
    max_rounds: usize,
    max_captures: usize,
    seq: u64,
    events: VecDeque<FlightEvent>,
    rounds: VecDeque<SeriesRound>,
    captures: Vec<FlightCapture>,
    dropped_events: u64,
    dropped_captures: u64,
}

/// The shared flight-recorder handle. Cloning shares the ring.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Inner>>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default ring bounds.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(
            DEFAULT_FLIGHT_EVENTS,
            DEFAULT_FLIGHT_ROUNDS,
            DEFAULT_FLIGHT_CAPTURES,
        )
    }

    /// A recorder retaining at most `events` events, `rounds` series
    /// rounds and `captures` captures (each at least 1).
    pub fn with_capacity(events: usize, rounds: usize, captures: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(Inner {
                max_events: events.max(1),
                max_rounds: rounds.max(1),
                max_captures: captures.max(1),
                seq: 0,
                events: VecDeque::new(),
                rounds: VecDeque::new(),
                captures: Vec::new(),
                dropped_events: 0,
                dropped_captures: 0,
            })),
        }
    }

    /// Records one event into the ring.
    pub fn note(&self, key: u32, kind: &str, args: &[(&str, &str)]) {
        let mut inner = lock(&self.inner);
        if inner.events.len() == inner.max_events {
            inner.events.pop_front();
            inner.dropped_events += 1;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push_back(FlightEvent {
            seq,
            key,
            kind: kind.to_string(),
            args: args.iter().map(|(n, v)| (n.to_string(), v.to_string())).collect(),
        });
    }

    /// Retains one series round (deterministic columns only) in the
    /// round ring.
    pub fn note_round(&self, round: &SeriesRound) {
        let filtered = SeriesRound {
            key: round.key,
            values: round
                .values
                .iter()
                .filter(|(name, _)| is_deterministic_metric(name))
                .cloned()
                .collect(),
        };
        let mut inner = lock(&self.inner);
        if inner.rounds.len() == inner.max_rounds {
            inner.rounds.pop_front();
        }
        inner.rounds.push_back(filtered);
    }

    /// Freezes the ring into a capture. Returns `false` when the capture
    /// bound is reached (the incident is still counted, see
    /// [`FlightRecorder::dropped_captures`]).
    pub fn capture(&self, key: u32, reason: &str) -> bool {
        let mut inner = lock(&self.inner);
        if inner.captures.len() >= inner.max_captures {
            inner.dropped_captures += 1;
            return false;
        }
        let seq = inner.seq;
        inner.seq += 1;
        let capture = FlightCapture {
            seq,
            key,
            reason: reason.to_string(),
            events: inner.events.iter().cloned().collect(),
            rounds: inner.rounds.iter().cloned().collect(),
        };
        inner.captures.push(capture);
        true
    }

    /// Every retained capture, oldest first.
    pub fn captures(&self) -> Vec<FlightCapture> {
        lock(&self.inner).captures.clone()
    }

    /// Retained capture count.
    pub fn captures_len(&self) -> usize {
        lock(&self.inner).captures.len()
    }

    /// Incidents that fired after the capture bound was reached.
    pub fn dropped_captures(&self) -> u64 {
        lock(&self.inner).dropped_captures
    }

    /// Events aged out of the ring so far.
    pub fn dropped_events(&self) -> u64 {
        lock(&self.inner).dropped_events
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("FlightRecorder")
            .field("events", &inner.events.len())
            .field("rounds", &inner.rounds.len())
            .field("captures", &inner.captures.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_json::json;

    fn round(key: u32, values: &[(&str, u64)]) -> SeriesRound {
        let mut values: Vec<(String, u64)> =
            values.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        values.sort_by(|a, b| a.0.cmp(&b.0));
        SeriesRound { key, values }
    }

    #[test]
    fn capture_freezes_ring_state_before_the_incident() {
        let fr = FlightRecorder::with_capacity(4, 2, 8);
        fr.note(1, "service.anomaly.udp53", &[("z", "-8.0")]);
        fr.note_round(&round(1, &[("scan.udp53.hits", 12)]));
        fr.note(2, "service.degraded", &[("loss_permille", "400")]);
        fr.note_round(&round(2, &[("scan.udp53.hits", 0)]));
        assert!(fr.capture(2, "degraded-round"));
        // Later traffic doesn't alter the frozen capture.
        fr.note(3, "noise", &[]);
        let caps = fr.captures();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].reason, "degraded-round");
        assert_eq!(caps[0].events.len(), 2);
        assert_eq!(caps[0].rounds.len(), 2);
        assert_eq!(caps[0].rounds[1].value("scan.udp53.hits"), Some(0));
    }

    #[test]
    fn rings_are_bounded_and_drops_are_counted() {
        let fr = FlightRecorder::with_capacity(2, 1, 1);
        for i in 0..5 {
            fr.note(i, "e", &[]);
        }
        assert_eq!(fr.dropped_events(), 3);
        assert!(fr.capture(5, "first"));
        assert!(!fr.capture(6, "over-bound"));
        assert_eq!(fr.captures_len(), 1);
        assert_eq!(fr.dropped_captures(), 1);
        // The retained events are the most recent ones.
        assert_eq!(fr.captures()[0].events[0].seq, 3);
    }

    #[test]
    fn note_round_drops_wall_clock_columns() {
        let fr = FlightRecorder::new();
        fr.note_round(&round(
            7,
            &[("scan.icmp.hits", 5), ("scan.worker.chunk_ms.p50", 12), ("alias.round_ms.sum", 9)],
        ));
        fr.capture(7, "test");
        let caps = fr.captures();
        assert_eq!(caps[0].rounds[0].values, vec![("scan.icmp.hits".to_string(), 5)]);
    }

    #[test]
    fn capture_json_is_deterministic_and_escaped() {
        let make = || {
            let fr = FlightRecorder::new();
            fr.note(1, "kind\"quote", &[("arg", "value\n")]);
            fr.note_round(&round(1, &[("scan.hits", 3)]));
            fr.capture(1, "slo:avail");
            sixdust_json::to_string_pretty(&fr.captures())
        };
        let a = make();
        assert_eq!(a, make(), "same inputs, same bytes");
        let doc = sixdust_json::parse(&a).unwrap();
        let capture = &doc.as_array().unwrap()[0];
        assert_eq!(capture.get("reason"), Some(&json!("slo:avail")));
        assert_eq!(
            (capture.get("key"), capture.get("seq")),
            (Some(&json!(1u32)), Some(&json!(1u64)))
        );
        let event = &capture.get("events").unwrap().as_array().unwrap()[0];
        assert_eq!(event.get("kind"), Some(&json!("kind\"quote")));
        assert_eq!(event.get("args"), Some(&json!({ "arg": "value\n" })));
        let round = json!({ "key": 1u32, "scan.hits": 3u64 });
        assert_eq!(capture.get("rounds"), Some(&json!([round])), "a round is a series line");
    }
}

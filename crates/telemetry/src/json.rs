//! The JSON forms of the telemetry types, written through `sixdust_json`
//! like every other file the workspace keeps.
//!
//! A [`Snapshot`] is one document, metric names sorted (folded here; the
//! pretty writer gives every member a line of its own):
//!
//! ```json
//! { "counters": { "scan.icmp.hits": 12 }, "gauges": { "pool.size": -3 },
//!   "histograms": { "scan.worker.chunk_ms": { "count": 4, "sum": 10, "min": 1,
//!     "max": 5, "p50": 2, "p90": 5, "p99": 5, "buckets": [[1, 2], [4, 2]] } } }
//! ```
//!
//! It is the one export read back: `p50`/`p90`/`p99` are derived from the
//! buckets and ignored on import, so documents round-trip, and an unknown
//! section or histogram field is an error. A [`SeriesRound`] is one flat
//! object, `{"key": 330, "<metric>": <value>, …}`, as a series line and as
//! a round of a [`FlightCapture`]; a [`TraceEvent`] is one Chrome trace
//! event; key/value arguments are objects throughout.

use sixdust_json::{Error, FromJson, ToJson, Value};

use crate::flight::{FlightCapture, FlightEvent};
use crate::metrics::HistogramSnapshot;
use crate::registry::Snapshot;
use crate::series::SeriesRound;
use crate::trace::{TraceEvent, TracePhase};

fn member(key: &str, value: impl ToJson) -> (String, Value) {
    (key.to_string(), value.to_value())
}

/// `(name, value)` pairs as one object, in order.
fn object<V: ToJson>(pairs: &[(String, V)]) -> Value {
    Value::Object(pairs.iter().map(|(name, value)| member(name, value)).collect())
}

/// The members of the object `v`, each value read as a `T`.
fn named<T: FromJson>(v: &Value) -> Result<Vec<(String, T)>, Error> {
    v.as_object()?.iter().map(|(name, value)| Ok((name.clone(), T::from_value(value)?))).collect()
}

impl ToJson for Snapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            member("counters", object(&self.counters)),
            member("gauges", object(&self.gauges)),
            member("histograms", object(&self.histograms)),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_value(v: &Value) -> Result<Snapshot, Error> {
        let mut snap = Snapshot::default();
        for (section, value) in v.as_object()? {
            match section.as_str() {
                "counters" => snap.counters = named(value)?,
                "gauges" => snap.gauges = named(value)?,
                "histograms" => snap.histograms = named(value)?,
                other => return Err(Error::new(format!("unknown section '{other}'"))),
            }
        }
        Ok(snap)
    }
}

impl ToJson for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            member("count", self.count),
            member("sum", self.sum),
            member("min", self.min),
            member("max", self.max),
            member("p50", self.p50()),
            member("p90", self.p90()),
            member("p99", self.p99()),
            member("buckets", &self.buckets),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_value(v: &Value) -> Result<HistogramSnapshot, Error> {
        let mut snap = HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: vec![] };
        for (key, value) in v.as_object()? {
            match key.as_str() {
                "count" => snap.count = u64::from_value(value)?,
                "sum" => snap.sum = u64::from_value(value)?,
                "min" => snap.min = u64::from_value(value)?,
                "max" => snap.max = u64::from_value(value)?,
                // Percentiles are derived from the buckets; accepted and
                // ignored so exports round-trip.
                "p50" | "p90" | "p99" => {
                    u64::from_value(value)?;
                }
                "buckets" => snap.buckets = Vec::from_value(value)?,
                other => return Err(Error::new(format!("unknown histogram field '{other}'"))),
            }
        }
        Ok(snap)
    }
}

impl ToJson for SeriesRound {
    fn to_value(&self) -> Value {
        let values = self.values.iter().map(|(name, value)| member(name, value));
        Value::Object(std::iter::once(member("key", self.key)).chain(values).collect())
    }
}

/// A complete span (`"ph": "X"` with its `dur`) or a thread-scoped
/// instant (`"ph": "i"`, `"s": "t"`), categorised by the name's first
/// segment.
impl ToJson for TraceEvent {
    fn to_value(&self) -> Value {
        let cat = self.name.split('.').next().unwrap_or("trace");
        let mut members = vec![member("name", &self.name), member("cat", cat)];
        members.extend(match self.phase {
            TracePhase::Complete => {
                [member("ph", "X"), member("ts", self.ts_us), member("dur", self.dur_us)]
            }
            TracePhase::Instant => [member("ph", "i"), member("ts", self.ts_us), member("s", "t")],
        });
        members.extend([member("pid", 1u64), member("tid", self.tid)]);
        if !self.args.is_empty() {
            members.push(member("args", object(&self.args)));
        }
        Value::Object(members)
    }
}

impl ToJson for FlightEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            member("seq", self.seq),
            member("key", self.key),
            member("kind", &self.kind),
            member("args", object(&self.args)),
        ])
    }
}

impl ToJson for FlightCapture {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            member("reason", &self.reason),
            member("key", self.key),
            member("seq", self.seq),
            member("events", &self.events),
            member("rounds", &self.rounds),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::registry::Registry;
    use crate::series::SeriesRecorder;
    use crate::trace::TraceJournal;

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        let json = snap.to_json();
        assert_eq!(Snapshot::from_json(&json).unwrap(), snap);
    }

    #[test]
    fn populated_snapshot_round_trips() {
        let reg = Registry::new();
        reg.counter("scan.icmp.hits").add(12);
        reg.counter("scan.tcp80.probes_sent").add(9_000_000_000);
        reg.gauge("pool.size").set(-3);
        let h = reg.histogram("scan.worker.chunk_ms");
        for v in [0, 1, 1, 5, 5, 700] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("scan.icmp.hits"), Some(12));
        assert_eq!(back.histogram("scan.worker.chunk_ms").unwrap().count, 6);
    }

    #[test]
    fn names_with_escapes_round_trip() {
        let reg = Registry::new();
        reg.counter("weird \"name\"\\with\nescapes\tand µnicode").add(1);
        let snap = reg.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn a_snapshot_written_by_hand_still_reads() {
        // What the hand-formatted exporter wrote before snapshots went
        // through `sixdust_json`, byte for byte: one line a histogram,
        // `{\n  }` for an empty section, a trailing newline.
        let old = r#"{
  "counters": {
    "quote \" back \\ nl \n ctl \u0001 µ": 1,
    "scan.icmp.hits": 12,
    "scan.tcp80.probes_sent": 9000000000
  },
  "gauges": {
    "pool.size": -3,
    "service.loss_estimate_permille": 7
  },
  "histograms": {
    "alias.round_ms": {"count": 0, "sum": 0, "min": 0, "max": 0, "p50": 0, "p90": 0, "p99": 0, "buckets": []},
    "scan.worker.chunk_ms": {"count": 6, "sum": 712, "min": 0, "max": 700, "p50": 1, "p90": 700, "p99": 700, "buckets": [[0, 1], [1, 2], [4, 2], [512, 1]]}
  }
}
"#;
        let reg = Registry::new();
        reg.counter("scan.icmp.hits").add(12);
        reg.counter("scan.tcp80.probes_sent").add(9_000_000_000);
        reg.counter("quote \" back \\ nl \n ctl \u{1} µ").add(1);
        reg.gauge("pool.size").set(-3);
        reg.gauge("service.loss_estimate_permille").set(7);
        reg.histogram("alias.round_ms");
        let h = reg.histogram("scan.worker.chunk_ms");
        for v in [0, 1, 1, 5, 5, 700] {
            h.record(v);
        }
        assert_eq!(Snapshot::from_json(old), Ok(reg.snapshot()));
        let empty =
            "{\n  \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  }\n}\n";
        assert_eq!(Snapshot::from_json(empty), Ok(Snapshot::default()));
    }

    #[test]
    fn every_export_reads_back_with_the_strings_and_numbers_that_went_in() {
        let odd = "q\"b\\s\nc\u{1}µ→";
        let (counter, gauge, hist) = (format!("c.{odd}"), format!("g.{odd}"), format!("h.{odd}"));
        let reg = Registry::new();
        let journal = TraceJournal::new();
        let flight = FlightRecorder::new();
        reg.install_tracer(&journal);
        reg.install_flight(&flight);
        let mut series = SeriesRecorder::new(reg.clone(), 4);
        reg.counter(&counter).add(u64::MAX);
        reg.gauge(&gauge).set(i64::MIN);
        reg.histogram(&hist).record(5);
        journal.instant(&counter, &[(odd, odd)]);
        journal.span_with(odd, &[("k", odd)]).end();
        flight.note(7, odd, &[(odd, odd)]);
        flight.note_round(series.record(7));
        flight.capture(7, odd);

        let parse =
            |text: &str| sixdust_json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        let text = |s: &str| Value::String(s.to_string());
        let uint = |n: u64| Value::UInt(n.into());
        let odd_args = Value::Object(vec![(odd.to_string(), text(odd))]);

        let snap = parse(&reg.snapshot().to_json());
        let section = |name: &str| snap.get(name).expect("section");
        assert_eq!(section("counters").get(&counter), Some(&uint(u64::MAX)));
        assert_eq!(section("gauges").get(&gauge), Some(&Value::Int(i64::MIN.into())));
        let h = section("histograms").get(&hist).expect("histogram");
        assert_eq!(
            (h.get("count"), h.get("sum"), h.get("p99")),
            (Some(&uint(1)), Some(&uint(5)), Some(&uint(5)))
        );
        assert_eq!(h.get("buckets"), Some(&sixdust_json::json!([(4u64, 1u64)])));

        let lines: Vec<Value> = series.to_jsonl().lines().map(parse).collect();
        let round = series.rounds().next().expect("one round");
        assert_eq!(lines.len(), 1);
        let line = lines[0].as_object().expect("one object a line");
        assert_eq!(line[0], ("key".to_string(), uint(7)));
        let values: Vec<(String, Value)> =
            round.values.iter().map(|(name, v)| (name.clone(), uint(*v))).collect();
        assert_eq!(line[1..], values[..]);
        assert_eq!(lines[0].get(&counter), Some(&uint(u64::MAX)));

        let trace = parse(&journal.to_chrome_json());
        let events = trace.get("traceEvents").expect("traceEvents").as_array().expect("array");
        let field = |i: usize, key: &str| events[i].get(key).cloned();
        assert_eq!(events.len(), 2);
        assert_eq!((field(0, "name"), field(0, "cat")), (Some(text(&counter)), Some(text("c"))));
        assert_eq!((field(0, "ph"), field(0, "args")), (Some(text("i")), Some(odd_args.clone())));
        assert_eq!((field(1, "name"), field(1, "cat")), (Some(text(odd)), Some(text(odd))));
        let span_args = Value::Object(vec![("k".to_string(), text(odd))]);
        assert_eq!((field(1, "ph"), field(1, "args")), (Some(text("X")), Some(span_args)));

        let captures = flight.captures();
        assert_eq!(captures.len(), 1);
        let capture = parse(&sixdust_json::to_string_pretty(&captures[0]));
        assert_eq!((capture.get("reason"), capture.get("key")), (Some(&text(odd)), Some(&uint(7))));
        let event = &capture.get("events").expect("events").as_array().expect("array")[0];
        assert_eq!((event.get("kind"), event.get("args")), (Some(&text(odd)), Some(&odd_args)));
        assert_eq!(capture.get("rounds"), Some(&Value::Array(lines)), "a round is one shape");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{\"counters\": {").is_err());
        assert!(Snapshot::from_json("{\"bogus\": {}}").is_err());
        assert!(Snapshot::from_json("{\"gauges\": {\"g\": 99999999999999999999}}").is_err());
        let unknown_field = "{\"histograms\": {\"h\": {\"count\": 0, \"mean\": 0}}}";
        assert!(Snapshot::from_json(unknown_field).is_err());
    }

    #[test]
    fn percentiles_exported_and_ignored_on_import() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"p50\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
        assert_eq!(Snapshot::from_json(&json).unwrap(), snap);
    }

    /// A tiny deterministic LCG so the structured "fuzz" tests below are
    /// reproducible (the wider seeded suite lives in `tests/proptests.rs`).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn random_snapshot(seed: u64) -> Snapshot {
        let mut rng = Lcg(seed);
        let reg = Registry::new();
        for i in 0..rng.next() % 8 {
            reg.counter(&format!("c.{i}")).add(rng.next());
        }
        for i in 0..rng.next() % 8 {
            reg.gauge(&format!("g.{i}")).set(rng.next() as i64);
        }
        for i in 0..rng.next() % 4 {
            let h = reg.histogram(&format!("h.{i}"));
            for _ in 0..rng.next() % 64 {
                h.record(rng.next() % (1 << (rng.next() % 40)).max(1));
            }
        }
        reg.snapshot()
    }

    #[test]
    fn random_snapshots_round_trip() {
        for seed in 0..64 {
            let snap = random_snapshot(seed);
            let back =
                Snapshot::from_json(&snap.to_json()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, snap, "seed {seed}");
        }
    }

    #[test]
    fn every_truncation_errs_instead_of_panicking() {
        let snap = random_snapshot(7);
        let json = snap.to_json();
        for len in 0..json.len() - 1 {
            if !json.is_char_boundary(len) {
                continue;
            }
            let result = Snapshot::from_json(&json[..len]);
            // No truncated prefix of a valid document is itself valid —
            // and none may panic.
            assert!(result.is_err(), "prefix of {len} bytes parsed: {:?}", result);
        }
    }

    #[test]
    fn garbage_bytes_err_instead_of_panicking() {
        let mut rng = Lcg(99);
        for _ in 0..256 {
            let len = (rng.next() % 64) as usize;
            let garbage: String = (0..len)
                .map(|_| char::from_u32((rng.next() % 0x80) as u32).unwrap_or('?'))
                .collect();
            let _ = Snapshot::from_json(&garbage); // must not panic
        }
        assert!(Snapshot::from_json("{\"counters\": {\"\\u00").is_err());
        assert!(Snapshot::from_json("{\"counters\": {\"a\": -1}}").is_err());
    }
}

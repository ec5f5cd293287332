//! JSON export/import for [`Snapshot`]s.
//!
//! The emitted document is deterministic (metric names are sorted) and
//! keeps a fixed, hand-formatted shape:
//!
//! ```json
//! {
//!   "counters": { "scan.icmp.hits": 12 },
//!   "gauges": { "pool.size": -3 },
//!   "histograms": {
//!     "scan.worker.chunk_ms": {
//!       "count": 4, "sum": 10, "min": 1, "max": 5,
//!       "p50": 2, "p90": 5, "p99": 5,
//!       "buckets": [[1, 2], [4, 2]]
//!     }
//!   }
//! }
//! ```
//!
//! `p50`/`p90`/`p99` are derived from the buckets on export and ignored
//! on import (the buckets are authoritative), so documents round-trip.
//!
//! Reading goes through `sixdust_json::parse`; only this shape is
//! accepted — an unknown section or histogram field is an error.

use sixdust_json::{escape, Error, FromJson, Value};

use crate::metrics::HistogramSnapshot;
use crate::registry::Snapshot;

pub(crate) fn snapshot_to_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        escape(name, &mut out);
        out.push_str(&format!(": {value}"));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        escape(name, &mut out);
        out.push_str(&format!(": {value}"));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        escape(name, &mut out);
        out.push_str(&format!(
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        ));
        for (j, (floor, count)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{floor}, {count}]"));
        }
        out.push_str("]}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// The members of the object `v`, each value read as a `T`.
fn named<T: FromJson>(v: &Value) -> Result<Vec<(String, T)>, Error> {
    v.as_object()?.iter().map(|(name, value)| Ok((name.clone(), T::from_value(value)?))).collect()
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

fn read_snapshot(text: &str) -> Result<Snapshot, Error> {
    let mut snap = Snapshot::default();
    for (section, value) in sixdust_json::parse(text)?.as_object()? {
        match section.as_str() {
            "counters" => snap.counters = named(value)?,
            "gauges" => snap.gauges = named(value)?,
            "histograms" => snap.histograms = named(value)?,
            other => return Err(Error::new(format!("unknown section '{other}'"))),
        }
    }
    Ok(snap)
}

pub(crate) fn snapshot_from_json(text: &str) -> Result<Snapshot, String> {
    read_snapshot(text).map_err(|e| format!("telemetry JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

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
    fn parser_rejects_malformed_input() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{\"counters\": {").is_err());
        assert!(Snapshot::from_json("{\"bogus\": {}}").is_err());
        assert!(Snapshot::from_json("{\"gauges\": {\"g\": 99999999999999999999}}").is_err());
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

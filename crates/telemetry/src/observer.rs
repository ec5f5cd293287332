//! The round judge: the hitlist service's scan days and the chaos day's
//! virtual hours are recorded and judged by one [`Observer::record`], so
//! a breach reads the same in either's flight captures.

use crate::registry::Registry;
use crate::series::{SeriesRecorder, DEFAULT_SERIES_CAPACITY};
use crate::slo::SloEngine;

/// A [`SeriesRecorder`] keeping [`DEFAULT_SERIES_CAPACITY`] rounds and an
/// [`SloEngine`] emitting into the same registry.
///
/// ```
/// use sixdust_telemetry::{FlightRecorder, Observer, Registry, SloEngine};
/// let reg = Registry::new();
/// reg.install_flight(&FlightRecorder::new());
/// let mut observer = Observer::new(&reg, SloEngine::standard());
/// for day in 0..3 {
///     reg.counter("service.rounds").incr();
///     reg.counter("service.degraded_rounds").incr();
///     observer.record(day);
/// }
/// assert_eq!(observer.series().len(), 3);
/// let captures = observer.registry().flight().expect("installed").captures();
/// assert_eq!(captures[0].reason, "slo:degraded-rounds");
/// ```
#[derive(Debug)]
pub struct Observer {
    series: SeriesRecorder,
    slo: SloEngine,
}

impl Observer {
    /// An observer of `registry` judging its rounds by `slo` (an engine
    /// over no objectives judges nothing and adds no metric).
    pub fn new(registry: &Registry, slo: SloEngine) -> Observer {
        Observer {
            series: SeriesRecorder::new(registry.clone(), DEFAULT_SERIES_CAPACITY),
            slo: slo.with_registry(registry),
        }
    }

    /// Records the registry's round keyed by `key` and judges it. With a
    /// flight recorder installed in the registry, the round enters its
    /// round ring, every breach is noted as an `slo.breach` event, and a
    /// breach onset freezes a capture. The caller brings the registry up
    /// to date first.
    pub fn record(&mut self, key: u32) {
        let flight = self.registry().flight();
        let round = self.series.record(key);
        if let Some(flight) = &flight {
            flight.note_round(round);
        }
        for breach in self.slo.observe(round) {
            let Some(flight) = &flight else { continue };
            let bad = breach.bad_permille.to_string();
            flight.note(key, "slo.breach", &[("slo", &breach.slo), ("bad_permille", &bad)]);
            if breach.onset {
                flight.capture(key, &format!("slo:{}", breach.slo));
            }
        }
    }

    /// The registry observed.
    pub fn registry(&self) -> &Registry {
        self.series.registry()
    }

    /// The recorded rounds.
    pub fn series(&self) -> &SeriesRecorder {
        &self.series
    }

    /// The SLO engine: burn rates and the breach log.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }
}

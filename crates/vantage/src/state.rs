//! Fleet checkpoints.
//!
//! A multi-vantage run checkpoints the same way the single-vantage
//! service does — crash-safe atomic writes, versioned JSON — but carries
//! one [`ServiceState`] per vantage plus the disagreement reports
//! accumulated so far. `services[0]` is always a plain, unmodified
//! [`ServiceState`] capture of the primary vantage, so an `N = 1` fleet
//! checkpoint's service payload is exactly what the single-vantage
//! pipeline would have written.

use std::path::Path;

use sixdust_hitlist::{checkpoint, ServiceState};
use sixdust_json::json_struct;

use crate::fleet::VantageFleet;
use crate::report::VantageReport;
use crate::spec::VantageSpec;

/// Current fleet checkpoint format version.
pub const FLEET_STATE_VERSION: u32 = 1;

/// A serializable checkpoint of a whole vantage fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetState {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The roster the fleet ran with; restore refuses a different one.
    pub specs: Vec<VantageSpec>,
    /// One service checkpoint per vantage, roster order.
    pub services: Vec<ServiceState>,
    /// Disagreement reports for every synchronized batch completed.
    pub reports: Vec<VantageReport>,
}
json_struct!(FleetState { version, specs, services, reports });

impl FleetState {
    /// Captures a checkpoint from a running fleet.
    pub fn capture(fleet: &VantageFleet) -> FleetState {
        FleetState {
            version: FLEET_STATE_VERSION,
            specs: fleet.specs().to_vec(),
            services: fleet.services().map(ServiceState::capture).collect(),
            reports: fleet.reports().to_vec(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        sixdust_json::to_string_pretty(self)
    }

    /// Parses a fleet checkpoint, rejecting unknown versions.
    pub fn from_json(json: &str) -> Result<FleetState, String> {
        let state: FleetState =
            sixdust_json::from_str(json).map_err(|e| format!("fleet checkpoint parse: {e}"))?;
        if state.version != FLEET_STATE_VERSION {
            return Err(format!(
                "fleet checkpoint version {} unsupported (expected {FLEET_STATE_VERSION})",
                state.version
            ));
        }
        Ok(state)
    }

    /// Consistency checks before trusting a checkpoint: the roster and
    /// service list must agree, and every per-vantage service state must
    /// itself validate.
    pub fn validate(&self) -> Result<(), String> {
        if self.specs.is_empty() {
            return Err("fleet checkpoint has an empty roster".to_string());
        }
        if self.specs.len() != self.services.len() {
            return Err(format!(
                "fleet checkpoint has {} specs but {} services",
                self.specs.len(),
                self.services.len()
            ));
        }
        for (i, svc) in self.services.iter().enumerate() {
            svc.validate().map_err(|e| format!("vantage {i} state: {e}"))?;
        }
        Ok(())
    }

    /// Writes the checkpoint crash-safely, through the writer
    /// [`ServiceState::save_atomic`] uses.
    pub fn save_atomic(&self, path: &Path) -> std::io::Result<()> {
        checkpoint::save_atomic(path, &self.to_json())
    }

    /// Loads, parses and validates a checkpoint written by
    /// [`FleetState::save_atomic`].
    pub fn load(path: &Path) -> Result<FleetState, String> {
        let state = FleetState::from_json(&checkpoint::load(path)?)?;
        state.validate()?;
        Ok(state)
    }
}

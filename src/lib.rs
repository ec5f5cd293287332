//! sixdust — a reproduction of "Rusty Clusters? Dusting an IPv6 Research
//! Foundation" (Zirngibl et al., IMC 2022).
//!
//! This facade crate re-exports the workspace's sub-crates under one
//! roof so examples and downstream users can depend on a single name:
//!
//! * [`addr`] — IPv6 addresses, prefixes, tries and IID classification;
//! * [`wire`] — packet formats (IPv6, ICMPv6, TCP, UDP, DNS, QUIC);
//! * [`net`] — the simulated IPv6 Internet (registry, population, GFW,
//!   faults, virtual time);
//! * [`scan`] — the high-rate scan engine, rate limiter and yarrp-style
//!   traceroute;
//! * [`alias`] — aliased-prefix detection, fingerprinting and the
//!   too-big trick;
//! * [`tga`] — the target-generation-algorithm lineup of the paper;
//! * [`hitlist`] — the hitlist service pipeline (ingest, filter, scan,
//!   publish, churn);
//! * [`serve`] — the distribution subsystem: a sharded snapshot store
//!   with atomic generation swaps, delta-encoded artifacts, and a
//!   simulated registered-consumer fleet (ETags, LRU cache, admission
//!   control);
//! * [`vantage`] — multi-vantage scanning: a deterministic
//!   discrete-event round scheduler running N vantage points (EU / US /
//!   behind-GFW CN) over one simulated Internet, with one scan job per
//!   vantage and cross-vantage disagreement analysis;
//! * [`analysis`] — tables, CDFs and histograms for the experiments;
//! * [`json`] — the one JSON layer: checkpoints, manifests and reports
//!   are written and read back through it;
//! * [`telemetry`] — always-on counters, histograms and span timers for
//!   every stage above, plus the longitudinal layer: per-round series
//!   recording, a Chrome-trace journal and online MAD anomaly
//!   detection.
//!
//! # Quick start
//!
//! ```no_run
//! use sixdust::hitlist::{HitlistService, ServiceConfig};
//! use sixdust::net::{Day, Internet, Scale};
//! use sixdust::telemetry::Registry;
//!
//! let net = Internet::build(Scale::tiny());
//! let registry = Registry::new();
//! let config = ServiceConfig::default().with_alias_every_days(14);
//! let mut svc = HitlistService::new(config).with_telemetry(registry.clone());
//! svc.run(&net, Day(0), Day(28));
//! println!("{}", registry.snapshot().to_json());
//! ```

pub use sixdust_addr as addr;
pub use sixdust_alias as alias;
pub use sixdust_analysis as analysis;
pub use sixdust_hitlist as hitlist;
pub use sixdust_json as json;
pub use sixdust_net as net;
pub use sixdust_scan as scan;
pub use sixdust_serve as serve;
pub use sixdust_telemetry as telemetry;
pub use sixdust_tga as tga;
pub use sixdust_vantage as vantage;
pub use sixdust_wire as wire;

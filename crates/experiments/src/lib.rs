//! The paper's tables and figures as a library: one shared [`Ctx`] (the
//! simulated Internet and the four-year service run) and one function per
//! table or figure, named once in [`EXPERIMENTS`] and called through
//! [`run`]. `DESIGN.md` §4 indexes them. The `sixdust-exp` binary is the
//! command line over this crate.
//!
//! ```no_run
//! use sixdust_experiments::{run, Ctx, ObsOptions, EXPERIMENTS};
//! use sixdust_net::Scale;
//!
//! let ctx = Ctx::build_resumable(Scale::tiny(), ObsOptions::default(), None)?;
//! for (name, _) in EXPERIMENTS {
//!     let out = run(name, &ctx, "results".as_ref()).expect("a listed experiment");
//!     println!("{name}\n{}", out.text);
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

mod context;
mod exp_ablations;
mod exp_alias;
mod exp_extensions;
mod exp_newsources;
mod exp_service;

use std::path::Path;

pub use context::{set_aside, Ctx, ObsOptions};

/// One experiment's rendered output.
pub struct ExpOutput {
    /// Human-readable block.
    pub text: String,
    /// Machine-readable result.
    pub json: sixdust_json::Value,
}

/// An experiment: it reads the context, and only `publish` also writes,
/// under the output directory it is given.
pub type Experiment = fn(&Ctx, &Path) -> ExpOutput;

/// Every experiment, in the order `all` runs them. The name is the
/// experiment's id: the file stem of its outputs and the `experiment`
/// field of its JSON.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig2", |ctx, _| exp_service::fig2(ctx)),
    ("fig3", |ctx, _| exp_service::fig3(ctx)),
    ("fig4", |ctx, _| exp_service::fig4(ctx)),
    ("fig5", |ctx, _| exp_alias::fig5(ctx)),
    ("fig6", |ctx, _| exp_alias::fig6(ctx)),
    ("fig7", |ctx, _| exp_newsources::fig7(ctx)),
    ("fig8", |ctx, _| exp_newsources::fig8(ctx)),
    ("fig9", |ctx, _| exp_service::fig9(ctx)),
    ("fig10", |ctx, _| exp_service::fig10(ctx)),
    ("table1", |ctx, _| exp_service::table1(ctx)),
    ("table2", |ctx, _| exp_alias::table2(ctx)),
    ("table3", |ctx, _| exp_newsources::table3(ctx)),
    ("table4", |ctx, _| exp_newsources::table4(ctx)),
    ("table5", |ctx, _| exp_service::table5(ctx)),
    ("fingerprints", |ctx, _| exp_alias::fingerprints(ctx)),
    ("domains", |ctx, _| exp_alias::domains(ctx)),
    ("dnsvalidate", |ctx, _| exp_alias::dnsvalidate(ctx)),
    ("eui64", |ctx, _| exp_service::eui64(ctx)),
    ("stability", |ctx, _| exp_service::stability(ctx)),
    ("ablations", |ctx, _| exp_ablations::ablations(ctx)),
    ("seedless", |ctx, _| exp_extensions::seedless(ctx)),
    ("publish", exp_extensions::publish_artifacts),
    ("iidclasses", |ctx, _| exp_extensions::iidclasses(ctx)),
    ("pipeline", |ctx, _| exp_service::pipeline(ctx)),
];

/// Runs the experiment called `name` on `ctx`, or `None` when no
/// experiment has that name. Only `publish` writes, under `out_dir`.
pub fn run(name: &str, ctx: &Ctx, out_dir: &Path) -> Option<ExpOutput> {
    let (_, experiment) = EXPERIMENTS.iter().find(|(known, _)| *known == name)?;
    Some(experiment(ctx, out_dir))
}

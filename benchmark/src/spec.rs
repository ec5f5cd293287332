//! What the benchmark measures: the workloads, the metric tables and the
//! one table of workload sizes. `BENCHMARK.json` at the repository root
//! repeats the names, units, directions and bounds; a test keeps the two
//! in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Passes one run of `RUN_SECONDS` makes. The count is fixed, not
    /// what fits into the run's wall time, so that a slower commit's
    /// fastest and median pass are drawn from as many samples as a faster
    /// one's. Sized so that a run takes about 17 s at the first baseline.
    pub passes: usize,
}

impl WorkloadSpec {
    /// Passes a run of `seconds` makes: in proportion to its length, one
    /// at least.
    pub fn passes_in(&self, seconds: f64) -> usize {
        ((self.passes as f64 * seconds / RUN_SECONDS).round() as usize).max(1)
    }
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "service_4y",
        why: "the four-year hitlist service: many rounds over a growing input; prepare, scan and complete each take about a third",
        passes: 20,
    },
    WorkloadSpec {
        name: "service_dense",
        why: "few rounds over a 50x denser population: source ingestion and the scans dominate, sets are ten times larger, alias rounds are rare",
        passes: 18,
    },
    WorkloadSpec {
        name: "vantage_fleet",
        why: "the same round kernels under the 3-vantage work-stealing executor across the GFW era-1 onset: scheduler cost shows here only",
        passes: 25,
    },
    WorkloadSpec {
        name: "serve_uniform_day",
        why: "read-only uniform day on a cache-warm store: the reactor and frontend hot path",
        passes: 32,
    },
    WorkloadSpec {
        name: "serve_flash_day",
        why: "session clients with two flash spikes: schedule build and sort, per-client state; a generator or bucket fix shows here and not on the uniform day",
        passes: 34,
    },
    WorkloadSpec {
        name: "serve_chaos_day",
        why: "writes beside reads: 24 hourly publishes, delta codec, mirror sync and retry/hedge/breaker logic over 4 faulty mirrors; its 7 % spread over seeds is the widest and sets the one ops_per_s bound",
        passes: 24,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off. All
/// timings are host time. The contract has one bound per metric for all
/// six workloads, so the workload that spreads widest sets it: a bound is
/// about three times the widest spread (quartile distance over median, ten
/// seeds) any workload showed, and 25 %, the contract's maximum, where the
/// host's noise asks for that. See "End-to-end metrics" in the README.
pub const END_TO_END: [EndToEnd; 5] = [
    // Operations are hitlist rounds (vantage-rounds for the fleet) on
    // the round-driven workloads and logical requests on the serve days.
    // The fastest pass, step by step. `serve_chaos_day` spreads 7 %: its
    // seed's sync-corruption coins decide how many syncs are redone.
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    // The median whole pass, which follows the host's disturbance.
    EndToEnd { name: "ops_per_s_median", unit: "1/s", better: Better::Higher, bound: 0.25 },
    // `service_4y`'s 17 MiB spread 5.5 %: thread stacks and allocator arenas.
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
    // A count, exact for one seed; `service_4y` moves 2.5 % between seeds.
    EndToEnd { name: "set_bytes_per_addr", unit: "B/addr", better: Better::Lower, bound: 0.08 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A simulated statistic: it repeats exactly for one seed and one
    /// commit, where a host time does not.
    pub exact: bool,
}

/// A host time, lower is better.
const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

/// A ratio of host times, higher is better.
const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, exact: false }
}

/// A simulated statistic. Most have no better direction and are listed
/// as "lower"; they are there to repeat exactly.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// Every traced run reports every one of these. A layer the workload
/// does not execute did no work and reports 0.
pub const PER_LAYER: [PerLayer; 80] = [
    lo("addr.from_unsorted_ns_per_elem", "ns"),
    lo("addr.union_ns_per_elem", "ns"),
    lo("addr.intersect_count_ns_per_elem", "ns"),
    lo("addr.diff_count_ns_per_elem", "ns"),
    lo("addr.iter_ns_per_elem", "ns"),
    count("addr.mem_bytes_per_addr", "B/addr", Better::Lower),
    lo("addr.trie_lookup_ns", "ns"),
    lo("addr.prf_ns", "ns"),
    lo("wire.build_probe_ns", "ns"),
    lo("wire.parse_ns", "ns"),
    lo("net.build_s", "s"),
    lo("net.probe_hit_ns", "ns"),
    lo("net.probe_dark_ns", "ns"),
    lo("net.send_bytes_ns", "ns"),
    lo("scan.permute_ns_per_draw", "ns"),
    lo("scan.segment_ns_per_probe", "ns"),
    lo("scan.scan_ns_per_probe", "ns"),
    hi("scan.thread_speedup", "ratio"),
    count("scan.probes", "count", Better::Lower),
    count("scan.hit_ratio", "ratio", Better::Higher),
    lo("alias.candidates_ms", "ms"),
    lo("alias.detect_ms", "ms"),
    count("alias.probes", "count", Better::Lower),
    lo("alias.ns_per_probe", "ns"),
    count("alias.aliased_prefixes", "count", Better::Lower),
    lo("tga.generate_ms", "ms"),
    count("tga.candidates", "count", Better::Lower),
    lo("hitlist.prepare_s", "s"),
    lo("hitlist.scan_s", "s"),
    lo("hitlist.complete_s", "s"),
    lo("hitlist.round_ms_p50", "ms"),
    lo("hitlist.round_ms_p95", "ms"),
    count("hitlist.rounds", "count", Better::Lower),
    count("hitlist.degraded_rounds", "count", Better::Lower),
    count("hitlist.targets_per_round", "count", Better::Lower),
    count("hitlist.input_addrs", "count", Better::Lower),
    count("hitlist.responsive_addrs", "count", Better::Lower),
    lo("hitlist.publish_ms", "ms"),
    count("hitlist.resident_set_bytes", "B", Better::Lower),
    lo("serve.codec.encode_full_ns_per_elem", "ns"),
    lo("serve.codec.decode_full_ns_per_elem", "ns"),
    lo("serve.codec.encode_delta_ns_per_elem", "ns"),
    lo("serve.codec.apply_delta_ns_per_elem", "ns"),
    count("serve.codec.full_bytes_per_addr", "B/addr", Better::Lower),
    count("serve.codec.delta_bytes_ratio", "ratio", Better::Lower),
    lo("serve.store.publish_ms", "ms"),
    count("serve.store.shard_reuse_ratio", "ratio", Better::Higher),
    lo("serve.store.shard_read_ns", "ns"),
    lo("serve.server.handle_ns", "ns"),
    count("serve.server.cache_hit_ratio", "ratio", Better::Higher),
    count("serve.server.not_modified_ratio", "ratio", Better::Lower),
    count("serve.server.delta_ratio", "ratio", Better::Lower),
    count("serve.server.shed_ratio", "ratio", Better::Lower),
    lo("serve.reactor.ns_per_request", "ns"),
    count("serve.reactor.peak_in_flight", "count", Better::Lower),
    lo("serve.fleet.day_ns_per_request", "ns"),
    lo("serve.fleet.generator_ns_per_request", "ns"),
    count("serve.fleet.flash_arrivals", "count", Better::Lower),
    lo("serve.mirror.sync_ms", "ms"),
    count("serve.mirror.attempts_per_request", "ratio", Better::Lower),
    count("serve.mirror.retry_ratio", "ratio", Better::Lower),
    count("serve.mirror.hedge_ratio", "ratio", Better::Lower),
    count("serve.mirror.failover_ratio", "ratio", Better::Lower),
    count("serve.mirror.stale_served_ratio", "ratio", Better::Lower),
    count("serve.mirror.sync_rejected_ratio", "ratio", Better::Lower),
    count("serve.mirror.hard_failures", "count", Better::Lower),
    lo("vantage.run_s", "s"),
    lo("vantage.batch_ms_p50", "ms"),
    lo("vantage.batch_ms_p95", "ms"),
    count("vantage.segments_executed", "count", Better::Lower),
    lo("vantage.stolen_ratio", "ratio"),
    lo("vantage.n1_overhead_ratio", "ratio"),
    hi("vantage.thread_speedup", "ratio"),
    count("vantage.disagreements", "count", Better::Lower),
    lo("telemetry.counter_add_ns", "ns"),
    lo("telemetry.histogram_record_ns", "ns"),
    lo("telemetry.span_ns", "ns"),
    lo("telemetry.round_overhead_ratio", "ratio"),
    hi("bench.closure_ratio", "ratio"),
    lo("bench.trace_overhead_ratio", "ratio"),
];

/// Threads the benchmark lets the system use: the container has two
/// cores, and the load generator is the benchmark process itself.
pub const THREADS: usize = 2;

/// Seconds one run measures by default; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 18.0;

/// The one table of workload sizes. A pass over a workload takes under a
/// second at `FULL`, so that one run makes about twenty passes or more
/// (`WorkloadSpec::passes`) and every step has that many chances to be
/// timed while the host is quiet. `QUICK` is a twentieth of it.
#[derive(Debug)]
pub struct Sizes {
    /// `service_4y` runs every `stride`-th round of the paper's cadence
    /// over Day(0)..Day::PAPER_END, and always the last day.
    pub service_4y_stride: usize,
    /// `service_dense`: population multiplier and last day (daily rounds).
    pub dense_population_mult: u64,
    pub dense_until: u32,
    /// `vantage_fleet`: vantages and the day window, which spans the
    /// GFW era-1 onset on day 330.
    pub vantages: usize,
    pub vantage_from: u32,
    pub vantage_until: u32,
    /// Days of that window on which the traced run prices one vantage
    /// against the plain service, and two executor threads against one.
    pub vantage_ratio_days: u32,
    /// Addresses per artifact in the uniform and flash days' store.
    pub store_addrs: u64,
    pub uniform_requests: u64,
    pub uniform_clients: u64,
    pub flash_clients: u64,
    /// The chaos day: a smaller store, since every hour republishes it.
    pub chaos_store_addrs: u64,
    pub chaos_requests: u64,
    pub chaos_clients: u64,
    pub chaos_publishes: u64,
    /// Rounds of the telemetry-attached comparison in the traced run.
    pub telemetry_rounds_4y: usize,
    pub telemetry_rounds_dense: usize,
    /// Host time each kernel replay may sample for, in milliseconds.
    pub kernel_budget_ms: u64,
}

pub const FULL: Sizes = Sizes {
    service_4y_stride: 12,
    dense_population_mult: 50,
    dense_until: 5,
    vantages: 3,
    vantage_from: 318,
    vantage_until: 342,
    vantage_ratio_days: 12,
    store_addrs: 50_000,
    uniform_requests: 1_000_000,
    uniform_clients: 5_000,
    flash_clients: 150_000,
    chaos_store_addrs: 6_000,
    chaos_requests: 300_000,
    chaos_clients: 1_500,
    chaos_publishes: 24,
    telemetry_rounds_4y: 20,
    telemetry_rounds_dense: 3,
    kernel_budget_ms: 120,
};

pub const QUICK: Sizes = Sizes {
    service_4y_stride: 240,
    dense_population_mult: 5,
    dense_until: 3,
    vantages: 3,
    vantage_from: 329,
    vantage_until: 331,
    vantage_ratio_days: 1,
    store_addrs: 2_500,
    uniform_requests: 50_000,
    uniform_clients: 250,
    flash_clients: 7_500,
    chaos_store_addrs: 300,
    chaos_requests: 15_000,
    chaos_clients: 75,
    chaos_publishes: 24,
    telemetry_rounds_4y: 2,
    telemetry_rounds_dense: 1,
    kernel_budget_ms: 6,
};

const _: () = assert!(
    QUICK.uniform_requests * 20 == FULL.uniform_requests
        && QUICK.flash_clients * 20 == FULL.flash_clients
        && QUICK.chaos_requests * 20 == FULL.chaos_requests
        && QUICK.store_addrs * 20 == FULL.store_addrs
        && QUICK.chaos_store_addrs * 20 == FULL.chaos_store_addrs
        && QUICK.service_4y_stride == FULL.service_4y_stride * 20,
    "QUICK is a twentieth of FULL"
);

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn contract() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("row has no {key}"))
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_the_run_length() {
        let contract = contract();
        let rows = contract.get("workloads").and_then(Json::as_arr).expect("workloads");
        let listed: Vec<(&str, &str)> =
            rows.iter().map(|r| (field(r, "name"), field(r, "why"))).collect();
        let own: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, own);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert_eq!(contract.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_direction_and_bound() {
        let contract = contract();
        let rows = contract.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
        let listed: Vec<(&str, &str, &str, Option<f64>)> = rows
            .iter()
            .map(|r| {
                (
                    field(r, "name"),
                    field(r, "unit"),
                    field(r, "better"),
                    r.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let own: Vec<(&str, &str, &str, Option<f64>)> =
            END_TO_END.iter().map(|m| (m.name, m.unit, m.better.as_str(), Some(m.bound))).collect();
        assert_eq!(listed, own);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let rows = contract.get("per_layer").and_then(Json::as_arr).expect("per_layer");
        let listed: Vec<(&str, &str, &str)> =
            rows.iter().map(|r| (field(r, "name"), field(r, "unit"), field(r, "better"))).collect();
        let own: Vec<(&str, &str, &str)> =
            PER_LAYER.iter().map(|m| (m.name, m.unit, m.better.as_str())).collect();
        assert_eq!(listed, own);
    }

    #[test]
    fn a_run_s_passes_follow_its_length_and_not_its_speed() {
        let w = &WORKLOADS[0];
        assert_eq!(w.passes_in(RUN_SECONDS), w.passes);
        assert_eq!(w.passes_in(RUN_SECONDS / 2.0), w.passes / 2);
        assert_eq!(w.passes_in(0.0), 1);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_s_limits() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        assert!(names.iter().all(|n| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}

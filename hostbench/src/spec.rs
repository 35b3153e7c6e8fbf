//! The four workloads: what each runs, at what size, and why.
//!
//! Two are configuration sweeps through `Workload::sweep` (the Fig. 6
//! design space and the Figs. 13/16/17 bandwidth caps) and two are
//! serving runs through `run_service_on` (a fault-injected overload and
//! a healthy light load). Each stresses different layers: see
//! `README.md` for the layer → end-to-end map.

use q100_core::{Bandwidth, SimConfig, TileMix};
use q100_experiments::paper_designs;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["dse", "bandwidth", "serve_chaos", "serve_healthy"];

/// What a workload's passes do.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Configuration sweeps: every `(config, query)` pair is one op.
    /// The configs are split into `slices` interleaved passes (config
    /// `i` goes to pass `i % slices`), so each pass samples the whole
    /// space and one cycle of passes covers it once.
    Sweep {
        /// `(label, config)` in figure order.
        configs: Vec<(String, SimConfig)>,
        /// Passes per cycle.
        slices: usize,
    },
    /// Serving runs on the Pareto design: every offered request is one
    /// op. One pass serves `requests` of them; the passes of a cycle
    /// serve `slices` different request streams.
    Serve {
        /// Mean inter-arrival gap over mean service time.
        load: f64,
        /// Injected fault rate.
        rate: f64,
        /// Offered requests per pass.
        requests: usize,
        /// Passes (request streams) per cycle.
        slices: usize,
        /// Whether each pass serves on freshly built devices, so the
        /// cost cache starts cold every pass.
        fresh_devices: bool,
    },
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// TPC-H scale factor.
    pub scale: f64,
    /// Queries prepared, in workload order.
    pub queries: Vec<&'static str>,
    /// Pass structure.
    pub kind: Kind,
    /// Expected outputs (see [`crate::pins`]); empty when none are
    /// committed for this size.
    pub pins: String,
}

impl Spec {
    /// The full-size workload named `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Spec> {
        let all = q100_tpch::queries::QUERY_NAMES.to_vec();
        Some(match name {
            "dse" => Spec {
                name: "dse",
                scale: 0.02,
                queries: all,
                kind: Kind::Sweep { configs: dse_configs(), slices: 5 },
                pins: include_str!("../pins/dse.txt").to_string(),
            },
            "bandwidth" => Spec {
                name: "bandwidth",
                scale: 0.05,
                queries: all,
                kind: Kind::Sweep { configs: bandwidth_configs(), slices: 8 },
                pins: include_str!("../pins/bandwidth.txt").to_string(),
            },
            "serve_chaos" => Spec {
                name: "serve_chaos",
                scale: 0.005,
                queries: all,
                kind: Kind::Serve {
                    load: 0.6,
                    rate: 0.2,
                    requests: 1_000,
                    slices: 3,
                    fresh_devices: true,
                },
                pins: include_str!("../pins/serve_chaos.txt").to_string(),
            },
            "serve_healthy" => Spec {
                name: "serve_healthy",
                scale: 0.005,
                queries: all,
                kind: Kind::Serve {
                    load: 2.0,
                    rate: 0.0,
                    requests: 500_000,
                    slices: 1,
                    fresh_devices: false,
                },
                pins: include_str!("../pins/serve_healthy.txt").to_string(),
            },
            _ => return None,
        })
    }

    /// A seconds-long variant of `name` for tests: SF 0.002, three
    /// queries, four configs or at most 2,000 requests per pass, no pins.
    #[must_use]
    pub fn tiny(name: &str) -> Option<Spec> {
        let mut spec = Spec::named(name)?;
        spec.scale = 0.002;
        spec.queries = vec!["q1", "q6", "q14"];
        spec.pins.clear();
        match &mut spec.kind {
            Kind::Sweep { configs, slices } => {
                let step = configs.len() / 4;
                *configs = configs.iter().step_by(step).take(4).cloned().collect();
                *slices = 2;
            }
            Kind::Serve { requests, .. } => *requests = (*requests / 10).min(2_000),
        }
        Some(spec)
    }

    /// Ops in one cycle of passes.
    #[must_use]
    pub fn ops_per_cycle(&self) -> usize {
        match &self.kind {
            Kind::Sweep { configs, .. } => configs.len() * self.queries.len(),
            Kind::Serve { requests, slices, .. } => requests * slices,
        }
    }

    /// This workload's tag when mixing the run seed into the request
    /// stream's seed.
    #[must_use]
    pub fn tag(&self) -> u64 {
        NAMES.iter().position(|n| *n == self.name).unwrap_or(NAMES.len()) as u64
    }
}

/// Figure 6: ALU 1–5 × partitioner 1–5 × sorter 1–6, ALU-major, as
/// `dse::explore` builds it.
fn dse_configs() -> Vec<(String, SimConfig)> {
    let mut configs = Vec::with_capacity(150);
    for a in 1..=5 {
        for p in 1..=5 {
            for s in 1..=6 {
                configs
                    .push((format!("a{a}p{p}s{s}"), SimConfig::new(TileMix::with_swept(a, p, s))));
            }
        }
    }
    configs
}

/// Figures 13, 16 and 17: per axis, the HighPerf IDEAL baseline and
/// then every paper design under each limit and IDEAL, as
/// `comm::bandwidth_sweep` builds them with the CLI's limits.
fn bandwidth_configs() -> Vec<(String, SimConfig)> {
    let axes: [(&str, [f64; 4]); 3] = [
        ("NoC", [5.0, 10.0, 15.0, 20.0]),
        ("MemRead", [10.0, 20.0, 30.0, 40.0]),
        ("MemWrite", [5.0, 10.0, 15.0, 20.0]),
    ];
    let mut configs = Vec::with_capacity(48);
    for (axis, limits) in axes {
        configs.push((
            format!("{axis}:baseline"),
            SimConfig::high_perf().with_bandwidth(Bandwidth::ideal()),
        ));
        for (design, config) in paper_designs() {
            for limit in limits.iter().copied().map(Some).chain([None]) {
                let bw = match axis {
                    "NoC" => {
                        Bandwidth { noc_gbps: limit, mem_read_gbps: None, mem_write_gbps: None }
                    }
                    "MemRead" => {
                        Bandwidth { noc_gbps: None, mem_read_gbps: limit, mem_write_gbps: None }
                    }
                    _ => Bandwidth { noc_gbps: None, mem_read_gbps: None, mem_write_gbps: limit },
                };
                let at = limit.map_or_else(|| "IDEAL".to_string(), |l| l.to_string());
                configs.push((format!("{axis}:{design}:{at}"), config.clone().with_bandwidth(bw)));
            }
        }
    }
    configs
}

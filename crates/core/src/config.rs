//! Q100 configurations: tile mixes and full simulation configs.

use std::fmt;

use crate::error::{CoreError, Result};
use crate::tiles::TileKind;

/// How many instances of each tile kind a Q100 design provides.
///
/// The design space of Section 3.2 fixes the eight "tiny" (<10 mW) tiles
/// at their maximum useful counts and sweeps the ALU, partitioner and
/// sorter; [`TileMix::tiny_defaults`] encodes those pinned counts
/// (Table 2) and the three paper designs are available as presets.
///
/// # Example
///
/// ```
/// use q100_core::{TileKind, TileMix};
///
/// let mix = TileMix::pareto();
/// assert_eq!(mix.count(TileKind::Partitioner), 2);
/// assert_eq!(mix.count(TileKind::Sorter), 1);
/// assert_eq!(mix.count(TileKind::Alu), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileMix {
    counts: [u32; TileKind::COUNT],
}

impl TileMix {
    /// A mix with explicit per-kind counts, in [`TileKind`] order.
    #[must_use]
    pub fn new(counts: [u32; TileKind::COUNT]) -> Self {
        TileMix { counts }
    }

    /// The Table 2 pinned counts for tiny tiles, with the three swept
    /// tiles (ALU, partitioner, sorter) set as given.
    #[must_use]
    pub fn with_swept(alus: u32, partitioners: u32, sorters: u32) -> Self {
        let mut mix = TileMix::tiny_defaults();
        mix.counts[TileKind::Alu as usize] = alus;
        mix.counts[TileKind::Partitioner as usize] = partitioners;
        mix.counts[TileKind::Sorter as usize] = sorters;
        mix
    }

    /// Tiny tiles at their Table 2 maximum useful counts; swept tiles at
    /// one instance each.
    #[must_use]
    pub fn tiny_defaults() -> Self {
        let mut counts = [1u32; TileKind::COUNT];
        counts[TileKind::Aggregator as usize] = 4;
        counts[TileKind::BoolGen as usize] = 6;
        counts[TileKind::ColFilter as usize] = 6;
        counts[TileKind::Joiner as usize] = 4;
        counts[TileKind::Append as usize] = 8;
        counts[TileKind::ColSelect as usize] = 7;
        counts[TileKind::Concat as usize] = 2;
        counts[TileKind::Stitch as usize] = 3;
        TileMix { counts }
    }

    /// The energy-conscious design: 1 ALU, 1 partitioner, 1 sorter
    /// (Section 3.2).
    #[must_use]
    pub fn low_power() -> Self {
        TileMix::with_swept(1, 1, 1)
    }

    /// The balanced Pareto-frontier design: 4 ALUs, 2 partitioners,
    /// 1 sorter (Section 3.2).
    #[must_use]
    pub fn pareto() -> Self {
        TileMix::with_swept(4, 2, 1)
    }

    /// The performance-optimized design: 5 ALUs, 3 partitioners,
    /// 6 sorters (Section 3.2).
    #[must_use]
    pub fn high_perf() -> Self {
        TileMix::with_swept(5, 3, 6)
    }

    /// A mix with `n` instances of every kind — useful as the
    /// "unconstrained" resource profile of the sensitivity studies.
    #[must_use]
    pub fn uniform(n: u32) -> Self {
        TileMix { counts: [n; TileKind::COUNT] }
    }

    /// Instances of `kind`.
    #[must_use]
    pub fn count(&self, kind: TileKind) -> u32 {
        self.counts[kind as usize]
    }

    /// Returns a copy with `kind` set to `n` instances.
    #[must_use]
    pub fn with_count(mut self, kind: TileKind, n: u32) -> Self {
        self.counts[kind as usize] = n;
        self
    }

    /// Per-kind counts in [`TileKind`] order.
    #[must_use]
    pub fn counts(&self) -> &[u32; TileKind::COUNT] {
        &self.counts
    }

    /// This mix clamped to a per-kind node `demand` (in [`TileKind`]
    /// order): each count becomes `min(count, demand)`, so kinds with no
    /// demand drop to 0. Schedulers only test `used < count` with `used`
    /// bounded by the demand, so a graph schedules identically on a mix
    /// and on its clamp (see [`crate::QueryGraph::clamp_mix`]).
    #[must_use]
    pub fn clamped_to(&self, demand: &[usize; TileKind::COUNT]) -> Self {
        let mut counts = self.counts;
        for (c, &d) in counts.iter_mut().zip(demand) {
            *c = (*c).min(u32::try_from(d).unwrap_or(u32::MAX));
        }
        TileMix { counts }
    }

    /// Total number of tiles.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Combined tile area in mm² (sum of Table 1 areas).
    #[must_use]
    pub fn tile_area_mm2(&self) -> f64 {
        TileKind::ALL.iter().map(|&k| f64::from(self.count(k)) * k.spec().area_mm2).sum()
    }

    /// Combined tile power in W (sum of Table 1 powers).
    #[must_use]
    pub fn tile_power_w(&self) -> f64 {
        TileKind::ALL.iter().map(|&k| f64::from(self.count(k)) * k.spec().power_mw / 1000.0).sum()
    }
}

impl Default for TileMix {
    /// Defaults to the Pareto design.
    fn default() -> Self {
        TileMix::pareto()
    }
}

impl fmt::Display for TileMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TileMix(alu={}, part={}, sort={}, total={})",
            self.count(TileKind::Alu),
            self.count(TileKind::Partitioner),
            self.count(TileKind::Sorter),
            self.total()
        )
    }
}

/// Which scheduling algorithm maps spatial instructions onto tiles
/// (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Greedy topological packing with no volume knowledge.
    Naive,
    /// Greedy packing that co-locates the heaviest producer–consumer
    /// pairs to minimize memory spills (default, as in the paper's
    /// analyses).
    #[default]
    DataAware,
    /// Pruned search over legal schedules minimizing spilled bytes; an
    /// approximate upper bound on schedule quality.
    SemiExhaustive,
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedulerKind::Naive => "naive",
            SchedulerKind::DataAware => "data-aware",
            SchedulerKind::SemiExhaustive => "semi-exhaustive",
        };
        f.write_str(s)
    }
}

/// Bandwidth provisioning for a simulation. `None` anywhere means
/// unlimited ("IDEAL" in the paper's sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Per-NoC-link bandwidth in GB/s (paper default 6.3).
    pub noc_gbps: Option<f64>,
    /// Aggregate memory read bandwidth in GB/s (5 GB/s per inbound
    /// stream buffer).
    pub mem_read_gbps: Option<f64>,
    /// Aggregate memory write bandwidth in GB/s (5 GB/s per outbound
    /// stream buffer).
    pub mem_write_gbps: Option<f64>,
}

impl Bandwidth {
    /// Fully unlimited bandwidth (the paper's IDEAL configuration).
    #[must_use]
    pub fn ideal() -> Self {
        Bandwidth { noc_gbps: None, mem_read_gbps: None, mem_write_gbps: None }
    }

    /// The provisioned limits used in Section 3.3's "performance impact"
    /// study for a design with `read_buffers` inbound stream buffers:
    /// 6.3 GB/s NoC links, 5 GB/s per read buffer, 10 GB/s write.
    #[must_use]
    pub fn provisioned(read_buffers: u32) -> Self {
        Bandwidth {
            noc_gbps: Some(6.3),
            mem_read_gbps: Some(5.0 * f64::from(read_buffers)),
            mem_write_gbps: Some(10.0),
        }
    }
}

impl Default for Bandwidth {
    fn default() -> Self {
        Bandwidth::ideal()
    }
}

/// A complete Q100 simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The tile mix (design point).
    pub mix: TileMix,
    /// Bandwidth provisioning.
    pub bandwidth: Bandwidth,
    /// Scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Inbound stream buffers (4 for LowPower, 6 for Pareto/HighPerf).
    pub read_buffers: u32,
    /// Outbound stream buffers (2 for all three paper designs).
    pub write_buffers: u32,
    /// Dedicated point-to-point links: `(source, destination)` tile-kind
    /// pairs exempt from the per-link NoC bandwidth cap. The paper
    /// observes that "a handful of very common, high-bandwidth
    /// connections ... can be fixed with point to point connections at
    /// some cost to instruction mapping flexibility"; this knob models
    /// that option.
    pub p2p_links: Vec<(crate::tiles::TileKind, crate::tiles::TileKind)>,
    /// Derating factors applied by the resilience layer (frequency-
    /// derated tiles, degraded NoC links, throttled memory channels,
    /// transient per-tinst stalls). `None` — the default everywhere —
    /// takes the exact fault-free simulation path, so configurations
    /// without faults are byte-identical to builds that predate the
    /// resilience layer.
    pub derate: Option<crate::resilience::Derate>,
}

impl SimConfig {
    /// A config for an arbitrary mix with ideal bandwidth and the
    /// data-aware scheduler.
    #[must_use]
    pub fn new(mix: TileMix) -> Self {
        SimConfig {
            mix,
            bandwidth: Bandwidth::ideal(),
            scheduler: SchedulerKind::DataAware,
            read_buffers: 6,
            write_buffers: 2,
            p2p_links: Vec::new(),
            derate: None,
        }
    }

    /// The LowPower design with its provisioned bandwidth (4 inbound
    /// stream buffers → 20 GB/s read, 10 GB/s write, 6.3 GB/s NoC).
    #[must_use]
    pub fn low_power() -> Self {
        SimConfig {
            mix: TileMix::low_power(),
            bandwidth: Bandwidth::provisioned(4),
            scheduler: SchedulerKind::DataAware,
            read_buffers: 4,
            write_buffers: 2,
            p2p_links: Vec::new(),
            derate: None,
        }
    }

    /// The Pareto design with its provisioned bandwidth (6 inbound
    /// stream buffers → 30 GB/s read).
    #[must_use]
    pub fn pareto() -> Self {
        SimConfig {
            mix: TileMix::pareto(),
            bandwidth: Bandwidth::provisioned(6),
            scheduler: SchedulerKind::DataAware,
            read_buffers: 6,
            write_buffers: 2,
            p2p_links: Vec::new(),
            derate: None,
        }
    }

    /// The HighPerf design with its provisioned bandwidth (6 inbound
    /// stream buffers → 30 GB/s read).
    #[must_use]
    pub fn high_perf() -> Self {
        SimConfig {
            mix: TileMix::high_perf(),
            bandwidth: Bandwidth::provisioned(6),
            scheduler: SchedulerKind::DataAware,
            read_buffers: 6,
            write_buffers: 2,
            p2p_links: Vec::new(),
            derate: None,
        }
    }

    /// Replaces the bandwidth provisioning.
    #[must_use]
    pub fn with_bandwidth(mut self, bandwidth: Bandwidth) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Replaces the scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Adds dedicated point-to-point links exempt from the NoC cap.
    #[must_use]
    pub fn with_p2p_links(
        mut self,
        links: Vec<(crate::tiles::TileKind, crate::tiles::TileKind)>,
    ) -> Self {
        self.p2p_links = links;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero tile counts of kinds a
    /// graph could require, zero stream buffers, or non-positive
    /// bandwidth caps.
    pub fn validate(&self) -> Result<()> {
        if self.read_buffers == 0 || self.write_buffers == 0 {
            return Err(CoreError::BadConfig("stream buffer counts must be positive".into()));
        }
        for cap in
            [self.bandwidth.noc_gbps, self.bandwidth.mem_read_gbps, self.bandwidth.mem_write_gbps]
                .into_iter()
                .flatten()
        {
            if cap <= 0.0 || !cap.is_finite() {
                return Err(CoreError::BadConfig(format!("bandwidth cap {cap} must be positive")));
            }
        }
        if let Some(derate) = &self.derate {
            derate.validate()?;
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::pareto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_designs_have_documented_swept_counts() {
        let lp = TileMix::low_power();
        assert_eq!(
            (lp.count(TileKind::Alu), lp.count(TileKind::Partitioner), lp.count(TileKind::Sorter)),
            (1, 1, 1)
        );
        let hp = TileMix::high_perf();
        assert_eq!(
            (hp.count(TileKind::Alu), hp.count(TileKind::Partitioner), hp.count(TileKind::Sorter)),
            (5, 3, 6)
        );
    }

    #[test]
    fn tile_areas_match_table_3_tiles_column() {
        // Table 3: LowPower 1.890, Pareto 3.107, HighPerf 5.080 mm².
        assert!((TileMix::low_power().tile_area_mm2() - 1.890).abs() < 0.01);
        assert!((TileMix::pareto().tile_area_mm2() - 3.107).abs() < 0.01);
        assert!((TileMix::high_perf().tile_area_mm2() - 5.080).abs() < 0.01);
    }

    #[test]
    fn tile_powers_match_table_3_tiles_column() {
        // Table 3: LowPower 0.238, Pareto 0.303, HighPerf 0.541 W.
        assert!((TileMix::low_power().tile_power_w() - 0.238).abs() < 0.002);
        assert!((TileMix::pareto().tile_power_w() - 0.303).abs() < 0.002);
        assert!((TileMix::high_perf().tile_power_w() - 0.541).abs() < 0.002);
    }

    #[test]
    fn provisioned_bandwidth_follows_stream_buffers() {
        let bw = Bandwidth::provisioned(4);
        assert_eq!(bw.mem_read_gbps, Some(20.0));
        assert_eq!(bw.mem_write_gbps, Some(10.0));
        assert_eq!(bw.noc_gbps, Some(6.3));
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut cfg = SimConfig::pareto();
        cfg.read_buffers = 0;
        assert!(cfg.validate().is_err());
        let cfg = SimConfig::pareto()
            .with_bandwidth(Bandwidth { noc_gbps: Some(-1.0), ..Bandwidth::ideal() });
        assert!(cfg.validate().is_err());
        assert!(SimConfig::high_perf().validate().is_ok());
    }

    #[test]
    fn uniform_and_with_count() {
        let m = TileMix::uniform(10).with_count(TileKind::Sorter, 2);
        assert_eq!(m.count(TileKind::Sorter), 2);
        assert_eq!(m.count(TileKind::Alu), 10);
        assert_eq!(m.total(), 10 * 10 + 2);
    }
}

//! Hierarchical machine models.

use std::fmt;

/// One level of the machine hierarchy, counted from the innermost grouping
/// outwards.
///
/// A level groups `arity` children of the previous level; two compute units
/// whose lowest common grouping is this level communicate at
/// `bandwidth_mbs` with `latency_us` one-way latency.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineLevel {
    /// Human-readable level name ("socket", "node", "blade", "group", ...).
    pub name: String,
    /// How many instances of the previous level (or compute units, for the
    /// innermost level) are grouped at this level.
    pub arity: usize,
    /// Sustained point-to-point bandwidth between two units whose lowest
    /// common ancestor is this level, in MB/s.
    pub bandwidth_mbs: f64,
    /// One-way message latency at this level, in microseconds.
    pub latency_us: f64,
}

impl MachineLevel {
    /// Convenience constructor.
    pub fn new(name: &str, arity: usize, bandwidth_mbs: f64, latency_us: f64) -> Self {
        Self {
            name: name.to_string(),
            arity,
            bandwidth_mbs,
            latency_us,
        }
    }
}

/// A hierarchical model of an HPC machine.
///
/// The machine is a balanced tree: compute units (MPI processes, one per
/// core) at the leaves, grouped by the levels from innermost to outermost.
/// Communication between two units is characterised by their *lowest common
/// level*: the innermost level at which they share a grouping. The paper's
/// Figure 1A/6A banded heatmaps are exactly this structure plus measurement
/// noise.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineModel {
    name: String,
    num_units: usize,
    levels: Vec<MachineLevel>,
}

/// Why a [`MachineModel`] cannot be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineError(String);

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MachineError {}

impl MachineModel {
    /// Builds a machine model. `levels` are ordered innermost → outermost.
    /// The total capacity (product of arities) must cover `num_units`.
    ///
    /// # Panics
    ///
    /// Panics where [`MachineModel::try_new`] returns an error.
    pub fn new(name: &str, num_units: usize, levels: Vec<MachineLevel>) -> Self {
        Self::try_new(name, num_units, levels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine model, or says why it cannot: `num_units` is zero,
    /// `levels` is empty, an arity is zero, or the hierarchy cannot hold
    /// `num_units` units.
    pub fn try_new(
        name: &str,
        num_units: usize,
        levels: Vec<MachineLevel>,
    ) -> Result<Self, MachineError> {
        let fail = |msg: String| Err(MachineError(msg));
        if num_units == 0 {
            return fail("machine must have at least one unit".into());
        }
        if levels.is_empty() {
            return fail("machine must have at least one level".into());
        }
        if levels.iter().any(|l| l.arity == 0) {
            return fail("level arities must be positive".into());
        }
        let capacity = levels
            .iter()
            .try_fold(1usize, |acc, l| acc.checked_mul(l.arity))
            .unwrap_or(usize::MAX);
        if capacity < num_units {
            return fail(format!(
                "{name}: hierarchy capacity {capacity} cannot hold {num_units} units"
            ));
        }
        Ok(Self {
            name: name.to_string(),
            num_units,
            levels,
        })
    }

    /// An ARCHER-like Cray XC30 model (the paper's testbed): 12-core
    /// sockets, 2 sockets per node, 4 nodes per Aries blade, 32 blades per
    /// (electrical) group, optical links between groups.
    ///
    /// Bandwidth tiers are calibrated to reproduce the banded structure of
    /// the paper's Figure 1A: intra-socket shared-memory transfers are an
    /// order of magnitude faster than anything crossing the network, and the
    /// network itself has mild tiering between blade, group and global
    /// links.
    ///
    /// # Panics
    ///
    /// Panics where [`MachineModel::try_archer_like`] returns an error.
    pub fn archer_like(num_units: usize) -> Self {
        Self::try_archer_like(num_units).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MachineModel::archer_like`], or an error when `num_units` is zero
    /// or more than its fixed hierarchy holds.
    pub fn try_archer_like(num_units: usize) -> Result<Self, MachineError> {
        Self::try_new(
            "archer-like",
            num_units,
            vec![
                MachineLevel::new("socket", 12, 8_000.0, 0.4),
                MachineLevel::new("node", 2, 4_500.0, 0.8),
                MachineLevel::new("blade", 4, 1_400.0, 1.4),
                MachineLevel::new("group", 32, 1_000.0, 1.9),
                MachineLevel::new("system", 64, 650.0, 2.6),
            ],
        )
    }

    /// A generic dual-socket commodity cluster: `cores_per_socket` cores,
    /// two sockets per node, flat interconnect between nodes.
    pub fn dual_socket_cluster(num_units: usize, cores_per_socket: usize) -> Self {
        let nodes = num_units.div_ceil(cores_per_socket * 2).max(1);
        Self::new(
            "dual-socket-cluster",
            num_units,
            vec![
                MachineLevel::new("socket", cores_per_socket, 9_000.0, 0.3),
                MachineLevel::new("node", 2, 5_000.0, 0.7),
                MachineLevel::new("cluster", nodes, 1_100.0, 1.8),
            ],
        )
    }

    /// A perfectly homogeneous machine: every pair of units communicates at
    /// the same speed. HyperPRAW-aware degenerates to HyperPRAW-basic on
    /// this model, which the tests exploit.
    pub fn flat(num_units: usize, bandwidth_mbs: f64, latency_us: f64) -> Self {
        Self::new(
            "flat",
            num_units,
            vec![MachineLevel::new(
                "network",
                num_units,
                bandwidth_mbs,
                latency_us,
            )],
        )
    }

    /// A cloud-like model: virtual machines of `vcpus` cores placed on an
    /// oversubscribed network whose upper tier is markedly slower, as found
    /// in multi-tenant environments. The architecture is *not* exposed to
    /// the application (the scenario motivating profiling-based discovery in
    /// the paper).
    pub fn cloud_like(num_units: usize, vcpus: usize) -> Self {
        let hosts = num_units.div_ceil(vcpus).max(1);
        let racks = hosts.div_ceil(8).max(1);
        Self::new(
            "cloud-like",
            num_units,
            vec![
                MachineLevel::new("vm", vcpus, 6_000.0, 0.5),
                MachineLevel::new("rack", 8, 900.0, 2.5),
                MachineLevel::new("zone", racks, 250.0, 6.0),
            ],
        )
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compute units (leaves), i.e. the job size `p`.
    pub fn num_units(&self) -> usize {
        self.num_units
    }

    /// The hierarchy levels, innermost first.
    pub fn levels(&self) -> &[MachineLevel] {
        &self.levels
    }

    /// Number of units grouped together at `level` (cumulative product of
    /// arities up to and including `level`).
    pub fn units_per_group(&self, level: usize) -> usize {
        self.levels[..=level].iter().map(|l| l.arity).product()
    }

    /// Hardware coordinates of a unit: `coords[l]` is the index of the
    /// level-`l` group the unit belongs to (counted globally).
    pub fn coordinates(&self, unit: usize) -> Vec<usize> {
        assert!(unit < self.num_units, "unit {unit} out of range");
        self.levels
            .iter()
            .scan(1usize, |acc, l| {
                *acc *= l.arity;
                Some(unit / *acc)
            })
            .collect()
    }

    /// The innermost level shared by two units, or `None` if `a == b`
    /// (self-communication never touches the network).
    pub fn shared_level(&self, a: usize, b: usize) -> Option<usize> {
        assert!(
            a < self.num_units && b < self.num_units,
            "unit out of range"
        );
        if a == b {
            return None;
        }
        let mut group = 1usize;
        for (idx, level) in self.levels.iter().enumerate() {
            group *= level.arity;
            if a / group == b / group {
                return Some(idx);
            }
        }
        // Units that do not share even the outermost declared level use the
        // outermost level's characteristics.
        Some(self.levels.len() - 1)
    }

    /// Nominal bandwidth between two distinct units (MB/s); `f64::INFINITY`
    /// for self-communication.
    pub fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        match self.shared_level(a, b) {
            None => f64::INFINITY,
            Some(l) => self.levels[l].bandwidth_mbs,
        }
    }

    /// Nominal one-way latency between two units (µs); zero for
    /// self-communication.
    pub fn link_latency_us(&self, a: usize, b: usize) -> f64 {
        match self.shared_level(a, b) {
            None => 0.0,
            Some(l) => self.levels[l].latency_us,
        }
    }

    /// Fraction of distinct pairs that communicate at the innermost
    /// (fastest) level — the paper's observation that fast links are a small
    /// percentage of all interconnections.
    pub fn fast_link_fraction(&self) -> f64 {
        let n = self.num_units;
        if n < 2 {
            return 1.0;
        }
        let mut fast = 0usize;
        let mut total = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                total += 1;
                if self.shared_level(a, b) == Some(0) {
                    fast += 1;
                }
            }
        }
        fast as f64 / total as f64
    }
}

impl fmt::Display for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} units: ", self.name, self.num_units)?;
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{}[{}]", l.name, l.arity)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archer_like_has_expected_structure() {
        let m = MachineModel::archer_like(576);
        assert_eq!(m.num_units(), 576);
        assert_eq!(m.levels().len(), 5);
        assert_eq!(m.units_per_group(0), 12); // socket
        assert_eq!(m.units_per_group(1), 24); // node
        assert_eq!(m.units_per_group(2), 96); // blade
    }

    #[test]
    fn shared_level_follows_the_hierarchy() {
        let m = MachineModel::archer_like(144);
        // Units 0 and 5 share a socket.
        assert_eq!(m.shared_level(0, 5), Some(0));
        // Units 0 and 13 share a node but not a socket.
        assert_eq!(m.shared_level(0, 13), Some(1));
        // Units 0 and 25 are in different nodes on the same blade.
        assert_eq!(m.shared_level(0, 25), Some(2));
        // Units 0 and 100 are on different blades.
        assert_eq!(m.shared_level(0, 100), Some(3));
        // Self-communication is special.
        assert_eq!(m.shared_level(7, 7), None);
    }

    #[test]
    fn bandwidth_decreases_with_distance() {
        let m = MachineModel::archer_like(576);
        let socket = m.link_bandwidth(0, 1);
        let node = m.link_bandwidth(0, 12);
        let blade = m.link_bandwidth(0, 30);
        let group = m.link_bandwidth(0, 200);
        assert!(socket > node);
        assert!(node > blade);
        assert!(blade > group);
        assert_eq!(m.link_bandwidth(3, 3), f64::INFINITY);
    }

    #[test]
    fn latency_increases_with_distance() {
        let m = MachineModel::archer_like(576);
        assert!(m.link_latency_us(0, 1) < m.link_latency_us(0, 12));
        assert!(m.link_latency_us(0, 12) < m.link_latency_us(0, 200));
        assert_eq!(m.link_latency_us(9, 9), 0.0);
    }

    #[test]
    fn coordinates_identify_groups() {
        let m = MachineModel::archer_like(144);
        let c0 = m.coordinates(0);
        let c5 = m.coordinates(5);
        let c13 = m.coordinates(13);
        assert_eq!(c0[0], c5[0]); // same socket
        assert_ne!(c0[0], c13[0]); // different socket
        assert_eq!(c0[1], c13[1]); // same node
    }

    #[test]
    fn flat_machine_is_homogeneous() {
        let m = MachineModel::flat(16, 1000.0, 1.0);
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert_eq!(m.link_bandwidth(a, b), 1000.0);
                    assert_eq!(m.link_latency_us(a, b), 1.0);
                }
            }
        }
        assert_eq!(m.fast_link_fraction(), 1.0);
    }

    #[test]
    fn fast_links_are_a_minority_on_archer() {
        let m = MachineModel::archer_like(144);
        let frac = m.fast_link_fraction();
        assert!(frac < 0.15, "fast-link fraction {frac} should be small");
        assert!(frac > 0.0);
    }

    #[test]
    fn cloud_and_dual_socket_presets_build() {
        let c = MachineModel::cloud_like(64, 8);
        assert_eq!(c.num_units(), 64);
        let d = MachineModel::dual_socket_cluster(96, 12);
        assert_eq!(d.num_units(), 96);
        assert!(c.link_bandwidth(0, 63) < c.link_bandwidth(0, 1));
        assert!(d.link_bandwidth(0, 95) < d.link_bandwidth(0, 1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn hierarchy_must_cover_all_units() {
        MachineModel::new(
            "tiny",
            100,
            vec![
                MachineLevel::new("node", 4, 100.0, 1.0),
                MachineLevel::new("rack", 2, 50.0, 2.0),
            ],
        );
    }

    #[test]
    fn display_mentions_levels() {
        let m = MachineModel::archer_like(48);
        let s = format!("{m}");
        assert!(s.contains("socket[12]"));
        assert!(s.contains("48 units"));
    }
}

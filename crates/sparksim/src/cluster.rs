//! Cluster hardware descriptions (paper Table III) and derived rates.

/// Hardware description of a Spark cluster.
///
/// These are the six environment-feature entries of paper Table II; the
/// three presets reproduce the evaluation clusters of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name, e.g. `"cluster-a"`.
    pub name: String,
    /// Number of worker nodes.
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// CPU base frequency in GHz.
    pub cpu_ghz: f64,
    /// RAM per node in GB.
    pub mem_gb_per_node: f64,
    /// Memory transfer speed in MT/s (affects memory-bound compute).
    pub mem_mts: f64,
    /// Interconnect bandwidth in Gbit/s.
    pub net_gbps: f64,
}

impl ClusterSpec {
    /// Paper cluster A: a single large-memory node.
    pub fn cluster_a() -> Self {
        ClusterSpec {
            name: "cluster-a".to_string(),
            nodes: 1,
            cores_per_node: 16,
            cpu_ghz: 3.2,
            mem_gb_per_node: 64.0,
            mem_mts: 2400.0,
            net_gbps: 10.0,
        }
    }

    /// Paper cluster B: three large-memory nodes.
    pub fn cluster_b() -> Self {
        ClusterSpec {
            name: "cluster-b".to_string(),
            nodes: 3,
            cores_per_node: 16,
            cpu_ghz: 3.2,
            mem_gb_per_node: 64.0,
            mem_mts: 2400.0,
            net_gbps: 10.0,
        }
    }

    /// Paper cluster C: eight small-memory nodes on a slower network. The
    /// paper uses this cluster for the large-data test jobs.
    pub fn cluster_c() -> Self {
        ClusterSpec {
            name: "cluster-c".to_string(),
            nodes: 8,
            cores_per_node: 16,
            cpu_ghz: 2.9,
            mem_gb_per_node: 16.0,
            mem_mts: 2666.0,
            net_gbps: 1.0,
        }
    }

    /// All three evaluation clusters in paper order.
    pub fn all_evaluation_clusters() -> Vec<ClusterSpec> {
        vec![Self::cluster_a(), Self::cluster_b(), Self::cluster_c()]
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Memory per node in bytes.
    pub fn mem_bytes_per_node(&self) -> u64 {
        (self.mem_gb_per_node * GB) as u64
    }

    /// Effective sequential disk scan rate in bytes/s. The simulator models
    /// node-local SSD storage; a faster memory bus gives marginally faster
    /// page-cache-assisted scans.
    pub fn disk_bytes_per_sec(&self) -> f64 {
        450e6 * (self.mem_mts / 2400.0).sqrt()
    }

    /// Memory bandwidth per node in bytes/s derived from MT/s on a 64-bit
    /// channel pair; bounds how much parallel compute a node sustains.
    pub fn mem_bandwidth_bytes_per_sec(&self) -> f64 {
        // 2 channels x 8 bytes per transfer.
        self.mem_mts * 1e6 * 16.0
    }

    /// Point-to-point network rate in bytes/s.
    pub fn net_bytes_per_sec(&self) -> f64 {
        self.net_gbps * 1e9 / 8.0
    }

    /// The environment feature vector of paper Table II:
    /// `[#nodes, #cores, frequency, memory size, memory speed, bandwidth]`.
    pub fn env_features(&self) -> [f64; 6] {
        [
            self.nodes as f64,
            self.cores_per_node as f64,
            self.cpu_ghz,
            self.mem_gb_per_node,
            self.mem_mts,
            self.net_gbps,
        ]
    }
}

/// One gibibyte in bytes, as f64 for rate arithmetic.
pub const GB: f64 = 1024.0 * 1024.0 * 1024.0;
/// One mebibyte in bytes, as f64 for rate arithmetic.
pub const MB: f64 = 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_iii() {
        let a = ClusterSpec::cluster_a();
        assert_eq!(a.nodes, 1);
        assert_eq!(a.total_cores(), 16);
        assert_eq!(a.mem_gb_per_node, 64.0);

        let b = ClusterSpec::cluster_b();
        assert_eq!(b.nodes, 3);
        assert_eq!(b.total_cores(), 48);

        let c = ClusterSpec::cluster_c();
        assert_eq!(c.nodes, 8);
        assert_eq!(c.total_cores(), 128);
        assert_eq!(c.mem_gb_per_node, 16.0);
        assert!(c.net_gbps < a.net_gbps);
    }

    #[test]
    fn env_features_have_six_entries_in_table_ii_order() {
        let c = ClusterSpec::cluster_c();
        let f = c.env_features();
        assert_eq!(f[0], 8.0);
        assert_eq!(f[1], 16.0);
        assert!((f[2] - 2.9).abs() < 1e-12);
        assert_eq!(f[3], 16.0);
        assert_eq!(f[4], 2666.0);
        assert_eq!(f[5], 1.0);
    }

    #[test]
    fn derived_rates_are_positive_and_ordered() {
        let a = ClusterSpec::cluster_a();
        assert!(a.disk_bytes_per_sec() > 0.0);
        // Memory is faster than disk, disk faster than a 1 Gbps link.
        assert!(a.mem_bandwidth_bytes_per_sec() > a.disk_bytes_per_sec());
        let c = ClusterSpec::cluster_c();
        assert!(c.net_bytes_per_sec() < c.disk_bytes_per_sec());
    }
}

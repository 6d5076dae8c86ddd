//! Experiment configurations — the workload descriptions the
//! bench harness sweeps over (signal size, sparsity, noise, seeds).

/// One experiment point: a workload plus replication settings.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// log2 of the signal size.
    pub log2_n: u32,
    /// Sparsity (number of non-zero coefficients).
    pub k: usize,
    /// SNR in dB; `None` means noiseless.
    pub snr_db: Option<f64>,
    /// Base RNG seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Number of repetitions to average over.
    pub reps: u32,
}

impl WorkloadConfig {
    /// The paper's canonical point: `k = 1000`, noiseless.
    pub fn paper_default(log2_n: u32) -> Self {
        WorkloadConfig {
            log2_n,
            k: 1000,
            snr_db: None,
            seed: 0x5eed,
            reps: 1,
        }
    }

    /// Signal length.
    #[inline]
    pub fn n(&self) -> usize {
        1usize << self.log2_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WorkloadConfig::paper_default(22);
        assert_eq!(c.n(), 1 << 22);
        assert_eq!(c.k, 1000);
        assert!(c.snr_db.is_none());
    }

    #[test]
    fn n_is_power_of_two() {
        for log2 in 4..28 {
            assert_eq!(WorkloadConfig::paper_default(log2).n(), 1usize << log2);
        }
    }
}

//! Kernel-level statistics folded from the sampled blocks' tallies.
//!
//! The executor samples a subset of blocks and streams every access those
//! blocks make through the per-warp coalescer ([`crate::trace`]), which
//! leaves one [`BlockTally`] per sampled block.
//! [`KernelStats::from_tallies`] folds the tallies in block order into a
//! [`KernelStats`], extrapolating by the sampling factor. `KernelStats`
//! is the sole input (besides the [`crate::spec::DeviceSpec`]) to the cost
//! model, so everything the simulator "believes" about a kernel is
//! inspectable here.

use crate::launch::LaunchConfig;
use crate::trace::BlockTally;

/// Per-launch statistics, extrapolated from the sampled blocks.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Kernel name (for reports).
    pub name: String,
    /// Total threads launched.
    pub threads: u64,
    /// Total warps launched.
    pub warps: u64,
    /// Warps actually traced.
    pub sampled_warps: u64,
    /// Double-precision flops (extrapolated).
    pub flops: f64,
    /// DRAM traffic in bytes (extrapolated, after coalescing analysis).
    pub dram_bytes: f64,
    /// DRAM transactions (extrapolated).
    pub transactions: f64,
    /// Total memory instructions (extrapolated).
    pub mem_ops: f64,
    /// Mean serial-dependence chain length per thread (weighted; an
    /// accumulator-chained load contributes 1/UNROLL).
    pub chain_len: f64,
    /// Mean memory ops per thread.
    pub ops_per_thread: f64,
    /// Atomic operations (extrapolated).
    pub atomic_ops: f64,
    /// Estimated worst per-address atomic multiplicity (extrapolated) —
    /// the serialisation depth the cost model charges.
    pub atomic_max_conflict: f64,
    /// Launch geometry.
    pub block_dim: u32,
    /// Launch geometry.
    pub grid_dim: u32,
    /// Dynamic shared memory per block.
    pub shared_mem_bytes: u32,
}

impl KernelStats {
    /// Memory-level parallelism: independent requests a warp keeps in
    /// flight, derived from ops-per-thread vs. chain length. A kernel
    /// with no serial dependence at all (pure gather/scatter) runs at the
    /// hardware maximum — the warp retires its load and the scheduler
    /// rotates, so outstanding requests are bounded by MSHRs, not by the
    /// kernel.
    pub fn mlp(&self) -> f64 {
        const MAX_MLP: f64 = 8.0;
        if self.ops_per_thread <= 0.0 {
            return 1.0;
        }
        if self.chain_len < 0.5 {
            return MAX_MLP;
        }
        (self.ops_per_thread / self.chain_len).clamp(1.0, MAX_MLP)
    }

    /// Builds kernel statistics from the tallies of the sampled blocks, in
    /// block order. `sample_scale = grid_dim / sampled_blocks` extrapolates
    /// sampled quantities to the full launch.
    pub(crate) fn from_tallies(
        name: &str,
        cfg: LaunchConfig,
        warp_size: u32,
        tallies: &[BlockTally],
        sample_scale: f64,
    ) -> KernelStats {
        let (mut flops, mut bytes, mut txns, mut mem_ops) = (0u64, 0u64, 0u64, 0u64);
        let (mut chain_sum, mut sampled_threads, mut sampled_warps) = (0.0f64, 0u64, 0u64);
        let mut atomic_addrs: Vec<u64> = Vec::new();
        for t in tallies {
            flops += t.flops;
            bytes += t.bytes;
            txns += t.transactions;
            mem_ops += t.mem_ops;
            chain_sum += t.chain_sum;
            sampled_threads += t.threads;
            sampled_warps += t.warps;
            atomic_addrs.extend_from_slice(&t.atomic_addrs);
        }
        atomic_addrs.sort_unstable();
        let max_conflict = atomic_addrs
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0);
        let per_thread = |x: f64| {
            if sampled_threads > 0 {
                x / sampled_threads as f64
            } else {
                0.0
            }
        };

        KernelStats {
            name: name.to_string(),
            threads: cfg.total_threads(),
            warps: cfg.total_warps(warp_size),
            sampled_warps,
            flops: flops as f64 * sample_scale,
            dram_bytes: bytes as f64 * sample_scale,
            transactions: txns as f64 * sample_scale,
            mem_ops: mem_ops as f64 * sample_scale,
            chain_len: per_thread(chain_sum),
            ops_per_thread: per_thread(mem_ops as f64),
            atomic_ops: atomic_addrs.len() as f64 * sample_scale,
            atomic_max_conflict: max_conflict as f64 * sample_scale,
            block_dim: cfg.block_dim,
            grid_dim: cfg.grid_dim,
            shared_mem_bytes: cfg.shared_mem_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::Gmem;
    use crate::trace::{trace_block, AccessKind};

    /// Streams one block whose thread `t` runs `thread(t, gm)` and folds
    /// it (one warp of 32 lanes per 32 threads) into kernel statistics.
    fn stats(cfg: LaunchConfig, scale: f64, thread: impl Fn(u64, &mut Gmem<'_>)) -> KernelStats {
        let tally = trace_block(32, cfg.block_dim as usize, |t, gm| thread(t as u64, gm));
        KernelStats::from_tallies("k", cfg, 32, &[tally], scale)
    }

    fn rec(gm: &mut Gmem<'_>, addr: u64, kind: AccessKind) {
        gm.record(addr, 16, kind);
    }

    #[test]
    fn coalesced_block_counts_few_transactions() {
        // 32 threads each load element tid (16 B) — one warp, 4×128 B lines.
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |i, gm| rec(gm, i * 16, AccessKind::Read));
        assert_eq!(s.transactions as u64, 4);
        assert_eq!(s.dram_bytes as u64, 512);
        assert_eq!(s.mem_ops as u64, 32);
        assert!((s.mlp() - 8.0).abs() < 1e-9, "chain-free kernel runs at max MLP");
    }

    #[test]
    fn scattered_default_path_fetches_full_lines() {
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |i, gm| rec(gm, i * 100_000, AccessKind::Read));
        assert_eq!(s.transactions as u64, 32);
        assert_eq!(s.dram_bytes as u64, 32 * 128, "default path: 128 B lines");
    }

    #[test]
    fn scattered_readonly_path_uses_segments() {
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |i, gm| rec(gm, i * 100_000, AccessKind::ReadOnly));
        assert_eq!(s.transactions as u64, 32);
        assert_eq!(s.dram_bytes as u64, 32 * 32, "__ldg path: 32 B segments");
    }

    #[test]
    fn cached_scratch_traffic_is_free() {
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |i, gm| rec(gm, i * 16, AccessKind::CachedRead));
        assert_eq!(s.transactions as u64, 0);
        assert_eq!(s.dram_bytes as u64, 0);
        assert_eq!(s.mem_ops as u64, 0);
    }

    #[test]
    fn sample_scale_extrapolates() {
        let cfg = LaunchConfig::new(10, 32); // 10 blocks, 1 sampled
        let s = stats(cfg, 10.0, |i, gm| {
            rec(gm, i * 16, AccessKind::Read);
            gm.flops(10);
        });
        assert_eq!(s.flops as u64, 3200);
        assert_eq!(s.transactions as u64, 40);
        assert_eq!(s.threads, 320);
        assert_eq!(s.warps, 10);
        assert_eq!(s.sampled_warps, 1);
    }

    #[test]
    fn atomic_conflicts_tracked() {
        let cfg = LaunchConfig::new(1, 32);
        // All 32 threads hit the same atomic address; 16 hit another.
        let s = stats(cfg, 1.0, |i, gm| {
            gm.record(0, 4, AccessKind::Atomic);
            if i < 16 {
                gm.record(64, 4, AccessKind::Atomic);
            }
        });
        assert_eq!(s.atomic_ops as u64, 48);
        assert_eq!(s.atomic_max_conflict as u64, 32);
    }

    #[test]
    fn chain_length_reduces_mlp() {
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |_, gm| {
            for j in 0..8u64 {
                rec(gm, j * 4096, AccessKind::ReadDependent);
            }
        });
        assert!((s.chain_len - 8.0).abs() < 1e-9);
        assert!((s.mlp() - 1.0).abs() < 1e-9, "fully chained → mlp 1");
    }

    #[test]
    fn independent_ops_raise_mlp() {
        let cfg = LaunchConfig::new(1, 32);
        let s = stats(cfg, 1.0, |_, gm| {
            for j in 0..8u64 {
                rec(gm, j * 4096, AccessKind::Read);
            }
        });
        assert!((s.mlp() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_traces_are_safe() {
        let cfg = LaunchConfig::new(1, 32);
        let s = KernelStats::from_tallies("k", cfg, 32, &[], 1.0);
        assert_eq!(s.transactions, 0.0);
        assert_eq!(s.mlp(), 1.0);
    }
}

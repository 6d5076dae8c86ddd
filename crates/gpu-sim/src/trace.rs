//! Memory-access tracing and per-warp coalescing analysis.
//!
//! Kernels access global memory through [`crate::gmem::Gmem`]. For the
//! threads of sampled blocks, each load/store streams straight into the
//! executing worker's [`WarpCoalescer`]: the access takes the thread's next
//! *slot* (its per-thread instruction sequence number), and the slot table
//! keeps, per slot, the kind the first lane issued there and every lane's
//! address. When a warp's last lane finishes, each slot is priced as one
//! warp instruction — the distinct 128 B lines or 32 B segments it touches,
//! the same accounting a real profiler's `gld_transactions` performs — and
//! cleared, keeping its capacity for the next warp. Only a small
//! [`BlockTally`] per sampled block survives the block; nothing is stored
//! per thread. This is what gives the simulator its sensitivity to the
//! paper's coalescing optimisations.
//!
//! The coalescer is the general mechanism. A kernel whose address stream
//! is a closed-form function of the thread id may instead price its own
//! warps ([`WarpCost`], through
//! [`crate::GpuDevice::try_launch_map_priced`]); `price_block` folds
//! those per-warp costs into the same `BlockTally` a traced block leaves,
//! and [`WarpTxn::from_counts`] applies the same per-slot rule.

use std::cell::Cell;

use crate::gmem::Gmem;

/// What kind of memory operation an access was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain global load, independent of previous loads (address known
    /// up-front — e.g. after the paper's *index mapping* rewrite).
    Read,
    /// Global load whose address depends on the previous load's result
    /// (a pointer-chase / recurrence — e.g. `index = (index + ai) % n`).
    /// These form a latency chain the cost model cannot overlap.
    ReadDependent,
    /// Read-only-cache load (`__ldg`): charged like a read but assumed to
    /// hit the 48 KB read-only path, so it does not join the latency chain
    /// and does not occupy DRAM MSHRs (excluded from the MLP calculation).
    ReadOnly,
    /// L2-resident producer-consumer read: data written by an immediately
    /// preceding kernel in the same stream whose working set fits in L2
    /// (the async-layout staging buffers). Free of DRAM traffic.
    CachedRead,
    /// Plain global store.
    Write,
    /// Store to an L2-resident scratch buffer that is consumed and
    /// discarded before eviction. Free of DRAM traffic.
    CachedWrite,
    /// Atomic read-modify-write.
    Atomic,
}

impl AccessKind {
    /// True for operations that extend the per-thread dependency chain.
    #[inline]
    pub fn is_dependent(self) -> bool {
        matches!(self, AccessKind::ReadDependent)
    }

    /// True for L2-resident traffic: it takes a slot but generates no DRAM
    /// transactions and no MSHR pressure.
    #[inline]
    pub(crate) fn is_cached(self) -> bool {
        matches!(self, AccessKind::CachedRead | AccessKind::CachedWrite)
    }

    /// The transaction policy this access kind is serviced under.
    #[inline]
    pub fn policy(self) -> TxnPolicy {
        match self {
            AccessKind::Read | AccessKind::ReadDependent => TxnPolicy::CachedLine,
            _ => TxnPolicy::Segmented,
        }
    }
}

/// Overlap factor assumed for accumulator-chained loops
/// (`acc += a[i]*b[i]` with a per-iteration 64-bit mul/mod address
/// computation): on the in-order SMX such loops sustain ~1 outstanding
/// load per warp — the compiler cannot software-pipeline past the
/// accumulator and the address arithmetic. This is precisely the
/// inefficiency the paper's data-layout transformation removes.
///
/// Every chain increment is `1.0` or `1.0 / ACC_UNROLL`. Kernel statistics
/// sum the per-thread chains per block and then across blocks; that sum is
/// exact (so independent of the grouping) only while `1.0 / ACC_UNROLL` is
/// a power of two, which a unit test pins.
pub const ACC_UNROLL: f32 = 1.0;

/// Width of the cache line the default load path fetches, in bytes.
pub const LINE_BYTES: u64 = 128;

/// Width of the segment the fine-grained paths issue, in bytes.
pub const SEGMENT_BYTES: u64 = 32;

/// Result of coalescing analysis for one warp-level instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpTxn {
    /// Number of DRAM transactions issued.
    pub transactions: u64,
    /// Bytes of DRAM traffic generated.
    pub bytes: u64,
}

impl WarpTxn {
    /// Prices one warp instruction that touches `segs` distinct
    /// [`SEGMENT_BYTES`] segments lying in `lines` distinct [`LINE_BYTES`]
    /// lines — the rule the coalescer applies to every slot.
    pub fn from_counts(segs: u64, lines: u64, policy: TxnPolicy) -> WarpTxn {
        select(segs, lines, LINE_BYTES, SEGMENT_BYTES, policy)
    }

    /// Prices one warp instruction from the ids (`addr / SEGMENT_BYTES`)
    /// of the segments its lanes touch, in any order and with repeats;
    /// sorts `ids` in place. Allocation-free, for kernels that price their
    /// own warps.
    pub fn from_segments(ids: &mut [u64], policy: TxnPolicy) -> WarpTxn {
        ids.sort_unstable();
        let (segs, lines) = count_sorted(ids, LINE_BYTES / SEGMENT_BYTES);
        Self::from_counts(segs, lines, policy)
    }
}

/// How a warp memory instruction is serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPolicy {
    /// Default load path: whole `transaction_bytes`-wide cache lines are
    /// fetched per distinct line touched. Scattered access through this
    /// path suffers the full 128-byte amplification — the memory
    /// behaviour of the paper's *baseline* kernels.
    CachedLine,
    /// Read-only (`__ldg`) / store / atomic path: the hardware issues
    /// fine-grained `scatter_segment_bytes` segments when that moves less
    /// data (Kepler emits 32 B segments when L1 is bypassed).
    Segmented,
}

/// Computes the transactions one warp instruction generates, given the
/// addresses (and access width) of the participating lanes and the
/// service policy.
///
/// A fully coalesced warp touching 512 contiguous bytes costs 4×128 B
/// under either policy; a fully scattered warp of 16 B accesses costs
/// 32×128 B via [`TxnPolicy::CachedLine`] but only 32×32 B via
/// [`TxnPolicy::Segmented`].
pub fn warp_transactions(
    addrs: &[(u64, u32)],
    transaction_bytes: usize,
    scatter_segment_bytes: usize,
    policy: TxnPolicy,
) -> WarpTxn {
    price(
        addrs,
        transaction_bytes as u64,
        scatter_segment_bytes as u64,
        policy,
        &mut Vec::new(),
    )
}

/// Prices one warp instruction; `scratch` is reused segment-id storage.
fn price(
    addrs: &[(u64, u32)],
    line: u64,
    seg: u64,
    policy: TxnPolicy,
    scratch: &mut Vec<u64>,
) -> WarpTxn {
    if addrs.is_empty() {
        return WarpTxn {
            transactions: 0,
            bytes: 0,
        };
    }
    let (segs, lines) = if line.is_multiple_of(seg) {
        distinct_segments(addrs, seg, line / seg, scratch)
    } else {
        let (lines, _) = distinct_segments(addrs, line, 1, scratch);
        (distinct_segments(addrs, seg, 1, scratch).0, lines)
    };
    select(segs, lines, line, seg, policy)
}

/// Charges `lines` whole lines under [`TxnPolicy::CachedLine`], and the
/// cheaper of the lines and the `segs` segments under
/// [`TxnPolicy::Segmented`].
fn select(segs: u64, lines: u64, line: u64, seg: u64, policy: TxnPolicy) -> WarpTxn {
    let line_bytes = lines * line;
    let seg_bytes = segs * seg;
    if policy == TxnPolicy::CachedLine || line_bytes <= seg_bytes {
        WarpTxn {
            transactions: lines,
            bytes: line_bytes,
        }
    } else {
        WarpTxn {
            transactions: segs,
            bytes: seg_bytes,
        }
    }
}

/// Counts the distinct aligned segments of width `seg` touched by the
/// `(addr, bytes)` accesses, and the distinct groups of `per_line`
/// consecutive segments among them. An access covers a contiguous run of
/// segment ids, and a line of `per_line` whole segments is touched exactly
/// when one of its segments is, so both counts come from one sorted list.
/// The sort is skipped when the ids already ascend (a coalesced warp).
fn distinct_segments(
    addrs: &[(u64, u32)],
    seg: u64,
    per_line: u64,
    ids: &mut Vec<u64>,
) -> (u64, u64) {
    ids.clear();
    let mut ascending = true;
    for &(a, b) in addrs {
        let first = a / seg;
        let last = (a + b.max(1) as u64 - 1) / seg;
        ascending &= ids.last().is_none_or(|&prev| prev <= first);
        ids.extend(first..=last);
    }
    if !ascending {
        ids.sort_unstable();
    }
    count_sorted(ids, per_line)
}

/// Counts the distinct ids in the ascending `ids`, and the distinct groups
/// of `per_line` consecutive ids among them.
fn count_sorted(ids: &[u64], per_line: u64) -> (u64, u64) {
    let (mut segs, mut lines) = (0, 0);
    let (mut prev_seg, mut prev_line) = (None, None);
    for &s in ids {
        if prev_seg != Some(s) {
            segs += 1;
            prev_seg = Some(s);
            let l = s / per_line;
            if prev_line != Some(l) {
                lines += 1;
                prev_line = Some(l);
            }
        }
    }
    (segs, lines)
}

/// What one sampled block contributes to its launch's statistics.
/// [`crate::metrics::KernelStats::from_tallies`] folds them in block order.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct BlockTally {
    /// Double-precision flops the block's threads reported.
    pub flops: u64,
    /// DRAM transactions of the block's warp instructions.
    pub transactions: u64,
    /// DRAM bytes of the block's warp instructions.
    pub bytes: u64,
    /// Memory instructions that reach DRAM (cached accesses excluded).
    pub mem_ops: u64,
    /// Sum over threads of the weighted dependence-chain length.
    pub chain_sum: f64,
    /// Threads the block ran.
    pub threads: u64,
    /// Warps the block ran (a partial last warp counts).
    pub warps: u64,
    /// Address of every atomic the block issued, in issue order.
    pub atomic_addrs: Vec<u64>,
}

/// What one warp contributes to its block's tally when the kernel prices
/// its own warps instead of being traced (see
/// [`crate::GpuDevice::try_launch_map_priced`]). The fields are the ones a
/// traced warp adds to its block's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WarpCost {
    /// DRAM transactions of the warp's instructions.
    pub transactions: u64,
    /// DRAM bytes of the warp's instructions.
    pub bytes: u64,
    /// Memory instructions that reach DRAM, summed over the lanes (cached
    /// accesses excluded).
    pub mem_ops: u64,
    /// Double-precision flops, summed over the lanes.
    pub flops: u64,
    /// Weighted dependence-chain length, summed over the lanes.
    pub chain: f64,
}

/// One slot of the warp's instruction table.
#[derive(Debug, Default)]
struct Slot {
    /// Kind of the first lane's access here; `None` until a lane issues one.
    kind: Option<AccessKind>,
    /// `(addr, bytes)` of every lane that issued a DRAM access here.
    addrs: Vec<(u64, u32)>,
}

/// Per-worker streaming coalescer: the current thread's slot counter and
/// chain, the current warp's slot table, and the current block's tally.
/// All buffers keep their capacity from warp to warp and block to block.
#[derive(Debug, Default)]
pub(crate) struct WarpCoalescer {
    slots: Vec<Slot>,
    /// Slots touched by the current warp (`slots[used..]` are empty).
    used: usize,
    scratch: Vec<u64>,
    next_slot: usize,
    chain: f32,
    tally: BlockTally,
}

impl WarpCoalescer {
    /// Records one access of the current thread at its next slot.
    #[inline]
    pub(crate) fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        if kind.is_dependent() {
            self.chain += 1.0;
        }
        self.push(addr, bytes, kind);
    }

    /// Records a load that feeds a serial accumulator: independent address
    /// (so it coalesces like a plain read) but partially chained execution.
    #[inline]
    pub(crate) fn record_acc(&mut self, addr: u64, bytes: u32) {
        self.chain += 1.0 / ACC_UNROLL;
        self.push(addr, bytes, AccessKind::Read);
    }

    /// Adds to the current block's flop count.
    #[inline]
    pub(crate) fn add_flops(&mut self, n: u64) {
        self.tally.flops += n;
    }

    #[inline]
    fn push(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let slot = self.next_slot;
        self.next_slot += 1;
        if kind.is_cached() {
            return;
        }
        self.tally.mem_ops += 1;
        if kind == AccessKind::Atomic {
            self.tally.atomic_addrs.push(addr);
        }
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Slot::default);
        }
        let s = &mut self.slots[slot];
        s.kind.get_or_insert(kind);
        s.addrs.push((addr, bytes));
        self.used = self.used.max(slot + 1);
    }

    /// Closes the current thread: its chain joins the block tally and the
    /// next thread starts at slot 0.
    #[inline]
    pub(crate) fn end_thread(&mut self) {
        self.tally.chain_sum += self.chain as f64;
        self.tally.threads += 1;
        self.chain = 0.0;
        self.next_slot = 0;
    }

    /// Closes the current warp: prices every touched slot as one warp
    /// instruction and clears the table.
    pub(crate) fn end_warp(&mut self) {
        for s in &mut self.slots[..self.used] {
            if let Some(kind) = s.kind.take() {
                let t = price(
                    &s.addrs,
                    LINE_BYTES,
                    SEGMENT_BYTES,
                    kind.policy(),
                    &mut self.scratch,
                );
                self.tally.transactions += t.transactions;
                self.tally.bytes += t.bytes;
                s.addrs.clear();
            }
        }
        self.used = 0;
        self.tally.warps += 1;
    }

    /// Hands out the finished block's tally and resets it.
    pub(crate) fn take_tally(&mut self) -> BlockTally {
        std::mem::take(&mut self.tally)
    }
}

thread_local! {
    /// This worker's coalescer. [`trace_block`] takes it for one block, so
    /// a launch nested inside a kernel on the same worker gets a fresh one.
    static COALESCER: Cell<WarpCoalescer> = Cell::new(WarpCoalescer::default());
}

/// Runs threads `0..threads` of one sampled block through `run` with a
/// traced gateway, streaming their accesses into this worker's coalescer,
/// and returns the block's tally. A warp ends after every `warp_size`
/// threads and at the block's last thread, so a short block ends in a
/// partial warp.
pub(crate) fn trace_block(
    warp_size: u32,
    threads: usize,
    mut run: impl FnMut(usize, &mut Gmem<'_>),
) -> BlockTally {
    let mut co = COALESCER.take();
    let warp = warp_size as usize;
    for t in 0..threads {
        run(t, &mut Gmem::traced(&mut co));
        co.end_thread();
        if (t + 1) % warp == 0 || t + 1 == threads {
            co.end_warp();
        }
    }
    let tally = co.take_tally();
    COALESCER.set(co);
    tally
}

/// Builds the tally of a block of `threads` threads starting at global
/// thread id `first_tid` from its warps' prices: `price(first, lanes)` is
/// called once per warp, in order, and the warps split exactly as in
/// [`trace_block`] (a short block ends in a partial warp).
pub(crate) fn price_block(
    warp_size: u32,
    first_tid: usize,
    threads: usize,
    price: impl Fn(usize, usize) -> WarpCost,
) -> BlockTally {
    let warp = warp_size as usize;
    let mut tally = BlockTally {
        threads: threads as u64,
        ..BlockTally::default()
    };
    for w0 in (0..threads).step_by(warp) {
        let c = price(first_tid + w0, warp.min(threads - w0));
        tally.transactions += c.transactions;
        tally.bytes += c.bytes;
        tally.mem_ops += c.mem_ops;
        tally.flops += c.flops;
        tally.chain_sum += c.chain;
        tally.warps += 1;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_warp_uses_full_lines() {
        // 32 lanes × 16-byte complex, contiguous: 512 bytes = 4 lines.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 16, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 4);
        assert_eq!(t.bytes, 512);
    }

    #[test]
    fn scattered_warp_uses_segments() {
        // 32 lanes reading 16 bytes each, 1 MB apart: 32 segments of 32 B.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 1_048_576, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 32);
        assert_eq!(t.bytes, 32 * 32);
    }

    #[test]
    fn scattered_traffic_exceeds_coalesced() {
        let coalesced: Vec<(u64, u32)> = (0..32).map(|i| (i * 16, 16)).collect();
        let scattered: Vec<(u64, u32)> = (0..32).map(|i| (i * 4096, 16)).collect();
        let a = warp_transactions(&coalesced, 128, 32, TxnPolicy::Segmented);
        let b = warp_transactions(&scattered, 128, 32, TxnPolicy::Segmented);
        assert!(b.bytes == 2 * a.bytes, "32×32 B vs 4×128 B");
        assert!(b.transactions > a.transactions);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let addrs: Vec<(u64, u32)> = (0..32).map(|_| (4096, 8)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 1);
        assert_eq!(t.bytes, 32);
    }

    #[test]
    fn access_straddling_boundary_counts_both_segments() {
        // A 16-byte access starting 8 bytes before a 32 B boundary.
        let addrs = [(24u64, 16u32)];
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        // 1 line of 128 B vs 2 segments of 32 B = 64 B: segments win.
        assert_eq!(t.bytes, 64);
        assert_eq!(t.transactions, 2);
    }

    #[test]
    fn empty_warp_is_free() {
        let t = warp_transactions(&[], 128, 32, TxnPolicy::Segmented);
        assert_eq!(t.transactions, 0);
        assert_eq!(t.bytes, 0);
    }

    #[test]
    fn strided_access_partial_coalescing() {
        // stride 64 bytes: 32 lanes touch 16 lines of 128 B, or 32 segments.
        let addrs: Vec<(u64, u32)> = (0..32).map(|i| (i * 64, 16)).collect();
        let t = warp_transactions(&addrs, 128, 32, TxnPolicy::Segmented);
        // 16 lines × 128 = 2048 vs 32 segs × 32 = 1024 → segments.
        assert_eq!(t.bytes, 1024);
    }

    #[test]
    fn line_count_needs_no_whole_multiple_of_segments() {
        // 48 B lines over 32 B segments: lines are counted on their own.
        let addrs = [(0u64, 16u32), (40, 16), (100, 4)];
        let t = warp_transactions(&addrs, 48, 32, TxnPolicy::CachedLine);
        assert_eq!(t.transactions, 3, "lines 0, 1 (40..56 straddles 48) and 2");
        let t = warp_transactions(&addrs, 48, 32, TxnPolicy::Segmented);
        assert_eq!((t.transactions, t.bytes), (3, 96), "segments 0, 1, 3");
    }

    #[test]
    fn thread_trace_slots_and_chain() {
        let mut co = WarpCoalescer::default();
        co.record(0, 16, AccessKind::Read);
        co.record(128, 16, AccessKind::ReadDependent);
        co.record(256, 16, AccessKind::ReadDependent);
        co.add_flops(10);
        assert_eq!(co.used, 3);
        assert_eq!(co.chain, 2.0);
        co.end_thread();
        co.end_warp();
        let t = co.take_tally();
        assert_eq!((t.mem_ops, t.flops, t.threads, t.warps), (3, 10, 1, 1));
        assert_eq!(t.chain_sum, 2.0);
        assert_eq!(t.transactions, 3, "three slots, one line each");
    }

    #[test]
    fn accumulator_load_partially_chains() {
        let mut co = WarpCoalescer::default();
        for i in 0..8u64 {
            co.record_acc(i * 64, 16);
        }
        assert_eq!(co.used, 8);
        assert!((co.chain - 8.0 / ACC_UNROLL).abs() < 1e-6);
        assert!(co.slots.iter().all(|s| s.kind == Some(AccessKind::Read)));
    }

    #[test]
    fn chain_increments_sum_exactly_in_any_grouping() {
        // Block-then-launch folding of `chain_sum` equals the old
        // thread-order sum only while every increment is a power of two.
        let inc = 1.0 / ACC_UNROLL;
        assert!(
            inc.is_normal() && inc.to_bits() & 0x007f_ffff == 0,
            "1/ACC_UNROLL = {inc}"
        );
    }

    #[test]
    fn cached_accesses_take_a_slot_but_no_traffic() {
        let mut co = WarpCoalescer::default();
        co.record(0, 16, AccessKind::CachedRead);
        co.record(4096, 16, AccessKind::Write);
        co.record(8192, 16, AccessKind::CachedWrite);
        assert_eq!(co.used, 2, "the write took slot 1");
        assert!(co.slots[0].addrs.is_empty());
        co.end_thread();
        co.end_warp();
        let t = co.take_tally();
        assert_eq!((t.mem_ops, t.transactions, t.bytes), (1, 1, 32));
    }

    #[test]
    fn warp_end_clears_slots_and_keeps_capacity() {
        let mut co = WarpCoalescer::default();
        for lane in 0..4u64 {
            co.record(lane * 16, 16, AccessKind::Read);
            co.end_thread();
        }
        co.end_warp();
        assert_eq!(co.used, 0);
        assert!(co.slots[0].addrs.is_empty() && co.slots[0].addrs.capacity() >= 4);
        co.record(1 << 20, 8, AccessKind::Atomic);
        co.end_thread();
        co.end_warp();
        let t = co.take_tally();
        assert_eq!(t.transactions, 2, "one line, then one atomic segment");
        assert_eq!(t.atomic_addrs, vec![1 << 20]);
        assert_eq!(co.take_tally(), BlockTally::default());
    }

    #[test]
    fn dependent_kind_flag() {
        assert!(AccessKind::ReadDependent.is_dependent());
        assert!(!AccessKind::Read.is_dependent());
        assert!(!AccessKind::ReadOnly.is_dependent());
        assert!(!AccessKind::Write.is_dependent());
    }
}

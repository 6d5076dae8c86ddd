//! Differential oracle for the streaming coalescer.
//!
//! This is the store-then-aggregate tracer the executor used before the
//! per-warp coalescer replaced it, kept verbatim as a test oracle: every
//! traced thread fills a [`ThreadTrace`], and [`aggregate`] regroups the
//! traces per warp and per slot after the launch, counting distinct lines
//! and segments with a separate sort per width. The property tests below
//! replay random per-thread access streams through both paths and require
//! every [`KernelStats`] field to agree bit for bit.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::gmem::Gmem;
use crate::launch::LaunchConfig;
use crate::metrics::KernelStats;
use crate::trace::{trace_block, warp_transactions, AccessKind, TxnPolicy, WarpTxn, ACC_UNROLL};

/// One recorded memory access by one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Access {
    slot: u32,
    addr: u64,
    bytes: u32,
    kind: AccessKind,
}

/// The trace of a single (sampled) thread.
#[derive(Debug, Default, Clone)]
struct ThreadTrace {
    accesses: Vec<Access>,
    flops: u64,
    chain_len: f32,
    next_slot: u32,
}

impl ThreadTrace {
    fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let slot = self.next_slot;
        self.next_slot += 1;
        if kind.is_dependent() {
            self.chain_len += 1.0;
        }
        self.accesses.push(Access {
            slot,
            addr,
            bytes,
            kind,
        });
    }

    fn record_acc(&mut self, addr: u64, bytes: u32) {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.chain_len += 1.0 / ACC_UNROLL;
        self.accesses.push(Access {
            slot,
            addr,
            bytes,
            kind: AccessKind::Read,
        });
    }
}

/// The old transaction counter: one sort and dedup per width.
fn oracle_warp_transactions(
    addrs: &[(u64, u32)],
    transaction_bytes: usize,
    scatter_segment_bytes: usize,
    policy: TxnPolicy,
) -> WarpTxn {
    if addrs.is_empty() {
        return WarpTxn {
            transactions: 0,
            bytes: 0,
        };
    }
    let lines = distinct_segments(addrs, transaction_bytes as u64);
    let line_bytes = lines * transaction_bytes as u64;
    if policy == TxnPolicy::CachedLine {
        return WarpTxn {
            transactions: lines,
            bytes: line_bytes,
        };
    }
    let segs = distinct_segments(addrs, scatter_segment_bytes as u64);
    let seg_bytes = segs * scatter_segment_bytes as u64;
    if line_bytes <= seg_bytes {
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

fn distinct_segments(addrs: &[(u64, u32)], seg: u64) -> u64 {
    let mut ids: Vec<u64> = Vec::with_capacity(addrs.len() * 2);
    for &(a, b) in addrs {
        let first = a / seg;
        let last = (a + b.max(1) as u64 - 1) / seg;
        for s in first..=last {
            ids.push(s);
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

type SlotAccesses = (Option<AccessKind>, Vec<(u64, u32)>);

/// Builds kernel statistics from the traces of the sampled blocks, each
/// holding its threads' traces in thread order.
fn aggregate(
    name: &str,
    cfg: LaunchConfig,
    warp_size: u32,
    block_traces: &[Vec<ThreadTrace>],
    sample_scale: f64,
) -> KernelStats {
    let mut flops = 0u64;
    let mut bytes = 0u64;
    let mut txns = 0u64;
    let mut mem_ops = 0u64;
    let mut chain_sum = 0.0f64;
    let mut sampled_threads = 0u64;
    let mut sampled_warps = 0u64;
    let mut atomic_ops = 0u64;
    let mut atomic_hist: HashMap<u64, u64> = HashMap::new();

    for traces in block_traces {
        sampled_threads += traces.len() as u64;
        for warp in traces.chunks(warp_size as usize) {
            sampled_warps += 1;
            let max_slot = warp
                .iter()
                .flat_map(|t| t.accesses.iter().map(|a| a.slot))
                .max()
                .map(|s| s as usize + 1)
                .unwrap_or(0);
            let mut per_slot: Vec<SlotAccesses> = vec![(None, Vec::new()); max_slot];
            for t in warp {
                flops += t.flops;
                chain_sum += t.chain_len as f64;
                for a in &t.accesses {
                    match a.kind {
                        AccessKind::CachedRead | AccessKind::CachedWrite => continue,
                        AccessKind::Atomic => {
                            mem_ops += 1;
                            atomic_ops += 1;
                            *atomic_hist.entry(a.addr).or_insert(0) += 1;
                        }
                        _ => mem_ops += 1,
                    }
                    let slot = &mut per_slot[a.slot as usize];
                    slot.0.get_or_insert(a.kind);
                    slot.1.push((a.addr, a.bytes));
                }
            }
            for (kind, addrs) in &per_slot {
                if addrs.is_empty() {
                    continue;
                }
                let policy = kind.unwrap_or(AccessKind::Read).policy();
                let t = oracle_warp_transactions(addrs, 128, 32, policy);
                txns += t.transactions;
                bytes += t.bytes;
            }
        }
    }

    let max_conflict = atomic_hist.values().copied().max().unwrap_or(0);
    let ops_per_thread = if sampled_threads > 0 {
        mem_ops as f64 / sampled_threads as f64
    } else {
        0.0
    };
    let chain_len = if sampled_threads > 0 {
        chain_sum / sampled_threads as f64
    } else {
        0.0
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
        chain_len,
        ops_per_thread,
        atomic_ops: atomic_ops as f64 * sample_scale,
        atomic_max_conflict: max_conflict as f64 * sample_scale,
        block_dim: cfg.block_dim,
        grid_dim: cfg.grid_dim,
        shared_mem_bytes: cfg.shared_mem_bytes,
    }
}

/// Every `KernelStats` field, floats as their bits. The exhaustive
/// destructuring makes a new field a compile error here.
fn fields(s: &KernelStats) -> (String, [u64; 14]) {
    let KernelStats {
        name,
        threads,
        warps,
        sampled_warps,
        flops,
        dram_bytes,
        transactions,
        mem_ops,
        chain_len,
        ops_per_thread,
        atomic_ops,
        atomic_max_conflict,
        block_dim,
        grid_dim,
        shared_mem_bytes,
    } = s;
    (
        name.clone(),
        [
            *threads,
            *warps,
            *sampled_warps,
            flops.to_bits(),
            dram_bytes.to_bits(),
            transactions.to_bits(),
            mem_ops.to_bits(),
            chain_len.to_bits(),
            ops_per_thread.to_bits(),
            atomic_ops.to_bits(),
            atomic_max_conflict.to_bits(),
            u64::from(*block_dim),
            u64::from(*grid_dim),
            u64::from(*shared_mem_bytes),
        ],
    )
}

/// One generated access: `kind` (7 = accumulator load), how its address is
/// formed, a parameter for that, and the access width.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    mode: u8,
    param: u64,
    bytes: u32,
}

const KINDS: [AccessKind; 7] = [
    AccessKind::Read,
    AccessKind::ReadDependent,
    AccessKind::ReadOnly,
    AccessKind::CachedRead,
    AccessKind::Write,
    AccessKind::CachedWrite,
    AccessKind::Atomic,
];

/// The address thread `tid` issues for `op` at `slot`. Modes: an arbitrary
/// offset (straddles segment boundaries), a broadcast shared by every lane
/// at this slot, a coalesced `base + 16·tid`, and the affine gather
/// `x[(σ·tid + τ) mod n]` of the permutation kernels. Atomics hit one of
/// four addresses so conflicts pile up across blocks.
fn address(op: Op, tid: u64, slot: usize) -> u64 {
    let region = (op.param % 4) << 20;
    if KINDS.get(op.kind as usize) == Some(&AccessKind::Atomic) {
        return (1 << 30) + (op.param % 4) * 4;
    }
    match op.mode {
        0 => region + op.param % 4096,
        1 => region + 64 * slot as u64,
        2 => region + 16 * tid,
        _ => region + 16 * ((op.param | 1).wrapping_mul(tid).wrapping_add(op.param >> 8) % 1024),
    }
}

/// A generated launch: warp size, sample scale, and per sampled block the
/// per-thread `(flops, ops)` streams.
type Launch = (u32, u32, Vec<Vec<(u64, Vec<Op>)>>);

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u8..4, 0u64..1 << 20, 0usize..5).prop_map(|(kind, mode, param, w)| Op {
        kind,
        mode,
        param,
        bytes: [1, 4, 8, 16, 24][w],
    })
}

fn thread() -> impl Strategy<Value = (u64, Vec<Op>)> {
    (0u64..100, prop::collection::vec(op(), 0..10))
}

/// Blocks of `block_dim` threads, the last one possibly short (as
/// `par_chunks_mut` cuts it); warp sizes 4 and 32 give partial warps.
fn launch() -> impl Strategy<Value = Launch> {
    (0usize..2, 1u32..4, 1usize..70, 1usize..4).prop_flat_map(|(w, scale, block_dim, blocks)| {
        (
            Just([4u32, 32][w]),
            Just(scale),
            prop::collection::vec(prop::collection::vec(thread(), block_dim), blocks - 1),
            1usize..block_dim + 1,
        )
            .prop_flat_map(move |(warp, scale, full, last_len)| {
                (
                    Just(warp),
                    Just(scale),
                    Just(full),
                    prop::collection::vec(thread(), last_len),
                )
            })
            .prop_map(|(warp, scale, mut full, last)| {
                full.push(last);
                (warp, scale, full)
            })
    })
}

fn replay_oracle(tid: u64, (flops, ops): &(u64, Vec<Op>)) -> ThreadTrace {
    let mut t = ThreadTrace::default();
    for (slot, &op) in ops.iter().enumerate() {
        let addr = address(op, tid, slot);
        match KINDS.get(op.kind as usize) {
            Some(&kind) => t.record(addr, op.bytes, kind),
            None => t.record_acc(addr, op.bytes),
        }
    }
    t.flops = *flops;
    t
}

fn replay_streaming(gm: &mut Gmem<'_>, tid: u64, (flops, ops): &(u64, Vec<Op>)) {
    for (slot, &op) in ops.iter().enumerate() {
        let addr = address(op, tid, slot);
        match KINDS.get(op.kind as usize) {
            Some(&kind) => gm.record(addr, op.bytes, kind),
            None => gm.record_acc(addr, op.bytes),
        }
    }
    gm.flops(*flops);
}

/// `(streaming, oracle)` statistics of one generated launch.
fn both(launch: &Launch) -> (KernelStats, KernelStats) {
    let (warp, scale, blocks) = launch;
    let block_dim = blocks[0].len() as u32;
    let grid = blocks.len() as u32 * scale;
    let cfg = LaunchConfig::new(grid, block_dim);
    let tid = |b: usize, t: usize| (b * block_dim as usize * *scale as usize + t) as u64;
    let tallies: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(b, threads)| {
            trace_block(*warp, threads.len(), |t, gm| {
                replay_streaming(gm, tid(b, t), &threads[t])
            })
        })
        .collect();
    let traces: Vec<Vec<ThreadTrace>> = blocks
        .iter()
        .enumerate()
        .map(|(b, threads)| {
            threads
                .iter()
                .enumerate()
                .map(|(t, th)| replay_oracle(tid(b, t), th))
                .collect()
        })
        .collect();
    let sample_scale = f64::from(*scale);
    (
        KernelStats::from_tallies("k", cfg, *warp, &tallies, sample_scale),
        aggregate("k", cfg, *warp, &traces, sample_scale),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_stats_match_the_oracle_bit_for_bit(l in launch()) {
        let (streaming, oracle) = both(&l);
        prop_assert_eq!(fields(&streaming), fields(&oracle));
    }

    #[test]
    fn single_sort_counter_matches_per_width_sorts(
        lanes in prop::collection::vec((0u64..4096, 1u32..40), 0..40),
        line_seg in 0usize..4,
        policy in 0usize..2,
    ) {
        let (line, seg) = [(128, 32), (64, 16), (48, 32), (128, 128)][line_seg];
        let policy = [TxnPolicy::CachedLine, TxnPolicy::Segmented][policy];
        prop_assert_eq!(
            warp_transactions(&lanes, line, seg, policy),
            oracle_warp_transactions(&lanes, line, seg, policy)
        );
    }
}

/// The remap kernel's divergent early return: lanes whose tap is zero do
/// one load and a store, the others two loads and a store, so slot 1 mixes
/// a store (first lane, `Write`) with loads, and slot 2 holds only stores.
#[test]
fn divergent_lanes_mix_kinds_within_a_slot() {
    let zero_tap = |tid: u64| tid.is_multiple_of(3);
    let thread = |tid: u64| -> (u64, Vec<Op>) {
        let ld = |param| Op {
            kind: 0,
            mode: 3,
            param,
            bytes: 16,
        };
        let st = Op {
            kind: 4,
            mode: 2,
            param: 0,
            bytes: 16,
        };
        let ops = if zero_tap(tid) {
            vec![ld(7), st]
        } else {
            vec![ld(7), ld((5 << 8) | 3), st]
        };
        (8, ops)
    };
    for (warp, block_dim) in [(32u32, 64usize), (32, 45), (4, 7)] {
        let block: Vec<_> = (0..block_dim as u64).map(thread).collect();
        let (streaming, oracle) = both(&(warp, 2, vec![block.clone(), block]));
        assert_eq!(
            fields(&streaming),
            fields(&oracle),
            "warp {warp}, block {block_dim}"
        );
        assert!(streaming.transactions > 0.0);
    }
}

/// Atomic conflicts are counted over the whole launch, not per block.
#[test]
fn atomic_conflicts_accumulate_across_blocks() {
    let atomic = Op {
        kind: 6,
        mode: 0,
        param: 1,
        bytes: 4,
    };
    let block: Vec<_> = (0..10).map(|_| (0, vec![atomic])).collect();
    let (streaming, oracle) = both(&(32, 1, vec![block.clone(), block.clone(), block]));
    assert_eq!(streaming.atomic_max_conflict, 30.0);
    assert_eq!(fields(&streaming), fields(&oracle));
}

//! Differential oracle for the priced remap kernels: every `remap` /
//! `remap_tiled` launch of the async layout pass is run twice on the same
//! staging buffer — once traced through the per-warp coalescer (the
//! general mechanism, with [`RemapLaunch::thread`] as an ordinary map
//! body) and once priced from its affine index stream
//! ([`RemapLaunch::launch`]) — and every [`KernelStats`] field, the
//! modeled cost and the staged values must agree bit for bit.
//!
//! The cases cover n from 2^9 to 2^20, random σ and τ (τ = 0 as well as
//! uniform), both remap flavours, both staging cases (a device with a
//! tiny L2 forces DRAM-charged staging), zero taps planted inside the
//! filter, every chunk of the pass, and ranges whose last warp and last
//! block are partial or whose grid exceeds the executor's 2^14-thread
//! sampling cap, so that sampled extrapolation is exercised.

use cusfft::{chunk_plan, RemapKind, RemapLaunch};
use fft::Cplx;
use gpu_sim::{DeviceBuffer, DeviceSpec, GpuDevice, KernelStats, DEFAULT_STREAM};
use proptest::prelude::*;
use sfft_cpu::Permutation;

/// The fields of `KernelStats`, floats as bit patterns.
fn fields(s: &KernelStats) -> Vec<(&'static str, u64)> {
    vec![
        ("threads", s.threads),
        ("warps", s.warps),
        ("sampled_warps", s.sampled_warps),
        ("flops", s.flops.to_bits()),
        ("dram_bytes", s.dram_bytes.to_bits()),
        ("transactions", s.transactions.to_bits()),
        ("mem_ops", s.mem_ops.to_bits()),
        ("chain_len", s.chain_len.to_bits()),
        ("ops_per_thread", s.ops_per_thread.to_bits()),
        ("atomic_ops", s.atomic_ops.to_bits()),
        ("atomic_max_conflict", s.atomic_max_conflict.to_bits()),
        ("block_dim", s.block_dim as u64),
        ("grid_dim", s.grid_dim as u64),
        ("shared_mem_bytes", s.shared_mem_bytes as u64),
    ]
}

/// Runs `remap` over `len` threads traced, then priced, into the same
/// staging buffer, and checks that both launches recorded the same
/// statistics and cost and staged the same values. Returns the priced
/// launch's statistics.
fn check_launch(device: &GpuDevice, remap: &RemapLaunch<'_>, len: usize) -> KernelStats {
    let mut staged: DeviceBuffer<Cplx> = DeviceBuffer::zeroed(len);
    let cfg = remap.config(len);
    device.reset_clock();
    if remap.staged_cached {
        device.try_launch_map_scratch(remap.name(), cfg, DEFAULT_STREAM, &mut staged, |c, g| {
            remap.thread(c, g)
        })
    } else {
        device.try_launch_map(remap.name(), cfg, DEFAULT_STREAM, &mut staged, |c, g| {
            remap.thread(c, g)
        })
    }
    .expect("fault-free traced launch");
    let traced_values = staged.peek();
    staged.as_mut_slice().fill(Cplx::new(0.0, 0.0));
    remap
        .launch(device, DEFAULT_STREAM, &mut staged)
        .expect("fault-free priced launch");
    let records = device.records();
    assert_eq!(records.len(), 2);
    let (traced, priced) = (&records[0], &records[1]);
    let what = format!(
        "{:?} n={} a={} tau={} first_tap={} len={len} cached={}",
        remap.kind,
        remap.perm.n,
        remap.perm.a,
        remap.perm.tau,
        remap.first_tap,
        remap.staged_cached
    );
    assert_eq!(traced.name, priced.name, "{what}");
    assert_eq!(traced.stats.name, priced.stats.name, "{what}");
    assert_eq!(fields(&traced.stats), fields(&priced.stats), "{what}");
    assert_eq!(
        format!("{:?}", traced.cost),
        format!("{:?}", priced.cost),
        "{what}"
    );
    assert_eq!(traced_values, staged.peek(), "{what}: staged values");
    priced.stats.clone()
}

/// A filter of width `w` padded to a multiple of `b`, with nonzero taps
/// except every `hole`-th one inside the filter (`hole = 0`: none).
fn taps(w: usize, b: usize, hole: usize) -> Vec<Cplx> {
    let w_pad = w.div_ceil(b) * b;
    (0..w_pad)
        .map(|i| {
            if i >= w || (hole > 0 && i % hole == hole / 2) {
                Cplx::new(0.0, 0.0)
            } else {
                Cplx::new(1.0 + i as f64, 0.5 - i as f64)
            }
        })
        .collect()
}

/// K20x, optionally with an L2 too small to hold any staging round.
fn spec(small_l2: bool) -> DeviceSpec {
    let k20x = DeviceSpec::tesla_k20x();
    if small_l2 {
        DeviceSpec {
            l2_bytes: 64,
            ..k20x
        }
    } else {
        k20x
    }
}

fn kind(flavour: u64) -> RemapKind {
    if flavour == 0 {
        RemapKind::Direct
    } else {
        RemapKind::Tiled
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every chunk of one async pass, as `perm_filter_async_opts` cuts it,
    /// plus one arbitrary sub-range of the taps.
    #[test]
    fn priced_remap_matches_the_tracer(
        log2_n in 9u32..21,
        log2_b in 3u32..9,
        w_rounds in 1usize..300,
        w_extra in 0usize..64,
        hole in 0usize..40,
        sigma in 0usize..1 << 30,
        tau in 0usize..1 << 30,
        random_tau in 0u64..2,
        flavour in 0u64..2,
        small_l2 in 0u64..2,
        range in (0usize..1 << 20, 1usize..1 << 20),
    ) {
        let n = 1usize << log2_n;
        let b = 1usize << log2_b.min(log2_n - 3);
        let w = (w_rounds * b + w_extra).min(n);
        let taps_host = taps(w, b, hole);
        let w_pad = taps_host.len();
        let tau = if random_tau == 1 { tau % n } else { 0 };
        let perm = Permutation::new((2 * sigma + 1) % n, tau, n);
        let signal_host: Vec<Cplx> =
            (0..n).map(|t| Cplx::new(t as f64, -(t as f64))).collect();
        let signal = DeviceBuffer::from_host(&signal_host);
        let taps = DeviceBuffer::from_host(&taps_host);
        let spec = spec(small_l2 == 1);
        let cp = chunk_plan(&spec, w_pad, b);
        prop_assert_eq!(cp.staged_cached, small_l2 == 0);
        let device = GpuDevice::new(spec);
        let remap = |first_tap: usize, staged_cached: bool| RemapLaunch {
            kind: kind(flavour),
            signal: &signal,
            taps: &taps,
            perm: &perm,
            half: w / 2,
            first_tap,
            staged_cached,
        };

        let rounds = w_pad / b;
        for c in 0..cp.chunks {
            let r_lo = c * cp.rounds_per_chunk;
            let cr = cp.rounds_per_chunk.min(rounds - r_lo);
            check_launch(&device, &remap(r_lo * b, cp.staged_cached), cr * b);
        }

        // An arbitrary range: partial last warps and blocks, and grids
        // past the sampling cap, whichever staging case it lands in.
        let first = range.0 % w_pad;
        let len = 1 + (range.1 - 1) % (w_pad - first);
        let cached = cp.staged_cached && len * 16 <= device.spec().l2_bytes;
        check_launch(&device, &remap(first, cached), len);
    }
}

/// Grids past the sampling cap are priced from their sampled blocks only,
/// extrapolated exactly as a traced launch is — checked on a long filter
/// at n = 2^20 with a partial last warp and block.
#[test]
fn sampled_extrapolation_matches_the_tracer() {
    let n = 1 << 20;
    let (w, b) = (150_001, 1 << 9);
    let taps_host = taps(w, b, 13);
    let signal_host: Vec<Cplx> = (0..n).map(|t| Cplx::new(1.0, t as f64)).collect();
    let signal = DeviceBuffer::from_host(&signal_host);
    let taps = DeviceBuffer::from_host(&taps_host);
    let perm = Permutation::new(654_321, 98_765, n);
    for small_l2 in [false, true] {
        let device = GpuDevice::new(spec(small_l2));
        for flavour in [RemapKind::Direct, RemapKind::Tiled] {
            // L2-resident staging must fit L2; DRAM staging takes the
            // whole filter. Both end in a partial warp and block.
            let len = if small_l2 {
                taps_host.len() - 1_000 - 7
            } else {
                device.spec().l2_bytes / 16 - 5
            };
            let remap = RemapLaunch {
                kind: flavour,
                signal: &signal,
                taps: &taps,
                perm: &perm,
                half: w / 2,
                first_tap: 1_000,
                staged_cached: !small_l2,
            };
            let stats = check_launch(&device, &remap, len);
            assert!(
                stats.sampled_warps < stats.warps,
                "the launch must be sampled, not fully priced"
            );
        }
    }
}

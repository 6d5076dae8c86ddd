//! GPU location recovery (paper Algorithm 4): one thread per selected
//! bucket walks the bucket's preimage, votes with `atomicAdd` on the
//! score array, and appends frequencies that reach the threshold through
//! an atomic cursor.
//!
//! On a real GPU the cursor hands out hit slots in warp-scheduling order.
//! Here each crossing stores at the slot a sequential run's cursor would
//! give it (`sequential_slots`, computed on the host before the launch),
//! so the traced store addresses — and with them the kernel's modeled
//! transactions — do not depend on how host threads interleave. The
//! selected buckets are distinct, so their preimages are disjoint: every
//! frequency gets at most one vote per launch, and whether a vote crosses
//! the threshold depends only on the scores before the launch.

use gpu_sim::{DevAtomicU32, DeviceBuffer, GpuDevice, GpuError, LaunchConfig, StreamId};
use sfft_cpu::perm::mul_mod;
use sfft_cpu::Permutation;

const BLOCK: u32 = 64;

/// The preimage of permuted bucket `j`: the `n/B` frequencies
/// `σ·(j·n/B − n/(2B) + i) mod n`, `i = 0..n/B`, in the order the
/// location kernel's thread walks them.
fn preimage(j: usize, perm: &Permutation, b: usize) -> impl Iterator<Item = usize> {
    let (n, a) = (perm.n, perm.a);
    let n_div_b = n / b;
    let first = mul_mod((j * n_div_b + n - n_div_b / 2) % n, a, n);
    std::iter::successors(Some(first), move |&loc| {
        let next = loc + a;
        Some(if next >= n { next - n } else { next })
    })
    .take(n_div_b)
}

/// The first hit slot of each selected bucket's thread in a sequential
/// run: the cursor's value before the launch plus the threshold crossings
/// of every earlier thread. `voted(loc)` says whether the kernel votes for
/// `loc` (the masked variant skips masked-out candidates). Panics when a
/// bucket is selected twice: its frequencies would then get two votes in
/// one launch, and a crossing on the second vote would have no slot.
fn sequential_slots(
    selected: &DeviceBuffer<u32>,
    perm: &Permutation,
    b: usize,
    thresh: usize,
    state: &LocateState,
    voted: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let mut seen = vec![false; b];
    let mut next = state.cursor.load_untraced(0);
    selected
        .as_slice()
        .iter()
        .map(|&j| {
            let j = j as usize;
            assert!(
                !std::mem::replace(&mut seen[j], true),
                "bucket {j} is selected twice"
            );
            let first = next;
            for loc in preimage(j, perm, b) {
                if voted(loc) && state.score.load_untraced(loc) as usize + 1 == thresh {
                    next += 1;
                }
            }
            first
        })
        .collect()
}

/// Device-resident voting state shared across the location loops.
pub struct LocateState {
    /// Per-frequency vote counters (size n).
    pub score: DevAtomicU32,
    /// Hit output slots (capacity bounded by the caller).
    pub hits: DevAtomicU32,
    /// Cursor: `hits[0..cursor]` are valid.
    pub cursor: DevAtomicU32,
}

impl LocateState {
    /// Allocates voting state for signals of length `n` with room for at
    /// most `max_hits` recovered frequencies.
    pub fn new(n: usize, max_hits: usize) -> Self {
        LocateState {
            score: DevAtomicU32::zeroed(n),
            hits: DevAtomicU32::zeroed(max_hits),
            cursor: DevAtomicU32::zeroed(1),
        }
    }

    /// Currently recorded hits (host side), sorted by frequency for
    /// determinism (CUDA append order depends on warp scheduling).
    pub fn hits_sorted(&self) -> Vec<usize> {
        let count = (self.cursor.snapshot()[0] as usize).min(self.hits.len());
        let mut v: Vec<usize> = self.hits.snapshot()[..count]
            .iter()
            .map(|&h| h as usize)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Runs the location kernel for one location loop. `selected` must hold
/// distinct bucket indices below `b`; a repeated bucket panics. With a
/// `mask` (sFFT v2), candidates whose residue mod `mask.len()` is zero in
/// `mask` are skipped before any atomic work — the comb pre-filter's saving — and the kernel is named
/// `locate_masked`. Fails with a typed device error on an injected launch
/// fault; the voting state is then untouched (no blocks executed), so a
/// retry re-votes from clean state.
#[allow(clippy::too_many_arguments)]
pub fn locate_device(
    device: &GpuDevice,
    selected: &DeviceBuffer<u32>,
    perm: &Permutation,
    b: usize,
    thresh: usize,
    state: &LocateState,
    mask: Option<&DeviceBuffer<u8>>,
    stream: StreamId,
) -> Result<(), GpuError> {
    let n = perm.n;
    let m = mask.map_or(1, |mask| mask.len());
    assert!(m > 0 && n.is_multiple_of(m), "mask length must divide n");
    let count = selected.len();
    if count == 0 {
        return Ok(());
    }
    let max_hits = state.hits.len() as u32;
    let slots = sequential_slots(selected, perm, b, thresh, state, |loc| {
        mask.is_none_or(|mask| mask.as_slice()[loc % m] != 0)
    });
    let name = if mask.is_some() {
        "locate_masked"
    } else {
        "locate"
    };
    let cfg = LaunchConfig::for_elements(count, BLOCK);
    device.try_launch_foreach(name, cfg, stream, |ctx, gm| {
        let tid = ctx.global_id();
        if tid >= count {
            return;
        }
        let j = gm.ld(selected, tid) as usize;
        let mut slot = slots[tid];
        for loc in preimage(j, perm, b) {
            if mask.is_none_or(|mask| gm.ld_ro(mask, loc % m) != 0) {
                let old = state.score.fetch_add(gm, loc, 1);
                if old as usize + 1 == thresh {
                    state.cursor.fetch_add(gm, 0, 1);
                    if slot < max_hits {
                        state.hits.store(gm, slot as usize, loc as u32);
                    }
                    slot += 1;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, DEFAULT_STREAM};

    fn device() -> GpuDevice {
        GpuDevice::new(DeviceSpec::tesla_k20x())
    }

    #[test]
    fn masked_locate_matches_cpu_masked_locate() {
        let dev = device();
        let n = 1 << 10;
        let b = 32;
        let m = 64;
        let perm = Permutation::new(77, 0, n);
        let mask_host: Vec<u8> = (0..m).map(|i| (i % 3 == 0) as u8).collect();
        let mask_bool: Vec<bool> = mask_host.iter().map(|&v| v != 0).collect();
        let selected_host = vec![1u32, 5, 9];

        let mut score = vec![0u8; n];
        let mut cpu_hits = Vec::new();
        let sel_usize: Vec<usize> = selected_host.iter().map(|&x| x as usize).collect();
        sfft_cpu::inner::locate_masked(
            &sel_usize, &perm, b, 1, &mut score, &mut cpu_hits, &mask_bool,
        );
        cpu_hits.sort_unstable();

        let selected = DeviceBuffer::from_host(&selected_host);
        let mask = DeviceBuffer::from_host(&mask_host);
        let state = LocateState::new(n, n);
        locate_device(
            &dev,
            &selected,
            &perm,
            b,
            1,
            &state,
            Some(&mask),
            DEFAULT_STREAM,
        )
        .unwrap();
        assert_eq!(state.hits_sorted(), cpu_hits);
    }

    #[test]
    fn matches_cpu_locate() {
        let dev = device();
        let n = 1 << 12;
        let b = 64;
        let perm = Permutation::new(1001, 0, n);
        let selected_host: Vec<u32> = vec![3, 17, 40];

        // CPU reference.
        let mut score = vec![0u8; n];
        let mut cpu_hits = Vec::new();
        let sel_usize: Vec<usize> = selected_host.iter().map(|&x| x as usize).collect();
        sfft_cpu::inner::locate(&sel_usize, &perm, b, 1, &mut score, &mut cpu_hits);
        cpu_hits.sort_unstable();

        // GPU kernel.
        let selected = DeviceBuffer::from_host(&selected_host);
        let state = LocateState::new(n, n);
        locate_device(&dev, &selected, &perm, b, 1, &state, None, DEFAULT_STREAM).unwrap();
        assert_eq!(state.hits_sorted(), cpu_hits);
    }

    #[test]
    fn threshold_accumulates_across_loops() {
        let dev = device();
        let n = 1 << 10;
        let b = 32;
        let state = LocateState::new(n, n);
        let perm = Permutation::new(5, 0, n);
        let selected = DeviceBuffer::from_host(&[2u32]);
        locate_device(&dev, &selected, &perm, b, 2, &state, None, DEFAULT_STREAM).unwrap();
        assert!(state.hits_sorted().is_empty(), "one vote < threshold 2");
        locate_device(&dev, &selected, &perm, b, 2, &state, None, DEFAULT_STREAM).unwrap();
        assert_eq!(state.hits_sorted().len(), n / b);
    }

    #[test]
    fn each_hit_recorded_once() {
        let dev = device();
        let n = 256;
        let b = 16;
        let state = LocateState::new(n, n);
        let perm = Permutation::new(9, 0, n);
        let selected = DeviceBuffer::from_host(&[1u32]);
        for _ in 0..5 {
            locate_device(&dev, &selected, &perm, b, 2, &state, None, DEFAULT_STREAM).unwrap();
        }
        let hits = state.hits_sorted();
        let mut dedup = hits.clone();
        dedup.dedup();
        assert_eq!(hits, dedup, "no duplicate hits");
        assert_eq!(hits.len(), n / b);
    }

    #[test]
    #[should_panic(expected = "bucket 2 is selected twice")]
    fn duplicate_selected_bucket_is_rejected() {
        let dev = device();
        let n = 1 << 10;
        let state = LocateState::new(n, n);
        let perm = Permutation::new(5, 0, n);
        let selected = DeviceBuffer::from_host(&[2u32, 7, 2]);
        let _ = locate_device(&dev, &selected, &perm, 32, 2, &state, None, DEFAULT_STREAM);
    }

    #[test]
    fn kernel_records_atomic_traffic() {
        let dev = device();
        let n = 1 << 12;
        let state = LocateState::new(n, 128);
        let perm = Permutation::new(77, 0, n);
        let selected = DeviceBuffer::from_host(&[0u32, 1, 2, 3]);
        dev.reset_clock();
        locate_device(&dev, &selected, &perm, 64, 1, &state, None, DEFAULT_STREAM).unwrap();
        let rec = &dev.records()[0];
        assert!(rec.stats.atomic_ops > 0.0);
        assert_eq!(rec.name, "locate");
    }
}

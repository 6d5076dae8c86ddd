//! Launch-record fingerprints for `CusFft::execute`.
//!
//! Each case runs one request on a fresh K20x and hashes, with FNV-1a 64,
//! the `{:?}` rendering of every [`LaunchRecord`] (name, aggregated
//! `KernelStats`, `KernelCost`, stream, bound) and every timeline `Op`.
//! These are the numbers the cost model and the stream schedule are
//! built from, so any change to access tracing, coalescing analysis or
//! the cost model that moves a single modeled bit fails here. The
//! constants were generated with the store-then-aggregate tracer at pool
//! width 1, and pin that the streaming coalescer moved nothing. The test
//! runs at the default pool width, which gives the same records now that
//! every kernel's trace is independent of the host schedule.
//!
//! [`LaunchRecord`]: gpu_sim::LaunchRecord

use std::sync::Arc;

use cusfft::{CusFft, Variant};
use gpu_sim::{DeviceSpec, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{MagnitudeModel, SparseSignal};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of every launch record and timeline op of one execution.
fn fingerprint(variant: Variant, log2_n: u32, k: usize, seed: u64) -> u64 {
    let n = 1usize << log2_n;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, seed);
    let device = Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()));
    let plan = CusFft::new(device.clone(), Arc::new(SfftParams::tuned(n, k)), variant);
    let out = plan.execute(&s.time, seed);
    assert!(out.num_hits > 0, "sanity: the pipeline recovered something");
    let mut text = String::new();
    for r in device.records() {
        text.push_str(&format!(
            "{:?} {:?} {:?} {:?} {}\n",
            r.name, r.stats, r.cost, r.stream, r.bound
        ));
    }
    for o in device.ops() {
        text.push_str(&format!("{o:?}\n"));
    }
    fnv1a(text.as_bytes())
}

/// `(variant, log2 n, k, seed, fingerprint)`.
const CASES: [(Variant, u32, usize, u64, u64); 6] = [
    (Variant::Baseline, 12, 8, 11, 0x8dd4_6daa_66c2_4730),
    (Variant::Optimized, 12, 8, 11, 0x0364_df93_9570_6f2d),
    (Variant::Baseline, 14, 16, 23, 0x5f66_b581_f195_7607),
    (Variant::Optimized, 14, 16, 23, 0x8cbd_4a5d_e7da_643e),
    (Variant::Baseline, 16, 32, 37, 0xa7a1_a1c2_2b58_f16d),
    (Variant::Optimized, 16, 32, 37, 0x32cc_22ec_4fe2_0045),
];

#[test]
fn launch_records_and_ops_are_pinned() {
    let mut failures = Vec::new();
    for (variant, log2_n, k, seed, want) in CASES {
        let got = fingerprint(variant, log2_n, k, seed);
        if got != want {
            failures.push(format!(
                "{variant:?} n=2^{log2_n} k={k} seed={seed}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "fingerprints moved:\n{}",
        failures.join("\n")
    );
}

//! Quickstart: recover a sparse spectrum with cusFFT and check it against
//! the ground truth and a dense FFT.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use cusfft::{cufft_dense_baseline, CusFft, Variant};
use gpu_sim::{GpuDevice, DEFAULT_STREAM};
use sfft_cpu::SfftParams;
use signal::{l1_error_per_coeff, MagnitudeModel, SparseSignal};

fn main() {
    // A 2^16-point signal whose spectrum has exactly 20 non-zero
    // coefficients at random frequencies.
    let n = 1 << 16;
    let k = 20;
    let signal = SparseSignal::generate(n, k, MagnitudeModel::Unit, 42);
    println!("signal: n = {n}, k = {k} non-zero coefficients");

    // Plan once (filters and device buffers), execute on the simulated
    // Tesla K20x.
    let device = Arc::new(GpuDevice::k20x());
    let params = Arc::new(SfftParams::tuned(n, k));
    let plan = CusFft::new(device, params, Variant::Optimized);
    let out = plan.execute(&signal.time, 7);

    // Every true coefficient should be recovered with the right value.
    println!(
        "\nrecovered {} candidates; ground truth vs estimate:",
        out.recovered.len()
    );
    println!(
        "{:>10} {:>24} {:>24} {:>10}",
        "freq", "true", "estimated", "|error|"
    );
    for &(f, truth) in &signal.coords {
        let est = out
            .recovered
            .iter()
            .find(|&&(g, _)| g == f)
            .map(|&(_, v)| v)
            .unwrap_or(fft::cplx::ZERO);
        println!(
            "{f:>10} {:>24} {:>24} {:>10.2e}",
            format!("{truth:.4}"),
            format!("{est:.4}"),
            truth.dist(est)
        );
    }
    let err = l1_error_per_coeff(&signal.coords, &out.recovered);
    println!("\nL1 error per large coefficient: {err:.3e}");

    // Compare the simulated device time against the dense cuFFT baseline.
    let dev = GpuDevice::k20x();
    cufft_dense_baseline(&dev, &signal.time, DEFAULT_STREAM).expect("fault-free device");
    let cufft_time = dev.elapsed();
    println!("\nsimulated Tesla K20x times (input device-resident):");
    println!("  cusFFT (optimized): {:>10.3} ms", out.sim_time * 1e3);
    println!("  cuFFT  (dense)    : {:>10.3} ms", cufft_time * 1e3);
    println!("  speedup           : {:>10.2}x", cufft_time / out.sim_time);
    println!("\nper-step breakdown (simulated):");
    for (label, t) in out.steps.as_pairs() {
        if t > 0.0 {
            println!("  {label:<16} {:>10.3} ms", t * 1e3);
        }
    }

    assert!(err < 1e-3, "recovery failed");
}

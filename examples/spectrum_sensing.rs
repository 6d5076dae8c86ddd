//! Spectrum sensing for cognitive radio — one of the sparse-spectrum
//! applications the paper's introduction motivates.
//!
//! A wideband receiver digitises a large band in which only a few
//! channels are occupied (each occupied channel contributes a carrier
//! tone). The sensing task is to find the occupied channels much faster
//! than a full FFT would: the occupancy spectrum is k-sparse by
//! construction, so cusFFT applies directly.
//!
//! ```text
//! cargo run --release --example spectrum_sensing
//! ```

use std::sync::Arc;

use cusfft::{cufft_dense_baseline, CusFft, Variant};
use fft::cplx::{Cplx, ZERO};
use fft::{Direction, Plan};
use gpu_sim::{GpuDevice, DEFAULT_STREAM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfft_cpu::SfftParams;
use signal::add_awgn;

/// Number of channels the band is divided into.
const CHANNELS: usize = 256;

fn main() {
    let n = 1 << 18; // samples in the sensing window
    let mut rng = StdRng::seed_from_u64(2026);

    // 6 occupied channels, each transmitting a carrier somewhere inside
    // its channel, with distinct power levels.
    let occupied: Vec<usize> = {
        let mut set = Vec::new();
        while set.len() < 6 {
            let c = rng.gen_range(0..CHANNELS);
            if !set.contains(&c) {
                set.push(c);
            }
        }
        set
    };
    let ch_width = n / CHANNELS;
    let mut spectrum = vec![ZERO; n];
    let mut truth: Vec<(usize, usize)> = Vec::new(); // (channel, freq)
    for &c in &occupied {
        let f = c * ch_width + rng.gen_range(ch_width / 4..3 * ch_width / 4);
        let power = rng.gen_range(0.5..2.0);
        spectrum[f] = Cplx::from_polar(power, rng.gen_range(0.0..std::f64::consts::TAU));
        truth.push((c, f));
    }
    truth.sort_unstable();

    // Received samples: inverse transform + receiver noise (30 dB SNR).
    let mut time = spectrum;
    Plan::new(n).process(&mut time, Direction::Inverse);
    add_awgn(&mut time, 30.0, 99);

    println!("wideband sensing: n = {n} samples, {CHANNELS} channels, 6 occupied");
    println!(
        "truth: channels {:?}",
        truth.iter().map(|&(c, _)| c).collect::<Vec<_>>()
    );

    // Sparse sensing with cusFFT: look for up to 2x the expected carrier
    // count (headroom for noise).
    let k = 16;
    let params = Arc::new(SfftParams::tuned(n, k));
    let plan = CusFft::new(Arc::new(GpuDevice::k20x()), params, Variant::Optimized);
    let out = plan.execute(&time, 5);

    // Channel occupancy from the recovered coefficients: a channel is
    // occupied when a strong coefficient falls inside it.
    let peak = out
        .recovered
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max);
    let mut detected: Vec<(usize, usize, f64)> = out
        .recovered
        .iter()
        .filter(|(_, v)| v.abs() > 0.2 * peak)
        .map(|&(f, v)| (f / ch_width, f, v.abs()))
        .collect();
    detected.sort_unstable_by_key(|&(c, f, _)| (c, f));
    detected.dedup_by_key(|&mut (c, _, _)| c);

    println!("\ndetected occupied channels (cusFFT, optimized variant):");
    println!("{:>8} {:>10} {:>8}", "channel", "freq", "power");
    for &(c, f, p) in &detected {
        println!("{c:>8} {f:>10} {p:>8.3}");
    }

    // Verification against truth and against a dense FFT sensing pass.
    let dev = GpuDevice::k20x();
    cufft_dense_baseline(&dev, &time, DEFAULT_STREAM).expect("fault-free device");
    let dense_time = dev.elapsed();

    let missed: Vec<usize> = truth
        .iter()
        .filter(|&&(c, _)| !detected.iter().any(|&(d, _, _)| d == c))
        .map(|&(c, _)| c)
        .collect();
    let false_alarms: Vec<usize> = detected
        .iter()
        .filter(|&&(c, _, _)| !truth.iter().any(|&(t, _)| t == c))
        .map(|&(c, _, _)| c)
        .collect();
    println!("\nmissed channels: {missed:?}   false alarms: {false_alarms:?}");
    println!(
        "simulated sensing time: cusFFT {:.3} ms vs dense FFT {:.3} ms ({:.1}x)",
        out.sim_time * 1e3,
        dense_time * 1e3,
        dense_time / out.sim_time
    );

    assert!(missed.is_empty(), "a transmitter went undetected");
}

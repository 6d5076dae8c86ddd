//! Criterion counterpart of Figure 5(a): wall-clock cost of driving each
//! implementation once per iteration, plus the deterministic simulated
//! device times printed once per configuration.
//!
//! The *simulated* numbers are the paper-facing ones (they are what the
//! `reproduce` binary reports); the wall numbers benchmark this
//! reproduction itself.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cusfft::{cufft_dense_baseline, CusFft, Variant};
use fft::{Direction, ParallelPlan};
use gpu_sim::{GpuDevice, DEFAULT_STREAM};
use sfft_cpu::{psfft, sfft, SfftParams};
use signal::{MagnitudeModel, SparseSignal};

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));

    for log2n in [14u32, 16] {
        let n = 1usize << log2n;
        let k = 64;
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 9);
        let params = Arc::new(SfftParams::tuned(n, k));

        // Print the deterministic simulated device times once.
        let base_plan = CusFft::new(Arc::new(GpuDevice::k20x()), params.clone(), Variant::Baseline);
        let opt_plan =
            CusFft::new(Arc::new(GpuDevice::k20x()), params.clone(), Variant::Optimized);
        let dev = GpuDevice::k20x();
        cufft_dense_baseline(&dev, &s.time, DEFAULT_STREAM).expect("fault-free device");
        println!(
            "[sim] n=2^{log2n}: cusFFT-base {:.3} ms, cusFFT-opt {:.3} ms, cuFFT {:.3} ms",
            base_plan.execute(&s.time, 1).sim_time * 1e3,
            opt_plan.execute(&s.time, 1).sim_time * 1e3,
            dev.elapsed() * 1e3,
        );

        group.bench_with_input(BenchmarkId::new("cusfft_opt", log2n), &s, |b, s| {
            b.iter(|| opt_plan.execute(&s.time, 1))
        });
        group.bench_with_input(BenchmarkId::new("cusfft_base", log2n), &s, |b, s| {
            b.iter(|| base_plan.execute(&s.time, 1))
        });
        group.bench_with_input(BenchmarkId::new("sfft_serial", log2n), &s, |b, s| {
            b.iter(|| sfft(&params, &s.time, 1))
        });
        group.bench_with_input(BenchmarkId::new("psfft", log2n), &s, |b, s| {
            b.iter(|| psfft(&params, &s.time, 1))
        });
        let plan = ParallelPlan::new(n);
        group.bench_with_input(BenchmarkId::new("fftw_parallel", log2n), &s, |b, s| {
            b.iter(|| {
                let mut buf = s.time.clone();
                plan.process(&mut buf, Direction::Forward);
                buf
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);

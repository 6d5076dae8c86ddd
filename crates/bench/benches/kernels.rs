//! Kernel-level bench: the three permutation+filter implementations
//! (Section IV/V ablation) — wall cost of the functional execution plus
//! the simulated device times printed once.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cusfft::perm_filter::{perm_filter_async, perm_filter_atomic, perm_filter_partition};
use fft::cplx::ZERO;
use gpu_sim::{DeviceBuffer, GpuDevice, StreamId, DEFAULT_STREAM};
use sfft_cpu::{Permutation, SfftParams};
use signal::{MagnitudeModel, SparseSignal};

fn bench_perm_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("perm_filter");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));

    let n = 1usize << 16;
    let k = 64;
    let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 3);
    let params = SfftParams::tuned(n, k);
    let b = params.b_loc;
    let w = params.filter_loc.width();
    let w_pad = w.div_ceil(b) * b;
    let mut taps = params.filter_loc.taps().to_vec();
    taps.resize(w_pad, ZERO);

    let device = GpuDevice::k20x();
    let signal_buf = DeviceBuffer::from_host(&s.time);
    let taps_buf = DeviceBuffer::from_host(&taps);
    let perm = Permutation::new(1001, 0, n);
    let streams: Vec<StreamId> = (0..8).map(|_| device.create_stream()).collect();

    // Simulated device times, once.
    device.reset_clock();
    let mut out = DeviceBuffer::zeroed(b);
    perm_filter_partition(
        &device, &signal_buf, &taps_buf, w_pad, w, b, &perm, &mut out, DEFAULT_STREAM,
    )
    .expect("fault-free device");
    let t_part = device.elapsed();
    device.reset_clock();
    let mut out2 = DeviceBuffer::zeroed(b);
    perm_filter_async(
        &device, &signal_buf, &taps_buf, w_pad, w, b, &perm, &mut out2, &streams, DEFAULT_STREAM,
    )
    .expect("fault-free device");
    let t_async = device.elapsed();
    device.reset_clock();
    perm_filter_atomic(&device, &signal_buf, &taps_buf, w, b, &perm, DEFAULT_STREAM)
        .expect("fault-free device");
    let t_atomic = device.elapsed();
    println!(
        "[sim] n=2^16: partition {:.1} us, async {:.1} us, atomic {:.1} us",
        t_part * 1e6,
        t_async * 1e6,
        t_atomic * 1e6
    );

    group.bench_with_input(BenchmarkId::new("partition", 16), &(), |bch, _| {
        bch.iter(|| {
            device.reset_clock();
            let mut o = DeviceBuffer::zeroed(b);
            perm_filter_partition(
                &device, &signal_buf, &taps_buf, w_pad, w, b, &perm, &mut o, DEFAULT_STREAM,
            )
            .expect("fault-free device");
            o
        })
    });
    group.bench_with_input(BenchmarkId::new("async_layout", 16), &(), |bch, _| {
        bch.iter(|| {
            device.reset_clock();
            let mut o = DeviceBuffer::zeroed(b);
            perm_filter_async(
                &device, &signal_buf, &taps_buf, w_pad, w, b, &perm, &mut o, &streams,
                DEFAULT_STREAM,
            )
            .expect("fault-free device");
            o
        })
    });
    group.bench_with_input(BenchmarkId::new("atomic_hist", 16), &(), |bch, _| {
        bch.iter(|| {
            device.reset_clock();
            perm_filter_atomic(&device, &signal_buf, &taps_buf, w, b, &perm, DEFAULT_STREAM)
                .expect("fault-free device")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_perm_filter);
criterion_main!(benches);

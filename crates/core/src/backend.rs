//! The execution backends of the serving layer.
//!
//! The paper's headline claim is comparative — one algorithm (sFFT on
//! the GPU) against dense FFT and CPU sFFT across a regime of `(n, k)`
//! — so a request names which of those three implementations serves it
//! ([`BackendKind`], part of the plan key), and the plan cache holds one
//! [`ExecutePlan`] per key. The set is closed: [`ExecutePlan`] is an
//! enum with one arm for the device pipeline and one for host work.
//!
//! * [`BackendKind::GpuSim`] — the cusFFT pipeline on the simulated
//!   device (the paper's subject), [`ExecutePlan::GpuSim`].
//! * [`BackendKind::SfftCpu`] — the CPU reference sFFT. Runs as host
//!   work (one zero-duration host op marks the execution on the
//!   timeline), so injected device faults cannot touch it: re-routing a
//!   request here *is* the degradation tier.
//! * [`BackendKind::DenseFft`] — a brute-force dense-FFT oracle that
//!   keeps the top-`k` coefficients. Exact up to floating-point, used by
//!   the differential conformance suite as ground truth.
//!
//! The two host kinds share [`ExecutePlan::Host`]; a dense-FFT plan is
//! the one that carries a dense [`fft::Plan`].
//!
//! ## Exactness classes
//!
//! Each kind's [`BackendCaps`] ([`BackendKind::caps`]) documents its
//! contract with the conformance suite (`tests/backend_differential.rs`):
//!
//! * `exact_vs_direct` — serving a request through [`ServeEngine`]
//!   must reproduce [`execute_direct`] *bit-for-bit* (true for every
//!   backend: execution is a pure function of `(params, signal,
//!   seed)`).
//! * `oracle_bound` — recovered coefficients must match the dense
//!   oracle within this per-coefficient ℓ1 bound on clean signals
//!   (`0.0` for the oracle itself).
//!
//! ## Determinism obligations
//!
//! Every plan is a pure function of `(params, variant, signal, seed)`
//! given a device state: no wall clocks, no ambient randomness, no
//! dependence on which worker thread runs it. Host plans only enqueue
//! infallible host ops, so fault plans cannot alter their results.
//!
//! [`ServeEngine`]: crate::serve::ServeEngine

use std::sync::Arc;

use fft::cplx::Cplx;
use gpu_sim::{
    transfer_time, DeviceBuffer, DeviceSpec, FaultConfig, GpuDevice, PooledBuffer, StreamId,
};
use sfft_cpu::{SfftParams, Tuning};
use signal::Recovered;

use crate::cufft::cufft_model_time;
use crate::error::CusFftError;
use crate::perm_filter::RemapKind;
use crate::pipeline::{ComputedRequest, CusFft, ExecStreams, PreparedRequest, Variant};
use crate::plan_cache::{PlanKey, ServeQos};

/// The fixed set of execution backends a request can be routed to.
/// Part of [`PlanKey`], so plans for different backends never alias in
/// the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BackendKind {
    /// The cusFFT pipeline on the simulated GPU (the default).
    #[default]
    GpuSim,
    /// The CPU reference sFFT (`crates/sfft-cpu`).
    SfftCpu,
    /// The brute-force dense-FFT oracle (`crates/fft`).
    DenseFft,
}

impl BackendKind {
    /// Every kind, in declaration order.
    pub fn all() -> [BackendKind; 3] {
        [
            BackendKind::GpuSim,
            BackendKind::SfftCpu,
            BackendKind::DenseFft,
        ]
    }

    /// Stable label used as a telemetry dimension (`backend:<kind>`).
    pub fn label(self) -> &'static str {
        cusfft_telemetry::backend_label(self.code())
    }

    /// The 2-bit telemetry op-tag code for this backend.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::GpuSim => cusfft_telemetry::BACKEND_GPU_SIM,
            BackendKind::SfftCpu => cusfft_telemetry::BACKEND_SFFT_CPU,
            BackendKind::DenseFft => cusfft_telemetry::BACKEND_DENSE_FFT,
        }
    }

    /// The kind's capability report.
    pub fn caps(self) -> BackendCaps {
        let device = self == BackendKind::GpuSim;
        BackendCaps {
            kind: self,
            exact_vs_direct: true,
            uses_device: device,
            batched_ffts: device,
            oracle_bound: match self {
                BackendKind::GpuSim | BackendKind::SfftCpu => ORACLE_BOUND_SFFT,
                BackendKind::DenseFft => 0.0,
            },
        }
    }

    /// Predicted service seconds for one request under `p`, used by the
    /// overload layer's deadline/queue admission model and the fleet's
    /// router. A pure function of its arguments.
    pub fn estimate_cost(self, model_dev: &GpuDevice, spec: &DeviceSpec, p: &SfftParams) -> f64 {
        match self {
            // The analytic service model: both batched cuFFT sides (×2
            // for the surrounding kernels, calibrated against the step
            // breakdown) plus the input transfer.
            BackendKind::GpuSim => {
                2.0 * (cufft_model_time(model_dev, p.b_loc, p.loops_loc)
                    + cufft_model_time(model_dev, p.b_est, p.loops_est))
                    + transfer_time(spec, p.n * std::mem::size_of::<Cplx>())
            }
            BackendKind::SfftCpu => p.host_work_estimate() / HOST_OP_RATE,
            BackendKind::DenseFft => {
                let n = p.n as f64;
                n * n.log2().max(1.0) / HOST_OP_RATE
            }
        }
    }
}

/// A backend's capability report: its exactness class and execution
/// shape, as documented contracts the conformance suite enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCaps {
    /// The backend this report describes.
    pub kind: BackendKind,
    /// Serving through the engine reproduces [`execute_direct`]
    /// bit-for-bit.
    pub exact_vs_direct: bool,
    /// Execution enqueues device (kernel/PCIe) ops and rolls fault
    /// gates; `false` means host-only execution immune to injected
    /// device faults.
    pub uses_device: bool,
    /// `run_batched_ffts` actually batches across requests (vs. a
    /// no-op for host backends that complete in `prepare`).
    pub batched_ffts: bool,
    /// Per-coefficient bound on |coeff − dense oracle coeff| for the
    /// large coefficients of a clean signal (`0.0` = is the oracle).
    pub oracle_bound: f64,
}

/// Per-coefficient ℓ1 bound vs. the dense oracle for the sFFT
/// recoveries (GPU and CPU alike), matching the accuracy floor pinned
/// by the end-to-end tests (`l1_error_per_coeff < 1e-3`).
pub const ORACLE_BOUND_SFFT: f64 = 1e-3;

/// Abstract host operations per second the admission pricer assumes
/// when converting [`SfftParams::host_work_estimate`] to seconds.
const HOST_OP_RATE: f64 = 1e9;

/// Opaque per-request state between [`ExecutePlan::prepare`] and
/// [`ExecutePlan::finish`]; the serving layer only moves it around.
pub struct PreparedState(Prepared);

enum Prepared {
    /// The device-resident signal (kept alive so its memory reservation
    /// spans the whole attempt) plus the filtered bucket buffers. The
    /// signal is drawn from the worker arena, so in steady state its
    /// upload is a free-list hit.
    Gpu {
        _signal: PooledBuffer<Cplx>,
        prep: PreparedRequest,
    },
    /// The spectrum a host plan computed eagerly in `prepare`.
    Host(Recovered),
}

impl PreparedState {
    /// The device pipeline's state, or a typed error for a host plan's.
    fn gpu(&self) -> Result<&PreparedRequest, CusFftError> {
        match &self.0 {
            Prepared::Gpu { prep, .. } => Ok(prep),
            Prepared::Host(_) => Err(foreign_state()),
        }
    }
}

/// The failure of a plan handed another backend's prepared state.
fn foreign_state() -> CusFftError {
    CusFftError::BadRequest {
        reason: "prepared state came from a plan of another backend".into(),
    }
}

/// An executable plan: the three-phase execution surface the serving
/// layer drives. The phase split mirrors the cusFFT pipeline (front
/// half / batched FFTs / back half); host plans complete their work in
/// `prepare` and treat the FFT phase as a no-op.
pub enum ExecutePlan {
    /// The cusFFT pipeline on the simulated device.
    GpuSim(Box<CusFft>),
    /// Host work: the CPU reference sFFT, or — with a `dense` plan — the
    /// dense-FFT oracle that keeps the `k` largest coefficients
    /// ([`fft::Plan::forward_coefficients`], the convention sFFT
    /// recovers in).
    Host {
        params: Arc<SfftParams>,
        variant: Variant,
        dense: Option<fft::Plan>,
    },
}

impl ExecutePlan {
    /// Builds the plan for `key` — default tuning for
    /// [`ServeQos::Full`], [`Tuning::degraded`] for
    /// [`ServeQos::Degraded`]. `device` hosts plan-lifetime state
    /// (filter uploads) for the device pipeline; `remap` forces its
    /// permutation remap kernel (`None` lets each plan pick by modeled
    /// DRAM-transaction count, see `choose_remap`).
    pub fn build(device: &Arc<GpuDevice>, key: PlanKey, remap: Option<RemapKind>) -> Self {
        let tuning = match key.qos {
            ServeQos::Full => Tuning::default(),
            ServeQos::Degraded => Tuning::default().degraded(),
        };
        let params = Arc::new(SfftParams::with_tuning(key.n, key.k, tuning));
        match key.backend {
            BackendKind::GpuSim => {
                let mut plan = CusFft::new(Arc::clone(device), params, key.variant);
                if let Some(kind) = remap {
                    plan = plan.with_remap(kind);
                }
                ExecutePlan::GpuSim(Box::new(plan))
            }
            BackendKind::SfftCpu => ExecutePlan::Host {
                params,
                variant: key.variant,
                dense: None,
            },
            BackendKind::DenseFft => ExecutePlan::Host {
                params,
                variant: key.variant,
                dense: Some(fft::Plan::new(key.n)),
            },
        }
    }

    /// Which backend built this plan.
    pub fn backend(&self) -> BackendKind {
        match self {
            ExecutePlan::GpuSim(_) => BackendKind::GpuSim,
            ExecutePlan::Host { dense: None, .. } => BackendKind::SfftCpu,
            ExecutePlan::Host { dense: Some(_), .. } => BackendKind::DenseFft,
        }
    }

    /// The sFFT parameters the plan was built for.
    pub fn params(&self) -> &SfftParams {
        match self {
            ExecutePlan::GpuSim(plan) => plan.params(),
            ExecutePlan::Host { params, .. } => params,
        }
    }

    /// The implementation tier.
    pub fn variant(&self) -> Variant {
        match self {
            ExecutePlan::GpuSim(plan) => plan.variant(),
            ExecutePlan::Host { variant, .. } => *variant,
        }
    }

    /// Auxiliary streams one execution wants (0 for host plans).
    pub fn num_streams(&self) -> usize {
        match self {
            ExecutePlan::GpuSim(plan) => plan.num_streams(),
            ExecutePlan::Host { .. } => 0,
        }
    }

    /// Front half: ingest `time` and run everything up to the batched
    /// FFT barrier. Includes the signal upload for the device pipeline.
    pub fn prepare(
        &self,
        device: &GpuDevice,
        time: &[Cplx],
        seed: u64,
        streams: &ExecStreams,
    ) -> Result<PreparedState, CusFftError> {
        let state = match self {
            ExecutePlan::GpuSim(plan) => {
                // Signal upload first (memory reserved; the PCIe cost is
                // charged group-wide by `stage_group`), then the front
                // half.
                let signal = device.try_resident_pooled(&streams.arena.cplx, time, streams.main)?;
                let prep = plan.prepare(device, &signal, seed, streams)?;
                Prepared::Gpu {
                    _signal: signal,
                    prep,
                }
            }
            ExecutePlan::Host { params, dense, .. } => {
                if time.len() != params.n {
                    return Err(CusFftError::BadRequest {
                        reason: format!(
                            "signal length {} must match params.n {}",
                            time.len(),
                            params.n
                        ),
                    });
                }
                // One infallible host marker keeps the execution visible
                // on the merged timeline without rolling any fault gates.
                device.charge_host_op(self.backend().label(), 0.0, streams.main);
                Prepared::Host(match dense {
                    None => sfft_cpu::sfft(params, time, seed),
                    Some(plan) => top_k(&plan.forward_coefficients(time), params.k),
                })
            }
        };
        Ok(PreparedState(state))
    }

    /// The batched-FFT barrier over every prepared request in `group`.
    pub fn run_batched_ffts(
        &self,
        device: &GpuDevice,
        group: &mut [&mut PreparedState],
        stream: StreamId,
    ) -> Result<(), CusFftError> {
        let ExecutePlan::GpuSim(plan) = self else {
            return Ok(());
        };
        let mut preps = group
            .iter_mut()
            .map(|s| match &mut s.0 {
                Prepared::Gpu { prep, .. } => Ok(prep),
                Prepared::Host(_) => Err(foreign_state()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        plan.run_batched_ffts(device, &mut preps, stream)
    }

    /// Back half: produce the sorted sparse spectrum and hit count.
    pub fn finish(
        &self,
        device: &GpuDevice,
        prep: &PreparedState,
        streams: &ExecStreams,
    ) -> Result<(Recovered, usize), CusFftError> {
        match (self, &prep.0) {
            (ExecutePlan::GpuSim(plan), Prepared::Gpu { prep, .. }) => {
                plan.finish(device, prep, streams)
            }
            (ExecutePlan::Host { .. }, Prepared::Host(rec)) => Ok((rec.clone(), rec.len())),
            _ => Err(foreign_state()),
        }
    }

    /// Pre-sizes per-worker scratch pools for a group of `group_size`
    /// same-shape requests, so steady-state acquisitions are free-list
    /// hits with zero `MemPool` traffic. Host plans need nothing.
    pub fn warm(
        &self,
        device: &GpuDevice,
        streams: &ExecStreams,
        group_size: usize,
    ) -> Result<(), CusFftError> {
        match self {
            ExecutePlan::GpuSim(plan) => plan.warm_arena(device, streams, group_size),
            ExecutePlan::Host { .. } => Ok(()),
        }
    }

    /// Charges one aggregated host-to-device staging transfer for the
    /// group's combined signal payload of `bytes`, instead of paying
    /// per-request PCIe latency. Host plans transfer nothing.
    pub fn stage_group(
        &self,
        device: &GpuDevice,
        bytes: usize,
        stream: StreamId,
    ) -> Result<(), CusFftError> {
        if let ExecutePlan::GpuSim(_) = self {
            device.try_charge_htod("htod_group", bytes, stream)?;
        }
        Ok(())
    }

    /// Back half over every surviving request of a group. Returns one
    /// result per entry of `preps`, in order. The device pipeline runs
    /// each request's compute, then copies the results of the whole
    /// group back as one D2H pair; host plans finish one at a time.
    pub fn finish_group(
        &self,
        device: &GpuDevice,
        preps: &[&PreparedState],
        streams: &ExecStreams,
    ) -> Vec<Result<(Recovered, usize), CusFftError>> {
        let ExecutePlan::GpuSim(plan) = self else {
            return preps
                .iter()
                .map(|p| self.finish(device, p, streams))
                .collect();
        };
        // Per-request device compute first; then the two result
        // transfers (hit indices + values) are concatenated across the
        // group and copied back as one D2H pair, replacing per-request
        // PCIe round-trips.
        let computed: Vec<Result<ComputedRequest, CusFftError>> = preps
            .iter()
            .map(|p| plan.finish_compute(device, p.gpu()?, streams))
            .collect();
        // Per-constituent buffers through a grouped transfer: PCIe is
        // charged once for the aggregate, but fault/corruption gates
        // roll per request — batching must not launder SDC exposure.
        let survivors: Vec<&ComputedRequest> = computed.iter().flatten().collect();
        let hits_bufs: Vec<&DeviceBuffer<u32>> = survivors.iter().map(|fc| &fc.hits_buf).collect();
        let vals_bufs: Vec<DeviceBuffer<Cplx>> = survivors
            .iter()
            .map(|fc| DeviceBuffer::from_host(&fc.vals))
            .collect();
        let vals_refs: Vec<&DeviceBuffer<Cplx>> = vals_bufs.iter().collect();
        let vals_host = device
            .try_dtoh_group(&hits_bufs, streams.main)
            .and_then(|_| device.try_dtoh_group(&vals_refs, streams.main));
        let vals_host = match vals_host {
            Ok(v) => v,
            Err(e) => {
                // A group-wide transfer failure fails every request
                // whose compute survived; compute failures keep their
                // own (earlier) error.
                let e: CusFftError = e.into();
                return computed
                    .into_iter()
                    .map(|fc| fc.and(Err(e.clone())))
                    .collect();
            }
        };
        let mut per_req = vals_host.into_iter();
        computed
            .into_iter()
            .zip(preps.iter())
            .map(|(fc, p)| {
                let fc = fc?;
                let vals = per_req.next().expect("one transfer per survivor");
                plan.finish_resolve(device, p.gpu()?, &fc.hits, vals)
            })
            .collect()
    }
}

/// The `k` largest coefficients of `spectrum` by magnitude, in
/// frequency order. Ties break low-frequency-first so the selection is
/// total-ordered and deterministic.
fn top_k(spectrum: &[Cplx], k: usize) -> Recovered {
    let mut order: Vec<usize> = (0..spectrum.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        spectrum[b]
            .abs()
            .total_cmp(&spectrum[a].abs())
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order.sort_unstable();
    order.into_iter().map(|f| (f, spectrum[f])).collect()
}

// ---------------------------------------------------------------------
// Device provisioning + direct execution
// ---------------------------------------------------------------------

/// The serving layer's home device: plan-lifetime state only (filter
/// uploads), never executed on, never faulted.
pub fn home_device(spec: &DeviceSpec) -> Arc<GpuDevice> {
    Arc::new(GpuDevice::with_fault_plan(spec.clone(), None))
}

/// A fresh private device for one worker or group execution, with the
/// engine's fault plan (if any) pre-installed.
pub fn worker_device(spec: &DeviceSpec, faults: Option<&FaultConfig>) -> GpuDevice {
    GpuDevice::with_fault_plan(spec.clone(), faults.cloned())
}

/// Executes `plan` once on a fresh fault-free device — the
/// single-request reference path the conformance suite compares served
/// spectra against. Bit-identical to serving the same request on a
/// clean engine: recovery depends only on `(params, time, seed)`, not
/// on stream ids or batch mates.
pub fn execute_direct(
    plan: &ExecutePlan,
    spec: &DeviceSpec,
    time: &[Cplx],
    seed: u64,
) -> Result<Recovered, CusFftError> {
    let device = worker_device(spec, None);
    let streams = ExecStreams::on_device(&device, plan.num_streams());
    let mut prep = plan.prepare(&device, time, seed, &streams)?;
    plan.run_batched_ffts(&device, &mut [&mut prep], streams.main)?;
    let (recovered, _) = plan.finish(&device, &prep, &streams)?;
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::{MagnitudeModel, SparseSignal};

    #[test]
    fn kinds_round_trip_through_codes_and_labels() {
        for kind in BackendKind::all() {
            assert_eq!(cusfft_telemetry::backend_label(kind.code()), kind.label());
        }
        assert_eq!(BackendKind::default(), BackendKind::GpuSim);
    }

    #[test]
    fn default_registry_holds_all_three() {
        let home = home_device(&gpu_sim::DeviceSpec::tesla_k20x());
        for kind in BackendKind::all() {
            assert_eq!(kind.caps().kind, kind, "caps name their backend");
            let key = PlanKey {
                n: 1 << 10,
                k: 4,
                variant: Variant::Optimized,
                qos: ServeQos::Full,
                backend: kind,
            };
            assert_eq!(ExecutePlan::build(&home, key, None).backend(), kind);
        }
    }

    #[test]
    fn dense_oracle_recovers_exact_support() {
        let n = 1 << 10;
        let k = 4;
        let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 7);
        let spec = gpu_sim::DeviceSpec::tesla_k20x();
        let home = home_device(&spec);
        let key = PlanKey {
            n,
            k,
            variant: Variant::Optimized,
            qos: ServeQos::Full,
            backend: BackendKind::DenseFft,
        };
        let plan = ExecutePlan::build(&home, key, None);
        let rec = execute_direct(&plan, &spec, &s.time, 3).unwrap();
        let support: Vec<usize> = rec.iter().map(|&(f, _)| f).collect();
        let mut want: Vec<usize> = s.coords.iter().map(|&(f, _)| f).collect();
        want.sort_unstable();
        assert_eq!(support, want);
        for (f, v) in &s.coords {
            let (_, got) = rec.iter().find(|(rf, _)| rf == f).unwrap();
            assert!(v.dist(*got) < 1e-9, "f={f}: {v:?} vs {got:?}");
        }
    }

    #[test]
    fn cost_estimates_are_positive_and_scale() {
        let spec = gpu_sim::DeviceSpec::tesla_k20x();
        let model = GpuDevice::new(spec.clone());
        let small = SfftParams::tuned(1 << 10, 4);
        let large = SfftParams::tuned(1 << 14, 16);
        for kind in BackendKind::all() {
            let a = kind.estimate_cost(&model, &spec, &small);
            let b = kind.estimate_cost(&model, &spec, &large);
            assert!(a > 0.0 && b > a, "{kind:?}: {a} vs {b}");
        }
    }
}

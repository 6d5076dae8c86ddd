//! The four workloads: their inputs, their set-up, and one call each.
//!
//! Inputs (signals, their planted spectra and every permutation seed)
//! are functions of the workload seed alone and are generated before any
//! timing starts. Each call measures the public entry point it drives on
//! both clocks and reads the counters the returned reports carry.

use std::sync::Arc;

use cusfft::backend::ORACLE_BOUND_SFFT;
use cusfft::{
    observe, BackendKind, CacheStats, CusFft, DeviceFleet, FaultTally, FleetConfig, FleetTally,
    HostPhaseWalls, OverloadConfig, OverloadTally, PoolTally, RequestOutcome, ServeConfig,
    ServeEngine, ServeQos, ServeReport, ServeRequest, StepBreakdown, TimedRequest, Variant,
};
use cusfft_telemetry::SpanKind;
use fft::cplx::Cplx;
use gpu_sim::{BreakerConfig, DeviceSpec, FaultConfig, GpuDevice};
use sfft_cpu::SfftParams;
use signal::{l1_error_per_coeff, support_recall, MagnitudeModel, SparseSignal};

use crate::host::{mix, timed};
use crate::spans::Recorder;

/// Serve-layer worker threads, the same on every workload.
pub const WORKERS: usize = 1;
/// Plan-cache capacity, the serving layer's default.
const CACHE_CAPACITY: usize = 8;
/// A `Done` answer is right when it locates the whole planted support
/// and its L1 error per coefficient, spurious coefficients included, is
/// within this bound (the bound the cross-backend differential tests
/// use).
const L1_BOUND: f64 = 1e-6;
/// Every this many calls, one answer is also checked against a dense FFT.
const ORACLE_EVERY: usize = 8;
/// Distinct signals generated per geometry; calls rotate through them.
const SIGNALS_PER_GEOMETRY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One request per call through `CusFft::execute_profiled`.
    Direct,
    /// 16 fault-free requests over 4 geometries per `serve_batch`.
    Steady,
    /// 32 timed requests at twice nominal capacity per `serve_overload`.
    Overload,
    /// 24 requests over 12 geometries per `DeviceFleet::serve`.
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Direct, Kind::Steady, Kind::Overload, Kind::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Direct => "pipeline-direct",
            Kind::Steady => "serve-steady",
            Kind::Overload => "serve-overload",
            Kind::Fleet => "fleet-failover",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The `(log2 n, k)` geometries the workload's requests cycle over.
    fn geometries(self) -> Vec<(u32, usize)> {
        match self {
            Kind::Direct => vec![(16, 32)],
            Kind::Steady | Kind::Overload => vec![(12, 8), (13, 16), (14, 8), (14, 16)],
            Kind::Fleet => [12u32, 13, 14]
                .iter()
                .flat_map(|&l| [4usize, 8, 12, 16].map(|k| (l, k)))
                .collect(),
        }
    }

    pub fn requests_per_call(self) -> usize {
        match self {
            Kind::Direct => 1,
            Kind::Steady => 16,
            Kind::Overload => 32,
            Kind::Fleet => 24,
        }
    }

    /// The public call the workload drives, as its span is named.
    pub fn api(self) -> &'static str {
        match self {
            Kind::Direct => "CusFft::execute_profiled",
            Kind::Steady => "ServeEngine::serve_batch",
            Kind::Overload => "ServeEngine::serve_overload",
            Kind::Fleet => "DeviceFleet::serve",
        }
    }
}

/// One generated signal with its planted spectrum.
pub struct Input {
    pub n: usize,
    /// The sparsity the request declares.
    pub k: usize,
    /// Tuned parameters for `(n, k)`, for the native CPU floor.
    pub params: Arc<SfftParams>,
    pub time: Vec<Cplx>,
    /// The planted spectrum; it has `4 k` entries for an under-declared
    /// request.
    pub truth: Vec<(usize, Cplx)>,
}

/// Every input of one run, generated from the workload seed.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub pool: Vec<Input>,
    /// Pool index of the first under-declared signal (overload): the
    /// under-declared signals follow the regular ones, `per` per geometry.
    under: usize,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Self {
        let geos = kind.geometries();
        let per = SIGNALS_PER_GEOMETRY;
        let params: Vec<Arc<SfftParams>> = geos
            .iter()
            .map(|&(l, k)| Arc::new(SfftParams::tuned(1 << l, k)))
            .collect();
        // Regular signals first; the overload workload then adds signals
        // that carry 4 k coefficients while their requests declare k.
        let under = geos.len() * per;
        let sets: &[(usize, u64)] = if kind == Kind::Overload {
            &[(1, 0), (4, 0xdec1_a4ed)]
        } else {
            &[(1, 0)]
        };
        let mut pool = Vec::new();
        for &(factor, salt) in sets {
            for (g, &(l, k)) in geos.iter().enumerate() {
                for s in 0..per {
                    let sig_seed = mix(seed ^ salt ^ (((g * per + s) as u64) << 8));
                    let sig =
                        SparseSignal::generate(1 << l, factor * k, MagnitudeModel::Unit, sig_seed);
                    pool.push(Input {
                        n: 1 << l,
                        k,
                        params: Arc::clone(&params[g]),
                        time: sig.time,
                        truth: sig.coords,
                    });
                }
            }
        }
        Inputs {
            kind,
            seed,
            pool,
            under,
        }
    }

    /// `(pool index, permutation seed)` of every request of call `i`.
    /// The permutation seed is fresh for every request of every call.
    pub fn requests(&self, i: usize) -> Vec<(usize, u64)> {
        let kind = self.kind;
        let ngeo = kind.geometries().len();
        let per = SIGNALS_PER_GEOMETRY;
        (0..kind.requests_per_call())
            .map(|j| {
                let pseed = mix(self.seed.rotate_left(17) ^ ((i as u64) << 20) ^ j as u64);
                let slot = (i + j / ngeo) % per;
                let idx = match kind {
                    // One in eight overload requests under-declares its
                    // sparsity; the rotation spreads them over geometries.
                    Kind::Overload => {
                        let g = (j + j / 8) % ngeo;
                        let base = if j % 8 == 7 { self.under } else { 0 };
                        base + g * per + slot
                    }
                    _ => (j % ngeo) * per + slot,
                };
                (idx, pseed)
            })
            .collect()
    }

    fn serve_requests(&self, reqs: &[(usize, u64)]) -> Vec<ServeRequest> {
        reqs.iter()
            .map(|&(idx, pseed)| {
                let inp = &self.pool[idx];
                ServeRequest::new(inp.time.clone(), inp.k, Variant::Optimized, pseed)
            })
            .collect()
    }
}

/// Counters and modeled values of one call. Everything here is a
/// function of the inputs alone, so two runs on one seed must agree on
/// it exactly; its `Debug` text is the call's determinism fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub requests: u64,
    pub done: u64,
    /// `Failed`, `Shed` and `DeadlineExceeded` outcomes.
    pub failed: u64,
    /// `Done` answers that are not [`right`].
    pub wrong: u64,
    /// `Done` answers outside the documented contract ([`within_contract`]).
    pub off_contract: u64,
    /// Modeled device seconds: `sim_time` (direct) or the makespan.
    pub modeled_s: f64,
    /// Modeled per-request latencies in seconds, where the call exposes
    /// them one by one (direct, serve-steady).
    pub latencies: Vec<f64>,
    /// Modeled `(p50, p99)` latency the serving layer reports for the
    /// call (overload, fleet).
    pub latency_summary: Option<(f64, f64)>,
    /// Plan-cache counters after the call (cumulative per engine).
    pub cache: CacheStats,
    pub launches: u64,
    pub transactions: f64,
    pub dram_bytes: f64,
    /// Modeled seconds per pipeline step.
    pub steps: StepBreakdown,
    pub max_streams: u64,
    pub avg_streams: f64,
    pub pool: PoolTally,
    pub groups: u64,
    pub faults: FaultTally,
    pub overload: OverloadTally,
    pub fleet: FleetTally,
    pub audit_events: u64,
    pub metrics_bytes: u64,
}

/// What one call measured.
pub struct Call {
    /// Host wall seconds inside the public call(s) the workload drives.
    pub wall: f64,
    /// Process CPU seconds over the same interval.
    pub cpu: f64,
    /// Serial `sfft_cpu::sfft` wall seconds on the same inputs and seeds.
    pub native: f64,
    /// Host phase walls of the direct pipeline.
    pub phases: Option<HostPhaseWalls>,
    /// Wall seconds spent rendering the Prometheus exposition (overload).
    pub metrics_s: f64,
    pub layers: Layers,
    /// First failed output check, if any.
    pub check_error: Option<String>,
    /// The call's root span, when traced.
    pub span: Option<usize>,
    /// Per request: answered at full QoS by the simulated GPU, so a
    /// direct `execute_profiled` replay does the same work.
    pub replayable: Vec<bool>,
}

/// The system under test, as built by set-up.
pub enum System {
    Direct(CusFft),
    Steady(ServeEngine),
    Overload(ServeEngine),
    Fleet(DeviceFleet),
}

/// Seed of the overload fault plan. Which operations fault depends on
/// this seed alone, never on request data, so it is fixed: a seed drawn
/// per run would make each run a different recovery scenario, and the
/// spread between runs would measure fault luck instead of the code.
/// Under this seed every call sees injected faults, evictions, retries,
/// CPU fallbacks, breaker trips and hedges.
const OVERLOAD_FAULT_SEED: u64 = 11;

/// A plan as the serving layer builds one on a cache miss: tuned
/// parameters (filter design included) plus `CusFft::new`.
pub fn direct_plan(n: usize, k: usize) -> CusFft {
    CusFft::new(
        Arc::new(GpuDevice::k20x()),
        Arc::new(SfftParams::tuned(n, k)),
        Variant::Optimized,
    )
}

/// Fault-free serving with the workload's worker count and the default
/// plan-cache capacity.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    }
}

/// Tight enough that shedding, brownout, hedging and the breaker all
/// act within every 32-request call at twice nominal capacity.
pub fn overload_policy() -> OverloadConfig {
    OverloadConfig {
        queue_capacity: 5,
        brownout_depth: 2,
        breaker: BreakerConfig {
            window: 2,
            trip_faults: 1,
            cooldown: 1,
        },
        epoch_groups: 2,
        hedge_percentile: 0.5,
        hedge_factor: 1.0,
    }
}

/// Mean nominal service time of the overload geometry mix on a K20x.
pub fn overload_nominal() -> f64 {
    let spec = DeviceSpec::tesla_k20x();
    let geos = Kind::Overload.geometries();
    geos.iter()
        .map(|&(l, k)| cusfft::nominal_service(&spec, 1 << l, k))
        .sum::<f64>()
        / geos.len() as f64
}

/// Deadline of every overload request, in nominal service times.
pub const DEADLINE_NOMINALS: f64 = 5.0;

/// Builds the open-loop trace for `reqs`: arrival `j` is due at
/// `j / rate` modeled seconds, each with the workload deadline.
pub fn overload_trace(inputs: &Inputs, reqs: &[(usize, u64)], rate: f64) -> Vec<TimedRequest> {
    let deadline = DEADLINE_NOMINALS * overload_nominal();
    inputs
        .serve_requests(reqs)
        .into_iter()
        .enumerate()
        .map(|(j, r)| TimedRequest::at(r, j as f64 / rate).with_deadline(deadline))
        .collect()
}

impl System {
    /// Builds the system for `kind` (plan or engine construction).
    pub fn build(kind: Kind) -> System {
        match kind {
            Kind::Direct => {
                let (l, k) = kind.geometries()[0];
                System::Direct(direct_plan(1 << l, k))
            }
            Kind::Steady => System::Steady(
                ServeEngine::new(DeviceSpec::tesla_k20x(), serve_config())
                    .expect("serve config is valid"),
            ),
            // The uniform fault plan, with the flight recorder on.
            Kind::Overload => System::Overload(
                ServeEngine::new(
                    DeviceSpec::tesla_k20x(),
                    ServeConfig {
                        faults: Some(FaultConfig::uniform(OVERLOAD_FAULT_SEED, 0.002)),
                        audit: true,
                        ..serve_config()
                    },
                )
                .expect("serve config is valid"),
            ),
            Kind::Fleet => {
                let mut cfg = FleetConfig::heterogeneous();
                // The K20x member is lost in every call; its groups fail
                // over to the K40 and K2000 standby slabs.
                cfg.members[0].faults = Some(FaultConfig::uniform(0, 0.0).with_device_loss(1.0));
                System::Fleet(DeviceFleet::new(cfg, serve_config()).expect("fleet config is valid"))
            }
        }
    }

    /// Runs call `i`. With a recorder, spans are recorded around every
    /// public call under a root span for the call.
    pub fn call(&self, inputs: &Inputs, i: usize, mut rec: Option<&mut Recorder>) -> Call {
        let kind = inputs.kind;
        let reqs = inputs.requests(i);
        let rid = |j: usize| (i * kind.requests_per_call() + j) as u64;
        let root = rec.as_deref_mut().map(|r| r.open("call", None, None));
        let mut layers = Layers {
            requests: reqs.len() as u64,
            ..Layers::default()
        };
        let mut phases = None;
        let mut metrics_s = 0.0;
        let mut answers: Vec<Option<&[(usize, Cplx)]>> = Vec::new();
        let owned: Vec<Vec<(usize, Cplx)>>;

        let api = rec
            .as_deref_mut()
            .map(|r| r.open(kind.api(), root, (kind == Kind::Direct).then(|| rid(0))));
        let (report, wall, cpu): (Option<ServeReport>, f64, f64) = match self {
            System::Direct(plan) => {
                let (idx, pseed) = reqs[0];
                let ((out, walls), wall, cpu) =
                    timed(|| plan.execute_profiled(&inputs.pool[idx].time, pseed));
                phases = Some(walls);
                let records = plan.device().records();
                layers.modeled_s = out.sim_time;
                layers.latencies = vec![out.sim_time];
                layers.launches = records.len() as u64;
                layers.transactions = records.iter().map(|r| r.stats.transactions).sum();
                layers.dram_bytes = records.iter().map(|r| r.stats.dram_bytes).sum();
                layers.steps = out.steps;
                layers.done = 1;
                owned = vec![out.recovered];
                answers.push(Some(&owned[0]));
                (None, wall, cpu)
            }
            System::Steady(engine) => {
                let batch = inputs.serve_requests(&reqs);
                let (report, wall, cpu) = timed(|| engine.serve_batch(&batch));
                (Some(report), wall, cpu)
            }
            System::Overload(engine) => {
                let trace = overload_trace(inputs, &reqs, 2.0 / overload_nominal());
                let policy = overload_policy();
                let (report, wall, cpu) = timed(|| engine.serve_overload(&trace, &policy));
                // A scraping operator renders every call's metrics; the
                // render is part of the call's cost.
                let (text, mwall, mcpu) =
                    timed(|| observe::metrics_registry(&report).render_prometheus());
                metrics_s = mwall;
                layers.metrics_bytes = text.len() as u64;
                (Some(report), wall + mwall, cpu + mcpu)
            }
            System::Fleet(fleet) => {
                let batch = inputs.serve_requests(&reqs);
                let (report, wall, cpu) = timed(|| fleet.serve(&batch));
                (Some(report), wall, cpu)
            }
        };
        if let (Some(r), Some(a)) = (rec.as_deref_mut(), api) {
            r.close(a);
            if let Some(w) = &phases {
                add_phases(r, a, w);
            }
        }
        let mut replayable = vec![true; reqs.len()];
        if let Some(report) = &report {
            read_report(kind, report, &mut layers);
            replayable = report
                .outcomes
                .iter()
                .map(|o| {
                    o.response().is_some_and(|r| {
                        r.qos == ServeQos::Full && r.backend == BackendKind::GpuSim
                    })
                })
                .collect();
            answers = report
                .outcomes
                .iter()
                .map(|o| o.response().map(|r| r.recovered.as_slice()))
                .collect();
        }

        // Native floor: the serial CPU sFFT on the same inputs and seeds.
        let mut native = 0.0;
        for (j, &(idx, pseed)) in reqs.iter().enumerate() {
            let inp = &inputs.pool[idx];
            let span = rec
                .as_deref_mut()
                .map(|r| r.open("sfft_cpu::sfft", root, Some(rid(j))));
            let (out, wall, _) = timed(|| sfft_cpu::sfft(&inp.params, &inp.time, pseed));
            std::hint::black_box(out);
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                r.close(s);
            }
            native += wall;
        }

        // Output checks: one outcome per request, every Done scored
        // against the planted spectrum, one sampled dense-FFT oracle.
        let span = rec.as_deref_mut().map(|r| r.open("check", root, None));
        let mut check_error = None;
        if answers.len() != reqs.len() {
            check_error = Some(format!(
                "call {i}: {} outcomes for {} requests",
                answers.len(),
                reqs.len()
            ));
        }
        // Wrong answers are counted, not fatal: the program returns a few
        // on every workload (see the README), and the run measures them.
        let mut oracle_pending = i.is_multiple_of(ORACLE_EVERY);
        for (j, (ans, &(idx, _))) in answers.iter().zip(&reqs).enumerate() {
            let Some(answer) = ans else { continue };
            let inp = &inputs.pool[idx];
            if !right(&inp.truth, answer) {
                layers.wrong += 1;
            }
            if !within_contract(&inp.truth, answer) {
                layers.off_contract += 1;
            }
            if oracle_pending {
                oracle_pending = false;
                if !planted_matches_dense(inp) {
                    check_error.get_or_insert(format!(
                        "call {i} request {j}: dense FFT disagrees with the planted spectrum"
                    ));
                }
            }
        }
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
            r.close(s);
        }
        if let (Some(r), Some(s)) = (rec, root) {
            r.close(s);
        }
        Call {
            span: root,
            replayable,
            wall,
            cpu,
            native,
            phases,
            metrics_s,
            layers,
            check_error,
        }
    }
}

/// Lays the program's own phase timers out as children of `parent`,
/// back to back from its start.
pub fn add_phases(r: &mut Recorder, parent: usize, w: &HostPhaseWalls) {
    let t = r.start_of(parent);
    let t = r.add("pipeline.prepare", parent, t, w.prepare);
    let t = r.add("pipeline.batched_fft", parent, t, w.batched_fft);
    r.add("pipeline.finish", parent, t, w.finish);
}

/// The scoring behind `right_ratio`: full support recall and an L1
/// error per coefficient within [`L1_BOUND`], over the union of the true
/// and recovered supports.
fn right(truth: &[(usize, Cplx)], answer: &[(usize, Cplx)]) -> bool {
    support_recall(truth, answer) == 1.0 && l1_error_per_coeff(truth, answer) <= L1_BOUND
}

/// The serving layer's documented accuracy contract for the sFFT
/// backends: every true coefficient is located, and the error per true
/// coefficient is within `ORACLE_BOUND_SFFT`. Spurious extra
/// coefficients are not covered by it; [`right`] counts them.
fn within_contract(truth: &[(usize, Cplx)], answer: &[(usize, Cplx)]) -> bool {
    let mut err = 0.0;
    for &(f, v) in truth {
        match answer.iter().find(|&&(g, _)| g == f) {
            Some(&(_, w)) => err += w.dist(v),
            None => return false,
        }
    }
    err / truth.len().max(1) as f64 <= ORACLE_BOUND_SFFT
}

/// Whether the planted spectrum, which every answer is scored against,
/// equals the large coefficients of a dense FFT of the signal.
fn planted_matches_dense(inp: &Input) -> bool {
    let large: Vec<(usize, Cplx)> = fft::fft(&inp.time)
        .into_iter()
        .enumerate()
        .filter(|(_, c)| c.abs() > 0.5)
        .collect();
    large.len() == inp.truth.len()
        && large
            .iter()
            .zip(&inp.truth)
            .all(|(a, b)| a.0 == b.0 && a.1.dist(b.1) <= 1e-9)
}

/// Reads the counters a serve report carries into `layers`.
fn read_report(kind: Kind, report: &ServeReport, layers: &mut Layers) {
    for o in &report.outcomes {
        match o {
            RequestOutcome::Done(_) => layers.done += 1,
            _ => layers.failed += 1,
        }
    }
    layers.modeled_s = report.makespan;
    match kind {
        Kind::Steady => {
            // No arrival times on the batch path: every request is due at
            // the call's start and completes with its group.
            let tree = observe::span_tree(report);
            layers.latencies = tree
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Request)
                .map(|s| s.end)
                .collect();
        }
        _ => layers.latency_summary = Some((report.latency.p50, report.latency.p99)),
    }
    layers.cache = report.cache;
    for k in &report.kernels {
        layers.launches += k.launches;
        layers.transactions += k.transactions;
        layers.dram_bytes += k.dram_bytes;
        if let Some(step) = step_of(&mut layers.steps, &k.name) {
            *step += k.time;
        }
    }
    layers.max_streams = report.concurrency.max_concurrent_streams as u64;
    layers.avg_streams = report.concurrency.avg_concurrent_streams;
    layers.pool = report.pool;
    layers.groups = report.groups as u64;
    layers.faults = report.faults;
    layers.overload = report.overload;
    layers.fleet = report.fleet;
    layers.audit_events = report
        .audit
        .as_ref()
        .map_or(0, |a| a.log.events.len() as u64);
}

/// The step a rolled-up kernel belongs to, by the name prefixes
/// `StepBreakdown::from_records` uses; `None` for unclassified kernels.
fn step_of<'a>(s: &'a mut StepBreakdown, name: &str) -> Option<&'a mut f64> {
    let any = |p: &[&str]| p.iter().any(|p| name.starts_with(p));
    if any(&["htod", "dtoh"]) {
        Some(&mut s.transfer)
    } else if any(&["perm_filter", "remap", "exec", "bucket_reduce"]) {
        Some(&mut s.perm_filter)
    } else if any(&["cufft_batched"]) {
        Some(&mut s.subsampled_fft)
    } else if any(&["magnitude", "cutoff", "noise_floor"]) {
        Some(&mut s.cutoff)
    } else if any(&["locate"]) {
        Some(&mut s.locate)
    } else if any(&["reconstruct"]) {
        Some(&mut s.estimate)
    } else if any(&[
        "fault:",
        "breaker:",
        "shed:",
        "retry_backoff",
        "cpu_fallback",
        "hedge",
    ]) {
        Some(&mut s.recovery)
    } else {
        None
    }
}

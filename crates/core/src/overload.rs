//! `cusfft::overload` — overload robustness for the serving layer.
//!
//! [`ServeEngine::serve_overload`] serves an *open-loop arrival trace*
//! (requests stamped with arrival times and optional deadlines) instead
//! of a closed batch, adding five mechanisms on top of the fault
//! recovery in [`crate::serve`]:
//!
//! 1. **Admission control** — a bounded virtual queue. A request whose
//!    predicted queue depth at arrival reaches
//!    [`OverloadConfig::queue_capacity`] is shed (newest-rejected,
//!    [`RequestOutcome::Shed`]) before it costs any device time.
//! 2. **Deadlines** — each admitted request's completion is predicted
//!    against the deterministic service-time model of its backend
//!    ([`crate::backend::Backend::estimate_cost`]); a request that
//!    cannot meet its deadline even now is rejected as
//!    [`RequestOutcome::DeadlineExceeded`] rather than served late.
//! 3. **Graceful brownout** — under queue pressure
//!    ([`OverloadConfig::brownout_depth`]) requests are re-planned onto
//!    [`ServeQos::Degraded`] — a reduced-loop sFFT plan that trades
//!    recovery margin for latency — and report the tier they were
//!    served at ([`ServeResponse::qos`]).
//! 4. **Circuit breaking** — a per-device
//!    [`gpu_sim::CircuitBreaker`] watches fault tallies over a sliding
//!    window of group indices; once tripped, groups are short-circuited
//!    straight to the CPU path instead of burning device time on
//!    retries that will only degrade anyway, with HalfOpen probes
//!    testing recovery.
//! 5. **Straggler hedging** — a group whose simulated duration exceeds
//!    a percentile-based budget is re-executed as a hedged duplicate
//!    under independent fault scopes; the first finisher (by simulated
//!    time, ties to the primary) wins, and both runs stay on the merged
//!    timeline — hedges cost device time and the accounting shows it.
//!
//! ## Determinism
//!
//! Everything above is a pure function of `(trace, config, policy)`:
//!
//! * Admission decisions replay a *virtual* single-server queue fed by
//!   arrival order and the analytic service model — no wall clocks.
//! * Each group executes on a **fresh private device**, so its op
//!   recording, fault decisions (scoped by global group index — see
//!   [`crate::serve::scope_group`]) and simulated duration depend only
//!   on the group itself, never on which worker ran it or what ran
//!   before it on the same device.
//! * The breaker is driven on the coordinator thread in global group
//!   order (admit all, execute the epoch in parallel, observe all), so
//!   its transition log is invariant under the worker count.
//! * The hedging budget is a percentile of the deterministic per-group
//!   durations; the "first finisher" race is decided by comparing those
//!   durations, not by thread timing.
//! * The merged timeline interleaves recordings in a fixed order
//!   (control ops, groups by gid, hedge losers by gid) via
//!   [`gpu_sim::merge_op_groups`].

use gpu_sim::{BreakerConfig, BreakerDecision, CircuitBreaker, DeviceSpec, DEFAULT_STREAM};
use sfft_cpu::SfftParams;

use cusfft_telemetry::fmt_f64;

use crate::audit::{AuditLog, GroupAuditEvent};
use crate::backend::{worker_device, Backend, GpuSimBackend};
use crate::error::CusFftError;
use crate::exec::{
    answer_on_cpu, execute, reject, unregistered, Clock, DeviceScope, Group, GroupRun, Placed,
    Served,
};
use crate::plan_cache::{PlanKey, ServeQos};
use crate::serve::{
    validate_request, FaultTally, PathLatency, RequestOutcome, ServeEngine, ServePath, ServeReport,
    ServeRequest,
};

/// One request in an open-loop arrival trace.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// The request itself.
    pub request: ServeRequest,
    /// Simulated arrival time (seconds). Traces must be sorted by
    /// arrival — admission replays them in order, and rejects an entry
    /// that arrives before its predecessor as a bad request.
    pub arrival: f64,
    /// Optional completion deadline, in seconds *after arrival*.
    pub deadline: Option<f64>,
}

impl TimedRequest {
    /// A request arriving at `arrival` with no deadline.
    pub fn at(request: ServeRequest, arrival: f64) -> Self {
        TimedRequest {
            request,
            arrival,
            deadline: None,
        }
    }

    /// Sets the deadline (seconds after arrival).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Overload-control policy for [`ServeEngine::serve_overload`].
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Maximum predicted queue depth before new arrivals are shed.
    pub queue_capacity: usize,
    /// Predicted queue depth at which admitted requests are re-planned
    /// onto [`ServeQos::Degraded`]. Set ≥ `queue_capacity` to disable
    /// brownout.
    pub brownout_depth: usize,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Groups per breaker epoch: the breaker decides an epoch's
    /// admissions up front, the epoch executes in parallel, then the
    /// observations feed back. Smaller epochs react faster; 1 is fully
    /// sequential.
    pub epoch_groups: usize,
    /// Percentile of per-group simulated durations that anchors the
    /// hedging budget (e.g. 0.9 = p90).
    pub hedge_percentile: f64,
    /// Budget multiplier: a group is hedged when its duration strictly
    /// exceeds `percentile × hedge_factor`. Set very large to disable
    /// hedging.
    pub hedge_factor: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 64,
            brownout_depth: 16,
            breaker: BreakerConfig::default(),
            epoch_groups: 4,
            hedge_percentile: 0.9,
            hedge_factor: 1.5,
        }
    }
}

/// Overload-control counters for one [`ServeEngine::serve_overload`]
/// call. Deterministic: a function of `(trace, config, policy)` alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadTally {
    /// Requests admitted past the queue and deadline checks.
    pub admitted: u64,
    /// Requests shed by the queue bound.
    pub shed: u64,
    /// Requests rejected because they could not meet their deadline.
    pub deadline_exceeded: u64,
    /// Admitted requests served at [`ServeQos::Degraded`].
    pub degraded: u64,
    /// Requests short-circuited past the device by an open breaker.
    pub breaker_short_circuits: u64,
    /// HalfOpen probe groups the breaker let through.
    pub breaker_probes: u64,
    /// Times the breaker tripped open (including failed probes).
    pub breaker_trips: u64,
    /// Straggler groups that got a hedged duplicate.
    pub hedges: u64,
    /// Hedged duplicates that beat their primary.
    pub hedge_wins: u64,
    /// Highest predicted queue depth the admission controller saw at
    /// any arrival (validated requests only, including ones then shed).
    pub peak_queue_depth: u64,
}

/// Simulated request-latency distribution over completed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed requests the stats cover.
    pub count: usize,
    /// Median latency (seconds).
    pub p50: f64,
    /// 99th-percentile latency (seconds).
    pub p99: f64,
    /// Worst latency (seconds).
    pub max: f64,
    /// Mean latency (seconds).
    pub mean: f64,
}

impl LatencyStats {
    /// Builds the distribution from raw latencies (empty → all zeros).
    pub fn from_latencies(mut lat: Vec<f64>) -> Self {
        if lat.is_empty() {
            return LatencyStats::default();
        }
        lat.sort_by(f64::total_cmp);
        let count = lat.len();
        let sum: f64 = lat.iter().sum();
        LatencyStats {
            count,
            p50: percentile(&lat, 0.5),
            p99: percentile(&lat, 0.99),
            max: lat[count - 1],
            mean: sum / count as f64,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let len = sorted.len();
    let idx = ((len as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, len) - 1]
}

/// The admission controller's service-time estimate for an `(n, k)`
/// full-QoS request served by the simulated GPU on `spec`'s model
/// device (see [`crate::backend::Backend::estimate_cost`]). Benchmarks
/// use this as the pacing unit when constructing offered-load traces,
/// so "load 2.0" means arrivals twice as fast as the admission model
/// believes the server drains.
pub fn nominal_service(spec: &DeviceSpec, n: usize, k: usize) -> f64 {
    let dev = worker_device(spec, None);
    GpuSimBackend::default().estimate_cost(&dev, spec, &SfftParams::tuned(n, k))
}

/// A request admitted past the queue and deadline checks.
struct Admitted {
    idx: usize,
    key: PlanKey,
    /// Predicted completion time on the virtual server.
    finish: f64,
}

/// Rejects a trace entry whose timing admission cannot replay: a
/// non-finite arrival or deadline, or an arrival earlier than the
/// previous well-timed entry's (`prev`).
fn check_timing(t: &TimedRequest, prev: Option<f64>) -> Result<(), CusFftError> {
    let bad = |reason: String| Err(CusFftError::BadRequest { reason });
    if !t.arrival.is_finite() {
        return bad(format!("arrival {} is not finite", t.arrival));
    }
    if let Some(d) = t.deadline.filter(|d| !d.is_finite()) {
        return bad(format!("deadline {d} is not finite"));
    }
    match prev {
        Some(p) if t.arrival < p => bad(format!(
            "arrival {} precedes the previous arrival {p}: traces must be sorted",
            t.arrival
        )),
        _ => Ok(()),
    }
}

impl ServeEngine {
    /// Serves an open-loop arrival trace under overload policy: bounded
    /// admission, deadlines, brownout QoS, a per-device circuit breaker
    /// and straggler hedging on top of [`ServeEngine::serve_batch`]'s
    /// fault recovery. The trace should be sorted by arrival time: an
    /// entry arriving before its predecessor, or with a non-finite
    /// arrival or deadline, fails as a [`CusFftError::BadRequest`]
    /// without being admitted (and without moving the admission clock).
    ///
    /// Returns outcomes in trace order; rejected requests come back as
    /// [`RequestOutcome::Shed`] / [`RequestOutcome::DeadlineExceeded`]
    /// without ever touching a device. The report is bit-identical for
    /// a fixed `(trace, config, policy)` regardless of worker count and
    /// host pool width.
    pub fn serve_overload(&self, trace: &[TimedRequest], policy: &OverloadConfig) -> ServeReport {
        let cfg = self.config;
        let mut overload = OverloadTally::default();
        // The flight recorder. Admission verdicts are recorded here in
        // arrival order (they root the decision forest); coordinator
        // decisions made during epoch execution are buffered per gid and
        // folded onto the phase-5 virtual clock, so event ids stay
        // invariant under worker count and epoch parallelism.
        let mut served = Served::new(trace.len(), cfg.audit.then(AuditLog::new));
        // Control-plane markers (sheds, breaker events) are recorded on
        // their own device so they merge into the timeline exactly once,
        // in decision order.
        let control = worker_device(&self.spec, None);
        // The estimator only reads the spec; one device prices all
        // requests.
        let model_dev = worker_device(&self.spec, None);
        let requests: Vec<ServeRequest> = trace.iter().map(|t| t.request.clone()).collect();
        // The terminal clock's arrivals: a mistimed entry takes the
        // previous well-timed arrival, so the clock stays finite and
        // monotone.
        let mut arrivals: Vec<f64> = Vec::with_capacity(trace.len());

        // ---- Phase 1: admission, in arrival order. --------------------
        // A virtual single-server queue: service times come from the
        // analytic model, so depth and completion predictions are
        // deterministic and need no execution feedback.
        let mut admitted: Vec<Admitted> = Vec::new();
        let mut server_free = 0.0f64;
        let mut prev: Option<f64> = None;
        for (idx, t) in trace.iter().enumerate() {
            let req = &t.request;
            if let Err(e) = check_timing(t, prev) {
                let ts = prev.unwrap_or(0.0);
                arrivals.push(ts);
                served.outcomes[idx] = Some(reject(&mut served.audit, ts, idx, e));
                continue;
            }
            prev = Some(t.arrival);
            arrivals.push(t.arrival);
            let checked = validate_request(req).and_then(|()| {
                self.registry
                    .get(req.backend)
                    .ok_or(unregistered(req.backend))
            });
            let backend = match checked {
                Ok(backend) => backend,
                Err(e) => {
                    served.outcomes[idx] = Some(reject(&mut served.audit, t.arrival, idx, e));
                    continue;
                }
            };
            let depth = admitted.iter().filter(|a| a.finish > t.arrival).count();
            overload.peak_queue_depth = overload.peak_queue_depth.max(depth as u64);
            if depth >= policy.queue_capacity {
                overload.shed += 1;
                control.charge_host_op("shed:queue", 0.0, DEFAULT_STREAM);
                if let Some(a) = served.audit.as_mut() {
                    a.record(
                        t.arrival,
                        Some(idx),
                        None,
                        "shed",
                        vec![
                            ("depth".into(), depth.to_string()),
                            ("capacity".into(), policy.queue_capacity.to_string()),
                        ],
                    );
                }
                served.outcomes[idx] = Some(RequestOutcome::Shed { queue_depth: depth });
                continue;
            }
            let qos = if depth >= policy.brownout_depth {
                ServeQos::Degraded
            } else {
                ServeQos::Full
            };
            let key = PlanKey {
                qos,
                ..req.plan_key()
            };
            let plan = self
                .cache
                .get_or_build(&self.home, &self.registry, key)
                .expect("registry membership was checked at admission");
            let est = backend.estimate_cost(&model_dev, &self.spec, plan.params());
            let finish = server_free.max(t.arrival) + est;
            if let Some(deadline) = t.deadline {
                let predicted = finish - t.arrival;
                if predicted > deadline {
                    overload.deadline_exceeded += 1;
                    control.charge_host_op("shed:deadline", 0.0, DEFAULT_STREAM);
                    if let Some(a) = served.audit.as_mut() {
                        a.record(
                            t.arrival,
                            Some(idx),
                            None,
                            "deadline_rejected",
                            vec![
                                ("predicted".into(), fmt_f64(predicted)),
                                ("deadline".into(), fmt_f64(deadline)),
                                ("est".into(), fmt_f64(est)),
                            ],
                        );
                    }
                    served.outcomes[idx] = Some(RequestOutcome::DeadlineExceeded {
                        predicted,
                        deadline,
                    });
                    continue;
                }
            }
            overload.admitted += 1;
            if let Some(a) = served.audit.as_mut() {
                a.record(
                    t.arrival,
                    Some(idx),
                    None,
                    "admitted",
                    vec![
                        ("depth".into(), depth.to_string()),
                        ("qos".into(), qos.label().into()),
                        ("est".into(), fmt_f64(est)),
                        ("finish".into(), fmt_f64(finish)),
                    ],
                );
                if qos == ServeQos::Degraded {
                    // Chains under the admission via the request link.
                    a.record(
                        t.arrival,
                        Some(idx),
                        None,
                        "brownout",
                        vec![
                            ("depth".into(), depth.to_string()),
                            ("threshold".into(), policy.brownout_depth.to_string()),
                        ],
                    );
                }
            }
            if qos == ServeQos::Degraded {
                overload.degraded += 1;
            }
            server_free = finish;
            admitted.push(Admitted { idx, key, finish });
        }

        // ---- Group admitted requests by plan key. ---------------------
        // First-appearance order, like the batch path; a group's arrival
        // is its latest member's (it cannot start before all members
        // exist).
        let mut groups = Group::by_key(admitted.iter().map(|a| (a.idx, a.key)), |key| {
            self.cache
                .get_or_build(&self.home, &self.registry, key)
                .expect("admitted keys resolve to registered backends")
        });
        let group_arrival: Vec<f64> = groups
            .iter()
            .map(|g| g.indices.iter().map(|&i| arrivals[i]).fold(0.0, f64::max))
            .collect();

        // ---- Phase 2: breaker-gated execution in epochs. --------------
        // Admit the epoch's groups in gid order, execute the admitted
        // ones in parallel, observe in gid order. The breaker only ever
        // runs on this thread.
        let mut breaker = CircuitBreaker::new(policy.breaker);
        let mut runs: Vec<Option<GroupRun>> = (0..groups.len()).map(|_| None).collect();
        // Coordinator decisions buffered per gid for the audit fold:
        // `pre` at the group's virtual start (admit-time breaker
        // decisions), `post` at its completion (observe-time transitions
        // and hedge outcomes).
        let mut pre: Vec<Vec<GroupAuditEvent>> = vec![Vec::new(); groups.len()];
        let mut post: Vec<Vec<GroupAuditEvent>> = vec![Vec::new(); groups.len()];
        let mut seen_tr = 0usize;
        // Pushes breaker transitions recorded since the last call onto
        // gid's buffer — called right after each admit/observe, so every
        // transition is attributed to the decision that caused it.
        fn note_transitions(
            buf: &mut Vec<GroupAuditEvent>,
            breaker: &CircuitBreaker,
            seen: &mut usize,
            enabled: bool,
        ) {
            let transitions = breaker.transitions();
            if enabled {
                for tr in &transitions[*seen..] {
                    buf.push(GroupAuditEvent {
                        request: None,
                        kind: "breaker_transition",
                        attrs: vec![
                            ("from".into(), tr.from.label().into()),
                            ("to".into(), tr.to.label().into()),
                        ],
                    });
                }
            }
            *seen = transitions.len();
        }
        let gids: Vec<usize> = (0..groups.len()).collect();
        for epoch in gids.chunks(policy.epoch_groups.max(1)) {
            let mut live: Vec<usize> = Vec::new();
            for &gid in epoch {
                let decision = breaker.admit(gid);
                note_transitions(&mut pre[gid], &breaker, &mut seen_tr, cfg.audit);
                match decision {
                    BreakerDecision::Admit => live.push(gid),
                    BreakerDecision::Probe => {
                        overload.breaker_probes += 1;
                        control.charge_host_op("breaker:probe", 0.0, DEFAULT_STREAM);
                        if cfg.audit {
                            pre[gid].push(GroupAuditEvent {
                                request: None,
                                kind: "breaker_probe",
                                attrs: Vec::new(),
                            });
                        }
                        live.push(gid);
                    }
                    BreakerDecision::ShortCircuit => {
                        control.charge_host_op("breaker:short_circuit", 0.0, DEFAULT_STREAM);
                        if cfg.audit {
                            pre[gid].push(GroupAuditEvent {
                                request: None,
                                kind: "short_circuit",
                                attrs: vec![(
                                    "fallback".into(),
                                    if cfg.cpu_fallback { "cpu" } else { "fail" }.into(),
                                )],
                            });
                        }
                        // Straight to the CPU path without touching any
                        // device, or failed typed when CPU fallback is off.
                        let group = &mut groups[gid];
                        group.short_circuit = true;
                        overload.breaker_short_circuits += group.indices.len() as u64;
                        let mut tally = FaultTally::default();
                        let failure = (!cfg.cpu_fallback).then_some(CusFftError::CircuitOpen);
                        let results = answer_on_cpu(group, &requests, &mut tally, failure);
                        runs[gid] = Some(GroupRun::off_device(gid, results, tally));
                    }
                }
            }
            let placed: Vec<Placed> = live
                .iter()
                .map(|&gid| Placed::on(&groups[gid], &self.spec, cfg.faults.as_ref()))
                .collect();
            let wave = execute(
                &placed,
                DeviceScope::Group,
                &requests,
                &cfg,
                "overload worker",
            );
            for run in wave {
                let gid = run.gid;
                breaker.observe(gid, run.faulted());
                note_transitions(&mut post[gid], &breaker, &mut seen_tr, cfg.audit);
                runs[gid] = Some(run);
            }
        }
        for tr in breaker.transitions() {
            control.charge_host_op(&format!("breaker:{}", tr.to.label()), 0.0, DEFAULT_STREAM);
        }
        overload.breaker_trips = breaker.trips();

        // ---- Phase 3: straggler hedging. ------------------------------
        // Budget = percentile of the deterministic per-group durations;
        // strict stragglers re-run as hedged duplicates under
        // independent fault scopes. The winner is the smaller duration
        // (a tie goes to the primary), so the race is itself
        // deterministic. Both runs stay on the timeline.
        let mut hedge_losers: Vec<GroupRun> = Vec::new();
        let on_device = |r: &&GroupRun| !groups[r.gid].short_circuit;
        let mut durations: Vec<f64> = runs
            .iter()
            .flatten()
            .filter(on_device)
            .map(|r| r.duration)
            .collect();
        if !durations.is_empty() {
            durations.sort_by(f64::total_cmp);
            let budget = percentile(&durations, policy.hedge_percentile) * policy.hedge_factor;
            let stragglers: Vec<Placed> = runs
                .iter()
                .flatten()
                .filter(|r| on_device(r) && r.duration > budget)
                .map(|r| Placed {
                    hedged: true,
                    ..Placed::on(&groups[r.gid], &self.spec, cfg.faults.as_ref())
                })
                .collect();
            let hedges = execute(
                &stragglers,
                DeviceScope::Group,
                &requests,
                &cfg,
                "overload worker",
            );
            drop(stragglers);
            for hedge in hedges {
                overload.hedges += 1;
                let gid = hedge.gid;
                groups[gid].hedged = true;
                let primary = runs[gid].take().expect("straggler has a primary run");
                let hedge_won = hedge.duration < primary.duration;
                if cfg.audit {
                    post[gid].push(GroupAuditEvent {
                        request: None,
                        kind: "hedge_fired",
                        attrs: vec![
                            ("primary".into(), fmt_f64(primary.duration)),
                            ("hedge".into(), fmt_f64(hedge.duration)),
                            ("budget".into(), fmt_f64(budget)),
                        ],
                    });
                    post[gid].push(GroupAuditEvent {
                        request: None,
                        kind: "hedge_resolved",
                        attrs: vec![(
                            "winner".into(),
                            if hedge_won { "hedge" } else { "primary" }.into(),
                        )],
                    });
                }
                let (mut winner, loser) = if hedge_won {
                    overload.hedge_wins += 1;
                    (hedge, primary)
                } else {
                    (primary, hedge)
                };
                // The loser's results are discarded but its injected
                // faults happened on the simulated device — keep the
                // count (and, below, its ops) honest.
                winner.tally.injected += loser.tally.injected;
                hedge_losers.push(loser);
                runs[gid] = Some(winner);
            }
        }

        // ---- Phase 4: completions on a virtual device serving groups in
        // gid order (short-circuited groups complete instantly). --------
        let mut completions: Vec<(usize, f64)> = Vec::with_capacity(groups.len());
        let mut clock = 0.0f64;
        for (gid, run) in runs.iter().enumerate() {
            let run = run.as_ref().expect("every group resolves to a run");
            let start = clock.max(group_arrival[gid]);
            let completion = start + run.duration;
            clock = completion;
            completions.push((gid, completion));
            if let Some(a) = served.audit.as_mut() {
                // The group's placement links to its first member's
                // admission; everything buffered for the gid folds onto
                // the virtual clock (decisions at start, execution
                // events at completion) in gid order — invariant under
                // worker count and epoch chunking.
                let group = &groups[gid];
                let parent = group.indices.first().and_then(|&i| a.admission_of(i));
                a.record_linked(
                    start,
                    None,
                    Some(gid),
                    "group_placed",
                    vec![
                        ("members".into(), group.indices.len().to_string()),
                        ("qos".into(), group.qos.label().into()),
                        ("arrival".into(), fmt_f64(group_arrival[gid])),
                        ("duration".into(), fmt_f64(run.duration)),
                    ],
                    parent,
                );
                a.fold_group(start, gid, &pre[gid]);
                for t in &run.tels {
                    a.fold_group(completion, gid, &t.audit);
                }
                a.fold_group(completion, gid, &post[gid]);
            }
        }

        // ---- Collect: control ops, winners by gid, hedge losers by gid.
        // Only winners count toward outcomes, tallies and telemetry. ----
        served.op_groups.push(control.ops());
        for run in runs.into_iter().flatten() {
            served.absorb(run);
        }
        served
            .op_groups
            .extend(hedge_losers.into_iter().map(|l| l.ops));
        served.clock = Some(Clock {
            completions,
            arrivals: arrivals.clone(),
        });
        let mut report = self.assemble(
            served,
            &requests,
            &groups,
            self.spec.max_concurrent_kernels,
            None,
        );
        report.overload = overload;
        report.breaker = breaker.transitions().to_vec();
        report.arrivals = arrivals;
        report
    }
}

/// Folds per-request `(path, qos, latency)` samples into deterministic
/// per-class summaries, scanning classes in a fixed order and keeping
/// only the non-empty ones.
pub(crate) fn path_latency_summary(samples: &[(ServePath, ServeQos, f64)]) -> Vec<PathLatency> {
    const CLASSES: [(ServePath, ServeQos); 6] = [
        (ServePath::Gpu, ServeQos::Full),
        (ServePath::Gpu, ServeQos::Degraded),
        (ServePath::GpuRetry, ServeQos::Full),
        (ServePath::GpuRetry, ServeQos::Degraded),
        (ServePath::Cpu, ServeQos::Full),
        (ServePath::Cpu, ServeQos::Degraded),
    ];
    let mut out = Vec::new();
    for (path, qos) in CLASSES {
        let mut hist = cusfft_telemetry::Histogram::default();
        for (p, q, lat) in samples {
            if *p == path && *q == qos {
                hist.observe(*lat);
            }
        }
        if hist.count > 0 {
            out.push(PathLatency {
                path,
                qos,
                count: hist.count,
                p50: hist.quantile(0.5),
                p95: hist.quantile(0.95),
                p99: hist.quantile(0.99),
                hist,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn latency_stats_from_latencies() {
        let s = LatencyStats::from_latencies(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(LatencyStats::from_latencies(vec![]), LatencyStats::default());
    }

    #[test]
    fn service_estimate_scales_with_geometry() {
        let spec = DeviceSpec::tesla_k20x();
        let dev = worker_device(&spec, None);
        let est = |p: &SfftParams| GpuSimBackend::default().estimate_cost(&dev, &spec, p);
        let small = est(&SfftParams::tuned(1 << 10, 4));
        let large = est(&SfftParams::tuned(1 << 14, 4));
        assert!(small > 0.0);
        assert!(large > small, "bigger n must price higher: {large} vs {small}");
        let full = SfftParams::tuned(1 << 12, 8);
        let degraded =
            SfftParams::with_tuning(1 << 12, 8, sfft_cpu::Tuning::default().degraded());
        assert!(
            est(&degraded) < est(&full),
            "degraded plans must price cheaper"
        );
    }
}

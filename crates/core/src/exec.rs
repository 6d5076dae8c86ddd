//! The execution core under every serving entry point.
//!
//! [`ServeEngine::serve_batch`], [`ServeEngine::serve_journaled`] /
//! [`ServeEngine::resume_from`], [`ServeEngine::serve_overload`] and
//! [`crate::fleet::DeviceFleet::serve`] differ only in policy: which
//! requests run, in which groups, on which device model, and when. The
//! work itself goes through four shared parts:
//!
//! 1. **Group former** ([`ServeEngine::form_groups`]) — validation, the
//!    plan-cache lookup and the flight recorder's batch root.
//! 2. **Sharded executor** ([`execute`]) — deals placed groups
//!    round-robin to [`ServeConfig::workers`] threads, runs each through
//!    [`run_group`], and answers the groups of a lost worker on the CPU
//!    ([`recover_lost`]).
//! 3. **CPU-answer builder** ([`cpu_answer`]) — the one place a CPU
//!    [`ServeResponse`] is built.
//! 4. **Report assembler** ([`ServeEngine::assemble`]) — merges and
//!    schedules the recordings, resolves outcomes, rolls up kernel and
//!    pool telemetry in gid order, and seals the audit log under one
//!    terminal-clock rule.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::{concurrency_profile, merge_op_groups, schedule, DeviceSpec, FaultConfig, Op};

use crate::audit::{finalize_audit, AuditLog, SloConfig};
use crate::backend::{worker_device, BackendKind, ExecutePlan};
use crate::error::CusFftError;
use crate::overload::{path_latency_summary, LatencyStats, OverloadTally};
use crate::pipeline::ExecStreams;
use crate::plan_cache::{PlanKey, ServeQos};
use crate::serve::{
    merge_rollups, rollup_kernels, run_group, validate_request, FaultTally, GroupInfo,
    GroupTelemetry, PoolTally, RequestOutcome, ServeConfig, ServeEngine, ServePath, ServeReport,
    ServeRequest, ServeResponse, ServeTimeline,
};

/// A geometry group: every request index served by one plan.
pub(crate) struct Group {
    /// Global group index — the fault-scope base, so fault decisions are
    /// invariant under how groups are dealt to workers.
    pub(crate) gid: usize,
    pub(crate) plan: Arc<ExecutePlan>,
    pub(crate) indices: Vec<usize>,
    /// Accuracy tier the group is served at (brownout re-keys pressured
    /// groups onto degraded plans).
    pub(crate) qos: ServeQos,
    /// The breaker or the fleet's CPU tier kept the group off every
    /// device.
    pub(crate) short_circuit: bool,
    /// A speculative hedge duplicate ran.
    pub(crate) hedged: bool,
    /// Fleet member the group executed on.
    pub(crate) device: Option<usize>,
    /// Every outcome was restored from a journal; the group never ran.
    pub(crate) recovered: bool,
}

impl Group {
    fn new(gid: usize, plan: Arc<ExecutePlan>, qos: ServeQos) -> Self {
        Group {
            gid,
            plan,
            indices: Vec::new(),
            qos,
            short_circuit: false,
            hedged: false,
            device: None,
            recovered: false,
        }
    }

    /// Groups `(request, key)` pairs by key in first-appearance order,
    /// resolving each new group's plan with `plan_of`.
    pub(crate) fn by_key(
        members: impl IntoIterator<Item = (usize, PlanKey)>,
        mut plan_of: impl FnMut(PlanKey) -> Arc<ExecutePlan>,
    ) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        let mut key_to_group: HashMap<PlanKey, usize> = HashMap::new();
        for (idx, key) in members {
            let g = *key_to_group.entry(key).or_insert_with(|| {
                groups.push(Group::new(groups.len(), plan_of(key), key.qos));
                groups.len() - 1
            });
            groups[g].indices.push(idx);
        }
        groups
    }
}

impl ServeEngine {
    /// The group former: validates each request, resolves its plan
    /// through the cache (one lookup per request — cache counters reflect
    /// request traffic) and groups request indices by plan key in
    /// first-appearance order. Requests that fail validation come back
    /// separately as typed errors instead of panicking. With auditing on,
    /// the flight recorder opens with the `batch_admitted` root carrying
    /// the request and group counts plus `root_attrs`.
    pub(crate) fn form_groups(
        &self,
        requests: &[ServeRequest],
        root_attrs: &[(&str, String)],
    ) -> (Vec<Group>, Vec<(usize, CusFftError)>, Option<AuditLog>) {
        let mut prefailed = Vec::new();
        let mut members = Vec::new();
        let mut plans: HashMap<PlanKey, Arc<ExecutePlan>> = HashMap::new();
        for (idx, req) in requests.iter().enumerate() {
            if let Err(e) = validate_request(req) {
                prefailed.push((idx, e));
                continue;
            }
            let key = req.plan_key();
            plans.entry(key).or_insert(self.plan(key));
            members.push((idx, key));
        }
        let groups = Group::by_key(members, |key| plans[&key].clone());
        let alog = self.config.audit.then(|| {
            let mut a = AuditLog::new();
            let mut attrs = vec![
                ("requests".to_string(), requests.len().to_string()),
                ("groups".to_string(), groups.len().to_string()),
            ];
            attrs.extend(root_attrs.iter().map(|(k, v)| (k.to_string(), v.clone())));
            a.record(0.0, None, None, "batch_admitted", attrs);
            a
        });
        (groups, prefailed, alog)
    }
}

/// Records an `invalid` verdict at `ts` and returns the request's typed
/// failure (it never reached execution).
pub(crate) fn reject(
    alog: &mut Option<AuditLog>,
    ts: f64,
    idx: usize,
    error: CusFftError,
) -> RequestOutcome {
    if let Some(a) = alog.as_mut() {
        a.record(
            ts,
            Some(idx),
            None,
            "invalid",
            vec![("reason".into(), error.to_string())],
        );
    }
    RequestOutcome::Failed {
        error,
        after_attempts: 0,
    }
}

/// The CPU answer to `req`: the reference sFFT under `group`'s plan
/// parameters and QoS tier. Straight to [`sfft_cpu::sfft`] — never the
/// plan cache, which worker threads must not touch (its counters are
/// part of the determinism contract).
pub(crate) fn cpu_answer(group: &Group, req: &ServeRequest) -> ServeResponse {
    let recovered = sfft_cpu::sfft(group.plan.params(), &req.time, req.seed);
    ServeResponse {
        num_hits: recovered.len(),
        recovered,
        path: ServePath::Cpu,
        qos: group.qos,
        backend: BackendKind::SfftCpu,
    }
}

/// Answers every member of `group` on the CPU (counted as CPU
/// fallbacks), or — given a `failure` — fails each one with it (counted
/// as failed), in member order.
pub(crate) fn answer_on_cpu(
    group: &Group,
    requests: &[ServeRequest],
    tally: &mut FaultTally,
    failure: Option<CusFftError>,
) -> Vec<(usize, RequestOutcome)> {
    group
        .indices
        .iter()
        .map(|&idx| {
            let outcome = match &failure {
                None => {
                    tally.cpu_fallbacks += 1;
                    RequestOutcome::Done(cpu_answer(group, &requests[idx]))
                }
                Some(error) => {
                    tally.failed += 1;
                    RequestOutcome::Failed {
                        error: error.clone(),
                        after_attempts: 0,
                    }
                }
            };
            (idx, outcome)
        })
        .collect()
}

/// A group placed on a device model: the spec, fault plan and
/// fault-domain salt it executes under (see
/// [`gpu_sim::GpuDevice::set_fault_scope_salt`]), and whether it runs as
/// a hedged duplicate under independent fault scopes.
pub(crate) struct Placed<'a> {
    pub(crate) group: &'a Group,
    pub(crate) spec: &'a DeviceSpec,
    pub(crate) faults: Option<&'a FaultConfig>,
    pub(crate) salt: u64,
    pub(crate) hedged: bool,
}

impl<'a> Placed<'a> {
    /// `group` on `spec` under `faults`, unsalted and unhedged.
    pub(crate) fn on(
        group: &'a Group,
        spec: &'a DeviceSpec,
        faults: Option<&'a FaultConfig>,
    ) -> Self {
        Placed {
            group,
            spec,
            faults,
            salt: 0,
            hedged: false,
        }
    }
}

/// Which device a placed group executes on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeviceScope {
    /// One private device per worker shard, whose groups run in turn on
    /// one stream family of `aux` auxiliary streams — so consecutive
    /// groups on a worker serialise on the modeled timeline. Batch and
    /// journal runs.
    Shard { aux: usize },
    /// A fresh device per group, so each group's recording, tally and
    /// duration are functions of the group alone. Overload and fleet runs,
    /// whose hedging and per-member lanes need a duration per group.
    Group,
}

/// What executing one or more groups on one device produced.
pub(crate) struct GroupRun {
    /// The (first) group's gid.
    pub(crate) gid: usize,
    /// `(request index, outcome)` for every member, in group order.
    pub(crate) results: Vec<(usize, RequestOutcome)>,
    /// The device's op recording (empty when no device ran).
    pub(crate) ops: Vec<Op>,
    pub(crate) tally: FaultTally,
    /// Per-group kernel/pool telemetry and buffered audit decisions.
    pub(crate) tels: Vec<GroupTelemetry>,
    /// Simulated makespan of `ops` alone ([`DeviceScope::Group`] only);
    /// the hedging race and the latency model are decided on it.
    pub(crate) duration: f64,
}

impl GroupRun {
    /// A run that touched no device.
    pub(crate) fn off_device(
        gid: usize,
        results: Vec<(usize, RequestOutcome)>,
        tally: FaultTally,
    ) -> Self {
        GroupRun {
            gid,
            results,
            ops: Vec::new(),
            tally,
            tels: Vec::new(),
            duration: 0.0,
        }
    }

    /// Whether the device injected any fault — the breaker's signal.
    pub(crate) fn faulted(&self) -> bool {
        self.tally.injected > 0
    }
}

/// The sharded executor: deals `placed` round-robin to up to
/// [`ServeConfig::workers`] threads and returns the runs — one per shard
/// in shard order ([`DeviceScope::Shard`]), or one per group in gid
/// order ([`DeviceScope::Group`]). The workers are cheap std threads:
/// their inner `par_*` compute shares the one global host pool, so
/// results stay deterministic under any worker count. A worker lost
/// outside every per-request panic boundary has its groups answered on
/// the calling thread by [`recover_lost`], labelled `label` — once for
/// its whole shard, or once per group in the [`DeviceScope::Group`]
/// scope, so each recovered group counts one worker panic there.
pub(crate) fn execute(
    placed: &[Placed],
    scope: DeviceScope,
    requests: &[ServeRequest],
    cfg: &ServeConfig,
    label: &str,
) -> Vec<GroupRun> {
    let workers = cfg.workers.min(placed.len());
    let mut shards: Vec<Vec<&Placed>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, p) in placed.iter().enumerate() {
        shards[i % workers].push(p);
    }
    let mut runs: Vec<GroupRun> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                s.spawn(move || match scope {
                    DeviceScope::Shard { aux } => vec![run_on_device(shard, aux, requests, cfg)],
                    DeviceScope::Group => shard
                        .iter()
                        .map(|p| {
                            let mut run =
                                run_on_device(&[p], p.group.plan.num_streams(), requests, cfg);
                            run.duration =
                                schedule(&run.ops, p.spec.max_concurrent_kernels).makespan;
                            run
                        })
                        .collect(),
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(&shards)
            .flat_map(|(h, shard)| match h.join() {
                Ok(runs) => runs,
                Err(payload) => {
                    let groups = shard.iter().map(|p| p.group);
                    match scope {
                        DeviceScope::Shard { .. } => {
                            vec![recover_lost(
                                &groups.collect::<Vec<_>>(),
                                requests,
                                cfg,
                                label,
                                &*payload,
                            )]
                        }
                        DeviceScope::Group => groups
                            .map(|g| recover_lost(&[g], requests, cfg, label, &*payload))
                            .collect(),
                    }
                }
            })
            .collect()
    });
    if let DeviceScope::Group = scope {
        runs.sort_by_key(|r| r.gid);
    }
    runs
}

/// Executes `placed` serially on one fresh private device built from the
/// first placement: prepare every request in a group, one cross-request
/// batched cuFFT per side, then finish each request, recovering from
/// injected faults per request (see [`run_group`]).
fn run_on_device(
    placed: &[&Placed],
    aux: usize,
    requests: &[ServeRequest],
    cfg: &ServeConfig,
) -> GroupRun {
    let p0 = placed[0];
    let device = worker_device(p0.spec, p0.faults);
    device.set_fault_scope_salt(p0.salt);
    let streams = ExecStreams::on_device_private(&device, aux);
    let mut tally = FaultTally::default();
    let mut results = Vec::new();
    let mut tels = Vec::new();
    let mut rec_base = 0usize;
    for p in placed {
        let alloc0 = device.pool_alloc_ops();
        let release0 = device.pool_release_ops();
        let arena0 = streams.arena.stats();
        let mut audit = Vec::new();
        results.extend(run_group(
            &device, p.group, requests, &streams, cfg, &mut tally, p.hedged, &mut audit,
        ));
        // Everything recorded/charged since the previous group boundary
        // belongs to this group: run_group resets the arena on both
        // ends, so pool releases cannot leak across groups.
        let records = device.records();
        let arena1 = streams.arena.stats();
        tels.push(GroupTelemetry {
            gid: p.group.gid,
            kernels: rollup_kernels(&records[rec_base..]),
            pool: PoolTally {
                alloc_ops: device.pool_alloc_ops() - alloc0,
                release_ops: device.pool_release_ops() - release0,
                reuse_hits: arena1.reuse_hits - arena0.reuse_hits,
                fresh_misses: arena1.fresh_misses - arena0.fresh_misses,
            },
            audit,
        });
        rec_base = records.len();
    }
    tally.injected = device.faults_injected();
    GroupRun {
        gid: p0.group.gid,
        results,
        ops: device.ops(),
        tally,
        tels,
        duration: 0.0,
    }
}

/// Failover for groups whose worker thread died outside every
/// per-request panic boundary: serve their members on the CPU path, or
/// fail them typed when CPU fallback is off. The recording and
/// device-side fault counters are lost with the worker; the loss counts
/// one worker panic. `label` names the caller's worker kind in the
/// panic context (`serve worker`, `overload worker`, `fleet worker`).
pub(crate) fn recover_lost(
    groups: &[&Group],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
    label: &str,
    payload: &(dyn std::any::Any + Send),
) -> GroupRun {
    let failure = (!cfg.cpu_fallback).then(|| CusFftError::Panic {
        context: crate::error::panic_context(label, payload),
    });
    let mut tally = FaultTally {
        worker_panics: 1,
        ..FaultTally::default()
    };
    let results = groups
        .iter()
        .flat_map(|g| answer_on_cpu(g, requests, &mut tally, failure.clone()))
        .collect();
    GroupRun::off_device(groups.first().map_or(0, |g| g.gid), results, tally)
}

/// A serve call's virtual clock.
pub(crate) struct Clock {
    /// `(gid, completion)` in the order groups completed.
    pub(crate) completions: Vec<(usize, f64)>,
    /// Per-request arrival times (all `0.0` on the fleet path, which has
    /// no arrival process).
    pub(crate) arrivals: Vec<f64>,
}

/// Everything a serve call accumulates for the report assembler.
pub(crate) struct Served {
    /// Per-request outcomes, filled as requests resolve.
    pub(crate) outcomes: Vec<Option<RequestOutcome>>,
    /// Op recordings in merge order (a path's control ops lead).
    pub(crate) op_groups: Vec<Vec<Op>>,
    pub(crate) faults: FaultTally,
    pub(crate) tels: Vec<GroupTelemetry>,
    pub(crate) audit: Option<AuditLog>,
    /// The virtual clock; `None` on clockless paths (batch, journal).
    pub(crate) clock: Option<Clock>,
}

impl Served {
    pub(crate) fn new(requests: usize, audit: Option<AuditLog>) -> Self {
        Served {
            outcomes: (0..requests).map(|_| None).collect(),
            op_groups: Vec::new(),
            faults: FaultTally::default(),
            tels: Vec::new(),
            audit,
            clock: None,
        }
    }

    /// Takes in one run's outcomes, recording, counters and telemetry.
    pub(crate) fn absorb(&mut self, run: GroupRun) {
        for (idx, outcome) in run.results {
            self.outcomes[idx] = Some(outcome);
        }
        self.op_groups.push(run.ops);
        self.faults.absorb(&run.tally);
        self.tels.extend(run.tels);
    }
}

impl ServeEngine {
    /// The report assembler, shared by every serving path.
    ///
    /// * The recordings merge in `served.op_groups` order and schedule
    ///   once at `max_concurrent` kernels; the makespan is the schedule's
    ///   unless the path passes its own (`lane_makespan`, the fleet's
    ///   slowest member lane).
    /// * Kernel/pool rollups sum in gid order, so float totals are
    ///   invariant under the worker count.
    /// * Throughput divides all requests by the makespan on clockless
    ///   paths, completed requests on clocked ones.
    /// * The audit seal follows one terminal-clock rule. Clockless paths
    ///   record each executed group's placement and buffered decisions at
    ///   `0.0` in gid order, stamp terminals with the request index and
    ///   record no latency. Clocked paths stamp a terminal at its group's
    ///   completion (its arrival, if it never joined a group) with
    ///   latency `ts − arrival`.
    pub(crate) fn assemble(
        &self,
        served: Served,
        requests: &[ServeRequest],
        groups: &[Group],
        max_concurrent: u32,
        lane_makespan: Option<f64>,
    ) -> ServeReport {
        let Served {
            outcomes,
            op_groups,
            faults,
            mut tels,
            audit,
            clock,
        } = served;
        let merged = merge_op_groups(&op_groups);
        let sched = schedule(&merged, max_concurrent);
        let concurrency = concurrency_profile(&merged, &sched);
        let makespan = lane_makespan.unwrap_or(concurrency.makespan);

        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            // Invariant: every path resolves each request exactly once —
            // rejected, restored from a journal, or run in one group.
            .map(|o| o.expect("every request resolves to exactly one outcome"))
            .collect();

        tels.sort_by_key(|t| t.gid);
        let kernels = merge_rollups(&tels);
        let mut pool = PoolTally::default();
        for t in &tels {
            pool.absorb(&t.pool);
        }

        let served_count = match clock {
            Some(_) => outcomes.iter().filter(|o| o.response().is_some()).count(),
            None => requests.len(),
        };
        let throughput = if makespan > 0.0 {
            served_count as f64 / makespan
        } else {
            0.0
        };

        let mut gid_of: Vec<Option<usize>> = vec![None; requests.len()];
        let mut completion_of = vec![0.0f64; groups.len()];
        for g in groups {
            for &i in &g.indices {
                gid_of[i] = Some(g.gid);
            }
        }
        let (mut latency, mut path_latency) = (LatencyStats::default(), Vec::new());
        if let Some(c) = &clock {
            let mut latencies = Vec::new();
            let mut samples: Vec<(ServePath, ServeQos, f64)> = Vec::new();
            for &(gid, completion) in &c.completions {
                completion_of[gid] = completion;
                for &idx in &groups[gid].indices {
                    if let Some(resp) = outcomes[idx].response() {
                        let lat = completion - c.arrivals[idx];
                        latencies.push(lat);
                        samples.push((resp.path, resp.qos, lat));
                    }
                }
            }
            latency = LatencyStats::from_latencies(latencies);
            path_latency = path_latency_summary(&samples);
        }

        let placed: Vec<&Group> = groups.iter().filter(|g| !g.recovered).collect();
        let audit = audit.map(|mut a| {
            let (ts_of, lat_of): (Vec<f64>, Vec<Option<f64>>) = match &clock {
                None => {
                    for g in &placed {
                        let first = &requests[g.indices[0]];
                        a.record(
                            0.0,
                            None,
                            Some(g.gid),
                            "group_placed",
                            vec![
                                ("members".into(), g.indices.len().to_string()),
                                ("n".into(), first.time.len().to_string()),
                                ("k".into(), first.k.to_string()),
                                ("qos".into(), g.qos.label().into()),
                                ("backend".into(), g.plan.backend().label().into()),
                            ],
                        );
                        if let Some(t) = tels.iter().find(|t| t.gid == g.gid) {
                            a.fold_group(0.0, g.gid, &t.audit);
                        }
                    }
                    (
                        (0..requests.len()).map(|i| i as f64).collect(),
                        vec![None; requests.len()],
                    )
                }
                Some(c) => (0..requests.len())
                    .map(|i| {
                        let ts = gid_of[i].map_or(c.arrivals[i], |g| completion_of[g]);
                        (ts, outcomes[i].response().map(|_| ts - c.arrivals[i]))
                    })
                    .unzip(),
            };
            finalize_audit(
                a,
                &outcomes,
                &gid_of,
                &ts_of,
                &lat_of,
                &SloConfig::default(),
            )
        });

        let group_info = placed
            .iter()
            .map(|g| GroupInfo {
                gid: g.gid,
                indices: g.indices.clone(),
                key: PlanKey {
                    qos: g.qos,
                    ..requests[g.indices[0]].plan_key()
                },
                short_circuit: g.short_circuit,
                hedged: g.hedged,
                device: g.device,
            })
            .collect();

        ServeReport {
            outcomes,
            makespan,
            throughput,
            concurrency,
            cache: self.cache.stats(),
            groups: groups.len(),
            faults,
            overload: OverloadTally::default(),
            latency,
            breaker: Vec::new(),
            timeline: ServeTimeline { ops: merged, sched },
            group_info,
            path_latency,
            arrivals: Vec::new(),
            kernels,
            pool,
            fleet: crate::fleet::FleetTally::default(),
            devices: Vec::new(),
            journal: None,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::home_device;
    use crate::pipeline::Variant;
    use signal::{MagnitudeModel, SparseSignal};

    #[test]
    fn lost_worker_is_answered_on_cpu_under_its_callers_label() {
        let spec = DeviceSpec::tesla_k20x();
        let requests: Vec<ServeRequest> = (0..3)
            .map(|i| {
                let s = SparseSignal::generate(1 << 10, 4, MagnitudeModel::Unit, 40 + i);
                ServeRequest::new(s.time, 4, Variant::Optimized, 7 + i)
            })
            .collect();
        let plan = Arc::new(ExecutePlan::build(
            &home_device(&spec),
            requests[0].plan_key(),
            None,
        ));
        let mut group = Group::new(3, plan, ServeQos::Full);
        group.indices = vec![0, 2];
        let payload: Box<dyn std::any::Any + Send> = Box::new("synthetic worker panic");
        for label in ["serve worker", "overload worker", "fleet worker"] {
            for cpu_fallback in [true, false] {
                let cfg = ServeConfig {
                    cpu_fallback,
                    ..ServeConfig::default()
                };
                let run = recover_lost(&[&group], &requests, &cfg, label, payload.as_ref());
                assert_eq!(run.gid, 3);
                assert!(run.ops.is_empty() && run.tels.is_empty());
                assert_eq!(run.tally.worker_panics, 1, "one lost worker, one panic");
                let expect_cpu = if cpu_fallback { 2 } else { 0 };
                assert_eq!(run.tally.cpu_fallbacks, expect_cpu);
                assert_eq!(run.tally.failed, 2 - expect_cpu);
                let indices: Vec<usize> = run.results.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, group.indices);
                for (idx, outcome) in &run.results {
                    let req = &requests[*idx];
                    match outcome {
                        RequestOutcome::Done(r) if cpu_fallback => {
                            assert_eq!(r.path, ServePath::Cpu);
                            assert_eq!(r.backend, BackendKind::SfftCpu);
                            let reference =
                                sfft_cpu::sfft(group.plan.params(), &req.time, req.seed);
                            assert_eq!(r.recovered, reference);
                        }
                        RequestOutcome::Failed {
                            error: CusFftError::Panic { context },
                            after_attempts: 0,
                        } if !cpu_fallback => {
                            assert_eq!(context, &format!("{label}: synthetic worker panic"));
                        }
                        other => panic!("{label}, cpu_fallback={cpu_fallback}: got {other:?}"),
                    }
                }
            }
        }
    }
}

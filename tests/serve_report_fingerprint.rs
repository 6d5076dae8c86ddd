//! Report fingerprints for every serving entry point.
//!
//! Each test serves fixed inputs and hashes the whole [`ServeReport`]
//! with FNV-1a 64 over a deterministic rendering: `{:?}` for every
//! non-audit field, and the event log's deterministic JSON (plus causes
//! and SLO JSON) for `audit`. The constants pin the report contents of
//! `serve_batch`, `serve_overload`, `DeviceFleet::serve`,
//! `serve_journaled`, and a crash at epoch 1 followed by `resume_from`,
//! for audit {off, on} × fault seed {none, 7} × workers {1, 2, 4}. Every
//! path but the plain batch repeats one constant across worker counts;
//! the batch path's modeled timeline has one stream family per worker,
//! so it pins one constant per worker count. A refactor of the serving
//! core that changes any output bit fails here.

use cusfft::{
    nominal_service, DeviceFleet, FleetConfig, Journal, JournalOptions, OverloadConfig,
    ServeConfig, ServeEngine, ServeReport, ServeRequest, TimedRequest, Variant,
};
use gpu_sim::{BreakerConfig, CrashPlan, DeviceSpec, FaultConfig};
use signal::{MagnitudeModel, SparseSignal};

const WORKERS: [usize; 3] = [1, 2, 4];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of the report's deterministic rendering. The exhaustive
/// destructuring makes a new report field a compile error here.
fn fingerprint(r: &ServeReport) -> u64 {
    let ServeReport {
        outcomes,
        makespan,
        throughput,
        concurrency,
        cache,
        groups,
        faults,
        overload,
        latency,
        breaker,
        timeline,
        group_info,
        path_latency,
        arrivals,
        kernels,
        pool,
        fleet,
        devices,
        journal,
        audit,
    } = r;
    let mut s = format!(
        "{outcomes:?}|{makespan:?}|{throughput:?}|{concurrency:?}|{cache:?}|{groups:?}|\
         {faults:?}|{overload:?}|{latency:?}|{breaker:?}|{timeline:?}|{group_info:?}|\
         {path_latency:?}|{arrivals:?}|{kernels:?}|{pool:?}|{fleet:?}|{devices:?}|{journal:?}|"
    );
    match audit {
        Some(a) => {
            s.push_str(&a.log.to_json());
            s.push_str(&format!("{:?}", a.causes));
            s.push_str(&a.slo.to_json());
        }
        None => s.push_str("no-audit"),
    }
    fnv1a(s.as_bytes())
}

fn faults(seed: Option<u64>) -> Option<FaultConfig> {
    seed.map(|s| FaultConfig::uniform(s, 0.05))
}

fn config(workers: usize, audit: bool, seed: Option<u64>) -> ServeConfig {
    ServeConfig {
        workers,
        audit,
        faults: faults(seed),
        ..ServeConfig::default()
    }
}

/// Four geometries, both variants, plus one request that fails
/// validation (k out of range).
fn batch() -> Vec<ServeRequest> {
    let geometries = [
        (1 << 10, 4, Variant::Optimized),
        (1 << 11, 8, Variant::Optimized),
        (1 << 10, 4, Variant::Baseline),
        (1 << 9, 4, Variant::Optimized),
    ];
    let mut reqs: Vec<ServeRequest> = (0..9)
        .map(|i| {
            let (n, k, variant) = geometries[i % geometries.len()];
            let s = SparseSignal::generate(n, k, MagnitudeModel::Unit, 5100 + i as u64);
            ServeRequest::new(s.time, k, variant, 29 * i as u64 + 3)
        })
        .collect();
    reqs.insert(
        4,
        ServeRequest::new(
            vec![fft::cplx::ZERO; 1 << 10],
            1 << 10,
            Variant::Optimized,
            1,
        ),
    );
    reqs
}

/// The batch as an open-loop trace at about 2× nominal load, with a
/// deadline on every third request; the policy sheds, browns out,
/// trips the breaker under faults and hedges stragglers.
fn trace() -> Vec<TimedRequest> {
    let unit = nominal_service(&DeviceSpec::tesla_k20x(), 1 << 10, 4);
    batch()
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = TimedRequest::at(r, i as f64 * unit * 0.25);
            if i % 4 == 3 {
                t.with_deadline(unit * 1.5)
            } else {
                t
            }
        })
        .collect()
}

fn policy() -> OverloadConfig {
    OverloadConfig {
        queue_capacity: 4,
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

fn fleet_config(seed: Option<u64>) -> FleetConfig {
    let mut fleet = FleetConfig::heterogeneous();
    fleet.standby_slots = 1;
    if let Some(s) = seed {
        for m in &mut fleet.members[..2] {
            m.faults = Some(FaultConfig::uniform(s, 0.05).with_device_loss(1.0));
        }
    }
    fleet
}

fn engine(workers: usize, audit: bool, seed: Option<u64>) -> ServeEngine {
    ServeEngine::new(DeviceSpec::tesla_k20x(), config(workers, audit, seed))
        .expect("serve config is valid")
}

fn journal_opts(crash: CrashPlan) -> JournalOptions {
    JournalOptions {
        epoch_groups: 1,
        crash,
    }
}

/// Pinned fingerprints, `[audit off, on][seed none, 7]`.
type Pins = [[u64; 2]; 2];

/// Checks `serve(workers, audit, seed)` against `pins` for every worker
/// count: `pins` holds one table shared by all worker counts, or one
/// table per entry of [`WORKERS`] where the output may depend on it.
fn check(path: &str, pins: &[Pins], serve: impl Fn(usize, bool, Option<u64>) -> ServeReport) {
    let mut failures = Vec::new();
    for (w, workers) in WORKERS.into_iter().enumerate() {
        let expected = if pins.len() == 1 { pins[0] } else { pins[w] };
        for (a, audit) in [false, true].into_iter().enumerate() {
            for (s, seed) in [None, Some(7)].into_iter().enumerate() {
                let got = fingerprint(&serve(workers, audit, seed));
                if got != expected[a][s] {
                    failures.push(format!(
                        "{path}: audit={audit} seed={seed:?} workers={workers}: \
                         got {got:#018x}, pinned {:#018x}",
                        expected[a][s]
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "fingerprint drift:\n{}",
        failures.join("\n")
    );
}

#[test]
fn serve_batch_fingerprint() {
    // Batch runs record one stream family per worker shard, so the
    // modeled timeline (and with it makespan and throughput) depends on
    // the worker count by design: one table per worker count.
    let pins = [
        [
            [0x61d22ec4c55bc73a, 0x5f464878d6161660],
            [0x9bb76c27676d78cf, 0x0e358b0115da0be9],
        ],
        [
            [0x8b865d334c238dfb, 0x566ce566bdc1bc4a],
            [0x304dbd32f633c3f6, 0xb40ff72ed4399087],
        ],
        [
            [0x64bb110e13356cef, 0x63d7220aa9db9ae7],
            [0x2e7213fb3c5cade2, 0x81cfc7646e9fd31c],
        ],
    ];
    check("serve_batch", &pins, |w, a, s| {
        engine(w, a, s).serve_batch(&batch())
    });
}

#[test]
fn serve_overload_fingerprint() {
    check(
        "serve_overload",
        &[[
            [0xbcb29e1060397d82, 0xe363aef58197b052],
            [0xe2b8573f721a6e8c, 0x21fc20cc3c9d900e],
        ]],
        |w, a, s| engine(w, a, s).serve_overload(&trace(), &policy()),
    );
}

#[test]
fn fleet_serve_fingerprint() {
    check(
        "fleet_serve",
        &[[
            [0xafeeef2d26bbb3d9, 0xc0f32b265545d976],
            [0x2f7fcf2a3f3a2ab4, 0xdf08a76a0cd3c9fc],
        ]],
        |w, a, s| {
            DeviceFleet::new(fleet_config(s), config(w, a, s))
                .expect("fleet config is valid")
                .serve(&batch())
        },
    );
}

#[test]
fn serve_journaled_fingerprint() {
    check(
        "serve_journaled",
        &[[
            [0x064e922b5fbb62b0, 0x3ad0d00501493ef1],
            [0x297aadf10edc02ff, 0x2d9e7ba7f9b0c691],
        ]],
        |w, a, s| {
            engine(w, a, s)
                .serve_journaled(
                    &batch(),
                    &mut Journal::new(),
                    &journal_opts(CrashPlan::never()),
                )
                .into_report()
                .expect("unarmed run completes")
        },
    );
}

#[test]
fn crash_then_resume_fingerprint() {
    check(
        "resume_from",
        &[[
            [0xacc66f51ce8ca4f3, 0xa42fa17540aaa793],
            [0xf516cba80bea8edc, 0x068ab9ef224b0c4f],
        ]],
        |w, a, s| {
            let requests = batch();
            let mut journal = Journal::new();
            let crashed = engine(w, a, s).serve_journaled(
                &requests,
                &mut journal,
                &journal_opts(CrashPlan::at_epoch(1)),
            );
            assert!(
                crashed.crash().is_some(),
                "the armed crash fires at epoch 1"
            );
            engine(w, a, s)
                .resume_from(&requests, &mut journal, &journal_opts(CrashPlan::never()))
                .expect("the durable journal is valid")
                .into_report()
                .expect("resume completes")
        },
    );
}

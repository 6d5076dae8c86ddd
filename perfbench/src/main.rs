//! Two-clock benchmark of the cusFFT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one closed-loop client thread: the next call is sent
//! only after the previous one returns. With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it records host spans around
//! every public call and prints the per-layer metrics. Either way the
//! last stdout line is one JSON object, and the process exits nonzero
//! when an output check or the determinism gate fails. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod host;
mod spans;
mod workloads;

use std::time::Instant;

use host::{median, mix, peak_rss_mb, quantile, timed};
use spans::Recorder;
use workloads::{add_phases, direct_plan, Call, Inputs, Kind, Layers, System};

/// Host pool width: one thread, the pool's sequential inline path.
const POOL_WIDTH: usize = 1;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        kind,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Calls after the cold one whose counters and modeled values form the
/// deterministic window: modeled and count metrics are computed over
/// exactly these calls, and the determinism gate replays them.
fn window(kind: Kind) -> usize {
    match kind {
        Kind::Direct => 8,
        Kind::Steady | Kind::Overload | Kind::Fleet => 4,
    }
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples the value summarises.
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Read once, when the host pool first starts; nothing has run yet.
    std::env::set_var("CUSFFT_HOST_THREADS", POOL_WIDTH.to_string());

    let kind = args.kind;
    let inputs = Inputs::generate(kind, args.seed);
    let m = window(kind);
    let mut errors: Vec<String> = Vec::new();

    // Set-up: construction plus the first, cold call, several times.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_samples = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        let ((system, cold), wall, _) = timed(|| {
            let s = System::build(kind);
            let c = s.call(&inputs, 0, None);
            (s, c)
        });
        setup_samples.push(wall);
        built = Some((system, cold));
    }
    let (system, cold) = built.expect("at least one set-up repetition");
    errors.extend(cold.check_error);
    let cold = cold.layers;

    // Timed loop. In a traced run, odd calls are traced and even calls
    // are not, so the two interleave under the same conditions.
    let mut rec = Recorder::new();
    let mut calls: Vec<Call> = Vec::new();
    let mut replay = Replay::default();
    let mut traced_idx = Vec::new();
    let start = Instant::now();
    let mut i = 1;
    while calls.len() < m || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        let c = system.call(&inputs, i, traced.then_some(&mut rec));
        if traced {
            traced_idx.push(calls.len());
            if kind != Kind::Direct {
                replay.run(&inputs, i, &c, &mut rec);
            }
        }
        errors.extend(c.check_error.clone());
        calls.push(c);
        i += 1;
    }

    // The modeled clock and the counters come from the cold call and the
    // window of calls after it. The determinism gate replays them on a
    // fresh system, which must repeat them exactly.
    let fresh = System::build(kind);
    let mut model = vec![cold];
    model.extend(calls.iter().take(m).map(|c| c.layers.clone()));
    for (j, want) in model.iter().enumerate() {
        let got = fresh.call(&inputs, j, None).layers;
        if &got != want {
            errors.push(format!(
                "determinism: call {j} differs on replay with seed {}:\n  first:  {want:?}\n  replay: {got:?}",
                args.seed
            ));
            break;
        }
    }
    errors.extend(layer_assertions(kind, &model));
    let (cold, win) = (&model[0], &calls[..m]);
    let untraced: Vec<&Call> = (0..calls.len())
        .filter(|t| !traced_idx.contains(t))
        .map(|t| &calls[t])
        .collect();
    let host = host_absolute(&untraced);
    let attempted: u64 = calls.iter().map(|c| c.layers.requests).sum();
    let (metrics, also) = if args.trace {
        let mut m = host;
        m.extend(per_layer(
            kind,
            &inputs,
            cold,
            &calls,
            win,
            &traced_idx,
            &replay,
        ));
        (m, Vec::new())
    } else {
        // Printed under their plain names; gated as their complements.
        let ratio = |f: fn(&Layers) -> u64| {
            calls.iter().map(|c| f(&c.layers)).sum::<u64>() as f64 / attempted as f64
        };
        let mut also = host;
        also.push(metric(
            "fail_ratio",
            ratio(|l| l.failed),
            "ratio",
            attempted as usize,
        ));
        also.push(metric(
            "wrong_done_ratio",
            ratio(|l| l.wrong),
            "ratio",
            attempted as usize,
        ));
        also.push(metric(
            "off_contract_ratio",
            ratio(|l| l.off_contract),
            "ratio",
            attempted as usize,
        ));
        (end_to_end(kind, &inputs, &calls, win, &setup_samples), also)
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} calls={} requests_per_call={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        calls.len(),
        kind.requests_per_call()
    );
    for mt in &metrics {
        println!(
            "  {:<32} {:>16.6} {:<6} (samples {})",
            mt.name, mt.value, mt.unit, mt.samples
        );
    }
    if !also.is_empty() {
        println!(
            "  not gated (absolute host clock, recorded per layer in traced runs; \
             failure and wrong-answer shares):"
        );
        for mt in &also {
            println!(
                "  {:<32} {:>16.6} {:<6} (samples {})",
                mt.name, mt.value, mt.unit, mt.samples
            );
        }
    }
    if args.trace {
        print_self_times(&rec);
        match write_spans(kind, args.seed, &rec) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }
    println!(
        "env {}",
        host::environment_json(POOL_WIDTH, workloads::WORKERS)
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }

    let failed = calls.iter().filter(|c| c.check_error.is_some()).count();
    let correct = errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name,
                json_num(mt.value),
                mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Assertions that each workload exercises the layers it was built for,
/// over the cold call (`model[0]`) and the window.
fn layer_assertions(kind: Kind, model: &[Layers]) -> Vec<String> {
    let mut errs = Vec::new();
    let cold = &model[0];
    let last = &model[model.len() - 1];
    match kind {
        Kind::Direct => {}
        Kind::Steady => {
            // After the cold call every plan lookup must hit.
            if last.cache.misses != cold.cache.misses {
                errs.push(format!(
                    "serve-steady: {} plan-cache misses after warm-up",
                    last.cache.misses - cold.cache.misses
                ));
            }
        }
        Kind::Overload => {
            for (i, l) in model.iter().enumerate() {
                let o = &l.overload;
                let fired = [
                    ("shed", o.shed),
                    ("degraded", o.degraded),
                    ("hedges", o.hedges),
                    ("breaker_trips", o.breaker_trips),
                ];
                if let Some((what, _)) = fired.iter().find(|(_, v)| *v == 0) {
                    errs.push(format!("serve-overload: call {i} had no {what}"));
                    break;
                }
            }
        }
        Kind::Fleet => {
            for (i, pair) in model.windows(2).enumerate() {
                let l = &pair[1];
                let evicted = l.cache.evictions - pair[0].cache.evictions;
                if l.fleet.device_losses == 0 || l.fleet.failovers == 0 || evicted == 0 {
                    errs.push(format!(
                        "fleet-failover: call {} had losses={} failovers={} evictions={}",
                        i + 1,
                        l.fleet.device_losses,
                        l.fleet.failovers,
                        evicted
                    ));
                    break;
                }
            }
        }
    }
    errs
}

fn sum(calls: &[Call], f: impl Fn(&Call) -> f64) -> f64 {
    calls.iter().map(f).sum()
}

/// Modeled `(p50, p99)` request latency over the window, in seconds.
/// Per-request samples are pooled where calls expose them; otherwise the
/// serving layer's own per-call figures are summarised by their median.
fn modeled_latency(win: &[Call]) -> (f64, f64) {
    let pooled: Vec<f64> = win
        .iter()
        .flat_map(|c| c.layers.latencies.iter().copied())
        .collect();
    if !pooled.is_empty() {
        return (median(&pooled), quantile(&pooled, 0.99));
    }
    let summaries: Vec<(f64, f64)> = win
        .iter()
        .filter_map(|c| c.layers.latency_summary)
        .collect();
    let p50: Vec<f64> = summaries.iter().map(|s| s.0).collect();
    let p99: Vec<f64> = summaries.iter().map(|s| s.1).collect();
    (median(&p50), median(&p99))
}

/// Host-clock metrics in absolute units over `calls`. They drift with
/// the machine's state between runs, so they are recorded as per-layer
/// metrics of traced runs instead of gating changes.
fn host_absolute(calls: &[&Call]) -> Vec<Metric> {
    let n = calls.len();
    let walls: Vec<f64> = calls.iter().map(|c| c.wall).collect();
    let wall: f64 = walls.iter().sum();
    let requests: f64 = calls.iter().map(|c| c.layers.requests as f64).sum();
    let right: f64 = calls
        .iter()
        .map(|c| (c.layers.done - c.layers.wrong) as f64)
        .sum();
    let cpu: f64 = calls.iter().map(|c| c.cpu).sum();
    vec![
        metric("host.throughput_rps", right / wall, "1/s", n),
        metric("host.wall_ms_p50", median(&walls) * 1e3, "ms", n),
        metric("host.wall_ms_p90", quantile(&walls, 0.9) * 1e3, "ms", n),
        metric("host.cpu_ms_per_req", cpu / requests * 1e3, "ms", n),
    ]
}

fn end_to_end(
    kind: Kind,
    inputs: &Inputs,
    calls: &[Call],
    win: &[Call],
    setup: &[f64],
) -> Vec<Metric> {
    let n = calls.len();
    // Host time is gated relative to the native floor measured right
    // after each call on the same inputs, which cancels the machine's
    // drift between runs.
    let ratios: Vec<f64> = calls.iter().map(|c| c.wall / c.native).collect();
    let cpu_ratios: Vec<f64> = calls.iter().map(|c| c.cpu / c.native).collect();
    let requests = sum(calls, |c| c.layers.requests as f64);
    let w_req = sum(win, |c| c.layers.requests as f64);
    let modeled = sum(win, |c| c.layers.modeled_s);
    let (lat50, lat99) = modeled_latency(win);
    let max_rps = match kind {
        Kind::Overload => max_rps_at_slo(inputs),
        // Closed-loop workloads carry no arrival schedule: the figure is
        // the modeled completion rate of their own traffic.
        _ => w_req / modeled,
    };
    vec![
        metric("native_ratio", median(&ratios), "ratio", n),
        metric("cpu_native_ratio", median(&cpu_ratios), "ratio", n),
        metric("modeled_us_per_req", modeled / w_req * 1e6, "us", win.len()),
        metric("modeled_latency_ms_p50", lat50 * 1e3, "ms", win.len()),
        metric("modeled_latency_ms_p99", lat99 * 1e3, "ms", win.len()),
        metric("modeled_max_rps_at_slo", max_rps, "1/s", win.len()),
        metric(
            "answered_ratio",
            sum(calls, |c| c.layers.done as f64) / requests,
            "ratio",
            requests as usize,
        ),
        metric(
            "right_ratio",
            1.0 - sum(calls, |c| c.layers.wrong as f64) / requests,
            "ratio",
            requests as usize,
        ),
        metric("setup_s", median(setup), "s", setup.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// The highest arrival rate (modeled requests per second) at which the
/// overload workload's first call keeps its modeled p99 latency within
/// the deadline with at most 1% of requests refused or failed. A
/// deterministic bisection on a log scale, outside the timed loop.
fn max_rps_at_slo(inputs: &Inputs) -> f64 {
    let engine = match System::build(Kind::Overload) {
        System::Overload(e) => e,
        _ => unreachable!("the overload workload builds a serve engine"),
    };
    let reqs = inputs.requests(1);
    let policy = workloads::overload_policy();
    let deadline = workloads::DEADLINE_NOMINALS * workloads::overload_nominal();
    let meets = |rate: f64| {
        let trace = workloads::overload_trace(inputs, &reqs, rate);
        let report = engine.serve_overload(&trace, &policy);
        let missed = report
            .outcomes
            .iter()
            .filter(|o| o.response().is_none())
            .count();
        report.latency.p99 <= deadline && missed as f64 <= 0.01 * reqs.len() as f64
    };
    let capacity = 1.0 / workloads::overload_nominal();
    let (mut lo, mut hi) = (capacity / 16.0, capacity * 4.0);
    if !meets(lo) {
        return lo;
    }
    if meets(hi) {
        return hi;
    }
    for _ in 0..10 {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Direct `execute_profiled` replays of traced serve calls, on plans
/// built once per geometry outside the serving layer.
#[derive(Default)]
struct Replay {
    plans: Vec<((usize, usize), cusfft::CusFft)>,
    /// Plan build walls (tuned parameters plus `CusFft::new`).
    builds: Vec<f64>,
    /// Per-request phase walls.
    phases: Vec<cusfft::HostPhaseWalls>,
    /// Per-call `(call index, summed replay wall)`.
    walls: Vec<(usize, f64)>,
}

impl Replay {
    fn run(&mut self, inputs: &Inputs, i: usize, call: &Call, rec: &mut Recorder) {
        let span = rec.open("replay", call.span, None);
        let mut total = 0.0;
        for (j, (idx, pseed)) in inputs.requests(i).into_iter().enumerate() {
            if !call.replayable[j] {
                continue;
            }
            let inp = &inputs.pool[idx];
            let key = (inp.n, inp.k);
            if !self.plans.iter().any(|(k, _)| *k == key) {
                let b = rec.open("plan build", Some(span), None);
                let (plan, wall, _) = timed(|| direct_plan(inp.n, inp.k));
                rec.close(b);
                self.builds.push(wall);
                self.plans.push((key, plan));
            }
            let plan = &self
                .plans
                .iter()
                .find(|(k, _)| *k == key)
                .expect("plan built above")
                .1;
            let rid = (i * inputs.kind.requests_per_call() + j) as u64;
            let s = rec.open("CusFft::execute_profiled", Some(span), Some(rid));
            let ((_, walls), wall, _) = timed(|| plan.execute_profiled(&inp.time, pseed));
            rec.close(s);
            add_phases(rec, s, &walls);
            self.phases.push(walls);
            total += wall;
        }
        rec.close(span);
        if let Some(c) = call.span {
            // The call's root span now also covers its replay.
            rec.close(c);
        }
        self.walls.push((i, total));
    }
}

fn per_layer(
    kind: Kind,
    inputs: &Inputs,
    cold: &Layers,
    calls: &[Call],
    win: &[Call],
    traced: &[usize],
    replay: &Replay,
) -> Vec<Metric> {
    let wn = win.len();
    let per_call =
        |f: &dyn Fn(&Layers) -> f64| win.iter().map(|c| f(&c.layers)).sum::<f64>() / wn as f64;
    let w_req: f64 = win.iter().map(|c| c.layers.requests as f64).sum();
    let per_req =
        |f: &dyn Fn(&Layers) -> f64| win.iter().map(|c| f(&c.layers)).sum::<f64>() / w_req;
    let total = |f: &dyn Fn(&Layers) -> u64| win.iter().map(|c| f(&c.layers)).sum::<u64>() as f64;

    // Host phases: the direct calls themselves, or the direct replay of
    // traced serve calls.
    let phases: Vec<cusfft::HostPhaseWalls> = if kind == Kind::Direct {
        traced.iter().filter_map(|&t| calls[t].phases).collect()
    } else {
        replay.phases.clone()
    };
    let ph = |f: fn(&cusfft::HostPhaseWalls) -> f64| {
        median(&phases.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let builds = if kind == Kind::Direct {
        let inp = &inputs.pool[0];
        (0..3)
            .map(|_| timed(|| direct_plan(inp.n, inp.k)).1)
            .collect()
    } else {
        replay.builds.clone()
    };
    // Serving overhead: serve wall minus the direct replay of the same
    // requests; for direct calls, the call wall outside its phases.
    let overhead: Vec<f64> = if kind == Kind::Direct {
        traced
            .iter()
            .filter_map(|&t| calls[t].phases.map(|p| calls[t].wall - p.total()))
            .collect()
    } else {
        replay
            .walls
            .iter()
            .map(|&(i, w)| {
                (calls[i - 1].wall - calls[i - 1].metrics_s - w) / kind.requests_per_call() as f64
            })
            .collect()
    };

    // Plan cache over the window, relative to the cold call's counters.
    let c0 = cold.cache;
    let c1 = win.last().expect("window is non-empty").layers.cache;
    let (hits, misses, evictions) = (
        (c1.hits - c0.hits) as f64,
        (c1.misses - c0.misses) as f64,
        (c1.evictions - c0.evictions) as f64,
    );
    let lookups = hits + misses;

    let traced_walls: Vec<f64> = traced.iter().map(|&t| calls[t].wall).collect();
    let untraced_walls: Vec<f64> = (0..calls.len())
        .filter(|t| !traced.contains(t))
        .map(|t| calls[t].wall)
        .collect();
    let (sfft_ms, dense_ms) = floors(inputs.seed);
    let retries = total(&|l| l.faults.retries);
    let hedges = total(&|l| l.overload.hedges);
    let step = |f: fn(&cusfft::StepBreakdown) -> f64| per_req(&|l| f(&l.steps)) * 1e6;
    let np = phases.len();
    vec![
        metric("pipeline.prepare_ms", ph(|p| p.prepare), "ms", np),
        metric("pipeline.batched_fft_ms", ph(|p| p.batched_fft), "ms", np),
        metric("pipeline.finish_ms", ph(|p| p.finish), "ms", np),
        metric(
            "pipeline.plan_build_ms",
            median(&builds) * 1e3,
            "ms",
            builds.len(),
        ),
        metric("plan_cache.hits", hits, "count", wn),
        metric("plan_cache.misses", misses, "count", wn),
        metric("plan_cache.evictions", evictions, "count", wn),
        metric(
            "plan_cache.hit_rate",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
            wn,
        ),
        metric(
            "kernel.launches",
            per_req(&|l| l.launches as f64),
            "count",
            wn,
        ),
        metric(
            "kernel.transactions",
            per_req(&|l| l.transactions),
            "count",
            wn,
        ),
        metric("kernel.dram_bytes", per_req(&|l| l.dram_bytes), "B", wn),
        metric("modeled.transfer_us", step(|s| s.transfer), "us", wn),
        metric("modeled.perm_filter_us", step(|s| s.perm_filter), "us", wn),
        metric(
            "modeled.subsampled_fft_us",
            step(|s| s.subsampled_fft),
            "us",
            wn,
        ),
        metric("modeled.cutoff_us", step(|s| s.cutoff), "us", wn),
        metric("modeled.locate_us", step(|s| s.locate), "us", wn),
        metric("modeled.estimate_us", step(|s| s.estimate), "us", wn),
        metric("modeled.recovery_us", step(|s| s.recovery), "us", wn),
        metric(
            "streams.max_concurrent",
            win.iter().map(|c| c.layers.max_streams).max().unwrap_or(0) as f64,
            "count",
            wn,
        ),
        metric(
            "streams.avg_concurrent",
            per_call(&|l| l.avg_streams),
            "count",
            wn,
        ),
        metric(
            "pool.alloc_ops",
            per_call(&|l| l.pool.alloc_ops as f64),
            "count",
            wn,
        ),
        metric(
            "pool.reuse_hits",
            per_call(&|l| l.pool.reuse_hits as f64),
            "count",
            wn,
        ),
        metric(
            "pool.fresh_misses",
            per_call(&|l| l.pool.fresh_misses as f64),
            "count",
            wn,
        ),
        metric(
            "serve.overhead_ms_per_req",
            median(&overhead) * 1e3,
            "ms",
            overhead.len(),
        ),
        metric("serve.groups", per_call(&|l| l.groups as f64), "count", wn),
        metric(
            "recovery.injected",
            total(&|l| l.faults.injected),
            "count",
            wn,
        ),
        metric(
            "recovery.evictions",
            total(&|l| l.faults.evictions),
            "count",
            wn,
        ),
        metric("recovery.retries", retries, "count", wn),
        metric(
            "recovery.cpu_fallbacks",
            total(&|l| l.faults.cpu_fallbacks),
            "count",
            wn,
        ),
        metric("recovery.failed", total(&|l| l.faults.failed), "count", wn),
        metric(
            "recovery.useful_ratio",
            total(&|l| l.done) / (w_req + retries),
            "ratio",
            wn,
        ),
        metric(
            "overload.admitted",
            total(&|l| l.overload.admitted),
            "count",
            wn,
        ),
        metric("overload.shed", total(&|l| l.overload.shed), "count", wn),
        metric(
            "overload.deadline_exceeded",
            total(&|l| l.overload.deadline_exceeded),
            "count",
            wn,
        ),
        metric(
            "overload.degraded",
            total(&|l| l.overload.degraded),
            "count",
            wn,
        ),
        metric("overload.hedges", hedges, "count", wn),
        metric(
            "overload.hedge_win_ratio",
            if hedges > 0.0 {
                total(&|l| l.overload.hedge_wins) / hedges
            } else {
                0.0
            },
            "ratio",
            wn,
        ),
        metric(
            "overload.breaker_trips",
            total(&|l| l.overload.breaker_trips),
            "count",
            wn,
        ),
        metric(
            "overload.peak_queue_depth",
            win.iter()
                .map(|c| c.layers.overload.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
            wn,
        ),
        metric(
            "fleet.routed_groups",
            total(&|l| l.fleet.routed_groups),
            "count",
            wn,
        ),
        metric(
            "fleet.device_losses",
            total(&|l| l.fleet.device_losses),
            "count",
            wn,
        ),
        metric(
            "fleet.failovers",
            total(&|l| l.fleet.failovers),
            "count",
            wn,
        ),
        metric(
            "fleet.standby_acquires",
            total(&|l| l.fleet.standby_acquires),
            "count",
            wn,
        ),
        metric(
            "fleet.cpu_served_groups",
            total(&|l| l.fleet.cpu_served_groups),
            "count",
            wn,
        ),
        metric(
            "fleet.brownout_groups",
            total(&|l| l.fleet.brownout_groups),
            "count",
            wn,
        ),
        metric("fleet.drains", total(&|l| l.fleet.drains), "count", wn),
        metric(
            "audit.events",
            per_call(&|l| l.audit_events as f64),
            "count",
            wn,
        ),
        metric(
            "observe.metrics_ms",
            median(&calls.iter().map(|c| c.metrics_s).collect::<Vec<_>>()) * 1e3,
            "ms",
            calls.len(),
        ),
        metric(
            "observe.metrics_bytes",
            per_call(&|l| l.metrics_bytes as f64),
            "B",
            wn,
        ),
        metric("floor.sfft_cpu_ms", sfft_ms, "ms", FLOOR_REPS),
        metric("floor.dense_fft_ms", dense_ms, "ms", FLOOR_REPS),
        metric(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&untraced_walls),
            "ratio",
            traced_walls.len(),
        ),
    ]
}

const FLOOR_REPS: usize = 16;

/// Native floors on the pipeline-direct inputs: median serial
/// `sfft_cpu::sfft` and dense `fft::fft` walls, in milliseconds.
fn floors(seed: u64) -> (f64, f64) {
    let direct = Inputs::generate(Kind::Direct, seed);
    let mut sfft = Vec::new();
    let mut dense = Vec::new();
    for r in 0..FLOOR_REPS {
        let inp = &direct.pool[r % direct.pool.len()];
        sfft.push(
            timed(|| std::hint::black_box(sfft_cpu::sfft(&inp.params, &inp.time, mix(r as u64)))).1,
        );
        dense.push(timed(|| std::hint::black_box(fft::fft(&inp.time))).1);
    }
    (median(&sfft) * 1e3, median(&dense) * 1e3)
}

/// Prints per-span-name self time (duration minus child coverage).
fn print_self_times(rec: &Recorder) {
    println!("  span self time (duration minus child coverage):");
    for (name, (secs, count)) in rec.self_times() {
        println!(
            "    {:<32} {:>12.3} ms total {:>10.4} ms/span  ({count} spans)",
            name,
            secs * 1e3,
            secs * 1e3 / count as f64
        );
    }
}

/// Writes the spans under the build directory, which is the one place
/// in the checkout this benchmark writes to.
fn write_spans(kind: Kind, seed: u64, rec: &Recorder) -> std::io::Result<String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&base).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.json", kind.name()));
    std::fs::write(&path, rec.to_json())?;
    Ok(path.display().to_string())
}

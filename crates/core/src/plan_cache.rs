//! A keyed cache of cusFFT plans for the serving layer.
//!
//! Plan construction is the expensive, amortisable part of the pipeline
//! (filter design + device upload — the paper's plan/execute split, as in
//! FFTW and cuFFT plans). A server handling a stream of requests over a
//! handful of `(n, k, variant)` geometries should build each plan once and
//! share it; this cache provides exactly that, with an LRU bound so a
//! long-tailed workload cannot grow device-resident filter state without
//! limit.
//!
//! Concurrency: one mutex around the map + recency list. Lookups are tiny
//! compared to plan construction, and plan construction itself happens
//! *outside* the lock only for the loser of a race — the common case
//! (steady-state hit) holds the lock for a hash probe. Counters are
//! atomics so `stats()` never blocks the serving path.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::GpuDevice;
use parking_lot::Mutex;

use crate::backend::{BackendKind, ExecutePlan};
use crate::perm_filter::RemapKind;
use crate::pipeline::Variant;

/// Quality-of-service tier a request is served at. Under sustained
/// queue pressure the overload layer re-plans requests onto
/// [`ServeQos::Degraded`] — a reduced-accuracy sFFT with halved loop
/// counts ([`sfft_cpu::Tuning::degraded`]) that trades recovery margin
/// for latency. Part of [`PlanKey`], so Full and Degraded plans for
/// the same geometry coexist in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServeQos {
    /// Default-accuracy plan.
    #[default]
    Full,
    /// Brownout plan: fewer location/estimation loops.
    Degraded,
}

impl ServeQos {
    /// Stable label used as a telemetry dimension.
    pub fn label(self) -> &'static str {
        match self {
            ServeQos::Full => "full",
            ServeQos::Degraded => "degraded",
        }
    }
}

/// Identity of a plan: the signal geometry, implementation tier, QoS
/// tier and execution backend. Two requests with equal keys are served
/// by the same [`ExecutePlan`]. `backend` is part of the key so a
/// degraded-QoS GPU plan and a CPU plan for the same `(n, k)` can
/// never alias in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Signal length (power of two).
    pub n: usize,
    /// Expected sparsity.
    pub k: usize,
    /// Implementation tier.
    pub variant: Variant,
    /// Accuracy tier.
    pub qos: ServeQos,
    /// Execution backend.
    pub backend: BackendKind,
}

/// Snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served by an existing plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans dropped by the LRU bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    plans: HashMap<PlanKey, Arc<ExecutePlan>>,
    /// Keys from least- to most-recently used. Every key in `plans`
    /// appears exactly once.
    recency: VecDeque<PlanKey>,
}

/// LRU-bounded, thread-safe [`PlanKey`]` → Arc<ExecutePlan>` cache.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "plan cache capacity must be at least 1");
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                plans: HashMap::new(),
                recency: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the plan for `key`, building it with [`ExecutePlan::build`]
    /// on a miss — the key's QoS tier picks the tuning (default for
    /// [`ServeQos::Full`], [`sfft_cpu::Tuning::degraded`] for
    /// [`ServeQos::Degraded`]) and `remap` pins the device pipeline's
    /// remap kernel.
    ///
    /// On a miss the build runs outside the lock (plan construction
    /// designs filters — far too slow to serialise other lookups behind).
    /// If two threads miss the same key concurrently, both build but only
    /// the first insert wins; the loser's plan is dropped and the
    /// winner's is returned, so all callers still share one plan per key.
    pub fn get_or_build(
        &self,
        device: &Arc<GpuDevice>,
        key: PlanKey,
        remap: Option<RemapKind>,
    ) -> Arc<ExecutePlan> {
        if let Some(plan) = self.lookup(key) {
            return plan;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let candidate = Arc::new(ExecutePlan::build(device, key, remap));
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.plans.get(&key).cloned() {
            // Lost the build race: count the other thread's insert as our
            // hit source but keep the counters simple — the miss already
            // recorded the build we paid for.
            touch(&mut inner.recency, key);
            return existing;
        }
        inner.plans.insert(key, Arc::clone(&candidate));
        inner.recency.push_back(key);
        while inner.plans.len() > self.capacity {
            let victim = inner
                .recency
                .pop_front()
                .expect("recency list tracks every resident plan");
            inner.plans.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        candidate
    }

    /// Hit path: probe and touch the recency list.
    fn lookup(&self, key: PlanKey) -> Option<Arc<ExecutePlan>> {
        let mut inner = self.inner.lock();
        let plan = inner.plans.get(&key).cloned()?;
        touch(&mut inner.recency, key);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Counter snapshot. `hits + misses` equals total lookups.
    pub fn stats(&self) -> CacheStats {
        let len = self.inner.lock().plans.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
        }
    }
}

/// Moves `key` to the most-recently-used end.
fn touch(recency: &mut VecDeque<PlanKey>, key: PlanKey) {
    if let Some(pos) = recency.iter().position(|&k| k == key) {
        recency.remove(pos);
    }
    recency.push_back(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn key(n: usize, k: usize, variant: Variant) -> PlanKey {
        PlanKey {
            n,
            k,
            variant,
            qos: ServeQos::Full,
            backend: BackendKind::GpuSim,
        }
    }

    fn device() -> Arc<GpuDevice> {
        Arc::new(GpuDevice::new(DeviceSpec::tesla_k20x()))
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(4);
        let dev = device();
        let a = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Optimized), None);
        let b = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Optimized), None);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn distinct_variants_get_distinct_plans() {
        let cache = PlanCache::new(4);
        let dev = device();
        let a = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Baseline), None);
        let b = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Optimized), None);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.variant(), Variant::Baseline);
        assert_eq!(b.variant(), Variant::Optimized);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = PlanCache::new(2);
        let dev = device();
        let k1 = key(1 << 9, 2, Variant::Baseline);
        let k2 = key(1 << 10, 2, Variant::Baseline);
        let k3 = key(1 << 11, 2, Variant::Baseline);
        cache.get_or_build(&dev, k1, None);
        cache.get_or_build(&dev, k2, None);
        cache.get_or_build(&dev, k1, None); // k2 is now least recent
        cache.get_or_build(&dev, k3, None); // evicts k2
        let s = cache.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.evictions, 1);
        cache.get_or_build(&dev, k2, None); // rebuilt: a miss
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn plans_match_their_key() {
        let cache = PlanCache::new(3);
        let dev = device();
        for &(n, k) in &[(1 << 9, 2), (1 << 10, 4), (1 << 11, 8)] {
            let plan = cache.get_or_build(&dev, key(n, k, Variant::Optimized), None);
            assert_eq!(plan.params().n, n);
            assert_eq!(plan.params().k, k);
        }
    }

    #[test]
    fn qos_tiers_get_distinct_plans() {
        let cache = PlanCache::new(4);
        let dev = device();
        let full = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Optimized), None);
        let degraded = cache.get_or_build(
            &dev,
            PlanKey {
                qos: ServeQos::Degraded,
                ..key(1 << 10, 4, Variant::Optimized)
            },
            None,
        );
        assert!(!Arc::ptr_eq(&full, &degraded));
        assert!(degraded.params().loops_total() < full.params().loops_total());
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn backends_get_distinct_plans_and_unregistered_kinds_miss() {
        let cache = PlanCache::new(8);
        let dev = device();
        let gpu = cache.get_or_build(&dev, key(1 << 10, 4, Variant::Optimized), None);
        let cpu = cache.get_or_build(
            &dev,
            PlanKey {
                backend: BackendKind::SfftCpu,
                ..key(1 << 10, 4, Variant::Optimized)
            },
            None,
        );
        assert!(!Arc::ptr_eq(&gpu, &cpu));
        assert_eq!(gpu.backend(), BackendKind::GpuSim);
        assert_eq!(cpu.backend(), BackendKind::SfftCpu);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        PlanCache::new(0);
    }
}

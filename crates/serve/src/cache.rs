//! The shared plan cache: capture once per tensor *structure*, replay
//! for every request on that structure.
//!
//! A [`mttkrp::gpu::Plan`] depends only on a tensor's sparsity structure
//! (which indices exist), the kernel, the output mode, and the rank —
//! never on the values or the requesting tenant. The cache therefore
//! keys on a [`structure_hash`] of the index pattern plus
//! `(kernel, mode, rank)`, and every tenant submitting jobs against the
//! same structure shares one captured plan. Capture (format build +
//! schedule recording) is the expensive phase; replay is cheap — exactly
//! the split the service's admission latency relies on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mttkrp::gpu::{
    AnyFormat, BuildOptions, GpuContext, KernelKind, LaunchError, MttkrpKernel, Plan,
};
use simprof::FieldValue;
use sptensor::hash::{splitmix64, Fnv1a};
use sptensor::CooTensor;

/// Deterministic hash of a tensor's sparsity *structure*: order, dims,
/// nnz, and every index of every mode — values excluded, because plans
/// capture structure only. Two tensors with the same index pattern but
/// different values share plans; any structural difference separates
/// them.
pub fn structure_hash(t: &CooTensor) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(&(t.order() as u64).to_le_bytes());
    for &d in t.dims() {
        h.bytes(&u64::from(d).to_le_bytes());
    }
    h.bytes(&(t.nnz() as u64).to_le_bytes());
    for mode in 0..t.order() {
        for &ix in t.mode_indices(mode) {
            h.word(u64::from(ix));
        }
        h = Fnv1a(splitmix64(h.0));
    }
    splitmix64(h.0)
}

/// What a cached plan is keyed on: everything capture depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`structure_hash`] of the tensor.
    pub structure: u64,
    pub kernel: KernelKind,
    pub mode: usize,
    pub rank: usize,
}

/// A thread-safe capture-once/replay-many plan cache with hit/miss
/// telemetry. Captures run outside the map lock — they are
/// deterministic, so a racing duplicate capture produces the identical
/// plan and the last insert wins harmlessly.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The cached plan for `key`, capturing it on first use. Emits
    /// `plan-cache-hit` / `plan-cache-miss` events (cache `"service"`)
    /// through the context's telemetry.
    pub fn get_or_capture(
        &self,
        ctx: &GpuContext,
        t: &CooTensor,
        key: PlanKey,
    ) -> Result<Arc<Plan>, LaunchError> {
        if let Some(plan) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.note(ctx, "plan-cache-hit", &key);
            return Ok(plan);
        }
        let format = AnyFormat::build(key.kernel, t, key.mode, &BuildOptions::default())?;
        let plan = Arc::new(format.capture(ctx, key.rank));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.note(ctx, "plan-cache-miss", &key);
        if let Ok(mut map) = self.plans.lock() {
            map.insert(key, Arc::clone(&plan));
        }
        Ok(plan)
    }

    fn lookup(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.plans.lock().ok()?.get(key).cloned()
    }

    fn note(&self, ctx: &GpuContext, kind: &str, key: &PlanKey) {
        let tel = &ctx.telemetry;
        if tel.enabled() {
            tel.emit(
                kind,
                None,
                tel.new_span(),
                &[
                    ("kernel", FieldValue::from(key.kernel.as_str())),
                    ("mode", FieldValue::from(key.mode)),
                    ("rank", FieldValue::from(key.rank)),
                    ("cache", FieldValue::from("service")),
                ],
            );
        }
    }

    /// Replays served from an already-captured plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Captures performed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().map(|m| m.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used)]

    use super::*;
    use sptensor::synth::uniform_random;

    #[test]
    fn structure_hash_ignores_values_and_sees_structure() {
        let a = uniform_random(&[10, 12, 14], 300, 7);
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 2.0;
        }
        assert_eq!(structure_hash(&a), structure_hash(&b), "values are ignored");
        let c = uniform_random(&[10, 12, 14], 300, 8);
        assert_ne!(structure_hash(&a), structure_hash(&c), "indices matter");
        let d = uniform_random(&[10, 12, 15], 300, 7);
        assert_ne!(structure_hash(&a), structure_hash(&d), "dims matter");
    }

    #[test]
    fn cache_hits_after_first_capture() {
        let t = uniform_random(&[10, 12, 14], 300, 7);
        let ctx = GpuContext::tiny();
        let cache = PlanCache::new();
        let key = PlanKey {
            structure: structure_hash(&t),
            kernel: KernelKind::Hbcsf,
            mode: 0,
            rank: 8,
        };
        let p1 = cache.get_or_capture(&ctx, &t, key).expect("capture");
        let p2 = cache.get_or_capture(&ctx, &t, key).expect("hit");
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "second request replays the same plan"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Another mode is a different key.
        let key2 = PlanKey { mode: 1, ..key };
        cache.get_or_capture(&ctx, &t, key2).expect("capture");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }
}

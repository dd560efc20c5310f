//! simmem: a deterministic device-memory model.
//!
//! [`DeviceMemory`] is a tracked allocator standing in for `cudaMalloc` on
//! the simulated device: a configurable capacity, an alignment rule, a
//! per-allocation ledger, a high-water mark, and seeded OOM/fragmentation
//! fault injection driven by the same [`FaultPlan`] hash streams as the
//! transient-fault machinery. It never hands out real storage — kernels
//! already compute on host memory — it *accounts* for what the device
//! would have to hold, so allocation pressure, out-of-memory failures,
//! and fragmentation become visible, reproducible events.
//!
//! Two entry points matter:
//!
//! * [`DeviceMemory::lease`] — unconditional tracking. Used by the plain
//!   kernel paths: records the allocation, advances the high-water mark,
//!   frees on [`MemLease`] drop. Never fails; a run that was going to
//!   succeed still succeeds, it is just *observed*.
//! * [`DeviceMemory::try_lease`] — the checked path used by out-of-core
//!   execution: enforces capacity (less any injected fragmentation
//!   hold-back), draws a seeded allocation-failure fault, and records an
//!   [`OomEvent`] when it refuses. Failures are deterministic functions of
//!   `(seed, kernel, attempt, site)`.
//!
//! With an unlimited capacity and no mem-fault plan, both paths degenerate
//! to bookkeeping: results are bit-for-bit those of an untracked run.

#![deny(clippy::unwrap_used)]

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::fault::FaultPlan;

/// Allocation granularity: 256 bytes, `cudaMalloc`'s alignment.
pub const MEM_ALIGN: u64 = 256;

/// Why a checked allocation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The request does not fit in the remaining capacity.
    Oom {
        label: String,
        requested: u64,
        in_use: u64,
        capacity: u64,
    },
    /// A seeded allocation-failure fault fired (transient: a retry at a
    /// different attempt/site re-rolls the draw).
    Injected { label: String, site: u64 },
    /// The request's byte size overflowed 64-bit arithmetic — by
    /// definition it can never fit in any device.
    Overflow { label: String },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Oom {
                label,
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "out of device memory allocating '{label}': requested {requested} B \
                 with {in_use} B in use of {capacity} B"
            ),
            MemError::Injected { label, site } => {
                write!(
                    f,
                    "injected allocation failure for '{label}' at site {site}"
                )
            }
            MemError::Overflow { label } => {
                write!(f, "allocation size for '{label}' overflows u64")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// One ledger entry: an allocation this memory has seen.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct AllocRecord {
    /// Monotone allocation id (ledger order == allocation order).
    pub id: u64,
    /// What the allocation held, e.g. `"hb-csf.factors"`.
    pub label: String,
    /// Requested bytes.
    pub bytes: u64,
    /// Bytes actually reserved (request rounded up to the alignment).
    pub padded: u64,
    /// Whether the allocation has been released.
    pub freed: bool,
}

/// One refused (or injected-to-fail) allocation, in occurrence order.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct OomEvent {
    pub label: String,
    pub requested: u64,
    pub in_use: u64,
    pub capacity: u64,
    /// `true` when a fault draw (not genuine pressure) caused the failure.
    pub injected: bool,
    /// The draw site (meaningful only for injected events).
    pub site: u64,
}

#[derive(Debug, Default)]
struct MemState {
    in_use: u64,
    high_water: u64,
    next_id: u64,
    ledger: Vec<AllocRecord>,
    oom_events: Vec<OomEvent>,
}

/// A tracked device-memory arena. Cheap to share: clone the `Arc`.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    state: Mutex<MemState>,
}

impl Default for DeviceMemory {
    fn default() -> Self {
        DeviceMemory::unlimited()
    }
}

impl DeviceMemory {
    /// A memory with no capacity limit (`u64::MAX`): pure observation.
    pub fn unlimited() -> DeviceMemory {
        DeviceMemory::with_capacity(u64::MAX)
    }

    /// A memory holding at most `capacity` bytes.
    pub fn with_capacity(capacity: u64) -> DeviceMemory {
        DeviceMemory {
            capacity,
            state: Mutex::new(MemState::default()),
        }
    }

    /// Configured capacity in bytes (`u64::MAX` = unlimited).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether this memory enforces no limit.
    pub fn is_unlimited(&self) -> bool {
        self.capacity == u64::MAX
    }

    /// The capacity actually available to allocations under `plan`:
    /// fragmentation injection (`frag:F`) holds back an `F` fraction of
    /// the configured capacity, modeling a heap whose free space no longer
    /// coalesces. Unlimited memories are immune.
    pub fn effective_capacity(&self, plan: Option<&FaultPlan>) -> u64 {
        if self.is_unlimited() {
            return self.capacity;
        }
        let frag = plan.map_or(0.0, |p| p.frag_frac.clamp(0.0, 1.0));
        if frag <= 0.0 {
            return self.capacity;
        }
        let held = (self.capacity as f64 * frag) as u64;
        self.capacity.saturating_sub(held)
    }

    /// A poisoned lock only means another thread panicked mid-update of
    /// *statistics*; the bookkeeping is still structurally sound, so keep
    /// accounting rather than cascading the panic.
    fn lock(&self) -> MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes currently leased.
    pub fn in_use(&self) -> u64 {
        self.lock().in_use
    }

    /// Largest `in_use` ever observed.
    pub fn high_water(&self) -> u64 {
        self.lock().high_water
    }

    /// Snapshot of every allocation seen so far, in allocation order.
    pub fn ledger(&self) -> Vec<AllocRecord> {
        self.lock().ledger.clone()
    }

    /// Snapshot of every refused allocation, in occurrence order.
    pub fn oom_events(&self) -> Vec<OomEvent> {
        self.lock().oom_events.clone()
    }

    /// Rounds `bytes` up to the allocation granularity (a zero-byte
    /// request still consumes one granule, like `cudaMalloc(0)` on most
    /// driver versions consumes a handle). `None` on u64 overflow.
    pub fn pad(&self, bytes: u64) -> Option<u64> {
        let padded = bytes.checked_add(MEM_ALIGN - 1)? / MEM_ALIGN * MEM_ALIGN;
        Some(padded.max(MEM_ALIGN))
    }

    /// Records the allocations in `parts` (label, requested bytes)
    /// unconditionally: ledger entries, `in_use`, and the high-water mark
    /// advance; nothing is enforced. Sizes that overflow the padding
    /// arithmetic saturate. Freed when the returned lease drops.
    pub fn lease(self: &Arc<Self>, parts: &[(String, u64)]) -> MemLease {
        let mut st = self.lock();
        let mut held = Vec::with_capacity(parts.len());
        for (label, bytes) in parts {
            let padded = self.pad(*bytes).unwrap_or(u64::MAX);
            let id = st.next_id;
            st.next_id += 1;
            st.ledger.push(AllocRecord {
                id,
                label: label.clone(),
                bytes: *bytes,
                padded,
                freed: false,
            });
            st.in_use = st.in_use.saturating_add(padded);
            held.push((id, padded));
        }
        st.high_water = st.high_water.max(st.in_use);
        drop(st);
        MemLease {
            mem: Arc::clone(self),
            held,
        }
    }

    /// The checked allocation path: fails (recording an [`OomEvent`]) when
    /// the seeded fault draw for `(kernel, site)` fires, when any size
    /// overflows, or when the request does not fit in the effective
    /// capacity. On success the allocations are ledgered exactly as
    /// [`DeviceMemory::lease`] would.
    pub fn try_lease(
        self: &Arc<Self>,
        kernel: &str,
        parts: &[(String, u64)],
        plan: Option<&FaultPlan>,
        site: u64,
    ) -> Result<MemLease, MemError> {
        let label = || {
            parts
                .first()
                .map_or_else(|| kernel.to_string(), |(l, _)| l.clone())
        };
        let mut total: u64 = 0;
        for (l, bytes) in parts {
            let padded = self
                .pad(*bytes)
                .ok_or_else(|| MemError::Overflow { label: l.clone() })?;
            total = total
                .checked_add(padded)
                .ok_or_else(|| MemError::Overflow { label: l.clone() })?;
        }
        if plan.is_some_and(|p| p.alloc_fails(kernel, site)) {
            let mut st = self.lock();
            let ev = OomEvent {
                label: label(),
                requested: total,
                in_use: st.in_use,
                capacity: self.capacity,
                injected: true,
                site,
            };
            st.oom_events.push(ev);
            return Err(MemError::Injected {
                label: label(),
                site,
            });
        }
        let capacity = self.effective_capacity(plan);
        {
            let mut st = self.lock();
            if st.in_use.saturating_add(total) > capacity {
                let ev = OomEvent {
                    label: label(),
                    requested: total,
                    in_use: st.in_use,
                    capacity,
                    injected: false,
                    site,
                };
                st.oom_events.push(ev);
                return Err(MemError::Oom {
                    label: label(),
                    requested: total,
                    in_use: st.in_use,
                    capacity,
                });
            }
        }
        Ok(self.lease(parts))
    }
}

/// RAII handle over a batch of allocations: dropping it releases them
/// (marking the ledger entries freed and reducing `in_use`).
#[derive(Debug)]
pub struct MemLease {
    mem: Arc<DeviceMemory>,
    /// `(allocation id, padded bytes)` per held allocation.
    held: Vec<(u64, u64)>,
}

impl MemLease {
    /// Total padded bytes this lease holds.
    pub fn bytes(&self) -> u64 {
        self.held.iter().map(|&(_, b)| b).sum()
    }
}

impl Drop for MemLease {
    fn drop(&mut self) {
        let mut st = self.mem.lock();
        for &(id, padded) in &self.held {
            st.in_use = st.in_use.saturating_sub(padded);
            if let Some(rec) = st.ledger.iter_mut().find(|r| r.id == id) {
                rec.freed = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(specs: &[(&str, u64)]) -> Vec<(String, u64)> {
        specs.iter().map(|&(l, b)| (l.to_string(), b)).collect()
    }

    #[test]
    fn lease_tracks_high_water_and_frees_on_drop() {
        let mem = Arc::new(DeviceMemory::with_capacity(1 << 20));
        {
            let a = mem.lease(&parts(&[("a", 1000)]));
            assert_eq!(mem.in_use(), 1024); // padded to 256-B granules
            assert_eq!(a.bytes(), 1024);
            let _b = mem.lease(&parts(&[("b", 100)]));
            assert_eq!(mem.in_use(), 1024 + 256);
            assert_eq!(mem.high_water(), 1024 + 256);
        }
        assert_eq!(mem.in_use(), 0, "drop releases");
        assert_eq!(mem.high_water(), 1024 + 256, "high water persists");
        let ledger = mem.ledger();
        assert_eq!(ledger.len(), 2);
        assert!(ledger.iter().all(|r| r.freed));
    }

    #[test]
    fn try_lease_enforces_capacity_and_records_oom() {
        let mem = Arc::new(DeviceMemory::with_capacity(1024));
        let ok = mem.try_lease("k", &parts(&[("fits", 512)]), None, 0);
        assert!(ok.is_ok());
        let held = ok.expect("fits");
        let err = mem.try_lease("k", &parts(&[("too-big", 1024)]), None, 1);
        match err {
            Err(MemError::Oom {
                requested, in_use, ..
            }) => {
                assert_eq!(requested, 1024);
                assert_eq!(in_use, 512);
            }
            other => panic!("expected Oom, got {other:?}"),
        }
        assert_eq!(mem.oom_events().len(), 1);
        drop(held);
        assert!(mem
            .try_lease("k", &parts(&[("now-fits", 1024)]), None, 2)
            .is_ok());
    }

    #[test]
    fn injected_oom_is_deterministic_and_site_keyed() {
        let plan = FaultPlan::parse("oom:0.5", 0xA110C).expect("valid spec");
        let mem = Arc::new(DeviceMemory::unlimited());
        let draws: Vec<bool> = (0..64)
            .map(|site| {
                mem.try_lease("k", &parts(&[("x", 128)]), Some(&plan), site)
                    .is_err()
            })
            .collect();
        assert!(draws.iter().any(|&d| d), "rate 0.5 fires somewhere");
        assert!(draws.iter().any(|&d| !d), "rate 0.5 spares somewhere");
        // Exact replay: same plan, same sites, same outcomes.
        let again: Vec<bool> = (0..64)
            .map(|site| {
                mem.try_lease("k", &parts(&[("x", 128)]), Some(&plan), site)
                    .is_err()
            })
            .collect();
        assert_eq!(draws, again);
        let injected = mem.oom_events().iter().filter(|e| e.injected).count();
        assert_eq!(injected, draws.iter().filter(|&&d| d).count() * 2);
    }

    #[test]
    fn fragmentation_shrinks_effective_capacity() {
        let plan = FaultPlan::parse("frag:0.25", 1).expect("valid spec");
        let mem = Arc::new(DeviceMemory::with_capacity(1 << 20));
        assert_eq!(mem.effective_capacity(None), 1 << 20);
        assert_eq!(mem.effective_capacity(Some(&plan)), (1 << 20) * 3 / 4);
        let err = mem.try_lease("k", &parts(&[("big", (1 << 20) * 7 / 8)]), Some(&plan), 0);
        assert!(matches!(err, Err(MemError::Oom { .. })));
        assert!(mem
            .try_lease("k", &parts(&[("big", (1 << 20) * 7 / 8)]), None, 0)
            .is_ok());
    }

    #[test]
    fn overflowing_requests_are_typed_errors() {
        let mem = Arc::new(DeviceMemory::unlimited());
        let err = mem.try_lease("k", &parts(&[("huge", u64::MAX - 1)]), None, 0);
        assert!(matches!(err, Err(MemError::Overflow { .. })));
        // The unchecked path saturates instead of panicking.
        let lease = mem.lease(&parts(&[("huge", u64::MAX - 1)]));
        assert_eq!(lease.bytes(), u64::MAX);
    }

    #[test]
    fn unlimited_memory_never_ooms_organically() {
        let mem = Arc::new(DeviceMemory::unlimited());
        for site in 0..32 {
            assert!(mem
                .try_lease("k", &parts(&[("x", 1 << 40)]), None, site)
                .is_ok());
        }
        assert_eq!(mem.oom_events().len(), 0);
    }
}

//! simfault: deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes *which* faults a launch suffers: bit flips
//! in per-block accumulation results, block aborts that force an
//! ECC-style re-execution, straggler SMs running at a reduced clock,
//! whole-device losses (`device-loss`) that a multi-device grid must
//! re-shard around, interconnect link faults (`link-degrade`,
//! `link-loss`) that re-price or disable the ring all-reduce, mid-write
//! checkpoint crashes (`crash`) that tear durable checkpoint files, and
//! — through [`crate::mem::DeviceMemory`] — allocation failures (`oom`)
//! and fragmentation pressure (`frag`) on the device heap.
//! Every draw is a pure hash of `(seed, kernel, attempt, site)` — no RNG
//! state — so the same plan replayed over the same launch injects the
//! same faults, two independent observers of the same site (the scheduler
//! charging time, the kernel corrupting data) agree on what happened, and
//! bumping `attempt` (a retry) re-rolls every draw.
//!
//! With all rates zero the plan is inert: fault-aware code paths are
//! skipped entirely and results are bit-for-bit those of a fault-free run.

#![deny(clippy::unwrap_used)]

use sptensor::hash::{splitmix64, u01, Fnv1a};

/// Bits eligible for injection: the f32 exponent byte (bits 23..=30).
/// Exponent flips change a value's magnitude by at least 2×, which is what
/// makes them *detectable* above f32 summation noise — low-order mantissa
/// flips perturb results below checksum resolution and below numerical
/// materiality, so injecting them would only measure the tolerance, not
/// the recovery machinery.
pub const FLIP_BIT_LO: u32 = 23;
/// One past the highest eligible flip bit (exclusive).
pub const FLIP_BIT_HI: u32 = 31;

/// A transient bit flip drawn for one thread block: which bit of which
/// (hash-selected) element of the block's committed accumulation flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct BitFlip {
    /// Flipped bit position in the f32 word, in `FLIP_BIT_LO..FLIP_BIT_HI`.
    pub bit: u32,
    /// Hash used by the kernel to pick *which* element of the block's
    /// accumulation is corrupted (e.g. `lane % rank` selects the column).
    pub lane: u64,
}

/// What kind of fault hit a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silent data corruption of the block's committed accumulation.
    BitFlip { bit: u32 },
    /// The block aborted and was ECC-retried: its result is correct but it
    /// paid for two executions.
    Abort,
    /// The block landed on a straggler SM running at a reduced clock.
    Straggler { sm: usize },
}

// The vendored serde derive handles named-field structs and unit enums
// only, so the payload-carrying `FaultKind` is serialized by hand as a
// tagged object.
impl serde::Serialize for FaultKind {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        let kind = match self {
            FaultKind::BitFlip { bit } => {
                m.insert("bit".to_string(), serde::Serialize::serialize(bit));
                "bitflip"
            }
            FaultKind::Abort => "abort",
            FaultKind::Straggler { sm } => {
                m.insert("sm".to_string(), serde::Serialize::serialize(sm));
                "straggler"
            }
        };
        m.insert("kind".to_string(), serde::Value::String(kind.to_string()));
        serde::Value::Object(m)
    }
}

/// One injected fault, attributed to a scheduled block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct InjectedFault {
    /// Index in scheduled-block order (matches `SimProfile::blocks`).
    pub block: usize,
    pub kind: FaultKind,
}

/// A malformed fault spec, with enough structure for callers to format
/// their own diagnostics (the CLI prefixes the flag name, the service
/// layer maps it into a typed rejection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A term is not of the `kind:rate` shape.
    NotKindRate { term: String },
    /// A term's rate failed to parse as a number.
    BadNumber { term: String },
    /// A term's rate is outside the accepted `0..=1e6` range.
    RateOutOfRange { term: String },
    /// A term names no documented fault kind.
    UnknownKind { kind: String },
    /// A probability-valued rate exceeds 1.
    ProbabilityAboveOne { kind: &'static str },
    /// `slowdown` below 1 would make stragglers faster than the clock.
    SlowdownBelowOne,
    /// `frag` of 1 (or more) leaves no capacity at all.
    FragAtLeastOne,
    /// `link-degrade` factor below 1 would make degraded links faster.
    DegradeFactorBelowOne,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::NotKindRate { term } => {
                write!(f, "fault term '{term}' is not 'kind:rate'")
            }
            FaultSpecError::BadNumber { term } => {
                write!(f, "fault term '{term}': bad number")
            }
            FaultSpecError::RateOutOfRange { term } => {
                write!(f, "fault term '{term}': rate out of range")
            }
            FaultSpecError::UnknownKind { kind } => write!(f, "unknown fault kind '{kind}'"),
            FaultSpecError::ProbabilityAboveOne { kind } => {
                write!(f, "fault rate '{kind}' is a probability; must be <= 1")
            }
            FaultSpecError::SlowdownBelowOne => write!(f, "straggler slowdown must be >= 1"),
            FaultSpecError::FragAtLeastOne => write!(f, "fragmentation fraction must be < 1"),
            FaultSpecError::DegradeFactorBelowOne => {
                write!(f, "link-degrade factor must be >= 1")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A deterministic, serializable fault-injection plan.
///
/// Rates are per-site probabilities: `bitflip_rate`/`abort_rate` per
/// thread block, `straggler_rate` per SM per launch. `attempt` is mixed
/// into every draw so a retried kernel sees fresh faults — exactly how a
/// transient fault behaves on re-execution.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability a block's committed accumulation suffers one exponent
    /// bit flip.
    pub bitflip_rate: f64,
    /// Probability a block aborts and is ECC-retried (timing-only fault).
    pub abort_rate: f64,
    /// Probability an SM is a straggler for the whole launch.
    pub straggler_rate: f64,
    /// Cycle multiplier applied to blocks placed on straggler SMs.
    pub straggler_slowdown: f64,
    /// Probability a checked device-memory allocation spuriously fails
    /// (per allocation site; see [`crate::mem::DeviceMemory::try_lease`]).
    pub oom_rate: f64,
    /// Fraction of device-memory capacity held back by fragmentation
    /// (`0.0..1.0`); shrinks the effective capacity, not a per-site draw.
    pub frag_frac: f64,
    /// Probability a whole simulated device drops out of a multi-device
    /// run (per device per launch). Device losses never corrupt data:
    /// the grid re-shards around the dead device, so they are neither
    /// execution nor memory faults (see [`FaultPlan::has_device_faults`]).
    pub device_loss_rate: f64,
    /// Probability an interconnect link runs degraded for a collective
    /// (per link per launch). A ring all-reduce is bottlenecked by its
    /// slowest link, so one degraded link re-prices the whole collective;
    /// degradation never perturbs values, only modeled time.
    pub link_degrade_rate: f64,
    /// Bandwidth division factor applied to degraded links (`>= 1`).
    pub link_degrade_factor: f64,
    /// Probability an interconnect link is down for a collective (per
    /// link per launch). A lost link breaks the ring, so the grid falls
    /// back to the bit-exact single-device execution path.
    pub link_loss_rate: f64,
    /// Probability a durable checkpoint write crashes mid-write (per
    /// write), leaving a torn file at the final path — modeling a rename
    /// that was not yet durable when the process died. Crash faults touch
    /// only the checkpoint filesystem, never kernel state.
    pub crash_rate: f64,
    /// Retry attempt number; mixed into every draw.
    pub attempt: u32,
}

impl FaultPlan {
    /// An inert plan: all rates zero, nothing is injected.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            bitflip_rate: 0.0,
            abort_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 2.0,
            oom_rate: 0.0,
            frag_frac: 0.0,
            device_loss_rate: 0.0,
            link_degrade_rate: 0.0,
            link_degrade_factor: 4.0,
            link_loss_rate: 0.0,
            crash_rate: 0.0,
            attempt: 0,
        }
    }

    /// A plan injecting only bit flips at `rate`, seeded with `seed`.
    pub fn bitflips(rate: f64, seed: u64) -> Self {
        FaultPlan {
            bitflip_rate: rate,
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Whether any fault can ever fire. Inactive plans take the exact
    /// fault-free code paths.
    pub fn is_active(&self) -> bool {
        self.has_exec_faults()
            || self.has_mem_faults()
            || self.has_device_faults()
            || self.has_link_faults()
            || self.has_crash_faults()
    }

    /// Whether any *execution* fault (bit flip, abort, straggler) can
    /// fire. These are the faults that perturb kernel output or timing —
    /// the ones ABFT checksumming and the faulted simulator care about.
    pub fn has_exec_faults(&self) -> bool {
        self.bitflip_rate > 0.0 || self.abort_rate > 0.0 || self.straggler_rate > 0.0
    }

    /// Whether any *memory* fault (allocation failure, fragmentation) can
    /// fire. Memory faults never corrupt data — they refuse allocations —
    /// so plans with only memory faults keep the bit-exact parallel
    /// replay path.
    pub fn has_mem_faults(&self) -> bool {
        self.oom_rate > 0.0 || self.frag_frac > 0.0
    }

    /// Whether a whole device can drop out of a multi-device run. Like
    /// memory faults, device losses never perturb committed values — the
    /// grid re-shards the dead device's blocks onto the survivors, whose
    /// consecutive-range fold is bit-identical to a clean run on the
    /// surviving device set — so plans carrying only device losses keep
    /// the bit-exact parallel replay path.
    pub fn has_device_faults(&self) -> bool {
        self.device_loss_rate > 0.0
    }

    /// Whether an interconnect link can degrade or drop. Link faults
    /// never perturb committed values: degradation only re-prices the
    /// all-reduce on the modeled clock, and loss falls back to the
    /// bit-exact single-device path — so plans carrying only link faults
    /// keep the bit-exact parallel replay path.
    pub fn has_link_faults(&self) -> bool {
        self.link_degrade_rate > 0.0 || self.link_loss_rate > 0.0
    }

    /// Whether a durable checkpoint write can crash mid-write. Crash
    /// faults touch only checkpoint files on disk — kernel execution,
    /// memory, and timing are untouched.
    pub fn has_crash_faults(&self) -> bool {
        self.crash_rate > 0.0
    }

    /// The same plan with a different retry attempt (re-rolls all draws).
    pub fn with_attempt(&self, attempt: u32) -> Self {
        FaultPlan {
            attempt,
            ..self.clone()
        }
    }

    /// Parses a CLI fault spec: comma-separated `kind:rate` terms, e.g.
    /// `bitflip:1e-3,abort:1e-4,straggler:0.05,slowdown:2.5,oom:0.01,frag:0.2,device-loss:0.1,link-loss:0.05,crash:0.1`,
    /// or `none`. `link-degrade` additionally accepts a bandwidth factor
    /// as a third component: `link-degrade:RATE:FACTOR` (factor >= 1,
    /// default 4).
    pub fn parse(spec: &str, seed: u64) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::disabled()
        };
        if spec.trim() == "none" {
            return Ok(plan);
        }
        for term in spec.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (key, val) = term
                .split_once(':')
                .ok_or_else(|| FaultSpecError::NotKindRate {
                    term: term.to_string(),
                })?;
            let in_range = |v: f64| (0.0..=1e6).contains(&v);
            // `link-degrade` is the one three-part term: its value may be
            // `RATE` or `RATE:FACTOR`, so it is split again before the
            // generic `kind:rate` number parse below.
            if key.trim() == "link-degrade" {
                let (rate_s, factor_s) = match val.trim().split_once(':') {
                    Some((r, fac)) => (r, Some(fac)),
                    None => (val.trim(), None),
                };
                let bad = || FaultSpecError::BadNumber {
                    term: term.to_string(),
                };
                let rate: f64 = rate_s.trim().parse().map_err(|_| bad())?;
                let factor: f64 = match factor_s {
                    Some(s) => s.trim().parse().map_err(|_| bad())?,
                    None => plan.link_degrade_factor,
                };
                if !in_range(rate) || !in_range(factor) {
                    return Err(FaultSpecError::RateOutOfRange {
                        term: term.to_string(),
                    });
                }
                plan.link_degrade_rate = rate;
                plan.link_degrade_factor = factor;
                continue;
            }
            let v: f64 = val.trim().parse().map_err(|_| FaultSpecError::BadNumber {
                term: term.to_string(),
            })?;
            if !in_range(v) {
                return Err(FaultSpecError::RateOutOfRange {
                    term: term.to_string(),
                });
            }
            match key.trim() {
                "bitflip" => plan.bitflip_rate = v,
                "abort" => plan.abort_rate = v,
                "straggler" => plan.straggler_rate = v,
                "slowdown" => plan.straggler_slowdown = v,
                "oom" => plan.oom_rate = v,
                "frag" => plan.frag_frac = v,
                "device-loss" => plan.device_loss_rate = v,
                "link-loss" => plan.link_loss_rate = v,
                "crash" => plan.crash_rate = v,
                other => {
                    return Err(FaultSpecError::UnknownKind {
                        kind: other.to_string(),
                    })
                }
            }
        }
        for (kind, rate) in [
            ("bitflip", plan.bitflip_rate),
            ("abort", plan.abort_rate),
            ("straggler", plan.straggler_rate),
            ("oom", plan.oom_rate),
            ("device-loss", plan.device_loss_rate),
            ("link-degrade", plan.link_degrade_rate),
            ("link-loss", plan.link_loss_rate),
            ("crash", plan.crash_rate),
        ] {
            if rate > 1.0 {
                return Err(FaultSpecError::ProbabilityAboveOne { kind });
            }
        }
        if plan.straggler_slowdown < 1.0 {
            return Err(FaultSpecError::SlowdownBelowOne);
        }
        if plan.frag_frac >= 1.0 {
            return Err(FaultSpecError::FragAtLeastOne);
        }
        if plan.link_degrade_factor < 1.0 {
            return Err(FaultSpecError::DegradeFactorBelowOne);
        }
        Ok(plan)
    }

    /// The bit flip (if any) hitting block `block` of kernel `kernel`.
    pub fn block_bitflip(&self, kernel: &str, block: usize) -> Option<BitFlip> {
        if self.bitflip_rate <= 0.0 {
            return None;
        }
        let h = self.site_hash(kernel, 0x1, block as u64);
        if u01(h) >= self.bitflip_rate {
            return None;
        }
        let h2 = splitmix64(h ^ 0x9e37_79b9_7f4a_7c15);
        Some(BitFlip {
            bit: FLIP_BIT_LO + (h2 % u64::from(FLIP_BIT_HI - FLIP_BIT_LO)) as u32,
            lane: splitmix64(h2),
        })
    }

    /// Whether block `block` of kernel `kernel` aborts and is ECC-retried.
    pub fn block_aborts(&self, kernel: &str, block: usize) -> bool {
        self.abort_rate > 0.0 && u01(self.site_hash(kernel, 0x2, block as u64)) < self.abort_rate
    }

    /// Whether SM `sm` is a straggler for this kernel launch.
    pub fn sm_straggler(&self, kernel: &str, sm: usize) -> bool {
        self.straggler_rate > 0.0
            && u01(self.site_hash(kernel, 0x3, sm as u64)) < self.straggler_rate
    }

    /// Whether the checked device-memory allocation at `site` of kernel
    /// `kernel` spuriously fails. Sites are chosen by the caller (e.g. the
    /// out-of-core executor keys them on `(ladder rung, tile index)`);
    /// like every draw, the outcome re-rolls when `attempt` changes.
    pub fn alloc_fails(&self, kernel: &str, site: u64) -> bool {
        self.oom_rate > 0.0 && u01(self.site_hash(kernel, 0x4, site)) < self.oom_rate
    }

    /// Whether device `device` drops out of this kernel's multi-device
    /// launch. Like every draw it is a pure hash — the scheduler deciding
    /// to re-shard and the reporter attributing the loss agree on which
    /// devices died.
    pub fn device_lost(&self, kernel: &str, device: usize) -> bool {
        self.device_loss_rate > 0.0
            && u01(self.site_hash(kernel, 0x5, device as u64)) < self.device_loss_rate
    }

    /// How far through its shard device `device` got before dying, in
    /// `[0, 1)` — the fraction of the shard's modeled compute time that
    /// was wasted. Drawn on an independent stream so the loss decision
    /// and the loss point are uncorrelated.
    pub fn device_loss_progress(&self, kernel: &str, device: usize) -> f64 {
        u01(self.site_hash(kernel, 0x6, device as u64))
    }

    /// Whether ring link `link` runs degraded (bandwidth divided by
    /// [`FaultPlan::link_degrade_factor`]) for this kernel's collective.
    pub fn link_degraded(&self, kernel: &str, link: usize) -> bool {
        self.link_degrade_rate > 0.0
            && u01(self.site_hash(kernel, 0x7, link as u64)) < self.link_degrade_rate
    }

    /// Whether ring link `link` is down for this kernel's collective,
    /// breaking the ring and forcing single-device fallback.
    pub fn link_lost(&self, kernel: &str, link: usize) -> bool {
        self.link_loss_rate > 0.0
            && u01(self.site_hash(kernel, 0x8, link as u64)) < self.link_loss_rate
    }

    /// Whether the durable checkpoint write `seq` under `label` crashes
    /// mid-write. `Some(frac)` means the write died after committing
    /// `frac` (in `[0, 1)`) of the file's bytes — the torn fraction is
    /// drawn on a chained hash so the crash decision and the tear point
    /// are uncorrelated.
    pub fn write_crash(&self, label: &str, seq: u64) -> Option<f64> {
        if self.crash_rate <= 0.0 {
            return None;
        }
        let h = self.site_hash(label, 0x9, seq);
        if u01(h) >= self.crash_rate {
            return None;
        }
        Some(u01(splitmix64(h ^ 0x9e37_79b9_7f4a_7c15)))
    }

    /// One hash per (plan, kernel, stream, site): the whole entropy source.
    fn site_hash(&self, kernel: &str, stream: u64, site: u64) -> u64 {
        let mut h = self.seed ^ Fnv1a::default().bytes(kernel.as_bytes()).0;
        h = splitmix64(h ^ (u64::from(self.attempt) << 32) ^ stream);
        splitmix64(h ^ site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(!p.is_active());
        for b in 0..1000 {
            assert!(p.block_bitflip("k", b).is_none());
            assert!(!p.block_aborts("k", b));
            assert!(!p.sm_straggler("k", b));
            assert!(!p.alloc_fails("k", b as u64));
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let p = FaultPlan::bitflips(0.3, 42);
        let a: Vec<_> = (0..200).map(|b| p.block_bitflip("bcsf", b)).collect();
        let b: Vec<_> = (0..200).map(|b| p.block_bitflip("bcsf", b)).collect();
        assert_eq!(a, b, "same plan, same draws");
        let q = FaultPlan::bitflips(0.3, 43);
        let c: Vec<_> = (0..200).map(|b| q.block_bitflip("bcsf", b)).collect();
        assert_ne!(a, c, "different seed, different draws");
        let d: Vec<_> = (0..200).map(|b| p.block_bitflip("csl", b)).collect();
        assert_ne!(a, d, "different kernel, different draws");
        let e: Vec<_> = (0..200)
            .map(|b| p.with_attempt(1).block_bitflip("bcsf", b))
            .collect();
        assert_ne!(a, e, "retry attempt re-rolls the faults");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = FaultPlan::bitflips(0.1, 7);
        let hits = (0..20_000)
            .filter(|&b| p.block_bitflip("k", b).is_some())
            .count();
        let frac = hits as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&frac), "hit rate {frac}");
    }

    #[test]
    fn flip_bits_stay_in_exponent_byte() {
        let p = FaultPlan::bitflips(1.0, 3);
        for b in 0..500 {
            let f = p.block_bitflip("k", b).expect("rate 1 always fires");
            assert!((FLIP_BIT_LO..FLIP_BIT_HI).contains(&f.bit));
        }
    }

    #[test]
    fn parse_round_trips_the_spec_language() {
        let p = FaultPlan::parse("bitflip:1e-3,abort:1e-4,straggler:0.05,slowdown:2.5", 9)
            .expect("valid spec");
        assert_eq!(p.seed, 9);
        assert!((p.bitflip_rate - 1e-3).abs() < 1e-12);
        assert!((p.abort_rate - 1e-4).abs() < 1e-12);
        assert!((p.straggler_rate - 0.05).abs() < 1e-12);
        assert!((p.straggler_slowdown - 2.5).abs() < 1e-12);
        assert!(p.is_active());

        assert!(!FaultPlan::parse("none", 0)
            .expect("none is valid")
            .is_active());

        // Every documented kind round-trips into its field.
        let all = FaultPlan::parse(
            "bitflip:0.01,abort:0.02,straggler:0.03,slowdown:3.0,oom:0.04,frag:0.05,device-loss:0.06,link-degrade:0.07:5.0,link-loss:0.08,crash:0.09",
            1,
        )
        .expect("valid spec");
        assert!((all.bitflip_rate - 0.01).abs() < 1e-12);
        assert!((all.abort_rate - 0.02).abs() < 1e-12);
        assert!((all.straggler_rate - 0.03).abs() < 1e-12);
        assert!((all.straggler_slowdown - 3.0).abs() < 1e-12);
        assert!((all.oom_rate - 0.04).abs() < 1e-12);
        assert!((all.frag_frac - 0.05).abs() < 1e-12);
        assert!((all.device_loss_rate - 0.06).abs() < 1e-12);
        assert!((all.link_degrade_rate - 0.07).abs() < 1e-12);
        assert!((all.link_degrade_factor - 5.0).abs() < 1e-12);
        assert!((all.link_loss_rate - 0.08).abs() < 1e-12);
        assert!((all.crash_rate - 0.09).abs() < 1e-12);

        // `link-degrade` without a factor keeps the default factor.
        let short = FaultPlan::parse("link-degrade:0.25", 1).expect("valid spec");
        assert!((short.link_degrade_rate - 0.25).abs() < 1e-12);
        assert!((short.link_degrade_factor - 4.0).abs() < 1e-12);
        assert!(short.is_active() && short.has_link_faults());
    }

    #[test]
    fn malformed_specs_yield_typed_errors() {
        assert_eq!(
            FaultPlan::parse("bitflip", 0),
            Err(FaultSpecError::NotKindRate {
                term: "bitflip".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("gamma:0.1", 0),
            Err(FaultSpecError::UnknownKind {
                kind: "gamma".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("bitflip:2.0", 0),
            Err(FaultSpecError::ProbabilityAboveOne { kind: "bitflip" })
        );
        assert_eq!(
            FaultPlan::parse("bitflip:nope", 0),
            Err(FaultSpecError::BadNumber {
                term: "bitflip:nope".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("abort:-0.5", 0),
            Err(FaultSpecError::RateOutOfRange {
                term: "abort:-0.5".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("slowdown:0.5", 0),
            Err(FaultSpecError::SlowdownBelowOne)
        );
        assert_eq!(
            FaultPlan::parse("oom:1.5", 0),
            Err(FaultSpecError::ProbabilityAboveOne { kind: "oom" })
        );
        assert_eq!(
            FaultPlan::parse("frag:1.0", 0),
            Err(FaultSpecError::FragAtLeastOne)
        );
        assert_eq!(
            FaultPlan::parse("device-loss:1.5", 0),
            Err(FaultSpecError::ProbabilityAboveOne {
                kind: "device-loss"
            })
        );
        assert_eq!(
            FaultPlan::parse("link-loss:1.5", 0),
            Err(FaultSpecError::ProbabilityAboveOne { kind: "link-loss" })
        );
        assert_eq!(
            FaultPlan::parse("crash:2.0", 0),
            Err(FaultSpecError::ProbabilityAboveOne { kind: "crash" })
        );
        assert_eq!(
            FaultPlan::parse("link-degrade:1.5", 0),
            Err(FaultSpecError::ProbabilityAboveOne {
                kind: "link-degrade"
            })
        );
        assert_eq!(
            FaultPlan::parse("link-degrade:0.5:0.5", 0),
            Err(FaultSpecError::DegradeFactorBelowOne)
        );
        assert_eq!(
            FaultPlan::parse("link-degrade:0.5:nope", 0),
            Err(FaultSpecError::BadNumber {
                term: "link-degrade:0.5:nope".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("link-degrade:nope:2", 0),
            Err(FaultSpecError::BadNumber {
                term: "link-degrade:nope:2".to_string()
            })
        );
        assert_eq!(
            FaultPlan::parse("link-degrade:-0.1", 0),
            Err(FaultSpecError::RateOutOfRange {
                term: "link-degrade:-0.1".to_string()
            })
        );
        // The errors render as messages the CLI can print directly.
        let msg = FaultPlan::parse("gamma:0.1", 0)
            .expect_err("must fail")
            .to_string();
        assert!(msg.contains("gamma"), "message names the bad kind: {msg}");
    }

    #[test]
    fn link_and_crash_faults_are_their_own_classes() {
        let link = FaultPlan::parse("link-degrade:0.5:3,link-loss:0.2", 11).expect("valid spec");
        assert!(link.is_active() && link.has_link_faults());
        assert!(
            !link.has_exec_faults() && !link.has_mem_faults() && !link.has_device_faults(),
            "link faults must not activate ABFT, OOM, or re-shard paths"
        );

        let crash = FaultPlan::parse("crash:0.5", 11).expect("valid spec");
        assert!(crash.is_active() && crash.has_crash_faults());
        assert!(
            !crash.has_exec_faults()
                && !crash.has_mem_faults()
                && !crash.has_device_faults()
                && !crash.has_link_faults(),
            "crash faults touch only the checkpoint filesystem"
        );

        // Link draws are deterministic and re-rolled by attempt.
        let a: Vec<bool> = (0..200).map(|l| link.link_degraded("hbcsf", l)).collect();
        let b: Vec<bool> = (0..200).map(|l| link.link_degraded("hbcsf", l)).collect();
        assert_eq!(a, b, "same plan, same degraded links");
        let c: Vec<bool> = (0..200)
            .map(|l| link.with_attempt(1).link_degraded("hbcsf", l))
            .collect();
        assert_ne!(a, c, "retry attempt re-rolls link degradation");
        let lost: Vec<bool> = (0..200).map(|l| link.link_lost("hbcsf", l)).collect();
        assert_ne!(a, lost, "degrade and loss draw on independent streams");
        let hits = lost.iter().filter(|&&x| x).count();
        assert!((20..70).contains(&hits), "rate 0.2 over 200 links: {hits}");

        // Crash draws fire at the configured rate and report a torn
        // fraction in [0, 1).
        let crashes: Vec<Option<f64>> = (0..200).map(|s| crash.write_crash("job3", s)).collect();
        let fired = crashes.iter().flatten().count();
        assert!(
            (60..140).contains(&fired),
            "rate 0.5 over 200 writes: {fired}"
        );
        for frac in crashes.iter().flatten() {
            assert!((0.0..1.0).contains(frac));
        }
        assert_eq!(
            crashes,
            (0..200)
                .map(|s| crash.write_crash("job3", s))
                .collect::<Vec<_>>(),
            "crash draws are deterministic"
        );
        assert!(
            (0..200).all(|s| FaultPlan::disabled().write_crash("job3", s).is_none()),
            "inert plans never crash a write"
        );
    }

    #[test]
    fn device_loss_is_its_own_fault_class() {
        let p = FaultPlan::parse("device-loss:0.5", 3).expect("valid spec");
        assert!(p.is_active());
        assert!(p.has_device_faults());
        assert!(
            !p.has_exec_faults() && !p.has_mem_faults(),
            "device losses must not activate ABFT or OOM paths"
        );

        // Draws are deterministic, kernel-keyed, and re-rolled by attempt.
        let a: Vec<bool> = (0..200).map(|d| p.device_lost("hbcsf", d)).collect();
        let b: Vec<bool> = (0..200).map(|d| p.device_lost("hbcsf", d)).collect();
        assert_eq!(a, b, "same plan, same losses");
        let c: Vec<bool> = (0..200)
            .map(|d| p.with_attempt(1).device_lost("hbcsf", d))
            .collect();
        assert_ne!(a, c, "retry attempt re-rolls device losses");
        let hits = a.iter().filter(|&&x| x).count();
        assert!(
            (60..140).contains(&hits),
            "rate 0.5 over 200 devices: {hits}"
        );

        // Loss progress is a fraction in [0, 1).
        for d in 0..50 {
            let f = p.device_loss_progress("hbcsf", d);
            assert!((0.0..1.0).contains(&f));
        }

        // An inert rate never fires.
        let none = FaultPlan::disabled();
        assert!((0..100).all(|d| !none.device_lost("hbcsf", d)));
    }

    #[test]
    fn memory_faults_are_split_from_exec_faults() {
        let mem_only = FaultPlan::parse("oom:0.2,frag:0.1", 5).expect("valid spec");
        assert!(mem_only.is_active());
        assert!(mem_only.has_mem_faults());
        assert!(!mem_only.has_exec_faults());
        assert!((mem_only.oom_rate - 0.2).abs() < 1e-12);
        assert!((mem_only.frag_frac - 0.1).abs() < 1e-12);

        let exec_only = FaultPlan::bitflips(0.1, 5);
        assert!(exec_only.has_exec_faults() && !exec_only.has_mem_faults());

        // OOM draws are deterministic, site-keyed, and re-rolled by attempt.
        let a: Vec<bool> = (0..200).map(|s| mem_only.alloc_fails("k", s)).collect();
        let b: Vec<bool> = (0..200).map(|s| mem_only.alloc_fails("k", s)).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = (0..200)
            .map(|s| mem_only.with_attempt(1).alloc_fails("k", s))
            .collect();
        assert_ne!(a, c, "retry attempt re-rolls OOM draws");
        let hits = a.iter().filter(|&&x| x).count();
        assert!(hits > 10 && hits < 80, "rate 0.2 over 200 sites: {hits}");
    }

    #[test]
    fn plan_serializes() {
        let p = FaultPlan::bitflips(1e-3, 7);
        let js = serde_json::to_string(&p).expect("serialize");
        assert!(js.contains("\"bitflip_rate\":0.001"));
        assert!(js.contains("\"seed\":7"));
    }
}

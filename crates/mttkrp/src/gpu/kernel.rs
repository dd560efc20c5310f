//! The unified kernel abstraction: one trait all six simulated-GPU
//! MTTKRP kernels implement, plus a format-erased [`AnyFormat`] enum so
//! routers, schedulers, and the multi-device engine can dispatch over
//! kernels generically.
//!
//! Historically each kernel module exposed its own `run`/`plan` free
//! functions with copy-pasted signatures; anything driving "some kernel"
//! had to hand-wire a six-way match. [`MttkrpKernel`] replaces that:
//! a format captures itself into a [`Plan`] (`capture`), and everything
//! downstream — replay, out-of-core tiling, ABFT, sharding — already
//! works on plans. The old free functions have been deleted; the capture
//! bodies live on as `pub(crate)` implementation details.

use std::str::FromStr;
use std::sync::Arc;

use sptensor::{mode_orientation, CooTensor, Index};
use tensor_formats::{ArrayBytes, Bcsf, BcsfOptions, Csf, Csl, Fcoo, Hbcsf};

use super::common::GpuContext;
use super::exec::LaunchError;
use super::plan::{Plan, PlanBuilder};

/// A sparse-tensor layout that can capture a simulated-GPU MTTKRP launch
/// over itself as a replayable [`Plan`].
///
/// Everything value-dependent lives in the plan's replay; everything
/// structure-dependent is fixed at capture. Implementors are the format
/// types themselves ([`Bcsf`], [`Csf`], [`Csl`], [`Fcoo`], [`Hbcsf`])
/// plus the format-erased [`AnyFormat`].
pub trait MttkrpKernel {
    /// The launch name the capture will carry (e.g. `"hb-csf"`).
    fn kernel_name(&self) -> &'static str;

    /// The output mode the kernel computes (the layout's `perm[0]`).
    fn output_mode(&self) -> usize;

    /// The tensor dimensions the layout was built for.
    fn dims(&self) -> &[Index];

    /// Captures the kernel as a replayable [`Plan`] for rank `rank`. The
    /// plan keeps a copy of the layout to re-emit block ranges from
    /// (callers that own the layout skip the copy through
    /// `ModePlans` or `Executor::build_run`).
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan;
}

impl MttkrpKernel for Bcsf {
    fn kernel_name(&self) -> &'static str {
        "b-csf"
    }
    fn output_mode(&self) -> usize {
        Bcsf::output_mode(self)
    }
    fn dims(&self) -> &[Index] {
        &self.csf.dims
    }
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(AnyFormat::Bcsf(self.clone())).capture_shared(ctx, rank)
    }
}

impl MttkrpKernel for Csf {
    fn kernel_name(&self) -> &'static str {
        "gpu-csf"
    }
    fn output_mode(&self) -> usize {
        Csf::output_mode(self)
    }
    fn dims(&self) -> &[Index] {
        &self.dims
    }
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(AnyFormat::Csf(self.clone())).capture_shared(ctx, rank)
    }
}

impl MttkrpKernel for Csl {
    fn kernel_name(&self) -> &'static str {
        "csl"
    }
    fn output_mode(&self) -> usize {
        Csl::output_mode(self)
    }
    fn dims(&self) -> &[Index] {
        &self.dims
    }
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(AnyFormat::Csl(self.clone())).capture_shared(ctx, rank)
    }
}

impl MttkrpKernel for Fcoo {
    fn kernel_name(&self) -> &'static str {
        "f-coo-gpu"
    }
    fn output_mode(&self) -> usize {
        Fcoo::output_mode(self)
    }
    fn dims(&self) -> &[Index] {
        &self.dims
    }
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(AnyFormat::Fcoo(self.clone())).capture_shared(ctx, rank)
    }
}

impl MttkrpKernel for Hbcsf {
    fn kernel_name(&self) -> &'static str {
        "hb-csf"
    }
    fn output_mode(&self) -> usize {
        Hbcsf::output_mode(self)
    }
    fn dims(&self) -> &[Index] {
        &self.dims
    }
    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(AnyFormat::Hbcsf(self.clone())).capture_shared(ctx, rank)
    }
}

/// Which of the six simulated-GPU kernels to build/run — the CLI string
/// namespace (`--kernel`) and the generic constructors' selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum KernelKind {
    /// ParTI-style nonzero-parallel COO (third-order only).
    Coo,
    /// F-COO segmented scan (third-order only).
    Fcoo,
    /// Naive GPU-CSF (block per slice).
    Csf,
    /// B-CSF with fiber/slice splitting.
    Bcsf,
    /// CSL warp-packed slices.
    Csl,
    /// The composite HB-CSF kernel.
    Hbcsf,
}

impl KernelKind {
    /// All six kinds, in the paper's presentation order.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::Coo,
        KernelKind::Fcoo,
        KernelKind::Csf,
        KernelKind::Bcsf,
        KernelKind::Csl,
        KernelKind::Hbcsf,
    ];

    /// The canonical CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelKind::Coo => "coo",
            KernelKind::Fcoo => "fcoo",
            KernelKind::Csf => "csf",
            KernelKind::Bcsf => "bcsf",
            KernelKind::Csl => "csl",
            KernelKind::Hbcsf => "hbcsf",
        }
    }

    /// `Ok` when the kernel can run on an order-`order` tensor. COO and
    /// F-COO are third-order only, per the paper's figures; B-CSF and
    /// HB-CSF need a fiber level below the slices (order 3 and up), CSF
    /// and CSL only a tree of two levels.
    pub fn check_order(&self, order: usize) -> Result<(), LaunchError> {
        let supported = match self {
            KernelKind::Coo | KernelKind::Fcoo => order == 3,
            KernelKind::Bcsf | KernelKind::Hbcsf => order >= 3,
            KernelKind::Csf | KernelKind::Csl => order >= 2,
        };
        if !supported {
            return Err(LaunchError::OrderUnsupported {
                kernel: self.as_str(),
                order,
            });
        }
        Ok(())
    }
}

impl FromStr for KernelKind {
    type Err = LaunchError;

    fn from_str(s: &str) -> Result<KernelKind, LaunchError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "coo" | "parti-coo" | "parti" => Ok(KernelKind::Coo),
            "fcoo" | "f-coo" => Ok(KernelKind::Fcoo),
            "csf" | "gpu-csf" => Ok(KernelKind::Csf),
            "bcsf" | "b-csf" => Ok(KernelKind::Bcsf),
            "csl" => Ok(KernelKind::Csl),
            "hbcsf" | "hb-csf" => Ok(KernelKind::Hbcsf),
            other => Err(LaunchError::UnknownKernel(other.to_string())),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Format-construction knobs for [`AnyFormat::build`]. Defaults match
/// the free functions the builder replaces.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Splitting options for the B-CSF/HB-CSF family.
    pub bcsf: BcsfOptions,
    /// Per-thread chunk length for F-COO.
    pub fcoo_threadlen: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            bcsf: BcsfOptions::default(),
            fcoo_threadlen: super::fcoo::DEFAULT_THREADLEN,
        }
    }
}

/// An owned, format-erased kernel input: any of the six layouts, built
/// uniformly from a COO tensor. This is what generic drivers hold when
/// the format is chosen at runtime (CLI flags, sweeps, the sharded CPD
/// driver).
// Variant sizes span raw COO to HB-CSF's three-part hybrid; the enum is
// built once per (tensor, mode) and never stored in bulk, so boxing would
// buy nothing but indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyFormat {
    /// Raw COO for the ParTI-style kernel (third-order only).
    Coo {
        tensor: CooTensor,
        mode: usize,
    },
    Fcoo(Fcoo),
    Csf(Csf),
    Bcsf(Bcsf),
    Csl(Csl),
    Hbcsf(Hbcsf),
}

impl AnyFormat {
    /// Builds the `kind` layout of `t` oriented for output mode `mode`.
    ///
    /// Unlike the historical per-module constructors this is total: an
    /// out-of-range mode or an order the kernel cannot handle comes back
    /// as a typed [`LaunchError`] instead of a panic deep in the build.
    pub fn build(
        kind: KernelKind,
        t: &CooTensor,
        mode: usize,
        opts: &BuildOptions,
    ) -> Result<AnyFormat, LaunchError> {
        let order = t.order();
        if mode >= order {
            return Err(LaunchError::ModeOutOfRange { mode, order });
        }
        kind.check_order(order)?;
        let perm = mode_orientation(order, mode);
        Ok(match kind {
            KernelKind::Coo => AnyFormat::Coo {
                tensor: t.clone(),
                mode,
            },
            KernelKind::Fcoo => AnyFormat::Fcoo(Fcoo::build(t, &perm, opts.fcoo_threadlen)),
            KernelKind::Csf => AnyFormat::Csf(Csf::build(t, &perm)),
            KernelKind::Bcsf => AnyFormat::Bcsf(Bcsf::build(t, &perm, opts.bcsf)),
            KernelKind::Csl => AnyFormat::Csl(Csl::build(t, &perm)),
            KernelKind::Hbcsf => AnyFormat::Hbcsf(Hbcsf::build(t, &perm, opts.bcsf)),
        })
    }

    /// Runs the kernel's capture body into `pb`: the array layout and every
    /// block, `warps_per_block` warps at most per block. A
    /// [`AnyFormat::Csf`] emits through the unsplit B-CSF body.
    pub(crate) fn capture_into(&self, rank: usize, warps_per_block: usize, pb: &mut PlanBuilder) {
        match self {
            AnyFormat::Coo { tensor, mode } => {
                super::parti_coo::capture_into(tensor, *mode, rank, warps_per_block, pb)
            }
            AnyFormat::Fcoo(f) => super::fcoo::capture_into(f, rank, warps_per_block, pb),
            AnyFormat::Csf(f) => {
                let unsplit = Bcsf::from_csf(f.clone(), BcsfOptions::unsplit());
                super::bcsf::capture_into(&unsplit, rank, warps_per_block, pb)
            }
            AnyFormat::Bcsf(f) => super::bcsf::capture_into(f, rank, warps_per_block, pb),
            AnyFormat::Csl(f) => super::csl::capture_into(f, rank, warps_per_block, pb),
            AnyFormat::Hbcsf(f) => super::hbcsf::capture_into(f, rank, warps_per_block, pb),
        }
    }

    /// Captures this layout as a [`Plan`] for rank `rank` that keeps the
    /// layout to re-emit from. A CSF layout is kept as the unsplit B-CSF
    /// its kernel emits through, so a re-emission does not rebuild it.
    pub(crate) fn capture_shared(self: Arc<Self>, ctx: &GpuContext, rank: usize) -> Plan {
        let name = self.kernel_name();
        let source = match &*self {
            AnyFormat::Csf(f) => Arc::new(AnyFormat::Bcsf(Bcsf::from_csf(
                f.clone(),
                BcsfOptions::unsplit(),
            ))),
            _ => self,
        };
        Plan::capture(ctx, name, source, rank)
    }

    /// Bytes of every array the layout holds (its index arrays and
    /// values; growth slack not counted).
    pub fn array_bytes(&self) -> u64 {
        match self {
            AnyFormat::Coo { tensor, .. } => tensor.array_bytes(),
            AnyFormat::Fcoo(f) => f.array_bytes(),
            AnyFormat::Csf(f) => f.array_bytes(),
            AnyFormat::Bcsf(f) => f.array_bytes(),
            AnyFormat::Csl(f) => f.array_bytes(),
            AnyFormat::Hbcsf(f) => f.array_bytes(),
        }
    }

    /// Which kernel this layout drives.
    pub fn kind(&self) -> KernelKind {
        match self {
            AnyFormat::Coo { .. } => KernelKind::Coo,
            AnyFormat::Fcoo(_) => KernelKind::Fcoo,
            AnyFormat::Csf(_) => KernelKind::Csf,
            AnyFormat::Bcsf(_) => KernelKind::Bcsf,
            AnyFormat::Csl(_) => KernelKind::Csl,
            AnyFormat::Hbcsf(_) => KernelKind::Hbcsf,
        }
    }
}

impl MttkrpKernel for AnyFormat {
    fn kernel_name(&self) -> &'static str {
        match self {
            AnyFormat::Coo { .. } => "parti-coo-gpu",
            AnyFormat::Fcoo(f) => f.kernel_name(),
            AnyFormat::Csf(f) => f.kernel_name(),
            AnyFormat::Bcsf(f) => f.kernel_name(),
            AnyFormat::Csl(f) => f.kernel_name(),
            AnyFormat::Hbcsf(f) => f.kernel_name(),
        }
    }

    fn output_mode(&self) -> usize {
        match self {
            AnyFormat::Coo { mode, .. } => *mode,
            AnyFormat::Fcoo(f) => MttkrpKernel::output_mode(f),
            AnyFormat::Csf(f) => MttkrpKernel::output_mode(f),
            AnyFormat::Bcsf(f) => MttkrpKernel::output_mode(f),
            AnyFormat::Csl(f) => MttkrpKernel::output_mode(f),
            AnyFormat::Hbcsf(f) => MttkrpKernel::output_mode(f),
        }
    }

    fn dims(&self) -> &[Index] {
        match self {
            AnyFormat::Coo { tensor, .. } => tensor.dims(),
            AnyFormat::Fcoo(f) => MttkrpKernel::dims(f),
            AnyFormat::Csf(f) => MttkrpKernel::dims(f),
            AnyFormat::Bcsf(f) => MttkrpKernel::dims(f),
            AnyFormat::Csl(f) => MttkrpKernel::dims(f),
            AnyFormat::Hbcsf(f) => MttkrpKernel::dims(f),
        }
    }

    fn capture(&self, ctx: &GpuContext, rank: usize) -> Plan {
        Arc::new(self.clone()).capture_shared(ctx, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sptensor::synth::uniform_random;

    #[test]
    fn kinds_round_trip_through_strings() {
        for kind in KernelKind::ALL {
            assert_eq!(kind.as_str().parse::<KernelKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!("hb-csf".parse::<KernelKind>().unwrap(), KernelKind::Hbcsf);
        assert_eq!("parti-coo".parse::<KernelKind>().unwrap(), KernelKind::Coo);
        assert!(matches!(
            "splatt".parse::<KernelKind>(),
            Err(LaunchError::UnknownKernel(_))
        ));
    }

    #[test]
    fn build_rejects_bad_mode_and_order() {
        let t3 = uniform_random(&[6, 7, 8], 100, 7);
        let t4 = uniform_random(&[4, 4, 4, 4], 80, 8);
        let opts = BuildOptions::default();
        assert!(matches!(
            AnyFormat::build(KernelKind::Hbcsf, &t3, 3, &opts),
            Err(LaunchError::ModeOutOfRange { mode: 3, order: 3 })
        ));
        for kind in [KernelKind::Coo, KernelKind::Fcoo] {
            assert!(matches!(
                AnyFormat::build(kind, &t4, 0, &opts),
                Err(LaunchError::OrderUnsupported { order: 4, .. })
            ));
        }
        assert!(AnyFormat::build(KernelKind::Csf, &t4, 2, &opts).is_ok());
    }

    #[test]
    fn build_rejects_orders_below_the_format_minimum() {
        let t1 = uniform_random(&[9], 5, 3);
        let t2 = uniform_random(&[6, 7], 20, 4);
        let opts = BuildOptions::default();
        for kind in KernelKind::ALL {
            for t in [&t1, &t2] {
                let built = AnyFormat::build(kind, t, 0, &opts);
                if t.order() == 2 && matches!(kind, KernelKind::Csf | KernelKind::Csl) {
                    assert!(built.is_ok(), "{kind} order {}", t.order());
                } else {
                    assert!(
                        matches!(built, Err(LaunchError::OrderUnsupported { order, .. }) if order == t.order()),
                        "{kind} order {}",
                        t.order()
                    );
                }
            }
        }
    }

    #[test]
    fn every_kind_captures_and_matches_reference() {
        let ctx = GpuContext::tiny();
        let t = uniform_random(&[12, 14, 16], 500, 9);
        let factors = reference::random_factors(&t, 8, 10);
        for kind in KernelKind::ALL {
            for mode in 0..3 {
                let f = AnyFormat::build(kind, &t, mode, &BuildOptions::default()).unwrap();
                assert_eq!(f.kind(), kind);
                assert_eq!(MttkrpKernel::output_mode(&f), mode);
                assert_eq!(MttkrpKernel::dims(&f), t.dims());
                let run = f.capture(&ctx, 8).execute(&ctx, &factors).unwrap();
                let seq = reference::mttkrp(&t, &factors, mode);
                assert!(
                    crate::outputs_match(&run.y, &seq),
                    "{kind} mode {mode} diverged"
                );
            }
        }
    }
}

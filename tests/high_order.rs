//! Order-5 coverage: the paper evaluates orders 3-4, but the formats and
//! CPU kernels are order-generic — these tests pin that generality.

use mttkrp_repro::mttkrp::cpu::splatt::{self, SplattOptions};
use mttkrp_repro::mttkrp::gpu::{GpuContext, KernelKind};

mod util;
use mttkrp_repro::mttkrp::{outputs_match, reference};
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::{identity_perm, mode_orientation};
use mttkrp_repro::tensor_formats::{BcsfOptions, Csf, Fcoo, Hbcsf, Hicoo, IndexBytes};
use util::build_run_default;

#[test]
fn order5_formats_round_trip() {
    let t = uniform_random(&[5, 6, 7, 4, 8], 500, 201);
    for mode in 0..5 {
        let perm = mode_orientation(5, mode);
        let csf = Csf::build(&t, &perm);
        csf.validate().unwrap();
        let mut back = csf.to_coo();
        back.sort_by_perm(&identity_perm(5));
        let mut orig = t.clone();
        orig.sort_by_perm(&identity_perm(5));
        assert_eq!(back, orig, "CSF mode {mode}");
    }
    let f = Fcoo::build(&t, &identity_perm(5), 8);
    f.validate().unwrap();
    assert_eq!(f.to_coo().nnz(), t.nnz());
    let h = Hicoo::build(&t, 4);
    h.validate().unwrap();
    assert_eq!(h.to_coo().nnz(), t.nnz());
}

#[test]
fn order5_kernels_match_reference() {
    let t = uniform_random(&[6, 5, 7, 4, 6], 400, 202);
    let factors = reference::random_factors(&t, 4, 17);
    let ctx = GpuContext::tiny();
    for mode in 0..5 {
        let expected = reference::mttkrp(&t, &factors, mode);
        let y = splatt::mttkrp(&t, &factors, mode, SplattOptions::nontiled());
        assert!(outputs_match(&y, &expected), "splatt mode {mode}");
        let run = build_run_default(&ctx, KernelKind::Hbcsf, &t, &factors, mode);
        assert!(outputs_match(&run.y, &expected), "hbcsf mode {mode}");
    }
}

#[test]
fn order5_hbcsf_storage_still_bounded_by_csf() {
    let t = uniform_random(&[8, 8, 8, 8, 8], 600, 203);
    let perm = identity_perm(5);
    let csf = Csf::build(&t, &perm);
    let hb = Hbcsf::build(&t, &perm, BcsfOptions::unsplit());
    assert!(hb.index_bytes() <= csf.index_bytes());
    assert_eq!(hb.nnz(), t.nnz());
}

#[test]
fn order5_onemode_serves_all_five_modes() {
    let t = uniform_random(&[5, 6, 4, 7, 5], 300, 204);
    let factors = reference::random_factors(&t, 3, 18);
    let om = mttkrp_repro::mttkrp::cpu::onemode::SplattOneMode::build_default_root(&t);
    for mode in 0..5 {
        let y = om.mttkrp(&factors, mode);
        let expected = reference::mttkrp(&t, &factors, mode);
        assert!(outputs_match(&y, &expected), "onemode mode {mode}");
    }
}

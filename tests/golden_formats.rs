//! Golden bits of every storage format. Each format's builder is pinned
//! by an FNV-1a hash over all of its arrays (lengths included), so a
//! change to how the formats are built — a new sort, a new fill loop, a
//! new way of partitioning HB-CSF — is held to bit-identity with the
//! builders these values were recorded from.
//!
//! The tensors cover orders 3 and 4, every mode orientation, fibers long
//! enough to split and slices heavy enough to bin across blocks, slices
//! light enough to land in HB-CSF's COO and CSL groups, and a tensor
//! carrying duplicate coordinates (pushed directly, since the synthetic
//! generators fold duplicates away), where the order of equal entries is
//! whatever the sort leaves.
//!
//! On a mismatch the assertion prints the whole table as recomputed, in
//! the layout of [`GOLDEN`].

use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::{mode_orientation, CooTensor};
use mttkrp_repro::tensor_formats::{
    Bcsf, BcsfOptions, BitVec, Csf, Csl, Fcoo, Hbcsf, Hicoo, SliceClass,
};

/// One pinned build: tensor index, mode (`usize::MAX` for HiCOO, which
/// has no orientation), format, hash of all its arrays.
type Golden = (usize, usize, &'static str, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (0, 0, "csf", 0x79c9a8dce4c3d8e5),
    (0, 0, "bcsf", 0x1c7e09fd5cfe1c71),
    (0, 0, "bcsf-unsplit", 0x5b399d8df6b850bc),
    (0, 0, "hbcsf", 0xc72aad5ea5d8d7f6),
    (0, 0, "csl", 0x84ccf37825f21e23),
    (0, 0, "fcoo", 0x23566c0d488ffd09),
    (0, 1, "csf", 0xd410a9d473f48cb6),
    (0, 1, "bcsf", 0xcdd3ec5c0a8f9f1a),
    (0, 1, "bcsf-unsplit", 0x899eec75d8a23189),
    (0, 1, "hbcsf", 0xa418912622a42f24),
    (0, 1, "csl", 0xdb71836256fa59ec),
    (0, 1, "fcoo", 0xb777e69a4b876048),
    (0, 2, "csf", 0x30048f2a35b3308d),
    (0, 2, "bcsf", 0xc7589a9466e56b8b),
    (0, 2, "bcsf-unsplit", 0xc7589a9466e56b8b),
    (0, 2, "hbcsf", 0xc97c2f513b359e88),
    (0, 2, "csl", 0xce4e964fdec0fece),
    (0, 2, "fcoo", 0x921038c1e6221f7f),
    (0, HICOO, "hicoo-2", 0xe383395b69565a0b),
    (0, HICOO, "hicoo-7", 0xd0702caa41d2cb90),
    (1, 0, "csf", 0xec8b744ed0463a3f),
    (1, 0, "bcsf", 0x51ed659f53ffce09),
    (1, 0, "bcsf-unsplit", 0x9b5203680938b242),
    (1, 0, "hbcsf", 0x4117964d3cd7b033),
    (1, 0, "csl", 0x76f47bf16805252c),
    (1, 0, "fcoo", 0x78c4cc367cb50323),
    (1, 1, "csf", 0x822729562a5debe9),
    (1, 1, "bcsf", 0x17fe7d17b8a821bd),
    (1, 1, "bcsf-unsplit", 0x2397ac777bb0a431),
    (1, 1, "hbcsf", 0x68840a89ebf2c4a0),
    (1, 1, "csl", 0xbc2fc296699307c2),
    (1, 1, "fcoo", 0xd819438997727172),
    (1, 2, "csf", 0xd8b0c4de53045f8a),
    (1, 2, "bcsf", 0xc7c3493d8a8073b0),
    (1, 2, "bcsf-unsplit", 0xcbba93d1e23ee396),
    (1, 2, "hbcsf", 0xe6ada6a660b94994),
    (1, 2, "csl", 0x415416d4b7c8dd0e),
    (1, 2, "fcoo", 0xe3acb38441f3f25c),
    (1, 3, "csf", 0xd4951c3b5e39a5f1),
    (1, 3, "bcsf", 0x103d0187331edea3),
    (1, 3, "bcsf-unsplit", 0x103d0187331edea3),
    (1, 3, "hbcsf", 0x791578b2e1c5c4e1),
    (1, 3, "csl", 0x5908d89eb1bb34ad),
    (1, 3, "fcoo", 0xc4d7c3feeeb63970),
    (1, HICOO, "hicoo-2", 0xcb81d9af31024760),
    (1, HICOO, "hicoo-7", 0xdc1cfdb4cdf320b8),
    (2, 0, "csf", 0xcda4ca52792feb63),
    (2, 0, "bcsf", 0x46b8c553c8918da0),
    (2, 0, "bcsf-unsplit", 0x46b8c553c8918da0),
    (2, 0, "hbcsf", 0xe653ca66d71d887c),
    (2, 0, "csl", 0xbcc8ceed3ff3ac2b),
    (2, 0, "fcoo", 0xa7ed65d6f281386c),
    (2, 1, "csf", 0x2a409baa636fc743),
    (2, 1, "bcsf", 0xd19b39e3119e84e1),
    (2, 1, "bcsf-unsplit", 0xd19b39e3119e84e1),
    (2, 1, "hbcsf", 0x541d41aa190ed71b),
    (2, 1, "csl", 0x1e8268961d2de9a4),
    (2, 1, "fcoo", 0xf3524cdf4e33c68d),
    (2, 2, "csf", 0x4817440529ad3541),
    (2, 2, "bcsf", 0x3af9dcfb7fec1a1d),
    (2, 2, "bcsf-unsplit", 0x3af9dcfb7fec1a1d),
    (2, 2, "hbcsf", 0x007e63901b93ec31),
    (2, 2, "csl", 0x82ce606102ae95d5),
    (2, 2, "fcoo", 0xac84160d99084bfa),
    (2, HICOO, "hicoo-2", 0x9d32e2d6d03602ae),
    (2, HICOO, "hicoo-7", 0xa69ab744c07645eb),
    (3, 0, "csf", 0x651728c7d6f7a982),
    (3, 0, "bcsf", 0xc8d7d764b80b1cba),
    (3, 0, "bcsf-unsplit", 0xc8d7d764b80b1cba),
    (3, 0, "hbcsf", 0x8a3f1838d16c9517),
    (3, 0, "csl", 0xabf4f27f8312a4a0),
    (3, 0, "fcoo", 0x69f025232ef3c144),
    (3, 1, "csf", 0xf3afbec78ae42692),
    (3, 1, "bcsf", 0x3e151be06a731a4f),
    (3, 1, "bcsf-unsplit", 0x3e151be06a731a4f),
    (3, 1, "hbcsf", 0xb6c8cd91713edc75),
    (3, 1, "csl", 0xef160709e89196d7),
    (3, 1, "fcoo", 0x13c6866c53fcdb6c),
    (3, 2, "csf", 0xfa536b977512ae0f),
    (3, 2, "bcsf", 0x79e2505859dac273),
    (3, 2, "bcsf-unsplit", 0x79e2505859dac273),
    (3, 2, "hbcsf", 0xdbd19dd8f7a4b8d3),
    (3, 2, "csl", 0x468c74466ceaaf66),
    (3, 2, "fcoo", 0xdc57fb1df747e8d7),
    (3, 3, "csf", 0x326ed8b575abd1a6),
    (3, 3, "bcsf", 0x06258f3536680731),
    (3, 3, "bcsf-unsplit", 0x06258f3536680731),
    (3, 3, "hbcsf", 0x036c3a079e7cfacc),
    (3, 3, "csl", 0xf0819ec3712d15b5),
    (3, 3, "fcoo", 0x6a2122600cdad86f),
    (3, HICOO, "hicoo-2", 0xa2bf93ea17b5bc60),
    (3, HICOO, "hicoo-7", 0x4ec4f09a8e8ef8bd),
];

const HICOO: usize = usize::MAX;

fn tensors() -> Vec<CooTensor> {
    let mut dup3 = uniform_random(&[7, 5, 300], 1_200, 0xD0B3);
    let mut dup4 = uniform_random(&[4, 5, 3, 200], 900, 0xD0B4);
    for t in [&mut dup3, &mut dup4] {
        // Re-push every third entry with a new value, and a few twice,
        // so runs of two and three equal coordinates exist.
        for z in (0..t.nnz()).step_by(3) {
            let c = t.coords_of(z);
            t.push(&c, z as f32 * 0.25 + 1.0);
            if z % 9 == 0 {
                t.push(&c, -(z as f32));
            }
        }
    }
    vec![
        uniform_random(&[6, 5, 900], 4_000, 0x601F),
        uniform_random(&[5, 4, 3, 700], 3_000, 0x6014),
        dup3,
        dup4,
    ]
}

/// FNV-1a, fed word by word (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// An array: its length, then each element's bits.
    fn array<T: Copy>(&mut self, xs: &[T], bits: impl Fn(T) -> u64) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(bits(x));
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.array(xs, u64::from);
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.array(xs, |v| u64::from(v.to_bits()));
    }

    fn bits(&mut self, b: &BitVec) {
        let set: Vec<bool> = (0..b.len()).map(|i| b.get(i)).collect();
        self.array(&set, u64::from);
    }
}

fn hash_csf(h: &mut Fnv, c: &Csf) {
    h.u32s(&c.dims);
    h.array(&c.perm, |p| p as u64);
    h.word(c.level_idx.len() as u64);
    for (idx, ptr) in c.level_idx.iter().zip(&c.level_ptr) {
        h.u32s(idx);
        h.u32s(ptr);
    }
    h.u32s(&c.leaf_idx);
    h.f32s(&c.vals);
}

fn hash_bcsf(h: &mut Fnv, b: &Bcsf) {
    hash_csf(h, &b.csf);
    h.word(b.blocks.len() as u64);
    for blk in &b.blocks {
        h.word(blk.slice.into());
        h.word(blk.fiber_begin.into());
        h.word(blk.fiber_end.into());
        h.word(blk.needs_atomic.into());
    }
}

fn hash_csl(h: &mut Fnv, c: &Csl) {
    h.u32s(&c.dims);
    h.array(&c.perm, |p| p as u64);
    h.u32s(&c.slice_ptr);
    h.u32s(&c.slice_idx);
    for arr in &c.coord {
        h.u32s(arr);
    }
    h.f32s(&c.vals);
}

fn hash_hbcsf(h: &mut Fnv, hb: &Hbcsf) {
    h.u32s(&hb.dims);
    h.array(&hb.perm, |p| p as u64);
    h.array(&hb.classes, |c| match c {
        SliceClass::Coo => 0,
        SliceClass::Csl => 1,
        SliceClass::Csf => 2,
    });
    for arr in &hb.coo_coord {
        h.u32s(arr);
    }
    h.f32s(&hb.coo_vals);
    hash_csl(h, &hb.csl);
    hash_bcsf(h, &hb.bcsf);
}

fn hash_fcoo(h: &mut Fnv, f: &Fcoo) {
    h.u32s(&f.dims);
    h.array(&f.perm, |p| p as u64);
    h.word(f.threadlen as u64);
    for arr in &f.coord {
        h.u32s(arr);
    }
    h.f32s(&f.vals);
    h.bits(&f.slice_flag);
    h.bits(&f.fiber_flag);
    h.u32s(&f.slice_ids);
    h.u32s(&f.chunk_start_slice);
}

fn hash_hicoo(h: &mut Fnv, c: &Hicoo) {
    h.u32s(&c.dims);
    h.word(c.block_bits.into());
    h.u32s(&c.bptr);
    for arr in &c.bidx {
        h.u32s(arr);
    }
    for arr in &c.eidx {
        h.array(arr, u64::from);
    }
    h.f32s(&c.vals);
}

fn hashed(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
}

/// Every build of the table, in table order.
fn recompute() -> Vec<Golden> {
    let mut out = Vec::new();
    for (ti, t) in tensors().iter().enumerate() {
        for mode in 0..t.order() {
            let perm = mode_orientation(t.order(), mode);
            let mut row = |name, hash| out.push((ti, mode, name, hash));
            row("csf", hashed(|h| hash_csf(h, &Csf::build(t, &perm))));
            for (name, opts) in [
                ("bcsf", BcsfOptions::default()),
                ("bcsf-unsplit", BcsfOptions::unsplit()),
            ] {
                let b = Bcsf::build(t, &perm, opts);
                row(name, hashed(|h| hash_bcsf(h, &b)));
            }
            let hb = Hbcsf::build(t, &perm, BcsfOptions::default());
            row("hbcsf", hashed(|h| hash_hbcsf(h, &hb)));
            row("csl", hashed(|h| hash_csl(h, &Csl::build(t, &perm))));
            row("fcoo", hashed(|h| hash_fcoo(h, &Fcoo::build(t, &perm, 8))));
        }
        for bits in [2, Hicoo::DEFAULT_BLOCK_BITS] {
            let name = if bits == 2 { "hicoo-2" } else { "hicoo-7" };
            let c = Hicoo::build(t, bits);
            out.push((ti, HICOO, name, hashed(|h| hash_hicoo(h, &c))));
        }
    }
    out
}

#[test]
fn formats_reproduce_their_golden_bits() {
    let got = recompute();
    let table: String = got
        .iter()
        .map(|&(t, m, name, hash)| {
            let m = if m == HICOO {
                "HICOO".to_string()
            } else {
                m.to_string()
            };
            format!("    ({t}, {m}, {name:?}, {hash:#018x}),\n")
        })
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "format bits changed; recomputed table:\n{table}"
    );
}

#[test]
fn golden_tensors_exercise_every_group() {
    let ts = tensors();
    // The duplicate tensors really hold equal coordinates.
    for t in &ts[2..] {
        let mut s = t.clone();
        s.sort_by_perm(&mode_orientation(t.order(), 0));
        assert!(s.fold_duplicates() > 0);
    }
    // Some mode splits fibers and bins slices; some mode fills HB-CSF's
    // COO and CSL groups.
    let mut split = false;
    let mut light = false;
    for t in &ts {
        for mode in 0..t.order() {
            let perm = mode_orientation(t.order(), mode);
            let hb = Hbcsf::build(t, &perm, BcsfOptions::default());
            let (coo, csl, _) = hb.group_nnz();
            light |= coo > 0 && csl > 0;
            let b = Bcsf::build(t, &perm, BcsfOptions::default());
            split |= b.csf.num_fibers() > Csf::build(t, &perm).num_fibers()
                && b.blocks.iter().any(|blk| blk.needs_atomic);
        }
    }
    assert!(split && light);
}

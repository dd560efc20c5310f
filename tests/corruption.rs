//! Every binary file the workspace writes — a `.spt` tensor, a spill
//! run, a checkpoint and a plan file — is one container with four
//! schemas. Flipping any byte of a small file of each format, or cutting
//! it at any length, must give a typed error: never a panic, never a
//! result, and never an allocation sized from a corrupted count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use mttkrp_repro::dense::Matrix;
use mttkrp_repro::mttkrp::checkpoint::{decode, CheckpointStore};
use mttkrp_repro::mttkrp::gpu::stream::{capture_sharded_hbcsf, replay_mode};
use mttkrp_repro::mttkrp::gpu::{GpuContext, ShardStore};
use mttkrp_repro::mttkrp::reference::random_factors;
use mttkrp_repro::sptensor::synth::uniform_random;
use mttkrp_repro::sptensor::{
    ingest, BinSource, CooSource, DuplicatePolicy, IngestOptions, SpilledTensor,
};
use mttkrp_repro::tensor_formats::{BcsfOptions, Hbcsf};

/// The system allocator, recording the largest single request made on
/// each thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest allocation any read may make: the fixed read buffers
/// (1 MiB) plus a small multiple of the file's length.
fn allocation_bound(len: usize) -> usize {
    (1 << 20) + 64 * len.max(64)
}

/// Runs `read` over every one-byte flip and every truncation of the
/// file `clean`; each must fail within the allocation bound. `read`
/// gets the bytes to read (a file format writes them to its path).
fn assert_every_corruption_fails<T>(
    what: &str,
    clean: &[u8],
    mut read: impl FnMut(&[u8]) -> Result<T, String>,
) {
    assert!(read(clean).is_ok(), "{what}: the clean file must read");
    let mut check = |bytes: &[u8], case: String| {
        LARGEST.with(|l| l.set(0));
        let res = read(bytes);
        let largest = LARGEST.with(Cell::get);
        assert!(res.is_err(), "{what}: {case} was accepted");
        assert!(
            largest <= allocation_bound(clean.len()),
            "{what}: {case} allocated {largest} B"
        );
    };
    for at in 0..clean.len() {
        let mut bad = clean.to_vec();
        bad[at] ^= 0xFF;
        check(&bad, format!("byte {at} flipped"));
    }
    for len in 0..clean.len() {
        check(&clean[..len], format!("cut at {len} B"));
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sptk_corrupt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one file under `dir` (searched one level down) named `name`.
fn find(dir: &Path, name: &str) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path().join(name))
        .find(|p| p.exists())
        .unwrap_or_else(|| panic!("no {name} under {}", dir.display()))
}

#[test]
fn every_flip_and_cut_of_every_format_is_a_typed_error() {
    let t = uniform_random(&[5, 6, 7], 24, 0xC0);
    let keep = IngestOptions::new().with_policy(DuplicatePolicy::Keep);

    // A `.spt` tensor, read from memory.
    let mut spt = Vec::new();
    mttkrp_repro::sptensor::io::write_bin(&t, &mut spt).unwrap();
    assert_every_corruption_fails(".spt", &spt, |b| {
        let src = BinSource::new(b, b.len() as u64).map_err(|e| e.to_string())?;
        ingest(src, &keep).map_err(|e| e.to_string())
    });

    // The packed spill run of an ingest.
    let dir = scratch("spill");
    let mut dirs = vec![dir.clone()];
    let spilled = SpilledTensor::ingest(CooSource::new(t.clone()), &keep, &dir).unwrap();
    let run = find(&dir, "run000000.bin");
    let clean = std::fs::read(&run).unwrap();
    assert_every_corruption_fails("spill run", &clean, |b| {
        std::fs::write(&run, b).unwrap();
        spilled.to_coo().map_err(|e| e.to_string())
    });
    drop(spilled);

    // A checkpoint.
    let dir = scratch("ckpt");
    dirs.push(dir.clone());
    let factors: Vec<Matrix> = (0..3).map(|m| Matrix::random(4 + m, 3, m as u64)).collect();
    let mut store = CheckpointStore::open(&dir, "t").unwrap();
    store
        .write(2, &factors, &[1.0, 0.5, 0.25], &[0.1, 0.2])
        .unwrap();
    let path = dir.join("ckpt-00000000.spck");
    let clean = std::fs::read(&path).unwrap();
    assert_every_corruption_fails("checkpoint", &clean, |b| {
        decode(b, &path).map_err(|e| e.to_string())
    });

    // A plan file of the streamed driver's shard store.
    let dir = scratch("plan");
    dirs.push(dir.clone());
    let ctx = GpuContext::tiny();
    let h = Hbcsf::build(&t, &vec![0, 1, 2], BcsfOptions::default());
    let mut store = ShardStore::create(&dir).unwrap();
    capture_sharded_hbcsf(&ctx, &h, 4, 1, &mut store).unwrap();
    let factors = random_factors(&t, 4, 3);
    let plan = find(&dir, "mode0_shard0000.plan");
    let clean = std::fs::read(&plan).unwrap();
    assert_every_corruption_fails("plan file", &clean, |b| {
        std::fs::write(&plan, b).unwrap();
        replay_mode(&store, 0, 4, &factors).map_err(|e| e.to_string())
    });
    drop(store);
    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

//! FROSTT `.tns` text format I/O.
//!
//! The paper's datasets come from FROSTT and HaTen2 in the `.tns` format:
//! one nonzero per line, whitespace-separated **1-based** indices followed
//! by the value. Lines starting with `#` are comments. There is no header;
//! the mode extents are the per-mode maxima. This reproduction runs on
//! synthetic stand-ins by default, but real data can be dropped in: this
//! module writes `.tns` text and the `.spt` binary format, and
//! [`crate::source`] reads both back ([`TnsSource`](crate::source::TnsSource),
//! [`BinSource`](crate::source::BinSource), [`ingest`](crate::source::ingest)).

use std::io::{self, Write};

use crate::frame::FrameWriter;
use crate::{CooTensor, Index, Value};

/// What to do when two input nonzeros carry identical coordinates.
///
/// FROSTT files are supposed to be duplicate-free, but real exports are
/// not always clean, and which entry "wins" changes the tensor — so the
/// choice is surfaced as an explicit policy instead of a silent default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Fail with [`TensorError::Duplicate`](crate::TensorError::Duplicate)
    /// naming the line of the second occurrence. The default: ambiguous
    /// input is an error.
    #[default]
    Reject,
    /// Sum the values of coinciding nonzeros (the MTTKRP-consistent
    /// interpretation: COO contributions add).
    Sum,
    /// Keep every entry as stored. Downstream kernels treat duplicates as
    /// additive COO entries; formats may fold them.
    Keep,
}

/// Writes a tensor in `.tns` text (1-based indices). Values use Rust's
/// shortest round-trip `f32` formatting, so a re-read reproduces every
/// bit; non-finite values (which the reader rejects) are refused here
/// rather than silently producing an unreadable file.
pub fn write_tns<W: Write>(t: &CooTensor, mut writer: W) -> io::Result<()> {
    let coords: Vec<&[Index]> = (0..t.order()).map(|m| t.mode_indices(m)).collect();
    write_tns_lines(&coords, t.values(), "nonzero", &mut writer)
}

/// Writes one ingestion chunk's first `n` entries in `.tns` text, with
/// the exact formatting of [`write_tns`] (1-based indices, shortest
/// round-trip `f32`). Chunked generators stream arbitrarily large files
/// through this without a resident tensor; concatenating the chunks of a
/// tensor reproduces `write_tns` of that tensor byte for byte.
pub fn write_tns_chunk<W: Write>(
    chunk: &crate::source::CooChunk,
    n: usize,
    writer: &mut W,
) -> io::Result<()> {
    let coords: Vec<&[Index]> = chunk.coords.iter().map(|arr| &arr[..n]).collect();
    write_tns_lines(&coords, &chunk.vals[..n], "chunk entry", writer)
}

/// The one `.tns` line format: `coords[m][z] + 1` for each mode, each
/// followed by a space, then `vals[z]` and `\n`. Each line is formatted
/// into one reused buffer. A non-finite value is an error naming its
/// position as `what` `z`.
fn write_tns_lines<W: Write>(
    coords: &[&[Index]],
    vals: &[Value],
    what: &str,
    writer: &mut W,
) -> io::Result<()> {
    let mut line = Vec::new();
    for (z, &v) in vals.iter().enumerate() {
        if !v.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("non-finite value at {what} {z} cannot be written as .tns"),
            ));
        }
        line.clear();
        for arr in coords {
            write!(line, "{} ", arr[z] + 1)?;
        }
        writeln!(line, "{v}")?;
        writer.write_all(&line)?;
    }
    Ok(())
}

/// Magic of the binary tensor format (`.spt`), a schema over
/// [`crate::frame`].
pub const BIN_MAGIC: &[u8; 4] = b"SPT1";
/// Layout version of [`BIN_MAGIC`] files: 2 stores each entry's record
/// whole (version 1 stored one array per mode, without a trailer).
pub const BIN_VERSION: u32 = 2;

/// Writes a tensor in the crate's binary format, a frame of magic
/// [`BIN_MAGIC`] and version [`BIN_VERSION`] holding the `u32` order, the
/// `u32` extents, the `u64` nonzero count, then one record per nonzero:
/// its `u32` coordinates, then its `f32` value. Roughly 10× faster to
/// load than `.tns` text — useful for caching generated stand-ins
/// between experiment runs.
pub fn write_bin<W: Write>(t: &CooTensor, w: W) -> io::Result<()> {
    let mut w = FrameWriter::new(w, BIN_MAGIC, BIN_VERSION)?;
    w.u32(t.order() as u32)?;
    w.u32s(t.dims().iter().copied())?;
    w.u64(t.nnz() as u64)?;
    let record = |(z, v): (usize, &Value)| {
        let coords = (0..t.order()).map(move |m| t.mode_indices(m)[z]);
        coords.chain([v.to_bits()])
    };
    w.u32s(t.values().iter().enumerate().flat_map(record))?;
    w.finish()?.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_write_reproduces_write_tns_bytes() {
        let t = crate::synth::uniform_random(&[6, 7, 8], 300, 3);
        let mut whole = Vec::new();
        write_tns(&t, &mut whole).unwrap();
        // Stream the same tensor through uneven chunk boundaries.
        let mut chunked = Vec::new();
        let mut src = crate::source::CooSource::new(t);
        let mut chunk = crate::source::CooChunk::default();
        loop {
            let n = crate::source::TensorSource::fill_chunk(&mut src, 17, &mut chunk).unwrap();
            if n == 0 {
                break;
            }
            write_tns_chunk(&chunk, n, &mut chunked).unwrap();
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn chunked_write_rejects_non_finite() {
        let mut chunk = crate::source::CooChunk::with_order(3);
        chunk.push(&[0, 0, 0], f32::NAN, 1);
        let mut out = Vec::new();
        assert!(write_tns_chunk(&chunk, 1, &mut out).is_err());
    }
}

//! The one container of every binary file: a 4-byte magic naming the
//! schema (`SPT1`, `SPRN`, `SPL1`, `SPCK`), its `u32` layout version,
//! the schema's little-endian payload, then a `u64` trailer: FNV-1a over
//! every byte before it, folded as little-endian words
//! ([`Fnv1a::word`], the last partial word zero-padded). Each fold step
//! is a bijection of the state, so a corruption confined to one word is
//! always detected, and how the bytes are split into writes and reads
//! never changes the trailer.
//!
//! A [`FrameReader`] knows its file's length: it refuses any read past
//! the payload before allocating for it, and [`FrameReader::finish`]
//! compares the trailer. A schema calls `finish` before its caller can
//! use what it read; a streamed schema, when its last record is drained.

use std::fmt;
use std::io::{Read, Write};

use crate::hash::Fnv1a;
use crate::{TensorError, TensorResult};

/// Bytes of a frame besides its payload: magic, version and trailer.
pub const FRAME_BYTES: u64 = 16;

/// Why a framed file was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file does not start with the schema's magic.
    BadMagic,
    /// The file's layout version, which this build does not read.
    UnsupportedVersion(u32),
    /// A read needed `need` bytes where `have` were left before the
    /// trailer (at [`FrameReader::finish`], `need` is 0).
    Length { need: u64, have: u64 },
    /// The trailer does not match the bytes before it.
    Checksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a file of this format (bad magic)"),
            FrameError::UnsupportedVersion(v) => write!(f, "layout version {v} is not supported"),
            FrameError::Length { need, have } => {
                write!(f, "length mismatch: {need} bytes needed, {have} left")
            }
            FrameError::Checksum => write!(f, "checksum mismatch: the file is torn or corrupt"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The [`FrameError::Length`] refusal, as a [`TensorError`].
    pub fn length(need: u64, have: u64) -> TensorError {
        TensorError::Frame(FrameError::Length { need, have })
    }
}

/// The trailer's fold over everything passed to [`WordFold::update`],
/// whatever the split: a partial word waits for the next update.
#[derive(Debug, Clone, Default)]
pub struct WordFold {
    hash: Fnv1a,
    /// The bytes of the partial word, little-endian, and their count.
    partial: u64,
    filled: u32,
}

impl WordFold {
    pub fn update(&mut self, mut bytes: &[u8]) {
        while self.filled > 0 && !bytes.is_empty() {
            self.push(bytes[0]);
            bytes = &bytes[1..];
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.hash
                .word(u64::from_le_bytes(w.try_into().expect("chunks of 8 bytes")));
        }
        words.remainder().iter().for_each(|&b| self.push(b));
    }

    fn push(&mut self, b: u8) {
        self.partial |= u64::from(b) << (8 * self.filled);
        self.filled += 1;
        if self.filled == 8 {
            self.hash.word(std::mem::take(&mut self.partial));
            self.filled = 0;
        }
    }

    /// The trailer of everything folded, the partial word zero-padded.
    pub fn value(&self) -> u64 {
        let mut hash = self.hash;
        if self.filled > 0 {
            hash.word(self.partial);
        }
        hash.0
    }
}

/// Writes one framed file: the magic and version at creation, then the
/// payload, then the trailer at [`FrameWriter::finish`].
pub struct FrameWriter<W: Write> {
    inner: W,
    fold: WordFold,
}

impl<W: Write> FrameWriter<W> {
    pub fn new(inner: W, magic: &[u8; 4], version: u32) -> std::io::Result<Self> {
        let fold = WordFold::default();
        let mut w = FrameWriter { inner, fold };
        w.bytes(magic)?;
        w.u32(version)?;
        Ok(w)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.fold.update(bytes);
        self.inner.write_all(bytes)
    }

    pub fn u32(&mut self, v: u32) -> std::io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> std::io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes `values` as little-endian `u32`s, without a count.
    pub fn u32s(&mut self, values: impl IntoIterator<Item = u32>) -> std::io::Result<()> {
        let (mut buf, mut used) = ([0u8; 4096], 0);
        for v in values {
            buf[used..used + 4].copy_from_slice(&v.to_le_bytes());
            used += 4;
            if used == buf.len() {
                self.bytes(&buf)?;
                used = 0;
            }
        }
        self.bytes(&buf[..used])
    }

    /// Appends the trailer and returns the inner writer, unflushed.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.inner.write_all(&self.fold.value().to_le_bytes())?;
        Ok(self.inner)
    }
}

/// Reads one framed file of known length: the magic and version at
/// creation, the payload field by field, the trailer at
/// [`FrameReader::finish`].
pub struct FrameReader<R: Read> {
    inner: R,
    /// Payload bytes not yet read.
    left: u64,
    fold: WordFold,
}

impl<R: Read> FrameReader<R> {
    /// Reads the header of the `len`-byte framed file `inner` starts at.
    pub fn new(inner: R, len: u64, magic: &[u8; 4], version: u32) -> TensorResult<Self> {
        let left = len.checked_sub(FRAME_BYTES).map(|payload| payload + 8);
        let left = left.ok_or_else(|| FrameError::length(FRAME_BYTES, len))?;
        let fold = WordFold::default();
        let mut r = FrameReader { inner, left, fold };
        let mut found = [0u8; 4];
        r.fill(&mut found)?;
        if found != *magic {
            return Err(FrameError::BadMagic.into());
        }
        match r.u32()? {
            v if v == version => Ok(r),
            v => Err(FrameError::UnsupportedVersion(v).into()),
        }
    }

    /// Payload bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// The byte count of `n` items of `width` bytes, if they fit before
    /// the trailer.
    fn claim(&self, n: u64, width: u64) -> TensorResult<usize> {
        let need = n.saturating_mul(width);
        match usize::try_from(need) {
            Ok(bytes) if need <= self.left => Ok(bytes),
            _ => Err(FrameError::length(need, self.left)),
        }
    }

    /// Fills `buf` with the next payload bytes.
    pub fn fill(&mut self, buf: &mut [u8]) -> TensorResult<()> {
        self.claim(buf.len() as u64, 1)?;
        self.inner.read_exact(buf)?;
        self.fold.update(buf);
        self.left -= buf.len() as u64;
        Ok(())
    }

    pub fn u32(&mut self) -> TensorResult<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn u64(&mut self) -> TensorResult<u64> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: u64) -> TensorResult<Vec<u8>> {
        let mut out = vec![0; self.claim(n, 1)?];
        self.fill(&mut out)?;
        Ok(out)
    }

    pub fn u32s(&mut self, n: u64) -> TensorResult<Vec<u32>> {
        self.words(n, u32::from_le_bytes)
    }

    pub fn f32s(&mut self, n: u64) -> TensorResult<Vec<f32>> {
        self.words(n, f32::from_le_bytes)
    }

    pub fn f64s(&mut self, n: u64) -> TensorResult<Vec<f64>> {
        self.words(n, f64::from_le_bytes)
    }

    /// The next `n` values of `W` bytes, each decoded by `decode`.
    fn words<T, const W: usize>(
        &mut self,
        n: u64,
        decode: fn([u8; W]) -> T,
    ) -> TensorResult<Vec<T>> {
        let mut left = self.claim(n, W as u64)?;
        let (mut out, mut buf) = (Vec::with_capacity(left / W), [0u8; 4096]);
        while left > 0 {
            let take = left.min(buf.len() / W * W);
            self.fill(&mut buf[..take])?;
            let values = buf[..take]
                .chunks_exact(W)
                .map(|c| c.try_into().expect("chunks of W bytes"));
            out.extend(values.map(decode));
            left -= take;
        }
        Ok(out)
    }

    /// Checks that the payload was read to its end and that the trailer
    /// matches it. Call once, after the last field.
    pub fn finish(&mut self) -> TensorResult<()> {
        if self.left > 0 {
            return Err(FrameError::length(0, self.left));
        }
        let mut trailer = [0u8; 8];
        self.inner.read_exact(&mut trailer)?;
        match u64::from_le_bytes(trailer) == self.fold.value() {
            true => Ok(()),
            false => Err(FrameError::Checksum.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MAGIC: &[u8; 4] = b"TEST";

    /// `payload` framed, written in pieces cut at `cuts`.
    fn framed(payload: &[u8], cuts: &[usize]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), MAGIC, 3).unwrap();
        let mut at = 0;
        for &c in cuts.iter().chain([&payload.len()]) {
            let c = c.clamp(at, payload.len());
            w.bytes(&payload[at..c]).unwrap();
            at = c;
        }
        w.finish().unwrap()
    }

    proptest! {
        /// Any split of a payload into writes, and any split into reads,
        /// gives one trailer, and the reader accepts it.
        #[test]
        fn any_split_gives_the_same_trailer(
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            write_cuts in proptest::collection::vec(0usize..100, 0..6),
            read_cuts in proptest::collection::vec(0usize..100, 0..6),
        ) {
            let whole = framed(&payload, &[]);
            let mut cuts = write_cuts.clone();
            cuts.sort_unstable();
            prop_assert_eq!(&framed(&payload, &cuts), &whole);

            let mut r = FrameReader::new(&whole[..], whole.len() as u64, MAGIC, 3).unwrap();
            let mut cuts = read_cuts.clone();
            cuts.sort_unstable();
            let mut at = 0;
            let mut back = Vec::new();
            for &c in cuts.iter().chain([&payload.len()]) {
                let c = c.clamp(at, payload.len());
                back.extend(r.bytes((c - at) as u64).unwrap());
                at = c;
            }
            prop_assert_eq!(&back, &payload);
            prop_assert!(r.finish().is_ok());
        }
    }

    #[test]
    fn trailer_folds_zero_padded_le_words() {
        let bytes = framed(&[1, 2, 3], &[]);
        let mut h = Fnv1a::default();
        h.word(u64::from_le_bytes(*b"TEST\x03\0\0\0"));
        h.word(0x03_02_01);
        assert_eq!(bytes[11..], h.0.to_le_bytes());
    }

    #[test]
    fn header_faults_are_typed() {
        let frame_err = |bytes: &[u8], version| match FrameReader::new(
            bytes,
            bytes.len() as u64,
            MAGIC,
            version,
        ) {
            Err(TensorError::Frame(e)) => e,
            other => panic!("expected a frame error, got {:?}", other.err()),
        };
        let good = framed(&[7; 9], &[]);
        assert_eq!(frame_err(&good, 4), FrameError::UnsupportedVersion(3));
        let mut bad = good.clone();
        bad[1] ^= 1;
        assert_eq!(frame_err(&bad, 3), FrameError::BadMagic);
        let short = frame_err(&good[..15], 3);
        assert_eq!(short, FrameError::Length { need: 16, have: 15 });
    }

    #[test]
    fn counts_past_the_payload_are_refused_before_allocating() {
        let bytes = framed(&[0; 16], &[]);
        let mut r = FrameReader::new(&bytes[..], bytes.len() as u64, MAGIC, 3).unwrap();
        for n in [5, u64::MAX / 4, u64::MAX] {
            let err = r.u32s(n).unwrap_err();
            assert!(
                matches!(err, TensorError::Frame(FrameError::Length { have: 16, .. })),
                "{err:?}"
            );
            assert!(r.f64s(n).is_err() && r.bytes(n.saturating_mul(4)).is_err());
        }
        assert_eq!(r.u32s(4).unwrap(), vec![0; 4]);
        let err = r.u32().unwrap_err();
        assert!(matches!(
            err,
            TensorError::Frame(FrameError::Length { need: 4, have: 0 })
        ));
        r.finish().unwrap();
    }

    #[test]
    fn unread_payload_and_flipped_bytes_fail_finish() {
        let bytes = framed(&[5; 12], &[]);
        let mut r = FrameReader::new(&bytes[..], bytes.len() as u64, MAGIC, 3).unwrap();
        r.u64().unwrap();
        let err = r.finish().unwrap_err();
        assert!(matches!(
            err,
            TensorError::Frame(FrameError::Length { need: 0, have: 4 })
        ));
        for at in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let mut r = FrameReader::new(&bad[..], bad.len() as u64, MAGIC, 3).unwrap();
            r.bytes(12).unwrap();
            let err = r.finish().unwrap_err();
            assert!(
                matches!(err, TensorError::Frame(FrameError::Checksum)),
                "byte {at}"
            );
        }
    }
}

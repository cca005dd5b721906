//! Flat word-stream state serialization.
//!
//! Checkpoint/restore needs an exact, versioned encoding of simulator
//! state without pulling a serialization crate into the dependency-free
//! workspace. The format is deliberately primitive: a flat stream of
//! `u64` words. Every stateful struct writes its fields in declaration
//! order through a [`WordWriter`] and reads them back through a
//! [`WordReader`]; there is no schema in the stream itself — the engine
//! version stamped on the enclosing checkpoint document is the schema.
//!
//! Why words and not bytes or JSON values? Most simulator state *is*
//! 64-bit counters, addresses and indices; a word stream round-trips
//! them exactly with no per-field schema, and the repetitive structure
//! compresses well under the run-length hex encoding the checkpoint file
//! format applies on top.
//!
//! Misaligned reads are the classic failure mode of schema-less formats,
//! so structs bracket their state with [`WordWriter::tag`] /
//! [`WordReader::expect`] magic words: a skew fails fast with a typed
//! [`SerialError`] instead of silently reinterpreting a neighbour's
//! fields.

use std::fmt;

use crate::types::{Mapping, PFrame, Prot, SpaceId, VPage};

/// An error while decoding a word stream: the stream was truncated, or a
/// value failed validation. Always indicates a corrupt or incompatible
/// checkpoint, never a bug in the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// The stream ended before the structure was fully read.
    Truncated {
        /// Word offset at which the read past the end was attempted.
        at: usize,
    },
    /// A word failed validation (bad magic tag, out-of-range value).
    Corrupt {
        /// Word offset of the offending word.
        at: usize,
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerialError::Truncated { at } => {
                write!(f, "state stream truncated at word {at}")
            }
            SerialError::Corrupt { at, what } => {
                write!(f, "state stream corrupt at word {at}: bad {what}")
            }
        }
    }
}

impl std::error::Error for SerialError {}

/// Serializes state as a flat stream of `u64` words.
#[derive(Debug, Default)]
pub struct WordWriter {
    words: Vec<u64>,
}

impl WordWriter {
    /// An empty stream.
    pub fn new() -> Self {
        WordWriter::default()
    }

    /// Append one word.
    pub fn u64(&mut self, v: u64) {
        self.words.push(v);
    }

    /// Append a 32-bit value (widened to one word).
    pub fn u32(&mut self, v: u32) {
        self.words.push(u64::from(v));
    }

    /// Append a `usize` (as one word).
    pub fn usize(&mut self, v: usize) {
        self.words.push(v as u64);
    }

    /// Append a boolean (one word, 0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.words.push(u64::from(v));
    }

    /// Append a byte slice: a length word, then the bytes packed
    /// little-endian eight to a word (final word zero-padded).
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        for chunk in b.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(buf));
        }
    }

    /// Append a section tag (a magic word checked on read).
    pub fn tag(&mut self, t: u64) {
        self.words.push(t);
    }

    /// Append a virtual mapping (space, then virtual page).
    pub fn mapping(&mut self, m: Mapping) {
        self.u32(m.space.0);
        self.u64(m.vpage.0);
    }

    /// Append a protection bitmask.
    pub fn prot(&mut self, p: Prot) {
        self.u64(u64::from(p.bits()));
    }

    /// Number of words written so far.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Consume the writer, yielding the word stream.
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// Deserializes state from a flat stream of `u64` words.
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Read from the given stream, starting at word 0.
    pub fn new(words: &'a [u64]) -> Self {
        WordReader { words, pos: 0 }
    }

    /// Current word offset (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn next(&mut self) -> Result<u64, SerialError> {
        let v = self
            .words
            .get(self.pos)
            .copied()
            .ok_or(SerialError::Truncated { at: self.pos })?;
        self.pos += 1;
        Ok(v)
    }

    /// Read one word.
    pub fn u64(&mut self) -> Result<u64, SerialError> {
        self.next()
    }

    /// Read a 32-bit value; errors if the word exceeds `u32::MAX`.
    pub fn u32(&mut self) -> Result<u32, SerialError> {
        let at = self.pos;
        u32::try_from(self.next()?).map_err(|_| SerialError::Corrupt { at, what: "u32" })
    }

    /// Read a `usize`; errors if the word exceeds the platform width.
    pub fn usize(&mut self) -> Result<usize, SerialError> {
        let at = self.pos;
        usize::try_from(self.next()?).map_err(|_| SerialError::Corrupt { at, what: "usize" })
    }

    /// Read a boolean; errors unless the word is 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SerialError> {
        let at = self.pos;
        match self.next()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SerialError::Corrupt { at, what: "bool" }),
        }
    }

    /// Read the length word of a sequence whose items are packed
    /// `per_word` to a word, and check that the stream still holds that
    /// many words. Decoders size allocations from the result, so a
    /// corrupt length fails here with [`SerialError::Truncated`] instead
    /// of asking the allocator for more than the stream could fill.
    pub fn count(&mut self, per_word: usize) -> Result<usize, SerialError> {
        let n = self.usize()?;
        if n.div_ceil(per_word) > self.words.len() - self.pos {
            return Err(SerialError::Truncated {
                at: self.words.len(),
            });
        }
        Ok(n)
    }

    /// Read a byte vector written by [`WordWriter::bytes`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, SerialError> {
        let len = self.count(8)?;
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(8);
            let word = self.next()?.to_le_bytes();
            out.extend_from_slice(&word[..take]);
            remaining -= take;
        }
        Ok(out)
    }

    /// Read a physical frame number of a memory with `frames` frames;
    /// errors if the frame lies past that memory.
    pub fn frame(&mut self, frames: u64) -> Result<PFrame, SerialError> {
        let at = self.pos;
        match self.next()? {
            f if f < frames => Ok(PFrame(f)),
            _ => Err(SerialError::Corrupt {
                at,
                what: "frame past physical memory",
            }),
        }
    }

    /// Read a virtual mapping written by [`WordWriter::mapping`].
    pub fn mapping(&mut self) -> Result<Mapping, SerialError> {
        let space = SpaceId(self.u32()?);
        let vpage = VPage(self.u64()?);
        Ok(Mapping::new(space, vpage))
    }

    /// Read a protection bitmask written by [`WordWriter::prot`].
    pub fn prot(&mut self) -> Result<Prot, SerialError> {
        let at = self.pos;
        let bits = self.u64()?;
        if bits > 7 {
            return Err(SerialError::Corrupt { at, what: "prot" });
        }
        Ok(Prot::from_bits(bits as u8))
    }

    /// Read and verify a section tag written by [`WordWriter::tag`].
    pub fn expect(&mut self, t: u64) -> Result<(), SerialError> {
        let at = self.pos;
        if self.next()? == t {
            Ok(())
        } else {
            Err(SerialError::Corrupt {
                at,
                what: "section tag",
            })
        }
    }

    /// Assert the stream was fully consumed (a trailing-word check for the
    /// outermost decoder).
    pub fn finish(self) -> Result<(), SerialError> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(SerialError::Corrupt {
                at: self.pos,
                what: "trailing words",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WordWriter::new();
        w.u64(u64::MAX);
        w.u32(7);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn bytes_round_trip_all_lengths() {
        for len in 0..=33 {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut w = WordWriter::new();
            w.bytes(&data);
            w.u64(0xdead);
            let words = w.into_words();
            let mut r = WordReader::new(&words);
            assert_eq!(r.bytes().unwrap(), data, "len {len}");
            assert_eq!(r.u64().unwrap(), 0xdead);
            r.finish().unwrap();
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = WordWriter::new();
        w.bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut words = w.into_words();
        words.pop();
        let mut r = WordReader::new(&words);
        assert_eq!(r.bytes(), Err(SerialError::Truncated { at: 2 }));
    }

    #[test]
    fn inflated_lengths_fail_before_allocating() {
        // A byte-string length no stream could back used to reach
        // `Vec::with_capacity` and abort the process.
        let words = [u64::MAX >> 4, 1, 2];
        let mut r = WordReader::new(&words);
        assert_eq!(r.bytes(), Err(SerialError::Truncated { at: 3 }));
        // `count` admits exactly what the remaining words can hold.
        let truncated = Err(SerialError::Truncated { at: 4 });
        assert_eq!(WordReader::new(&[24, 0, 0, 0]).count(8), Ok(24));
        assert_eq!(WordReader::new(&[25, 0, 0, 0]).count(8), truncated);
        assert_eq!(WordReader::new(&[3, 0, 0, 0]).count(1), Ok(3));
        assert_eq!(WordReader::new(&[4, 0, 0, 0]).count(1), truncated);
    }

    #[test]
    fn corrupt_values_are_typed() {
        let words = [u64::MAX, 5, 255, 256];
        let mut r = WordReader::new(&words);
        assert!(matches!(
            r.u32(),
            Err(SerialError::Corrupt { at: 0, what: "u32" })
        ));
        assert!(matches!(
            r.bool(),
            Err(SerialError::Corrupt {
                at: 1,
                what: "bool"
            })
        ));
        // A frame must lie inside a memory of the given size.
        assert_eq!(r.frame(256), Ok(PFrame(255)));
        assert!(matches!(
            r.frame(256),
            Err(SerialError::Corrupt { at: 3, .. })
        ));
    }

    #[test]
    fn tags_catch_skew() {
        const TAG: u64 = 0x5649_435f_5441_4731; // "VIC_TAG1"
        let mut w = WordWriter::new();
        w.tag(TAG);
        w.u64(9);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        r.expect(TAG).unwrap();
        assert_eq!(r.u64().unwrap(), 9);
        let mut r = WordReader::new(&words);
        assert!(matches!(
            r.expect(TAG + 1),
            Err(SerialError::Corrupt { at: 0, .. })
        ));
    }

    #[test]
    fn mapping_and_prot_round_trip() {
        let m = Mapping::new(SpaceId(7), VPage(0x123));
        let mut w = WordWriter::new();
        w.mapping(m);
        w.prot(Prot::READ_EXECUTE);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        assert_eq!(r.mapping().unwrap(), m);
        assert_eq!(r.prot().unwrap(), Prot::READ_EXECUTE);
        r.finish().unwrap();
        let bad = [0u64, 0, 8];
        let mut r = WordReader::new(&bad);
        let _ = r.mapping().unwrap();
        assert!(matches!(
            r.prot(),
            Err(SerialError::Corrupt {
                at: 2,
                what: "prot"
            })
        ));
    }

    #[test]
    fn finish_rejects_trailing() {
        let words = [1u64, 2];
        let mut r = WordReader::new(&words);
        r.u64().unwrap();
        assert!(matches!(
            r.finish(),
            Err(SerialError::Corrupt { at: 1, .. })
        ));
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            SerialError::Truncated { at: 3 }.to_string(),
            "state stream truncated at word 3"
        );
        assert_eq!(
            SerialError::Corrupt { at: 0, what: "u32" }.to_string(),
            "state stream corrupt at word 0: bad u32"
        );
    }
}

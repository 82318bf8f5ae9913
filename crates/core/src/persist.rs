//! Versioned, dependency-free binary persistence for plain-data engine
//! state: the wire format of checkpoints
//! ([`crate::SessionBuilder::checkpoint`] / [`crate::SessionBuilder::resume`])
//! and of the [`PathRecord`] streams the determinism smokes compare.
//!
//! # Format
//!
//! A persisted file is a [`Document`]: a fixed header, a section table,
//! and the section payloads.
//!
//! ```text
//! [0..4)    magic  b"BSYW"
//! [4..8)    format version, little-endian u32 (currently 3)
//! [8..12)   section count, little-endian u32
//! [12..)    per section: tag u32 | absolute offset u64 | length u64
//! then      the payload bytes
//! ```
//!
//! Section payloads are opaque byte strings produced by the [`Wire`]
//! trait: little-endian fixed-width scalars, length-prefixed sequences,
//! no padding, no self-description. The encoding is **canonical** — equal
//! values encode to equal bytes — which is what lets the determinism
//! suites and the CI smokes compare whole record streams with `cmp`(1).
//!
//! A checkpoint ([`crate::ParallelSession`]) holds the result-shaping
//! parameters ([`section::META`], [`section::POLICY`]), the committed
//! records, every pending prescription in [`PathId`] order, and the
//! truncation watermark — no scheduling state. A resume redistributes the
//! pending prescriptions over whatever shards it runs. Section tags 4 and
//! 6–8 are retired: no current document carries them, and their numbers
//! are never reused.
//!
//! Every load failure is a typed [`PersistError`] (surfacing as
//! [`crate::Error::Persist`]): bad magic, unsupported version, truncated
//! input, or corrupt payload. Loads never panic on malformed input.
//!
//! # Atomicity
//!
//! [`Document::write_atomic`] writes the full document to a `<path>.tmp`
//! sibling and renames it over the destination, so a crash mid-write
//! leaves either the previous document or the new one on disk — never a
//! torn file. This is what makes kill-anywhere/resume safe: the resumed
//! session always loads *some* consistent cut of the interrupted run,
//! and replay purity plus the canonical merge make every consistent cut
//! lead to byte-identical final records (see [`crate::ParallelSession`]).

use std::fmt;
use std::path::{Path, PathBuf};

use binsym_smt::SatResult;

use crate::machine::StepResult;
use crate::memory::AddressPolicyKind;
use crate::prescribe::{Flip, PathId, PathRecord, Prescription};

/// File magic of every persisted document (`b"BSYW"`, "BinSym Wire").
pub const MAGIC: [u8; 4] = *b"BSYW";

/// Current wire format version. Documents written by a different version
/// are rejected with [`PersistError::VersionMismatch`] rather than
/// misread.
///
/// History: version 2 added the address-concretization policy — a new
/// [`section::POLICY`] in checkpoints and a policy field in every encoded
/// [`Prescription`] — so version-1 documents (and version-1 readers
/// handed a version-2 file) fail with a clean mismatch instead of a
/// misparse. Version 3 made a checkpoint records plus pending
/// prescriptions: [`section::PENDING`] holds one `PathId`-sorted
/// prescription sequence instead of per-shard frontier snapshots (policy
/// names, RNG words, coverage bitmaps), the in-flight section (tag 4) is
/// retired, and [`section::META`] no longer records the worker count or
/// shard policy.
pub const FORMAT_VERSION: u32 = 3;

/// Well-known section tags of a checkpoint document. A [`Document`] may
/// carry any tags; these are the ones the engine itself reads and writes.
pub mod section {
    /// Session configuration the checkpoint was taken under.
    pub const META: u32 = 1;
    /// Merged-stream records materialized so far.
    pub const RECORDS: u32 = 2;
    /// Every pending unit root — queued, in flight or failed — in
    /// [`crate::PathId`] order.
    pub const PENDING: u32 = 3;
    // Tag 4 held in-flight worker slots and failed replays before format
    // version 3, which keeps them in `PENDING`; the number stays retired.
    /// Truncation watermark contents (the `limit` lowest ids so far).
    pub const WATERMARK: u32 = 5;
    // Tags 6–8 held the bags, summaries and metrics reports of the retired
    // multi-process runner's documents; the numbers stay retired.
    /// The address-concretization policy ([`crate::AddressPolicyKind`])
    /// the run executed under. Validated strictly on resume: the policy
    /// shapes every trail, so a checkpoint taken under a different policy
    /// is unusable.
    pub const POLICY: u32 = 9;
    /// The run's unit budget and static-analysis setting. Both shape a
    /// unit's witnesses, so a resume validates them strictly. Every
    /// checkpoint carries this section; one without it was written by a
    /// run of one-path units, whose records match no run of this engine,
    /// and fails to resume with [`super::PersistError::Mismatch`].
    pub const UNITS: u32 = 10;
}

/// Typed persistence failure. Wrapped as [`crate::Error::Persist`] at the
/// session boundary, so a bad checkpoint file is an ordinary session
/// error — never a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the [`MAGIC`] bytes.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    VersionMismatch {
        /// The version found in the file header.
        found: u32,
    },
    /// The data ended before a declared section or value was complete.
    Truncated,
    /// The data is structurally invalid (bad tag byte, trailing bytes,
    /// missing section, …).
    Corrupt(&'static str),
    /// The document is well-formed but was written under a configuration
    /// incompatible with the resuming session.
    Mismatch {
        /// Which configuration field disagrees.
        what: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence i/o: {e}"),
            PersistError::BadMagic => write!(f, "not a binsym persistence file (bad magic)"),
            PersistError::VersionMismatch { found } => write!(
                f,
                "unsupported persistence format version {found} (this build reads {FORMAT_VERSION})"
            ),
            PersistError::Truncated => write!(f, "truncated persistence data"),
            PersistError::Corrupt(what) => write!(f, "corrupt persistence data: {what}"),
            PersistError::Mismatch { what } => {
                write!(f, "checkpoint does not match this session: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Encoder accumulating the canonical little-endian byte stream.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consumes the encoder, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder over a byte slice; every underrun is [`PersistError::Truncated`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let b = *self.buf.get(self.pos).ok_or(PersistError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the input was consumed exactly; trailing bytes mean the
    /// payload does not round-trip and are rejected as corruption.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after value"))
        }
    }
}

/// Canonical binary encoding of a plain-data value: equal values encode
/// to equal bytes, and `decode` consumes exactly what `encode` wrote.
pub trait Wire: Sized {
    /// Appends this value's canonical encoding to `enc`.
    fn encode(&self, enc: &mut Enc);
    /// Decodes one value from `dec`.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError>;
}

/// Encodes a single value as a standalone payload.
pub fn encode_one<T: Wire>(value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes a single value from a standalone payload, rejecting trailing
/// bytes.
pub fn decode_one<T: Wire>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

/// Encodes a slice of values as a standalone length-prefixed payload.
pub fn encode_seq<T: Wire>(values: &[T]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(values.len() as u64);
    for v in values {
        v.encode(&mut enc);
    }
    enc.into_bytes()
}

/// Decodes a length-prefixed payload written by [`encode_seq`], rejecting
/// trailing bytes.
pub fn decode_seq<T: Wire>(bytes: &[u8]) -> Result<Vec<T>, PersistError> {
    let mut dec = Dec::new(bytes);
    let len = decode_len(&mut dec)?;
    // Every wire value occupies at least one byte, so `remaining` bounds
    // any honest length — a lying header cannot force a huge allocation.
    let mut out = Vec::with_capacity(len.min(dec.remaining()));
    for _ in 0..len {
        out.push(T::decode(&mut dec)?);
    }
    dec.finish()?;
    Ok(out)
}

fn decode_len(dec: &mut Dec<'_>) -> Result<usize, PersistError> {
    usize::try_from(dec.u64()?).map_err(|_| PersistError::Corrupt("length overflows usize"))
}

impl Wire for u32 {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        dec.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        dec.u64()
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(u8::from(*self));
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt("boolean byte out of range")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(PersistError::Corrupt("option tag out of range")),
        }
    }
}

impl Wire for PathId {
    fn encode(&self, enc: &mut Enc) {
        let ords = self.as_slice();
        enc.u64(ords.len() as u64);
        for &o in ords {
            enc.u32(o);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let len = decode_len(dec)?;
        let mut ords = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            ords.push(dec.u32()?);
        }
        Ok(PathId::from_ordinals(ords))
    }
}

impl Wire for Flip {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.ord as u64);
        self.taken.encode(enc);
        enc.u32(self.pc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        Ok(Flip {
            ord: decode_len(dec)?,
            taken: bool::decode(dec)?,
            pc: dec.u32()?,
        })
    }
}

impl Wire for AddressPolicyKind {
    fn encode(&self, enc: &mut Enc) {
        match self {
            AddressPolicyKind::ConcretizeEq => enc.u8(0),
            // Tag 1 was the retired smallest-feasible-address policy; the
            // numbering is kept so older documents stay readable.
            AddressPolicyKind::Symbolic { window } => {
                enc.u8(2);
                enc.u32(*window);
            }
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(AddressPolicyKind::ConcretizeEq),
            1 => Err(PersistError::Corrupt("retired address policy (min)")),
            2 => Ok(AddressPolicyKind::Symbolic { window: dec.u32()? }),
            _ => Err(PersistError::Corrupt("address-policy tag out of range")),
        }
    }
}

impl Wire for Prescription {
    fn encode(&self, enc: &mut Enc) {
        self.id.encode(enc);
        enc.u64(self.input.len() as u64);
        enc.bytes(&self.input);
        self.flip.encode(enc);
        self.policy.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let id = PathId::decode(dec)?;
        let len = decode_len(dec)?;
        let input = dec.take(len)?.to_vec();
        Ok(Prescription {
            id,
            input,
            flip: Option::decode(dec)?,
            policy: AddressPolicyKind::decode(dec)?,
        })
    }
}

impl Wire for StepResult {
    fn encode(&self, enc: &mut Enc) {
        match self {
            StepResult::Continue => enc.u8(0),
            StepResult::Exited(code) => {
                enc.u8(1);
                enc.u32(*code);
            }
            StepResult::Break => enc.u8(2),
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(StepResult::Continue),
            1 => Ok(StepResult::Exited(dec.u32()?)),
            2 => Ok(StepResult::Break),
            _ => Err(PersistError::Corrupt("step-result tag out of range")),
        }
    }
}

impl Wire for SatResult {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(match self {
            SatResult::Unsat => 0,
            SatResult::Sat => 1,
        });
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(SatResult::Unsat),
            1 => Ok(SatResult::Sat),
            _ => Err(PersistError::Corrupt("sat-result tag out of range")),
        }
    }
}

impl Wire for PathRecord {
    fn encode(&self, enc: &mut Enc) {
        self.id.encode(enc);
        enc.u64(self.input.len() as u64);
        enc.bytes(&self.input);
        self.exit.encode(enc);
        enc.u64(self.steps);
        enc.u64(self.trail_len as u64);
        // Branch decisions bit-packed LSB-first: a path fingerprint is one
        // bit per symbolic branch, and deep paths have many.
        enc.u64(self.decisions.len() as u64);
        let mut byte = 0u8;
        for (i, &d) in self.decisions.iter().enumerate() {
            byte |= u8::from(d) << (i % 8);
            if i % 8 == 7 {
                enc.u8(byte);
                byte = 0;
            }
        }
        if self.decisions.len() % 8 != 0 {
            enc.u8(byte);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let id = PathId::decode(dec)?;
        let len = decode_len(dec)?;
        let input = dec.take(len)?.to_vec();
        let exit = StepResult::decode(dec)?;
        let steps = dec.u64()?;
        let trail_len = decode_len(dec)?;
        let bits = decode_len(dec)?;
        let packed = dec.take(bits.div_ceil(8))?;
        let decisions = (0..bits)
            .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
            .collect();
        Ok(PathRecord {
            id,
            input,
            exit,
            steps,
            trail_len,
            decisions,
        })
    }
}

/// A persisted file: the versioned header plus tagged sections. See the
/// [module docs](self) for the layout.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Document {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Appends a section. Tags need not be unique or ordered; readers see
    /// the first match.
    pub fn push(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// The first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
    }

    /// The first section with `tag`, or [`PersistError::Corrupt`] when the
    /// document lacks it.
    pub fn require(&self, tag: u32) -> Result<&[u8], PersistError> {
        self.section(tag)
            .ok_or(PersistError::Corrupt("missing required section"))
    }

    /// Serializes the document (header, section table, payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.bytes(&MAGIC);
        enc.u32(FORMAT_VERSION);
        enc.u32(self.sections.len() as u32);
        let mut offset = (12 + self.sections.len() * 20) as u64;
        for (tag, payload) in &self.sections {
            enc.u32(*tag);
            enc.u64(offset);
            enc.u64(payload.len() as u64);
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            enc.bytes(payload);
        }
        enc.into_bytes()
    }

    /// Parses a document, validating magic, version, and that every
    /// declared section lies inside the data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Dec::new(bytes);
        if dec.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = dec.u32()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch { found: version });
        }
        let count = dec.u32()? as usize;
        let mut headers = Vec::with_capacity(count.min(dec.remaining() / 20));
        for _ in 0..count {
            let tag = dec.u32()?;
            let offset = dec.u64()?;
            let len = dec.u64()?;
            headers.push((tag, offset, len));
        }
        let mut sections = Vec::with_capacity(headers.len());
        for (tag, offset, len) in headers {
            let start = usize::try_from(offset).map_err(|_| PersistError::Truncated)?;
            let len = usize::try_from(len).map_err(|_| PersistError::Truncated)?;
            let end = start.checked_add(len).ok_or(PersistError::Truncated)?;
            let payload = bytes.get(start..end).ok_or(PersistError::Truncated)?;
            sections.push((tag, payload.to_vec()));
        }
        Ok(Document { sections })
    }

    /// Reads and parses a document from `path`.
    pub fn read(path: &Path) -> Result<Self, PersistError> {
        Document::from_bytes(&std::fs::read(path)?)
    }

    /// Writes the document atomically: the bytes go to a `<path>.tmp`
    /// sibling first and are renamed over `path`, so a crash mid-write
    /// never leaves a torn file at `path`.
    pub fn write_atomic(&self, path: &Path) -> Result<(), PersistError> {
        let tmp = tmp_sibling(path);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local xorshift64* generator for the property tests. Deliberately
    /// not `binsym_testutil`'s: the core crate takes no dev-dependency on
    /// the test-support crate.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            })
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next_u64() as u8).collect()
        }

        fn chance(&mut self, one_in: usize) -> bool {
            self.below(one_in) == 0
        }
    }

    fn rand_path_id(rng: &mut Rng) -> PathId {
        let mut id = PathId::root();
        for _ in 0..rng.below(6) {
            id = id.child(rng.below(40));
        }
        id
    }

    fn rand_policy(rng: &mut Rng) -> AddressPolicyKind {
        match rng.below(2) {
            0 => AddressPolicyKind::ConcretizeEq,
            _ => AddressPolicyKind::Symbolic {
                window: rng.next_u64() as u32,
            },
        }
    }

    fn rand_prescription(rng: &mut Rng) -> Prescription {
        let input_len = rng.below(24);
        Prescription {
            id: rand_path_id(rng),
            input: rng.bytes(input_len),
            flip: if rng.chance(4) {
                None
            } else {
                Some(Flip {
                    ord: rng.below(64),
                    taken: rng.chance(2),
                    pc: rng.next_u64() as u32,
                })
            },
            policy: rand_policy(rng),
        }
    }

    fn rand_record(rng: &mut Rng) -> PathRecord {
        let branches = rng.below(70);
        let input_len = rng.below(24);
        PathRecord {
            id: rand_path_id(rng),
            input: rng.bytes(input_len),
            exit: match rng.below(3) {
                0 => StepResult::Continue,
                1 => StepResult::Exited(rng.next_u64() as u32),
                _ => StepResult::Break,
            },
            steps: rng.next_u64(),
            trail_len: rng.below(1000),
            decisions: (0..branches).map(|_| rng.chance(2)).collect(),
        }
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_one(value);
        let back: T = decode_one(&bytes).expect("decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn prescriptions_round_trip() {
        let mut rng = Rng::new(0xfeed_0001);
        for _ in 0..500 {
            round_trip(&rand_prescription(&mut rng));
        }
        round_trip(&Prescription::root(
            Vec::new(),
            AddressPolicyKind::default(),
        ));
        for policy in [
            AddressPolicyKind::ConcretizeEq,
            AddressPolicyKind::Symbolic { window: 64 },
        ] {
            round_trip(&policy);
        }
        // Corrupt policy tags are typed errors, never panics.
        assert!(matches!(
            decode_one::<AddressPolicyKind>(&[9]),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn retired_policy_tag_is_a_typed_error() {
        // Tag 1 named the retired smallest-feasible-address policy: a
        // document carrying it decodes to `Corrupt`, and the surviving
        // policies keep their tag numbers.
        assert!(matches!(
            decode_one::<AddressPolicyKind>(&[1]),
            Err(PersistError::Corrupt(_))
        ));
        assert_eq!(encode_one(&AddressPolicyKind::ConcretizeEq), [0]);
        assert_eq!(
            encode_one(&AddressPolicyKind::Symbolic { window: 64 })[0],
            2
        );
    }

    #[test]
    fn path_records_round_trip() {
        let mut rng = Rng::new(0xfeed_0002);
        for _ in 0..500 {
            round_trip(&rand_record(&mut rng));
        }
    }

    #[test]
    fn record_sequences_round_trip_canonically() {
        // Equal sequences must encode to equal bytes — the property the
        // determinism smokes lean on when they `cmp` record files.
        let mut rng = Rng::new(0xfeed_0003);
        let records: Vec<PathRecord> = (0..40).map(|_| rand_record(&mut rng)).collect();
        let bytes = encode_seq(&records);
        assert_eq!(bytes, encode_seq(&records.clone()));
        let back: Vec<PathRecord> = decode_seq(&bytes).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn pending_bags_round_trip() {
        let mut rng = Rng::new(0xfeed_0005);
        for _ in 0..100 {
            // A checkpoint's PENDING section is one prescription sequence.
            let pending: Vec<Prescription> = (0..rng.below(20))
                .map(|_| rand_prescription(&mut rng))
                .collect();
            let back: Vec<Prescription> = decode_seq(&encode_seq(&pending)).unwrap();
            assert_eq!(back, pending);
        }
    }

    #[test]
    fn documents_round_trip_with_sections() {
        let mut rng = Rng::new(0xfeed_0006);
        let mut doc = Document::new();
        doc.push(section::META, rng.bytes(17));
        doc.push(section::RECORDS, Vec::new());
        doc.push(section::PENDING, rng.bytes(300));
        let bytes = doc.to_bytes();
        let back = Document::from_bytes(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.section(section::RECORDS), Some(&[][..]));
        assert!(back.section(section::WATERMARK).is_none());
        assert!(matches!(
            back.require(section::WATERMARK),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Document::new().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Document::from_bytes(&bytes),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            Document::from_bytes(b"junk that is not a document at all"),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Document::new().to_bytes();
        bytes[4] = 0xff;
        match Document::from_bytes(&bytes) {
            Err(PersistError::VersionMismatch { found }) => assert_eq!(found, 0xff),
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // A pre-policy (version-1) document is cleanly rejected, not
        // misparsed: version 2 changed the Prescription payload layout, and
        // version 3 the checkpoint's META and PENDING sections.
        for old in [1, 2] {
            let mut bytes = Document::new().to_bytes();
            bytes[4] = old;
            match Document::from_bytes(&bytes) {
                Err(PersistError::VersionMismatch { found }) => {
                    assert_eq!(found, u32::from(old));
                }
                other => panic!("expected version mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_prefix() {
        let mut doc = Document::new();
        doc.push(section::META, vec![1, 2, 3, 4, 5]);
        doc.push(section::RECORDS, vec![6; 40]);
        let bytes = doc.to_bytes();
        for len in 0..bytes.len() {
            let err = Document::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated | PersistError::BadMagic),
                "prefix {len}: got {err:?}"
            );
        }
        assert!(Document::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn truncated_values_are_rejected_not_panicking() {
        let mut rng = Rng::new(0xfeed_0007);
        let rec = rand_record(&mut rng);
        let bytes = encode_one(&rec);
        for len in 0..bytes.len() {
            assert!(
                decode_one::<PathRecord>(&bytes[..len]).is_err(),
                "prefix {len} decoded"
            );
        }
    }

    #[test]
    fn corrupt_tags_and_runs_are_rejected() {
        // Option tag 7.
        assert!(matches!(
            decode_one::<Option<u64>>(&[7]),
            Err(PersistError::Corrupt(_))
        ));
        // Boolean byte 2.
        assert!(matches!(
            decode_one::<bool>(&[2]),
            Err(PersistError::Corrupt(_))
        ));
        // Trailing bytes.
        let mut bytes = encode_one(&42u32);
        bytes.push(0);
        assert!(matches!(
            decode_one::<u32>(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "binsym-persist-test-{}-{}.bin",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::SeqCst)
        ));
        let mut rng = Rng::new(0xfeed_0008);
        let records: Vec<PathRecord> = (0..10).map(|_| rand_record(&mut rng)).collect();
        let mut doc = Document::new();
        doc.push(section::RECORDS, encode_seq(&records));
        doc.write_atomic(&path).unwrap();
        // Overwrite in place: rename replaces the previous document.
        doc.push(section::WATERMARK, encode_seq(&[rand_path_id(&mut rng)]));
        doc.write_atomic(&path).unwrap();
        let back = Document::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, doc);
        let recs: Vec<PathRecord> = decode_seq(back.require(section::RECORDS).unwrap()).unwrap();
        assert_eq!(recs, records);
        assert!(matches!(
            Document::read(Path::new("/nonexistent/binsym-checkpoint")),
            Err(PersistError::Io(_))
        ));
    }
}

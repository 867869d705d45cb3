//! Binary serialization of cache entries for the persistent disk tier.
//!
//! A deliberately small, versioned, self-contained codec (the build
//! environment has no serde): little-endian fixed-width integers,
//! length-prefixed strings, and a magic header. Decoding is total — every
//! malformed input returns [`DecodeError`] instead of panicking, because
//! the cache treats corrupt or truncated files as misses.
//!
//! Layout (version 2; version 1 stored raw rather than mapped pass stats):
//!
//! ```text
//! "PHCE" u16(version)
//! circuit:  u64(n) u64(gate_count) gate*
//! gate:     u8(tag) u64(qubits…) [f64(theta)]
//! emitted:  u64(count) { pauli f64(theta) }*
//! pauli:    u64(n) u64(words) x_words z_words
//! layouts:  option(vec<u64>) ×2
//! report:   u64(passes) { str(name) u64(wall_ns) stats stats str(note) }*
//!           u64(total_ns) u64(key)
//! stats:    u64 ×5 (cnot single swap total depth)
//! footer:   u64(fnv1a of every preceding byte)
//! ```
//!
//! The trailing checksum means arbitrary bit rot is detected even when it
//! lands in a field any value would satisfy (a rotation angle, a pass
//! duration): a flipped byte can never silently resurface as a "valid"
//! cache hit with wrong contents.

use std::sync::Arc;

use pauli::PauliString;
use paulihedral::Compiled;
use qcircuit::{Circuit, CircuitStats, Gate};

use crate::cache::CacheEntry;
use crate::report::{CompileReport, PassRecord};

const MAGIC: &[u8; 4] = b"PHCE";
const VERSION: u16 = 2;

/// Why a persisted entry could not be decoded. The cache only cares that
/// it failed (corrupt file ⇒ miss); the variants exist for diagnostics
/// and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// Missing or foreign magic bytes.
    BadMagic,
    /// A format version this build does not read.
    BadVersion,
    /// A structurally invalid value (unknown gate tag, out-of-range qubit,
    /// malformed Pauli bit planes, trailing garbage…).
    Invalid(&'static str),
    /// The payload does not match its trailing checksum (bit rot).
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated cache entry"),
            DecodeError::BadMagic => write!(f, "not a cache entry (bad magic)"),
            DecodeError::BadVersion => write!(f, "unsupported cache entry version"),
            DecodeError::Invalid(what) => write!(f, "invalid cache entry: {what}"),
            DecodeError::BadChecksum => write!(f, "cache entry checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------- writing

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn gate(&mut self, g: &Gate) {
        match *g {
            Gate::H(q) => {
                self.u8(0);
                self.usize(q);
            }
            Gate::X(q) => {
                self.u8(1);
                self.usize(q);
            }
            Gate::S(q) => {
                self.u8(2);
                self.usize(q);
            }
            Gate::Sdg(q) => {
                self.u8(3);
                self.usize(q);
            }
            Gate::Rz(q, t) => {
                self.u8(4);
                self.usize(q);
                self.f64(t);
            }
            Gate::Rx(q, t) => {
                self.u8(5);
                self.usize(q);
                self.f64(t);
            }
            Gate::Ry(q, t) => {
                self.u8(6);
                self.usize(q);
                self.f64(t);
            }
            Gate::Cx(a, b) => {
                self.u8(7);
                self.usize(a);
                self.usize(b);
            }
            Gate::Swap(a, b) => {
                self.u8(8);
                self.usize(a);
                self.usize(b);
            }
        }
    }

    fn pauli(&mut self, p: &PauliString) {
        self.usize(p.num_qubits());
        self.usize(p.x_words().len());
        for &w in p.x_words() {
            self.u64(w);
        }
        for &w in p.z_words() {
            self.u64(w);
        }
    }

    fn layout(&mut self, l2p: &Option<Vec<usize>>) {
        match l2p {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.usize(v.len());
                for &q in v {
                    self.usize(q);
                }
            }
        }
    }

    fn stats(&mut self, s: &CircuitStats) {
        self.usize(s.cnot);
        self.usize(s.single);
        self.usize(s.swap);
        self.usize(s.total);
        self.usize(s.depth);
    }
}

/// Encodes one cache entry into the versioned on-disk format.
pub fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);

    let c = &entry.compiled;
    w.usize(c.circuit.num_qubits());
    w.usize(c.circuit.len());
    for g in c.circuit.gates() {
        w.gate(g);
    }
    w.usize(c.emitted.len());
    for (p, theta) in &c.emitted {
        w.pauli(p);
        w.f64(*theta);
    }
    w.layout(&c.initial_l2p);
    w.layout(&c.final_l2p);

    let r = &entry.report;
    w.usize(r.passes.len());
    for p in &r.passes {
        w.str(&p.name);
        w.u64(p.wall.as_nanos().min(u128::from(u64::MAX)) as u64);
        w.stats(&p.before);
        w.stats(&p.after);
        w.str(&p.note);
    }
    w.u64(r.total.as_nanos().min(u128::from(u64::MAX)) as u64);
    w.u64(r.key);
    let sum = checksum(&w.buf);
    w.u64(sum);
    w.buf
}

/// FNV-1a over a byte slice, shared by the encoder and the verifier.
fn checksum(bytes: &[u8]) -> u64 {
    let mut fnv = crate::cache::Fingerprint::new();
    fnv.write_bytes(bytes);
    fnv.finish()
}

// ---------------------------------------------------------------- reading

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` field that must fit in `usize`. On 64-bit targets this never
    /// fails; on 32-bit targets a corrupt or adversarial value errors
    /// instead of silently truncating to the low 32 bits.
    fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Invalid("value exceeds usize"))
    }

    /// A length/count field. Bounded by what the remaining bytes could
    /// possibly encode (`min_elem_bytes` per element), so a corrupt length
    /// cannot trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if v > cap as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(v as usize)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("non-UTF-8 string"))
    }

    fn gate(&mut self, n: usize) -> Result<Gate, DecodeError> {
        let tag = self.u8()?;
        // Compare in the u64 domain: `v as usize` first would wrap on
        // 32-bit targets and could pass the range check after truncation.
        let q = |v: u64| -> Result<usize, DecodeError> {
            if v < n as u64 {
                Ok(v as usize)
            } else {
                Err(DecodeError::Invalid("gate qubit out of range"))
            }
        };
        let gate = match tag {
            0 => Gate::H(q(self.u64()?)?),
            1 => Gate::X(q(self.u64()?)?),
            2 => Gate::S(q(self.u64()?)?),
            3 => Gate::Sdg(q(self.u64()?)?),
            4 => Gate::Rz(q(self.u64()?)?, self.f64()?),
            5 => Gate::Rx(q(self.u64()?)?, self.f64()?),
            6 => Gate::Ry(q(self.u64()?)?, self.f64()?),
            7 => Gate::Cx(q(self.u64()?)?, q(self.u64()?)?),
            8 => Gate::Swap(q(self.u64()?)?, q(self.u64()?)?),
            _ => return Err(DecodeError::Invalid("unknown gate tag")),
        };
        Ok(gate)
    }

    fn pauli(&mut self) -> Result<PauliString, DecodeError> {
        let n = self.usize()?;
        let words = self.len(8)?;
        let mut x = Vec::with_capacity(words);
        for _ in 0..words {
            x.push(self.u64()?);
        }
        let mut z = Vec::with_capacity(words);
        for _ in 0..words {
            z.push(self.u64()?);
        }
        PauliString::from_bit_planes(n, x, z)
            .ok_or(DecodeError::Invalid("malformed pauli bit planes"))
    }

    fn layout(&mut self) -> Result<Option<Vec<usize>>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let len = self.len(8)?;
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(self.usize()?);
                }
                Ok(Some(v))
            }
            _ => Err(DecodeError::Invalid("unknown layout tag")),
        }
    }

    fn stats(&mut self) -> Result<CircuitStats, DecodeError> {
        Ok(CircuitStats {
            cnot: self.usize()?,
            single: self.usize()?,
            swap: self.usize()?,
            total: self.usize()?,
            depth: self.usize()?,
        })
    }
}

/// Decodes one cache entry.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed input (the disk tier maps
/// every error to a cache miss).
pub fn decode_entry(bytes: &[u8]) -> Result<CacheEntry, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if r.u16()? != VERSION {
        return Err(DecodeError::BadVersion);
    }
    // Verify the trailing checksum before trusting any field, then hide
    // the footer from the structural reader.
    if bytes.len() < 6 + 8 {
        return Err(DecodeError::Truncated);
    }
    let payload_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[payload_end..].try_into().unwrap());
    if checksum(&bytes[..payload_end]) != stored {
        return Err(DecodeError::BadChecksum);
    }
    r.buf = &bytes[..payload_end];

    let n = r.usize()?;
    let gate_count = r.len(9)?;
    let mut circuit = Circuit::new(n);
    for _ in 0..gate_count {
        circuit.push(r.gate(n)?);
    }

    let emitted_count = r.len(24)?;
    let mut emitted = Vec::with_capacity(emitted_count);
    for _ in 0..emitted_count {
        let p = r.pauli()?;
        let theta = r.f64()?;
        emitted.push((p, theta));
    }

    let initial_l2p = r.layout()?;
    let final_l2p = r.layout()?;

    let pass_count = r.len(8)?;
    let mut passes = Vec::with_capacity(pass_count);
    for _ in 0..pass_count {
        let name = r.str()?;
        let wall = std::time::Duration::from_nanos(r.u64()?);
        let before = r.stats()?;
        let after = r.stats()?;
        let note = r.str()?;
        passes.push(PassRecord {
            name,
            wall,
            before,
            after,
            note,
        });
    }
    let total = std::time::Duration::from_nanos(r.u64()?);
    let key = r.u64()?;
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes"));
    }

    Ok(CacheEntry {
        compiled: Arc::new(Compiled {
            circuit,
            emitted,
            initial_l2p,
            final_l2p,
        }),
        report: CompileReport {
            passes,
            total,
            cache_hit: false,
            key,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CacheEntry {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::H(0));
        circuit.push(Gate::Cx(0, 1));
        circuit.push(Gate::Rz(1, -0.75));
        circuit.push(Gate::Swap(1, 2));
        CacheEntry {
            compiled: Arc::new(Compiled {
                circuit,
                emitted: vec![
                    ("XYZ".parse().unwrap(), 0.5),
                    ("ZZI".parse().unwrap(), -1.25),
                ],
                initial_l2p: Some(vec![2, 0, 1]),
                final_l2p: Some(vec![0, 1, 2]),
            }),
            report: CompileReport {
                passes: vec![PassRecord {
                    name: "schedule".into(),
                    wall: std::time::Duration::from_micros(123),
                    before: CircuitStats::default(),
                    after: CircuitStats {
                        cnot: 1,
                        single: 2,
                        swap: 1,
                        total: 4,
                        depth: 4,
                    },
                    note: "do -> 2 layers".into(),
                }],
                total: std::time::Duration::from_micros(456),
                cache_hit: false,
                key: 0xDEAD_BEEF_CAFE_F00D,
            },
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let entry = sample_entry();
        let bytes = encode_entry(&entry);
        let back = decode_entry(&bytes).expect("well-formed entry decodes");
        assert_eq!(back.compiled.circuit, entry.compiled.circuit);
        assert_eq!(back.compiled.emitted, entry.compiled.emitted);
        assert_eq!(back.compiled.initial_l2p, entry.compiled.initial_l2p);
        assert_eq!(back.compiled.final_l2p, entry.compiled.final_l2p);
        assert_eq!(back.report.key, entry.report.key);
        assert_eq!(back.report.total, entry.report.total);
        assert_eq!(back.report.passes.len(), 1);
        assert_eq!(back.report.passes[0].name, "schedule");
        assert_eq!(back.report.passes[0].note, "do -> 2 layers");
        assert_eq!(back.report.passes[0].after, entry.report.passes[0].after);
        assert!(!back.report.cache_hit);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let bytes = encode_entry(&sample_entry());
        for len in 0..bytes.len() {
            let err = decode_entry(&bytes[..len]).expect_err("prefix must not decode");
            // Any error is fine; the point is total, panic-free decoding.
            let _ = err.to_string();
        }
    }

    #[test]
    fn corruption_is_detected() {
        let good = encode_entry(&sample_entry());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_entry(&bad_magic).unwrap_err(), DecodeError::BadMagic);

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert_eq!(
            decode_entry(&bad_version).unwrap_err(),
            DecodeError::BadVersion
        );

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_entry(&trailing).is_err());

        // The trailing checksum catches every single-byte flip — even in
        // fields any value would satisfy (float mantissa bits, durations).
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0xA5;
            assert!(
                decode_entry(&flipped).is_err(),
                "flip at byte {i} decoded as valid"
            );
        }
    }

    #[test]
    fn out_of_range_length_fields_are_rejected() {
        // Empty circuit + one emitted pauli puts the pauli's qubit-count
        // field at a fixed offset: 6 (header) + 8 (circuit n) + 8
        // (gate count) + 8 (emitted count) = 30.
        let entry = CacheEntry {
            compiled: Arc::new(Compiled {
                circuit: Circuit::new(3),
                emitted: vec![("XYZ".parse().unwrap(), 0.5)],
                initial_l2p: None,
                final_l2p: None,
            }),
            report: CompileReport::default(),
        };
        let mut bytes = encode_entry(&entry);
        assert!(decode_entry(&bytes).is_ok());
        // Claim a u64::MAX-qubit pauli and re-stamp the footer so the
        // structural check (not the checksum) must reject it. On 32-bit
        // targets the checked usize conversion fires; on 64-bit the bit
        // planes no longer match the claimed width. Either way: an error,
        // never a silently truncated length.
        bytes[30..38].copy_from_slice(&u64::MAX.to_le_bytes());
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        assert!(matches!(decode_entry(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn out_of_range_gate_qubits_are_rejected() {
        let mut entry = sample_entry();
        // Hand-corrupt: claim 1 qubit but keep 3-qubit gates.
        let bytes = encode_entry(&entry);
        let mut corrupted = bytes.clone();
        // n is the first u64 after the 6-byte header. Re-stamp the footer
        // so the structural qubit-range check (not the checksum) rejects it.
        corrupted[6..14].copy_from_slice(&1u64.to_le_bytes());
        let end = corrupted.len() - 8;
        let sum = checksum(&corrupted[..end]).to_le_bytes();
        corrupted[end..].copy_from_slice(&sum);
        assert!(matches!(
            decode_entry(&corrupted),
            Err(DecodeError::Invalid(_)) | Err(DecodeError::Truncated)
        ));
        // Sanity: the untouched encoding still decodes.
        entry.report.key = 1;
        assert!(decode_entry(&encode_entry(&entry)).is_ok());
    }
}

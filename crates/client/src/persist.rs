//! Versioned binary persistence for durable sessions.
//!
//! The [`wire`](crate::wire) module frames what travels between a live
//! client and a live server; this module frames what survives a restart:
//! evaluation-key sets, preloaded plaintexts, the tenant session registry
//! and (one layer up, in `fides-core`) plan-cache entries. The format is
//! deliberately dumber than the wire protocol — a flat sequence of
//! self-checking records — because its failure mode is different: a wire
//! frame arrives once from a live peer that can resend, while a snapshot
//! is read back months later from storage that may have rotted.
//!
//! ## Stream layout
//!
//! ```text
//! [u32 PERSIST_MAGIC] [u32 FORMAT_VERSION]
//! repeat:
//!   [u8 kind] [u32 len] [len payload bytes] [u32 crc32(kind ‖ payload)]
//! terminated by an END record (kind 0, empty payload)
//! ```
//!
//! * **Versioned.** The header carries [`FORMAT_VERSION`]; a reader that
//!   sees any other version fails with
//!   [`ClientError::UnsupportedFormat`] before touching a record. Layout
//!   changes bump the version — there is no in-place format evolution.
//! * **Tagged + length-prefixed.** Every record declares its [`kind`] and
//!   payload length, so a reader can walk a stream without understanding
//!   every record (and reject unknown kinds with a typed error).
//! * **CRC-guarded.** Each record carries a CRC-32 over its kind byte and
//!   payload; any bit flip surfaces as
//!   [`ClientError::ChecksumMismatch`], never as garbage state.
//!
//! Decoding follows the same hostile-input discipline as the wire
//! `FrameDecoder`: truncation and corruption are typed [`ClientError`]s,
//! never panics, and a declared length beyond [`MAX_RECORD_LEN`] is
//! rejected *before* any allocation ([`ClientError::FrameTooLarge`]).

use std::io::{Read, Write};

use bytes::BufMut;

use crate::codec::Reader;
use crate::error::ClientError;
use crate::raw::{RawPlaintext, RawSwitchingKey};
use crate::wire::{get_key_set, get_plaintext, put_key_set, put_plaintext, SessionRequest};

/// Stream magic: distinguishes a persist stream from every wire frame.
pub const PERSIST_MAGIC: u32 = 0xF1DE_D15C;

/// The only format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Hard bound on a single record's payload (2⁲⁸ bytes, matching the wire
/// decoder's frame bound). A declared length past this is rejected before
/// allocation.
pub const MAX_RECORD_LEN: usize = 1 << 28;

/// Record-kind tags. New kinds append; existing tags are frozen per
/// format version.
pub mod kind {
    /// Stream terminator (empty payload). A stream without one is
    /// truncated.
    pub const END: u8 = 0;
    /// [`ParamsRecord`](super::ParamsRecord): the parameter-chain
    /// fingerprint everything else in the stream is relative to.
    pub const PARAMS: u8 = 1;
    /// [`KeySetRecord`](super::KeySetRecord): relin/galois/conjugation
    /// switching keys.
    pub const KEY_SET: u8 = 2;
    /// [`PlaintextRecord`](super::PlaintextRecord): one preloaded
    /// evaluation-domain plaintext.
    pub const PLAINTEXT: u8 = 3;
    /// [`SessionRecord`](super::SessionRecord): one tenant's registry
    /// entry (id, device, weight, full key upload).
    pub const SESSION: u8 = 4;
    /// [`PlacementRecord`](super::PlacementRecord): one shard-router
    /// tenant → device placement.
    pub const PLACEMENT: u8 = 5;
    /// A serialized plan-cache entry. The payload codec lives in
    /// `fides-core` (plans reference scheduler types this crate does not
    /// know); this layer treats it as opaque bytes.
    pub const PLAN: u8 = 6;
    /// [`ServerMetaRecord`](super::ServerMetaRecord): server-level
    /// counters a restore validates against.
    pub const SERVER: u8 = 7;
}

const CRC_POLY: u32 = 0xEDB8_8320;

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    crc
}

/// CRC-32 (IEEE, reflected) of a record's kind byte followed by its
/// payload.
pub fn record_crc(kind: u8, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &[kind]), payload)
}

fn io_err(e: std::io::Error) -> ClientError {
    ClientError::Io(e.to_string())
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), ClientError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ClientError::Serialization(format!("truncated {what}"))
        } else {
            io_err(e)
        }
    })
}

/// Writes a persist stream: header, then CRC-guarded records, then the
/// END terminator on [`RecordWriter::finish`].
pub struct RecordWriter<W: Write> {
    w: W,
}

impl<W: Write> RecordWriter<W> {
    /// Starts a stream on `w`, writing the magic/version header.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the sink fails.
    pub fn new(mut w: W) -> Result<Self, ClientError> {
        let mut hdr = Vec::with_capacity(8);
        hdr.put_u32(PERSIST_MAGIC);
        hdr.put_u32(FORMAT_VERSION);
        w.write_all(&hdr).map_err(io_err)?;
        Ok(Self { w })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`ClientError::FrameTooLarge`] past [`MAX_RECORD_LEN`];
    /// [`ClientError::Io`] when the sink fails.
    pub fn record(&mut self, kind: u8, payload: &[u8]) -> Result<(), ClientError> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(ClientError::FrameTooLarge {
                len: payload.len() as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }
        let mut hdr = Vec::with_capacity(5);
        hdr.put_u8(kind);
        hdr.put_u32(payload.len() as u32);
        self.w.write_all(&hdr).map_err(io_err)?;
        self.w.write_all(payload).map_err(io_err)?;
        self.w
            .write_all(&record_crc(kind, payload).to_be_bytes())
            .map_err(io_err)?;
        Ok(())
    }

    /// Writes the END terminator, flushes, and returns the sink. A stream
    /// abandoned without this reads back as truncated — by design.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the sink fails.
    pub fn finish(mut self) -> Result<W, ClientError> {
        self.record(kind::END, &[])?;
        self.w.flush().map_err(io_err)?;
        Ok(self.w)
    }
}

/// One decoded record: its kind tag and raw payload (already
/// CRC-verified).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The [`kind`] tag.
    pub kind: u8,
    /// The payload bytes (interpret per kind).
    pub payload: Vec<u8>,
}

/// Reads a persist stream, validating the header once and each record's
/// length and CRC as it goes.
pub struct RecordReader<R: Read> {
    r: R,
    done: bool,
}

impl<R: Read> RecordReader<R> {
    /// Opens a stream, checking magic and version.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for a foreign magic or truncated
    /// header; [`ClientError::UnsupportedFormat`] for a version this
    /// build does not read.
    pub fn new(mut r: R) -> Result<Self, ClientError> {
        let mut hdr = [0u8; 8];
        read_exact(&mut r, &mut hdr, "persist header")?;
        let mut head = Reader::new(&hdr);
        let magic = head.u32()?;
        if magic != PERSIST_MAGIC {
            return Err(ClientError::Serialization(format!(
                "bad persist magic {magic:#010x}"
            )));
        }
        let version = head.u32()?;
        if version != FORMAT_VERSION {
            return Err(ClientError::UnsupportedFormat {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(Self { r, done: false })
    }

    /// The next record, or `None` once the END terminator has been read.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation,
    /// [`ClientError::FrameTooLarge`] for an oversized declared length
    /// (checked before allocation), [`ClientError::ChecksumMismatch`]
    /// for CRC failures, [`ClientError::Io`] for source failures.
    pub fn next_record(&mut self) -> Result<Option<Record>, ClientError> {
        if self.done {
            return Ok(None);
        }
        let mut hdr = [0u8; 5];
        read_exact(&mut self.r, &mut hdr, "record header")?;
        let mut head = Reader::new(&hdr);
        let kind = head.u8()?;
        let len = head.u32()? as usize;
        if len > MAX_RECORD_LEN {
            return Err(ClientError::FrameTooLarge {
                len: len as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }
        // The buffer grows only as bytes arrive: a lying length prefix
        // never costs a `len`-sized allocation up front.
        let mut payload = Vec::new();
        let got = (&mut self.r)
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(io_err)?;
        if got < len {
            return Err(ClientError::Serialization(format!(
                "truncated record payload (kind {kind}: {got} of {len} bytes)"
            )));
        }
        let mut crc_buf = [0u8; 4];
        read_exact(&mut self.r, &mut crc_buf, "record checksum")?;
        if u32::from_be_bytes(crc_buf) != record_crc(kind, &payload) {
            return Err(ClientError::ChecksumMismatch { kind });
        }
        if kind == kind::END {
            if !payload.is_empty() {
                return Err(ClientError::Serialization(
                    "end record carries a payload".into(),
                ));
            }
            self.done = true;
            return Ok(None);
        }
        Ok(Some(Record { kind, payload }))
    }

    /// Whether the END terminator has been consumed (a clean stream).
    pub fn finished(&self) -> bool {
        self.done
    }
}

/// The parameter-chain fingerprint a stream's key material belongs to
/// ([`kind::PARAMS`]). Readers reject streams whose fingerprint does not
/// match the chain they serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamsRecord {
    /// [`crate::wire::params_fingerprint`] of the chain.
    pub params_hash: u64,
}

impl ParamsRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.put_u64_le(self.params_hash);
        buf
    }

    /// Deserializes a [`kind::PARAMS`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let params_hash = r.u64_le()?;
        r.finish("params record")?;
        Ok(Self { params_hash })
    }
}

/// Server-level restore metadata ([`kind::SERVER`]): shape counters a
/// restore validates so a silently truncated stream cannot pass for a
/// complete one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerMetaRecord {
    /// Device-shard count the snapshot's placements assume.
    pub num_devices: u32,
    /// The registry's next session id (ids are never reused across a
    /// restart).
    pub next_session_id: u64,
    /// Session records that follow in the stream.
    pub sessions: u32,
    /// Plan records that follow in the stream.
    pub plans: u32,
}

impl ServerMetaRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        buf.put_u32(self.num_devices);
        buf.put_u64_le(self.next_session_id);
        buf.put_u32(self.sessions);
        buf.put_u32(self.plans);
        buf
    }

    /// Deserializes a [`kind::SERVER`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let meta = Self {
            num_devices: r.u32()?,
            next_session_id: r.u64_le()?,
            sessions: r.u32()?,
            plans: r.u32()?,
        };
        r.finish("server meta record")?;
        Ok(meta)
    }
}

/// An evaluation-key set ([`kind::KEY_SET`]): the relinearization key,
/// rotation (galois) keys by shift, and the conjugation key — the same
/// material a wire `SessionRequest` uploads, minus plaintexts.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySetRecord {
    /// Relinearization key, when generated.
    pub relin: Option<RawSwitchingKey>,
    /// Rotation keys as `(shift, key)` pairs.
    pub rotations: Vec<(i32, RawSwitchingKey)>,
    /// Conjugation key, when generated.
    pub conjugation: Option<RawSwitchingKey>,
}

impl KeySetRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_key_set(&mut buf, &self.relin, &self.rotations, &self.conjugation);
        buf
    }

    /// Deserializes a [`kind::KEY_SET`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let keys = get_key_set(&mut r)?;
        r.finish("key-set record")?;
        Ok(keys)
    }
}

/// One preloaded evaluation-domain plaintext ([`kind::PLAINTEXT`]) — the
/// serialized form a server's `BackendPt` cache entry is rebuilt from.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaintextRecord {
    /// The plaintext in wire form.
    pub plaintext: RawPlaintext,
}

impl PlaintextRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_plaintext(&mut buf, &self.plaintext);
        buf
    }

    /// Deserializes a [`kind::PLAINTEXT`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let plaintext = get_plaintext(&mut r)?;
        r.finish("plaintext record")?;
        Ok(Self { plaintext })
    }
}

/// One tenant's registry entry ([`kind::SESSION`]): the session id and
/// scheduling weight plus the tenant's full key upload, from which a
/// restore rebuilds device residency. Records appear in
/// least-recently-used-first order so a restore reproduces the LRU
/// eviction order exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRecord {
    /// Session id (preserved across restarts — clients keep their
    /// tickets).
    pub id: u64,
    /// Device shard holding the tenant's keys.
    pub device: u32,
    /// DRR scheduling weight (1 = default).
    pub weight: u32,
    /// The tenant's original keygen upload.
    pub upload: SessionRequest,
}

impl SessionRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.id);
        buf.put_u32(self.device);
        buf.put_u32(self.weight);
        let upload = self.upload.to_bytes();
        buf.put_u64_le(upload.len() as u64);
        buf.extend_from_slice(&upload);
        buf
    }

    /// Deserializes a [`kind::SESSION`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let id = r.u64_le()?;
        let device = r.u32()?;
        let weight = r.u32()?;
        let len = usize::try_from(r.u64_le()?).unwrap_or(usize::MAX);
        let upload = SessionRequest::from_bytes(r.bytes(len)?)?;
        r.finish("session record")?;
        Ok(Self {
            id,
            device,
            weight,
            upload,
        })
    }
}

/// One shard-router placement ([`kind::PLACEMENT`]): where a tenant's
/// keys live and what re-placing them costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Tenant (session) id.
    pub tenant: u64,
    /// Home device shard.
    pub device: u32,
    /// Key-frame size in bytes (the migration cost).
    pub key_bytes: u64,
}

impl PlacementRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        buf.put_u64_le(self.tenant);
        buf.put_u32(self.device);
        buf.put_u64_le(self.key_bytes);
        buf
    }

    /// Deserializes a [`kind::PLACEMENT`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ClientError> {
        let mut r = Reader::new(payload);
        let placement = Self {
            tenant: r.u64_le()?,
            device: r.u32()?,
            key_bytes: r.u64_le()?,
        };
        r.finish("placement record")?;
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{Domain, RawKeyDigit, RawPoly};

    fn sample_key(seed: u64) -> RawSwitchingKey {
        let mut x = seed | 1;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let poly = |w: &mut dyn FnMut() -> u64| RawPoly {
            limbs: (0..2).map(|_| (0..8).map(|_| w()).collect()).collect(),
            domain: Domain::Eval,
        };
        RawSwitchingKey {
            digits: (0..2)
                .map(|_| RawKeyDigit {
                    b: poly(&mut word),
                    a: poly(&mut word),
                })
                .collect(),
        }
    }

    fn sample_plaintext() -> RawPlaintext {
        RawPlaintext {
            poly: RawPoly::zero(16, 2, Domain::Eval),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
        }
    }

    fn roundtrip_stream(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        for (kind, payload) in records {
            w.record(*kind, payload).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn stream_roundtrips_records_in_order() {
        let recs = vec![
            (kind::PARAMS, ParamsRecord { params_hash: 42 }.encode()),
            (
                kind::PLAINTEXT,
                PlaintextRecord {
                    plaintext: sample_plaintext(),
                }
                .encode(),
            ),
        ];
        let bytes = roundtrip_stream(&recs);
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        for (kind, payload) in &recs {
            let rec = r.next_record().unwrap().unwrap();
            assert_eq!(rec.kind, *kind);
            assert_eq!(&rec.payload, payload);
        }
        assert!(r.next_record().unwrap().is_none());
        assert!(r.finished());
        // Idempotent after END.
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn key_set_roundtrip() {
        let rec = KeySetRecord {
            relin: Some(sample_key(3)),
            rotations: vec![(1, sample_key(5)), (-4, sample_key(7))],
            conjugation: None,
        };
        assert_eq!(KeySetRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn session_record_roundtrip() {
        let rec = SessionRecord {
            id: 9,
            device: 2,
            weight: 4,
            upload: SessionRequest {
                params_hash: 77,
                relin: Some(sample_key(11)),
                rotations: vec![(2, sample_key(13))],
                conjugation: Some(sample_key(17)),
                plaintexts: vec![sample_plaintext()],
            },
        };
        assert_eq!(SessionRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn meta_and_placement_roundtrip() {
        let meta = ServerMetaRecord {
            num_devices: 4,
            next_session_id: 17,
            sessions: 3,
            plans: 2,
        };
        assert_eq!(ServerMetaRecord::decode(&meta.encode()).unwrap(), meta);
        let p = PlacementRecord {
            tenant: 8,
            device: 3,
            key_bytes: 123456,
        };
        assert_eq!(PlacementRecord::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = roundtrip_stream(&[]);
        bytes[7] = 9; // forge version 9
        match RecordReader::new(&bytes[..]).err() {
            Some(ClientError::UnsupportedFormat {
                found: 9,
                supported: FORMAT_VERSION,
            }) => {}
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = roundtrip_stream(&[]);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            RecordReader::new(&bytes[..]).err(),
            Some(ClientError::Serialization(_))
        ));
    }

    #[test]
    fn bit_flip_fails_crc() {
        let bytes = roundtrip_stream(&[(kind::PARAMS, ParamsRecord { params_hash: 1 }.encode())]);
        // Flip one payload bit (past the 8-byte header and 5-byte record
        // header).
        let mut corrupt = bytes.clone();
        corrupt[14] ^= 0x01;
        let mut r = RecordReader::new(&corrupt[..]).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(ClientError::ChecksumMismatch { kind: kind::PARAMS })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = roundtrip_stream(&[(kind::PARAMS, ParamsRecord { params_hash: 1 }.encode())]);
        for cut in 0..bytes.len() {
            let slice = &bytes[..cut];
            if let Ok(mut r) = RecordReader::new(slice) {
                loop {
                    match r.next_record() {
                        Ok(Some(_)) => continue,
                        Ok(None) => {
                            assert!(r.finished(), "clean EOF only via END record");
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.put_u32(PERSIST_MAGIC);
        bytes.put_u32(FORMAT_VERSION);
        bytes.put_u8(kind::PLAN);
        bytes.put_u32(u32::MAX); // 4 GiB declared, nothing behind it
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(ClientError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn missing_end_record_reads_as_truncated() {
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        w.record(kind::PARAMS, &ParamsRecord { params_hash: 5 }.encode())
            .unwrap();
        let bytes = w.w; // abandon without finish()
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(
            r.next_record(),
            Err(ClientError::Serialization(_))
        ));
    }
}

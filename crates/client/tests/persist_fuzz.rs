//! Fuzz-style robustness suite for the persist layer: every record type
//! round-trips exactly through a full stream under arbitrary read
//! chunking, and whatever happens to the bytes afterwards — bit flips,
//! truncation, hostile length prefixes — decode returns a typed error.
//! It must never panic and never allocate an attacker-declared length
//! up front.

use std::io::Read;

use fides_client::persist::{
    kind, KeySetRecord, ParamsRecord, PlacementRecord, PlaintextRecord, RecordReader, RecordWriter,
    ServerMetaRecord, SessionRecord, MAX_RECORD_LEN,
};
use fides_client::wire::SessionRequest;
use fides_client::{ClientError, Domain, RawKeyDigit, RawPlaintext, RawPoly, RawSwitchingKey};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn gen_poly(s: &mut u64) -> RawPoly {
    let limbs = 1 + (xorshift(s) % 3) as usize;
    let n = 4 << (xorshift(s) % 3); // 4, 8 or 16 coefficients
    RawPoly {
        limbs: (0..limbs)
            .map(|_| (0..n).map(|_| xorshift(s)).collect())
            .collect(),
        domain: if xorshift(s) % 2 == 0 {
            Domain::Eval
        } else {
            Domain::Coeff
        },
    }
}

fn gen_key(s: &mut u64) -> RawSwitchingKey {
    let digits = 1 + (xorshift(s) % 3) as usize;
    RawSwitchingKey {
        digits: (0..digits)
            .map(|_| RawKeyDigit {
                b: gen_poly(s),
                a: gen_poly(s),
            })
            .collect(),
    }
}

fn gen_plaintext(s: &mut u64) -> RawPlaintext {
    RawPlaintext {
        poly: gen_poly(s),
        level: (xorshift(s) % 4) as usize,
        scale: 2f64.powi(30 + (xorshift(s) % 21) as i32),
        slots: 1 << (xorshift(s) % 5),
    }
}

fn gen_upload(s: &mut u64) -> SessionRequest {
    SessionRequest {
        params_hash: xorshift(s),
        relin: (xorshift(s) % 2 == 0).then(|| gen_key(s)),
        rotations: (0..xorshift(s) % 3)
            .map(|_| (xorshift(s) as i32 % 64, gen_key(s)))
            .collect(),
        conjugation: (xorshift(s) % 2 == 0).then(|| gen_key(s)),
        plaintexts: (0..xorshift(s) % 3).map(|_| gen_plaintext(s)).collect(),
    }
}

/// Every record type from one seed, encoded as `(kind, payload)` pairs.
fn gen_records(seed: u64) -> Vec<(u8, Vec<u8>)> {
    let mut s = seed | 1;
    vec![
        (
            kind::PARAMS,
            ParamsRecord {
                params_hash: xorshift(&mut s),
            }
            .encode(),
        ),
        (
            kind::SERVER,
            ServerMetaRecord {
                num_devices: 1 + (xorshift(&mut s) % 8) as u32,
                next_session_id: xorshift(&mut s),
                sessions: (xorshift(&mut s) % 16) as u32,
                plans: (xorshift(&mut s) % 16) as u32,
            }
            .encode(),
        ),
        (
            kind::KEY_SET,
            KeySetRecord {
                relin: (xorshift(&mut s) % 2 == 0).then(|| gen_key(&mut s)),
                rotations: (0..xorshift(&mut s) % 4)
                    .map(|_| (xorshift(&mut s) as i32 % 128, gen_key(&mut s)))
                    .collect(),
                conjugation: (xorshift(&mut s) % 2 == 0).then(|| gen_key(&mut s)),
            }
            .encode(),
        ),
        (
            kind::PLAINTEXT,
            PlaintextRecord {
                plaintext: gen_plaintext(&mut s),
            }
            .encode(),
        ),
        (
            kind::SESSION,
            SessionRecord {
                id: xorshift(&mut s),
                device: (xorshift(&mut s) % 8) as u32,
                weight: 1 + (xorshift(&mut s) % 16) as u32,
                upload: gen_upload(&mut s),
            }
            .encode(),
        ),
        (
            kind::PLACEMENT,
            PlacementRecord {
                tenant: xorshift(&mut s),
                device: (xorshift(&mut s) % 8) as u32,
                key_bytes: xorshift(&mut s),
            }
            .encode(),
        ),
    ]
}

fn stream_of(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut w = RecordWriter::new(Vec::new()).unwrap();
    for (kind, payload) in records {
        w.record(*kind, payload).unwrap();
    }
    w.finish().unwrap()
}

/// Decodes a full stream including each record's typed payload codec, so
/// corruption that survives the CRC by luck still has to parse.
fn decode_typed<R: Read>(r: R) -> Result<Vec<(u8, Vec<u8>)>, ClientError> {
    let mut reader = RecordReader::new(r)?;
    let mut out = Vec::new();
    while let Some(rec) = reader.next_record()? {
        match rec.kind {
            kind::PARAMS => drop(ParamsRecord::decode(&rec.payload)?),
            kind::SERVER => drop(ServerMetaRecord::decode(&rec.payload)?),
            kind::KEY_SET => drop(KeySetRecord::decode(&rec.payload)?),
            kind::PLAINTEXT => drop(PlaintextRecord::decode(&rec.payload)?),
            kind::SESSION => drop(SessionRecord::decode(&rec.payload)?),
            kind::PLACEMENT => drop(PlacementRecord::decode(&rec.payload)?),
            other => {
                return Err(ClientError::Serialization(format!(
                    "unexpected record kind {other}"
                )))
            }
        }
        out.push((rec.kind, rec.payload));
    }
    Ok(out)
}

/// A reader that yields at most `chunk` bytes per `read` call — the
/// worst-case `Read` impl a socket or pipe can legally present.
struct ChunkedReader<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every record type round-trips exactly: encode → stream → decode
    /// under arbitrary read chunking recovers the identical payloads, and
    /// each typed codec reproduces the original value.
    #[test]
    fn every_record_type_roundtrips_any_chunking(
        seed in any::<u64>(),
        chunk in 1usize..97,
    ) {
        let records = gen_records(seed);
        let stream = stream_of(&records);
        let got = decode_typed(ChunkedReader { data: &stream, chunk }).unwrap();
        prop_assert_eq!(got, records);

        // Typed equality, not just byte equality, for the richest types.
        let mut s = seed | 1;
        let keys = KeySetRecord {
            relin: Some(gen_key(&mut s)),
            rotations: vec![(-3, gen_key(&mut s))],
            conjugation: None,
        };
        prop_assert_eq!(KeySetRecord::decode(&keys.encode()).unwrap(), keys);
        let sess = SessionRecord {
            id: xorshift(&mut s),
            device: 1,
            weight: 7,
            upload: gen_upload(&mut s),
        };
        prop_assert_eq!(SessionRecord::decode(&sess.encode()).unwrap(), sess);
    }

    /// A single bit flip anywhere in a valid stream must surface as a
    /// typed error: the header checks catch bytes 0..8, the CRC covers
    /// kind and payload, and a corrupted length desynchronizes the CRC
    /// position. Decode must never panic and never succeed.
    #[test]
    fn single_bit_flips_are_typed_errors(seed in any::<u64>(), pick in any::<u64>()) {
        let stream = stream_of(&gen_records(seed));
        let bit = (pick % (stream.len() as u64 * 8)) as usize;
        let mut bad = stream.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_typed(&bad[..]).is_err(),
            "bit {bit} flipped but the stream decoded cleanly"
        );
    }

    /// Every proper prefix is a typed error (truncation can never pass
    /// for a complete stream — completeness is the END record).
    #[test]
    fn truncations_are_typed_errors(seed in any::<u64>(), pick in any::<u64>()) {
        let stream = stream_of(&gen_records(seed));
        let cut = (pick % stream.len() as u64) as usize;
        prop_assert!(decode_typed(&stream[..cut]).is_err());
    }

    /// Byte-range scrambles (not just single bits) never panic: decode
    /// either errors or — only when the scramble happens to rewrite
    /// nothing — reproduces the original records.
    #[test]
    fn scrambles_never_panic(seed in any::<u64>(), start in any::<u64>(), len in 1usize..64) {
        let stream = stream_of(&gen_records(seed));
        let start = (start % stream.len() as u64) as usize;
        let end = (start + len).min(stream.len());
        let mut bad = stream.clone();
        let mut s = seed | 3;
        for b in &mut bad[start..end] {
            *b = xorshift(&mut s) as u8;
        }
        match decode_typed(&bad[..]) {
            Err(_) => {}
            Ok(got) => prop_assert_eq!(
                got,
                gen_records(seed),
                "scramble produced a different valid stream"
            ),
        }
    }

    /// A hostile length prefix past `MAX_RECORD_LEN` is rejected from the
    /// header alone — before any allocation of the declared size.
    #[test]
    fn oversized_length_prefix_rejected_before_allocation(extra in 1u64..(u32::MAX as u64 >> 1)) {
        let mut stream = RecordWriter::new(Vec::new()).unwrap().finish().unwrap();
        let declared = (MAX_RECORD_LEN as u64 + extra).min(u32::MAX as u64) as u32;
        // Splice a forged record header in front of the END record.
        let mut forged = stream[..8].to_vec();
        forged.push(kind::PARAMS);
        forged.extend_from_slice(&declared.to_be_bytes());
        forged.extend_from_slice(&stream.split_off(8));
        let mut r = RecordReader::new(&forged[..]).unwrap();
        match r.next_record() {
            Err(ClientError::FrameTooLarge { len, max }) => {
                prop_assert_eq!(len, declared as u64);
                prop_assert_eq!(max, MAX_RECORD_LEN as u64);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }

    /// Lying lengths *inside* the bound cost no more than the bytes that
    /// actually arrive and end in a typed error (either truncation or CRC desync), not a
    /// `len`-sized allocation of garbage.
    #[test]
    fn lying_length_within_bound_is_typed(seed in any::<u64>(), declared in 1u32..1 << 20) {
        let stream = stream_of(&gen_records(seed));
        let mut bad = stream.clone();
        // Rewrite the first record's length field (bytes 9..13); the
        // true length leaves the stream valid, so skip that one value.
        let true_len = u32::from_be_bytes([bad[9], bad[10], bad[11], bad[12]]);
        let declared = if declared == true_len { declared + 1 } else { declared };
        bad[9..13].copy_from_slice(&declared.to_be_bytes());
        prop_assert!(decode_typed(&bad[..]).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A 4-byte window of a valid `KeySetRecord` or `SessionRecord`
    /// payload overwritten with `u32::MAX` or a random word decodes to a
    /// value or a typed error — a hostile count is refused before it sizes
    /// an allocation.
    #[test]
    fn clobbered_count_windows_are_typed(
        seed in any::<u64>(),
        pick in any::<u64>(),
        word in any::<u32>(),
        max in any::<bool>(),
    ) {
        let records = gen_records(seed);
        let word = if max { u32::MAX } else { word };
        for (kind, payload) in &records {
            let bad = clobber(payload, pick, word);
            let outcome = match *kind {
                kind::KEY_SET => KeySetRecord::decode(&bad).map(drop),
                kind::SESSION => SessionRecord::decode(&bad).map(drop),
                _ => continue,
            };
            prop_assert!(
                matches!(outcome, Ok(()) | Err(ClientError::Serialization(_))),
                "kind {kind}: {outcome:?}"
            );
        }
    }
}

/// Overwrites the 4-byte window at `pick` (mod the payload length) with
/// `word`.
fn clobber(payload: &[u8], pick: u64, word: u32) -> Vec<u8> {
    let mut bad = payload.to_vec();
    let at = (pick % (bad.len() as u64 - 3)) as usize;
    bad[at..at + 4].copy_from_slice(&word.to_be_bytes());
    bad
}

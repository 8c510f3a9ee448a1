//! Fuzz-style robustness suite for the socket framing layer: whatever
//! bytes a peer sends — truncated frames, hostile length prefixes, bit
//! flips, pure garbage — the decoder must return a typed error or keep
//! waiting for more input. It must never panic, never allocate the
//! declared (attacker-controlled) length, and never mis-frame a stream
//! that later turns valid after an error was reported. The payload
//! codecs get the same treatment: a count overwritten with a huge value
//! must be refused before it sizes an allocation.

use fides_client::wire::{
    EvalRequest, EvalResponse, Frame, FrameDecoder, FrameKind, OpProgram, ProgramOp, Reject,
    RejectCode, SessionRequest, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use fides_client::{
    ClientError, Domain, RawCiphertext, RawKeyDigit, RawPlaintext, RawPoly, RawSwitchingKey,
};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn sample_frames(seed: u64, n: usize) -> Vec<Frame> {
    let kinds = [
        FrameKind::OpenSession,
        FrameKind::SessionOpened,
        FrameKind::Eval,
        FrameKind::EvalDone,
        FrameKind::Reject,
    ];
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            let kind = kinds[(xorshift(&mut s) % kinds.len() as u64) as usize];
            let len = (xorshift(&mut s) % 512) as usize;
            let payload: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
            Frame::new(kind, seed.wrapping_add(i as u64), payload)
        })
        .collect()
}

fn gen_poly(s: &mut u64) -> RawPoly {
    let limbs = 1 + (xorshift(s) % 3) as usize;
    let n = 4 << (xorshift(s) % 2);
    RawPoly {
        limbs: (0..limbs)
            .map(|_| (0..n).map(|_| xorshift(s)).collect())
            .collect(),
        domain: Domain::Eval,
    }
}

fn gen_key(s: &mut u64) -> RawSwitchingKey {
    RawSwitchingKey {
        digits: (0..1 + xorshift(s) % 3)
            .map(|_| RawKeyDigit {
                b: gen_poly(s),
                a: gen_poly(s),
            })
            .collect(),
    }
}

fn gen_ct(s: &mut u64) -> RawCiphertext {
    RawCiphertext {
        c0: gen_poly(s),
        c1: gen_poly(s),
        level: (xorshift(s) % 4) as usize,
        scale: 2f64.powi(40),
        slots: 4,
        noise_log2: 10.0,
    }
}

/// One valid encoding of each request/response payload from a seed.
fn gen_payloads(seed: u64) -> [Vec<u8>; 3] {
    let mut s = seed | 1;
    let session = SessionRequest {
        params_hash: xorshift(&mut s),
        relin: Some(gen_key(&mut s)),
        rotations: (0..xorshift(&mut s) % 3)
            .map(|_| (xorshift(&mut s) as i32 % 64, gen_key(&mut s)))
            .collect(),
        conjugation: (xorshift(&mut s) % 2 == 0).then(|| gen_key(&mut s)),
        plaintexts: (0..xorshift(&mut s) % 3)
            .map(|_| RawPlaintext {
                poly: gen_poly(&mut s),
                level: 1,
                scale: 2f64.powi(40),
                slots: 4,
            })
            .collect(),
    };
    let mut program = OpProgram::new(2);
    let sum = program.push(ProgramOp::Add { a: 0, b: 1 });
    let rot = program.push(ProgramOp::Rotate { a: sum, k: -3 });
    program.output(rot);
    let eval = EvalRequest {
        session_id: xorshift(&mut s),
        inputs: vec![gen_ct(&mut s), gen_ct(&mut s)],
        program,
    };
    let response = EvalResponse::ok(vec![gen_ct(&mut s)]);
    [session.to_bytes(), eval.to_bytes(), response.to_bytes()]
}

/// Overwrites the 4-byte window at `pick` (mod the payload length) with
/// `word` — wherever it lands on a count, the decoder sees a hostile one.
fn clobber(payload: &[u8], pick: u64, word: u32) -> Vec<u8> {
    let mut bad = payload.to_vec();
    let at = (pick % (bad.len() as u64 - 3)) as usize;
    bad[at..at + 4].copy_from_slice(&word.to_be_bytes());
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-trip: any frame sequence, cut into arbitrary chunk sizes,
    /// decodes back to exactly the frames that were encoded.
    #[test]
    fn roundtrip_any_chunking(
        seed in any::<u64>(),
        frames in 1usize..6,
        chunk in 1usize..97,
    ) {
        let frames = sample_frames(seed, frames);
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        prop_assert_eq!(out, frames);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Truncating a valid stream anywhere is never an error — the tail
    /// frame stays pending and every complete prefix frame is delivered.
    #[test]
    fn truncation_is_pending_not_error(seed in any::<u64>(), cut_back in 1usize..64) {
        let frames = sample_frames(seed, 3);
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let cut = stream.len() - cut_back.min(stream.len() - 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..cut]);
        let mut delivered = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            prop_assert_eq!(&f, &frames[delivered]);
            delivered += 1;
        }
        prop_assert!(delivered < frames.len(), "a truncated stream cannot complete");
        // Feeding the rest completes the remaining frames exactly.
        dec.feed(&stream[cut..]);
        while let Some(f) = dec.next_frame().unwrap() {
            prop_assert_eq!(&f, &frames[delivered]);
            delivered += 1;
        }
        prop_assert_eq!(delivered, frames.len());
    }

    /// A corrupted header byte yields a typed error (or, if the
    /// corruption only touched seq/len fields, at worst a differently
    /// framed stream) — never a panic, never an unbounded buffer.
    #[test]
    fn header_bit_flips_never_panic(seed in any::<u64>(), byte in 0usize..FRAME_HEADER_LEN, bit in 0u32..8) {
        let frames = sample_frames(seed, 2);
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        stream[byte] ^= 1u8 << bit;
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        // Drain until error or exhaustion; every outcome is acceptable
        // except panic/hang. Bound the loop defensively.
        for _ in 0..8 {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(ClientError::Serialization(_)) | Err(ClientError::FrameTooLarge { .. }) => break,
                Err(e) => prop_assert!(false, "unexpected error type: {e}"),
            }
        }
    }

    /// A hostile length prefix beyond the decoder bound is rejected from
    /// the header alone — before any payload bytes exist to buffer.
    #[test]
    fn oversized_length_prefix_rejected_early(seed in any::<u64>(), extra in 1u64..u32::MAX as u64) {
        let mut s = seed | 1;
        let max = 1usize << (10 + (xorshift(&mut s) % 8) as usize);
        let declared = (max as u64 + extra).min(u32::MAX as u64);
        let mut frame = Frame::new(FrameKind::Eval, seed, vec![]).encode();
        frame[13..17].copy_from_slice(&(declared as u32).to_be_bytes());
        let mut dec = FrameDecoder::with_max_len(max);
        dec.feed(&frame);
        match dec.next_frame() {
            Err(ClientError::FrameTooLarge { len, max: m }) => {
                prop_assert_eq!(len, declared);
                prop_assert_eq!(m, max as u64);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
        // The decoder held only the header bytes, not the declared size.
        prop_assert!(dec.buffered() <= FRAME_HEADER_LEN);
    }

    /// Pure garbage: random bytes produce typed errors or pending, and
    /// the decode loop always terminates.
    #[test]
    fn garbage_never_panics(seed in any::<u64>(), len in 0usize..4096) {
        let mut s = seed | 1;
        let garbage: Vec<u8> = (0..len).map(|_| xorshift(&mut s) as u8).collect();
        let mut dec = FrameDecoder::new();
        dec.feed(&garbage);
        for _ in 0..len + 1 {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Reject payloads survive corruption the same way: typed error or
    /// valid parse, never a panic.
    #[test]
    fn reject_payload_corruption(seed in any::<u64>(), flip in 0usize..16) {
        let rej = Reject {
            code: RejectCode::Overloaded,
            retry_after_ticks: seed % 1000,
            message: format!("backlog {seed}"),
        };
        let mut bytes = rej.to_bytes();
        let idx = flip % bytes.len();
        bytes[idx] ^= 0x40;
        match Reject::from_bytes(&bytes) {
            Ok(_) => {}
            Err(ClientError::Serialization(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error type: {e}"),
        }
        // Truncations of the valid payload are typed errors.
        let bytes = rej.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(Reject::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

/// The default bound itself is sane: a maximum-size frame round-trips.
#[test]
fn max_len_boundary_roundtrips() {
    let payload = vec![7u8; 1 << 16];
    let frame = Frame::new(FrameKind::EvalDone, 9, payload);
    let mut dec = FrameDecoder::with_max_len(1 << 16);
    dec.feed(&frame.encode());
    assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
    // One byte over the bound is rejected.
    let over = Frame::new(FrameKind::EvalDone, 9, vec![7u8; (1 << 16) + 1]);
    let mut dec = FrameDecoder::with_max_len(1 << 16);
    dec.feed(&over.encode());
    assert!(matches!(
        dec.next_frame(),
        Err(ClientError::FrameTooLarge { .. })
    ));
    const _: () = assert!(MAX_FRAME_LEN >= 1 << 20, "default admits real key uploads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A 4-byte window of a valid `SessionRequest`, `EvalRequest` or
    /// `EvalResponse` overwritten with `u32::MAX` or a random word decodes
    /// to a value or a typed error — never a panic, never an allocation
    /// sized by the hostile count.
    #[test]
    fn clobbered_count_windows_are_typed(
        seed in any::<u64>(),
        pick in any::<u64>(),
        word in any::<u32>(),
        max in any::<bool>(),
    ) {
        let [session, eval, response] = gen_payloads(seed);
        let word = if max { u32::MAX } else { word };
        let typed = |r: Result<(), ClientError>| matches!(r, Ok(()) | Err(ClientError::Serialization(_)));
        prop_assert!(typed(SessionRequest::from_bytes(&clobber(&session, pick, word)).map(drop)));
        prop_assert!(typed(EvalRequest::from_bytes(&clobber(&eval, pick, word)).map(drop)));
        prop_assert!(typed(EvalResponse::from_bytes(&clobber(&response, pick, word)).map(drop)));
    }
}

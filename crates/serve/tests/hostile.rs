//! Hostile tenant input: nothing a tenant uploads may take down the
//! server or disturb another tenant.
//!
//! The two uploads below are well framed but declare counts no input of
//! their size can back — a digit count of `u32::MAX` with nothing behind
//! it, and one digit whose first polynomial declares `u32::MAX` limbs of
//! ring degree 0. A decoder that sizes an allocation by such a count
//! before checking it aborts the whole process (an allocation failure is
//! not a panic, so no `catch_unwind` can contain it). Each must come back
//! as a typed error from the codec, from `open_session_bytes`, over the
//! socket front, and from `restore` when a snapshot embeds it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fides_api::{CkksEngine, Session};
use fides_client::net::NetClient;
use fides_client::persist::{kind, PlacementRecord, RecordReader, RecordWriter, ServerMetaRecord};
use fides_client::wire::{
    EvalRequest, Frame, FrameDecoder, FrameKind, OpProgram, ProgramOp, Reject, RejectCode,
    SessionRequest,
};
use fides_client::ClientError;
use fides_core::CkksParameters;
use fides_serve::{NetServer, NetServerConfig, ServeError, Server, ServerConfig};

const SESSION_MAGIC: u32 = 0xF1DE_5E55;

/// Session magic, params hash, relin present, digit count `u32::MAX`,
/// nothing after it: 17 bytes.
fn upload_huge_digit_count() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&SESSION_MAGIC.to_be_bytes());
    b.extend_from_slice(&0u64.to_le_bytes());
    b.push(1);
    b.extend_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(b.len(), 17);
    b
}

/// One relin digit whose first polynomial declares `u32::MAX` limbs of
/// ring degree 0 (so `count · N · 8` is 0 bytes): 26 bytes.
fn upload_huge_empty_limb_count() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&SESSION_MAGIC.to_be_bytes());
    b.extend_from_slice(&0u64.to_le_bytes());
    b.push(1);
    b.extend_from_slice(&1u32.to_be_bytes());
    b.push(1); // evaluation domain
    b.extend_from_slice(&u32::MAX.to_be_bytes());
    b.extend_from_slice(&0u32.to_be_bytes());
    assert_eq!(b.len(), 26);
    b
}

fn hostile_uploads() -> [Vec<u8>; 2] {
    [upload_huge_digit_count(), upload_huge_empty_limb_count()]
}

/// Device count under test: the `FIDES_DEVICES` axis of the CI matrix.
fn num_devices() -> usize {
    std::env::var("FIDES_DEVICES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn params(devices: usize) -> CkksParameters {
    CkksParameters::new(10, 2, 40, 3)
        .unwrap()
        .with_num_devices(devices)
}

fn tenant(seed: u64) -> Session {
    CkksEngine::builder()
        .log_n(10)
        .levels(2)
        .scale_bits(40)
        .seed(seed)
        .build()
        .unwrap()
        .session()
}

/// A request that needs the relinearization key: `x² + 0.5`. Encrypted
/// once and re-addressed per server, so every server sees the same bytes.
fn request(session: &Session) -> EvalRequest {
    let mut p = OpProgram::new(1);
    let sq = p.push(ProgramOp::Square { a: 0 });
    let out = p.push(ProgramOp::AddScalar { a: sq, c: 0.5 });
    p.output(out);
    session
        .eval_request(0, &[&[0.5, -1.0, 2.0, 0.25]], &p)
        .unwrap()
}

/// The honest tenant's response frame on a server nobody attacked.
fn unloaded_frame(session: &Session, mut req: EvalRequest) -> Vec<u8> {
    let server = Server::new(ServerConfig::new(params(num_devices()))).unwrap();
    req.session_id = server
        .open_session(session.session_request(&[]).unwrap())
        .unwrap();
    let resp = server.eval(req).unwrap();
    assert!(resp.error.is_none(), "{:?}", resp.error);
    resp.to_bytes()
}

#[test]
fn oversized_counts_are_typed_codec_errors() {
    let server = Server::new(ServerConfig::new(params(num_devices()))).unwrap();
    for upload in hostile_uploads() {
        assert!(matches!(
            SessionRequest::from_bytes(&upload),
            Err(ClientError::Serialization(_))
        ));
        assert!(matches!(
            server.open_session_bytes(&upload),
            Err(ServeError::Client(ClientError::Serialization(_)))
        ));
    }
    assert_eq!(server.session_count(), 0);
}

/// Sends one `OpenSession` frame on a raw socket and returns the reply.
fn raw_open_session(addr: std::net::SocketAddr, payload: Vec<u8>) -> Frame {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&Frame::new(FrameKind::OpenSession, 9, payload).encode())
        .unwrap();
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().unwrap() {
            return frame;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed the connection without a reply");
        dec.feed(&chunk[..n]);
    }
}

#[test]
fn socket_front_rejects_oversized_counts_and_keeps_serving() {
    let honest = tenant(41);
    let mut req = request(&honest);
    let expected = unloaded_frame(&honest, req.clone());

    let server = Server::new(ServerConfig::new(params(num_devices()))).unwrap();
    let (addr, shutdown, join) =
        NetServer::spawn(server, "127.0.0.1:0", NetServerConfig::default()).unwrap();
    for upload in hostile_uploads() {
        let reply = raw_open_session(addr, upload);
        assert_eq!(reply.kind, FrameKind::Reject);
        assert_eq!(reply.seq, 9);
        assert_eq!(
            Reject::from_bytes(&reply.payload).unwrap().code,
            RejectCode::Malformed
        );
    }

    let mut client = NetClient::connect(addr).unwrap();
    req.session_id = client
        .open_session(&honest.session_request(&[]).unwrap())
        .unwrap();
    let resp = client.eval(&req).unwrap();
    assert_eq!(
        resp.to_bytes(),
        expected,
        "honest tenant's frame changed after hostile uploads"
    );
    // A fresh connection is still served.
    let mut again = NetClient::connect(addr).unwrap();
    let resp = again.eval(&req).unwrap();
    assert_eq!(resp.to_bytes(), expected);
    shutdown.shutdown();
    join.join().unwrap();
}

#[test]
fn restore_of_snapshot_embedding_oversized_counts_is_typed() {
    let server = Server::new(ServerConfig::new(params(num_devices()))).unwrap();
    let mut empty = Vec::new();
    server.snapshot(&mut empty).unwrap();
    let mut reader = RecordReader::new(&empty[..]).unwrap();
    let params_rec = reader.next_record().unwrap().unwrap();
    assert_eq!(params_rec.kind, kind::PARAMS);

    for upload in hostile_uploads() {
        let mut session = Vec::new();
        session.extend_from_slice(&1u64.to_le_bytes()); // id
        session.extend_from_slice(&0u32.to_be_bytes()); // device
        session.extend_from_slice(&1u32.to_be_bytes()); // weight
        session.extend_from_slice(&(upload.len() as u64).to_le_bytes());
        session.extend_from_slice(&upload);
        let meta = ServerMetaRecord {
            num_devices: server.num_devices() as u32,
            next_session_id: 2,
            sessions: 1,
            plans: 0,
        };
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        w.record(kind::PARAMS, &params_rec.payload).unwrap();
        w.record(kind::SERVER, &meta.encode()).unwrap();
        w.record(kind::SESSION, &session).unwrap();
        let image = w.finish().unwrap();
        match server.restore(&image[..]) {
            Err(ServeError::Client(ClientError::Serialization(_))) => {}
            other => panic!("expected a typed decode error, got {other:?}"),
        }
        assert_eq!(
            server.session_count(),
            0,
            "a failed restore restores nothing"
        );
    }
}

/// A rejected upload must not leave its router placement behind: the
/// next tenant to take the session id would inherit the rejected
/// upload's key size as its migration cost.
#[test]
fn rejected_upload_leaves_no_placement() {
    let server = Server::new(ServerConfig::new(params(2))).unwrap();
    let mut bad = tenant(43).session_request(&[]).unwrap();
    bad.relin.as_mut().unwrap().digits.clear();
    assert!(matches!(
        server.open_session(bad),
        Err(ServeError::Fides(_))
    ));

    let upload = tenant(44).session_request(&[]).unwrap();
    let key_bytes = upload.to_bytes().len() as u64;
    let sid = server.open_session(upload).unwrap();
    let mut image = Vec::new();
    server.snapshot(&mut image).unwrap();
    let mut reader = RecordReader::new(&image[..]).unwrap();
    let mut placements = Vec::new();
    while let Some(rec) = reader.next_record().unwrap() {
        if rec.kind == kind::PLACEMENT {
            placements.push(PlacementRecord::decode(&rec.payload).unwrap());
        }
    }
    assert_eq!(placements.len(), 1, "{placements:?}");
    assert_eq!(placements[0].tenant, sid);
    assert_eq!(placements[0].key_bytes, key_bytes);
}

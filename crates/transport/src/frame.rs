//! The log-shipping wire format.
//!
//! Every message on the channel is one length-prefixed frame:
//!
//! ```text
//! magic   u32 LE   0x41455453 ("AETS")
//! kind    u8       frame kind tag
//! version u8       wire protocol version (1)
//! len     u32 LE   payload length in bytes
//! hcrc    u32 LE   CRC-32 over the 10 header bytes above
//! payload len bytes
//! pcrc    u32 LE   CRC-32 over the payload
//! ```
//!
//! The split checksum is the load-bearing part: `hcrc` proves the length
//! field before any allocation or payload read trusts it, and `pcrc`
//! proves the payload. Together they guarantee the codec's corruption
//! contract — *every* single-byte change anywhere in a frame is detected
//! and surfaces as [`Error::CodecChecksum`] (or a magic/version/tag
//! rejection), never as a silently mis-framed message. Epoch payloads
//! additionally carry the epoch's own frame CRC from
//! [`aets_wal::EncodedEpoch`], so corruption is caught even if it slips
//! past transport framing (it cannot, but defence in depth is free here).
//!
//! A decode failure poisons the whole TCP session: after arbitrary byte
//! damage the receiver can no longer prove where the next frame starts,
//! so both sides tear the connection down and re-synchronise through the
//! HELLO/RESUME handshake instead of guessing.
//!
//! Kinds at or above [`KIND_EXTENSION_MIN`] are *optional extensions*:
//! both checksums still apply (corruption is never tolerated), but a
//! decoder that doesn't recognise the kind yields
//! [`Frame::Extension`] — a verified, skippable placeholder — instead of
//! [`Error::CodecBadTag`]. That is the forward-compatibility contract a
//! new sender relies on to put advisory frames (like the [`Frame::Trace`]
//! span context) in front of old receivers without breaking them; core
//! protocol kinds below the threshold still reject unknown tags hard.

use aets_common::{EpochId, Error, Result, Timestamp};
use aets_wal::{crc32, EncodedEpoch};
use std::io::{Read, Write};

/// Frame magic ("AETS" in LE byte order).
pub const MAGIC: u32 = 0x4145_5453;
/// Wire protocol version.
pub const VERSION: u8 = 1;
/// Upper bound on a frame payload; a verified header announcing more
/// than this is rejected as a protocol violation (a single epoch batch
/// is a few MiB at most).
pub const MAX_PAYLOAD: usize = 1 << 28;

const HEADER_LEN: usize = 10;
const HEADER_FULL: usize = HEADER_LEN + 4;

const KIND_HELLO: u8 = 1;
const KIND_RESUME: u8 = 2;
const KIND_EPOCH: u8 = 3;
const KIND_ACK: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;

/// First kind of the optional-extension range (`0x80..=0xFF`): verified
/// but skippable when unrecognised.
pub const KIND_EXTENSION_MIN: u8 = 0x80;
const KIND_TRACE: u8 = 0x81;

/// One message of the log-shipping protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Sender → receiver, first frame of every session: identifies the
    /// stream being shipped.
    Hello {
        /// Sequence number of the stream's first epoch.
        first_seq: u64,
        /// Total epochs the stream will deliver (drives
        /// [`aets_wal::EpochSource::num_epochs`] on the receiving side).
        stream_epochs: u64,
    },
    /// Receiver → sender, handshake reply: the resume point. The sender
    /// must (re)ship from `last_durable_epoch + 1` — or from the stream
    /// start when `None`. Everything at or below the resume point is
    /// implicitly acknowledged.
    Resume {
        /// Highest epoch sequence durably consumed by the receiver.
        last_durable_epoch: Option<u64>,
    },
    /// Sender → receiver: one encoded epoch.
    Epoch(EncodedEpoch),
    /// Receiver → sender: cumulative acknowledgement. Every epoch at or
    /// below `last_durable_epoch` has been handed to the replay path;
    /// the sender's in-flight window slides past them.
    Ack {
        /// Highest epoch sequence durably consumed.
        last_durable_epoch: u64,
    },
    /// Sender → receiver: the stream is complete (best effort — a lost
    /// shutdown is recovered by the next handshake).
    Shutdown,
    /// Sender → receiver, optional extension: trace context for the
    /// epoch frame that immediately follows it. Carries the sender's
    /// span id and ship-start stamp so the receiver's `net_recv` span
    /// joins the sender's `net_ship` span by id across processes. Purely
    /// advisory — receivers that predate it skip it as an unknown
    /// extension, and a lost one only costs a cross-node span link.
    Trace {
        /// Epoch sequence the next epoch frame will carry.
        epoch_seq: u64,
        /// The sender's `net_ship` span id.
        trace_id: u64,
        /// Ship start on the *sender's* telemetry clock (micros).
        ship_start_us: u64,
    },
    /// An extension frame ([`KIND_EXTENSION_MIN`]`..=0xFF`) this decoder
    /// doesn't recognise: checksums verified, payload discarded.
    Extension {
        /// The unrecognised kind tag.
        kind: u8,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Resume { .. } => KIND_RESUME,
            Frame::Epoch(_) => KIND_EPOCH,
            Frame::Ack { .. } => KIND_ACK,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Trace { .. } => KIND_TRACE,
            Frame::Extension { kind } => *kind,
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> Result<u32> {
    let b = buf.get(at..at + 4).ok_or(Error::CodecTruncated)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(buf: &[u8], at: usize) -> Result<u64> {
    let b = buf.get(at..at + 8).ok_or(Error::CodecTruncated)?;
    Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { first_seq, stream_epochs } => {
            put_u64(out, *first_seq);
            put_u64(out, *stream_epochs);
        }
        Frame::Resume { last_durable_epoch } => {
            out.push(u8::from(last_durable_epoch.is_some()));
            put_u64(out, last_durable_epoch.unwrap_or(0));
        }
        Frame::Epoch(e) => {
            put_u64(out, e.id.raw());
            put_u64(out, e.txn_count as u64);
            put_u64(out, e.max_commit_ts.as_micros());
            put_u32(out, e.crc32);
            out.extend_from_slice(&e.bytes);
        }
        Frame::Ack { last_durable_epoch } => put_u64(out, *last_durable_epoch),
        Frame::Shutdown => {}
        Frame::Trace { epoch_seq, trace_id, ship_start_us } => {
            put_u64(out, *epoch_seq);
            put_u64(out, *trace_id);
            put_u64(out, *ship_start_us);
        }
        // Encoding a placeholder yields an empty extension of that kind
        // (exercised by the forward-compat tests).
        Frame::Extension { .. } => {}
    }
}

fn decode_payload(kind: u8, buf: &[u8]) -> Result<Frame> {
    let exact = |want: usize| {
        if buf.len() == want {
            Ok(())
        } else {
            Err(Error::Codec(format!("frame kind {kind}: payload {} != {want}", buf.len())))
        }
    };
    match kind {
        KIND_HELLO => {
            exact(16)?;
            Ok(Frame::Hello { first_seq: get_u64(buf, 0)?, stream_epochs: get_u64(buf, 8)? })
        }
        KIND_RESUME => {
            exact(9)?;
            let last = match buf[0] {
                0 => None,
                1 => Some(get_u64(buf, 1)?),
                f => return Err(Error::Codec(format!("RESUME flag {f}"))),
            };
            Ok(Frame::Resume { last_durable_epoch: last })
        }
        KIND_EPOCH => {
            if buf.len() < 28 {
                return Err(Error::CodecTruncated);
            }
            Ok(Frame::Epoch(EncodedEpoch {
                id: EpochId::new(get_u64(buf, 0)?),
                txn_count: get_u64(buf, 8)? as usize,
                max_commit_ts: Timestamp::from_micros(get_u64(buf, 16)?),
                crc32: get_u32(buf, 24)?,
                bytes: bytes::Bytes::copy_from_slice(&buf[28..]),
            }))
        }
        KIND_ACK => {
            exact(8)?;
            Ok(Frame::Ack { last_durable_epoch: get_u64(buf, 0)? })
        }
        KIND_SHUTDOWN => {
            exact(0)?;
            Ok(Frame::Shutdown)
        }
        KIND_TRACE => {
            exact(24)?;
            Ok(Frame::Trace {
                epoch_seq: get_u64(buf, 0)?,
                trace_id: get_u64(buf, 8)?,
                ship_start_us: get_u64(buf, 16)?,
            })
        }
        k if k >= KIND_EXTENSION_MIN => Ok(Frame::Extension { kind: k }),
        _ => Err(Error::CodecBadTag),
    }
}

/// Encodes `frame` into `out` (appended; `out` is not cleared).
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, MAGIC);
    out.push(frame.kind());
    out.push(VERSION);
    let len_at = out.len();
    put_u32(out, 0); // patched below
    let payload_at = out.len() + 4; // after hcrc
    put_u32(out, 0); // hcrc, patched below
    encode_payload(frame, out);
    let plen = (out.len() - payload_at) as u32;
    out[len_at..len_at + 4].copy_from_slice(&plen.to_le_bytes());
    let hcrc = crc32(&out[start..start + HEADER_LEN]);
    out[len_at + 4..len_at + 8].copy_from_slice(&hcrc.to_le_bytes());
    let pcrc = crc32(&out[payload_at..]);
    out.extend_from_slice(&pcrc.to_le_bytes());
}

/// Decodes one frame from the front of `buf`, returning it and the
/// number of bytes consumed. Any corruption of the consumed bytes fails
/// with a checksum / truncation / protocol error — never a different
/// valid frame.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize)> {
    let header = buf.get(..HEADER_FULL).ok_or(Error::CodecTruncated)?;
    if crc32(&header[..HEADER_LEN]) != get_u32(header, HEADER_LEN)? {
        return Err(Error::CodecChecksum);
    }
    if get_u32(header, 0)? != MAGIC {
        return Err(Error::Codec("bad frame magic".into()));
    }
    if header[5] != VERSION {
        return Err(Error::Codec(format!("unsupported wire version {}", header[5])));
    }
    let plen = get_u32(header, 6)? as usize;
    if plen > MAX_PAYLOAD {
        return Err(Error::Codec(format!("frame payload {plen} exceeds cap")));
    }
    let total = HEADER_FULL + plen + 4;
    let rest = buf.get(HEADER_FULL..total).ok_or(Error::CodecTruncated)?;
    let (payload, pcrc) = rest.split_at(plen);
    if crc32(payload) != u32::from_le_bytes([pcrc[0], pcrc[1], pcrc[2], pcrc[3]]) {
        return Err(Error::CodecChecksum);
    }
    Ok((decode_payload(header[4], payload)?, total))
}

/// What [`read_frame`] observed on the socket.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete, verified frame.
    Frame(Frame, usize),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The socket read timeout elapsed *before the first byte of a
    /// frame*: the channel is idle, not torn. A timeout mid-frame is an
    /// error instead — the stream position would be unrecoverable.
    Idle,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| Error::Io(format!("reading {what}: {e}")))
}

/// Reads one frame from a blocking stream with a read timeout installed.
///
/// Returns [`ReadEvent::Idle`] only when the timeout fires between
/// frames; once a frame has started, a stall or short read is a hard
/// error because the byte-stream position can no longer be trusted.
pub fn read_frame(r: &mut impl Read) -> Result<ReadEvent> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(ReadEvent::Eof),
            Ok(_) => break,
            Err(e) if is_timeout(&e) => return Ok(ReadEvent::Idle),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::Io(format!("reading frame header: {e}"))),
        }
    }
    let mut header = [0u8; HEADER_FULL];
    header[0] = first[0];
    read_exact(r, &mut header[1..], "frame header")?;
    if crc32(&header[..HEADER_LEN]) != get_u32(&header, HEADER_LEN)? {
        return Err(Error::CodecChecksum);
    }
    if get_u32(&header, 0)? != MAGIC {
        return Err(Error::Codec("bad frame magic".into()));
    }
    if header[5] != VERSION {
        return Err(Error::Codec(format!("unsupported wire version {}", header[5])));
    }
    let plen = get_u32(&header, 6)? as usize;
    if plen > MAX_PAYLOAD {
        return Err(Error::Codec(format!("frame payload {plen} exceeds cap")));
    }
    let mut rest = vec![0u8; plen + 4];
    read_exact(r, &mut rest, "frame payload")?;
    let (payload, pcrc) = rest.split_at(plen);
    if crc32(payload) != u32::from_le_bytes([pcrc[0], pcrc[1], pcrc[2], pcrc[3]]) {
        return Err(Error::CodecChecksum);
    }
    let frame = decode_payload(header[4], payload)?;
    Ok(ReadEvent::Frame(frame, HEADER_FULL + plen + 4))
}

/// Encodes and writes `frame`, returning the bytes put on the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize> {
    let mut buf = Vec::with_capacity(64);
    encode_frame(frame, &mut buf);
    w.write_all(&buf).map_err(|e| Error::Io(format!("writing frame: {e}")))?;
    w.flush().map_err(|e| Error::Io(format!("flushing frame: {e}")))?;
    Ok(buf.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::check;

    fn sample_epoch(seq: u64, payload: &[u8]) -> EncodedEpoch {
        let bytes = bytes::Bytes::copy_from_slice(payload);
        EncodedEpoch {
            id: EpochId::new(seq),
            crc32: crc32(&bytes),
            bytes,
            txn_count: 3,
            max_commit_ts: Timestamp::from_micros(seq.wrapping_mul(100).wrapping_add(7)),
        }
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello { first_seq: 0, stream_epochs: 42 },
            Frame::Hello { first_seq: u64::MAX, stream_epochs: 0 },
            Frame::Resume { last_durable_epoch: None },
            Frame::Resume { last_durable_epoch: Some(7) },
            Frame::Epoch(sample_epoch(3, b"some epoch payload bytes")),
            Frame::Epoch(sample_epoch(0, b"")),
            Frame::Ack { last_durable_epoch: 11 },
            Frame::Shutdown,
            Frame::Trace { epoch_seq: 9, trace_id: 77, ship_start_us: 123_456 },
            Frame::Extension { kind: 0xEE },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for f in frames() {
            let mut buf = Vec::new();
            encode_frame(&f, &mut buf);
            let (got, used) = decode_frame(&buf).expect("clean frame decodes");
            assert_eq!(used, buf.len());
            assert_eq!(got, f);
        }
    }

    #[test]
    fn back_to_back_frames_decode_at_boundaries() {
        let mut buf = Vec::new();
        for f in frames() {
            encode_frame(&f, &mut buf);
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while at < buf.len() {
            let (f, used) = decode_frame(&buf[at..]).expect("boundary decode");
            at += used;
            seen.push(f);
        }
        assert_eq!(seen, frames());
    }

    /// The corruption contract, exhaustively: flipping any single byte of
    /// an encoded frame (every position, two different flip patterns) is
    /// always detected — the decode either errors or, never, yields a
    /// different frame.
    #[test]
    fn every_single_byte_flip_is_detected() {
        for f in frames() {
            let mut clean = Vec::new();
            encode_frame(&f, &mut clean);
            for pos in 0..clean.len() {
                for mask in [0x01u8, 0xFF, 0x80] {
                    let mut bad = clean.clone();
                    bad[pos] ^= mask;
                    match decode_frame(&bad) {
                        Err(_) => {}
                        Ok((got, _)) => panic!(
                            "flip {mask:#x} at byte {pos} of {f:?} decoded as {got:?} \
                             instead of failing"
                        ),
                    }
                }
            }
        }
    }

    /// Truncating a frame anywhere must fail, never mis-frame.
    #[test]
    fn every_truncation_is_detected() {
        for f in frames() {
            let mut clean = Vec::new();
            encode_frame(&f, &mut clean);
            for cut in 0..clean.len() {
                assert!(decode_frame(&clean[..cut]).is_err(), "cut at {cut} of {f:?} decoded");
            }
        }
    }

    /// Builds a raw frame of arbitrary kind and payload — what a future
    /// protocol revision this decoder has never heard of would emit.
    fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(kind);
        buf.push(VERSION);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let hcrc = crc32(&buf[..HEADER_LEN]);
        buf.extend_from_slice(&hcrc.to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf
    }

    /// The forward-compatibility contract: a verified frame with an
    /// unknown kind in the extension range decodes as a skippable
    /// placeholder (payload dropped, full frame consumed) — while an
    /// unknown kind below the range stays a hard protocol error.
    #[test]
    fn unknown_extension_kinds_are_skipped_not_fatal() {
        let buf = raw_frame(0xC7, b"future extension payload this decoder cannot parse");
        let (frame, used) = decode_frame(&buf).expect("extension decodes");
        assert_eq!(frame, Frame::Extension { kind: 0xC7 });
        assert_eq!(used, buf.len(), "whole frame consumed so the stream stays framed");

        let core_unknown = raw_frame(0x2A, b"");
        assert!(
            matches!(decode_frame(&core_unknown), Err(Error::CodecBadTag)),
            "unknown core kinds still tear the session down"
        );

        // Corruption inside an extension is still corruption: the skip
        // path never weakens the checksum contract.
        let mut bad = raw_frame(0xC7, b"future extension payload");
        let last = bad.len() - 6;
        bad[last] ^= 0xFF;
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn trace_frames_carry_cross_node_span_context() {
        let f = Frame::Trace { epoch_seq: u64::MAX, trace_id: 1, ship_start_us: 0 };
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        let (got, _) = decode_frame(&buf).expect("trace decodes");
        assert_eq!(got, f);
        // A decoder that predates KIND_TRACE would take the extension
        // path; prove the payload length matches what it would skip.
        let (_, used) = decode_frame(&buf).expect("consume");
        assert_eq!(used, buf.len());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_frame(&Frame::Shutdown, &mut buf);
        // Forge the length field and restamp the header CRC so only the
        // cap check can reject it.
        buf[6..10].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let hcrc = crc32(&buf[..HEADER_LEN]);
        buf[10..14].copy_from_slice(&hcrc.to_le_bytes());
        assert!(matches!(decode_frame(&buf), Err(Error::Codec(_))));
    }

    #[test]
    fn stream_read_round_trips() {
        let mut buf = Vec::new();
        for f in frames() {
            encode_frame(&f, &mut buf);
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in frames() {
            match read_frame(&mut cursor).expect("stream decode") {
                ReadEvent::Frame(got, _) => assert_eq!(got, want),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(read_frame(&mut cursor).expect("eof"), ReadEvent::Eof));
    }

    /// Arbitrary epoch payloads round-trip through the epoch frame.
    #[test]
    fn epoch_frames_round_trip() {
        check("epoch_frames_round_trip", 64, |rng| {
            let seq = rng.next_u64();
            let payload: Vec<u8> = (0..rng.below(512)).map(|_| rng.next_u64() as u8).collect();
            let f = Frame::Epoch(sample_epoch(seq, &payload));
            let mut buf = Vec::new();
            encode_frame(&f, &mut buf);
            let (got, used) = decode_frame(&buf).expect("decode");
            assert_eq!(used, buf.len());
            assert_eq!(got, f);
        });
    }

    /// Random single-byte damage at a random position is detected on
    /// arbitrary epoch frames too (the exhaustive unit test covers
    /// fixed frames; this covers the payload space).
    #[test]
    fn random_byte_damage_is_detected() {
        check("random_byte_damage_is_detected", 64, |rng| {
            let seq = rng.next_u64();
            let payload: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_u64() as u8).collect();
            let pos_sel = rng.next_u64();
            let mask = 1 + rng.below(255) as u8;
            let f = Frame::Epoch(sample_epoch(seq, &payload));
            let mut buf = Vec::new();
            encode_frame(&f, &mut buf);
            let pos = (pos_sel % buf.len() as u64) as usize;
            buf[pos] ^= mask;
            assert!(decode_frame(&buf).is_err());
        });
    }
}

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
//! [`aets_wal::EncodedEpoch`]; the receiver checks it once, at admission,
//! and the [`aets_wal::VerifiedEpoch`] that check builds is what the
//! durable path downstream trusts instead of checking again.
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
use aets_wal::codec::{take, take_u32, take_u64};
use aets_wal::{crc32, crc32_update, EncodedEpoch};
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

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
        /// Highest epoch sequence the receiver's consumer has fetched.
        last_durable_epoch: Option<u64>,
    },
    /// Sender → receiver: one encoded epoch.
    Epoch(EncodedEpoch),
    /// Receiver → sender: cumulative acknowledgement. Every epoch at or
    /// below `last_durable_epoch` has been handed to the replay path;
    /// the sender's in-flight window slides past them.
    Ack {
        /// Highest epoch sequence fetched (not yet necessarily durable).
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

/// Appends the payload of `frame` up to its body and returns the body:
/// an epoch's encoded records, which travel from and into the epoch's
/// own buffer; empty for every other kind.
fn encode_fields<'a>(frame: &'a Frame, out: &mut Vec<u8>) -> &'a [u8] {
    match frame {
        Frame::Hello { first_seq, stream_epochs } => {
            out.extend_from_slice(&first_seq.to_le_bytes());
            out.extend_from_slice(&stream_epochs.to_le_bytes());
        }
        Frame::Resume { last_durable_epoch } => {
            out.push(u8::from(last_durable_epoch.is_some()));
            out.extend_from_slice(&last_durable_epoch.unwrap_or(0).to_le_bytes());
        }
        Frame::Epoch(e) => {
            out.extend_from_slice(&e.id.raw().to_le_bytes());
            out.extend_from_slice(&(e.txn_count as u64).to_le_bytes());
            out.extend_from_slice(&e.max_commit_ts.as_micros().to_le_bytes());
            out.extend_from_slice(&e.crc32.to_le_bytes());
            return &e.bytes;
        }
        Frame::Ack { last_durable_epoch } => {
            out.extend_from_slice(&last_durable_epoch.to_le_bytes());
        }
        Frame::Trace { epoch_seq, trace_id, ship_start_us } => {
            out.extend_from_slice(&epoch_seq.to_le_bytes());
            out.extend_from_slice(&trace_id.to_le_bytes());
            out.extend_from_slice(&ship_start_us.to_le_bytes());
        }
        // Encoding a placeholder yields an empty extension of that kind
        // (exercised by the forward-compat tests).
        Frame::Shutdown | Frame::Extension { .. } => {}
    }
    &[]
}

/// How many bytes of a `plen`-byte payload of `kind` precede its body:
/// an epoch's id, transaction count, high-water mark and CRC.
fn fields_len(kind: u8, plen: usize) -> usize {
    plen.min(if kind == KIND_EPOCH { 28 } else { MAX_PAYLOAD })
}

/// Decodes a verified payload: its `fields`, then its `body`, which an
/// epoch keeps as its buffer (empty for every other kind).
fn decode_payload(kind: u8, fields: &[u8], body: impl Into<Arc<[u8]>>) -> Result<Frame> {
    let pos = &mut 0;
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            first_seq: take_u64(fields, pos)?,
            stream_epochs: take_u64(fields, pos)?,
        },
        KIND_RESUME => {
            let flag = take(fields, pos, 1)?[0];
            let last = take_u64(fields, pos)?;
            let last_durable_epoch = match flag {
                0 => None,
                1 => Some(last),
                f => return Err(Error::Codec(format!("RESUME flag {f}"))),
            };
            Frame::Resume { last_durable_epoch }
        }
        KIND_EPOCH => Frame::Epoch(EncodedEpoch {
            id: EpochId::new(take_u64(fields, pos)?),
            txn_count: take_u64(fields, pos)? as usize,
            max_commit_ts: Timestamp::from_micros(take_u64(fields, pos)?),
            crc32: take_u32(fields, pos)?,
            bytes: body.into(),
        }),
        KIND_ACK => Frame::Ack { last_durable_epoch: take_u64(fields, pos)? },
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_TRACE => Frame::Trace {
            epoch_seq: take_u64(fields, pos)?,
            trace_id: take_u64(fields, pos)?,
            ship_start_us: take_u64(fields, pos)?,
        },
        k if k >= KIND_EXTENSION_MIN => return Ok(Frame::Extension { kind: k }),
        _ => return Err(Error::CodecBadTag),
    };
    if *pos != fields.len() {
        return Err(Error::Codec(format!("frame kind {kind}: payload {} != {pos}", fields.len())));
    }
    Ok(frame)
}

/// Appends `frame`'s header and its payload up to the body to `out`, and
/// returns the body and the payload CRC, body included.
fn encode_head<'a>(frame: &'a Frame, out: &mut Vec<u8>) -> (&'a [u8], u32) {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[frame.kind(), VERSION]);
    out.extend_from_slice(&[0; 8]); // len and hcrc, patched below
    let fields_at = out.len();
    let body = encode_fields(frame, out);
    let plen = (out.len() - fields_at + body.len()) as u32;
    out[start + 6..start + HEADER_LEN].copy_from_slice(&plen.to_le_bytes());
    let hcrc = crc32(&out[start..start + HEADER_LEN]);
    out[start + HEADER_LEN..fields_at].copy_from_slice(&hcrc.to_le_bytes());
    (body, crc32_update(crc32(&out[fields_at..]), body))
}

/// Encodes `frame` into `out` (appended; `out` is not cleared).
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let (body, pcrc) = encode_head(frame, out);
    out.extend_from_slice(body);
    out.extend_from_slice(&pcrc.to_le_bytes());
}

/// Checks a frame header: its CRC, then magic, version and the payload
/// cap. Returns the kind and the payload length.
fn check_header(header: &[u8]) -> Result<(u8, usize)> {
    let pos = &mut 0;
    let magic = take_u32(header, pos)?;
    let kind_version = take(header, pos, 2)?;
    let (kind, version) = (kind_version[0], kind_version[1]);
    let plen = take_u32(header, pos)? as usize;
    if crc32(&header[..HEADER_LEN]) != take_u32(header, pos)? {
        return Err(Error::CodecChecksum);
    }
    if magic != MAGIC {
        return Err(Error::Codec("bad frame magic".into()));
    }
    if version != VERSION {
        return Err(Error::Codec(format!("unsupported wire version {version}")));
    }
    if plen > MAX_PAYLOAD {
        return Err(Error::Codec(format!("frame payload {plen} exceeds cap")));
    }
    Ok((kind, plen))
}

/// Decodes one frame from the front of `buf`, returning it and the
/// number of bytes consumed. Any corruption of the consumed bytes fails
/// with a checksum / truncation / protocol error — never a different
/// valid frame.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize)> {
    let pos = &mut 0;
    let (kind, plen) = check_header(take(buf, pos, HEADER_FULL)?)?;
    let payload = take(buf, pos, plen)?;
    if crc32(payload) != take_u32(buf, pos)? {
        return Err(Error::CodecChecksum);
    }
    let (fields, body) = payload.split_at(fields_len(kind, plen));
    Ok((decode_payload(kind, fields, body)?, *pos))
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
/// error because the byte-stream position can no longer be trusted. An
/// epoch's records are read straight into the buffer the epoch keeps
/// and checked there: after the socket they are never copied.
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
    let (kind, plen) = check_header(&header)?;
    let mut fields = vec![0u8; fields_len(kind, plen)];
    read_exact(r, &mut fields, "frame payload")?;
    let mut body: Arc<[u8]> = std::iter::repeat_n(0, plen - fields.len()).collect();
    let Some(dst) = Arc::get_mut(&mut body) else {
        return Err(Error::Io("a fresh frame buffer is shared".into()));
    };
    read_exact(r, dst, "frame payload")?;
    let mut pcrc = [0u8; 4];
    read_exact(r, &mut pcrc, "frame payload")?;
    if crc32_update(crc32(&fields), &body) != u32::from_le_bytes(pcrc) {
        return Err(Error::CodecChecksum);
    }
    Ok(ReadEvent::Frame(decode_payload(kind, &fields, body)?, HEADER_FULL + plen + 4))
}

/// Writes `frame`, returning the bytes put on the wire. An epoch's
/// records go out from the epoch's own buffer, between the header and
/// the payload CRC, in one vectored write: the frame is never joined.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize> {
    let mut head = Vec::with_capacity(64);
    let (body, pcrc) = encode_head(frame, &mut head);
    let pcrc = pcrc.to_le_bytes();
    let mut bufs = [IoSlice::new(&head), IoSlice::new(body), IoSlice::new(&pcrc)];
    let len = head.len() + body.len() + pcrc.len();
    let mut parts = &mut bufs[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(Error::Io("writing frame: wrote zero bytes".into())),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(format!("writing frame: {e}"))),
        }
    }
    w.flush().map_err(|e| Error::Io(format!("flushing frame: {e}")))?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::rng::check;

    fn sample_epoch(seq: u64, payload: &[u8]) -> EncodedEpoch {
        EncodedEpoch {
            id: EpochId::new(seq),
            crc32: crc32(payload),
            bytes: payload.into(),
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

    /// The corruption contract on the socket path, which reads an epoch
    /// frame's records straight into the epoch's buffer rather than
    /// through `decode_frame`: every single-byte flip and every cut of a
    /// frame fails the read.
    #[test]
    fn every_byte_flip_and_cut_read_from_a_stream_is_detected() {
        for f in frames() {
            let mut clean = Vec::new();
            encode_frame(&f, &mut clean);
            for pos in 0..clean.len() {
                for mask in [0x01u8, 0xFF, 0x80] {
                    let mut bad = clean.clone();
                    bad[pos] ^= mask;
                    if let Ok(ReadEvent::Frame(got, _)) = read_frame(&mut bad.as_slice()) {
                        panic!("flip {mask:#x} at byte {pos} of {f:?} read as {got:?}");
                    }
                }
            }
            for cut in 1..clean.len() {
                let read = read_frame(&mut &clean[..cut]);
                assert!(read.is_err(), "cut at {cut} of {f:?} read as {read:?}");
            }
        }
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

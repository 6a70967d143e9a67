//! The shipping side of the log-shipping channel.
//!
//! [`ship_epochs`] pushes a contiguous run of encoded epochs to a
//! [`crate::ShipReceiver`] over TCP, surviving every fault the channel
//! can throw at it:
//!
//! * **Bounded in-flight window** — at most [`ShipperConfig::window`]
//!   epochs may be sent but unacked; past that the shipper *blocks*
//!   (backpressure — it never drops or skips an epoch).
//! * **Reconnect with backoff** — a broken session is re-established
//!   using the same [`RetryPolicy`] backoff curve the ingest resync loop
//!   uses, up to [`ShipperConfig::max_session_attempts`] consecutive
//!   failures.
//! * **Resume from handshake** — every new session starts by asking the
//!   receiver where its durable floor is and rewinds the send cursor to
//!   `floor + 1`. Epochs in flight when the old session died are simply
//!   shipped again; the receiver's dedup makes delivery exactly-once.
//!
//! Delivery of the whole run is confirmed by acks, not by writes: the
//! call returns only once the receiver's consumer has fetched every epoch
//! (cumulative ack == last sequence), so a lost tail is always detected
//! and re-shipped.

// A poisoned lock here means a dead session, handled as an error.
#![allow(clippy::disallowed_methods)]

use crate::frame::{read_frame, write_frame, Frame, ReadEvent};
use aets_common::{Error, Result};
use aets_replay::RetryPolicy;
use aets_telemetry::trace::stages;
use aets_telemetry::{names, EventKind, OpenSpan, Telemetry};
use aets_wal::EncodedEpoch;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables of the shipping endpoint.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// Maximum sent-but-unacked epochs before the send loop blocks.
    pub window: usize,
    /// Backoff curve between failed connection attempts (reuses the
    /// ingest resync policy's exponential backoff).
    pub retry: RetryPolicy,
    /// Consecutive failed *connection attempts* (connect or handshake)
    /// before the shipper gives up. Resets whenever a session makes ack
    /// progress.
    pub max_session_attempts: u32,
    /// Per-connect TCP timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout of the ack reader (teardown granularity).
    pub io_timeout: Duration,
    /// A session whose ack floor makes no progress for this long while
    /// the shipper needs it to (full window, or draining the tail) is
    /// declared dead and replaced.
    pub ack_wait: Duration,
}

impl Default for ShipperConfig {
    fn default() -> Self {
        Self {
            window: 16,
            retry: RetryPolicy { max_retries: 8, base_backoff_us: 500, max_backoff_us: 50_000 },
            max_session_attempts: 64,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(25),
            ack_wait: Duration::from_secs(2),
        }
    }
}

/// What one [`ship_epochs`] call did on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Distinct epochs delivered (the run length).
    pub epochs: u64,
    /// Epoch frames written, counting re-ships after resyncs.
    pub frames_sent: u64,
    /// Total bytes written to the wire.
    pub bytes_sent: u64,
    /// Sessions established (first connection included).
    pub connects: u64,
    /// Sessions re-established after a break.
    pub reconnects: u64,
    /// Handshakes whose resume point rewound the send cursor.
    pub resyncs: u64,
}

/// Ack state shared between the send loop and the ack-reader thread.
struct AckState {
    /// Lowest sequence not yet cumulatively acked.
    acked_next: Mutex<u64>,
    cv: Condvar,
    session_alive: AtomicBool,
}

impl AckState {
    /// Blocks until `pred(acked floor)` holds, the session dies, or
    /// `timeout` passes without any floor progress. Returns the floor.
    fn wait_progress(&self, timeout: Duration, pred: impl Fn(u64) -> bool) -> Option<u64> {
        let mut guard = self.acked_next.lock().ok()?;
        let mut last = *guard;
        let mut deadline = Instant::now() + timeout;
        loop {
            if pred(*guard) {
                return Some(*guard);
            }
            if !self.session_alive.load(Ordering::Relaxed) {
                return Some(*guard);
            }
            if *guard > last {
                // Progress: the receiver is alive, extend the deadline.
                last = *guard;
                deadline = Instant::now() + timeout;
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(*guard);
            }
            let (g, _) = self.cv.wait_timeout(guard, deadline - now).ok()?;
            guard = g;
        }
    }
}

fn connect(addr: SocketAddr, cfg: &ShipperConfig) -> Result<TcpStream> {
    let conn = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
        .map_err(|e| Error::Io(format!("connect {addr}: {e}")))?;
    conn.set_read_timeout(Some(cfg.io_timeout)).map_err(|e| Error::Io(e.to_string()))?;
    conn.set_nodelay(true).map_err(|e| Error::Io(e.to_string()))?;
    Ok(conn)
}

/// Reads acks off the session and advances the shared floor; flips
/// `session_alive` off on EOF, decode failure, or socket error. Counter
/// handles are passed in because the thread outlives the caller's
/// `&Telemetry` borrow.
fn ack_reader(
    mut conn: TcpStream,
    state: &Arc<AckState>,
    bytes_recv: &aets_telemetry::Counter,
    frame_errors: &aets_telemetry::Counter,
) {
    loop {
        if !state.session_alive.load(Ordering::Relaxed) {
            break;
        }
        match read_frame(&mut conn) {
            Ok(ReadEvent::Idle) => continue,
            Ok(ReadEvent::Frame(Frame::Ack { last_durable_epoch }, n)) => {
                bytes_recv.add(n as u64);
                if let Ok(mut g) = state.acked_next.lock() {
                    *g = (*g).max(last_durable_epoch + 1);
                }
                state.cv.notify_all();
            }
            Ok(ReadEvent::Eof) | Ok(ReadEvent::Frame(..)) => break,
            Err(_) => {
                frame_errors.inc();
                break;
            }
        }
    }
    state.session_alive.store(false, Ordering::Relaxed);
    state.cv.notify_all();
    let _ = conn.shutdown(std::net::Shutdown::Both);
}

/// Ships `epochs` (a contiguous run of sequence ids) to the receiver at
/// `addr`, blocking until every epoch is acked (fetched). Returns the wire
/// activity; errors only when the channel stays down past the configured
/// attempt budget.
pub fn ship_epochs(
    addr: SocketAddr,
    epochs: &[EncodedEpoch],
    cfg: &ShipperConfig,
    tel: &Telemetry,
) -> Result<ShipReport> {
    if cfg.window == 0 {
        return Err(Error::Config("shipper window must be positive".into()));
    }
    let Some(first) = epochs.first() else {
        return Ok(ShipReport::default());
    };
    let first_seq = first.id.raw();
    for (i, e) in epochs.iter().enumerate() {
        if e.id.raw() != first_seq + i as u64 {
            return Err(Error::Config(format!(
                "shipped run must be contiguous: epoch[{i}] is {} not {}",
                e.id.raw(),
                first_seq + i as u64
            )));
        }
    }
    let end_seq = first_seq + epochs.len() as u64; // one past the last

    let mut report = ShipReport { epochs: epochs.len() as u64, ..Default::default() };
    let mut attempts: u32 = 0;
    // Highest cursor any session reached; a later resume below it is a
    // resync (those epochs travel twice).
    let mut high_cursor = first_seq;
    // Open `net_ship` spans of epochs sent but not yet known durable,
    // keyed by (seq, span id). They outlive a single session: an ack
    // lost with the connection resurfaces as a later handshake's resume
    // floor, which still closes them. A resync can send one epoch twice
    // (the receiver dedups); both attempts stay open, because the sender
    // cannot know which delivery admitted — the floor closes both, and
    // the receiver's ring holds the id of the one that landed.
    let mut ship_spans: BTreeMap<(u64, u64), OpenSpan> = BTreeMap::new();

    loop {
        if attempts > 0 {
            if attempts >= cfg.max_session_attempts {
                return Err(Error::Io(format!(
                    "log shipping to {addr} failed after {attempts} session attempts"
                )));
            }
            std::thread::sleep(cfg.retry.backoff(attempts.min(cfg.retry.max_retries.max(1))));
        }
        attempts += 1;

        // --- Connect + handshake. ---
        let mut conn = match connect(addr, cfg) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let hello = Frame::Hello { first_seq, stream_epochs: epochs.len() as u64 };
        let Ok(n) = write_frame(&mut conn, &hello) else { continue };
        report.bytes_sent += n as u64;
        tel.registry().counter(names::NET_BYTES_SENT).add(n as u64);
        let resume = {
            let deadline = Instant::now() + cfg.ack_wait;
            loop {
                match read_frame(&mut conn) {
                    Ok(ReadEvent::Frame(Frame::Resume { last_durable_epoch }, _)) => {
                        break Some(last_durable_epoch)
                    }
                    Ok(ReadEvent::Idle) if Instant::now() < deadline => continue,
                    _ => break None,
                }
            }
        };
        let Some(resume_floor) = resume else { continue };

        report.connects += 1;
        tel.registry().counter(names::NET_CONNECTS).inc();
        if report.connects > 1 {
            report.reconnects += 1;
            tel.registry().counter(names::NET_RECONNECTS).inc();
            tel.event(EventKind::NetReconnect { attempts: attempts - 1 });
        }

        let cursor = match resume_floor {
            Some(d) => (d + 1).clamp(first_seq, end_seq),
            None => first_seq,
        };
        // The resume floor is the receiver's durable word: spans it
        // covers delivered (their ack just died with the old socket).
        // Spans above it stay open — the epoch may already sit in the
        // receiver's admission buffer and turn durable without another
        // trip, or the re-ship below supersedes the span in place.
        finish_acked_ship_spans(&mut ship_spans, cursor, tel);
        if cursor < high_cursor {
            report.resyncs += 1;
            tel.registry().counter(names::NET_RESYNCS).inc();
            tel.event(EventKind::NetResync { resume_seq: cursor, rewound: high_cursor - cursor });
        }
        // The session made it through a handshake: reset the failure
        // budget only once it also moves the ack floor (below).
        let state = Arc::new(AckState {
            acked_next: Mutex::new(cursor),
            cv: Condvar::new(),
            session_alive: AtomicBool::new(true),
        });
        let reader_conn = match conn.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        let reader_state = state.clone();
        let bytes_recv = tel.registry().counter(names::NET_BYTES_RECV);
        let frame_errors = tel.registry().counter(names::NET_FRAME_ERRORS);
        let reader = std::thread::spawn(move || {
            ack_reader(reader_conn, &reader_state, &bytes_recv, &frame_errors);
        });

        let baseline_floor = cursor;
        let (session_ok, sent_cursor) = run_session(
            &mut conn,
            epochs,
            first_seq,
            cursor,
            end_seq,
            cfg,
            tel,
            &state,
            &mut report,
            &mut ship_spans,
        );
        // Tear the reader down with the session.
        state.session_alive.store(false, Ordering::Relaxed);
        state.cv.notify_all();
        let _ = conn.shutdown(std::net::Shutdown::Both);
        let _ = reader.join();

        // A poisoned floor is a dead session's: nothing was acked.
        let floor = state.acked_next.lock().map_or(baseline_floor, |g| *g);
        // Acks that raced the session's death still count: those epochs
        // were delivered, so their ship spans close rather than vanish.
        // Truly unacked spans drop — the resync re-ships under fresh ids.
        finish_acked_ship_spans(&mut ship_spans, floor, tel);
        high_cursor = high_cursor.max(sent_cursor).max(floor);
        if session_ok && floor >= end_seq {
            return Ok(report);
        }
        if floor > baseline_floor {
            // The receiver durably consumed something this session:
            // that is progress, so the failure budget resets.
            attempts = 0;
        }
    }
}

/// Closes every pending `net_ship` span whose epoch the cumulative ack
/// floor has passed: ship → ack is the span, not ship → write.
fn finish_acked_ship_spans(
    pending: &mut BTreeMap<(u64, u64), OpenSpan>,
    floor: u64,
    tel: &Telemetry,
) {
    let live = pending.split_off(&(floor, 0));
    for (_, span) in std::mem::replace(pending, live) {
        span.finish(tel.spans());
    }
}

/// The write loop of one live session. Returns whether every epoch was
/// written *and* acked within this session, plus the highest send
/// cursor reached (a later resume below it is a resync: those epochs
/// travel twice). Still-open ship spans stay in `ship_spans` so acks
/// that outlive the session (late-racing frames, the next handshake's
/// resume floor) can close them.
#[allow(clippy::too_many_arguments)]
fn run_session(
    conn: &mut TcpStream,
    epochs: &[EncodedEpoch],
    first_seq: u64,
    mut cursor: u64,
    end_seq: u64,
    cfg: &ShipperConfig,
    tel: &Telemetry,
    state: &Arc<AckState>,
    report: &mut ShipReport,
    ship_spans: &mut BTreeMap<(u64, u64), OpenSpan>,
) -> (bool, u64) {
    while cursor < end_seq {
        // Backpressure: sending `cursor` is allowed only while fewer than
        // `window` epochs are in flight, i.e. once the cumulative ack
        // floor has reached `cursor + 1 - window` (trivially true for the
        // first `window` epochs).
        let need = (cursor + 1).saturating_sub(cfg.window as u64);
        let floor = state.wait_progress(cfg.ack_wait, |acked| acked >= need).unwrap_or(0);
        if !state.session_alive.load(Ordering::Relaxed) {
            return (false, cursor);
        }
        if floor < need {
            // No ack progress for a whole ack_wait while the window was
            // full: the session is wedged (half-open peer).
            return (false, cursor);
        }
        finish_acked_ship_spans(ship_spans, floor, tel);
        tel.registry()
            .histogram(names::NET_ACK_WINDOW_DEPTH)
            .record_micros(cursor.saturating_sub(floor));
        let e = &epochs[(cursor - first_seq) as usize];
        // A sampled epoch gets its trace context shipped right before it
        // in an optional extension frame old receivers skip.
        if let Some(span) = tel.spans().begin(cursor, stages::NET_SHIP, None, None) {
            let trace = Frame::Trace {
                epoch_seq: cursor,
                trace_id: span.id().0,
                ship_start_us: span.start_us(),
            };
            match write_frame(conn, &trace) {
                Ok(n) => {
                    report.bytes_sent += n as u64;
                    tel.registry().counter(names::NET_BYTES_SENT).add(n as u64);
                    ship_spans.insert((cursor, span.id().0), span);
                }
                Err(_) => return (false, cursor),
            }
        }
        match write_frame(conn, &Frame::Epoch(e.clone())) {
            Ok(n) => {
                report.bytes_sent += n as u64;
                report.frames_sent += 1;
                tel.registry().counter(names::NET_BYTES_SENT).add(n as u64);
                tel.registry().counter(names::NET_EPOCHS_SHIPPED).inc();
            }
            Err(_) => return (false, cursor),
        }
        cursor += 1;
    }
    // Drain the tail: wait for the cumulative ack to reach the end.
    let floor = state.wait_progress(cfg.ack_wait, |acked| acked >= end_seq).unwrap_or(0);
    finish_acked_ship_spans(ship_spans, floor, tel);
    if floor >= end_seq {
        // Fully acked: best-effort goodbye while the socket is still up
        // (a lost SHUTDOWN costs nothing — the stream is durable).
        if let Ok(n) = write_frame(conn, &Frame::Shutdown) {
            report.bytes_sent += n as u64;
            tel.registry().counter(names::NET_BYTES_SENT).add(n as u64);
        }
        return (true, cursor);
    }
    (false, cursor)
}

//! Seeded network-fault injection for the log-shipping channel.
//!
//! [`FaultProxy`] is a loopback TCP proxy that sits between the shipper
//! and the receiver and damages the byte stream according to a
//! [`NetFaultPlan`]: hard disconnects, full partitions (refusing new
//! connections for a while), single-byte corruption, truncated frames,
//! added delay, duplicated chunks, and half-open stalls (the peer
//! vanishes without a FIN). The *schedule* is a pure function of the plan
//! seed, the direction and the segment number, drawn with the same
//! `splitmix64` generator as the WAL- and fleet-level fault plans, and
//! each direction's segment number is that direction's cumulative byte
//! offset (over all sessions) divided by
//! [`NetFaultPlan::segment_bytes`]. So *which byte range* of a
//! direction's stream each fault lands in is fixed by the seed alone,
//! however the kernel chunks the reads and however the two directions
//! interleave; only the byte inside that range a corruption or a
//! truncation hits still depends on the chunk a read returned.
//!
//! Everything the proxy injects is survivable by construction: corruption
//! and truncation are caught by the frame CRCs, disconnects and stalls by
//! the read timeouts, and the sender heals all of them through the
//! HELLO/RESUME handshake plus receiver-side epoch dedup. The chaos test
//! (`tests/net_chaos.rs`) proves the replayed state equals the serial
//! oracle under every plan.

use aets_common::{splitmix64, unit_f64};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One class of network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Both directions of the session are torn down immediately (RST-ish
    /// close). The shipper reconnects and resyncs.
    Disconnect,
    /// The proxy refuses new connections for
    /// [`NetFaultPlan::partition_ms`]: a network partition between the
    /// nodes. Existing sessions are torn down too.
    Partition,
    /// One byte of the forwarded chunk is flipped. The receiver's frame
    /// CRC rejects it and the session is torn down (a corrupted TCP
    /// stream cannot be re-framed).
    CorruptByte,
    /// Only a prefix of the chunk is forwarded, then the session closes:
    /// a frame torn mid-flight.
    Truncate,
    /// The chunk is forwarded after a delay drawn from
    /// `1..=max_delay_us`.
    Delay,
    /// The chunk is forwarded twice. Raw TCP never does this; it models a
    /// buggy middlebox and exercises the receiver's re-framing (the
    /// duplicate bytes mis-frame and tear the session, after which epoch
    /// dedup absorbs any re-shipped epochs).
    Duplicate,
    /// The session goes silent for [`NetFaultPlan::stall_ms`] and then
    /// dies without a clean close — a half-open connection. Survived by
    /// read timeouts on both sides.
    HalfOpenStall,
}

/// A deterministic schedule of network faults.
#[derive(Debug, Clone)]
pub struct NetFaultPlan {
    /// Seed of the schedule.
    pub seed: u64,
    /// Probability that a forwarded segment draws a fault.
    pub rate: f64,
    /// Kinds to draw from (uniformly). Empty disables all faults (the
    /// proxy becomes a transparent relay).
    pub kinds: Vec<NetFaultKind>,
    /// Bytes of one direction's stream per schedule draw: the proxy
    /// re-rolls the fault dice each time a direction's cumulative byte
    /// offset enters a new segment of this many bytes.
    /// Calibrate against the frame sizes in flight — a granularity much
    /// smaller than one epoch frame makes per-frame fault probability
    /// approach certainty and no session can ever deliver anything.
    pub segment_bytes: usize,
    /// Upper bound on an injected [`NetFaultKind::Delay`] (microseconds).
    pub max_delay_us: u64,
    /// How long a [`NetFaultKind::Partition`] refuses connections.
    pub partition_ms: u64,
    /// How long a [`NetFaultKind::HalfOpenStall`] stays silent before the
    /// session dies.
    pub stall_ms: u64,
}

impl NetFaultPlan {
    /// A plan over every fault kind with timing defaults tuned to stay
    /// well under the transport's session timeouts (so injected delay is
    /// absorbed, while stalls and partitions still force reconnects).
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate,
            kinds: vec![
                NetFaultKind::Disconnect,
                NetFaultKind::Partition,
                NetFaultKind::CorruptByte,
                NetFaultKind::Truncate,
                NetFaultKind::Delay,
                NetFaultKind::Duplicate,
                NetFaultKind::HalfOpenStall,
            ],
            segment_bytes: 8192,
            max_delay_us: 2_000,
            partition_ms: 30,
            stall_ms: 40,
        }
    }

    /// Restricts the plan to `kinds`.
    pub fn kinds(mut self, kinds: Vec<NetFaultKind>) -> Self {
        self.kinds = kinds;
        self
    }

    /// The fault (if any) drawn for segment number `segment` of
    /// `direction` (0 = shipper→receiver, 1 = receiver→shipper).
    pub fn fault_at(&self, direction: u8, segment: u64) -> Option<NetFaultKind> {
        if self.kinds.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(
                    segment.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(direction) << 56),
                ),
        );
        if unit_f64(h) >= self.rate {
            return None;
        }
        Some(self.kinds[(splitmix64(h) % self.kinds.len() as u64) as usize])
    }

    /// Delay drawn for a [`NetFaultKind::Delay`] at `segment`.
    pub fn delay_us(&self, segment: u64) -> u64 {
        1 + splitmix64(self.seed ^ segment ^ 0xDE1A) % self.max_delay_us.max(1)
    }

    /// Corruption coordinates for a [`NetFaultKind::CorruptByte`] /
    /// [`NetFaultKind::Truncate`] at `segment`: a draw the proxy reduces
    /// modulo the live chunk length.
    pub fn damage_draw(&self, segment: u64) -> u64 {
        splitmix64(self.seed ^ segment ^ 0xBAD0_B17E)
    }
}

/// What a pump thread should do with one forwarded chunk.
enum Action {
    Forward,
    Disconnect,
    Partition,
    Corrupt(u64),
    Truncate(u64),
    Delay(u64),
    Duplicate,
    Stall,
}

struct Shared {
    plan: NetFaultPlan,
    shutdown: AtomicBool,
    /// Bytes read off the wire so far, per direction, across all
    /// sessions: `offset / segment_bytes` indexes that direction's
    /// schedule.
    offsets: [AtomicU64; 2],
    /// Proxy-clock milliseconds until which new connections are refused.
    partition_until_ms: AtomicU64,
    connections: AtomicU64,
    start: std::time::Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn partitioned(&self) -> bool {
        self.now_ms() < self.partition_until_ms.load(Ordering::Relaxed)
    }

    fn begin_partition(&self) {
        let until = self.now_ms() + self.plan.partition_ms;
        self.partition_until_ms.fetch_max(until, Ordering::Relaxed);
    }
}

/// A faulty loopback TCP proxy in front of `upstream`.
///
/// Connect the shipper to [`FaultProxy::addr`]; each accepted connection
/// is bridged to `upstream` by two pump threads (one per direction), each
/// applying the plan's schedule to the chunks it forwards.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .field("connections", &self.connections())
            .finish()
    }
}

impl FaultProxy {
    /// Starts the proxy on an ephemeral loopback port.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            plan,
            shutdown: AtomicBool::new(false),
            offsets: [AtomicU64::new(0), AtomicU64::new(0)],
            partition_until_ms: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            start: std::time::Instant::now(),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_shared.shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        if accept_shared.partitioned() {
                            drop(client); // refused: the network is split
                            continue;
                        }
                        accept_shared.connections.fetch_add(1, Ordering::Relaxed);
                        match TcpStream::connect(upstream) {
                            Ok(server) => {
                                if let Ok(mut spawned) =
                                    spawn_session(client, server, accept_shared.clone())
                                {
                                    pumps.append(&mut spawned);
                                }
                            }
                            Err(_) => drop(client),
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        Ok(FaultProxy { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The address the shipper should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (refused-while-partitioned ones are
    /// not counted).
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Stops accepting and tears down every live session.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn decide(plan: &NetFaultPlan, direction: u8, segment: u64) -> Action {
    match plan.fault_at(direction, segment) {
        None => Action::Forward,
        Some(NetFaultKind::Disconnect) => Action::Disconnect,
        Some(NetFaultKind::Partition) => Action::Partition,
        Some(NetFaultKind::CorruptByte) => Action::Corrupt(plan.damage_draw(segment)),
        Some(NetFaultKind::Truncate) => Action::Truncate(plan.damage_draw(segment)),
        Some(NetFaultKind::Delay) => Action::Delay(plan.delay_us(segment)),
        Some(NetFaultKind::Duplicate) => Action::Duplicate,
        Some(NetFaultKind::HalfOpenStall) => Action::Stall,
    }
}

/// Spawns the two pump threads of one bridged session. Each pump owns one
/// direction; a session-wide alive flag lets either side tear both down.
fn spawn_session(
    client: TcpStream,
    server: TcpStream,
    shared: Arc<Shared>,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let alive = Arc::new(AtomicBool::new(true));
    let c2 = client.try_clone()?;
    let s2 = server.try_clone()?;
    let mut handles = Vec::with_capacity(2);
    for (direction, src, dst) in [(0u8, client, s2), (1u8, server, c2)] {
        let shared = shared.clone();
        let alive = alive.clone();
        handles.push(std::thread::spawn(move || {
            pump(direction, src, dst, &shared, &alive);
            alive.store(false, Ordering::Relaxed);
        }));
    }
    Ok(handles)
}

fn pump(
    direction: u8,
    mut src: TcpStream,
    mut dst: TcpStream,
    shared: &Shared,
    alive: &AtomicBool,
) {
    // Short read timeout so the pump notices shutdown/peer-teardown fast.
    let _ = src.set_read_timeout(Some(Duration::from_millis(20)));
    let segment_bytes = shared.plan.segment_bytes.max(1) as u64;
    let offset = &shared.offsets[usize::from(direction)];
    let mut buf = vec![0u8; segment_bytes as usize];
    while alive.load(Ordering::Relaxed) && !shared.shutdown.load(Ordering::Relaxed) {
        // Read at most up to the next segment boundary, so a chunk never
        // straddles two schedule draws.
        let room = segment_bytes - offset.load(Ordering::Relaxed) % segment_bytes;
        let n = match src.read(&mut buf[..room as usize]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let chunk = &buf[..n];
        // One draw per segment entered: the chunk holding a segment's
        // first byte takes that segment's fault. `fetch_add` hands every
        // byte offset to exactly one chunk, so this holds even if an old
        // session's pump of this direction is still draining.
        let start = offset.fetch_add(n as u64, Ordering::Relaxed);
        let boundary = start.next_multiple_of(segment_bytes);
        let action = if boundary < start + n as u64 {
            decide(&shared.plan, direction, boundary / segment_bytes)
        } else {
            Action::Forward
        };
        match action {
            Action::Forward => {
                if dst.write_all(chunk).is_err() {
                    break;
                }
            }
            Action::Disconnect => break,
            Action::Partition => {
                shared.begin_partition();
                break;
            }
            Action::Corrupt(draw) => {
                let mut damaged = chunk.to_vec();
                let pos = (draw % n as u64) as usize;
                damaged[pos] ^= 1 << (splitmix64(draw) % 8);
                if dst.write_all(&damaged).is_err() {
                    break;
                }
            }
            Action::Truncate(draw) => {
                let keep = (draw % n as u64) as usize;
                let _ = dst.write_all(&chunk[..keep]);
                break;
            }
            Action::Delay(us) => {
                std::thread::sleep(Duration::from_micros(us));
                if dst.write_all(chunk).is_err() {
                    break;
                }
            }
            Action::Duplicate => {
                if dst.write_all(chunk).is_err() || dst.write_all(chunk).is_err() {
                    break;
                }
            }
            Action::Stall => {
                std::thread::sleep(Duration::from_millis(shared.plan.stall_ms));
                break;
            }
        }
    }
    let _ = src.shutdown(std::net::Shutdown::Both);
    let _ = dst.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = NetFaultPlan::new(42, 0.3);
        let b = NetFaultPlan::new(42, 0.3);
        let c = NetFaultPlan::new(43, 0.3);
        let sched = |p: &NetFaultPlan| {
            (0..2u8)
                .flat_map(|d| (0..500u64).map(move |s| (d, s)))
                .map(|(d, s)| p.fault_at(d, s))
                .collect::<Vec<_>>()
        };
        assert_eq!(sched(&a), sched(&b));
        assert_ne!(sched(&a), sched(&c));
    }

    #[test]
    fn rate_bounds_fault_frequency() {
        let p = NetFaultPlan::new(7, 0.2);
        let hits = (0..10_000u64).filter(|&s| p.fault_at(0, s).is_some()).count();
        assert!((1_500..2_500).contains(&hits), "~20% expected, got {hits}");
        assert!(NetFaultPlan::new(7, 0.0).fault_at(0, 3).is_none());
        assert!(NetFaultPlan::new(7, 1.0).kinds(vec![]).fault_at(0, 3).is_none());
    }

    #[test]
    fn pinned_chaos_seeds_break_the_session_inside_the_shipped_stream() {
        // `tests/net_chaos.rs` ships 968 503 bytes shipper→receiver under
        // a rate-0.03 plan (re-ships only add to that), so direction 0
        // enters segments 0..=118 however the reads are chunked. Each
        // pinned lane seed tears the session down from the proxy side
        // inside that range, so no lane can pass without a reconnect.
        const STREAM_BYTES: u64 = 968_503;
        for (seed, first_break) in [(0xA5EED1, 35), (0xB5EED2, 58), (0xC5EED3, 69)] {
            let plan = NetFaultPlan::new(seed, 0.03);
            let crossed = STREAM_BYTES / plan.segment_bytes as u64;
            let found = (0..=crossed).find(|&s| {
                matches!(
                    plan.fault_at(0, s),
                    Some(
                        NetFaultKind::Disconnect
                            | NetFaultKind::Partition
                            | NetFaultKind::Truncate
                            | NetFaultKind::HalfOpenStall
                    )
                )
            });
            assert_eq!(found, Some(first_break), "seed {seed:#x}");
        }
    }

    #[test]
    fn a_fault_lands_in_its_segments_byte_range_whatever_the_chunking() {
        // Only disconnects, so the bytes upstream sees before EOF are
        // exactly the segments before the first faulted one.
        let mut plan = NetFaultPlan::new(11, 0.2).kinds(vec![NetFaultKind::Disconnect]);
        plan.segment_bytes = 1_000;
        let first = (0..).find(|&s| plan.fault_at(0, s).is_some()).unwrap();
        assert!((2..40).contains(&first), "pick a seed whose first fault is a few segments in");

        let upstream = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut got = Vec::new();
            let _ = s.read_to_end(&mut got);
            got.len() as u64
        });
        let proxy = FaultProxy::start(upstream_addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        // Writes that never line up with a segment boundary; the proxy
        // hangs up part-way, so later writes may fail.
        for _ in 0..(first + 2) * 3 {
            if c.write_all(&[0xAB; 333]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sink.join().unwrap(), first * 1_000);
    }

    #[test]
    fn transparent_proxy_relays_bytes_both_ways() {
        let upstream = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let proxy = FaultProxy::start(upstream_addr, NetFaultPlan::new(1, 0.0)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping over the relay").unwrap();
        let mut back = [0u8; 64];
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = c.read(&mut back).unwrap();
        assert_eq!(&back[..n], b"ping over the relay");
        echo.join().unwrap();
        assert_eq!(proxy.connections(), 1);
    }

    #[test]
    fn partition_refuses_new_connections_until_it_heals() {
        let upstream = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        // Upstream accepts in a loop and holds sockets open briefly.
        let up = std::thread::spawn(move || {
            upstream.set_nonblocking(true).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut held = Vec::new();
            while std::time::Instant::now() < deadline {
                match upstream.accept() {
                    Ok((s, _)) => held.push(s),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        let mut plan = NetFaultPlan::new(5, 0.0);
        plan.partition_ms = 150;
        let proxy = FaultProxy::start(upstream_addr, plan).unwrap();
        proxy.shared.begin_partition();
        // While partitioned, connections are accepted by the OS listener
        // but immediately dropped by the proxy: the first read sees EOF.
        let mut refused = TcpStream::connect(proxy.addr()).unwrap();
        refused.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(refused.read(&mut b).unwrap_or(0), 0, "partitioned conn must close");
        // After the partition heals, sessions are bridged again.
        std::thread::sleep(Duration::from_millis(200));
        let healed = TcpStream::connect(proxy.addr());
        assert!(healed.is_ok());
        std::thread::sleep(Duration::from_millis(30));
        assert!(proxy.connections() >= 1);
        drop(proxy);
        up.join().unwrap();
    }
}

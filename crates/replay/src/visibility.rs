//! Visibility at the backup (Algorithm 3).
//!
//! Each table group publishes `tg_cmt_ts` — the commit timestamp of its
//! latest committed transaction — and the engine publishes a global
//! `global_cmt_ts` high-water mark. A query with arrival timestamp `qts`
//! over groups `G` proceeds once `min_{g in G} tg_cmt_ts(g) >= qts` or
//! `global_cmt_ts >= qts`; otherwise it waits for replay to catch up.
//!
//! Waiting is event-driven: each blocked query registers a wait cell and
//! parks its thread; [`VisibilityBoard::publish_group`] and
//! [`VisibilityBoard::publish_global`] evaluate the admission predicate
//! per registered waiter and unpark exactly the threads whose condition
//! just became decidable (admitted, or provably hopeless because a
//! quarantined group froze below the waiter's `qts`). A publish takes no
//! lock unless it reaches the smallest registered `qts` — below that it
//! can decide no waiter, and one load guards the slow path.

use aets_common::sync::lock;
use aets_common::{GroupId, Timestamp};
use aets_telemetry::{names, ClockFn, Gauge, Histogram, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Freshness instrumentation attached to a board: on every group
/// publish, the visibility lag `now − primary_commit_ts` is recorded
/// into the group's histogram and the live watermark gauges advance.
/// `clock` returns "now" on the *primary* clock in microseconds — the
/// realtime runner maps wall time through its `time_scale`, the durable
/// backup uses the latest ingested epoch's high-water mark.
struct BoardTelemetry {
    lag: Vec<Histogram>,
    tg_gauge: Vec<Gauge>,
    global_gauge: Gauge,
    clock: ClockFn,
}

impl std::fmt::Debug for BoardTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardTelemetry").field("groups", &self.lag.len()).finish()
    }
}

/// How a wait for Algorithm 3 admission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The admission condition holds: the snapshot at `qts` is readable.
    Visible,
    /// The timeout elapsed before the condition held.
    TimedOut,
    /// The wait is hopeless: a group the query needs is quarantined with
    /// its watermark frozen below `qts`, and the global high-water mark
    /// (which also freezes under quarantine) is below `qts` too. The
    /// snapshot can never become consistent without operator recovery.
    Quarantined,
}

/// One parked admission waiter. Registered under the board's waiter lock;
/// publishers evaluate the predicate against these fields and unpark the
/// owning thread when it becomes decidable.
#[derive(Debug)]
struct WaitCell {
    qts: Timestamp,
    gids: Vec<GroupId>,
    /// Grouping generation the waiter's `gids` were computed under. When
    /// it trails the board's, the per-group shortcut is disabled for this
    /// waiter (see [`VisibilityBoard::wait_admission`]).
    gen: u64,
    thread: Thread,
}

/// Builds a [`VisibilityBoard`], optionally instrumented. The single
/// construction path: `VisibilityBoard::builder(n).build()` for a bare
/// board, with `.telemetry(..)` chained for an instrumented one.
#[derive(Default)]
pub struct VisibilityBoardBuilder {
    num_groups: usize,
    tel: Option<BoardTelemetry>,
}

impl VisibilityBoardBuilder {
    /// Attaches freshness instrumentation: per-group
    /// `aets_visibility_lag_us` histograms, `aets_tg_cmt_ts_us{group}`
    /// gauges, and the `aets_global_cmt_ts_us` gauge. `clock` must return
    /// "now" on the primary clock in microseconds (see `BoardTelemetry`).
    /// A disabled `Telemetry` leaves the board uninstrumented.
    pub fn telemetry(mut self, telemetry: &Telemetry, clock: ClockFn) -> Self {
        if !telemetry.is_enabled() {
            return self;
        }
        let reg = telemetry.registry();
        self.tel = Some(BoardTelemetry {
            lag: (0..self.num_groups)
                .map(|g| {
                    reg.histogram_with(names::VISIBILITY_LAG_US, aets_telemetry::group_label(g))
                })
                .collect(),
            tg_gauge: (0..self.num_groups)
                .map(|g| reg.gauge_with(names::TG_CMT_TS_US, aets_telemetry::group_label(g)))
                .collect(),
            global_gauge: reg.gauge(names::GLOBAL_CMT_TS_US),
            clock,
        });
        self
    }

    /// Finishes the board: `num_groups` groups, all at timestamp zero.
    pub fn build(self) -> VisibilityBoard {
        VisibilityBoard {
            groups: (0..self.num_groups).map(|_| AtomicU64::new(0)).collect(),
            quarantined: (0..self.num_groups).map(|_| AtomicBool::new(false)).collect(),
            global: AtomicU64::new(0),
            grouping_gen: AtomicU64::new(0),
            min_waiter_qts: AtomicU64::new(u64::MAX),
            waiters: Mutex::new(Vec::new()),
            tel: self.tel,
        }
    }
}

/// Shared visibility state between the replay engine (writer) and query
/// threads (waiters).
#[derive(Debug)]
pub struct VisibilityBoard {
    groups: Vec<AtomicU64>,
    quarantined: Vec<AtomicBool>,
    global: AtomicU64,
    /// Generation of the table grouping the group watermarks are indexed
    /// by; the engine bumps it when it applies a live `Regroup` at an
    /// epoch boundary. Admission checks carrying an older generation fall
    /// back to the global watermark only (their `gids` may be stale).
    grouping_gen: AtomicU64,
    /// Smallest `qts` among the registered waiters, `u64::MAX` when there
    /// are none; written only under the `waiters` lock. A publish below it
    /// cannot make any waiter visible (every admission path needs a
    /// watermark `>= qts`), so publishers skip the registry on one load.
    ///
    /// Lost-wakeup freedom is a store/load pairing in both directions,
    /// all four accesses `SeqCst`: a waiter stores `min_waiter_qts` and
    /// then loads the watermarks; a publisher bumps a watermark and then
    /// loads `min_waiter_qts`. In the single total order either the
    /// publisher sees the waiter's `qts` (and takes the lock to wake it)
    /// or the waiter's re-check sees the published watermark.
    min_waiter_qts: AtomicU64,
    waiters: Mutex<Vec<Arc<WaitCell>>>,
    tel: Option<BoardTelemetry>,
}

impl VisibilityBoard {
    /// Starts building a board for `num_groups` groups.
    pub fn builder(num_groups: usize) -> VisibilityBoardBuilder {
        VisibilityBoardBuilder { num_groups, tel: None }
    }

    /// Number of groups on the board.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Publishes a (monotone) group commit timestamp and wakes exactly
    /// the waiters whose admission condition this publish decides.
    /// Called by the group's committer at the end of Algorithm 1.
    pub fn publish_group(&self, g: GroupId, ts: Timestamp) {
        self.groups[g.index()].fetch_max(ts.as_micros(), Ordering::SeqCst);
        if let Some(t) = &self.tel {
            let now = (t.clock)();
            t.lag[g.index()].record_micros(now.saturating_sub(ts.as_micros()));
            t.tg_gauge[g.index()].set_max(ts.as_micros());
        }
        self.wake_decided(ts.as_micros());
    }

    /// Publishes the global commit high-water mark.
    pub fn publish_global(&self, ts: Timestamp) {
        self.global.fetch_max(ts.as_micros(), Ordering::SeqCst);
        if let Some(t) = &self.tel {
            t.global_gauge.set_max(ts.as_micros());
        }
        self.wake_decided(ts.as_micros());
    }

    /// Marks `groups` (board indices) quarantined: their watermarks are
    /// frozen and waiters needing them past the freeze are woken to fail
    /// fast instead of sleeping out their timeout. Called by the engine
    /// when its quarantine ledger grows; never un-sets within a run
    /// (recovery builds a fresh board).
    pub fn set_quarantined(&self, groups: &[usize]) {
        let mut changed = false;
        for &g in groups {
            if let Some(flag) = self.quarantined.get(g) {
                changed |= !flag.swap(true, Ordering::Release);
            }
        }
        if changed {
            // Unconditional: a freeze decides waiters at any `qts`.
            self.wake_decided(u64::MAX);
        }
    }

    /// Whether group `g` (board index) is quarantined.
    pub fn is_quarantined(&self, g: usize) -> bool {
        self.quarantined.get(g).map(|f| f.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// Board indices of every quarantined group, ascending — the set the
    /// GC/checkpoint clamp and degraded-mode health checks consult.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.quarantined.len()).filter(|&g| self.is_quarantined(g)).collect()
    }

    /// Whether any group is quarantined (degraded mode: reads needing a
    /// frozen group past its watermark are refused).
    pub fn any_quarantined(&self) -> bool {
        self.quarantined.iter().any(|f| f.load(Ordering::Acquire))
    }

    /// Unparks every registered waiter whose wait a publish of
    /// `published` (micros) made decidable — admitted or provably
    /// hopeless. Lock-free when the publish is below every waiter's `qts`
    /// (in particular when nobody waits).
    fn wake_decided(&self, published: u64) {
        if published < self.min_waiter_qts.load(Ordering::SeqCst) {
            return;
        }
        let waiters = lock(&self.waiters);
        for cell in waiters.iter() {
            if self.is_visible_at(&cell.gids, cell.gen, cell.qts)
                || self.is_hopeless_at(&cell.gids, cell.gen, cell.qts)
            {
                cell.thread.unpark();
            }
        }
    }

    /// The grouping generation the board currently trusts per-group
    /// admission against. Starts at 0; the engine advances it when a live
    /// `Regroup` takes effect.
    pub fn grouping_gen(&self) -> u64 {
        self.grouping_gen.load(Ordering::Acquire)
    }

    /// Records that the engine applied a regroup: admission checks whose
    /// `gids` were computed under an older generation lose the per-group
    /// shortcut and admit via `global_cmt_ts` only (always correct, since
    /// the global only advances when every group has fully replayed the
    /// epoch). Monotone; waiters are re-evaluated because the predicate
    /// narrows for stale cells.
    pub fn advance_grouping_gen(&self, gen: u64) {
        self.grouping_gen.fetch_max(gen, Ordering::Release);
    }

    /// Current `tg_cmt_ts` of `g`. `SeqCst`, like the load of
    /// `global_cmt_ts`: an admission re-check reads the watermarks through
    /// these, and that read pairs with `min_waiter_qts`.
    pub fn tg_cmt_ts(&self, g: GroupId) -> Timestamp {
        Timestamp::from_micros(self.groups[g.index()].load(Ordering::SeqCst))
    }

    /// Current `global_cmt_ts`.
    pub fn global_cmt_ts(&self) -> Timestamp {
        Timestamp::from_micros(self.global.load(Ordering::SeqCst))
    }

    /// `min_tg_cmt_ts` over a set of groups (`Timestamp::MAX` if empty).
    pub fn min_over(&self, gids: &[GroupId]) -> Timestamp {
        gids.iter().map(|g| self.tg_cmt_ts(*g)).min().unwrap_or(Timestamp::MAX)
    }

    /// The Algorithm 3 admission condition for a query at `qts` over
    /// `gids`, resolved under the board's current grouping generation.
    pub fn is_visible(&self, gids: &[GroupId], qts: Timestamp) -> bool {
        self.is_visible_at(gids, self.grouping_gen(), qts)
    }

    /// Algorithm 3 for `gids` resolved under generation `gen`. `gids` that
    /// predate the current grouping may only be admitted by the global
    /// watermark — after a regroup they can name groups that no longer own
    /// the query's tables, so the per-group minimum proves nothing.
    fn is_visible_at(&self, gids: &[GroupId], gen: u64, qts: Timestamp) -> bool {
        (gen == self.grouping_gen() && self.min_over(gids) >= qts) || self.global_cmt_ts() >= qts
    }

    /// A wait at `qts` over `gids` is hopeless when some needed group is
    /// quarantined with its frozen watermark below `qts` and the global
    /// mark — frozen too, since quarantine stops global publishes — is
    /// also below `qts`. Stale `gids` cannot prove the query's tables sit
    /// behind a frozen group, so such a wait is never declared hopeless
    /// early — it admits via the global or runs out its timeout.
    fn is_hopeless_at(&self, gids: &[GroupId], gen: u64, qts: Timestamp) -> bool {
        gen == self.grouping_gen()
            && self.global_cmt_ts() < qts
            && gids.iter().any(|g| self.is_quarantined(g.index()) && self.tg_cmt_ts(*g) < qts)
    }

    /// The safe version-chain GC / checkpoint watermark given the board's
    /// quarantine set and the oldest still-active query's `qts`
    /// (`Timestamp::MAX` when no query is active).
    ///
    /// Three clamps compose: (a) no version an admitted query may still
    /// read can be pruned, so the oldest active `qts` bounds it; (b) the
    /// global high-water mark bounds it, because versions above
    /// `global_cmt_ts` may still be reorganised by in-flight commits; and
    /// (c) a quarantined group's *frozen* `tg_cmt_ts` bounds it — the
    /// group's suffix past the freeze was never replayed, so state above
    /// that timestamp is incomplete and must not be consolidated into
    /// full images or checkpointed as truth.
    pub fn gc_watermark(&self, query_floor: Timestamp) -> Timestamp {
        let mut wm = query_floor.min(self.global_cmt_ts());
        for g in self.quarantined() {
            wm = wm.min(Timestamp::from_micros(self.groups[g].load(Ordering::Acquire)));
        }
        wm
    }

    /// Parks the calling thread until the Algorithm 3 condition for
    /// (`gids`, `qts`) is decided or `timeout` elapses.
    ///
    /// `gen` is the grouping generation `gids` were resolved under
    /// ([`crate::ReplayEngine::board_groups_for`] returns the pair): a
    /// regroup landing after the resolution can only make the wait stale,
    /// never wrongly fresh, and a stale wait is admitted via the global
    /// watermark only.
    ///
    /// Event-driven: no polling — the thread sleeps until a publish (or
    /// quarantine) makes its wait decidable. Returns
    /// [`WaitOutcome::Quarantined`] as soon as the wait is provably
    /// hopeless (see [`VisibilityBoard::set_quarantined`]) instead of
    /// sleeping out the timeout.
    pub fn wait_admission(
        &self,
        gids: &[GroupId],
        gen: u64,
        qts: Timestamp,
        timeout: Duration,
    ) -> WaitOutcome {
        let decided = || {
            if self.is_visible_at(gids, gen, qts) {
                Some(WaitOutcome::Visible)
            } else if self.is_hopeless_at(gids, gen, qts) {
                Some(WaitOutcome::Quarantined)
            } else {
                None
            }
        };
        if let Some(outcome) = decided() {
            return outcome;
        }
        let deadline = Instant::now() + timeout;
        let cell =
            Arc::new(WaitCell { qts, gids: gids.to_vec(), gen, thread: std::thread::current() });
        {
            let mut waiters = lock(&self.waiters);
            waiters.push(cell.clone());
            self.min_waiter_qts.fetch_min(qts.as_micros(), Ordering::SeqCst);
        }
        // Re-check after registering: a publish between the first check
        // and registration would otherwise be a lost wakeup.
        let outcome = loop {
            if let Some(outcome) = decided() {
                break outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                break WaitOutcome::TimedOut;
            }
            std::thread::park_timeout(deadline - now);
        };
        {
            let mut waiters = lock(&self.waiters);
            waiters.retain(|w| !Arc::ptr_eq(w, &cell));
            let min = waiters.iter().map(|w| w.qts.as_micros()).min().unwrap_or(u64::MAX);
            self.min_waiter_qts.store(min, Ordering::SeqCst);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn g(i: u32) -> GroupId {
        GroupId::new(i)
    }

    #[test]
    fn publishes_are_monotone() {
        let b = VisibilityBoard::builder(2).build();
        b.publish_group(g(0), Timestamp::from_micros(100));
        b.publish_group(g(0), Timestamp::from_micros(50)); // stale, ignored
        assert_eq!(b.tg_cmt_ts(g(0)), Timestamp::from_micros(100));
        b.publish_global(Timestamp::from_micros(70));
        b.publish_global(Timestamp::from_micros(60));
        assert_eq!(b.global_cmt_ts(), Timestamp::from_micros(70));
    }

    #[test]
    fn min_over_takes_the_laggard() {
        let b = VisibilityBoard::builder(3).build();
        b.publish_group(g(0), Timestamp::from_micros(100));
        b.publish_group(g(1), Timestamp::from_micros(10));
        b.publish_group(g(2), Timestamp::from_micros(200));
        assert_eq!(b.min_over(&[g(0), g(1)]), Timestamp::from_micros(10));
        assert_eq!(b.min_over(&[g(0), g(2)]), Timestamp::from_micros(100));
    }

    #[test]
    fn global_watermark_unblocks_idle_groups() {
        let b = VisibilityBoard::builder(2).build();
        b.publish_group(g(0), Timestamp::from_micros(5)); // group 1 never updated
        let qts = Timestamp::from_micros(50);
        assert!(!b.is_visible(&[g(0), g(1)], qts));
        b.publish_global(Timestamp::from_micros(60));
        assert!(b.is_visible(&[g(0), g(1)], qts), "global_cmt_ts must admit the query");
    }

    #[test]
    fn wait_visible_blocks_until_publish() {
        let b = Arc::new(VisibilityBoard::builder(1).build());
        let waiter = {
            let b = b.clone();
            thread::spawn(move || {
                b.wait_admission(&[g(0)], 0, Timestamp::from_micros(100), Duration::from_secs(5))
            })
        };
        thread::sleep(Duration::from_millis(20));
        b.publish_group(g(0), Timestamp::from_micros(150));
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Visible);
    }

    #[test]
    fn wait_visible_times_out() {
        let b = VisibilityBoard::builder(1).build();
        let out =
            b.wait_admission(&[g(0)], 0, Timestamp::from_micros(100), Duration::from_millis(30));
        assert_eq!(out, WaitOutcome::TimedOut);
    }

    #[test]
    fn empty_group_set_is_immediately_visible() {
        let b = VisibilityBoard::builder(1).build();
        assert!(b.is_visible(&[], Timestamp::MAX));
    }

    #[test]
    fn stale_generation_admits_via_global_only() {
        let b = VisibilityBoard::builder(2).build();
        let qts = Timestamp::from_micros(100);
        b.publish_group(g(0), Timestamp::from_micros(150));
        // Fresh generation: the per-group shortcut admits.
        assert_eq!(
            b.wait_admission(&[g(0)], 0, qts, Duration::from_millis(5)),
            WaitOutcome::Visible
        );
        // A regroup lands: gids computed under generation 0 no longer
        // prove anything about group 0's tables, so the same wait must
        // fall back to the global watermark — and time out without it.
        b.advance_grouping_gen(1);
        assert_eq!(b.grouping_gen(), 1);
        assert_eq!(
            b.wait_admission(&[g(0)], 0, qts, Duration::from_millis(10)),
            WaitOutcome::TimedOut
        );
        // The global publishes only at full-epoch completion, so it
        // admits any generation.
        b.publish_global(Timestamp::from_micros(150));
        assert_eq!(
            b.wait_admission(&[g(0)], 0, qts, Duration::from_millis(5)),
            WaitOutcome::Visible
        );
    }

    #[test]
    fn stale_generation_is_never_hopeless() {
        // A quarantined group fails fresh-generation waiters fast, but a
        // stale waiter's gids may name the wrong group entirely — it must
        // keep waiting on the global rather than be failed early.
        let b = VisibilityBoard::builder(2).build();
        let qts = Timestamp::from_micros(100);
        b.set_quarantined(&[0]);
        assert_eq!(
            b.wait_admission(&[g(0)], 0, qts, Duration::from_millis(5)),
            WaitOutcome::Quarantined
        );
        b.advance_grouping_gen(1);
        assert_eq!(
            b.wait_admission(&[g(0)], 0, qts, Duration::from_millis(10)),
            WaitOutcome::TimedOut
        );
    }

    #[test]
    fn parked_stale_waiter_wakes_on_global_publish() {
        let b = Arc::new(VisibilityBoard::builder(2).build());
        b.advance_grouping_gen(3);
        let waiter = {
            let b = b.clone();
            thread::spawn(move || {
                b.wait_admission(&[g(0)], 2, Timestamp::from_micros(100), Duration::from_secs(5))
            })
        };
        thread::sleep(Duration::from_millis(20));
        // A group publish alone must not admit the stale waiter...
        b.publish_group(g(0), Timestamp::from_micros(150));
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "stale waiter admitted by a per-group publish");
        // ...the global publish does.
        b.publish_global(Timestamp::from_micros(150));
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Visible);
    }

    #[test]
    fn parked_waiters_deregister_after_wake() {
        let b = Arc::new(VisibilityBoard::builder(2).build());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let b = b.clone();
                thread::spawn(move || {
                    b.wait_admission(
                        &[g(i % 2)],
                        0,
                        Timestamp::from_micros(100),
                        Duration::from_secs(5),
                    )
                })
            })
            .collect();
        // Let the waiters park, then satisfy only group 0.
        thread::sleep(Duration::from_millis(20));
        b.publish_group(g(0), Timestamp::from_micros(100));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(lock(&b.waiters).len(), 2, "group-1 waiters still parked");
        b.publish_group(g(1), Timestamp::from_micros(100));
        for h in handles {
            assert_eq!(h.join().unwrap(), WaitOutcome::Visible);
        }
        assert_eq!(lock(&b.waiters).len(), 0, "all waiters deregistered");
        assert_eq!(b.min_waiter_qts.load(Ordering::SeqCst), u64::MAX);
    }

    #[test]
    fn publish_racing_registration_is_not_a_lost_wakeup() {
        // Hammer the register/publish race: the waiter re-checks after
        // registering, so a publish that lands in between must still
        // admit it promptly.
        for ts in 1..50u64 {
            let b = Arc::new(VisibilityBoard::builder(1).build());
            let waiter = {
                let b = b.clone();
                thread::spawn(move || {
                    b.wait_admission(&[g(0)], 0, Timestamp::from_micros(ts), Duration::from_secs(5))
                })
            };
            b.publish_group(g(0), Timestamp::from_micros(ts));
            assert_eq!(waiter.join().unwrap(), WaitOutcome::Visible);
        }
    }

    #[test]
    fn publishes_below_every_waiter_skip_the_registry() {
        let b = Arc::new(VisibilityBoard::builder(2).build());
        let qts = Timestamp::from_micros(100);
        let waiter = {
            let b = b.clone();
            thread::spawn(move || b.wait_admission(&[g(0)], 0, qts, Duration::from_secs(30)))
        };
        while b.min_waiter_qts.load(Ordering::SeqCst) != 100 {
            thread::yield_now();
        }
        // Probe: hold the registry lock and publish below `qts` from
        // another thread. A publish that touched the registry would block
        // on the lock until the deadline below.
        let registry = lock(&b.waiters);
        let publisher = {
            let b = b.clone();
            thread::spawn(move || {
                for ts in 1..100 {
                    b.publish_group(g(0), Timestamp::from_micros(ts));
                    b.publish_group(g(1), Timestamp::from_micros(ts));
                    b.publish_global(Timestamp::from_micros(ts));
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !publisher.is_finished() && Instant::now() < deadline {
            thread::yield_now();
        }
        let lock_free = publisher.is_finished();
        drop(registry);
        publisher.join().unwrap();
        assert!(lock_free, "a publish below the smallest qts took the registry lock");
        assert!(!waiter.is_finished(), "nothing published so far reaches qts");
        // The publish that reaches `qts` takes the slow path and wakes it.
        b.publish_group(g(0), qts);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Visible);
        assert_eq!(b.min_waiter_qts.load(Ordering::SeqCst), u64::MAX, "deregistered");

        // Quarantine still fails a waiter fast, whatever was published.
        let waiter = {
            let b = b.clone();
            thread::spawn(move || {
                b.wait_admission(&[g(1)], 0, Timestamp::from_micros(500), Duration::from_secs(30))
            })
        };
        while b.min_waiter_qts.load(Ordering::SeqCst) != 500 {
            thread::yield_now();
        }
        b.set_quarantined(&[1]);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Quarantined);
    }

    #[test]
    fn quarantine_fails_hopeless_waiters_fast() {
        let b = Arc::new(VisibilityBoard::builder(2).build());
        b.publish_group(g(0), Timestamp::from_micros(10));
        let waiter = {
            let b = b.clone();
            thread::spawn(move || {
                b.wait_admission(&[g(0)], 0, Timestamp::from_micros(100), Duration::from_secs(30))
            })
        };
        thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        b.set_quarantined(&[0]);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Quarantined);
        assert!(start.elapsed() < Duration::from_secs(5), "no sleeping out the 30s timeout");
        assert!(b.is_quarantined(0));
        assert!(!b.is_quarantined(1));
        // A fresh wait on the frozen group fails immediately.
        assert_eq!(
            b.wait_admission(&[g(0)], 0, Timestamp::from_micros(100), Duration::from_secs(30)),
            WaitOutcome::Quarantined
        );
    }

    #[test]
    fn quarantined_group_below_qts_still_admits_via_global() {
        let b = VisibilityBoard::builder(2).build();
        b.set_quarantined(&[1]);
        b.publish_global(Timestamp::from_micros(200));
        assert_eq!(
            b.wait_admission(&[g(1)], 0, Timestamp::from_micros(100), Duration::from_millis(10)),
            WaitOutcome::Visible,
            "global high-water mark still admits"
        );
    }

    #[test]
    fn quarantined_group_at_or_past_qts_is_readable() {
        let b = VisibilityBoard::builder(1).build();
        b.publish_group(g(0), Timestamp::from_micros(100));
        b.set_quarantined(&[0]);
        assert_eq!(
            b.wait_admission(&[g(0)], 0, Timestamp::from_micros(80), Duration::from_millis(10)),
            WaitOutcome::Visible,
            "frozen watermark already covers the snapshot"
        );
    }

    #[test]
    fn telemetry_board_records_lag_and_gauges() {
        use aets_telemetry::{names, Telemetry};
        let tel = Telemetry::new();
        // Primary "now" is pinned at 1000us: a publish at 400us has
        // 600us of visibility lag.
        let clock: aets_telemetry::ClockFn = Arc::new(|| 1_000);
        let b = VisibilityBoard::builder(2).telemetry(&tel, clock).build();
        assert_eq!(b.num_groups(), 2);
        b.publish_group(g(0), Timestamp::from_micros(400));
        b.publish_group(g(1), Timestamp::from_micros(990));
        b.publish_global(Timestamp::from_micros(990));
        let snap = tel.snapshot();
        let lag0 = snap
            .histogram_summary(names::VISIBILITY_LAG_US, &aets_telemetry::group_label(0))
            .expect("group 0 lag histogram");
        assert_eq!(lag0.count, 1);
        // 600us lands in the [512, 1024) log bucket; max is exact.
        assert_eq!(lag0.max_us, 600);
        assert_eq!(snap.gauge(names::TG_CMT_TS_US, &aets_telemetry::group_label(1)), Some(990));
        assert_eq!(snap.gauge(names::GLOBAL_CMT_TS_US, ""), Some(990));
        // Stale publish: watermark gauge must not regress.
        b.publish_group(g(1), Timestamp::from_micros(100));
        let snap = tel.snapshot();
        assert_eq!(snap.gauge(names::TG_CMT_TS_US, &aets_telemetry::group_label(1)), Some(990));
    }

    #[test]
    fn gc_watermark_is_clamped_by_global_query_floor_and_quarantine() {
        let b = VisibilityBoard::builder(3).build();
        b.publish_group(g(0), Timestamp::from_micros(100));
        b.publish_group(g(1), Timestamp::from_micros(40)); // frozen by quarantine
        b.publish_group(g(2), Timestamp::from_micros(90));
        b.publish_global(Timestamp::from_micros(80));

        // Healthy: min(query_floor, global).
        assert_eq!(b.gc_watermark(Timestamp::MAX), Timestamp::from_micros(80));
        assert_eq!(b.gc_watermark(Timestamp::from_micros(60)), Timestamp::from_micros(60));
        // Out-of-range quarantine indices are ignored, not a panic.
        b.set_quarantined(&[7]);
        assert_eq!(b.gc_watermark(Timestamp::MAX), Timestamp::from_micros(80));
        // A quarantined group's frozen tg_cmt_ts clamps below both.
        b.set_quarantined(&[1]);
        assert_eq!(b.gc_watermark(Timestamp::MAX), Timestamp::from_micros(40));
        assert_eq!(
            b.gc_watermark(Timestamp::from_micros(20)),
            Timestamp::from_micros(20),
            "query floor below the frozen group still wins"
        );
    }
}

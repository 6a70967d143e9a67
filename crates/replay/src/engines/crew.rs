//! The persistent replay crew: `threads − 1` helper threads an engine
//! starts once and joins on drop, plus the thread that calls `replay`,
//! which is crew member 0 and works instead of blocking in a join.
//!
//! The crew runs one *job* at a time — the AETS engine posts one per
//! replay stage. [`Crew::run`] opens a gate, runs the job on the calling
//! thread, then closes the gate and waits until every helper that went
//! through it has come back out (the stage barrier). A helper that has
//! not noticed the gate by the time it closes simply never runs that
//! job: the caller may finish a stage alone and pays nothing for a
//! helper that was parked.
//!
//! # The gate
//!
//! One atomic word holds the gate: an `OPEN` bit, the count of helpers
//! currently *inside* the job, and the job's generation. A helper enters
//! with a compare-exchange that bumps the inside count only while the
//! word still says "open, generation `g`" for a generation it has not
//! run yet, so it can neither enter a closed gate nor run one job twice,
//! and a stale read of generation `g` can never admit it to `g + 1`'s
//! job by accident — the exchange fails and it looks again. Closing
//! clears `OPEN` (no further entry), then waits for the inside count to
//! reach zero. Everything a stage shares with helpers lives in the job
//! the caller built for that stage alone, so there is no cursor to reset
//! between stages and nothing of stage `g` a late helper could touch.
//!
//! # Waiting
//!
//! Helpers between jobs, and the caller at the barrier, wait with a
//! bounded spin, then `yield_now` for [`YIELD_BUDGET`], then park on a
//! condvar. The spin covers the gap between two stages of one epoch, the
//! yield phase the gap between epochs of one call (while giving the core
//! to whoever else is runnable — a scan client, the ingest thread), and an
//! idle engine holds no runnable thread. The slow path is lost-wakeup
//! free by construction: a gate opens, and the parked count changes, only
//! under the park mutex, and a parker re-checks the word under that same
//! mutex before it sleeps.

use crate::engines::panic_error;
use aets_common::sync::{lock, wait};
use aets_common::{Error, Result};
use aets_telemetry::Gauge;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Busy-wait rounds before a waiter starts yielding. A stage hand-over
/// (close one gate, flip the groups, open the next) is well under a
/// microsecond of the caller's time, so a short spin catches it.
const SPIN_ROUNDS: u32 = 128;

/// How long a waiter keeps yielding before it parks. Longer than one
/// epoch's inline stage (a few hundred µs), so helpers stay warm across
/// the epochs of one call; short enough that an idle engine's helpers
/// are asleep a millisecond after `replay` returns.
const YIELD_BUDGET: Duration = Duration::from_micros(1000);

const OPEN: u64 = 1;
const SHUTDOWN: u64 = 1 << 1;
const INSIDE_ONE: u64 = 1 << 2;
const GEN_SHIFT: u32 = 16;
/// Bits 2..16: helpers inside the job.
const INSIDE_MASK: u64 = (1 << GEN_SHIFT) - INSIDE_ONE;
/// Crew sizes the inside count can hold.
const MAX_HELPERS: usize = (INSIDE_MASK / INSIDE_ONE) as usize;

type Job<'a> = dyn Fn() + Sync + 'a;

/// Spin → yield pacing shared by every wait loop of the crew.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    spins: u32,
    yielding_since: Option<Instant>,
}

impl Backoff {
    /// Takes one wait step. Returns `false` once the spin rounds and the
    /// yield budget are spent: the waiter should park (or, where it waits
    /// for a peer that is running, keep yielding).
    pub(crate) fn snooze(&mut self) -> bool {
        if self.spins < SPIN_ROUNDS {
            self.spins += 1;
            std::hint::spin_loop();
            return true;
        }
        let since = *self.yielding_since.get_or_insert_with(Instant::now);
        if since.elapsed() < YIELD_BUDGET {
            std::thread::yield_now();
            return true;
        }
        false
    }
}

#[derive(Debug, Default)]
struct Park {
    /// Helpers asleep on `wake`.
    parked: usize,
    /// The caller is asleep on `drained` waiting for the barrier.
    caller_parked: bool,
}

struct Shared {
    /// `OPEN | SHUTDOWN | inside count | generation`, see the module docs.
    state: AtomicU64,
    /// The open gate's job. Set before the gate opens, cleared after it
    /// has drained; helpers read it only from inside the gate.
    job: Mutex<Option<&'static Job<'static>>>,
    /// First panic that escaped a job on a helper, reported by `run`.
    fault: Mutex<Option<Error>>,
    park: Mutex<Park>,
    wake: Condvar,
    drained: Condvar,
    parked_gauge: Gauge,
}

impl Shared {
    /// Whether a helper that last ran generation `seen` has something to
    /// do in state `s`: leave, or enter a gate it has not been through.
    fn concerns(s: u64, seen: u64) -> bool {
        s & SHUTDOWN != 0 || (s & OPEN != 0 && s >> GEN_SHIFT != seen)
    }

    /// Helper: waits for the next gate and enters it. Returns its
    /// generation, or `None` at shutdown.
    fn enter(&self, seen: u64) -> Option<u64> {
        let mut backoff = Backoff::default();
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & SHUTDOWN != 0 {
                return None;
            }
            if Self::concerns(s, seen) {
                // Acquire pairs with the Release store in `open`: entering
                // makes the job and everything it borrows visible.
                if self
                    .state
                    .compare_exchange_weak(s, s + INSIDE_ONE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return Some(s >> GEN_SHIFT);
                }
                continue;
            }
            if !backoff.snooze() {
                let mut park = lock(&self.park);
                park.parked += 1;
                self.parked_gauge.set(park.parked as u64);
                while !Self::concerns(self.state.load(Ordering::Acquire), seen) {
                    park = wait(&self.wake, park);
                }
                park.parked -= 1;
                self.parked_gauge.set(park.parked as u64);
                drop(park);
                backoff = Backoff::default();
            }
        }
    }

    /// Helper: leaves the job. Release pairs with the Acquire loads in
    /// `close`: once the caller sees the count at zero it sees everything
    /// this helper wrote.
    fn leave(&self) {
        let before = self.state.fetch_sub(INSIDE_ONE, Ordering::AcqRel);
        let last_out_of_closed_gate = before & (INSIDE_MASK | OPEN) == INSIDE_ONE;
        if last_out_of_closed_gate && lock(&self.park).caller_parked {
            self.drained.notify_one();
        }
    }

    fn helper_loop(&self) {
        let mut seen = 0;
        while let Some(gen) = self.enter(seen) {
            seen = gen;
            let job = *lock(&self.job);
            if let Some(job) = job {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    lock(&self.fault).get_or_insert(panic_error("replay crew helper", payload));
                }
            }
            self.leave();
        }
    }

    /// Caller: opens generation `gen` and wakes up to `wanted` sleepers.
    fn open(&self, gen: u64, wanted: usize) {
        let park = lock(&self.park);
        self.state.store(gen << GEN_SHIFT | OPEN, Ordering::Release);
        for _ in 0..wanted.min(park.parked) {
            self.wake.notify_one();
        }
    }

    /// Caller: closes the gate and waits until every helper that entered
    /// has left — the stage barrier.
    fn close(&self) {
        self.state.fetch_and(!OPEN, Ordering::AcqRel);
        let mut backoff = Backoff::default();
        while self.state.load(Ordering::Acquire) & INSIDE_MASK != 0 {
            if !backoff.snooze() {
                let mut park = lock(&self.park);
                park.caller_parked = true;
                while self.state.load(Ordering::Acquire) & INSIDE_MASK != 0 {
                    park = wait(&self.drained, park);
                }
                park.caller_parked = false;
            }
        }
        *lock(&self.job) = None;
    }
}

/// Closes the gate when dropped, so a panic in the caller's share of a
/// job still waits the helpers out before the job's borrows die.
struct OpenGate<'c>(&'c Shared);

impl Drop for OpenGate<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// An engine's persistent helper threads. See the module docs.
pub(crate) struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    gen: u64,
}

impl std::fmt::Debug for Crew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crew")
            .field("helpers", &self.helpers.len())
            .field("gen", &self.gen)
            .finish()
    }
}

impl Crew {
    /// Starts `helpers` helper threads; they park until the first job.
    /// `parked_gauge` follows the number of helpers asleep.
    pub(crate) fn start(helpers: usize, parked_gauge: Gauge) -> Result<Self> {
        if helpers > MAX_HELPERS {
            return Err(Error::Config(format!("at most {} replay threads", MAX_HELPERS + 1)));
        }
        let shared = Arc::new(Shared {
            state: AtomicU64::new(0),
            job: Mutex::new(None),
            fault: Mutex::new(None),
            park: Mutex::new(Park::default()),
            wake: Condvar::new(),
            drained: Condvar::new(),
            parked_gauge,
        });
        // Built first so an early return joins the helpers already started.
        let mut crew = Self { shared, helpers: Vec::with_capacity(helpers), gen: 0 };
        for i in 1..=helpers {
            let shared = crew.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("aets-replay-{i}"))
                .spawn(move || shared.helper_loop())
                .map_err(|e| Error::Io(format!("spawn replay crew helper: {e}")))?;
            crew.helpers.push(handle);
        }
        Ok(crew)
    }

    /// Helpers currently asleep.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        lock(&self.shared.park).parked
    }

    /// Runs `job` on the calling thread and on up to `wanted` helpers at
    /// once, and returns — after every helper that joined in has left the
    /// job — how long the caller waited for them at the barrier. With no
    /// helper wanted the job runs on the caller alone and no gate opens.
    ///
    /// `job` is called once per participating thread; sharing the work
    /// out (claim cursors) is the job's business. A panic that escapes
    /// `job` on a helper is returned as an error.
    pub(crate) fn run(&mut self, wanted: usize, job: &Job<'_>) -> Result<Duration> {
        if wanted == 0 || self.helpers.is_empty() {
            job();
            return Ok(Duration::ZERO);
        }
        // SAFETY: the transmute only erases the borrow's lifetime. The
        // reference is reachable by helpers only through `shared.job`,
        // which they read only between a successful `enter` and the
        // matching `leave`. `OpenGate::drop` runs before this function
        // returns (on unwind too): it clears `OPEN`, after which no
        // helper can enter this generation, waits until the inside count
        // is zero, i.e. every helper that entered has returned from
        // `job()`, and then clears `shared.job`. So no helper holds or can
        // obtain the reference once `job`'s real lifetime ends. `&mut self`
        // keeps two callers from opening gates at once.
        let erased: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        *lock(&self.shared.job) = Some(erased);
        self.gen += 1;
        let gate = OpenGate(&self.shared);
        self.shared.open(self.gen, wanted);
        job();
        let reached_barrier = Instant::now();
        drop(gate);
        let waited = reached_barrier.elapsed();
        match lock(&self.shared.fault).take() {
            Some(e) => Err(e),
            None => Ok(waited),
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        {
            let _park = lock(&self.shared.park);
            self.shared.state.fetch_or(SHUTDOWN, Ordering::AcqRel);
            self.shared.wake.notify_all();
        }
        for h in self.helpers.drain(..) {
            // A helper only dies of a panic outside a job, which the loop
            // cannot raise; nothing useful to do with it in a destructor.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::with_watchdog;
    use std::sync::atomic::AtomicUsize;

    fn crew(helpers: usize) -> Crew {
        Crew::start(helpers, aets_telemetry::Telemetry::disabled().registry().gauge("test_parked"))
            .unwrap()
    }

    #[test]
    fn every_job_runs_to_the_barrier_and_no_job_runs_twice_on_one_thread() {
        // Thousands of tiny jobs back to back: each claims items from a
        // cursor built for that job alone. If a helper could carry over
        // from job g into g+1's state, or enter one job twice, an item
        // would be claimed twice or a job's sum would be short.
        with_watchdog(|| {
            for helpers in [0usize, 1, 2, 7] {
                let mut crew = crew(helpers);
                for round in 0..3_000usize {
                    let items = round % 9;
                    let cursor = AtomicUsize::new(0);
                    let claimed = AtomicUsize::new(0);
                    let calls = AtomicUsize::new(0);
                    let job = || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        while cursor.fetch_add(1, Ordering::Relaxed) < items {
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    crew.run(round % (helpers + 2), &job).unwrap();
                    assert_eq!(claimed.load(Ordering::Relaxed), items, "round {round}");
                    assert!(calls.load(Ordering::Relaxed) <= helpers + 1, "round {round}");
                    // A parked crew must wake for the next job too.
                    if round % 1_000 == 999 {
                        std::thread::sleep(YIELD_BUDGET * 3);
                    }
                }
            }
        });
    }

    #[test]
    fn helpers_park_when_idle_and_join_on_drop() {
        with_watchdog(|| {
            let mut crew = crew(3);
            let hits = AtomicUsize::new(0);
            crew.run(3, &|| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert!(hits.load(Ordering::Relaxed) >= 1);
            let deadline = Instant::now() + Duration::from_secs(30);
            while crew.parked() < 3 {
                assert!(Instant::now() < deadline, "helpers still awake: {}", crew.parked());
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(crew); // joins; the watchdog catches a helper that never leaves
        });
    }

    #[test]
    fn a_panic_on_a_helper_is_reported_and_the_crew_survives() {
        with_watchdog(|| {
            let mut crew = crew(1);
            let caller = std::thread::current().id();
            // The caller's share waits for the helper to have entered, so
            // the panic is certain to happen.
            let entered = AtomicUsize::new(0);
            let err = crew
                .run(1, &|| {
                    if std::thread::current().id() != caller {
                        entered.store(1, Ordering::Release);
                        panic!("injected");
                    }
                    while entered.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                })
                .unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            let ran = AtomicUsize::new(0);
            crew.run(1, &|| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert!(ran.load(Ordering::Relaxed) >= 1);
        });
    }
}

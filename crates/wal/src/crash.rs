//! Deterministic crash injection for the durability path.
//!
//! The crash-consistency tests need to "kill the process" at arbitrary
//! points — mid-segment-write, mid-checkpoint, mid-recovery — and then
//! restart from whatever actually reached disk. A real `kill -9` is not
//! reproducible (and not unit-testable), so the durability stores instead
//! charge every filesystem operation against a shared [`CrashClock`]. When
//! the clock's budget runs out, the in-flight *write* is torn — only a
//! deterministic prefix of its bytes is persisted — and the operation
//! returns [`Error::Crash`]. From that point every further operation on
//! the clock also crashes: the process state is dead, and the harness
//! drops the store and re-opens it, exactly like a restart after a crash.
//!
//! A store opened without a clock ([`CrashClock::unlimited`] or `None`)
//! never crashes; production configurations install no clock.

use aets_common::{Error, Result};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, depleting budget of filesystem operations.
///
/// Each durable write or read charges one tick. The budget crossing zero
/// is "the crash instant": the charging write is torn after a
/// deterministic prefix and every subsequent charge fails immediately.
#[derive(Debug)]
pub struct CrashClock {
    /// Remaining operations before the crash; negative once crashed.
    /// `i64::MAX` means unlimited.
    budget: AtomicI64,
    /// Operations charged so far (monotone, survives the crash instant).
    used: AtomicU64,
}

impl CrashClock {
    /// A clock that crashes after `ops` charged operations.
    pub fn with_budget(ops: u64) -> Arc<Self> {
        Arc::new(Self {
            budget: AtomicI64::new(ops.min(i64::MAX as u64) as i64),
            used: AtomicU64::new(0),
        })
    }

    /// A clock that never crashes (but still counts operations, so a
    /// probe run can measure where later budgets should cut).
    pub fn unlimited() -> Arc<Self> {
        Arc::new(Self { budget: AtomicI64::new(i64::MAX), used: AtomicU64::new(0) })
    }

    /// Operations charged so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Whether the crash instant has passed.
    pub fn crashed(&self) -> bool {
        self.budget.load(Ordering::Relaxed) <= 0
    }

    /// Charges one operation. `Ok(())` while budget remains; once the
    /// budget is exhausted, returns the crash error every time.
    pub fn charge(&self, what: &str) -> Result<()> {
        self.used.fetch_add(1, Ordering::Relaxed);
        let left = self.budget.fetch_sub(1, Ordering::Relaxed);
        if left == 1 {
            return Err(Error::Crash(format!("{what} at crash instant")));
        }
        if left <= 0 {
            return Err(Error::Crash(format!("{what} after crash instant")));
        }
        Ok(())
    }

    /// Charges one *write* of `len` bytes. `Ok(len)` while budget remains.
    /// The charge that crosses zero tears the write: `Err` carries no
    /// length, and `CrashClock::torn_len` says how many bytes of this
    /// exact write became durable (a deterministic function of the
    /// operation index, so the same budget always tears the same way).
    pub fn charge_write(
        &self,
        what: &str,
        len: usize,
    ) -> std::result::Result<usize, (usize, Error)> {
        let op = self.used.fetch_add(1, Ordering::Relaxed);
        let left = self.budget.fetch_sub(1, Ordering::Relaxed);
        if left == 1 {
            // This is the crash instant: the write itself is torn.
            let torn = Self::torn_len(op, len);
            return Err((torn, Error::Crash(format!("torn {what} ({torn}/{len} bytes durable)"))));
        }
        if left <= 0 {
            return Err((0, Error::Crash(format!("{what} after crash instant"))));
        }
        Ok(len)
    }

    /// Deterministic torn-write length in `0..len`: derived from the
    /// operation index with a splitmix64 finalizer so the same crash
    /// schedule always leaves the same bytes on disk.
    fn torn_len(op: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        aets_common::splitmix64(op) as usize % len
    }
}

/// Charges `clock` (if any) for one non-write operation.
pub fn charge(clock: &Option<Arc<CrashClock>>, what: &str) -> Result<()> {
    match clock {
        Some(c) => c.charge(what),
        None => Ok(()),
    }
}

/// Writes `segs` to `file` back to back as one write metered on `clock`:
/// at the crash instant only a deterministic prefix of their concatenation
/// reaches the file (a torn write), and the prefix is flushed so a reopen
/// observes exactly what a real crash would have left on disk. One
/// segment or many, the same bytes tear the same way, and nothing is
/// joined on the way. Shared by every durability store (WAL segments,
/// checkpoints).
pub fn durable_write(
    file: &mut std::fs::File,
    segs: &[&[u8]],
    clock: &Option<Arc<CrashClock>>,
    what: &str,
) -> Result<()> {
    use std::io::Write as _;
    let len = segs.iter().map(|s| s.len()).sum();
    let (mut keep, crash) = match clock.as_ref().map(|c| c.charge_write(what, len)) {
        None | Some(Ok(_)) => (len, None),
        Some(Err((torn, e))) => (torn, Some(e)),
    };
    for seg in segs {
        let n = seg.len().min(keep);
        keep -= n;
        let wrote = file.write_all(&seg[..n]);
        if crash.is_none() {
            wrote?;
        }
    }
    match crash {
        None => Ok(()),
        Some(e) => {
            let _ = file.flush();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_crashes_but_counts() {
        let c = CrashClock::unlimited();
        for _ in 0..100 {
            c.charge("op").unwrap();
        }
        assert_eq!(c.used(), 100);
        assert!(!c.crashed());
    }

    #[test]
    fn budget_exhaustion_crashes_and_stays_crashed() {
        let c = CrashClock::with_budget(3);
        c.charge("a").unwrap();
        c.charge("b").unwrap();
        let err = c.charge("c").unwrap_err();
        assert!(err.is_crash());
        assert!(c.crashed());
        assert!(c.charge("d").unwrap_err().is_crash());
        assert_eq!(c.used(), 4);
    }

    #[test]
    fn torn_write_length_is_deterministic_and_partial() {
        let a = CrashClock::with_budget(1);
        let b = CrashClock::with_budget(1);
        let (ta, ea) = a.charge_write("seg", 100).unwrap_err();
        let (tb, eb) = b.charge_write("seg", 100).unwrap_err();
        assert_eq!(ta, tb, "same schedule must tear the same way");
        assert!(ta < 100);
        assert!(ea.is_crash() && eb.is_crash());
        // Post-crash writes persist nothing.
        let (t2, _) = a.charge_write("seg", 100).unwrap_err();
        assert_eq!(t2, 0);
    }

    /// A write in segments tears at the same point of the concatenation,
    /// and leaves the same file, as one write of the joined buffer at the
    /// same op budget.
    #[test]
    fn a_torn_segmented_write_leaves_what_a_torn_single_write_does() {
        let dir = std::env::temp_dir().join(format!("aets-crash-segs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let joined: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let segs: [&[u8]; 5] =
            [&joined[..0], &joined[..13], &joined[13..14], &joined[14..200], &joined[200..]];
        for budget in 1..=4u64 {
            let mut files = Vec::new();
            for name in ["one", "segs"] {
                let path = dir.join(format!("{name}-{budget}"));
                let mut f = std::fs::File::create(&path).unwrap();
                let clock = Some(CrashClock::with_budget(budget));
                // Writes before the crash instant land whole; the one at
                // it is torn.
                let mut crashed = false;
                for _ in 0..budget {
                    crashed |= match name {
                        "one" => durable_write(&mut f, &[&joined], &clock, "w"),
                        _ => durable_write(&mut f, &segs, &clock, "w"),
                    }
                    .is_err();
                }
                assert!(crashed, "budget {budget} crashes inside its last write");
                drop(f);
                files.push(std::fs::read(&path).unwrap());
            }
            assert_eq!(files[0], files[1], "budget {budget}");
            assert!(files[0].len() < joined.len() * budget as usize, "budget {budget} tore");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn charge_write_passes_through_before_the_crash() {
        let c = CrashClock::with_budget(10);
        assert_eq!(c.charge_write("seg", 42).unwrap(), 42);
        assert!(!c.crashed());
    }
}

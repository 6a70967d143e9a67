//! The workspace's one lock-poison policy.
//!
//! Outside `aets-transport`, every `std::sync` lock is taken through
//! these four functions, and each absorbs a [`PoisonError`] by taking the
//! guard out of it. A panic under a lock is already caught and reported
//! where it happens: the replay engine quarantines the group whose task
//! panicked, and a crew helper's or a query worker's panic comes back to
//! its caller as an error. The data behind a poisoned lock is whatever
//! that thread left, and a later locker must not panic over it a second
//! time. (`aets-transport` treats a poisoned lock as a dead session
//! instead; that is its error handling, not a second policy.)
//!
//! The workspace `clippy.toml` disallows calling `Mutex::lock`,
//! `RwLock::{read, write}` and `Condvar::wait` directly, so a call site
//! cannot pick another policy by accident.

// This module is the one place allowed to call the std lock methods.
#![allow(clippy::disallowed_methods)]

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `m`, taking the guard out of a poisoned lock.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared guard on `l`, taking it out of a poisoned lock.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the exclusive guard on `l`, taking it out of a poisoned lock.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `g` and blocks on `cv` until notified, then returns the
/// re-acquired guard, taking it out of a poisoned lock.
pub fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_returns_the_guard_of_a_mutex_poisoned_mid_update() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let died = thread::spawn(move || {
            let mut g = lock(&m2);
            *g = 7;
            panic!("injected panic under the mutex");
        })
        .join();
        assert!(died.is_err() && m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn read_returns_a_guard_of_an_rwlock_poisoned_by_a_writer() {
        let l = Arc::new(RwLock::new(0));
        let l2 = l.clone();
        let died = thread::spawn(move || {
            let mut g = write(&l2);
            *g = 7;
            panic!("injected panic under the write guard");
        })
        .join();
        assert!(died.is_err() && l.is_poisoned());
        assert_eq!(*read(&l), 7);
    }

    #[test]
    fn write_returns_the_guard_of_an_rwlock_poisoned_by_a_writer() {
        let l = Arc::new(RwLock::new(0));
        let l2 = l.clone();
        let died = thread::spawn(move || {
            let mut g = write(&l2);
            *g = 7;
            panic!("injected panic under the write guard");
        })
        .join();
        assert!(died.is_err() && l.is_poisoned());
        let mut g = write(&l);
        assert_eq!(*g, 7);
        *g += 1;
        drop(g);
        assert_eq!(*read(&l), 8);
    }

    #[test]
    fn wait_returns_the_guard_when_the_notifier_panics_holding_the_mutex() {
        let pair = Arc::new((Mutex::new(0), Condvar::new()));
        let mut g = lock(&pair.0);
        let pair2 = pair.clone();
        // The notifier can take the mutex only once `wait` released it,
        // and it poisons the mutex the waiter then re-acquires.
        let notifier = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = lock(m);
            *g = 7;
            cv.notify_all();
            panic!("injected panic under the mutex a waiter sleeps on");
        });
        while *g == 0 {
            g = wait(&pair.1, g);
        }
        assert_eq!(*g, 7);
        drop(g);
        assert!(notifier.join().is_err() && pair.0.is_poisoned());
    }
}

//! Warm-session pool: an LRU map from design fingerprint to a shared,
//! immutable prepared artifact (in production, an `Arc<SessionTemplate>`
//! that has already paid parse/lower/map).
//!
//! Misses are **single-flight**: the first request for a fingerprint
//! becomes the sole builder while every concurrent request for the same
//! fingerprint parks on a [`chatls_exec::Latch`] and resumes from the one
//! built value. A failed build wakes all waiters with a clone of the
//! error and removes the slot, so an error can never poison the key; a
//! builder that dies without resolving (panic) marks the slot abandoned
//! and waiters retry — the next one becomes the new builder.
//!
//! Eviction only ever considers `Ready` slots: an in-flight build can
//! never be evicted out from under its waiters, and because pooled
//! values are handed out as `Arc`s, evicting an entry cannot invalidate
//! a handle another request is still stamping sessions from.
//!
//! The pool is deliberately generic over the cached value and error so
//! the serving core and its tests need no synthesis types: correctness
//! of eviction, single-flight coalescing and hit accounting is tested
//! right here with plain integers.
//!
//! Requests never mutate pooled values — they stamp cheap per-request
//! copies — so a cancelled or failed request cannot poison the pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use chatls_exec::{CancelToken, Latch};

/// Why a `get_or_build*` call returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError<E> {
    /// The build failed — either our own, or the single-flight builder we
    /// were parked on (waiters receive a clone of the builder's error).
    Build(E),
    /// The caller's own [`CancelToken`] fired while parked on a builder.
    Cancelled,
}

/// How a single-flight build resolved, broadcast to parked waiters.
enum Outcome<T, E> {
    Ready(Arc<T>),
    Failed(E),
    /// The builder vanished without resolving (panicked); waiters retry
    /// and one of them becomes the new builder.
    Abandoned,
}

impl<T, E: Clone> Clone for Outcome<T, E> {
    fn clone(&self) -> Self {
        match self {
            Outcome::Ready(v) => Outcome::Ready(Arc::clone(v)),
            Outcome::Failed(e) => Outcome::Failed(e.clone()),
            Outcome::Abandoned => Outcome::Abandoned,
        }
    }
}

enum Slot<T, E> {
    Ready {
        value: Arc<T>,
        /// Logical timestamp of the last hit; smallest is evicted first.
        last_used: u64,
    },
    Building {
        latch: Arc<Latch<Outcome<T, E>>>,
    },
}

struct PoolInner<T, E> {
    entries: HashMap<u64, Slot<T, E>>,
    tick: u64,
}

#[derive(Default)]
struct PoolCounters {
    builds: AtomicU64,
    build_failures: AtomicU64,
    coalesced_waits: AtomicU64,
    warmed: AtomicU64,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
}

/// Point-in-time statistics for one pool instance. The `serve.pool.*`
/// registry metrics carry the same counts process-wide; tests use these
/// so parallel test pools cannot perturb each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Builds started (successful or not), including warming builds.
    pub builds: u64,
    /// Builds that resolved with an error.
    pub build_failures: u64,
    /// Requests that parked on another request's in-flight build.
    pub coalesced_waits: u64,
    /// Entries built speculatively via [`SessionPool::warm`].
    pub warmed: u64,
    /// Builds currently in flight.
    pub inflight_builds: u64,
    /// High-water mark of concurrent in-flight builds.
    pub inflight_builds_peak: u64,
}

struct Shared<T, E> {
    inner: Mutex<PoolInner<T, E>>,
    counters: PoolCounters,
}

/// An LRU pool keyed by `u64` fingerprint with single-flight build
/// coalescing. Clones share the pool.
pub struct SessionPool<T, E = ()> {
    shared: Arc<Shared<T, E>>,
    capacity: usize,
}

impl<T, E> Clone for SessionPool<T, E> {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared), capacity: self.capacity }
    }
}

/// Removes the `Building` slot and broadcasts `Abandoned` if the builder
/// unwinds (panics) before resolving, so waiters never hang on a latch
/// nobody will set.
struct AbandonGuard<'a, T, E> {
    pool: &'a SessionPool<T, E>,
    fingerprint: u64,
    latch: &'a Arc<Latch<Outcome<T, E>>>,
    armed: bool,
}

impl<T, E> Drop for AbandonGuard<'_, T, E> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        {
            let mut inner = self.pool.shared.inner.lock().unwrap();
            if matches!(inner.entries.get(&self.fingerprint),
                Some(Slot::Building { latch }) if Arc::ptr_eq(latch, self.latch))
            {
                inner.entries.remove(&self.fingerprint);
            }
            self.pool.note_build_finished(&inner);
        }
        self.latch.set(Outcome::Abandoned);
    }
}

impl<T, E> SessionPool<T, E> {
    /// An empty pool holding at most `capacity` ready entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        // Touch every serve.pool.* handle so the full metric set renders
        // in /metrics (at zero) from daemon start, not on first use.
        let _ = Self::obs();
        let _ = chatls_obs::counter("serve.pool.builds");
        let _ = chatls_obs::counter("serve.pool.build_failures");
        let _ = chatls_obs::counter("serve.pool.coalesced_waits");
        let _ = chatls_obs::counter("serve.pool.warmed");
        let _ = chatls_obs::gauge("serve.pool.inflight_builds");
        let _ = chatls_obs::gauge("serve.pool.inflight_builds_peak");
        let _ = chatls_obs::gauge("serve.pool.size");
        Self {
            shared: Arc::new(Shared {
                inner: Mutex::new(PoolInner { entries: HashMap::new(), tick: 0 }),
                counters: PoolCounters::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Hit / miss / eviction counters, exported under `serve.pool.*`.
    fn obs(
    ) -> (&'static chatls_obs::Counter, &'static chatls_obs::Counter, &'static chatls_obs::Counter)
    {
        (
            chatls_obs::counter("serve.pool.hit"),
            chatls_obs::counter("serve.pool.miss"),
            chatls_obs::counter("serve.pool.evictions"),
        )
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready entries (in-flight builds are not counted).
    pub fn len(&self) -> usize {
        let inner = self.shared.inner.lock().unwrap();
        inner.entries.values().filter(|s| matches!(s, Slot::Ready { .. })).count()
    }

    /// True when the pool holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-instance statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            builds: c.builds.load(Ordering::Relaxed),
            build_failures: c.build_failures.load(Ordering::Relaxed),
            coalesced_waits: c.coalesced_waits.load(Ordering::Relaxed),
            warmed: c.warmed.load(Ordering::Relaxed),
            inflight_builds: c.inflight.load(Ordering::Relaxed),
            inflight_builds_peak: c.inflight_peak.load(Ordering::Relaxed),
        }
    }

    /// Records a build start while holding the pool lock: bumps the build
    /// counter and the in-flight gauge (tracking its high-water mark).
    fn note_build_started(&self, inner: &PoolInner<T, E>) {
        let _ = inner; // lock witness: gauges update atomically with slot state
        let c = &self.shared.counters;
        c.builds.fetch_add(1, Ordering::Relaxed);
        let now = c.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        c.inflight_peak.fetch_max(now, Ordering::Relaxed);
        chatls_obs::counter("serve.pool.builds").inc();
        chatls_obs::gauge("serve.pool.inflight_builds").set(now as i64);
        let peak = c.inflight_peak.load(Ordering::Relaxed);
        chatls_obs::gauge("serve.pool.inflight_builds_peak").set(peak as i64);
    }

    /// Records a build resolution (success, failure or abandonment) while
    /// holding the pool lock.
    fn note_build_finished(&self, inner: &PoolInner<T, E>) {
        let _ = inner;
        let c = &self.shared.counters;
        let now = c.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        chatls_obs::gauge("serve.pool.inflight_builds").set(now as i64);
    }

    /// Evicts least-recently-used ready entries until the ready count is
    /// within capacity. `Building` slots are never victims: an in-flight
    /// build cannot be dropped out from under its waiters.
    fn evict_over_capacity(&self, inner: &mut PoolInner<T, E>) {
        let (_, _, evict_c) = Self::obs();
        loop {
            let ready = inner.entries.values().filter(|s| matches!(s, Slot::Ready { .. })).count();
            if ready <= self.capacity {
                chatls_obs::gauge("serve.pool.size").set(ready as i64);
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter_map(|(&fp, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((fp, *last_used)),
                    Slot::Building { .. } => None,
                })
                .min_by_key(|&(_, last_used)| last_used);
            let Some((oldest, _)) = victim else { return };
            inner.entries.remove(&oldest);
            evict_c.inc();
        }
    }

    /// The value for `fingerprint`, building it with `build` on a miss.
    /// Returns `(value, hit)`; records `serve.pool.hit` / `.miss` /
    /// `.evictions` / `.builds` / `.coalesced_waits` and the
    /// `serve.pool.size` / `.inflight_builds` gauges.
    ///
    /// Misses are single-flight (see module docs); the build itself runs
    /// *outside* the pool lock, so a slow parse/lower/map never blocks
    /// hits on other designs. Requests parked on another request's build
    /// count as hits once it resolves — they were served without paying a
    /// build — and additionally bump `serve.pool.coalesced_waits`.
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E>
    where
        E: Clone,
    {
        match self.get_or_build_cancellable(fingerprint, &CancelToken::never(), build) {
            Ok(out) => Ok(out),
            Err(PoolError::Build(e)) => Err(e),
            Err(PoolError::Cancelled) => {
                unreachable!("a never-token cannot cancel a pool wait")
            }
        }
    }

    /// [`SessionPool::get_or_build`] with the caller's [`CancelToken`]:
    /// a waiter whose own deadline fires while parked on another
    /// request's build unblocks with [`PoolError::Cancelled`] instead of
    /// inheriting the builder's fate.
    pub fn get_or_build_cancellable(
        &self,
        fingerprint: u64,
        cancel: &CancelToken,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), PoolError<E>>
    where
        E: Clone,
    {
        enum Role<T, E> {
            Hit(Arc<T>),
            Wait(Arc<Latch<Outcome<T, E>>>),
            Build(Arc<Latch<Outcome<T, E>>>),
        }
        let (hit_c, miss_c, _) = Self::obs();
        let mut build = Some(build);
        loop {
            let role = {
                let mut inner = self.shared.inner.lock().unwrap();
                inner.tick += 1;
                let tick = inner.tick;
                match inner.entries.get_mut(&fingerprint) {
                    Some(Slot::Ready { value, last_used }) => {
                        *last_used = tick;
                        Role::Hit(Arc::clone(value))
                    }
                    Some(Slot::Building { latch }) => Role::Wait(Arc::clone(latch)),
                    None => {
                        let latch = Arc::new(Latch::new());
                        inner
                            .entries
                            .insert(fingerprint, Slot::Building { latch: Arc::clone(&latch) });
                        self.note_build_started(&inner);
                        Role::Build(latch)
                    }
                }
            };
            match role {
                Role::Hit(value) => {
                    hit_c.inc();
                    return Ok((value, true));
                }
                Role::Wait(latch) => {
                    self.shared.counters.coalesced_waits.fetch_add(1, Ordering::Relaxed);
                    chatls_obs::counter("serve.pool.coalesced_waits").inc();
                    match latch.wait(cancel) {
                        Ok(Outcome::Ready(value)) => {
                            hit_c.inc();
                            return Ok((value, true));
                        }
                        Ok(Outcome::Failed(e)) => return Err(PoolError::Build(e)),
                        // Builder died without resolving; go around and
                        // (likely) become the new builder.
                        Ok(Outcome::Abandoned) => continue,
                        Err(chatls_exec::Cancelled) => return Err(PoolError::Cancelled),
                    }
                }
                Role::Build(latch) => {
                    miss_c.inc();
                    let build = build.take().expect("builder role is claimed at most once");
                    return self.run_build(fingerprint, &latch, build).map(|v| (v, false));
                }
            }
        }
    }

    /// Speculatively builds `fingerprint` if (and only if) no ready entry
    /// or in-flight build exists. Participates in single-flight — a
    /// request arriving mid-warm parks on the warmer's build. Does not
    /// touch hit/miss accounting (a warm is not traffic); bumps
    /// `serve.pool.warmed` on success. Returns `true` when this call
    /// built the entry.
    pub fn warm(&self, fingerprint: u64, build: impl FnOnce() -> Result<T, E>) -> bool
    where
        E: Clone,
    {
        let latch = {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.entries.contains_key(&fingerprint) {
                return false;
            }
            let latch = Arc::new(Latch::new());
            inner.entries.insert(fingerprint, Slot::Building { latch: Arc::clone(&latch) });
            self.note_build_started(&inner);
            latch
        };
        let built = self.run_build(fingerprint, &latch, build).is_ok();
        if built {
            self.shared.counters.warmed.fetch_add(1, Ordering::Relaxed);
            chatls_obs::counter("serve.pool.warmed").inc();
        }
        built
    }

    /// Runs `build` as the sole builder for `fingerprint`, resolves the
    /// slot, and broadcasts the outcome to parked waiters. Panic-safe:
    /// an unwinding build abandons the slot instead of stranding waiters.
    fn run_build(
        &self,
        fingerprint: u64,
        latch: &Arc<Latch<Outcome<T, E>>>,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, PoolError<E>>
    where
        E: Clone,
    {
        let mut guard = AbandonGuard { pool: self, fingerprint, latch, armed: true };
        let built = build();
        guard.armed = false;
        drop(guard);
        match built {
            Ok(value) => {
                let value = Arc::new(value);
                {
                    let mut inner = self.shared.inner.lock().unwrap();
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.entries.insert(
                        fingerprint,
                        Slot::Ready { value: Arc::clone(&value), last_used: tick },
                    );
                    self.note_build_finished(&inner);
                    self.evict_over_capacity(&mut inner);
                }
                latch.set(Outcome::Ready(Arc::clone(&value)));
                Ok(value)
            }
            Err(e) => {
                {
                    let mut inner = self.shared.inner.lock().unwrap();
                    if matches!(inner.entries.get(&fingerprint),
                        Some(Slot::Building { latch: l }) if Arc::ptr_eq(l, latch))
                    {
                        inner.entries.remove(&fingerprint);
                    }
                    self.note_build_finished(&inner);
                }
                self.shared.counters.build_failures.fetch_add(1, Ordering::Relaxed);
                chatls_obs::counter("serve.pool.build_failures").inc();
                latch.set(Outcome::Failed(e.clone()));
                Err(PoolError::Build(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn hits_after_first_build() {
        let pool: SessionPool<u64> = SessionPool::new(4);
        let (v, hit) = pool.get_or_build(7, || Ok::<_, ()>(70)).unwrap();
        assert_eq!((*v, hit), (70, false));
        let (v, hit) =
            pool.get_or_build(7, || -> Result<u64, ()> { panic!("must not rebuild") }).unwrap();
        assert_eq!((*v, hit), (70, true));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().builds, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let pool: SessionPool<u64> = SessionPool::new(2);
        pool.get_or_build(1, || Ok::<_, ()>(10)).unwrap();
        pool.get_or_build(2, || Ok::<_, ()>(20)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        pool.get_or_build(1, || -> Result<u64, ()> { panic!("hit expected") }).unwrap();
        pool.get_or_build(3, || Ok::<_, ()>(30)).unwrap();
        assert_eq!(pool.len(), 2);
        let (_, hit1) = pool.get_or_build(1, || Ok::<_, ()>(11)).unwrap();
        assert!(hit1, "recently used entry must survive eviction");
        let (v2, hit2) = pool.get_or_build(2, || Ok::<_, ()>(22)).unwrap();
        assert!(!hit2, "LRU entry must have been evicted");
        assert_eq!(*v2, 22);
    }

    #[test]
    fn build_errors_do_not_insert() {
        let pool: SessionPool<u64, &'static str> = SessionPool::new(2);
        assert!(pool.get_or_build(9, || Err::<u64, _>("boom")).is_err());
        assert!(pool.is_empty());
        let (v, hit) = pool.get_or_build(9, || Ok::<_, &str>(90)).unwrap();
        assert_eq!((*v, hit), (90, false), "a failed build must not poison the key");
        assert_eq!(pool.stats().build_failures, 1);
    }

    #[test]
    fn concurrent_misses_converge_to_one_entry() {
        let pool: SessionPool<u64> = SessionPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    let (v, _) = pool.get_or_build(5, || Ok::<_, ()>(50)).unwrap();
                    assert_eq!(*v, 50);
                });
            }
        });
        assert_eq!(pool.len(), 1);
    }

    /// Tentpole invariant: N concurrent misses on one fingerprint run
    /// exactly one build; everyone else parks and resumes from it.
    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        const WAITERS: usize = 7;
        let pool: SessionPool<u64> = SessionPool::new(4);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        std::thread::scope(|s| {
            for _ in 0..WAITERS + 1 {
                let pool = pool.clone();
                let entered_tx = entered_tx.clone();
                let release_rx = &release_rx;
                s.spawn(move || {
                    let (v, _) = pool
                        .get_or_build(5, || {
                            entered_tx.send(()).unwrap();
                            release_rx.lock().unwrap().recv().unwrap();
                            Ok::<_, ()>(50)
                        })
                        .unwrap();
                    assert_eq!(*v, 50);
                });
            }
            // Exactly one thread enters the build; the rest park on it.
            entered_rx.recv().unwrap();
            while pool.stats().coalesced_waits < WAITERS as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(pool.stats().inflight_builds, 1);
            assert_eq!(pool.stats().inflight_builds_peak, 1);
            release_tx.send(()).unwrap();
        });
        let stats = pool.stats();
        assert_eq!(stats.builds, 1, "single-flight must run exactly one build");
        assert_eq!(stats.coalesced_waits, WAITERS as u64);
        assert_eq!(stats.inflight_builds, 0);
        assert_eq!(pool.len(), 1);
        assert!(
            entered_rx.try_recv().is_err(),
            "no second thread may have entered the build closure"
        );
    }

    /// A failed build wakes every waiter with the error and leaves the
    /// key rebuildable (no poisoning).
    #[test]
    fn failed_build_broadcasts_error_to_waiters() {
        let pool: SessionPool<u64, &'static str> = SessionPool::new(4);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let builder = {
                let pool = pool.clone();
                s.spawn(move || {
                    pool.get_or_build(9, || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Err::<u64, _>("boom")
                    })
                })
            };
            entered_rx.recv().unwrap();
            let mut waiters = Vec::new();
            for _ in 0..3 {
                let pool = pool.clone();
                waiters.push(s.spawn(move || {
                    pool.get_or_build(9, || -> Result<u64, &'static str> {
                        panic!("waiters must not rebuild while the builder is in flight")
                    })
                }));
            }
            while pool.stats().coalesced_waits < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            release_tx.send(()).unwrap();
            assert_eq!(builder.join().unwrap(), Err("boom"));
            for w in waiters {
                assert_eq!(w.join().unwrap(), Err("boom"), "waiters must receive the error");
            }
        });
        assert!(pool.is_empty(), "failed build must remove the slot");
        let (v, hit) = pool.get_or_build(9, || Ok::<_, &str>(90)).unwrap();
        assert_eq!((*v, hit), (90, false), "next request rebuilds cleanly");
    }

    /// A parked waiter whose own deadline fires unblocks with
    /// `PoolError::Cancelled` instead of waiting out the builder.
    #[test]
    fn waiter_deadline_unblocks_while_builder_runs() {
        let pool: SessionPool<u64> = SessionPool::new(4);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let builder = {
                let pool = pool.clone();
                s.spawn(move || {
                    pool.get_or_build(3, || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok::<_, ()>(30)
                    })
                })
            };
            entered_rx.recv().unwrap();
            let token = CancelToken::with_timeout(Duration::from_millis(20));
            let got = pool.get_or_build_cancellable(3, &token, || {
                panic!("a waiter must never build while the slot is in flight")
            });
            assert_eq!(got, Err(PoolError::Cancelled));
            release_tx.send(()).unwrap();
            assert_eq!(*builder.join().unwrap().unwrap().0, 30, "builder is unaffected");
        });
        let (v, hit) = pool.get_or_build(3, || -> Result<u64, ()> { panic!() }).unwrap();
        assert_eq!((*v, hit), (30, true), "cancelled waiter must not disturb the entry");
    }

    /// Satellite regression: eviction must never victimize an in-flight
    /// build, no matter how much churn happens around it.
    #[test]
    fn building_slots_are_never_evicted() {
        let pool: SessionPool<u64> = SessionPool::new(1);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let builder = {
                let pool = pool.clone();
                s.spawn(move || {
                    pool.get_or_build(1, || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok::<_, ()>(10)
                    })
                })
            };
            entered_rx.recv().unwrap();
            // Churn other fingerprints through the capacity-1 pool while
            // fingerprint 1 is still building.
            for fp in 2..6 {
                pool.get_or_build(fp, || Ok::<_, ()>(fp * 10)).unwrap();
            }
            release_tx.send(()).unwrap();
            assert_eq!(*builder.join().unwrap().unwrap().0, 10);
        });
        let (v, hit) = pool.get_or_build(1, || -> Result<u64, ()> { panic!() }).unwrap();
        assert_eq!((*v, hit), (10, true), "in-flight build must survive churn eviction");
    }

    /// Satellite regression: an eviction racing a `get` on the same
    /// fingerprint cannot drop the template out from under a request
    /// that already holds it — handles are `Arc`s, and the evicted key
    /// rebuilds on the next request.
    #[test]
    fn eviction_cannot_invalidate_handles_in_use() {
        let pool: SessionPool<u64> = SessionPool::new(1);
        let (held, _) = pool.get_or_build(1, || Ok::<_, ()>(10)).unwrap();
        // A competing design evicts fingerprint 1 while `held` is live
        // (mid-stamp, in serving terms).
        pool.get_or_build(2, || Ok::<_, ()>(20)).unwrap();
        assert_eq!(*held, 10, "an evicted entry stays usable through held handles");
        let (v, hit) = pool.get_or_build(1, || Ok::<_, ()>(11)).unwrap();
        assert!(!hit, "evicted fingerprint must rebuild");
        assert_eq!(*v, 11);
    }

    #[test]
    fn warm_builds_absent_entries_only() {
        let pool: SessionPool<u64> = SessionPool::new(4);
        assert!(pool.warm(6, || Ok::<_, ()>(60)));
        assert!(!pool.warm(6, || panic!("already warm")));
        let stats = pool.stats();
        assert_eq!((stats.warmed, stats.builds), (1, 1));
        let (v, hit) = pool.get_or_build(6, || -> Result<u64, ()> { panic!() }).unwrap();
        assert_eq!((*v, hit), (60, true), "warmed entry must serve as a hit");
        // A failed warm neither counts as warmed nor poisons the key.
        assert!(!pool.warm(7, || Err::<u64, _>(())));
        assert_eq!(pool.stats().warmed, 1);
        assert!(pool.warm(7, || Ok::<_, ()>(70)));
    }

    /// A builder that panics abandons the slot; parked waiters retry and
    /// one becomes the new builder instead of hanging forever.
    #[test]
    fn panicked_builder_abandons_slot_and_waiters_recover() {
        let pool: SessionPool<u64> = SessionPool::new(4);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let builder = {
                let pool = pool.clone();
                s.spawn(move || {
                    let _ = pool.get_or_build(8, || -> Result<u64, ()> {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        panic!("builder dies mid-build")
                    });
                })
            };
            entered_rx.recv().unwrap();
            let waiter = {
                let pool = pool.clone();
                s.spawn(move || pool.get_or_build(8, || Ok::<_, ()>(80)))
            };
            while pool.stats().coalesced_waits < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            release_tx.send(()).unwrap();
            assert!(builder.join().is_err(), "builder thread must have panicked");
            let (v, hit) = waiter.join().unwrap().unwrap();
            assert_eq!((*v, hit), (80, false), "waiter must take over the abandoned build");
        });
        assert_eq!(pool.stats().builds, 2);
    }
}

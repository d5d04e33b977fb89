//! In-tree execution engine for the ChatLS reproduction.
//!
//! Every paper table is reproduced by fanning the simulated synthesis flow
//! out over a (design × script × seed) grid; this crate supplies the two
//! substrates that make those sweeps fast without changing their results:
//!
//! - [`ExecPool`] — a `std::thread::scope`-based pool with a chunked
//!   self-scheduling queue. [`ExecPool::run`] and [`ExecPool::map`] return
//!   results in input order, so a sweep's output is byte-for-byte identical
//!   to the serial loop it replaces regardless of thread count. The pool
//!   width comes from the `CHATLS_THREADS` environment variable (falling
//!   back to the machine's available parallelism).
//! - [`ShardedCache`] — a lock-striped memo map with hit/miss counters,
//!   the substrate under `chatls_core`'s QoR cache: each shard is an
//!   independent `Mutex<HashMap>`, so concurrent lookups on different keys
//!   rarely contend. [`ShardedCache::named`] mirrors the hit/miss counters
//!   into the `chatls_obs` registry so telemetry sinks can render them.
//!
//! - [`CancelToken`] — a cooperative cancellation/deadline token threaded
//!   through long-running work (the serving daemon's per-request timeout,
//!   graceful shutdown). Checked at stage boundaries; never preemptive.
//!   [`ExecPool::run_cancellable`] is the pool's token-aware submission
//!   path: workers stop claiming work once the token fires.
//! - [`Latch`] — a one-shot, token-aware broadcast cell: N threads park
//!   on [`Latch::wait`] until one [`Latch::set`] wakes them all with a
//!   clone of the value. The serve pool's single-flight build coalescing
//!   parks waiters here.
//!
//! All primitives report into the `chatls_obs` metrics registry
//! (`exec.pool.*`, `<cache-name>.*`) and pull in nothing outside `std`, so
//! the workspace keeps compiling offline.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Error returned when a [`CancelToken`] fired before (or while) an
/// operation ran: either the token was cancelled explicitly (shutdown,
/// client gone) or its deadline passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation cancelled (deadline exceeded or shutdown)")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token: cheap to clone, checked — never
/// enforced — at stage boundaries of long-running work.
///
/// A token fires when [`CancelToken::cancel`] is called on any clone or
/// when its optional deadline passes. [`CancelToken::never`] (also the
/// `Default`) is a zero-allocation token that can never fire, so
/// token-aware code paths cost one branch when cancellation is not in
/// play.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A token that can never fire (no allocation; checks are one branch).
    pub fn never() -> Self {
        Self { inner: None }
    }

    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(TokenInner { cancelled: AtomicBool::new(false), deadline: None })),
        }
    }

    /// A token that fires at `deadline` (or earlier via
    /// [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A token that fires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Fires the token explicitly. Idempotent; all clones observe it.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// True when the token has fired (explicit cancel or deadline passed).
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                inner.cancelled.load(Ordering::Acquire)
                    || inner.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Stage-boundary check: `Err(Cancelled)` once the token has fired.
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// The deadline, when this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time left until the deadline (zero once passed); `None` when the
    /// token has no deadline.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline().map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// A one-shot broadcast latch: many threads park on [`Latch::wait`] until
/// a single [`Latch::set`] publishes a value to all of them (each waiter
/// receives a clone).
///
/// This is the waiter-parking primitive under the serve pool's
/// single-flight build coalescing: the first miss for a fingerprint
/// becomes the builder and every concurrent miss parks here instead of
/// duplicating the build. `wait` takes the parked request's own
/// [`CancelToken`], so a waiter whose deadline fires while the builder is
/// still working unblocks with [`Cancelled`] instead of inheriting the
/// builder's (possibly longer) deadline.
///
/// The first `set` wins; later calls are ignored, which makes resolution
/// idempotent for drop-guard cleanup paths.
#[derive(Debug, Default)]
pub struct Latch<T> {
    state: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Latch<T> {
    /// An unset latch.
    pub fn new() -> Self {
        Self { state: Mutex::new(None), ready: Condvar::new() }
    }

    /// Publishes `value` and wakes every parked waiter. The first call
    /// wins; subsequent calls are no-ops.
    pub fn set(&self, value: T) {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some(value);
            self.ready.notify_all();
        }
    }
}

impl<T: Clone> Latch<T> {
    /// The published value, if `set` has happened. Never blocks.
    pub fn try_get(&self) -> Option<T> {
        self.state.lock().unwrap().clone()
    }

    /// Parks until the latch is set (returning a clone of the value) or
    /// `cancel` fires (returning `Err(Cancelled)`).
    ///
    /// Deadline tokens are honoured to within a short poll slice: the
    /// wait sleeps in bounded increments clamped to the token's remaining
    /// time, so an expiring waiter unblocks promptly even though `cancel`
    /// carries no wakeup channel of its own.
    pub fn wait(&self, cancel: &CancelToken) -> Result<T, Cancelled> {
        const POLL_SLICE: Duration = Duration::from_millis(25);
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(value) = state.as_ref() {
                return Ok(value.clone());
            }
            cancel.checkpoint()?;
            let slice = match cancel.remaining() {
                Some(rem) => rem.min(POLL_SLICE).max(Duration::from_millis(1)),
                None => POLL_SLICE,
            };
            let (guard, _) = self.ready.wait_timeout(state, slice).unwrap();
            state = guard;
        }
    }
}

/// A scoped thread pool with deterministic result ordering.
///
/// Work items are indexed `0..n`; workers claim contiguous chunks off a
/// shared atomic cursor (chunked self-scheduling — cheap dynamic load
/// balancing without a deque per worker) and tag every result with its
/// index. [`ExecPool::run`] sorts the tags back into input order before
/// returning, which is what makes parallel sweeps byte-identical to their
/// serial counterparts.
#[derive(Debug, Clone, Copy)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool that runs work on `threads` workers. Width 0 or 1 means
    /// serial execution on the calling thread.
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A pool sized from the environment: `CHATLS_THREADS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when `CHATLS_THREADS` is set but not a
    /// positive integer — a mistyped override must fail loudly, not
    /// silently fall back to the default width (see
    /// [`ExecPool::try_from_env`] for the non-panicking form).
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(pool) => pool,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`ExecPool::from_env`] returning the configuration error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when `CHATLS_THREADS` is set to
    /// anything other than a positive integer (unparseable text, zero, a
    /// negative number). An unset or empty variable is not an error — the
    /// pool falls back to the machine's available parallelism.
    pub fn try_from_env() -> Result<Self, String> {
        let threads = match threads_from_env()? {
            Some(n) => n,
            None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        };
        Ok(Self::new(threads))
    }

    /// The process-wide pool, sized once from the environment.
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(ExecPool::from_env)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results in index order — identical to `(0..n).map(f).collect()`.
    ///
    /// Panics in `f` propagate to the caller (the scope joins all workers
    /// first).
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_cancellable(&CancelToken::never(), n, f)
            .expect("a never-token cannot cancel a run")
    }

    /// Token-aware submission: like [`ExecPool::run`], but workers check
    /// `token` before starting each item and stop claiming work once it
    /// fires. Items already started run to completion (cancellation is
    /// cooperative); their results are discarded with the rest when the
    /// call returns `Err(Cancelled)`.
    ///
    /// With [`CancelToken::never`] this is exactly [`ExecPool::run`]
    /// (one extra branch per item).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the token fired before every item
    /// completed; the partial results are dropped.
    pub fn run_cancellable<R, F>(
        &self,
        token: &CancelToken,
        n: usize,
        f: F,
    ) -> Result<Vec<R>, Cancelled>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let (runs, tasks) = pool_counters();
        runs.inc();
        tasks.add(n as u64);
        if self.threads <= 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                token.checkpoint()?;
                out.push(f(i));
            }
            return Ok(out);
        }
        let workers = self.threads.min(n);
        // Chunks small enough that a slow item doesn't serialize its
        // neighbors, large enough to amortize the cursor bump.
        let chunk = (n / (workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    'claim: loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            if token.is_cancelled() {
                                break 'claim;
                            }
                            local.push((i, f(i)));
                        }
                    }
                    collected.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut tagged = collected.into_inner().unwrap();
        if tagged.len() < n {
            return Err(Cancelled);
        }
        tagged.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(tagged.len(), n);
        Ok(tagged.into_iter().map(|(_, r)| r).collect())
    }

    /// Maps `f` over `items` across the pool, preserving input order —
    /// identical to `items.iter().map(f).collect()`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Runs `f(0), f(1), …, f(workers-1)` with every invocation on its own
    /// concurrently live thread, then joins them all.
    ///
    /// Unlike [`ExecPool::run`] — which may fold several work items onto
    /// one worker — `broadcast` guarantees all `workers` closures execute
    /// simultaneously, so they may rendezvous on a shared
    /// [`std::sync::Barrier`] without deadlocking. This is the primitive
    /// behind level-parallel sweeps that need phase barriers (e.g. the
    /// levelized STA arrival propagation in `chatls-synth`). `workers` is
    /// clamped to the pool width; a width-1 pool runs `f(0)` inline.
    ///
    /// Panics in any closure propagate to the caller after the scope joins.
    pub fn broadcast<F>(&self, workers: usize, f: F) -> usize
    where
        F: Fn(usize) + Sync,
    {
        let workers = workers.clamp(1, self.threads);
        let (runs, tasks) = pool_counters();
        runs.inc();
        tasks.add(workers as u64);
        if workers == 1 {
            f(0);
            return 1;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for t in 1..workers {
                scope.spawn(move || f(t));
            }
            f(0);
        });
        workers
    }
}

/// Parses the `CHATLS_THREADS` override: `Ok(None)` when unset or empty
/// (use the default width), `Ok(Some(n))` for a positive integer.
///
/// # Errors
///
/// Returns a descriptive message for anything else — zero, negative
/// numbers, or unparseable text must never be silently ignored.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    let Ok(raw) = std::env::var("CHATLS_THREADS") else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("CHATLS_THREADS must be a positive integer; got 0 \
                      (unset the variable to use the machine's parallelism)"
            .to_string()),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "CHATLS_THREADS must be a positive integer; got '{trimmed}' \
             (unset the variable to use the machine's parallelism)"
        )),
    }
}

/// Process-wide pool counters (`exec.pool.*`), resolved once.
fn pool_counters() -> (&'static chatls_obs::Counter, &'static chatls_obs::Counter) {
    static HANDLES: OnceLock<(&'static chatls_obs::Counter, &'static chatls_obs::Counter)> =
        OnceLock::new();
    *HANDLES.get_or_init(|| {
        (chatls_obs::counter("exec.pool.runs"), chatls_obs::counter("exec.pool.tasks"))
    })
}

/// Hit/miss counters of a [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits / (hits + misses); 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

/// A lock-striped memo map: `SHARDS` independent `Mutex<HashMap>` shards
/// selected by key hash, plus atomic hit/miss counters.
///
/// [`ShardedCache::get_or_insert_with`] releases the shard lock while the
/// value is computed, so a slow miss never blocks lookups of other keys in
/// the same shard. Two threads racing on the same absent key may both
/// compute it (last write wins); since cached computations are pure this
/// only shows up in the miss counter, never in results.
///
/// Caches built with [`ShardedCache::bounded`] /
/// [`ShardedCache::named_bounded`] evict the least-recently-used entry of
/// a shard once that shard is full, so long-running processes (the serve
/// daemon) cannot be grown without bound by a stream of distinct keys.
pub struct ShardedCache<K, V> {
    /// Entries carry the use-clock value of their last hit or insert;
    /// bounded caches evict the shard's minimum on overflow.
    shards: Vec<Mutex<HashMap<K, (V, u64)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Per-shard entry cap (`usize::MAX` = unbounded).
    shard_cap: usize,
    /// Monotonic use clock driving LRU eviction in bounded caches.
    tick: AtomicU64,
    /// Mirrored `<name>.hits` / `<name>.misses` handles in the process-wide
    /// obs registry, for caches built with [`ShardedCache::named`].
    obs: Option<(&'static chatls_obs::Counter, &'static chatls_obs::Counter)>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_cap: usize::MAX,
            tick: AtomicU64::new(0),
            obs: None,
        }
    }

    /// An empty cache holding at most (roughly) `capacity` entries; each
    /// shard caps at `capacity / SHARDS` (min 1) and evicts its
    /// least-recently-used entry on overflow.
    pub fn bounded(capacity: usize) -> Self {
        let mut cache = Self::new();
        cache.shard_cap = (capacity / SHARDS).max(1);
        cache
    }

    /// An empty cache whose hit/miss counters are mirrored into the obs
    /// registry as `<name>.hits` / `<name>.misses` (`name` follows the
    /// `stage.subsystem` convention, e.g. `core.qorcache`). The local
    /// [`CacheStats`] counters keep working unchanged; the registry copies
    /// are what the telemetry sinks render.
    pub fn named(name: &str) -> Self {
        let mut cache = Self::new();
        cache.obs = Some((
            chatls_obs::counter_dyn(&format!("{name}.hits")),
            chatls_obs::counter_dyn(&format!("{name}.misses")),
        ));
        cache
    }

    /// [`ShardedCache::named`] with the [`ShardedCache::bounded`] entry
    /// cap.
    pub fn named_bounded(name: &str, capacity: usize) -> Self {
        let mut cache = Self::named(name);
        cache.shard_cap = (capacity / SHARDS).max(1);
        cache
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, (V, u64)>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The cached value for `key`, or `compute()` stored under it. Counts
    /// a hit or a miss accordingly.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        let shard = self.shard(&key);
        if let Some(entry) = shard.lock().unwrap().get_mut(&key) {
            entry.1 = self.tick.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some((hits, _)) = self.obs {
                hits.inc();
            }
            return entry.0.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some((_, misses)) = self.obs {
            misses.inc();
        }
        let v = compute();
        let mut map = shard.lock().unwrap();
        if !map.contains_key(&key) && map.len() >= self.shard_cap {
            // Evict the shard's least-recently-used entry. O(shard len),
            // paid only on overflow of a bounded cache.
            if let Some(oldest) = map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k.clone()) {
                map.remove(&oldest);
            }
        }
        map.insert(key, (v.clone(), self.tick.fetch_add(1, Ordering::Relaxed)));
        v
    }

    /// The cached value for `key`, if present (counts nothing and does not
    /// refresh the entry's LRU position).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard(key).lock().unwrap().get(key).map(|(v, _)| v.clone())
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        if let Some((hits, misses)) = self.obs {
            hits.reset();
            misses.reset();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over `bytes` — the workspace's stable 64-bit fingerprint
/// function (content-addressed cache keys, seed derivation).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_matches_serial_in_order() {
        let serial: Vec<u64> = (0..257).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            let pool = ExecPool::new(threads);
            let parallel = pool.run(257, |i| (i as u64) * 3 + 1);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<String> = (0..50).map(|i| format!("d{i}")).collect();
        let pool = ExecPool::new(4);
        let out = pool.map(&items, |s| format!("{s}!"));
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_handles_empty_and_single() {
        let pool = ExecPool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 1000;
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let pool = ExecPool::new(6);
        pool.run(n, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn from_env_reads_override_and_rejects_garbage() {
        // One test owns the env var so parallel test threads never race it.
        std::env::set_var("CHATLS_THREADS", "3");
        assert_eq!(ExecPool::from_env().threads(), 3);
        std::env::set_var("CHATLS_THREADS", " 5 ");
        assert_eq!(ExecPool::from_env().threads(), 5, "whitespace is trimmed");

        std::env::set_var("CHATLS_THREADS", "not-a-number");
        let err = ExecPool::try_from_env().unwrap_err();
        assert!(err.contains("CHATLS_THREADS") && err.contains("not-a-number"), "{err}");
        std::env::set_var("CHATLS_THREADS", "0");
        let err = ExecPool::try_from_env().unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        std::env::set_var("CHATLS_THREADS", "-2");
        assert!(ExecPool::try_from_env().is_err());
        // The panicking entry point fails loudly, not silently.
        let panicked = std::panic::catch_unwind(ExecPool::from_env);
        assert!(panicked.is_err(), "from_env must panic on a garbage override");

        // Unset and empty both mean "use the default width".
        std::env::set_var("CHATLS_THREADS", "");
        assert!(ExecPool::try_from_env().is_ok());
        std::env::remove_var("CHATLS_THREADS");
        assert!(ExecPool::try_from_env().is_ok());
        assert_eq!(threads_from_env(), Ok(None));
    }

    #[test]
    fn cancel_token_never_is_inert() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(t.checkpoint().is_ok());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_token_fires_on_cancel_and_clones_observe() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(t.checkpoint().is_ok());
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn cancel_token_fires_on_deadline() {
        let t = CancelToken::with_deadline(std::time::Instant::now());
        assert!(t.is_cancelled(), "a deadline in the past has already fired");
        let later = CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        assert!(later.remaining().unwrap() > std::time::Duration::from_secs(3000));
    }

    #[test]
    fn run_cancellable_completes_with_live_token() {
        let pool = ExecPool::new(4);
        let t = CancelToken::new();
        let out = pool.run_cancellable(&t, 100, |i| i * 2).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_cancellable_stops_after_token_fires() {
        let pool = ExecPool::new(4);
        let t = CancelToken::new();
        let started = AtomicU32::new(0);
        let result = pool.run_cancellable(&t, 1000, |i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                t.cancel();
            }
            i
        });
        assert_eq!(result, Err(Cancelled));
        // Workers stop claiming once the token fires; far fewer than all
        // 1000 items ever start (each worker finishes at most its current
        // chunk).
        assert!(started.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn run_cancellable_serial_checks_before_each_item() {
        let pool = ExecPool::new(1);
        let t = CancelToken::new();
        let ran = AtomicU32::new(0);
        let result = pool.run_cancellable(&t, 10, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                t.cancel();
            }
            i
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 3, "items after the cancel never start");
    }

    #[test]
    fn cache_hits_and_misses_count() {
        let cache: ShardedCache<u64, String> = ShardedCache::new();
        let a = cache.get_or_insert_with(7, || "seven".to_string());
        assert_eq!(a, "seven");
        let b = cache.get_or_insert_with(7, || panic!("must hit"));
        assert_eq!(b, "seven");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_is_safe_under_contention() {
        let cache: ShardedCache<usize, usize> = ShardedCache::new();
        let pool = ExecPool::new(8);
        let out = pool.run(400, |i| cache.get_or_insert_with(i % 10, || (i % 10) * 2));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i % 10) * 2);
        }
        assert_eq!(cache.len(), 10);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert!(stats.hits > 0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        // Capacity 2*SHARDS = two slots per shard; three keys hashing to
        // the same shard compete for them.
        let cache: ShardedCache<u64, u64> = ShardedCache::bounded(2 * SHARDS);
        let shard_of = |k: u64| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            (h.finish() as usize) % SHARDS
        };
        // Pigeonhole: among 2*SHARDS+1 keys some shard holds three.
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
        let (k1, k2, k3) = 'found: {
            for k in 0..=2 * SHARDS as u64 {
                let bucket = &mut by_shard[shard_of(k)];
                bucket.push(k);
                if let [a, b, c] = bucket[..] {
                    break 'found (a, b, c);
                }
            }
            unreachable!("pigeonhole guarantees a 3-way collision");
        };
        cache.get_or_insert_with(k1, || 1);
        cache.get_or_insert_with(k2, || 2);
        // Touch k1 so k2 becomes the shard's LRU entry, then overflow.
        cache.get_or_insert_with(k1, || unreachable!("must hit"));
        cache.get_or_insert_with(k3, || 3);
        assert_eq!(cache.peek(&k2), None, "the LRU entry must be evicted on overflow");
        assert_eq!(cache.peek(&k1), Some(1), "a recently hit entry must survive");
        assert_eq!(cache.peek(&k3), Some(3));
    }

    #[test]
    fn cache_clear_resets() {
        let cache: ShardedCache<u8, u8> = ShardedCache::new();
        cache.get_or_insert_with(1, || 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn named_cache_mirrors_into_obs_registry() {
        let cache: ShardedCache<u64, u64> = ShardedCache::named("exec.test_cache");
        let hits = chatls_obs::counter_dyn("exec.test_cache.hits");
        let misses = chatls_obs::counter_dyn("exec.test_cache.misses");
        hits.reset();
        misses.reset();
        cache.get_or_insert_with(1, || 10);
        cache.get_or_insert_with(1, || unreachable!("second lookup must hit"));
        assert_eq!((hits.get(), misses.get()), (1, 1));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        cache.clear();
        assert_eq!((hits.get(), misses.get()), (0, 0));
    }

    #[test]
    fn pool_runs_bump_obs_counters() {
        let tasks = chatls_obs::counter("exec.pool.tasks");
        let before = tasks.get();
        ExecPool::new(2).run(25, |i| i);
        // Other tests drive pools concurrently, so assert a lower bound.
        assert!(tasks.get() - before >= 25);
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"compile"), fnv1a(b"compile_ultra"));
        assert_eq!(fnv1a(b"aes"), fnv1a(b"aes"));
    }

    #[test]
    fn latch_broadcasts_one_value_to_all_waiters() {
        let latch = Arc::new(Latch::new());
        let mut handles = Vec::new();
        for _ in 0..6 {
            let latch = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || latch.wait(&CancelToken::never()).unwrap()));
        }
        std::thread::sleep(Duration::from_millis(20));
        latch.set(41);
        latch.set(99); // later sets must lose
        for h in handles {
            assert_eq!(h.join().unwrap(), 41);
        }
        assert_eq!(latch.try_get(), Some(41));
    }

    #[test]
    fn latch_wait_returns_immediately_when_already_set() {
        let latch: Latch<&'static str> = Latch::new();
        latch.set("done");
        assert_eq!(latch.wait(&CancelToken::never()).unwrap(), "done");
    }

    #[test]
    fn latch_wait_unblocks_on_cancel() {
        let latch: Arc<Latch<u32>> = Arc::new(Latch::new());
        let token = CancelToken::new();
        let waiter = {
            let (latch, token) = (Arc::clone(&latch), token.clone());
            std::thread::spawn(move || latch.wait(&token))
        };
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
        assert_eq!(waiter.join().unwrap(), Err(Cancelled));
        assert_eq!(latch.try_get(), None, "cancelled wait must not set the latch");
    }

    #[test]
    fn latch_wait_honours_deadline_tokens() {
        let latch: Latch<u32> = Latch::new();
        let start = Instant::now();
        let token = CancelToken::with_timeout(Duration::from_millis(30));
        assert_eq!(latch.wait(&token), Err(Cancelled));
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(25), "left early: {waited:?}");
        assert!(waited < Duration::from_secs(2), "deadline ignored: {waited:?}");
    }
}

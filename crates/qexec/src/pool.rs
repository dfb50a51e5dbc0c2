//! The persistent worker pool and the one scheduler it runs: a flat,
//! claim-by-index parallel map.
//!
//! ## One op, one heap record
//!
//! A parallel call cuts its index range `0..n` into fixed-size chunks and
//! publishes a single [`Op`] record to the pool. Everything a helper
//! touches outside a chunk lives in that record, which is an `Arc` on the
//! heap: the chunk cursor, the settled-chunk count, the panic payloads and
//! the condvar the submitter waits on. The only thing left in the
//! submitter's stack frame is the chunk closure itself (and whatever it
//! borrows), reached through a lifetime-erased pointer in the record.
//!
//! The submitter claims chunks from its own op until the cursor runs out,
//! withdraws the op, and then waits under the record's mutex until every
//! claimed chunk has settled. Pool workers that took a seat on the op
//! claim chunks from the same cursor. That gives **the one invariant**
//! every `unsafe` block in this crate rests on:
//!
//! > the submitter does not return until it has read `settled == chunks`
//! > under the op's mutex, and a helper touches submitter-frame memory
//! > only inside a chunk it claimed.
//!
//! A helper counts its chunks as settled *after* the last of them returns
//! and touches only its own `Arc` clone from then on, so no mutex, condvar
//! or flag it uses afterwards lives in a frame that may have been popped.
//!
//! ## Why nobody waits on an idle worker
//!
//! The submitter never depends on a helper showing up: it claims every
//! chunk nobody else has claimed, and only then waits — for chunks that
//! are already running on some other thread. Nested calls (a chunk that
//! itself submits an op) therefore cannot deadlock however busy the pool
//! is; at worst an op runs entirely on its submitter.

use crate::metrics;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard ceiling on pool width. The pool grows lazily toward the widest
/// parallelism ever requested (so explicit widths beyond the core count
/// oversubscribe instead of silently capping); this bounds that growth
/// against runaway width requests.
pub(crate) const MAX_WORKERS: usize = 256;

/// A width-`w` operation is cut into about `8·w` chunks, so even when one
/// chunk costs orders of magnitude more than another, the remaining
/// chunks redistribute across the other participants.
const CHUNKS_PER_WORKER: usize = 8;

thread_local! {
    /// Width installed by `with_width` (or inherited from the op being
    /// helped); `None` means "the process default".
    static INSTALLED_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `POPQC_NUM_THREADS`, parsed once per process (`> 0` to count).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("POPQC_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Cached like the env knob: `current_width()` runs on every parallel
/// call, and `available_parallelism` is a syscall on most platforms.
fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The one documented thread-count precedence, shared by this crate and
/// `qsvc`'s worker budgets:
///
/// 1. `POPQC_NUM_THREADS` (set and positive) pins the width outright;
/// 2. else an explicitly requested width ([`with_width`],
///    `--threads-per-job`, …) wins;
/// 3. else `std::thread::available_parallelism()`.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    resolve_threads_from(env_threads(), requested)
}

/// [`resolve_threads`] over an explicit environment value (separated so
/// the precedence is testable without mutating process-global state).
pub(crate) fn resolve_threads_from(env: Option<usize>, requested: Option<usize>) -> usize {
    env.or(requested.filter(|&n| n > 0))
        .unwrap_or_else(available_parallelism)
        .clamp(1, MAX_WORKERS)
}

/// Width parallel operations started from this thread will run at.
pub fn current_width() -> usize {
    resolve_threads(INSTALLED_WIDTH.with(|c| c.get()))
}

/// Runs `f` with `width` installed as the parallelism level for every
/// parallel operation it performs, nested ones included: a helper
/// installs its op's width while it runs that op's chunks. `width == 0`
/// clears the override back to the process default. Note
/// `POPQC_NUM_THREADS` still outranks the installed width — see
/// [`resolve_threads`].
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let value = if width == 0 { None } else { Some(width) };
    let prev = INSTALLED_WIDTH.with(|c| c.replace(value));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED_WIDTH.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Items per chunk of an `n`-item op at `width`: about
/// [`CHUNKS_PER_WORKER`] chunks per worker, never fewer than `min_chunk`
/// items (the call site's sequential threshold) and never zero.
pub(crate) fn chunk_len(n: usize, width: usize, min_chunk: usize) -> usize {
    n.div_ceil(width.max(1) * CHUNKS_PER_WORKER)
        .max(min_chunk)
        .max(1)
}

/// Locks `m`, recovering from poisoning. Every critical section in this
/// module is a few counter or list updates that leave the data valid at
/// every step and never runs caller code, so a poisoned lock still guards
/// consistent state — and nothing between publishing an op and settling
/// it may unwind (see the module docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type ChunkFn<'a> = dyn Fn(Range<usize>) + Sync + 'a;

/// One parallel call in flight; see the module docs.
struct Op {
    /// The submitter's chunk closure, lifetime erased. Dereferenced only
    /// inside [`Op::work`], for a chunk claimed from `next`.
    run: *const ChunkFn<'static>,
    n: usize,
    chunk: usize,
    chunks: usize,
    /// Installed on helpers while they run this op's chunks, so nested
    /// calls inherit the submitter's budget.
    width: usize,
    /// Index of the next unclaimed chunk (may run past `chunks`).
    /// `Relaxed` throughout: the cursor only hands out indices. The
    /// record itself reaches helpers through the pool's mutex, and what
    /// chunks wrote reaches the submitter through `state`'s.
    next: AtomicUsize,
    state: Mutex<OpState>,
    settled: Condvar,
}

#[derive(Default)]
struct OpState {
    /// Chunks that have returned or panicked.
    settled: usize,
    /// Of those, the ones a pool worker ran instead of the submitter.
    helped: usize,
    /// Payloads of the chunks that panicked, in the order their threads
    /// reported them. All are kept until the op has settled: a payload's
    /// destructor is caller code, and the submitter drops them once it
    /// is safe to unwind.
    panics: Vec<Box<dyn Any + Send>>,
}

// SAFETY: `run` points at a `Sync` closure, and the one invariant keeps
// that closure alive for every dereference: the submitter does not return
// until it has read `settled == chunks` under `state`, and `work` calls
// the closure only for a chunk it claimed, which it counts as settled
// afterwards. Every other field is `Send + Sync` on its own.
unsafe impl Send for Op {}
// SAFETY: as for `Send`.
unsafe impl Sync for Op {}

impl Op {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Relaxed) < self.chunks
    }

    /// Claims and runs chunks until the cursor runs out, then counts them
    /// as settled. Never unwinds: a panicking chunk settles like any
    /// other and leaves its payload in the op.
    fn work(&self, helper: bool) {
        let mut ran = 0;
        let mut panics = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.chunks {
                break;
            }
            let range = i * self.chunk..((i + 1) * self.chunk).min(self.n);
            // SAFETY: chunk `i` was claimed above and is counted as
            // settled only below, so the submitter — which does not
            // return until it has read `settled == chunks` under the
            // op's mutex — is still inside `run_op` and its closure is
            // alive.
            let run = unsafe { &*self.run };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run(range))) {
                panics.push(payload);
            }
            ran += 1;
        }
        if ran == 0 {
            return;
        }
        let mut state = lock(&self.state);
        state.settled += ran;
        if helper {
            state.helped += ran;
        }
        state.panics.append(&mut panics);
        if state.settled == self.chunks {
            self.settled.notify_one();
        }
    }
}

/// An op in the pool's list, with the helper seats it still offers.
struct Published {
    op: Arc<Op>,
    seats: usize,
}

#[derive(Default)]
struct Shared {
    /// Ops whose submitter is still claiming chunks, oldest first.
    ops: Vec<Published>,
    /// Workers parked on `work`.
    parked: usize,
}

pub(crate) struct Pool {
    shared: Mutex<Shared>,
    work: Condvar,
    /// Worker threads spawned so far (grown under `shared`).
    started: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use (no threads are spawned
/// until the first parallel operation asks for them).
fn global() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Mutex::new(Shared::default()),
        work: Condvar::new(),
        started: AtomicUsize::new(0),
    })
}

/// The pool if any parallel operation has created it yet (stats probes
/// must not force worker threads into existence).
pub(crate) fn global_if_started() -> Option<&'static Pool> {
    POOL.get()
}

/// Pre-grows the pool to at least `workers` threads (capped at the
/// pool's hard ceiling of 256).
///
/// Individual operations only grow the pool to their own width, so a
/// service expecting `J` concurrent jobs of width `w` each should
/// reserve `J·w` up front — otherwise total pool capacity would stay at
/// `w` and concurrent jobs would share it (the pool is not partitioned:
/// any idle worker may take a seat on any job's op).
pub fn reserve_workers(workers: usize) {
    if workers > 1 {
        global().ensure_workers(workers);
    }
}

impl Pool {
    /// Grows the pool to at least `width` worker threads (capped at
    /// [`MAX_WORKERS`]). Threads persist for the process lifetime — this
    /// is what makes consecutive parallel operations land on stable
    /// thread ids instead of spawning per call.
    fn ensure_workers(&'static self, width: usize) {
        let want = width.min(MAX_WORKERS);
        if self.started.load(Relaxed) >= want {
            return;
        }
        let _shared = lock(&self.shared);
        let have = self.started.load(Relaxed);
        for index in have..want {
            std::thread::Builder::new()
                .name(format!("qexec-{index}"))
                .spawn(move || self.worker_main())
                .expect("spawn qexec worker");
        }
        if want > have {
            self.started.store(want, Relaxed);
            metrics::pool_workers().set(want as i64);
        }
    }

    pub(crate) fn started_workers(&self) -> usize {
        self.started.load(Relaxed)
    }

    /// A worker's whole life: take a seat on the oldest op that still has
    /// one and unclaimed chunks, help until its cursor runs out, repeat;
    /// park (untimed, so an idle pool burns no CPU) when there is none.
    /// The list check and the park happen under one lock, which `publish`
    /// also takes, so a wakeup cannot be lost.
    fn worker_main(&self) {
        let mut shared = lock(&self.shared);
        loop {
            let open = shared
                .ops
                .iter_mut()
                .find(|p| p.seats > 0 && p.op.has_unclaimed());
            match open {
                Some(published) => {
                    published.seats -= 1;
                    let op = Arc::clone(&published.op);
                    drop(shared);
                    with_width(op.width, || op.work(true));
                    drop(op);
                    shared = lock(&self.shared);
                }
                None => {
                    shared.parked += 1;
                    shared = self
                        .work
                        .wait(shared)
                        .unwrap_or_else(PoisonError::into_inner);
                    shared.parked -= 1;
                }
            }
        }
    }

    /// Offers `op` to up to `seats` workers.
    fn publish(&self, op: &Arc<Op>, seats: usize) {
        let mut shared = lock(&self.shared);
        shared.ops.push(Published {
            op: Arc::clone(op),
            seats,
        });
        for _ in 0..seats.min(shared.parked) {
            self.work.notify_one();
        }
    }

    /// Takes `op` off the list once its cursor has run out.
    fn withdraw(&self, op: &Arc<Op>) {
        lock(&self.shared).ops.retain(|p| !Arc::ptr_eq(&p.op, op));
    }
}

/// Runs `run` over every `chunk`-sized piece of `0..n` at `width`, the
/// calling thread included, and returns once all of them have settled.
/// The caller has already ruled out the sequential cases (`width > 1` and
/// more than one chunk). If chunks panicked, the first payload reported
/// is re-raised here, after the op has settled.
pub(crate) fn run_op(n: usize, chunk: usize, width: usize, run: &ChunkFn<'_>) {
    let chunks = n.div_ceil(chunk);
    debug_assert!(width > 1 && chunks > 1);
    let pool = global();
    pool.ensure_workers(width);
    let _op_timer = metrics::parallel_op_duration().start_timer();
    let ctx = qobs::trace::current();
    let mut span = ctx.handle.enabled().then(|| {
        let mut s = ctx.handle.span("parallel_op", ctx.parent);
        s.attr("items", n);
        s.attr("width", width);
        s.attr("chunk", chunk);
        s
    });

    // SAFETY: erases the closure's lifetime only. The pointer is
    // dereferenced solely in `Op::work`, for a claimed chunk, and this
    // function does not return until it has read `settled == chunks`
    // under the op's mutex — nothing between `publish` and that read can
    // unwind — so every dereference happens while `run` is still
    // borrowed here.
    let run = unsafe { std::mem::transmute::<&ChunkFn<'_>, *const ChunkFn<'static>>(run) };
    let op = Arc::new(Op {
        run,
        n,
        chunk,
        chunks,
        width,
        next: AtomicUsize::new(0),
        state: Mutex::new(OpState::default()),
        settled: Condvar::new(),
    });
    pool.publish(&op, (width - 1).min(chunks - 1));
    op.work(false);
    pool.withdraw(&op);
    let mut state = lock(&op.state);
    while state.settled < chunks {
        state = op
            .settled
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let helped = state.helped as u64;
    let mut panics = std::mem::take(&mut state.panics);
    drop(state);

    metrics::parallel_ops_total().inc();
    metrics::tasks_total().add(chunks as u64);
    metrics::splits_total().add(chunks as u64 - 1);
    metrics::steals_total().add(helped);
    if let Some(span) = &mut span {
        span.attr("steals", helped);
        span.attr("tasks", chunks);
    }
    if !panics.is_empty() {
        let first = panics.swap_remove(0);
        drop(panics);
        panic::resume_unwind(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_env_then_requested_then_available() {
        // Env always wins.
        assert_eq!(resolve_threads_from(Some(3), Some(8)), 3);
        assert_eq!(resolve_threads_from(Some(3), None), 3);
        // Then the explicit request.
        assert_eq!(resolve_threads_from(None, Some(8)), 8);
        // A zero request means "default", not zero threads.
        let avail = available_parallelism();
        assert_eq!(resolve_threads_from(None, Some(0)), avail);
        assert_eq!(resolve_threads_from(None, None), avail);
        // Runaway widths clamp to the worker ceiling.
        assert_eq!(resolve_threads_from(None, Some(100_000)), MAX_WORKERS);
    }

    #[test]
    fn adaptive_grain_scales_with_width() {
        // ~CHUNKS_PER_WORKER chunks per worker, never below one item.
        assert_eq!(chunk_len(1024, 4, 1), 1024_usize.div_ceil(32));
        assert_eq!(chunk_len(3, 8, 1), 1);
        assert_eq!(chunk_len(0, 2, 0), 1);
        // The call site's threshold is a floor on the chunk.
        assert_eq!(chunk_len(1 << 20, 2, 1 << 12), 1 << 16);
        assert_eq!(chunk_len(5000, 2, 1 << 12), 1 << 12);
    }

    #[test]
    fn width_guard_nests_and_restores() {
        // POPQC_NUM_THREADS outranks the installed width by design, so
        // these exact-width assertions only hold without it.
        if std::env::var_os("POPQC_NUM_THREADS").is_some() {
            eprintln!("skipping width-pinned assertions: POPQC_NUM_THREADS is set");
            return;
        }
        let outer = current_width();
        with_width(5, || {
            assert_eq!(current_width(), 5);
            with_width(2, || assert_eq!(current_width(), 2));
            assert_eq!(current_width(), 5);
            // 0 clears back to the process default.
            with_width(0, || assert_eq!(current_width(), resolve_threads(None)));
        });
        assert_eq!(current_width(), outer);
    }
}

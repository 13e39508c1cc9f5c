//! Offline shim for the `crossbeam-epoch` API subset this workspace
//! uses, backed by a real three-epoch reclamation engine.
//!
//! The scheme is the classic one (Fraser 2004, as used by crossbeam):
//!
//! * A global epoch counter advances when every *pinned* thread has
//!   been observed at the current epoch.
//! * `Guard::defer_destroy` tags garbage with the epoch at retirement;
//!   a retired object may still be reachable by threads pinned at that
//!   epoch or the one before, so it is freed only once the global epoch
//!   has advanced **two** steps past its tag.
//! * Threads keep a small local bag of garbage and migrate it to the
//!   global queue (triggering a collection attempt) when it grows, when
//!   `Guard::flush` is called, or when the thread exits.
//!
//! All epoch bookkeeping uses `SeqCst`; this shim favors obvious
//! correctness over the fenceless fast paths of the real crate.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

/// A deferred destructor: a type-erased owned pointer plus its drop glue.
struct Deferred {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: a Deferred is an owned allocation in transit to the collector;
// ownership moves with the struct.
unsafe impl Send for Deferred {}

impl Deferred {
    unsafe fn execute(self) {
        (self.drop_fn)(self.ptr);
    }
}

unsafe fn drop_box<T>(ptr: *mut u8) {
    drop(Box::from_raw(ptr as *mut T));
}

/// Per-thread pin status: `(epoch << 1) | pinned`, plus a liveness flag
/// so exited threads do not block epoch advancement forever.
struct Slot {
    state: AtomicUsize,
    dead: AtomicUsize,
}

struct Global {
    epoch: AtomicUsize,
    registry: Mutex<Vec<Arc<Slot>>>,
    /// Garbage tagged with its retirement epoch.
    garbage: Mutex<Vec<(usize, Deferred)>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicUsize::new(2),
        registry: Mutex::new(Vec::new()),
        garbage: Mutex::new(Vec::new()),
    })
}

/// Tries to advance the global epoch once, then frees every piece of
/// garbage whose tag is at least two epochs old.
///
/// Best-effort by design: if another thread is already collecting, this
/// call returns immediately instead of queueing on the lock, so a
/// collector descheduled mid-scan never becomes a lock convoy. Skipping
/// is always safe: garbage just waits for the next call.
fn collect() {
    let g = global();
    let Ok(mut garbage) = g.garbage.try_lock() else {
        return;
    };
    let epoch = g.epoch.load(Ordering::SeqCst);
    let can_advance = {
        let mut registry = g.registry.lock().unwrap();
        registry.retain(|slot| slot.dead.load(Ordering::SeqCst) == 0 || Arc::strong_count(slot) > 1);
        registry.iter().all(|slot| {
            let s = slot.state.load(Ordering::SeqCst);
            s & 1 == 0 || s >> 1 == epoch
        })
    };
    let epoch = if can_advance {
        // CAS, not a store: a blind store could roll back an epoch a
        // racing collector already moved further. On failure, free
        // against the older epoch we validated — strictly conservative.
        let _ = g.epoch.compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst);
        epoch + 1
    } else {
        epoch
    };
    let mut i = 0;
    while i < garbage.len() {
        if garbage[i].0 + 2 <= epoch {
            let (_, d) = garbage.swap_remove(i);
            // SAFETY: no thread pinned at the retirement epoch (or the
            // one before) is still active, so nothing can reach `d`.
            unsafe { d.execute() };
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Thread-local participant
// ---------------------------------------------------------------------

const LOCAL_BAG_FLUSH: usize = 64;

struct Local {
    slot: Arc<Slot>,
    guard_count: Cell<usize>,
    bag: RefCell<Vec<(usize, Deferred)>>,
}

impl Local {
    fn new() -> Local {
        let slot = Arc::new(Slot {
            state: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
        });
        global().registry.lock().unwrap().push(slot.clone());
        Local { slot, guard_count: Cell::new(0), bag: RefCell::new(Vec::new()) }
    }

    fn flush_bag(&self) {
        let mut bag = self.bag.borrow_mut();
        if !bag.is_empty() {
            global().garbage.lock().unwrap().extend(bag.drain(..));
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush_bag();
        self.slot.state.store(0, Ordering::SeqCst);
        self.slot.dead.store(1, Ordering::SeqCst);
        collect();
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

// ---------------------------------------------------------------------
// Guard and pinning
// ---------------------------------------------------------------------

/// A pinned-epoch witness. While a thread holds at least one `Guard`,
/// memory it can reach through [`Atomic`] loads will not be freed.
pub struct Guard {
    unprotected: bool,
}

/// Pins the current thread and returns a guard.
pub fn pin() -> Guard {
    LOCAL.with(|local| {
        let count = local.guard_count.get();
        if count == 0 {
            let g = global();
            loop {
                let epoch = g.epoch.load(Ordering::SeqCst);
                local.slot.state.store((epoch << 1) | 1, Ordering::SeqCst);
                // Re-check so we never stay pinned at a stale epoch,
                // which would stall advancement (not a safety issue,
                // but a progress one).
                if g.epoch.load(Ordering::SeqCst) == epoch {
                    break;
                }
            }
        }
        local.guard_count.set(count + 1);
    });
    Guard { unprotected: false }
}

/// Returns a guard that performs no pinning and destroys deferred
/// garbage immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread is concurrently accessing
/// the data structure (e.g. inside `Drop` of the owning structure).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { unprotected: true };
    &UNPROTECTED
}

impl Guard {
    /// Defers destruction of the object `ptr` points to until no pinned
    /// thread can still reach it.
    ///
    /// # Safety
    ///
    /// `ptr` must be an owned, unlinked allocation created by
    /// [`Owned::new`]; no new references to it may be created after
    /// this call.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        debug_assert!(!ptr.is_null(), "defer_destroy on null");
        let deferred =
            Deferred { ptr: ptr.raw as *mut u8, drop_fn: drop_box::<T> };
        if self.unprotected {
            deferred.execute();
            return;
        }
        let epoch = global().epoch.load(Ordering::SeqCst);
        let mut pending = Some(deferred);
        let flush = LOCAL
            .try_with(|local| {
                let mut bag = local.bag.borrow_mut();
                bag.push((epoch, pending.take().expect("deferred consumed twice")));
                bag.len() >= LOCAL_BAG_FLUSH
            })
            .unwrap_or(false);
        if let Some(d) = pending {
            // Thread-local storage is being torn down: hand the garbage
            // straight to the collector.
            global().garbage.lock().unwrap().push((epoch, d));
        }
        if flush {
            self.flush();
        }
    }

    /// Migrates this thread's local garbage to the global queue and
    /// attempts a collection.
    pub fn flush(&self) {
        if self.unprotected {
            collect();
            return;
        }
        let _ = LOCAL.try_with(|local| local.flush_bag());
        collect();
    }

    /// Unpins and immediately re-pins the thread, allowing the global
    /// epoch to make progress across long-running pinned sections.
    pub fn repin(&mut self) {
        if self.unprotected {
            return;
        }
        LOCAL.with(|local| {
            if local.guard_count.get() == 1 {
                let g = global();
                loop {
                    let epoch = g.epoch.load(Ordering::SeqCst);
                    local.slot.state.store((epoch << 1) | 1, Ordering::SeqCst);
                    if g.epoch.load(Ordering::SeqCst) == epoch {
                        break;
                    }
                }
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.unprotected {
            return;
        }
        let _ = LOCAL.try_with(|local| {
            let count = local.guard_count.get();
            local.guard_count.set(count - 1);
            if count == 1 {
                local.slot.state.store(0, Ordering::SeqCst);
                if local.bag.borrow().len() >= LOCAL_BAG_FLUSH {
                    local.flush_bag();
                    collect();
                }
            }
        });
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Guard")
    }
}

// ---------------------------------------------------------------------
// Pointer types
// ---------------------------------------------------------------------

/// An owned heap allocation that can be published into an [`Atomic`].
pub struct Owned<T> {
    raw: *mut T,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Owned<T> {
        Owned { raw: Box::into_raw(Box::new(value)) }
    }

    /// Converts into a [`Shared`] tied to `_guard`'s lifetime,
    /// relinquishing ownership to the data structure.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let raw = self.raw;
        std::mem::forget(self);
        Shared { raw, _marker: PhantomData }
    }

    /// Consumes the owned pointer, returning the boxed value.
    pub fn into_box(self) -> Box<T> {
        let raw = self.raw;
        std::mem::forget(self);
        // SAFETY: `raw` came from Box::into_raw and is still owned.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `raw` is a live owned allocation.
        unsafe { &*self.raw }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: still owned; dropping frees the allocation.
        unsafe { drop(Box::from_raw(self.raw)) };
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Owned").field(&**self).finish()
    }
}

/// A pointer valid for the lifetime of a [`Guard`] borrow.
pub struct Shared<'g, T> {
    raw: *const T,
    _marker: PhantomData<&'g T>,
}

impl<'g, T> Clone for Shared<'g, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'g, T> Copy for Shared<'g, T> {}

impl<'g, T> PartialEq for Shared<'g, T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.raw, other.raw)
    }
}

impl<'g, T> Eq for Shared<'g, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Shared<'g, T> {
        Shared { raw: std::ptr::null(), _marker: PhantomData }
    }

    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// The raw pointer value.
    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and point to a live object
    /// protected by the guard this `Shared` borrows.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.raw
    }

    /// Same as [`deref`](Self::deref) but returns `None` for null.
    ///
    /// # Safety
    ///
    /// As for [`deref`](Self::deref).
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.raw.as_ref()
    }

    /// Reclaims ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner (typically during `Drop` of
    /// the data structure, under [`unprotected`]).
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on null");
        Owned { raw: self.raw as *mut T }
    }
}

impl<'g, T> From<*const T> for Shared<'g, T> {
    fn from(raw: *const T) -> Self {
        Shared { raw, _marker: PhantomData }
    }
}

impl<'g, T> fmt::Debug for Shared<'g, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shared").field(&self.raw).finish()
    }
}

/// Types that can be published into an [`Atomic`]: [`Owned`] and
/// [`Shared`].
pub trait Pointer<T> {
    fn into_ptr(self) -> *mut T;
    /// # Safety
    /// `raw` must carry whatever ownership the original pointer had.
    unsafe fn from_ptr(raw: *mut T) -> Self;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let raw = self.raw;
        std::mem::forget(self);
        raw
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Owned { raw }
    }
}

impl<'g, T> Pointer<T> for Shared<'g, T> {
    fn into_ptr(self) -> *mut T {
        self.raw as *mut T
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Shared { raw, _marker: PhantomData }
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed value, handed back to the caller.
    pub new: P,
}

// ---------------------------------------------------------------------
// Atomic
// ---------------------------------------------------------------------

/// An atomic pointer into epoch-protected memory.
pub struct Atomic<T> {
    inner: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer.
    pub fn null() -> Atomic<T> {
        Atomic { inner: AtomicPtr::new(std::ptr::null_mut()) }
    }

    /// Allocates `value` and stores a pointer to it.
    pub fn new(value: T) -> Atomic<T> {
        Atomic { inner: AtomicPtr::new(Box::into_raw(Box::new(value))) }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { raw: self.inner.load(ord), _marker: PhantomData }
    }

    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.inner.store(new.into_ptr(), ord);
    }

    pub fn swap<'g, P: Pointer<T>>(&self, new: P, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { raw: self.inner.swap(new.into_ptr(), ord), _marker: PhantomData }
    }

    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self.inner.compare_exchange(current.raw as *mut T, new_ptr, success, failure) {
            Ok(prev) => Ok(Shared { raw: prev, _marker: PhantomData }),
            Err(actual) => Err(CompareExchangeError {
                current: Shared { raw: actual, _marker: PhantomData },
                // SAFETY: the CAS failed, so ownership of `new` never
                // transferred; reconstituting it returns that ownership.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Atomic").field(&self.inner.load(Ordering::Relaxed)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc as StdArc;

    /// Serialises the tests that pin: the epoch is process-global, so a
    /// test that waits for it to advance must not overlap another test's
    /// pins in this binary. Poisoning is ignored — a
    /// failed test must not fail the rest.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    struct CountsDrops(StdArc<AtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unprotected_defer_is_immediate() {
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        let guard = unsafe { unprotected() };
        let s = a.load(Ordering::SeqCst, guard);
        unsafe { guard.defer_destroy(s) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_defer_waits_for_epochs() {
        let _serial = serial();
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        {
            let guard = pin();
            let s = a.load(Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(s) };
            a.store(Shared::null(), Ordering::SeqCst);
        }
        // Repeated pin+flush cycles let the epoch advance and the
        // garbage drain. Generously bounded: a concurrent test may hold
        // the epoch back transiently.
        for _ in 0..10_000 {
            if drops.load(Ordering::SeqCst) == 1 {
                break;
            }
            pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cas_failure_returns_ownership() {
        let _serial = serial();
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        let guard = pin();
        let stale = Shared::null();
        let res = a.compare_exchange(
            stale,
            Owned::new(CountsDrops(drops.clone())),
            Ordering::SeqCst,
            Ordering::SeqCst,
            &guard,
        );
        let err = match res {
            Err(e) => e,
            Ok(_) => panic!("CAS against wrong expected value must fail"),
        };
        assert!(!err.current.is_null());
        drop(err); // dropping the error frees the proposed Owned
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_churn_is_safe() {
        let _serial = serial();
        let a = StdArc::new(Atomic::new(0u64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let guard = pin();
                    let cur = a.load(Ordering::SeqCst, &guard);
                    let next = Owned::new(t * 1_000_000 + i);
                    if a.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst, &guard).is_ok()
                        && !cur.is_null()
                    {
                        unsafe { guard.defer_destroy(cur) };
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let guard = unsafe { unprotected() };
        let last = a.load(Ordering::SeqCst, guard);
        if !last.is_null() {
            unsafe { guard.defer_destroy(last) };
        }
        for _ in 0..8 {
            pin().flush();
        }
    }
}

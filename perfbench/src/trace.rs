//! In-memory span store for the traced run.
//!
//! Each thread appends spans to its own buffer, reserved before the
//! timed section so recording never allocates there (the allocation
//! counters run during the traced pass). A span records its name, the
//! message it belongs to, the span open on the same thread when it
//! began (its parent), and start and end times in nanoseconds since
//! the process epoch. Spans of one message share its id: the sequence
//! number the benchmark encodes into the value.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// `Span::id` and `Span::parent` when there is none.
pub const NONE: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// `false` when the call did not do its work: an empty dequeue, a
    /// refused enqueue, a failed send or receive.
    pub ok: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static OPEN: Cell<u32> = const { Cell::new(NO_PARENT) };
    static DROPPED: Cell<u64> = const { Cell::new(0) };
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Empties this thread's buffer, reserves room for `spans` spans and
/// starts recording.
pub fn reserve(spans: usize) {
    now_ns();
    BUF.with_borrow_mut(|b| {
        b.clear();
        b.reserve(spans);
    });
    OPEN.set(NO_PARENT);
    DROPPED.set(0);
    RECORDING.set(true);
}

/// Pauses or resumes recording on this thread (warm-up is not traced).
pub fn set_recording(on: bool) {
    RECORDING.set(on);
}

/// Opens a span; returns its token for [`close`]. A full buffer drops
/// the span (counted) rather than grow.
#[inline]
pub fn open(name: &'static str) -> u32 {
    if !RECORDING.get() {
        return NO_PARENT;
    }
    let start = now_ns();
    BUF.with_borrow_mut(|b| {
        if b.len() == b.capacity() {
            DROPPED.set(DROPPED.get() + 1);
            return NO_PARENT;
        }
        let idx = b.len() as u32;
        b.push(Span {
            name,
            id: NONE,
            parent: OPEN.get(),
            start,
            end: start,
            ok: true,
        });
        OPEN.set(idx);
        idx
    })
}

/// Closes the span `token` came from, tagging it with its message.
#[inline]
pub fn close(token: u32, id: u64, ok: bool) {
    let end = now_ns();
    if token == NO_PARENT {
        return;
    }
    BUF.with_borrow_mut(|b| {
        let s = &mut b[token as usize];
        s.end = end;
        s.id = id;
        s.ok = ok;
        OPEN.set(s.parent);
    });
}

/// Runs `f` inside a span whose message id and outcome come from its
/// result.
#[inline]
pub fn span<R>(
    name: &'static str,
    f: impl FnOnce() -> R,
    tag: impl FnOnce(&R) -> (u64, bool),
) -> R {
    let t = open(name);
    let r = f();
    let (id, ok) = tag(&r);
    close(t, id, ok);
    r
}

/// Stops recording and takes this thread's spans, with the count of
/// spans dropped for room.
pub fn take() -> (Vec<Span>, u64) {
    RECORDING.set(false);
    (BUF.with_borrow_mut(std::mem::take), DROPPED.get())
}

/// One thread's spans, with the self time of each: its duration minus
/// the time its children cover. Children run on their parent's thread
/// and inside its interval, one after another, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Durations of the spans called `name` across threads, and their self
/// times, with the count of those whose call did no work.
pub struct Named {
    pub durs: Vec<u64>,
    pub selfs: Vec<u64>,
    pub not_ok: u64,
}

pub fn named(threads: &[Vec<Span>], name: &str) -> Named {
    let mut out = Named {
        durs: Vec::new(),
        selfs: Vec::new(),
        not_ok: 0,
    };
    for spans in threads {
        let selfs = self_times(spans);
        for (s, own) in spans.iter().zip(selfs) {
            if s.name == name {
                out.durs.push(s.dur());
                out.selfs.push(own);
                out.not_ok += u64::from(!s.ok);
            }
        }
    }
    out
}

/// Writes spans as CSV, one line per span, at most `limit` lines.
pub fn write_csv(w: &mut impl Write, threads: &[Vec<Span>], limit: usize) -> io::Result<()> {
    writeln!(w, "thread,index,name,id,parent,start_ns,end_ns,self_ns,ok")?;
    let mut lines = 0;
    for (t, spans) in threads.iter().enumerate() {
        for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
            if lines == limit {
                return Ok(());
            }
            let id = if s.id == NONE {
                String::new()
            } else {
                s.id.to_string()
            };
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t},{i},{},{id},{parent},{},{},{own},{}",
                s.name, s.start, s.end, s.ok
            )?;
            lines += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_spans_nest() {
        reserve(8);
        let outer = open("outer");
        let inner = open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        close(inner, 7, true);
        let empty = open("inner");
        close(empty, NONE, false);
        close(outer, 7, true);
        set_recording(false);
        close(open("paused"), 1, true);
        let (spans, dropped) = take();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].dur() - spans[1].dur() - spans[2].dur());
        let inner = named(&[spans], "inner");
        assert_eq!(inner.durs.len(), 2);
        assert_eq!(inner.not_ok, 1);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        reserve(1);
        let cap = BUF.with_borrow(|b| b.capacity());
        for _ in 0..cap + 3 {
            let t = open("x");
            close(t, 1, true);
        }
        let (spans, dropped) = take();
        assert_eq!(spans.len(), cap);
        assert_eq!(dropped, 3);
        assert_eq!(spans.capacity(), cap);
    }
}

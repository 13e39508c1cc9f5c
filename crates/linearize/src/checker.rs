//! The Wing–Gong linearizability search with memoization.

use std::collections::HashSet;

use crate::bitset::BitSet;
use crate::history::{History, OpRecord};
use crate::model::Model;

/// Default search budget (DFS nodes visited) before giving up.
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Verdict of a linearizability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A legal sequential order respecting real time exists.
    Linearizable,
    /// No such order exists: the implementation misbehaved.
    NotLinearizable,
    /// The search budget was exhausted before a verdict was reached.
    Unknown,
}

/// Checks `history` against `model` with the [`DEFAULT_BUDGET`].
pub fn check<M: Model>(model: &M, history: &History<M::Op>) -> Outcome {
    check_with_budget(model, history, DEFAULT_BUDGET)
}

/// Checks `history` against `model`, visiting at most `budget` search
/// nodes.
pub fn check_with_budget<M: Model>(model: &M, history: &History<M::Op>, budget: u64) -> Outcome {
    if history.is_empty() {
        return Outcome::Linearizable;
    }
    debug_assert!(history.validate_stamps(), "malformed history stamps");

    // Sort by invocation time: the candidate set at every node is then a
    // prefix of the not-yet-linearized operations.
    let mut ops: Vec<&OpRecord<M::Op>> = history.ops().iter().collect();
    ops.sort_by_key(|r| r.invoke);

    let mut search = Search {
        model,
        ops: &ops,
        done: BitSet::new(ops.len()),
        memo: HashSet::new(),
        remaining: budget,
    };
    match search.run(model.initial()) {
        Ok(true) => Outcome::Linearizable,
        Ok(false) => Outcome::NotLinearizable,
        Err(Exhausted) => Outcome::Unknown,
    }
}

/// Marker for budget exhaustion.
struct Exhausted;

struct Search<'a, M: Model> {
    model: &'a M,
    /// Operations sorted by invocation stamp.
    ops: &'a [&'a OpRecord<M::Op>],
    /// Operations already placed in the linearization order.
    done: BitSet,
    /// (done-mask, state) pairs from which no completion exists.
    memo: HashSet<(BitSet, M::State)>,
    remaining: u64,
}

/// One search node on the explicit DFS stack: the state reached by the
/// operations placed so far, and where its candidate scan stands.
struct Frame<S> {
    state: S,
    /// Every operation below this index is placed.
    lo: usize,
    /// Earliest return among the unplaced operations: only operations
    /// invoked before it may linearize next.
    min_ret: u64,
    /// Next candidate index to try.
    next: usize,
    /// The candidate placed for the child being explored, undone when
    /// that child fails.
    placed: Option<usize>,
}

/// What entering a search node found.
enum Node<S> {
    /// Every operation is placed: the history is linearizable.
    Complete,
    /// This (done-mask, state) pair was explored before and failed
    /// (success ends the whole search immediately).
    Failed,
    /// A fresh node whose candidates are still to be tried.
    Open(Frame<S>),
}

impl<M: Model> Search<'_, M> {
    /// Returns whether every operation can be linearized from `initial`.
    ///
    /// A depth-first search over an explicit frame stack rather than the
    /// call stack: its depth is the history's length, which would
    /// overflow a thread's stack on long histories.
    fn run(&mut self, initial: M::State) -> Result<bool, Exhausted> {
        let mut stack = match self.enter(initial, 0)? {
            Node::Complete => return Ok(true),
            Node::Failed => return Ok(false),
            Node::Open(frame) => vec![frame],
        };
        while let Some(top) = stack.last_mut() {
            if let Some(i) = top.placed.take() {
                self.done.remove(i); // that child failed
            }
            let mut child = None;
            while top.next < self.ops.len() {
                let i = top.next;
                top.next += 1;
                let rec = self.ops[i];
                if rec.invoke > top.min_ret {
                    top.next = self.ops.len(); // sorted by invoke: no further candidates
                    break;
                }
                if self.done.contains(i) {
                    continue;
                }
                if let Some(next) = self.model.step(&top.state, &rec.op) {
                    child = Some((i, next));
                    break;
                }
            }
            let Some((i, next)) = child else {
                stack.pop(); // no candidate completes from this node
                continue;
            };
            self.done.insert(i);
            top.placed = Some(i);
            let lo = top.lo;
            match self.enter(next, lo)? {
                Node::Complete => return Ok(true),
                Node::Failed => {}
                Node::Open(frame) => stack.push(frame),
            }
        }
        Ok(false)
    }

    /// Visits the node reached in `state`; `lo` is a lower bound on the
    /// first unplaced operation.
    fn enter(&mut self, state: M::State, mut lo: usize) -> Result<Node<M::State>, Exhausted> {
        debug_assert!(self.done.count() <= self.ops.len());
        if self.done.is_full() {
            return Ok(Node::Complete);
        }
        if self.remaining == 0 {
            return Err(Exhausted);
        }
        self.remaining -= 1;
        if !self.memo.insert((self.done.clone(), state.clone())) {
            return Ok(Node::Failed);
        }
        while self.done.contains(lo) {
            lo += 1;
        }
        // An operation may linearize next only if no *pending* operation
        // returned before it was invoked (real-time order). All stamps
        // are unique, so strict comparison is exact. Operations invoked
        // after the running minimum also return after it, so the scan
        // stops there.
        let mut min_ret = u64::MAX;
        for (i, rec) in self.ops.iter().enumerate().skip(lo) {
            if rec.invoke > min_ret {
                break;
            }
            if !self.done.contains(i) {
                min_ret = min_ret.min(rec.ret);
            }
        }
        Ok(Node::Open(Frame {
            state,
            lo,
            min_ret,
            next: lo,
            placed: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, OpRecord};
    use crate::model::{QueueModel, QueueOp, RegisterModel, RegisterOp};

    /// Builds a history from `(op, invoke, ret)` triples.
    fn hist<O: Clone>(spec: &[(O, u64, u64)]) -> History<O> {
        History::from_records(
            spec.iter()
                .enumerate()
                .map(|(t, (op, i, r))| OpRecord {
                    thread: t,
                    op: op.clone(),
                    invoke: *i,
                    ret: *r,
                })
                .collect(),
        )
    }

    #[test]
    fn empty_history() {
        let h: History<QueueOp> = History::from_records(vec![]);
        assert_eq!(check(&QueueModel, &h), Outcome::Linearizable);
    }

    #[test]
    fn sequential_fifo_accepted() {
        use QueueOp::*;
        let h = hist(&[
            (Enqueue(1), 0, 1),
            (Enqueue(2), 2, 3),
            (Dequeue(Some(1)), 4, 5),
            (Dequeue(Some(2)), 6, 7),
            (Dequeue(None), 8, 9),
        ]);
        assert_eq!(check(&QueueModel, &h), Outcome::Linearizable);
    }

    #[test]
    fn sequential_lifo_rejected() {
        use QueueOp::*;
        let h = hist(&[
            (Enqueue(1), 0, 1),
            (Enqueue(2), 2, 3),
            (Dequeue(Some(2)), 4, 5), // stack order: illegal for a queue
        ]);
        assert_eq!(check(&QueueModel, &h), Outcome::NotLinearizable);
    }

    #[test]
    fn overlapping_enqueues_may_reorder() {
        use QueueOp::*;
        // enqueue(1) and enqueue(2) overlap in real time, so either
        // insertion order is a valid linearization.
        let h = hist(&[
            (Enqueue(1), 0, 10),
            (Enqueue(2), 1, 9),
            (Dequeue(Some(2)), 11, 12),
            (Dequeue(Some(1)), 13, 14),
        ]);
        assert_eq!(check(&QueueModel, &h), Outcome::Linearizable);
    }

    #[test]
    fn non_overlapping_enqueues_must_not_reorder() {
        use QueueOp::*;
        let h = hist(&[
            (Enqueue(1), 0, 1),
            (Enqueue(2), 2, 3), // strictly after enqueue(1)
            (Dequeue(Some(2)), 4, 5),
            (Dequeue(Some(1)), 6, 7),
        ]);
        assert_eq!(check(&QueueModel, &h), Outcome::NotLinearizable);
    }

    #[test]
    fn empty_observation_with_resident_element_rejected() {
        use QueueOp::*;
        // The element is in the queue for the dequeue's whole window, so
        // observing "empty" is illegal.
        let h = hist(&[(Enqueue(1), 0, 1), (Dequeue(None), 2, 3)]);
        assert_eq!(check(&QueueModel, &h), Outcome::NotLinearizable);
    }

    #[test]
    fn empty_observation_overlapping_enqueue_accepted() {
        use QueueOp::*;
        // The dequeue overlaps the enqueue: it may linearize first.
        let h = hist(&[(Enqueue(1), 0, 10), (Dequeue(None), 1, 2), (Dequeue(Some(1)), 11, 12)]);
        assert_eq!(check(&QueueModel, &h), Outcome::Linearizable);
    }

    #[test]
    fn duplicate_dequeue_rejected() {
        use QueueOp::*;
        let h = hist(&[
            (Enqueue(1), 0, 1),
            (Dequeue(Some(1)), 2, 3),
            (Dequeue(Some(1)), 4, 5), // value delivered twice
        ]);
        assert_eq!(check(&QueueModel, &h), Outcome::NotLinearizable);
    }

    #[test]
    fn register_textbook_examples() {
        use RegisterOp::*;
        // w(1) overlaps r→1 then r→0 afterwards: the late read of 0 is
        // illegal once 1 was observably written.
        let bad = hist(&[(Write(1), 0, 10), (Read(1), 1, 2), (Read(0), 3, 4)]);
        assert_eq!(check(&RegisterModel, &bad), Outcome::NotLinearizable);
        // Without the early read of 1, both orders are possible.
        let ok = hist(&[(Write(1), 0, 10), (Read(0), 3, 4)]);
        assert_eq!(check(&RegisterModel, &ok), Outcome::Linearizable);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        use QueueOp::*;
        let h = hist(&[(Enqueue(1), 0, 1), (Dequeue(Some(1)), 2, 3)]);
        assert_eq!(check_with_budget(&QueueModel, &h, 1), Outcome::Unknown);
    }

    /// A long history must not grow the call stack: one enqueue, one
    /// dequeue, then 32k empty dequeues, checked on a 2 MiB thread.
    #[test]
    fn long_history_is_checked_on_a_small_stack() {
        use QueueOp::*;
        const EMPTIES: u64 = 32_000;
        let mut spec = vec![(Enqueue(1), 0, 1), (Dequeue(Some(1)), 2, 3)];
        for k in 0..EMPTIES {
            spec.push((Dequeue(None), 4 + 2 * k, 5 + 2 * k));
        }
        let h = hist(&spec);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || check(&QueueModel, &h))
            .expect("spawn checker thread")
            .join()
            .expect("checker thread panicked");
        assert_eq!(outcome, Outcome::Linearizable);
    }

    #[test]
    fn wide_concurrency_is_tractable() {
        use QueueOp::*;
        // 8 fully-overlapping enqueues followed by 8 dequeues in an
        // arbitrary but matching order. (The frontier of k overlapping
        // enqueues has Σ P(k, i) distinct (mask, state) pairs — ~10^5 at
        // k = 8 but ~10^9 at k = 12, so this width is deliberate.)
        let mut spec = Vec::new();
        for v in 0..8u64 {
            spec.push((Enqueue(v), 0, 100));
        }
        for (k, v) in [3u64, 0, 7, 1, 2, 4, 5, 6].iter().enumerate() {
            let t = 101 + 2 * k as u64;
            spec.push((Dequeue(Some(*v)), t, t + 1));
        }
        let h = hist(&spec);
        assert_eq!(check(&QueueModel, &h), Outcome::Linearizable);
    }

    #[test]
    fn wide_concurrency_negative_case() {
        use QueueOp::*;
        // As above but one dequeued value was never enqueued.
        let mut spec = Vec::new();
        for v in 0..8u64 {
            spec.push((Enqueue(v), 0, 100));
        }
        for (k, v) in [3u64, 0, 7, 99, 2, 4, 5, 6].iter().enumerate() {
            let t = 101 + 2 * k as u64;
            spec.push((Dequeue(Some(*v)), t, t + 1));
        }
        let h = hist(&spec);
        assert_eq!(check(&QueueModel, &h), Outcome::NotLinearizable);
    }
}

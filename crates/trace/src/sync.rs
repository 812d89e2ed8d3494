//! Inter-thread synchronization markers and coordination state.
//!
//! The multi-threaded PARSEC-like workloads synchronize through barriers and
//! locks. The functional front-end attaches [`SyncOp`] markers to the dynamic
//! instruction stream; the timing simulators (interval as well as detailed)
//! consult a shared [`SyncController`] to decide when a thread must stall.
//! This mirrors the paper's functional-first organization: the functional
//! simulator produces the instruction stream, the timing simulator determines
//! how long each thread is blocked at each synchronization point.

use crate::ThreadId;

/// Synchronization operation attached to a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// Arrive at barrier `id`; the thread may not proceed past this
    /// instruction until all participating threads have arrived.
    BarrierArrive {
        /// Barrier identifier (monotonically increasing per program phase).
        id: u64,
    },
    /// Attempt to acquire lock `id`; the thread may not proceed until the lock
    /// is free.
    LockAcquire {
        /// Lock identifier.
        id: u64,
    },
    /// Release lock `id`.
    LockRelease {
        /// Lock identifier.
        id: u64,
    },
    /// Thread creation point (main thread spawning workers); modeled as a
    /// serialization point on the spawning thread.
    ThreadSpawn,
    /// Thread join point; the joining thread blocks until `child` finishes.
    ThreadJoin {
        /// Thread being joined.
        child: ThreadId,
    },
}

/// Current blocking state of one thread, as tracked by [`SyncController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Not blocked.
    Running,
    /// Waiting for other threads to arrive at the barrier.
    AtBarrier(u64),
    /// Waiting for a lock held by another thread.
    OnLock(u64),
    /// Waiting for a child thread to terminate.
    Joining(ThreadId),
    /// Thread has exhausted its instruction stream.
    Finished,
}

/// Shared synchronization state across the threads of one multi-threaded
/// workload.
///
/// The controller is deliberately timing-agnostic: the timing simulators call
/// [`SyncController::arrive_barrier`], [`SyncController::try_acquire`] and so
/// on when the corresponding instruction reaches the point at which it would
/// block the pipeline, and poll [`SyncController::is_blocked`] to decide
/// whether a core can make progress in a given cycle.
#[derive(Debug, Clone)]
pub struct SyncController {
    num_threads: usize,
    /// Barrier generation each thread has arrived at (threads arrive at
    /// barriers in program order, so a single counter per thread suffices).
    barrier_arrived: Vec<Option<u64>>,
    /// Number of threads that finished their stream entirely.
    finished: Vec<bool>,
    /// Lock id -> holding thread. A `BTreeMap` keeps the controller free of
    /// any hash-order dependence: lock bookkeeping is pure keyed lookup, and
    /// an ordered map makes that property structural rather than incidental.
    locks: std::collections::BTreeMap<u64, ThreadId>,
    /// Current blocking state per thread.
    state: Vec<BlockReason>,
    /// Statistics: barrier episodes completed.
    barriers_completed: u64,
    /// Statistics: lock acquisitions that had to wait.
    contended_acquires: u64,
    /// Statistics: total lock acquisitions.
    total_acquires: u64,
}

impl SyncController {
    /// Creates a controller for `num_threads` threads, all running.
    #[must_use]
    pub fn new(num_threads: usize) -> Self {
        SyncController {
            num_threads,
            barrier_arrived: vec![None; num_threads],
            finished: vec![false; num_threads],
            locks: std::collections::BTreeMap::new(),
            state: vec![BlockReason::Running; num_threads],
            barriers_completed: 0,
            contended_acquires: 0,
            total_acquires: 0,
        }
    }

    /// Number of threads participating in the workload.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Whether `thread` is currently blocked on a synchronization condition.
    #[must_use]
    pub fn is_blocked(&self, thread: ThreadId) -> bool {
        !matches!(self.state[thread], BlockReason::Running)
    }

    /// Current blocking reason of `thread`.
    #[must_use]
    pub fn block_reason(&self, thread: ThreadId) -> BlockReason {
        self.state[thread]
    }

    /// Number of barrier episodes in which every live thread arrived.
    #[must_use]
    pub fn barriers_completed(&self) -> u64 {
        self.barriers_completed
    }

    /// `(contended, total)` lock acquisition counts.
    #[must_use]
    pub fn lock_contention(&self) -> (u64, u64) {
        (self.contended_acquires, self.total_acquires)
    }

    /// Registers that `thread` arrived at barrier `id`. Returns `true` when
    /// the barrier is released by this arrival (all live threads arrived).
    pub fn arrive_barrier(&mut self, thread: ThreadId, id: u64) -> bool {
        self.barrier_arrived[thread] = Some(id);
        self.state[thread] = BlockReason::AtBarrier(id);
        self.maybe_release_barrier(id)
    }

    fn maybe_release_barrier(&mut self, id: u64) -> bool {
        let all_arrived = (0..self.num_threads)
            .all(|t| self.finished[t] || matches!(self.barrier_arrived[t], Some(b) if b >= id));
        if all_arrived {
            for t in 0..self.num_threads {
                if matches!(self.state[t], BlockReason::AtBarrier(b) if b <= id) {
                    self.state[t] = BlockReason::Running;
                }
            }
            self.barriers_completed += 1;
        }
        all_arrived
    }

    /// Attempts to acquire lock `id` for `thread`. Returns `true` on success;
    /// on failure the thread is marked blocked until the holder releases.
    pub fn try_acquire(&mut self, thread: ThreadId, id: u64) -> bool {
        self.total_acquires += 1;
        match self.locks.get(&id) {
            Some(&holder) if holder != thread => {
                self.contended_acquires += 1;
                self.state[thread] = BlockReason::OnLock(id);
                false
            }
            _ => {
                self.locks.insert(id, thread);
                self.state[thread] = BlockReason::Running;
                true
            }
        }
    }

    /// Releases lock `id` held by `thread` and wakes one waiter (if any).
    ///
    /// Releasing a lock the thread does not hold is ignored (the synthetic
    /// front-end never produces unmatched releases, but robustness costs
    /// nothing here).
    pub fn release(&mut self, thread: ThreadId, id: u64) {
        if self.locks.get(&id) == Some(&thread) {
            self.locks.remove(&id);
            // Wake the lowest-numbered waiter deterministically.
            if let Some(waiter) = (0..self.num_threads)
                .find(|&t| matches!(self.state[t], BlockReason::OnLock(l) if l == id))
            {
                self.locks.insert(id, waiter);
                self.state[waiter] = BlockReason::Running;
            }
        }
    }

    /// Marks `thread` as having exhausted its instruction stream. Any barrier
    /// other threads are waiting on may become releasable.
    pub fn mark_finished(&mut self, thread: ThreadId) {
        self.finished[thread] = true;
        self.state[thread] = BlockReason::Finished;
        // A finished thread can never arrive at a pending barrier; re-evaluate
        // the lowest barrier id any thread is currently blocked on.
        let pending: Vec<u64> = (0..self.num_threads)
            .filter_map(|t| match self.state[t] {
                BlockReason::AtBarrier(b) => Some(b),
                _ => None,
            })
            .collect();
        for id in pending {
            self.maybe_release_barrier(id);
        }
        // Wake joiners.
        for t in 0..self.num_threads {
            if matches!(self.state[t], BlockReason::Joining(c) if c == thread) {
                self.state[t] = BlockReason::Running;
            }
        }
    }

    /// Whether `thread` has finished its stream.
    #[must_use]
    pub fn is_finished(&self, thread: ThreadId) -> bool {
        self.finished[thread]
    }

    /// Registers that `thread` waits for `child` to finish. Returns `true` if
    /// the child already finished (no blocking necessary).
    pub fn join(&mut self, thread: ThreadId, child: ThreadId) -> bool {
        if self.finished[child] {
            true
        } else {
            self.state[thread] = BlockReason::Joining(child);
            false
        }
    }

    /// Whether every thread has finished.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.finished.iter().all(|&f| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut s = SyncController::new(3);
        assert!(!s.arrive_barrier(0, 1));
        assert!(s.is_blocked(0));
        assert!(!s.arrive_barrier(1, 1));
        assert!(s.arrive_barrier(2, 1));
        assert!(!s.is_blocked(0));
        assert!(!s.is_blocked(1));
        assert!(!s.is_blocked(2));
        assert_eq!(s.barriers_completed(), 1);
    }

    #[test]
    fn barrier_ignores_finished_threads() {
        let mut s = SyncController::new(2);
        s.mark_finished(1);
        assert!(
            s.arrive_barrier(0, 1),
            "lone live thread releases immediately"
        );
        assert!(!s.is_blocked(0));
    }

    #[test]
    fn finishing_late_releases_waiting_barrier() {
        let mut s = SyncController::new(2);
        assert!(!s.arrive_barrier(0, 1));
        assert!(s.is_blocked(0));
        s.mark_finished(1);
        assert!(
            !s.is_blocked(0),
            "finish of the other thread must release the barrier"
        );
    }

    #[test]
    fn lock_contention_and_handoff() {
        let mut s = SyncController::new(2);
        assert!(s.try_acquire(0, 10));
        assert!(!s.try_acquire(1, 10));
        assert!(s.is_blocked(1));
        s.release(0, 10);
        // Lock is handed directly to the waiter.
        assert!(!s.is_blocked(1));
        assert!(!s.try_acquire(0, 10), "thread 1 now holds the lock");
        assert_eq!(s.lock_contention(), (2, 3));
    }

    #[test]
    fn reacquire_by_holder_is_not_contended() {
        let mut s = SyncController::new(1);
        assert!(s.try_acquire(0, 1));
        assert!(s.try_acquire(0, 1));
        assert_eq!(s.lock_contention(), (0, 2));
    }

    #[test]
    fn release_of_unheld_lock_is_ignored() {
        let mut s = SyncController::new(2);
        s.release(0, 99);
        assert!(s.try_acquire(1, 99));
    }

    #[test]
    fn join_blocks_until_child_finishes() {
        let mut s = SyncController::new(2);
        assert!(!s.join(0, 1));
        assert!(s.is_blocked(0));
        s.mark_finished(1);
        assert!(!s.is_blocked(0));
        assert!(s.join(0, 1), "joining a finished thread does not block");
    }

    #[test]
    fn lock_handoff_is_order_independent() {
        // Drive the same contention scenario over many distinct lock ids
        // (so a hash-ordered map would visit them in a scrambled order) and
        // check the observable outcome is identical to replaying the same
        // operations one lock at a time. Blocked-waiter wakeup must depend
        // only on thread numbering, never on map iteration order.
        let ids: Vec<u64> = (0..64).map(|i| i * 0x9e37_79b9 + 7).collect();

        let mut interleaved = SyncController::new(3);
        for &id in &ids {
            assert!(interleaved.try_acquire(0, id));
        }
        for &id in &ids {
            assert!(!interleaved.try_acquire(2, id));
            assert!(!interleaved.try_acquire(1, id));
        }
        for &id in ids.iter().rev() {
            interleaved.release(0, id);
        }

        let mut sequential = SyncController::new(3);
        for &id in &ids {
            assert!(sequential.try_acquire(0, id));
            assert!(!sequential.try_acquire(2, id));
            assert!(!sequential.try_acquire(1, id));
            sequential.release(0, id);
        }

        // In both schedules every lock must have been handed to the
        // lowest-numbered waiter: thread 2 stays blocked, thread 1 runs.
        for s in [&interleaved, &sequential] {
            assert!(!s.is_blocked(1), "lowest-numbered waiter must be woken");
            assert!(s.is_blocked(2), "higher-numbered waiter stays blocked");
        }
        assert_eq!(interleaved.lock_contention(), sequential.lock_contention());
        assert_eq!(interleaved.block_reason(2), sequential.block_reason(2));
    }

    #[test]
    fn all_finished_tracks_every_thread() {
        let mut s = SyncController::new(2);
        assert!(!s.all_finished());
        s.mark_finished(0);
        assert!(!s.all_finished());
        s.mark_finished(1);
        assert!(s.all_finished());
    }
}

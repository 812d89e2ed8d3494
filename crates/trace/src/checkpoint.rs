//! Functional-state checkpointing of instruction streams.
//!
//! A model swap in hybrid simulation happens while the outgoing timing model
//! still holds fetched-but-unretired instructions in its window/ROB. Those
//! instructions have already been consumed from the underlying deterministic
//! generator, so the incoming model cannot simply clone the generator — it
//! would skip them. [`CheckpointStream`] solves this: it replays the
//! unretired instructions first (in program order) and then continues from
//! the handed-over generator, so the incoming model observes exactly the
//! suffix of the dynamic instruction stream that the outgoing model had not
//! yet retired.

use std::collections::VecDeque;

use crate::inst::DynInst;
use crate::stream::{InstructionStream, SyntheticStream};

/// Per-core resume point handed from an outgoing timing model to an incoming
/// one: where the core's clock and retired-instruction counter stood when the
/// checkpoint was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreResume {
    /// The core's simulated time at the checkpoint (absolute cycles).
    pub time: u64,
    /// Instructions the core had retired at the checkpoint.
    pub instructions: u64,
    /// Whether the core had already finished its stream.
    pub done: bool,
}

/// An instruction stream that replays a checkpointed prefix before continuing
/// from a [`SyntheticStream`] generator.
///
/// A fresh stream (empty prefix) behaves exactly like the wrapped generator,
/// which is why every model — not just hybrid runs — executes on
/// `CheckpointStream`s: the plain entry points and the hybrid swap path then
/// share one code path and one determinism argument.
#[derive(Debug, Clone)]
pub struct CheckpointStream {
    replay: VecDeque<DynInst>,
    inner: SyntheticStream,
}

impl CheckpointStream {
    /// Wraps a generator with no replay prefix (a run from the beginning).
    #[must_use]
    pub fn fresh(inner: SyntheticStream) -> Self {
        CheckpointStream {
            replay: VecDeque::new(),
            inner,
        }
    }

    /// Builds the stream an incoming model resumes from: `unretired` are the
    /// instructions the outgoing model had fetched but not retired (oldest
    /// first), prepended to `current`, the outgoing model's own stream as it
    /// stands (its un-replayed prefix, if any, followed by the generator).
    /// Nothing is cloned: the outgoing model hands its stream over.
    #[must_use]
    pub fn resuming_owned(unretired: Vec<DynInst>, mut current: CheckpointStream) -> Self {
        for inst in unretired.into_iter().rev() {
            current.replay.push_front(inst);
        }
        current
    }

    /// Number of instructions queued for replay before the generator
    /// continues.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }
}

impl InstructionStream for CheckpointStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        if let Some(inst) = self.replay.pop_front() {
            return Some(inst);
        }
        self.inner.next_inst()
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner
            .remaining_hint()
            .map(|r| r + self.replay.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn collect(s: &mut impl InstructionStream) -> Vec<DynInst> {
        let mut v = Vec::new();
        while let Some(i) = s.next_inst() {
            v.push(i);
        }
        v
    }

    #[test]
    fn fresh_stream_matches_the_generator() {
        let p = catalog::profile("gcc").unwrap();
        let mut plain = SyntheticStream::new(&p, 0, 9, 2_000);
        let mut wrapped = CheckpointStream::fresh(SyntheticStream::new(&p, 0, 9, 2_000));
        assert_eq!(collect(&mut plain), collect(&mut wrapped));
    }

    #[test]
    fn resuming_replays_unretired_then_continues() {
        let p = catalog::profile("mcf").unwrap();
        let reference = collect(&mut CheckpointStream::fresh(SyntheticStream::new(
            &p, 0, 3, 1_000,
        )));

        // Consume 100 instructions; pretend the last 40 were fetched but not
        // retired when the checkpoint was taken.
        let mut s = CheckpointStream::fresh(SyntheticStream::new(&p, 0, 3, 1_000));
        let mut consumed = Vec::new();
        for _ in 0..100 {
            consumed.push(s.next_inst().unwrap());
        }
        let unretired = consumed[60..].to_vec();
        let mut resumed = CheckpointStream::resuming_owned(unretired, s);
        assert_eq!(resumed.replay_len(), 40);
        assert_eq!(resumed.remaining_hint(), Some(940));
        let tail = collect(&mut resumed);
        assert_eq!(tail.len(), 940);
        assert_eq!(&reference[60..], &tail[..]);
    }

    #[test]
    fn resuming_owned_matches_the_cloning_path() {
        // A caller that must keep its stream checkpoints a clone; the clone
        // resumes exactly like the handed-over original.
        let p = catalog::profile("gcc").unwrap();
        let mut s = CheckpointStream::fresh(SyntheticStream::new(&p, 0, 9, 800));
        let mut consumed = Vec::new();
        for _ in 0..120 {
            consumed.push(s.next_inst().unwrap());
        }
        let unretired = consumed[90..].to_vec();
        let cloned = CheckpointStream::resuming_owned(unretired.clone(), s.clone());
        let owned = CheckpointStream::resuming_owned(unretired, s);
        assert_eq!(collect(&mut { cloned }), collect(&mut { owned }));
    }

    #[test]
    fn resuming_from_a_resumed_stream_stacks_prefixes() {
        let p = catalog::profile("gzip").unwrap();
        let reference = collect(&mut CheckpointStream::fresh(SyntheticStream::new(
            &p, 0, 5, 500,
        )));
        let mut s = CheckpointStream::fresh(SyntheticStream::new(&p, 0, 5, 500));
        let mut consumed = Vec::new();
        for _ in 0..50 {
            consumed.push(s.next_inst().unwrap());
        }
        // First swap: 10 unretired.
        let mut second = CheckpointStream::resuming_owned(consumed[40..].to_vec(), s);
        // Drain 3 of the replayed instructions, then swap again with 2 more
        // unretired in front of the remaining 7.
        let mut replayed = Vec::new();
        for _ in 0..3 {
            replayed.push(second.next_inst().unwrap());
        }
        let third = CheckpointStream::resuming_owned(replayed[1..].to_vec(), second);
        let tail = collect(&mut { third });
        assert_eq!(&reference[41..], &tail[..]);
    }
}

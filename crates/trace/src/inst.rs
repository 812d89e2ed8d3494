//! Dynamic instruction representation of the synthetic ISA.
//!
//! The timing models never interpret instruction semantics; they only need the
//! information interval analysis and detailed out-of-order simulation consume:
//! operation class (for execution latency and functional-unit selection),
//! register dependences, memory addresses, branch outcomes/targets, whether the
//! instruction serializes the pipeline, and synchronization markers for
//! multi-threaded runs.

use crate::sync::SyncOp;

/// Architectural register identifier.
///
/// Registers `0..32` are integer registers, `32..64` floating-point registers.
/// The distinction only influences which functional unit class consumes a
/// value; the dependence machinery treats them uniformly.
pub type RegId = u16;

/// Functional class of an instruction.
///
/// The classes mirror the functional units and latencies of Table 1 of the
/// paper (load 2 cycles, multiply 3, floating point 4, divide 20; simple
/// integer ALU operations are single-cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (add, logical, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined).
    IntDiv,
    /// Floating-point add/sub/compare/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root (long latency).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control-transfer instruction (conditional or unconditional).
    Branch,
    /// Pipeline-serializing instruction (memory barrier, system call entry,
    /// TLB maintenance). The core must drain the window before executing it.
    Serialize,
}

impl OpClass {
    /// Base execution latency in cycles of this operation class, matching the
    /// functional-unit latencies of Table 1 of the paper. Loads report the
    /// address-generation + L1-hit latency; cache misses add on top of this.
    #[must_use]
    pub fn base_latency(self) -> u64 {
        match self {
            OpClass::IntAlu | OpClass::Branch | OpClass::Serialize | OpClass::Store => 1,
            OpClass::Load => 2,
            OpClass::IntMul => 3,
            OpClass::FpAlu | OpClass::FpMul => 4,
            OpClass::IntDiv | OpClass::FpDiv => 20,
        }
    }

    /// Whether the class executes on the integer ALU/multiplier cluster.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            OpClass::IntAlu
                | OpClass::IntMul
                | OpClass::IntDiv
                | OpClass::Branch
                | OpClass::Serialize
        )
    }

    /// Whether the class executes on the floating-point cluster.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv)
    }

    /// Whether the class executes on the load/store cluster.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Sub-class of a control-transfer instruction, used by the branch-predictor
/// front-end (BTB vs. return-address-stack vs. direction prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch or jump.
    UnconditionalDirect,
    /// Indirect jump through a register (switch tables, virtual calls).
    Indirect,
    /// Direct function call (pushes a return address).
    Call,
    /// Function return (pops the return-address stack).
    Return,
}

/// Architectural outcome of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Kind of control transfer.
    pub class: BranchClass,
    /// Whether the branch is architecturally taken.
    pub taken: bool,
    /// Architectural target of the branch when taken.
    pub target: u64,
    /// Fall-through address (the next sequential PC).
    pub fallthrough: u64,
}

impl BranchInfo {
    /// The next architectural PC after this branch.
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        if self.taken {
            self.target
        } else {
            self.fallthrough
        }
    }
}

/// Architectural memory access performed by a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual byte address of the access.
    pub vaddr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// `true` when the address falls in a region shared between threads
    /// (multi-threaded workloads only); used by workload statistics, the
    /// coherence behaviour itself emerges from the memory-hierarchy simulator.
    pub shared: bool,
}

/// One dynamic instruction of the synthetic instruction stream.
///
/// `Copy`: every field is plain data (~90 bytes), so the timing models move
/// instructions through window/ROB stages with flat copies — there is no
/// heap behind a `DynInst`, and nothing on the per-instruction hot path ever
/// needs to allocate or `clone` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Per-thread dynamic sequence number (0-based, monotonically increasing).
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Source registers (up to two).
    pub srcs: [Option<RegId>; 2],
    /// Destination register, if any.
    pub dst: Option<RegId>,
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for control-transfer instructions.
    pub branch: Option<BranchInfo>,
    /// Synchronization operation attached to this instruction (multi-threaded
    /// workloads only). The instruction itself is typically a [`OpClass::Load`]
    /// / [`OpClass::Store`] (lock word access) or [`OpClass::Serialize`]
    /// (barrier).
    pub sync: Option<SyncOp>,
}

impl DynInst {
    /// Creates a plain single-cycle ALU instruction; primarily useful in tests.
    #[must_use]
    pub fn nop(seq: u64, pc: u64) -> Self {
        DynInst {
            seq,
            pc,
            op: OpClass::IntAlu,
            srcs: [None, None],
            dst: None,
            mem: None,
            branch: None,
            sync: None,
        }
    }

    /// Whether the instruction is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.op == OpClass::Load
    }

    /// Whether the instruction is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.op == OpClass::Store
    }

    /// Whether the instruction is a control-transfer instruction.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.op == OpClass::Branch
    }

    /// Whether the instruction serializes the pipeline (window drain).
    #[must_use]
    pub fn is_serializing(&self) -> bool {
        self.op == OpClass::Serialize
    }

    /// Whether the instruction carries a synchronization marker.
    #[must_use]
    pub fn is_sync(&self) -> bool {
        self.sync.is_some()
    }

    /// Execution latency of the instruction excluding memory-hierarchy misses.
    #[must_use]
    pub fn exec_latency(&self) -> u64 {
        self.op.base_latency()
    }

    /// Iterator over the valid source registers.
    pub fn src_regs(&self) -> impl Iterator<Item = RegId> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_latencies_match_table1() {
        assert_eq!(OpClass::IntAlu.base_latency(), 1);
        assert_eq!(OpClass::Load.base_latency(), 2);
        assert_eq!(OpClass::IntMul.base_latency(), 3);
        assert_eq!(OpClass::FpAlu.base_latency(), 4);
        assert_eq!(OpClass::IntDiv.base_latency(), 20);
        assert_eq!(OpClass::FpDiv.base_latency(), 20);
    }

    #[test]
    fn op_class_cluster_partition() {
        let all = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAlu,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::Serialize,
        ];
        for op in all {
            let clusters = usize::from(op.is_integer())
                + usize::from(op.is_float())
                + usize::from(op.is_memory());
            assert_eq!(clusters, 1, "{op:?} must belong to exactly one cluster");
        }
    }

    #[test]
    fn branch_next_pc_follows_outcome() {
        let taken = BranchInfo {
            class: BranchClass::Conditional,
            taken: true,
            target: 0x4000,
            fallthrough: 0x1004,
        };
        assert_eq!(taken.next_pc(), 0x4000);
        let not_taken = BranchInfo {
            taken: false,
            ..taken
        };
        assert_eq!(not_taken.next_pc(), 0x1004);
    }

    #[test]
    fn nop_is_plain_alu() {
        let i = DynInst::nop(7, 0x100);
        assert_eq!(i.seq, 7);
        assert!(!i.is_load() && !i.is_store() && !i.is_branch() && !i.is_serializing());
        assert_eq!(i.exec_latency(), 1);
        assert_eq!(i.src_regs().count(), 0);
    }

    #[test]
    fn src_regs_iterates_only_valid() {
        let mut i = DynInst::nop(0, 0);
        i.srcs = [Some(3), None];
        assert_eq!(i.src_regs().collect::<Vec<_>>(), vec![3]);
        i.srcs = [Some(3), Some(9)];
        assert_eq!(i.src_regs().collect::<Vec<_>>(), vec![3, 9]);
    }
}

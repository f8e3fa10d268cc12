//! The hand-off between a firmware future and its core engine.
//!
//! Firmware runs as a Rust future; the core timing engine polls it. They
//! share one [`CoreSlot`]: a short ring of queued operations, each
//! tagged with the profiling function current when it was issued, plus
//! the response to the last load or atomic. An operation whose API
//! returns `()` (ALU work, branches, stores, `set`, `wfi`) is queued and
//! resolves at once, so the firmware runs ahead to the next operation
//! whose value it reads. That one is queued too, and the future
//! suspends. The engine charges the queued operations in order and
//! polls the future again only when the ring is empty, by which time the
//! response it waits on has been deposited.

use crate::func::FwFunc;
use nicsim_mem::{SpOp, SpRequest};
use std::cell::Cell;
use std::rc::Rc;

/// Operations the firmware may queue ahead of the engine. A full ring
/// makes the next operation wait for the engine to drain it.
pub const RING_DEPTH: usize = 8;
const _: () = assert!(RING_DEPTH.is_power_of_two() && RING_DEPTH <= u8::MAX as usize);

/// An operation requested by firmware, to be charged by the core engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// `n` ALU/control instructions of straight-line work.
    Alu(u32),
    /// A conditional branch; `mispredict` annuls one issue slot.
    Branch {
        /// Whether the static predictor got it wrong.
        mispredict: bool,
    },
    /// A scratchpad transaction (load, store, or atomic RMW).
    Mem(SpRequest),
    /// Wait-for-interrupt: one instruction to issue, then the core parks
    /// until its wake line is raised (interrupt dispatch mode).
    Wfi,
}

/// A coarse record of one executed operation, for the ILP trace expansion
/// (Table 2). Kept deliberately small; the `nicsim-ilp` crate expands
/// these into register-level instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpEvent {
    /// `n` ALU instructions.
    Alu(u32),
    /// A load.
    Load,
    /// A store.
    Store,
    /// An atomic read-modify-write.
    Rmw,
    /// A branch (taken flag records misprediction in the static scheme).
    Branch {
        /// Whether the static predictor got it wrong.
        mispredict: bool,
    },
}

impl OpEvent {
    /// The trace record of `op`. A `wfi` is one ALU instruction.
    pub(crate) fn of(op: PendingOp) -> OpEvent {
        match op {
            PendingOp::Alu(n) => OpEvent::Alu(n),
            PendingOp::Branch { mispredict } => OpEvent::Branch { mispredict },
            PendingOp::Mem(req) => match req.op {
                SpOp::Read => OpEvent::Load,
                SpOp::Write(_) => OpEvent::Store,
                SpOp::TestAndSet | SpOp::SetBit(_) | SpOp::Update { .. } => OpEvent::Rmw,
            },
            PendingOp::Wfi => OpEvent::Alu(1),
        }
    }
}

/// Shared state between one firmware future and its core engine.
#[derive(Debug)]
pub struct CoreSlot {
    /// Queued operations with their profiling tags, oldest at `head`.
    ring: [Cell<(PendingOp, FwFunc)>; RING_DEPTH],
    head: Cell<u8>,
    len: Cell<u8>,
    /// Result of the last load or atomic the engine completed. Only the
    /// future of a value-returning op reads it, on the poll after its op
    /// was charged; ops complete in order, so that is its own result.
    pub(crate) response: Cell<Option<u32>>,
    /// Profiling tag given to the next queued operation.
    pub(crate) func: Cell<FwFunc>,
}

impl Default for CoreSlot {
    fn default() -> CoreSlot {
        CoreSlot {
            ring: std::array::from_fn(|_| Cell::new((PendingOp::Alu(0), FwFunc::Idle))),
            head: Cell::new(0),
            len: Cell::new(0),
            response: Cell::new(None),
            func: Cell::new(FwFunc::Idle),
        }
    }
}

impl CoreSlot {
    /// Queue `op` under the current tag; false if the ring is full.
    pub(crate) fn push(&self, op: PendingOp) -> bool {
        let len = self.len.get();
        if len as usize == RING_DEPTH {
            return false;
        }
        let i = (self.head.get() + len) as usize & (RING_DEPTH - 1);
        self.ring[i].set((op, self.func.get()));
        self.len.set(len + 1);
        true
    }

    /// Take the oldest queued operation and its tag.
    pub(crate) fn pop(&self) -> Option<(PendingOp, FwFunc)> {
        let len = self.len.get();
        if len == 0 {
            return None;
        }
        let head = self.head.get();
        self.head.set((head + 1) & (RING_DEPTH as u8 - 1));
        self.len.set(len - 1);
        Some(self.ring[head as usize].get())
    }

    /// Whether no operation is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len.get() == 0
    }

    /// Drop every queued operation and the pending response.
    pub(crate) fn clear(&self) {
        self.len.set(0);
        self.response.set(None);
    }
}

/// Reference-counted handle to a [`CoreSlot`]. The simulator is
/// single-threaded, and every field is a `Cell`, so sharing costs no
/// borrow checks.
pub type SharedSlot = Rc<CoreSlot>;

/// Create a fresh shared slot.
pub fn new_slot() -> SharedSlot {
    Rc::new(CoreSlot::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_keeps_each_tag() {
        let slot = new_slot();
        assert!(slot.push(PendingOp::Alu(3)));
        slot.func.set(FwFunc::RecvFrame);
        assert!(slot.push(PendingOp::Wfi));
        assert_eq!(slot.pop(), Some((PendingOp::Alu(3), FwFunc::Idle)));
        assert_eq!(slot.pop(), Some((PendingOp::Wfi, FwFunc::RecvFrame)));
        assert_eq!(slot.pop(), None);
        assert!(slot.is_empty());
    }

    #[test]
    fn full_ring_refuses_and_wraps() {
        let slot = new_slot();
        for round in 0..3u32 {
            for n in 0..RING_DEPTH as u32 {
                assert!(slot.push(PendingOp::Alu(round * 100 + n + 1)));
            }
            assert!(!slot.push(PendingOp::Wfi), "depth is {RING_DEPTH}");
            for n in 0..RING_DEPTH as u32 {
                let (op, _) = slot.pop().unwrap();
                assert_eq!(op, PendingOp::Alu(round * 100 + n + 1));
            }
            // Leave the head mid-ring so the next round wraps.
            assert!(slot.push(PendingOp::Wfi));
            assert_eq!(slot.pop().map(|e| e.0), Some(PendingOp::Wfi));
        }
    }

    #[test]
    fn clear_drops_ops_and_response() {
        let slot = new_slot();
        slot.push(PendingOp::Alu(1));
        slot.response.set(Some(7));
        slot.clear();
        assert!(slot.is_empty());
        assert_eq!(slot.response.get(), None);
        assert_eq!(slot.func.get(), FwFunc::Idle, "default tag is idle");
    }
}

//! The block frontier shared by gate fusion and superoperator folding.
//!
//! Both compile passes walk their operations once, in program order, and
//! fold adjacent ones into fewer, fatter sweeps with the same greedy,
//! wire-local algorithm. Only two things differ, and each pass supplies them
//! through [`BlockPass`]:
//!
//! * its **merge rule**: whether an open block may join the operation's
//!   running union (cheaper than sweeping the parts, and within budget);
//! * what a **closed block becomes**: a fused unitary block for
//!   [`crate::sim::fusion`], a sandwich or one composed superoperator sweep
//!   for the density compiler ([`crate::sim::kernels`]).
//!
//! ## Algorithm
//!
//! The frontier keeps **open blocks** with pairwise disjoint supports and
//! maps every wire to the block holding it. Slots are append-only (a freed
//! slot becomes `None`), so a slot index doubles as a deterministic creation
//! order. An offered operation:
//!
//! 1. collects the open blocks its wires touch, in creation order;
//! 2. starting from its own support, lets each touched block join when the
//!    merge rule accepts the grown union, and closes it otherwise. Partial
//!    merges matter: a dense pair gate can still absorb a single-qudit run
//!    on one of its wires even when a neighbouring pair block is too
//!    expensive to join. The closed blocks are emitted *before* the merged
//!    block: they hold earlier operations and commute with every other open
//!    block (disjoint supports), so their closing order is irrelevant;
//! 3. opens the merged block, whose members are the operation and every
//!    joined block's members, in program order.
//!
//! A barrier flushes **wire-locally**: it closes only the blocks touching
//! its wires (or every block, for a barrier on all wires). Blocks on
//! disjoint wires stay open and keep folding through it, which is exact
//! because operations with disjoint supports commute (see
//! [`crate::sim::fusion`]). [`Frontier::drain`] closes what is left at the
//! end, in creation order.

use crate::error::Result;

/// An open block: an ascending support, its subspace dimension, the members
/// it absorbed (ascending = program order), and the pass's running price of
/// those members.
#[derive(Debug)]
pub(crate) struct Block<C> {
    pub targets: Vec<usize>,
    pub dim: usize,
    pub members: Vec<usize>,
    pub cost: C,
}

/// What a compile pass supplies to the shared frontier.
pub(crate) trait BlockPass {
    /// The pass's price of a set of folded operations.
    type Cost: Copy;

    /// The merge rule: `acc` prices the union built so far, and `union`
    /// (ascending, of subspace dimension `dim`) is that union grown by
    /// `block`. Returns the grown union's price when `block` may join, or
    /// `None` when it must close instead.
    fn merge(
        &self,
        acc: Self::Cost,
        block: &Block<Self::Cost>,
        union: &[usize],
        dim: usize,
    ) -> Option<Self::Cost>;

    /// Emits a closed block.
    fn close(&mut self, block: Block<Self::Cost>) -> Result<()>;
}

/// The wire-local frontier of open blocks (see the module docs).
pub(crate) struct Frontier<'a, C> {
    dims: &'a [usize],
    /// Slot map of open blocks.
    open: Vec<Option<Block<C>>>,
    /// The slot holding each wire, if any.
    wire: Vec<Option<usize>>,
    /// Scratch reused by every offer: the touched slots and the tentative
    /// union.
    touched: Vec<usize>,
    tentative: Vec<usize>,
}

impl<'a, C: Copy> Frontier<'a, C> {
    /// An empty frontier over a register with per-wire dimensions `dims`.
    pub(crate) fn new(dims: &'a [usize]) -> Self {
        Self {
            dims,
            open: Vec::new(),
            wire: vec![None; dims.len()],
            touched: Vec::new(),
            tentative: Vec::new(),
        }
    }

    /// Number of open blocks.
    pub(crate) fn open_blocks(&self) -> usize {
        self.open.iter().flatten().count()
    }

    /// Offers operation `member` on `targets`, priced `cost` on its own:
    /// greedy merge against the open blocks it touches, closing those that
    /// do not join.
    pub(crate) fn offer<P: BlockPass<Cost = C>>(
        &mut self,
        member: usize,
        mut targets: Vec<usize>,
        mut cost: C,
        pass: &mut P,
    ) -> Result<()> {
        targets.sort_unstable();
        let mut touched = self.take_touched(&targets);
        let mut tentative = std::mem::take(&mut self.tentative);
        let mut union = targets;
        let mut dim = self.dim(&union);
        let mut members = vec![member];
        for &slot in &touched {
            let block = self.open[slot].as_ref().expect("live slot");
            tentative.clear();
            tentative.extend_from_slice(&union);
            tentative.extend_from_slice(&block.targets);
            tentative.sort_unstable();
            tentative.dedup();
            let grown = self.dim(&tentative);
            match pass.merge(cost, block, &tentative, grown) {
                Some(merged) => {
                    std::mem::swap(&mut union, &mut tentative);
                    dim = grown;
                    cost = merged;
                    members.extend(self.take_slot(slot).members);
                }
                None => self.close_slot(slot, pass)?,
            }
        }
        members.sort_unstable();
        let slot = self.open.len();
        for &t in &union {
            self.wire[t] = Some(slot);
        }
        self.open.push(Some(Block { targets: union, dim, members, cost }));
        touched.clear();
        (self.touched, self.tentative) = (touched, tentative);
        Ok(())
    }

    /// Closes the open blocks touching `wires` (every open block for
    /// `None`); the survivors commute with whatever the caller emits next.
    pub(crate) fn flush<P: BlockPass<Cost = C>>(
        &mut self,
        wires: Option<&[usize]>,
        pass: &mut P,
    ) -> Result<()> {
        let Some(wires) = wires else { return self.drain(pass) };
        let mut touched = self.take_touched(wires);
        for &slot in &touched {
            self.close_slot(slot, pass)?;
        }
        touched.clear();
        self.touched = touched;
        debug_assert!(
            self.open.iter().flatten().all(|b| b.targets.iter().all(|t| !wires.contains(t))),
            "a block overlapping a barrier survived the flush"
        );
        Ok(())
    }

    /// Closes every open block, in creation order.
    pub(crate) fn drain<P: BlockPass<Cost = C>>(&mut self, pass: &mut P) -> Result<()> {
        for slot in 0..self.open.len() {
            if self.open[slot].is_some() {
                self.close_slot(slot, pass)?;
            }
        }
        Ok(())
    }

    fn dim(&self, targets: &[usize]) -> usize {
        targets.iter().map(|&t| self.dims[t]).product()
    }

    /// The slots the wires in `targets` touch, ascending and deduplicated,
    /// in the (taken) touched-slot scratch.
    fn take_touched(&mut self, targets: &[usize]) -> Vec<usize> {
        let mut touched = std::mem::take(&mut self.touched);
        touched.extend(targets.iter().filter_map(|&t| self.wire[t]));
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Removes the block in `slot` from the frontier.
    fn take_slot(&mut self, slot: usize) -> Block<C> {
        let block = self.open[slot].take().expect("live slot");
        for &t in &block.targets {
            self.wire[t] = None;
        }
        block
    }

    fn close_slot<P: BlockPass<Cost = C>>(&mut self, slot: usize, pass: &mut P) -> Result<()> {
        let block = self.take_slot(slot);
        pass.close(block)
    }
}

//! The profiler handle the machine's observers hold: a span stack over a
//! [`CostTree`].
//!
//! Same discipline as tracing: when disabled, every `push`/`pop`/`leaf`
//! site is exactly one `Option` branch — no allocation, no hashing, no
//! side table. When enabled, the current node index sits on a small stack
//! and each charge walks one `BTreeMap` level.

use crate::tree::{CostTree, Seg, ROOT};

#[derive(Debug)]
struct State {
    tree: CostTree,
    /// Indices into the tree; `stack[0]` is always the root.
    stack: Vec<usize>,
}

/// A cycle-cost profiler. Disabled by default ([`Profiler::off`]); all
/// recording methods are no-ops costing one branch until
/// [`Profiler::enabled`] replaces it.
#[derive(Debug, Default)]
pub struct Profiler {
    state: Option<Box<State>>,
}

impl Profiler {
    /// A disabled profiler (the default): records nothing, allocates
    /// nothing.
    pub fn off() -> Self {
        Profiler { state: None }
    }

    /// An enabled profiler with an empty tree.
    pub fn enabled() -> Self {
        Profiler {
            state: Some(Box::new(State {
                tree: CostTree::new(),
                stack: vec![ROOT],
            })),
        }
    }

    /// Is the profiler recording?
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Open a span: subsequent charges attribute under `seg` until the
    /// matching [`Profiler::pop`].
    #[inline]
    pub fn push(&mut self, seg: Seg) {
        if let Some(st) = &mut self.state {
            let cur = *st.stack.last().expect("stack holds at least the root");
            let child = st.tree.child(cur, seg);
            st.tree.add(child, 1, 0);
            st.stack.push(child);
        }
    }

    /// Close the innermost span. Popping with no span open is a bug at the
    /// instrumentation site; it is a debug assertion and otherwise ignored.
    #[inline]
    pub fn pop(&mut self) {
        if let Some(st) = &mut self.state {
            debug_assert!(st.stack.len() > 1, "pop with no span open");
            if st.stack.len() > 1 {
                st.stack.pop();
            }
        }
    }

    /// Charge `cycles` to the machine operation `op` under the current
    /// span path. This is the only place cycles enter the tree, and it is
    /// called exactly where the machine bumps its cycle counter — which is
    /// what makes the tree total equal the cycle account.
    #[inline]
    pub fn leaf(&mut self, op: &'static str, cycles: u64) {
        if let Some(st) = &mut self.state {
            let cur = *st.stack.last().expect("stack holds at least the root");
            let child = st.tree.child(cur, Seg::Machine(op));
            st.tree.add(child, 1, cycles);
        }
    }

    /// Charge a batch of `count` identical operations in one call, exactly
    /// as if [`Profiler::leaf`] had been called `count` times for
    /// `cycles / count` each. The bulk-run engine uses this to keep the
    /// tree identical to the word loop's while charging per *run* instead
    /// of per word. A zero batch records nothing — in particular it must
    /// not materialize an empty tree node, which the word loop would never
    /// have created.
    #[inline]
    pub fn leaf_n(&mut self, op: &'static str, count: u64, cycles: u64) {
        if count == 0 {
            return;
        }
        if let Some(st) = &mut self.state {
            let cur = *st.stack.last().expect("stack holds at least the root");
            let child = st.tree.child(cur, Seg::Machine(op));
            st.tree.add(child, count, cycles);
        }
    }

    /// Record a zero-cost machine event (e.g. a DMA page transfer, which
    /// the cycle model charges nothing for) so its count still appears.
    #[inline]
    pub fn event(&mut self, op: &'static str) {
        self.leaf(op, 0);
    }

    /// Take the accumulated tree, leaving the profiler disabled.
    pub fn take_tree(&mut self) -> Option<CostTree> {
        self.state.take().map(|st| st.tree)
    }

    /// Discard accumulated costs (the warm-up reset, mirroring the cycle
    /// account's reset), keeping the profiler enabled. Warm-up resets run
    /// at top level, so no span may be open.
    pub fn reset_tree(&mut self) {
        if let Some(st) = &mut self.state {
            debug_assert!(st.stack.len() == 1, "reset_tree with a span open");
            st.tree = CostTree::new();
            st.stack = vec![ROOT];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut p = Profiler::off();
        assert!(!p.is_enabled());
        p.push(Seg::Os("fs.read"));
        p.leaf("load.hit", 5);
        p.pop();
        assert!(p.take_tree().is_none());
    }

    #[test]
    fn spans_nest_and_attribute() {
        let mut p = Profiler::enabled();
        p.leaf("load.hit", 1); // root context (user)
        p.push(Seg::Os("fault.mapping"));
        p.leaf("software", 350);
        p.push(Seg::Mgr("map"));
        p.leaf("purge_page.d", 7);
        p.pop();
        p.leaf("mapping_update", 25);
        p.pop();
        p.leaf("load.hit", 1);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 384);
        let rows = t.flatten();
        let find = |path: &str| rows.iter().find(|r| r.path == path).unwrap();
        assert_eq!(find("machine:load.hit").count, 2);
        assert_eq!(find("machine:load.hit").cycles, 2);
        assert_eq!(find("os:fault.mapping").count, 1);
        assert_eq!(
            find("os:fault.mapping").cycles,
            0,
            "spans hold no self cycles"
        );
        assert_eq!(
            find("os:fault.mapping/mgr:map/machine:purge_page.d").cycles,
            7
        );
        assert_eq!(find("os:fault.mapping/machine:mapping_update").cycles, 25);
    }

    #[test]
    fn reset_tree_discards_costs() {
        let mut p = Profiler::enabled();
        p.push(Seg::Os("warmup"));
        p.leaf("software", 99);
        p.pop();
        p.reset_tree();
        assert!(p.is_enabled());
        p.leaf("load.hit", 1);
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 1);
        assert_eq!(t.flatten().len(), 1);
    }

    #[test]
    fn leaf_n_is_n_leaves() {
        let mut a = Profiler::enabled();
        let mut b = Profiler::enabled();
        a.push(Seg::Os("fs.read"));
        b.push(Seg::Os("fs.read"));
        a.leaf_n("load.hit", 63, 63);
        for _ in 0..63 {
            b.leaf("load.hit", 1);
        }
        a.pop();
        b.pop();
        assert_eq!(
            a.take_tree().unwrap().flatten(),
            b.take_tree().unwrap().flatten()
        );
    }

    #[test]
    fn leaf_n_of_zero_creates_no_node() {
        let mut p = Profiler::enabled();
        p.leaf_n("load.hit", 0, 0);
        let t = p.take_tree().unwrap();
        assert!(
            t.flatten().is_empty(),
            "an empty batch must not materialize a tree node"
        );
    }

    #[test]
    fn event_counts_without_cycles() {
        let mut p = Profiler::enabled();
        p.event("dma.write");
        p.event("dma.write");
        let t = p.take_tree().unwrap();
        assert_eq!(t.total_cycles(), 0);
        let rows = t.flatten();
        assert_eq!(rows[0].path, "machine:dma.write");
        assert_eq!(rows[0].count, 2);
    }
}

//! The mergeable cost tree: every simulated cycle attributed to a
//! hierarchical key.
//!
//! A tree node is addressed by a path of [`Seg`]ments — OS service spans,
//! page-class spans, manager-decision spans, and finally the machine
//! operation that actually spent the cycles. Cycles are recorded only at
//! the node they were charged to (`self` cycles), so the sum over all
//! nodes equals the machine's cycle counter exactly: nothing is counted
//! twice and nothing is lost. Subtree totals are derived on demand.
//!
//! Children are kept in a `BTreeMap`, so iteration order — and therefore
//! every flattened export — is deterministic regardless of the order in
//! which paths first appeared. Merging two trees (per-thread trees from a
//! parallel sweep, or repeated runs of one spec) folds node-by-node and is
//! associative and commutative, which is what makes the fold independent
//! of worker interleaving.

use std::collections::BTreeMap;
use std::fmt;

/// One segment of a cost-attribution path.
///
/// The payloads are `&'static str` by design: every span site names a
/// fixed operation, so recording a span never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Seg {
    /// An OS service or kernel path (`fault.mapping`, `prepare.copy`, ...).
    Os(&'static str),
    /// The class of page being operated on (`anon`, `text`, `filemap`, ...).
    Page(&'static str),
    /// A consistency-manager decision point, named by the dispatched
    /// operation (`map`, `write`, `dma_read`, ...).
    Mgr(&'static str),
    /// The machine operation that actually spent the cycles — always a
    /// leaf (`load.hit`, `flush_page.d`, `software`, ...).
    Machine(&'static str),
}

impl Seg {
    /// The layer prefix used in path strings.
    pub fn layer(&self) -> &'static str {
        match self {
            Seg::Os(_) => "os",
            Seg::Page(_) => "page",
            Seg::Mgr(_) => "mgr",
            Seg::Machine(_) => "machine",
        }
    }

    /// The operation name within the layer.
    pub fn name(&self) -> &'static str {
        match self {
            Seg::Os(s) | Seg::Page(s) | Seg::Mgr(s) | Seg::Machine(s) => s,
        }
    }
}

impl fmt::Display for Seg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.layer(), self.name())
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Node {
    count: u64,
    cycles: u64,
    children: BTreeMap<Seg, usize>,
}

/// One row of a flattened tree: the full path, the number of times the
/// node was entered (spans) or recorded (leaves), and the cycles charged
/// directly at the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRow {
    /// `/`-joined path of `layer:name` segments.
    pub path: String,
    /// Entries (spans) or recordings (leaves) at this node.
    pub count: u64,
    /// Cycles charged directly at this node (not including children).
    pub cycles: u64,
}

/// A hierarchical cycle-cost accumulator. Node 0 is the root (the empty
/// path — cycles spent with no span open, i.e. user/workload context).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostTree {
    nodes: Vec<Node>,
}

/// The root node's index.
pub const ROOT: usize = 0;

impl CostTree {
    /// An empty tree (just the root).
    pub fn new() -> Self {
        CostTree {
            nodes: vec![Node::default()],
        }
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.nodes[0].count == 0 && self.nodes[0].cycles == 0
    }

    /// The child of `parent` for `seg`, created if absent.
    pub fn child(&mut self, parent: usize, seg: Seg) -> usize {
        if let Some(&i) = self.nodes[parent].children.get(&seg) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(Node::default());
        self.nodes[parent].children.insert(seg, i);
        i
    }

    /// Record `count` entries and `cycles` self-cycles at a node.
    pub fn add(&mut self, node: usize, count: u64, cycles: u64) {
        self.nodes[node].count += count;
        self.nodes[node].cycles += cycles;
    }

    /// Entries recorded at `node`.
    pub fn count(&self, node: usize) -> u64 {
        self.nodes[node].count
    }

    /// Sum of the self-cycles of every node — by construction, exactly the
    /// machine cycles elapsed while the profiler was enabled.
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).sum()
    }

    /// Fold another tree into this one, node by node. Associative and
    /// commutative: folding per-thread trees in any order yields the same
    /// tree.
    pub fn merge(&mut self, other: &CostTree) {
        self.merge_node(ROOT, other, ROOT);
    }

    fn merge_node(&mut self, dst: usize, other: &CostTree, src: usize) {
        self.nodes[dst].count += other.nodes[src].count;
        self.nodes[dst].cycles += other.nodes[src].cycles;
        let children: Vec<(Seg, usize)> = other.nodes[src]
            .children
            .iter()
            .map(|(s, i)| (*s, *i))
            .collect();
        for (seg, si) in children {
            let di = self.child(dst, seg);
            self.merge_node(di, other, si);
        }
    }

    /// Visit every non-root node in deterministic (depth-first, segment-
    /// sorted) order. The callback receives the full path, the entry
    /// count, and the node's self-cycles.
    pub fn visit<F: FnMut(&[Seg], u64, u64)>(&self, mut f: F) {
        let mut path = Vec::new();
        self.visit_node(ROOT, &mut path, &mut f);
    }

    fn visit_node<F: FnMut(&[Seg], u64, u64)>(&self, node: usize, path: &mut Vec<Seg>, f: &mut F) {
        if node != ROOT {
            f(path, self.nodes[node].count, self.nodes[node].cycles);
        }
        for (&seg, &child) in &self.nodes[node].children {
            path.push(seg);
            self.visit_node(child, path, f);
            path.pop();
        }
    }

    /// Flatten to rows, one per non-root node, in deterministic order.
    pub fn flatten(&self) -> Vec<FlatRow> {
        let mut rows = Vec::with_capacity(self.nodes.len().saturating_sub(1));
        self.visit(|path, count, cycles| {
            rows.push(FlatRow {
                path: path_string(path),
                count,
                cycles,
            });
        });
        rows
    }

    /// Total cycles in the subtree selected by `pred` (a node is selected
    /// when any segment of its path satisfies the predicate; each node's
    /// self-cycles are counted once).
    pub fn cycles_where<P: Fn(&[Seg]) -> bool>(&self, pred: P) -> u64 {
        let mut total = 0;
        self.visit(|path, _count, cycles| {
            if pred(path) {
                total += cycles;
            }
        });
        total
    }
}

/// Join a path of segments into the canonical string form.
pub fn path_string(path: &[Seg]) -> String {
    let mut s = String::new();
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            s.push('/');
        }
        s.push_str(seg.layer());
        s.push(':');
        s.push_str(seg.name());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(paths: &[(&[Seg], u64)]) -> CostTree {
        let mut t = CostTree::new();
        for (path, cycles) in paths {
            let mut node = ROOT;
            for seg in *path {
                node = t.child(node, *seg);
            }
            t.add(node, 1, *cycles);
        }
        t
    }

    #[test]
    fn seg_display_and_order() {
        assert_eq!(Seg::Os("fault.mapping").to_string(), "os:fault.mapping");
        assert_eq!(Seg::Machine("load.hit").to_string(), "machine:load.hit");
        // Variant order is part of the deterministic sort.
        assert!(Seg::Os("z") < Seg::Page("a"));
        assert!(Seg::Page("z") < Seg::Mgr("a"));
        assert!(Seg::Mgr("z") < Seg::Machine("a"));
    }

    #[test]
    fn totals_are_conserved() {
        let t = build(&[
            (&[Seg::Machine("load.hit")], 10),
            (&[Seg::Os("fault.mapping"), Seg::Machine("software")], 350),
            (
                &[
                    Seg::Os("fault.mapping"),
                    Seg::Mgr("map"),
                    Seg::Machine("purge_page.d"),
                ],
                7,
            ),
        ]);
        assert_eq!(t.total_cycles(), 367);
        assert_eq!(
            t.cycles_where(|p| p.iter().any(|s| matches!(s, Seg::Mgr(_)))),
            7
        );
        assert_eq!(
            t.cycles_where(|p| matches!(p.first(), Some(Seg::Os("fault.mapping")))),
            357
        );
    }

    #[test]
    fn flatten_is_deterministic() {
        let a = build(&[
            (&[Seg::Os("b"), Seg::Machine("x")], 1),
            (&[Seg::Os("a"), Seg::Machine("y")], 2),
        ]);
        // Same content, different insertion order.
        let b = build(&[
            (&[Seg::Os("a"), Seg::Machine("y")], 2),
            (&[Seg::Os("b"), Seg::Machine("x")], 1),
        ]);
        assert_eq!(a.flatten(), b.flatten());
        let rows = a.flatten();
        assert_eq!(rows[0].path, "os:a");
        assert_eq!(rows[1].path, "os:a/machine:y");
        assert_eq!(rows[1].cycles, 2);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = build(&[(&[Seg::Machine("load.hit")], 5)]);
        let b = build(&[
            (&[Seg::Machine("load.hit")], 3),
            (&[Seg::Os("fs.read"), Seg::Machine("store.hit")], 9),
        ]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.flatten(), ba.flatten());
        assert_eq!(ab.total_cycles(), 17);
        let hit = ab
            .flatten()
            .into_iter()
            .find(|r| r.path == "machine:load.hit")
            .unwrap();
        assert_eq!(hit.cycles, 8, "leaf cycles fold");
        assert_eq!(hit.count, 2, "leaf counts fold");
    }

    #[test]
    fn empty_tree() {
        let t = CostTree::new();
        assert!(t.is_empty());
        assert_eq!(t.total_cycles(), 0);
        assert!(t.flatten().is_empty());
        let mut m = CostTree::new();
        m.merge(&t);
        assert!(m.is_empty());
    }

    #[test]
    fn path_string_forms() {
        assert_eq!(path_string(&[]), "");
        assert_eq!(
            path_string(&[
                Seg::Os("fs.read"),
                Seg::Mgr("map"),
                Seg::Machine("flush_page.d")
            ]),
            "os:fs.read/mgr:map/machine:flush_page.d"
        );
    }
}

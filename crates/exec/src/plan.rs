//! Physical plan trees.

use std::fmt;

use sjos_pattern::{Axis, NodeSet, Pattern, PnId};

/// Which stack-tree variant a join uses; fixes the output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// Stack-Tree-Anc: output ordered by the ancestor-side join node.
    StackTreeAnc,
    /// Stack-Tree-Desc: output ordered by the descendant-side join
    /// node; fully streaming.
    StackTreeDesc,
    /// MPMGJN (Zhang et al., SIGMOD 2001): merge join with descendant
    /// rescans; output ordered by the ancestor-side join node.
    MergeJoin,
}

impl JoinAlgo {
    /// True when the variant emits output ordered by the ancestor-side
    /// join node (Stack-Tree-Anc, MPMGJN); false for the
    /// descendant-ordered Stack-Tree-Desc.
    pub fn orders_by_ancestor(self) -> bool {
        matches!(self, JoinAlgo::StackTreeAnc | JoinAlgo::MergeJoin)
    }
}

/// The physical-property contract one operator declares at its
/// boundaries: the pattern node its output stream is ordered by, the
/// ordering each input stream must arrive in, and whether the operator
/// blocks (must consume its whole input before emitting anything).
///
/// Contracts are *declarations* — what the operator promises assuming
/// its inputs honor theirs. The `planck` dataflow pass propagates
/// proven orderings bottom-up and compares them against these
/// declarations; a mismatch means the declaration is unfounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorContract {
    /// Pattern node the operator's output is ordered by.
    pub output_order: PnId,
    /// Required input orderings, one per input in left-to-right order
    /// (empty for leaves; a sort accepts any input order).
    pub input_orders: Vec<PnId>,
    /// True when the operator is blocking (breaks the pipeline).
    pub blocking: bool,
}

/// A physical evaluation plan (the paper's rooted labelled tree of
/// access methods, §2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// Scan one pattern node's binding list from the tag index; output
    /// is in document order (= ordered by that node).
    IndexScan {
        /// Pattern node bound by this scan.
        pnode: PnId,
    },
    /// Structural join of two sub-plans along one pattern edge.
    StructuralJoin {
        /// Input binding the ancestor-side join node; must be ordered
        /// by `anc`.
        left: Box<PlanNode>,
        /// Input binding the descendant-side join node; must be
        /// ordered by `desc`.
        right: Box<PlanNode>,
        /// Ancestor-side pattern node of the edge being evaluated.
        anc: PnId,
        /// Descendant-side pattern node of the edge.
        desc: PnId,
        /// `/` or `//`.
        axis: Axis,
        /// Algorithm choice (fixes output order).
        algo: JoinAlgo,
    },
    /// Blocking sort of a sub-plan's output by one of its columns.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Column (pattern node) to order by.
        by: PnId,
    },
}

impl PlanNode {
    /// Pattern nodes bound by this plan's output.
    pub fn bound_nodes(&self) -> Vec<PnId> {
        match self {
            PlanNode::IndexScan { pnode } => vec![*pnode],
            PlanNode::StructuralJoin { left, right, .. } => {
                let mut v = left.bound_nodes();
                v.extend(right.bound_nodes());
                v
            }
            PlanNode::Sort { input, .. } => input.bound_nodes(),
        }
    }

    /// Column liveness, computed once per plan in the style of
    /// register liveness: for every operator in pre-order (root first,
    /// left input before right), the pattern nodes whose columns its
    /// output keeps *wide* — with regions — because some operator
    /// above it still reads them. The only reader of a region is a
    /// structural join, which tests containment on its two join
    /// columns; a sort on a narrow column keys by node id, which
    /// orders the same way. So a join's output drops the region of a
    /// join column no later join reads, and the root's output is
    /// narrow throughout.
    ///
    /// The executor lays its columns out by this, and planck's
    /// certificates count the same bytes, so the two cannot drift.
    pub fn region_liveness(&self) -> Vec<NodeSet> {
        self.liveness_under(NodeSet::empty())
    }

    /// [`Self::region_liveness`] when the regions in `read_above` are
    /// also read above the root (every node: each column stays wide).
    pub(crate) fn liveness_under(&self, read_above: NodeSet) -> Vec<NodeSet> {
        /// Fill `out` from `plan` down, where `live` holds the regions
        /// read above `plan`; returns the nodes `plan` binds.
        fn walk(plan: &PlanNode, live: NodeSet, out: &mut Vec<NodeSet>) -> NodeSet {
            let slot = out.len();
            out.push(NodeSet::empty());
            let bound = match plan {
                PlanNode::IndexScan { pnode } => NodeSet::singleton(*pnode),
                PlanNode::Sort { input, .. } => walk(input, live, out),
                PlanNode::StructuralJoin { left, right, anc, desc, .. } => {
                    let read =
                        live.union(NodeSet::singleton(*anc)).union(NodeSet::singleton(*desc));
                    walk(left, read, out).union(walk(right, read, out))
                }
            };
            out[slot] = live.intersect(bound);
            bound
        }
        let mut out = Vec::new();
        walk(self, read_above, &mut out);
        out
    }

    /// The pattern node the output is ordered by.
    pub fn ordered_by(&self) -> PnId {
        match self {
            PlanNode::IndexScan { pnode } => *pnode,
            PlanNode::StructuralJoin { anc, desc, algo, .. } => {
                if algo.orders_by_ancestor() {
                    *anc
                } else {
                    *desc
                }
            }
            PlanNode::Sort { by, .. } => *by,
        }
    }

    /// The order/blocking contract this operator declares, independent
    /// of whether its subtree can actually honor it. `output_order`
    /// always equals [`PlanNode::ordered_by`]; `input_orders` states
    /// what the stack-tree algorithms require of each input (§2.2's
    /// ordering constraint); `blocking` is true exactly for sorts.
    pub fn contract(&self) -> OperatorContract {
        match self {
            PlanNode::IndexScan { pnode } => {
                OperatorContract { output_order: *pnode, input_orders: Vec::new(), blocking: false }
            }
            PlanNode::StructuralJoin { anc, desc, .. } => OperatorContract {
                output_order: self.ordered_by(),
                input_orders: vec![*anc, *desc],
                blocking: false,
            },
            // A sort consumes its input in any order, so it imposes no
            // input requirement — at the price of blocking.
            PlanNode::Sort { by, .. } => {
                OperatorContract { output_order: *by, input_orders: Vec::new(), blocking: true }
            }
        }
    }

    /// True when this node (not its subtree) is a blocking operator.
    pub fn is_blocking_op(&self) -> bool {
        matches!(self, PlanNode::Sort { .. })
    }

    /// Number of explicit sort operators in the plan. Zero ⇔ the plan
    /// is fully pipelined (non-blocking), the property the FP
    /// algorithm guarantees.
    pub fn sort_count(&self) -> usize {
        match self {
            PlanNode::IndexScan { .. } => 0,
            PlanNode::StructuralJoin { left, right, .. } => left.sort_count() + right.sort_count(),
            PlanNode::Sort { input, .. } => 1 + input.sort_count(),
        }
    }

    /// True when the plan contains no blocking operator.
    pub fn is_fully_pipelined(&self) -> bool {
        self.sort_count() == 0
    }

    /// True when every join's right input is a leaf (index scan or
    /// sorted index scan) — the relational notion of a left-deep plan.
    pub fn is_left_deep(&self) -> bool {
        fn is_leaf(p: &PlanNode) -> bool {
            match p {
                PlanNode::IndexScan { .. } => true,
                PlanNode::Sort { input, .. } => is_leaf(input),
                PlanNode::StructuralJoin { .. } => false,
            }
        }
        match self {
            PlanNode::IndexScan { .. } => true,
            PlanNode::Sort { input, .. } => input.is_left_deep(),
            PlanNode::StructuralJoin { left, right, .. } => {
                // Either side may act as the pipeline "spine"; the
                // other must be a base input.
                (left.is_left_deep() && is_leaf(right)) || (right.is_left_deep() && is_leaf(left))
            }
        }
    }

    /// Number of structural joins.
    pub fn join_count(&self) -> usize {
        match self {
            PlanNode::IndexScan { .. } => 0,
            PlanNode::StructuralJoin { left, right, .. } => {
                1 + left.join_count() + right.join_count()
            }
            PlanNode::Sort { input, .. } => input.join_count(),
        }
    }

    /// Validate the plan against `pattern`: every pattern node bound
    /// exactly once, every join evaluates a real pattern edge with the
    /// correct orientation, and every join input is ordered by its
    /// join node. Returns a description of the first violation.
    pub fn validate(&self, pattern: &Pattern) -> Result<(), String> {
        let mut bound = self.bound_nodes();
        bound.sort_unstable();
        let expected: Vec<PnId> = pattern.node_ids().collect();
        if bound != expected {
            return Err(format!("plan binds {bound:?}, pattern has {expected:?}"));
        }
        if let Some(w) = pattern.order_by() {
            if self.ordered_by() != w {
                return Err(format!(
                    "pattern requires results ordered by {w:?}, plan delivers {:?}",
                    self.ordered_by()
                ));
            }
        }
        self.validate_inner(pattern)
    }

    fn validate_inner(&self, pattern: &Pattern) -> Result<(), String> {
        match self {
            PlanNode::IndexScan { pnode } => {
                if pnode.index() >= pattern.len() {
                    return Err(format!("scan of unknown pattern node {pnode:?}"));
                }
                Ok(())
            }
            PlanNode::Sort { input, by } => {
                if !input.bound_nodes().contains(by) {
                    return Err(format!("sort by unbound column {by:?}"));
                }
                input.validate_inner(pattern)
            }
            PlanNode::StructuralJoin { left, right, anc, desc, axis, .. } => {
                left.validate_inner(pattern)?;
                right.validate_inner(pattern)?;
                let edge = pattern
                    .edge_between(*anc, *desc)
                    .ok_or_else(|| format!("no pattern edge between {anc:?} and {desc:?}"))?;
                if edge.parent != *anc || edge.child != *desc {
                    return Err(format!("join orientation reversed for edge {anc:?}-{desc:?}"));
                }
                if edge.axis != *axis {
                    return Err(format!("axis mismatch on edge {anc:?}-{desc:?}"));
                }
                if !left.bound_nodes().contains(anc) {
                    return Err(format!("left input does not bind {anc:?}"));
                }
                if !right.bound_nodes().contains(desc) {
                    return Err(format!("right input does not bind {desc:?}"));
                }
                if left.ordered_by() != *anc {
                    return Err(format!(
                        "left input ordered by {:?}, join needs {anc:?}",
                        left.ordered_by()
                    ));
                }
                if right.ordered_by() != *desc {
                    return Err(format!(
                        "right input ordered by {:?}, join needs {desc:?}",
                        right.ordered_by()
                    ));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for PlanNode {
    /// One-line plan rendering, e.g.
    /// `STJ-D(0//1)[Scan(0), Sort#2(STJ-A(1/2)[Scan(1), Scan(2)])]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanNode::IndexScan { pnode } => write!(f, "Scan({})", pnode.0),
            PlanNode::Sort { input, by } => write!(f, "Sort#{}({input})", by.0),
            PlanNode::StructuralJoin { left, right, anc, desc, axis, algo } => {
                let a = match algo {
                    JoinAlgo::StackTreeAnc => "STJ-A",
                    JoinAlgo::StackTreeDesc => "STJ-D",
                    JoinAlgo::MergeJoin => "MPMGJN",
                };
                let ax = match axis {
                    Axis::Child => "/",
                    Axis::Descendant => "//",
                };
                write!(f, "{a}({}{ax}{})[{left}, {right}]", anc.0, desc.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjos_pattern::parse_pattern;

    fn scan(i: u16) -> PlanNode {
        PlanNode::IndexScan { pnode: PnId(i) }
    }

    fn join(
        left: PlanNode,
        right: PlanNode,
        anc: u16,
        desc: u16,
        axis: Axis,
        algo: JoinAlgo,
    ) -> PlanNode {
        PlanNode::StructuralJoin {
            left: Box::new(left),
            right: Box::new(right),
            anc: PnId(anc),
            desc: PnId(desc),
            axis,
            algo,
        }
    }

    #[test]
    fn properties_of_a_pipelined_plan() {
        // //a/b//c : ((a ⋈ b) ⋈ c) keeping descendant order.
        let p = join(
            join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeDesc),
            scan(2),
            1,
            2,
            Axis::Descendant,
            JoinAlgo::StackTreeDesc,
        );
        assert!(p.is_fully_pipelined());
        assert!(p.is_left_deep());
        assert_eq!(p.join_count(), 2);
        assert_eq!(p.ordered_by(), PnId(2));
        let pat = parse_pattern("//a/b//c").unwrap();
        p.validate(&pat).unwrap();
    }

    #[test]
    fn sort_makes_plan_blocking() {
        let inner = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeAnc);
        let sorted = PlanNode::Sort { input: Box::new(inner), by: PnId(1) };
        assert_eq!(sorted.sort_count(), 1);
        assert!(!sorted.is_fully_pipelined());
        assert_eq!(sorted.ordered_by(), PnId(1));
    }

    #[test]
    fn validate_catches_missing_node() {
        let pat = parse_pattern("//a/b//c").unwrap();
        let p = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeDesc);
        assert!(p.validate(&pat).unwrap_err().contains("binds"));
    }

    #[test]
    fn validate_catches_wrong_order() {
        let pat = parse_pattern("//a/b//c").unwrap();
        // Left input ordered by b (desc output), but joining edge b//c
        // needs order by... actually join (1,2) with left ordered by 0.
        let left = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeAnc);
        let p = join(left, scan(2), 1, 2, Axis::Descendant, JoinAlgo::StackTreeDesc);
        let err = p.validate(&pat).unwrap_err();
        assert!(err.contains("ordered by"), "{err}");
    }

    #[test]
    fn validate_catches_reversed_orientation() {
        let pat = parse_pattern("//a/b").unwrap();
        let p = join(scan(1), scan(0), 1, 0, Axis::Child, JoinAlgo::StackTreeDesc);
        let err = p.validate(&pat).unwrap_err();
        assert!(err.contains("reversed") || err.contains("no pattern edge"), "{err}");
    }

    #[test]
    fn validate_catches_axis_mismatch() {
        let pat = parse_pattern("//a/b").unwrap();
        let p = join(scan(0), scan(1), 0, 1, Axis::Descendant, JoinAlgo::StackTreeDesc);
        assert!(p.validate(&pat).unwrap_err().contains("axis"));
    }

    #[test]
    fn bushy_plan_is_not_left_deep() {
        let pat = parse_pattern("//a[./b/c]/d").unwrap();
        // (a ⋈ d) ⋈ (b ⋈ c): bushy.
        let left = join(scan(0), scan(3), 0, 3, Axis::Child, JoinAlgo::StackTreeAnc);
        let right = join(scan(1), scan(2), 1, 2, Axis::Child, JoinAlgo::StackTreeAnc);
        let p = join(left, right, 0, 1, Axis::Child, JoinAlgo::StackTreeDesc);
        p.validate(&pat).unwrap();
        assert!(!p.is_left_deep());
        assert!(p.is_fully_pipelined());
    }

    #[test]
    fn contracts_declare_order_and_blocking() {
        let j = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeAnc);
        let c = j.contract();
        assert_eq!(c.output_order, PnId(0));
        assert_eq!(c.input_orders, vec![PnId(0), PnId(1)]);
        assert!(!c.blocking);
        assert!(!j.is_blocking_op());

        let d = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeDesc).contract();
        assert_eq!(d.output_order, PnId(1));

        let s = PlanNode::Sort { input: Box::new(j), by: PnId(1) };
        let sc = s.contract();
        assert_eq!(sc.output_order, PnId(1));
        assert!(sc.input_orders.is_empty(), "a sort accepts any input order");
        assert!(sc.blocking);
        assert!(s.is_blocking_op());

        let leaf = scan(2).contract();
        assert_eq!(leaf.output_order, PnId(2));
        assert!(leaf.input_orders.is_empty());
        assert!(!leaf.blocking);
    }

    #[test]
    fn contract_output_order_matches_ordered_by() {
        for algo in [JoinAlgo::StackTreeAnc, JoinAlgo::StackTreeDesc, JoinAlgo::MergeJoin] {
            let j = join(scan(0), scan(1), 0, 1, Axis::Child, algo);
            assert_eq!(j.contract().output_order, j.ordered_by());
            assert_eq!(algo.orders_by_ancestor(), j.ordered_by() == PnId(0));
        }
    }

    #[test]
    fn liveness_drops_a_region_after_its_last_join() {
        // //a/b//c as ((a ⋈ b) ⋈ c): the inner join's output keeps b
        // (the outer join reads it) but drops a; the root is narrow.
        let set = |ids: &[u16]| {
            ids.iter().fold(NodeSet::empty(), |s, &i| s.union(NodeSet::singleton(PnId(i))))
        };
        let inner = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeAnc);
        let sorted = PlanNode::Sort { input: Box::new(inner), by: PnId(1) };
        let p = join(sorted, scan(2), 1, 2, Axis::Descendant, JoinAlgo::StackTreeDesc);
        // Pre-order: root, sort, inner join, scan a, scan b, scan c.
        assert_eq!(
            p.region_liveness(),
            vec![set(&[]), set(&[1]), set(&[1]), set(&[0]), set(&[1]), set(&[2])]
        );
        assert_eq!(scan(3).region_liveness(), vec![set(&[])], "a lone scan is the root");
    }

    #[test]
    fn display_is_compact() {
        let p = join(scan(0), scan(1), 0, 1, Axis::Child, JoinAlgo::StackTreeDesc);
        assert_eq!(p.to_string(), "STJ-D(0/1)[Scan(0), Scan(1)]");
    }
}

//! Spatial instructions and query graphs.
//!
//! A Q100 query is a directed acyclic graph of coarse-grained *spatial
//! instructions* (`sinst`s), each implementing one relational operator
//! (Section 2 of the paper). Edges are producer→consumer data
//! dependencies carrying streams of columns or tables.

use std::fmt;

use q100_columnar::Value;

use crate::config::TileMix;
use crate::error::{CoreError, Result};
use crate::isa::ops::{AggOp, AluOp, CmpOp, Operand};
use crate::tiles::TileKind;

/// Identifier of a spatial instruction within its [`QueryGraph`].
pub type NodeId = usize;

/// A reference to one output port of a producer instruction.
///
/// Every instruction has one output port except the partitioner, which
/// has one per partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// Producer instruction.
    pub node: NodeId,
    /// Output port of the producer.
    pub port: usize,
}

impl PortRef {
    /// Port 0 of `node`.
    #[must_use]
    pub fn of(node: NodeId) -> Self {
        PortRef { node, port: 0 }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}.{}", self.node, self.port)
    }
}

/// The operator performed by a spatial instruction.
///
/// The eleven variants correspond one-to-one with the eleven Q100 tile
/// types of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub enum SpatialOp {
    /// Extracts one column from a table. When `base` is `Some`, the table
    /// streams in from memory; otherwise input 0 supplies it.
    ColSelect {
        /// Base table read from memory, if any.
        base: Option<String>,
        /// Name of the column to extract.
        column: String,
    },
    /// Compares input column 0 against `rhs`, producing a boolean column.
    BoolGen {
        /// Comparison operator.
        cmp: CmpOp,
        /// Immediate constant or second input column.
        rhs: Operand,
    },
    /// Drops rows of input column 0 where input column 1 (booleans) is
    /// false.
    ColFilter,
    /// Applies `op` to input column 0 and `rhs`.
    Alu {
        /// Arithmetic/logical operation.
        op: AluOp,
        /// Immediate constant or second input column.
        rhs: Operand,
    },
    /// Equijoin of input table 0 (primary-key side) with input table 1
    /// (foreign-key side). The paper's Q100 ships inner joins only but
    /// notes that "extending the joiner to support other types (e.g.,
    /// outer-joins) would not increase its area or power substantially";
    /// the `outer` flag implements that extension (unmatched primary-key
    /// rows are emitted after the stream with zero-filled foreign-key
    /// columns).
    Joiner {
        /// Key column in the primary-key table.
        left_key: String,
        /// Key column in the foreign-key table.
        right_key: String,
        /// Emit unmatched primary-key rows (left outer join).
        outer: bool,
    },
    /// Range-partitions input table 0 on `key` into `bounds.len() + 1`
    /// output tables; partition *i* receives rows with
    /// `bounds[i-1] <= key < bounds[i]` (physical-value order).
    Partitioner {
        /// Key column to partition on.
        key: String,
        /// Ascending range split points.
        bounds: Vec<i64>,
    },
    /// Sorts input table 0 by `key` using a 1024-record bitonic sorter.
    /// Larger inputs are processed in independent 1024-record batches by
    /// the hardware; the timing model charges for each batch.
    Sorter {
        /// Key column to sort on.
        key: String,
        /// Sort direction.
        descending: bool,
    },
    /// Aggregates input column 0 grouped by input column 1. Both inputs
    /// must arrive sorted (or grouped) on the group column; the tile
    /// closes an aggregate whenever consecutive group values differ.
    Aggregator {
        /// Aggregation operation.
        op: AggOp,
    },
    /// Appends input table 1 after input table 0 (same schema).
    Append,
    /// Concatenates corresponding entries of input columns 0 and 1 into
    /// one composite column (used to sort/group on two attributes with a
    /// single pass).
    Concat,
    /// Stitches input columns 0..n into a table (tuple reconstruction).
    Stitch,
}

impl SpatialOp {
    /// The tile kind that executes this operator.
    #[must_use]
    pub fn tile_kind(&self) -> TileKind {
        match self {
            SpatialOp::ColSelect { .. } => TileKind::ColSelect,
            SpatialOp::BoolGen { .. } => TileKind::BoolGen,
            SpatialOp::ColFilter => TileKind::ColFilter,
            SpatialOp::Alu { .. } => TileKind::Alu,
            SpatialOp::Joiner { .. } => TileKind::Joiner,
            SpatialOp::Partitioner { .. } => TileKind::Partitioner,
            SpatialOp::Sorter { .. } => TileKind::Sorter,
            SpatialOp::Aggregator { .. } => TileKind::Aggregator,
            SpatialOp::Append => TileKind::Append,
            SpatialOp::Concat => TileKind::Concat,
            SpatialOp::Stitch => TileKind::Stitch,
        }
    }

    /// Number of output ports (1 for everything but the partitioner).
    #[must_use]
    pub fn output_ports(&self) -> usize {
        match self {
            SpatialOp::Partitioner { bounds, .. } => bounds.len() + 1,
            _ => 1,
        }
    }

    /// The number of wired inputs this operator expects, where `None`
    /// means "one or more" (stitch).
    #[must_use]
    pub fn expected_inputs(&self) -> Option<usize> {
        match self {
            SpatialOp::ColSelect { base: Some(_), .. } => Some(0),
            SpatialOp::ColSelect { base: None, .. } => Some(1),
            SpatialOp::BoolGen { rhs, .. } => Some(match rhs {
                Operand::Const(_) => 1,
                Operand::Column => 2,
            }),
            SpatialOp::Alu { op, rhs } => Some(if op.is_unary() {
                1
            } else {
                match rhs {
                    Operand::Const(_) => 1,
                    Operand::Column => 2,
                }
            }),
            SpatialOp::ColFilter
            | SpatialOp::Joiner { .. }
            | SpatialOp::Aggregator { .. }
            | SpatialOp::Append
            | SpatialOp::Concat => Some(2),
            SpatialOp::Partitioner { .. } | SpatialOp::Sorter { .. } => Some(1),
            SpatialOp::Stitch => None,
        }
    }
}

impl fmt::Display for SpatialOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialOp::ColSelect { base: Some(t), column } => {
                write!(f, "ColSelect({column} from {t})")
            }
            SpatialOp::ColSelect { base: None, column } => write!(f, "ColSelect({column})"),
            SpatialOp::BoolGen { cmp, rhs } => write!(f, "BoolGen({cmp}, {rhs})"),
            SpatialOp::ColFilter => f.write_str("ColFilter"),
            SpatialOp::Alu { op, rhs } => write!(f, "ALU({op}, {rhs})"),
            SpatialOp::Joiner { left_key, right_key, outer } => {
                let kind = if *outer { "OuterJoin" } else { "Join" };
                write!(f, "{kind}({left_key} = {right_key})")
            }
            SpatialOp::Partitioner { key, bounds } => {
                write!(f, "Partition({key}, {} ways)", bounds.len() + 1)
            }
            SpatialOp::Sorter { key, descending } => {
                write!(f, "Sort({key}{})", if *descending { " desc" } else { "" })
            }
            SpatialOp::Aggregator { op } => write!(f, "Aggregate({op})"),
            SpatialOp::Append => f.write_str("Append"),
            SpatialOp::Concat => f.write_str("Concat"),
            SpatialOp::Stitch => f.write_str("Stitch"),
        }
    }
}

/// One spatial instruction: an operator plus its wired inputs and an
/// optional output name override.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialInst {
    /// The operator.
    pub op: SpatialOp,
    /// Producer ports feeding this instruction, in operand order.
    pub inputs: Vec<PortRef>,
    /// Overrides the auto-assigned name of the output column (columns
    /// only; tables keep their constituent column names).
    pub output_name: Option<String>,
}

/// A query expressed as a DAG of spatial instructions.
///
/// Build one with [`GraphBuilder`]; nodes may only reference
/// previously added nodes, so graphs are acyclic by construction and
/// node ids are already a topological order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryGraph {
    nodes: Vec<SpatialInst>,
    name: String,
}

impl QueryGraph {
    /// Starts building a graph.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder { graph: QueryGraph { nodes: Vec::new(), name: name.into() } }
    }

    /// The query's human-readable name (e.g. `"q6"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions in topological (= id) order.
    #[must_use]
    pub fn nodes(&self) -> &[SpatialInst] {
        &self.nodes
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The instruction with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &SpatialInst {
        &self.nodes[id]
    }

    /// All producer→consumer edges as `(producer_port, consumer)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (PortRef, NodeId)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(id, n)| n.inputs.iter().map(move |&p| (p, id)))
    }

    /// Ids of instructions with no consumers (query outputs).
    #[must_use]
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut has_consumer = vec![false; self.nodes.len()];
        for (p, _) in self.edges() {
            has_consumer[p.node] = true;
        }
        (0..self.nodes.len()).filter(|&i| !has_consumer[i]).collect()
    }

    /// Names of all base tables the graph reads from memory.
    #[must_use]
    pub fn base_tables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                SpatialOp::ColSelect { base: Some(t), .. } => Some(t.as_str()),
                _ => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Number of instructions per tile kind.
    #[must_use]
    pub fn kind_histogram(&self) -> [usize; TileKind::COUNT] {
        let mut h = [0usize; TileKind::COUNT];
        for n in &self.nodes {
            h[n.op.tile_kind() as usize] += 1;
        }
        h
    }

    /// The part of `mix` this graph's schedules can feel: each kind's
    /// count clamped to the graph's node demand for it, and kinds the
    /// graph never uses set to 0. Every scheduler picks the same
    /// schedule on `mix` and on its clamp, so the schedule and plan
    /// caches key on the clamp.
    #[must_use]
    pub fn clamp_mix(&self, mix: &TileMix) -> TileMix {
        mix.clamped_to(&self.kind_histogram())
    }

    /// Validates structural invariants: every input references an
    /// earlier node and an existing port, and operand counts match the
    /// operators.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for (id, n) in self.nodes.iter().enumerate() {
            if let Some(want) = n.op.expected_inputs() {
                if n.inputs.len() != want {
                    return Err(CoreError::BadOperands {
                        node: id,
                        reason: format!("{} expects {want} inputs, got {}", n.op, n.inputs.len()),
                    });
                }
            } else if n.inputs.is_empty() {
                return Err(CoreError::BadOperands {
                    node: id,
                    reason: format!("{} expects at least one input", n.op),
                });
            }
            for p in &n.inputs {
                if p.node >= id {
                    return Err(CoreError::BadOperands {
                        node: id,
                        reason: format!("input {p} does not precede the node"),
                    });
                }
                let avail = self.nodes[p.node].op.output_ports();
                if p.port >= avail {
                    return Err(CoreError::UnknownPort {
                        node: p.node,
                        port: p.port,
                        available: avail,
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders the graph as an indented instruction listing.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query {} ({} sinsts):", self.name, self.len());
        for (id, n) in self.nodes.iter().enumerate() {
            let inputs: Vec<String> = n.inputs.iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "  n{id} <- {} [{}]", n.op, inputs.join(", "));
        }
        out
    }
}

impl fmt::Display for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryGraph({}, {} sinsts)", self.name, self.len())
    }
}

/// Incremental builder for [`QueryGraph`]s.
///
/// Every method appends one spatial instruction and returns the
/// [`PortRef`]\(s) of its output(s), which later instructions consume.
///
/// # Example
///
/// ```
/// use q100_core::{CmpOp, QueryGraph};
/// use q100_columnar::Value;
///
/// let mut b = QueryGraph::builder("demo");
/// let qty = b.col_select_base("lineitem", "l_quantity");
/// let keep = b.bool_gen_const(qty, CmpOp::Lt, Value::Int(24));
/// let out = b.col_filter(qty, keep);
/// let g = b.finish().unwrap();
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.sinks(), vec![out.node]);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: QueryGraph,
}

impl GraphBuilder {
    fn push(&mut self, op: SpatialOp, inputs: Vec<PortRef>) -> PortRef {
        let id = self.graph.nodes.len();
        self.graph.nodes.push(SpatialInst { op, inputs, output_name: None });
        PortRef::of(id)
    }

    /// `ColSelect(column from table)` reading a base table from memory.
    pub fn col_select_base(
        &mut self,
        table: impl Into<String>,
        column: impl Into<String>,
    ) -> PortRef {
        self.push(SpatialOp::ColSelect { base: Some(table.into()), column: column.into() }, vec![])
    }

    /// `ColSelect(column)` from a wired table.
    pub fn col_select(&mut self, table: PortRef, column: impl Into<String>) -> PortRef {
        self.push(SpatialOp::ColSelect { base: None, column: column.into() }, vec![table])
    }

    /// `BoolGen(col cmp constant)`.
    pub fn bool_gen_const(&mut self, col: PortRef, cmp: CmpOp, constant: Value) -> PortRef {
        self.push(SpatialOp::BoolGen { cmp, rhs: Operand::Const(constant) }, vec![col])
    }

    /// `BoolGen(a cmp b)` comparing two columns.
    pub fn bool_gen(&mut self, a: PortRef, cmp: CmpOp, b: PortRef) -> PortRef {
        self.push(SpatialOp::BoolGen { cmp, rhs: Operand::Column }, vec![a, b])
    }

    /// `ColFilter(data using bools)`.
    pub fn col_filter(&mut self, data: PortRef, bools: PortRef) -> PortRef {
        self.push(SpatialOp::ColFilter, vec![data, bools])
    }

    /// Binary `ALU(a op b)` over two columns.
    pub fn alu(&mut self, a: PortRef, op: AluOp, b: PortRef) -> PortRef {
        self.push(SpatialOp::Alu { op, rhs: Operand::Column }, vec![a, b])
    }

    /// `ALU(a op constant)` — the tile's constant multiply/divide/etc.
    pub fn alu_const(&mut self, a: PortRef, op: AluOp, constant: Value) -> PortRef {
        self.push(SpatialOp::Alu { op, rhs: Operand::Const(constant) }, vec![a])
    }

    /// Unary `ALU(NOT a)`.
    pub fn alu_not(&mut self, a: PortRef) -> PortRef {
        self.push(SpatialOp::Alu { op: AluOp::Not, rhs: Operand::Const(Value::Int(0)) }, vec![a])
    }

    /// `Join(pk_table.left_key = fk_table.right_key)` inner equijoin.
    pub fn join(
        &mut self,
        pk_table: PortRef,
        left_key: impl Into<String>,
        fk_table: PortRef,
        right_key: impl Into<String>,
    ) -> PortRef {
        self.push(
            SpatialOp::Joiner {
                left_key: left_key.into(),
                right_key: right_key.into(),
                outer: false,
            },
            vec![pk_table, fk_table],
        )
    }

    /// Left-outer variant of [`join`](GraphBuilder::join): primary-key
    /// rows without a foreign-key match are emitted after the matched
    /// stream, with zero-filled foreign-key columns (the tile's NULL
    /// sentinel).
    pub fn join_outer(
        &mut self,
        pk_table: PortRef,
        left_key: impl Into<String>,
        fk_table: PortRef,
        right_key: impl Into<String>,
    ) -> PortRef {
        self.push(
            SpatialOp::Joiner {
                left_key: left_key.into(),
                right_key: right_key.into(),
                outer: true,
            },
            vec![pk_table, fk_table],
        )
    }

    /// `Partition(table on key)` with explicit range bounds; returns the
    /// `bounds.len() + 1` output ports.
    pub fn partition(
        &mut self,
        table: PortRef,
        key: impl Into<String>,
        bounds: Vec<i64>,
    ) -> Vec<PortRef> {
        let ports = bounds.len() + 1;
        let r = self.push(SpatialOp::Partitioner { key: key.into(), bounds }, vec![table]);
        (0..ports).map(|port| PortRef { node: r.node, port }).collect()
    }

    /// `Sort(table by key)` ascending.
    pub fn sort(&mut self, table: PortRef, key: impl Into<String>) -> PortRef {
        self.push(SpatialOp::Sorter { key: key.into(), descending: false }, vec![table])
    }

    /// `Sort(table by key)` descending.
    pub fn sort_desc(&mut self, table: PortRef, key: impl Into<String>) -> PortRef {
        self.push(SpatialOp::Sorter { key: key.into(), descending: true }, vec![table])
    }

    /// `Aggregate(op data group by group)`.
    pub fn aggregate(&mut self, op: AggOp, data: PortRef, group: PortRef) -> PortRef {
        self.push(SpatialOp::Aggregator { op }, vec![data, group])
    }

    /// `Append(first, second)`.
    pub fn append(&mut self, first: PortRef, second: PortRef) -> PortRef {
        self.push(SpatialOp::Append, vec![first, second])
    }

    /// Appends a whole sequence of tables pairwise (left-leaning tree).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty.
    pub fn append_all(&mut self, tables: &[PortRef]) -> PortRef {
        let (&first, rest) = tables.split_first().expect("append_all needs at least one table");
        rest.iter().fold(first, |acc, &t| self.append(acc, t))
    }

    /// `Concat(a, b)` composite column.
    pub fn concat(&mut self, a: PortRef, b: PortRef) -> PortRef {
        self.push(SpatialOp::Concat, vec![a, b])
    }

    /// `Stitch(cols...)` into a table.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty.
    pub fn stitch(&mut self, cols: &[PortRef]) -> PortRef {
        assert!(!cols.is_empty(), "stitch needs at least one column");
        self.push(SpatialOp::Stitch, cols.to_vec())
    }

    /// Renames the output column of the most recently added instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instruction has been added yet.
    pub fn name_output(&mut self, port: PortRef, name: impl Into<String>) {
        self.graph.nodes[port.node].output_name = Some(name.into());
    }

    /// Finishes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation, as [`QueryGraph::validate`].
    pub fn finish(self) -> Result<QueryGraph> {
        self.graph.validate()?;
        Ok(self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QueryGraph {
        let mut b = QueryGraph::builder("t");
        let a = b.col_select_base("sales", "qty");
        let c = b.bool_gen_const(a, CmpOp::Gt, Value::Int(5));
        let f = b.col_filter(a, c);
        let _s = b.stitch(&[f]);
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_topological_ids() {
        let g = tiny();
        assert_eq!(g.len(), 4);
        for (p, consumer) in g.edges() {
            assert!(p.node < consumer);
        }
    }

    #[test]
    fn sinks_and_base_tables() {
        let g = tiny();
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.base_tables(), vec!["sales"]);
    }

    #[test]
    fn histogram_counts_kinds() {
        let g = tiny();
        let h = g.kind_histogram();
        assert_eq!(h[TileKind::ColSelect as usize], 1);
        assert_eq!(h[TileKind::BoolGen as usize], 1);
        assert_eq!(h[TileKind::ColFilter as usize], 1);
        assert_eq!(h[TileKind::Stitch as usize], 1);
        assert_eq!(h[TileKind::Sorter as usize], 0);
    }

    #[test]
    fn clamp_mix_caps_counts_at_demand_and_zeroes_unused_kinds() {
        let g = tiny();
        let clamped = g.clamp_mix(&TileMix::uniform(3));
        assert_eq!(clamped.count(TileKind::ColSelect), 1);
        assert_eq!(clamped.count(TileKind::Stitch), 1);
        assert_eq!(clamped.count(TileKind::Sorter), 0);
        assert_eq!(clamped.total(), 4);
        let starved = TileMix::uniform(3).with_count(TileKind::BoolGen, 0);
        assert_eq!(
            g.clamp_mix(&starved).count(TileKind::BoolGen),
            0,
            "a missing kind stays missing"
        );
        assert_eq!(g.clamp_mix(&clamped), clamped, "the clamp is idempotent");
    }

    #[test]
    fn partition_exposes_all_ports() {
        let mut b = QueryGraph::builder("p");
        let c = b.col_select_base("t", "k");
        let s = b.stitch(&[c]);
        let parts = b.partition(s, "k", vec![10, 20]);
        assert_eq!(parts.len(), 3);
        let last = *parts.last().unwrap();
        assert_eq!(last.port, 2);
        let g = b.finish().unwrap();
        assert_eq!(g.node(parts[0].node).op.output_ports(), 3);
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let g = QueryGraph {
            nodes: vec![SpatialInst {
                op: SpatialOp::ColFilter,
                inputs: vec![],
                output_name: None,
            }],
            name: "bad".into(),
        };
        assert!(matches!(g.validate(), Err(CoreError::BadOperands { .. })));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let g = QueryGraph {
            nodes: vec![SpatialInst {
                op: SpatialOp::ColSelect { base: None, column: "x".into() },
                inputs: vec![PortRef::of(0)],
                output_name: None,
            }],
            name: "bad".into(),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_port() {
        let mut b = QueryGraph::builder("p");
        let c = b.col_select_base("t", "k");
        let _ = b.col_select(PortRef { node: c.node, port: 5 }, "k");
        assert!(b.finish().is_err());
    }

    #[test]
    fn render_lists_instructions() {
        let text = tiny().render();
        assert!(text.contains("ColSelect(qty from sales)"));
        assert!(text.contains("n2 <- ColFilter [n0.0, n1.0]"));
    }
}

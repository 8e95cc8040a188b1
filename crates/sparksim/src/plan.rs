//! Physical job plans: stages, operator DAGs and per-stage cost profiles.
//!
//! A [`JobPlan`] is the simulator-facing description of one Spark
//! application run: an ordered list of [`StagePlan`]s separated by shuffle
//! boundaries (Spark's DAGScheduler executes such stages sequentially for a
//! single job). Each stage carries:
//!
//! * an [`OpDag`] of atomic RDD operations — the same object the paper
//!   extracts from event logs and feeds to the GCN scheduler encoder, and
//! * a cost profile (compute intensity, shuffle ratios, memory working-set
//!   factor, skew) that couples the operator mix to knob sensitivity.

use std::fmt;

/// Atomic RDD/DataFrame operations that label DAG nodes.
///
/// This is the vocabulary of the paper's one-hot node embedding: `S` equals
/// the number of operations seen in training, and unseen operations map to
/// an out-of-vocabulary token on the model side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpKind {
    TextFile,
    ObjectFile,
    Parallelize,
    Map,
    MapValues,
    MapPartitions,
    FlatMap,
    Filter,
    Distinct,
    Sample,
    Union,
    ZipPartitions,
    ZipWithIndex,
    KeyBy,
    GroupByKey,
    ReduceByKey,
    CombineByKey,
    AggregateByKey,
    FoldByKey,
    SortByKey,
    RepartitionAndSort,
    PartitionBy,
    Join,
    LeftOuterJoin,
    CoGroup,
    Cartesian,
    Broadcast,
    TreeAggregate,
    TreeReduce,
    Coalesce,
    Repartition,
    Cache,
    Checkpoint,
    Collect,
    CollectAsMap,
    Count,
    Reduce,
    Fold,
    Take,
    SaveAsTextFile,
    SaveAsObjectFile,
    ShuffledRdd,
    MapPartitionsWithIndex,
    Pregel,
    AggregateMessages,
    JoinVertices,
    OuterJoinVertices,
    SubGraph,
    ConnectedComponentsOp,
    TriangleCountOp,
}

impl OpKind {
    /// Display label, matching Spark's RDD/DAG-UI naming style.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::TextFile => "textFile",
            OpKind::ObjectFile => "objectFile",
            OpKind::Parallelize => "parallelize",
            OpKind::Map => "map",
            OpKind::MapValues => "mapValues",
            OpKind::MapPartitions => "mapPartitions",
            OpKind::FlatMap => "flatMap",
            OpKind::Filter => "filter",
            OpKind::Distinct => "distinct",
            OpKind::Sample => "sample",
            OpKind::Union => "union",
            OpKind::ZipPartitions => "zipPartitions",
            OpKind::ZipWithIndex => "zipWithIndex",
            OpKind::KeyBy => "keyBy",
            OpKind::GroupByKey => "groupByKey",
            OpKind::ReduceByKey => "reduceByKey",
            OpKind::CombineByKey => "combineByKey",
            OpKind::AggregateByKey => "aggregateByKey",
            OpKind::FoldByKey => "foldByKey",
            OpKind::SortByKey => "sortByKey",
            OpKind::RepartitionAndSort => "repartitionAndSortWithinPartitions",
            OpKind::PartitionBy => "partitionBy",
            OpKind::Join => "join",
            OpKind::LeftOuterJoin => "leftOuterJoin",
            OpKind::CoGroup => "cogroup",
            OpKind::Cartesian => "cartesian",
            OpKind::Broadcast => "broadcast",
            OpKind::TreeAggregate => "treeAggregate",
            OpKind::TreeReduce => "treeReduce",
            OpKind::Coalesce => "coalesce",
            OpKind::Repartition => "repartition",
            OpKind::Cache => "cache",
            OpKind::Checkpoint => "checkpoint",
            OpKind::Collect => "collect",
            OpKind::CollectAsMap => "collectAsMap",
            OpKind::Count => "count",
            OpKind::Reduce => "reduce",
            OpKind::Fold => "fold",
            OpKind::Take => "take",
            OpKind::SaveAsTextFile => "saveAsTextFile",
            OpKind::SaveAsObjectFile => "saveAsObjectFile",
            OpKind::ShuffledRdd => "ShuffledRDD",
            OpKind::MapPartitionsWithIndex => "mapPartitionsWithIndex",
            OpKind::Pregel => "pregel",
            OpKind::AggregateMessages => "aggregateMessages",
            OpKind::JoinVertices => "joinVertices",
            OpKind::OuterJoinVertices => "outerJoinVertices",
            OpKind::SubGraph => "subgraph",
            OpKind::ConnectedComponentsOp => "connectedComponents",
            OpKind::TriangleCountOp => "triangleCount",
        }
    }

    /// All operation kinds, in a stable order.
    pub fn all() -> &'static [OpKind] {
        use OpKind::*;
        &[
            TextFile,
            ObjectFile,
            Parallelize,
            Map,
            MapValues,
            MapPartitions,
            FlatMap,
            Filter,
            Distinct,
            Sample,
            Union,
            ZipPartitions,
            ZipWithIndex,
            KeyBy,
            GroupByKey,
            ReduceByKey,
            CombineByKey,
            AggregateByKey,
            FoldByKey,
            SortByKey,
            RepartitionAndSort,
            PartitionBy,
            Join,
            LeftOuterJoin,
            CoGroup,
            Cartesian,
            Broadcast,
            TreeAggregate,
            TreeReduce,
            Coalesce,
            Repartition,
            Cache,
            Checkpoint,
            Collect,
            CollectAsMap,
            Count,
            Reduce,
            Fold,
            Take,
            SaveAsTextFile,
            SaveAsObjectFile,
            ShuffledRdd,
            MapPartitionsWithIndex,
            Pregel,
            AggregateMessages,
            JoinVertices,
            OuterJoinVertices,
            SubGraph,
            ConnectedComponentsOp,
            TriangleCountOp,
        ]
    }

    /// Stable integer id of the operation (index into [`OpKind::all`]).
    pub fn id(self) -> usize {
        OpKind::all().iter().position(|o| *o == self).expect("op in all()")
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A directed acyclic graph of atomic operations within one stage.
///
/// Nodes are RDD transformations; an edge `(u, v)` means the output of node
/// `u` feeds node `v`. This is the structure the paper's GCN encoder
/// consumes (node one-hots + adjacency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDag {
    /// Operation labels per node.
    pub nodes: Vec<OpKind>,
    /// Directed edges as `(from, to)` node-index pairs.
    pub edges: Vec<(usize, usize)>,
}

impl OpDag {
    /// A linear chain of operations `ops[0] -> ops[1] -> ...`.
    pub fn chain(ops: &[OpKind]) -> Self {
        let edges = (1..ops.len()).map(|i| (i - 1, i)).collect();
        OpDag { nodes: ops.to_vec(), edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append a node with edges from the given predecessors; returns its id.
    pub fn push(&mut self, op: OpKind, preds: &[usize]) -> usize {
        let id = self.nodes.len();
        self.nodes.push(op);
        for &p in preds {
            assert!(p < id, "predecessor {p} must precede node {id}");
            self.edges.push((p, id));
        }
        id
    }

    /// Validate acyclicity and edge bounds (edges must go forward since
    /// nodes are appended in topological order).
    pub fn validate(&self) -> Result<(), String> {
        for &(u, v) in &self.edges {
            if u >= self.nodes.len() || v >= self.nodes.len() {
                return Err(format!("edge ({u},{v}) out of bounds for {} nodes", self.nodes.len()));
            }
            if u >= v {
                return Err(format!("edge ({u},{v}) is not topologically forward"));
            }
        }
        Ok(())
    }
}

/// Where a stage reads its input from; determines partitioning and scan
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSource {
    /// Scan from distributed storage; partition count follows
    /// `spark.files.maxPartitionBytes`.
    Hdfs,
    /// Read the shuffle output of the previous stage; partition count
    /// follows `spark.default.parallelism` (or the explicit task hint).
    Shuffle,
    /// Read an RDD cached by an earlier stage (falls back to recompute when
    /// the storage pool could not hold it).
    Cache,
}

/// One stage of a job: operator DAG plus cost profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Stage name, e.g. `"map@TeraSort"`.
    pub name: String,
    /// Atomic-operation DAG (the paper's scheduler feature `G_i`).
    pub ops: OpDag,
    /// Input source of the stage.
    pub input: InputSource,
    /// Bytes read by the stage.
    pub input_bytes: u64,
    /// Bytes written to the next shuffle (0 for result stages).
    pub shuffle_write_bytes: u64,
    /// Bytes returned to the driver (collect-like actions).
    pub result_bytes: u64,
    /// CPU cycles spent per input byte (compute intensity).
    pub cycles_per_byte: f64,
    /// Fraction of compute that is memory-bandwidth-bound (0..1); drives the
    /// multi-core contention model.
    pub mem_intensity: f64,
    /// Working-set bytes per input byte for sort/aggregate buffers; drives
    /// spills and GC pressure.
    pub working_set_factor: f64,
    /// Whether the stage caches its output for later stages.
    pub cache_output: bool,
    /// Log-normal sigma of per-task time skew.
    pub skew_sigma: f64,
    /// Explicit task-count override (e.g. from a `#partitions` data
    /// feature); `None` uses the knob-derived count.
    pub num_tasks_hint: Option<u32>,
}

impl StagePlan {
    /// A stage with neutral cost parameters reading `input_bytes` from HDFS.
    pub fn new(name: impl Into<String>, ops: OpDag, input_bytes: u64) -> Self {
        StagePlan {
            name: name.into(),
            ops,
            input: InputSource::Hdfs,
            input_bytes,
            shuffle_write_bytes: 0,
            result_bytes: 0,
            cycles_per_byte: 20.0,
            mem_intensity: 0.3,
            working_set_factor: 0.5,
            cache_output: false,
            skew_sigma: 0.12,
            num_tasks_hint: None,
        }
    }
}

/// A complete job: ordered stages separated by shuffle boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Application name the job belongs to.
    pub app_name: String,
    /// Stages in execution order.
    pub stages: Vec<StagePlan>,
}

impl JobPlan {
    /// Validate all stage DAGs and basic volume invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("job has no stages".into());
        }
        for (i, s) in self.stages.iter().enumerate() {
            s.ops.validate().map_err(|e| format!("stage {i} ({}): {e}", s.name))?;
            if s.ops.is_empty() {
                return Err(format!("stage {i} ({}) has an empty op DAG", s.name));
            }
        }
        Ok(())
    }

    /// A tiny two-stage map/reduce job used in documentation examples and
    /// smoke tests: scan+map, then shuffle+reduce with a small collect.
    pub fn example_shuffle_job(input_bytes: u64) -> Self {
        let map = StagePlan {
            shuffle_write_bytes: input_bytes,
            ..StagePlan::new(
                "map",
                OpDag::chain(&[OpKind::TextFile, OpKind::Map, OpKind::KeyBy]),
                input_bytes,
            )
        };
        let mut reduce = StagePlan::new(
            "reduce",
            OpDag::chain(&[OpKind::ShuffledRdd, OpKind::ReduceByKey, OpKind::Collect]),
            input_bytes,
        );
        reduce.input = InputSource::Shuffle;
        reduce.result_bytes = (input_bytes / 1000).max(1024);
        reduce.working_set_factor = 1.2;
        JobPlan { app_name: "example".into(), stages: vec![map, reduce] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_stable_and_unique() {
        let all = OpKind::all();
        for (i, op) in all.iter().enumerate() {
            assert_eq!(op.id(), i);
        }
        let mut labels: Vec<&str> = all.iter().map(|o| o.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "duplicate op labels");
    }

    #[test]
    fn chain_builds_forward_edges() {
        let dag = OpDag::chain(&[OpKind::TextFile, OpKind::Map, OpKind::ReduceByKey]);
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edges, vec![(0, 1), (1, 2)]);
        dag.validate().unwrap();
    }

    #[test]
    fn push_with_multiple_predecessors() {
        let mut dag = OpDag::chain(&[OpKind::TextFile, OpKind::Map]);
        let other = dag.push(OpKind::TextFile, &[]);
        let join = dag.push(OpKind::Join, &[1, other]);
        assert_eq!(join, 3);
        dag.validate().unwrap();
        assert!(dag.edges.contains(&(1, 3)));
        assert!(dag.edges.contains(&(2, 3)));
    }

    #[test]
    #[should_panic(expected = "predecessor")]
    fn push_rejects_forward_reference() {
        let mut dag = OpDag::chain(&[OpKind::TextFile]);
        dag.push(OpKind::Map, &[5]);
    }

    #[test]
    fn validate_rejects_backward_edge() {
        let dag = OpDag { nodes: vec![OpKind::Map, OpKind::Filter], edges: vec![(1, 0)] };
        assert!(dag.validate().is_err());
    }

    #[test]
    fn example_job_is_valid() {
        let job = JobPlan::example_shuffle_job(1 << 20);
        job.validate().unwrap();
        assert_eq!(job.stages.len(), 2);
    }
}

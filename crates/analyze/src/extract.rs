//! Static stage extraction: source text in, stage templates out — zero
//! simulator runs.
//!
//! The pipeline is lex → parse → dataflow → emit. Library calls expand
//! through the knowledge base in [`crate::model`]; library-free programs
//! (sort-style jobs) go through a generic stage cutter that breaks the
//! lineage chain at wide dependencies. Emissions are merged by template
//! name in first-appearance order, mirroring how the dynamic
//! `instrument_app` path dedupes `StageSubmitted` events.

use crate::dataflow::{analyze, ActionKind, ChainOp, Flow};
use crate::lint::{run_lints, Diagnostic};
use crate::model::{generic_stage_name, lib_pipeline, lineage_ops, GenericRole};
use crate::parse::{parse, ParseError};
use lite_sparksim::plan::OpKind;
use std::fmt;

/// Extraction failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// The source did not parse.
    Parse(ParseError),
    /// The program parsed but produced no stages (no lineage, no jobs).
    NoStages,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Parse(e) => write!(f, "{e}"),
            AnalyzeError::NoStages => write!(f, "no stages recovered from source"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<ParseError> for AnalyzeError {
    fn from(e: ParseError) -> Self {
        AnalyzeError::Parse(e)
    }
}

/// Knobs the source text cannot provide.
#[derive(Debug, Clone, Copy)]
pub struct ExtractOptions {
    /// Iteration count for iterative pipelines (dataset-tier dependent;
    /// clamped to ≥ 1).
    pub iterations: u32,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { iterations: 1 }
    }
}

/// One recovered stage template.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTemplate {
    /// Template name (stable across iterations).
    pub template: String,
    /// Operator chain.
    pub ops: Vec<OpKind>,
    /// Stage instances per run at the requested iteration count.
    pub instances_per_run: usize,
}

/// Full static-extraction result.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// `setAppName` value, when present.
    pub app_name: Option<String>,
    /// Stage templates in first-appearance order.
    pub stages: Vec<StageTemplate>,
    /// Lint diagnostics for the same source (computed on the same flow).
    pub diagnostics: Vec<Diagnostic>,
}

/// Statically extract stage templates from application source.
pub fn extract_stages(source: &str, opts: ExtractOptions) -> Result<Extraction, AnalyzeError> {
    let prog = parse(source)?;
    let flow = analyze(&prog);
    let diagnostics = run_lints(&flow);
    let mut em = Emitter::default();

    if flow.calls.is_empty() {
        generic_cut(&flow, &mut em);
    } else {
        for call in &flow.calls {
            for (name, ops) in lib_pipeline(&flow, call, opts.iterations.max(1) as usize) {
                em.emit(&name, ops);
            }
        }
    }

    if em.stages.is_empty() {
        return Err(AnalyzeError::NoStages);
    }
    Ok(Extraction { app_name: flow.app_name.clone(), stages: em.stages, diagnostics })
}

#[derive(Default)]
struct Emitter {
    stages: Vec<StageTemplate>,
}

impl Emitter {
    /// Record one stage instance; repeat emissions of a template merge
    /// into its instance count (first-appearance order preserved).
    fn emit(&mut self, template: &str, ops: Vec<OpKind>) {
        if let Some(s) = self.stages.iter_mut().find(|s| s.template == template) {
            s.instances_per_run += 1;
            return;
        }
        self.stages.push(StageTemplate {
            template: template.to_string(),
            ops,
            instances_per_run: 1,
        });
    }
}

/// Generic stage cutter for library-free programs: each visible action is
/// a job; its lineage chain is cut at wide dependencies.
fn generic_cut(flow: &Flow, em: &mut Emitter) {
    let app = flow.app_name.as_deref();
    let mut fallback_idx = 0usize;
    let name_for = |role: GenericRole, idx: &mut usize| -> String {
        if let Some(n) = generic_stage_name(app, role) {
            return n.to_string();
        }
        let n = format!("stage-{}", *idx);
        *idx += 1;
        n
    };

    for action in &flow.actions {
        let chain = flow.lineage(action.node);
        // A terasort-partitioned job runs two sampling pre-jobs first.
        let terasort = chain
            .iter()
            .any(|&id| matches!(flow.nodes[id].op, ChainOp::RepartitionAndSort { terasort: true }));
        if terasort {
            em.emit(
                &name_for(GenericRole::PreSample, &mut fallback_idx),
                vec![OpKind::TextFile, OpKind::Sample, OpKind::Collect],
            );
            em.emit(
                &name_for(GenericRole::PreCount, &mut fallback_idx),
                vec![OpKind::TextFile, OpKind::Count],
            );
        }

        let mut cur: Vec<OpKind> = Vec::new();
        let mut cur_role = GenericRole::MapSide;
        for &id in &chain {
            let op = flow.nodes[id].op;
            if op.wide() {
                // Close the map side, open the shuffle/sort stage.
                match op {
                    ChainOp::RepartitionAndSort { .. } => cur.push(OpKind::PartitionBy),
                    ChainOp::SortByKey | ChainOp::SortBy => {}
                    _ => {}
                }
                em.emit(&name_for(cur_role, &mut fallback_idx), std::mem::take(&mut cur));
                cur.push(OpKind::ShuffledRdd);
                cur.extend(node_ops(flow, id));
                cur_role = GenericRole::Sort;
            } else if cur_role == GenericRole::Sort && !matches!(op, ChainOp::Source(_)) {
                // Narrow work after the sort runs as a separate result
                // stage in the planner's tables.
                em.emit(&name_for(cur_role, &mut fallback_idx), std::mem::take(&mut cur));
                cur.extend(node_ops(flow, id));
                cur_role = GenericRole::Result;
            } else {
                cur.extend(node_ops(flow, id));
            }
        }
        cur.push(action_op(action.kind));
        em.emit(&name_for(cur_role, &mut fallback_idx), cur);
    }
}

/// Ops contributed by a single lineage node (shuffle-read prefix excluded).
fn node_ops(flow: &Flow, id: usize) -> Vec<OpKind> {
    // Reuse the lineage mapping on a single node by diffing against the
    // parent chain would be wasteful; map directly instead.
    let single = Flow {
        app_name: None,
        nodes: vec![crate::dataflow::RddNode { id: 0, parent: None, ..flow.nodes[id].clone() }],
        calls: Vec::new(),
        actions: Vec::new(),
    };
    lineage_ops(&single, 0)
}

fn action_op(kind: ActionKind) -> OpKind {
    match kind {
        ActionKind::Count => OpKind::Count,
        ActionKind::Collect => OpKind::Collect,
        ActionKind::CollectAsMap => OpKind::CollectAsMap,
        ActionKind::Take | ActionKind::First => OpKind::Take,
        ActionKind::Foreach | ActionKind::Max | ActionKind::Reduce => OpKind::Reduce,
        ActionKind::SaveAsTextFile => OpKind::SaveAsTextFile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_counts(x: &Extraction) -> Vec<(String, usize)> {
        x.stages.iter().map(|s| (s.template.clone(), s.instances_per_run)).collect()
    }

    #[test]
    fn kmeans_extraction_matches_the_planner_tables() {
        let src = r#"
val sparkConf = new SparkConf().setAppName("KMeans")
val sc = new SparkContext(sparkConf)
val data = sc.textFile(inputPath)
val parsedData = data.map(s => Vectors.dense(s.split(' ').map(_.toDouble))).cache()
val clusters = KMeans.train(parsedData, numClusters, numIterations, KMeans.K_MEANS_PARALLEL)
val WSSSE = clusters.computeCost(parsedData)
println(s"Within Set Sum of Squared Errors = $WSSSE")
sc.stop()
"#;
        let x = extract_stages(src, ExtractOptions { iterations: 8 }).expect("extract");
        assert_eq!(x.app_name.as_deref(), Some("KMeans"));
        assert_eq!(
            names_and_counts(&x),
            [
                ("parse-cache".to_string(), 1),
                ("km-assign".to_string(), 8),
                ("compute-cost".to_string(), 1)
            ]
        );
        assert_eq!(x.stages[0].ops, vec![OpKind::TextFile, OpKind::Map, OpKind::Cache]);
    }

    #[test]
    fn sort_extraction_cuts_stages_at_wide_dependencies() {
        let src = r#"
val sparkConf = new SparkConf().setAppName("Sort")
val sc = new SparkContext(sparkConf)
val lines = sc.textFile(inputFile)
val keyed = lines.map(line => (line.split("\t")(0), line))
val sorted = keyed.sortByKey(ascending = true, numPartitions = partitions)
sorted.map(_._2).saveAsTextFile(outputFile)
sc.stop()
"#;
        let x = extract_stages(src, ExtractOptions::default()).expect("extract");
        assert_eq!(
            names_and_counts(&x),
            [
                ("key-lines".to_string(), 1),
                ("sort-by-key".to_string(), 1),
                ("save-output".to_string(), 1)
            ]
        );
        assert_eq!(x.stages[0].ops, vec![OpKind::TextFile, OpKind::Map, OpKind::KeyBy]);
        assert_eq!(x.stages[1].ops, vec![OpKind::ShuffledRdd, OpKind::SortByKey]);
        assert_eq!(x.stages[2].ops, vec![OpKind::MapValues, OpKind::SaveAsTextFile]);
    }

    #[test]
    fn terasort_extraction_includes_sampling_prejobs() {
        let src = r#"
val sparkConf = new SparkConf().setAppName("TeraSort")
val sc = new SparkContext(sparkConf)
val file = sc.textFile(inputFile)
val data = file.map(line => (line.substring(0, 10), line.substring(10)))
val partitioned = data.repartitionAndSortWithinPartitions(new TeraSortPartitioner(partitions))
partitioned.saveAsTextFile(outputFile)
sc.stop()
"#;
        let x = extract_stages(src, ExtractOptions::default()).expect("extract");
        assert_eq!(
            names_and_counts(&x),
            [
                ("sample-bounds".to_string(), 1),
                ("count-records".to_string(), 1),
                ("partition-records".to_string(), 1),
                ("sort-partitions".to_string(), 1)
            ]
        );
        assert_eq!(
            x.stages[3].ops,
            vec![OpKind::ShuffledRdd, OpKind::RepartitionAndSort, OpKind::SaveAsTextFile]
        );
    }

    #[test]
    fn empty_source_yields_no_stages_error() {
        assert!(matches!(
            extract_stages("val a = 1\n", ExtractOptions::default()),
            Err(AnalyzeError::NoStages)
        ));
        assert!(matches!(
            extract_stages("val x = (", ExtractOptions::default()),
            Err(AnalyzeError::Parse(_))
        ));
    }
}

//! Semantic lints over the dataflow graph.
//!
//! Five rules, each keyed to a tuning-relevant anti-pattern. All rules are
//! span-accurate: a diagnostic points at the defining expression of the
//! offending lineage node (or the action site). The clean 15-app corpus
//! produces zero diagnostics — asserted by an integration test in
//! `lite-workloads` — so every firing is signal.

use crate::dataflow::{ActionKind, ChainOp, Flow};
use crate::lex::Span;

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id (kebab-case).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Source location of the offending definition or call.
    pub span: Span,
}

/// R1: a named RDD recomputed by ≥ 2 job sites without `cache()`.
pub const UNCACHED_REUSE: &str = "uncached-reuse";
/// R2: a wide shuffle straight off raw, uncombined lineage (or a
/// `repartition` immediately feeding another shuffle).
pub const REDUNDANT_SHUFFLE: &str = "redundant-shuffle";
/// R3: `collect()` on data no operator has reduced, filtered, or sampled.
pub const COLLECT_UNREDUCED: &str = "collect-unreduced";
/// R4: a key-preserving `map` that silently drops the parent's
/// partitioner before a key-wide operation (use `mapValues`).
pub const PARTITIONER_LOSS: &str = "partitioner-loss";
/// R5: `cache()` on an RDD only ever consumed once.
pub const SINGLE_USE_CACHE: &str = "single-use-cache";
/// A chunk of the document that failed to parse (emitted by incremental
/// analysis, never by [`run_lints`] — the dataflow pass only sees code
/// that parsed).
pub const SYNTAX_ERROR: &str = "syntax-error";

/// Run every rule; diagnostics come out grouped by rule, then in node
/// order within a rule.
pub fn run_lints(flow: &Flow) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    uncached_reuse(flow, &mut out);
    redundant_shuffle(flow, &mut out);
    collect_unreduced(flow, &mut out);
    partitioner_loss(flow, &mut out);
    single_use_cache(flow, &mut out);
    out
}

fn uncached_reuse(flow: &Flow, out: &mut Vec<Diagnostic>) {
    for n in &flow.nodes {
        if n.cached || n.trigger_sites < 2 {
            continue;
        }
        let Some(name) = &n.var_name else { continue };
        out.push(Diagnostic {
            rule: UNCACHED_REUSE,
            message: format!(
                "`{name}` is recomputed by {} separate jobs but never cached; \
                 add `.cache()` after its definition",
                n.trigger_sites
            ),
            span: n.def_span,
        });
    }
}

fn redundant_shuffle(flow: &Flow, out: &mut Vec<Diagnostic>) {
    for n in &flow.nodes {
        match n.op {
            ChainOp::GroupByKey => {
                // Upstream to the root (or nearest cache): any combining or
                // wide op already shrank/partitioned the data?
                let combined = upstream(flow, n.id)
                    .any(|id| flow.nodes[id].op.reducing() || flow.nodes[id].op.wide());
                if !combined {
                    out.push(Diagnostic {
                        rule: REDUNDANT_SHUFFLE,
                        message: "groupByKey shuffles raw, uncombined records; \
                                  reduceByKey/aggregateByKey combine map-side first"
                            .to_string(),
                        span: n.def_span,
                    });
                }
            }
            ChainOp::Repartition
                if flow.children(n.id).iter().any(|&c| flow.nodes[c].op.wide()) =>
            {
                out.push(Diagnostic {
                    rule: REDUNDANT_SHUFFLE,
                    message: "repartition immediately feeds another shuffle; \
                              drop it or fold the partitioning into the wide op"
                        .to_string(),
                    span: n.def_span,
                });
            }
            _ => {}
        }
    }
}

fn collect_unreduced(flow: &Flow, out: &mut Vec<Diagnostic>) {
    for a in &flow.actions {
        if !matches!(a.kind, ActionKind::Collect | ActionKind::CollectAsMap) {
            continue;
        }
        let chain = flow.lineage(a.node);
        let reduced = chain.iter().any(|&id| {
            matches!(flow.nodes[id].op, ChainOp::LibResult(_)) || flow.nodes[id].op.reducing()
        });
        if !reduced {
            out.push(Diagnostic {
                rule: COLLECT_UNREDUCED,
                message: "collect() pulls the full un-reduced dataset to the driver; \
                          filter/sample/aggregate first, or use take(n)"
                    .to_string(),
                span: a.span,
            });
        }
    }
}

fn partitioner_loss(flow: &Flow, out: &mut Vec<Diagnostic>) {
    for n in &flow.nodes {
        let ChainOp::Map { key_preserving: true, .. } = n.op else { continue };
        let Some(parent) = n.parent else { continue };
        if !flow.nodes[parent].has_partitioner {
            continue;
        }
        // Only a problem if the keys get shuffled again downstream.
        let key_wide_downstream = descendants(flow, n.id).into_iter().any(|id| {
            matches!(
                flow.nodes[id].op,
                ChainOp::GroupByKey
                    | ChainOp::ReduceByKey
                    | ChainOp::AggregateByKey
                    | ChainOp::SortByKey
                    | ChainOp::Join
            )
        });
        if key_wide_downstream {
            out.push(Diagnostic {
                rule: PARTITIONER_LOSS,
                message: "map over a partitioned pair RDD keeps the keys but drops the \
                          partitioner, forcing a re-shuffle; use mapValues"
                    .to_string(),
                span: n.def_span,
            });
        }
    }
}

fn single_use_cache(flow: &Flow, out: &mut Vec<Diagnostic>) {
    for n in &flow.nodes {
        if n.cached && n.iter_weight <= 1 {
            let name = n.var_name.as_deref().unwrap_or("this RDD");
            out.push(Diagnostic {
                rule: SINGLE_USE_CACHE,
                message: format!(
                    "`{name}` is cached but consumed by a single non-iterative job; \
                     the cache only costs memory here"
                ),
                span: n.def_span,
            });
        }
    }
}

/// Ancestors of `id` (excluding `id`), stopping after the first cached
/// node — matching the recomputation-visibility rule used for trigger
/// accounting.
fn upstream(flow: &Flow, id: usize) -> impl Iterator<Item = usize> + '_ {
    let mut chain = Vec::new();
    let mut cur = flow.nodes[id].parent;
    while let Some(p) = cur {
        chain.push(p);
        if flow.nodes[p].cached {
            break;
        }
        cur = flow.nodes[p].parent;
    }
    chain.into_iter()
}

/// Transitive children of `id`.
fn descendants(flow: &Flow, id: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = flow.children(id);
    while let Some(c) = stack.pop() {
        out.push(c);
        stack.extend(flow.children(c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze;
    use crate::parse::parse;

    fn lints(src: &str) -> Vec<Diagnostic> {
        run_lints(&analyze(&parse(src).expect("parse")))
    }

    fn rules(src: &str) -> Vec<&'static str> {
        lints(src).into_iter().map(|d| d.rule).collect()
    }

    const PRELUDE: &str = "val sc = new SparkContext(sparkConf)\n";

    #[test]
    fn r1_fires_on_reused_unpersisted_rdd_and_is_quiet_when_cached() {
        let defect = format!(
            "{PRELUDE}val parsed = sc.textFile(p).map(x => x)\nval a = parsed.count\nval b = parsed.count"
        );
        let ds = lints(&defect);
        assert_eq!(ds.iter().filter(|d| d.rule == UNCACHED_REUSE).count(), 1);
        assert!(ds[0].message.contains("parsed"));
        // Span points at the definition, line 2.
        assert_eq!(ds[0].span.line, 2);

        let clean = format!(
            "{PRELUDE}val parsed = sc.textFile(p).map(x => x).cache()\nval a = parsed.count\nval b = parsed.count"
        );
        assert!(!rules(&clean).contains(&UNCACHED_REUSE));
    }

    #[test]
    fn r2_fires_on_groupbykey_over_raw_lineage() {
        let defect = format!(
            "{PRELUDE}val sums = sc.textFile(p).map(x => x).groupByKey().mapValues(v => v).count"
        );
        assert!(rules(&defect).contains(&REDUNDANT_SHUFFLE));
        // Pre-combined upstream: quiet.
        let clean = format!(
            "{PRELUDE}val sums = sc.textFile(p).map(x => x).reduceByKey(f).groupByKey().count"
        );
        assert!(!rules(&clean).contains(&REDUNDANT_SHUFFLE));
        // repartition feeding a shuffle.
        let defect2 =
            format!("{PRELUDE}val r = sc.textFile(p).repartition(n)\nval s = r.sortByKey(t).count");
        assert!(rules(&defect2).contains(&REDUNDANT_SHUFFLE));
    }

    #[test]
    fn r3_fires_on_collect_of_unreduced_data() {
        let defect = format!("{PRELUDE}val all = sc.textFile(p).map(x => x).collect()");
        assert!(rules(&defect).contains(&COLLECT_UNREDUCED));
        let clean = format!("{PRELUDE}val some = sc.textFile(p).filter(f).collect()");
        assert!(!rules(&clean).contains(&COLLECT_UNREDUCED));
    }

    #[test]
    fn r4_fires_on_key_preserving_map_after_partitionby() {
        let defect = format!(
            "{PRELUDE}val part = sc.textFile(p).keyBy(f).partitionBy(h)\n\
             val bumped = part.map {{ case (k, v) => (k, v) }}\n\
             val out = bumped.reduceByKey(g).count"
        );
        let ds = lints(&defect);
        let d = ds.iter().find(|d| d.rule == PARTITIONER_LOSS).expect("R4 fires");
        assert!(d.message.contains("mapValues"));
        assert_eq!(d.span.line, 3);
        // mapValues instead: quiet.
        let clean = format!(
            "{PRELUDE}val part = sc.textFile(p).keyBy(f).partitionBy(h)\n\
             val bumped = part.mapValues(f)\nval out = bumped.reduceByKey(g).count"
        );
        assert!(!rules(&clean).contains(&PARTITIONER_LOSS));
        // Re-keying map: quiet (the shuffle is genuinely needed).
        let rekey = format!(
            "{PRELUDE}val part = sc.textFile(p).keyBy(f).partitionBy(h)\n\
             val swapped = part.map {{ case (k, v) => (v, k) }}\n\
             val out = swapped.reduceByKey(g).count"
        );
        assert!(!rules(&rekey).contains(&PARTITIONER_LOSS));
    }

    #[test]
    fn r5_fires_on_cache_with_a_single_consumer() {
        let defect =
            format!("{PRELUDE}val data = sc.textFile(p).map(x => x).cache()\nval n = data.count");
        let ds = lints(&defect);
        assert_eq!(ds.iter().filter(|d| d.rule == SINGLE_USE_CACHE).count(), 1);
        // Two consumers (or an iterative library consumer) justify it.
        let clean =
            format!("{PRELUDE}val data = sc.textFile(p).map(x => x).cache()\nval n = data.count\nval m = data.count");
        assert!(!rules(&clean).contains(&SINGLE_USE_CACHE));
        let iterative = format!(
            "{PRELUDE}val data = sc.textFile(p).map(x => x).cache()\nval model = KMeans.train(data, k, iters)"
        );
        assert!(!rules(&iterative).contains(&SINGLE_USE_CACHE));
    }
}

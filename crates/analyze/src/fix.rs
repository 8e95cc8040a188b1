//! Machine-applicable fixes for the tuning lints.
//!
//! Three of the five rules are mechanically fixable, and each fixable
//! diagnostic maps to a [`Fix`] — a span-anchored AST rewrite applied
//! through the canonical pretty-printer:
//!
//! * `uncached-reuse` → wrap the defining expression in `.cache()`,
//! * `single-use-cache` → drop the `.cache()`/`.persist()` call,
//! * `partitioner-loss` → rewrite the key-preserving
//!   `map { case (k, v) => (k, e) }` to `mapValues(v => e)`.
//!
//! [`apply_fixes`] drives plan → apply → re-analyze to a fixpoint
//! (cache edits shift trigger accounting upstream, so one round of fixes
//! can expose a second round; realistic pipelines converge in ≤ 2
//! applying passes — property-tested in `tests/fix_props.rs`) and then
//! proves semantic safety: the RDD lineage of the fixed program must
//! equal the original's modulo the intended cache/partitioner change,
//! checked on the dataflow graph by [`lineage_equivalent`]. A rewrite
//! that cannot be proven safe is rejected, never emitted.

use crate::ast::{Arg, Expr, Pat, Program, Stmt};
use crate::dataflow::{analyze, ChainOp, Flow};
use crate::lex::Span;
use crate::lint::{self, Diagnostic};
use crate::parse::{parse, ParseError};

/// How a [`Fix`] rewrites the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixKind {
    /// Wrap the defining expression in `.cache()`.
    InsertCache,
    /// Remove a `.cache()`/`.persist()` call.
    DropCache,
    /// Rewrite a key-preserving `map` to `mapValues`.
    MapToMapValues,
}

/// One machine-applicable fix, anchored to the diagnostic it resolves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fix {
    /// Rule id of the diagnostic this fix resolves.
    pub rule: &'static str,
    /// Human-readable action title (shown as an LSP code-action label).
    pub title: String,
    /// Anchor span — equals the matching [`Diagnostic::span`].
    pub span: Span,
    /// The rewrite.
    pub kind: FixKind,
    /// Bound variable of the target node, when it has one (lets the
    /// rewrite find statement-form `x.cache()` calls whose receiver span
    /// differs from the node's defining span).
    pub var: Option<String>,
}

/// Result of driving [`apply_fixes`] to its fixpoint.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// Canonically printed fixed source.
    pub source: String,
    /// Every fix applied, in application order across passes.
    pub applied: Vec<Fix>,
    /// Number of passes that applied at least one fix.
    pub passes: usize,
    /// Diagnostics still present on the fixed source (unfixable rules).
    pub remaining: Vec<Diagnostic>,
}

/// Why [`apply_fixes`] refused to produce output.
#[derive(Debug, Clone, PartialEq)]
pub enum FixError {
    /// The input (or, impossibly, our own output) failed to parse.
    Parse(ParseError),
    /// The fixed program's lineage diverged from the original beyond the
    /// intended change — the rewrite is discarded.
    Unsafe(String),
    /// The plan/apply loop did not reach a fixpoint within
    /// [`MAX_FIX_PASSES`] passes.
    NoConvergence,
}

impl std::fmt::Display for FixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixError::Parse(e) => write!(f, "{e}"),
            FixError::Unsafe(d) => write!(f, "fix rejected as unsafe: {d}"),
            FixError::NoConvergence => {
                write!(f, "fix application did not converge in {MAX_FIX_PASSES} passes")
            }
        }
    }
}

impl std::error::Error for FixError {}

/// Hard cap on plan/apply passes; realistic pipelines need ≤ 2.
pub const MAX_FIX_PASSES: usize = 8;

/// Plan every applicable fix for the current diagnostics. Each returned
/// fix is anchored (same span) to a diagnostic from [`lint::run_lints`]
/// and is guaranteed to apply on `prog` as it stands.
pub fn plan_fixes(prog: &Program, flow: &Flow) -> Vec<Fix> {
    let mut out = Vec::new();
    for d in lint::run_lints(flow) {
        let var = flow.nodes.iter().find(|n| n.def_span == d.span).and_then(|n| n.var_name.clone());
        let fix = match d.rule {
            lint::UNCACHED_REUSE => Fix {
                rule: d.rule,
                title: format!("Insert `.cache()` on `{}`", var.as_deref().unwrap_or("this RDD")),
                span: d.span,
                kind: FixKind::InsertCache,
                var,
            },
            lint::SINGLE_USE_CACHE => Fix {
                rule: d.rule,
                title: format!(
                    "Drop the single-use `.cache()` on `{}`",
                    var.as_deref().unwrap_or("this RDD")
                ),
                span: d.span,
                kind: FixKind::DropCache,
                var,
            },
            lint::PARTITIONER_LOSS => Fix {
                rule: d.rule,
                title: "Rewrite key-preserving `map` to `mapValues`".to_string(),
                span: d.span,
                kind: FixKind::MapToMapValues,
                var,
            },
            _ => continue,
        };
        // Only offer fixes that will actually land on this AST.
        if apply_fix(&mut prog.clone(), &fix) {
            out.push(fix);
        }
    }
    out
}

/// Apply one fix in place. Returns `false` (AST untouched) when the
/// anchor cannot be located or the rewrite's side conditions fail.
pub fn apply_fix(prog: &mut Program, fix: &Fix) -> bool {
    match fix.kind {
        FixKind::InsertCache => insert_cache(prog, fix.span),
        FixKind::DropCache => drop_cache(prog, fix.span, fix.var.as_deref()),
        FixKind::MapToMapValues => map_to_mapvalues(prog, fix.span),
    }
}

/// Drive plan → apply → re-analyze to a fixpoint, then prove the result
/// lineage-equivalent to the input (modulo cache flags and the
/// `map`→`mapValues` swap) before returning it.
pub fn apply_fixes(source: &str) -> Result<FixOutcome, FixError> {
    let mut prog = parse(source).map_err(FixError::Parse)?;
    let orig_flow = analyze(&prog);
    let mut applied = Vec::new();
    let mut passes = 0usize;
    loop {
        let flow = analyze(&prog);
        let fixes = plan_fixes(&prog, &flow);
        let mut landed = 0usize;
        for f in fixes {
            if apply_fix(&mut prog, &f) {
                applied.push(f);
                landed += 1;
            }
        }
        if landed == 0 {
            break;
        }
        passes += 1;
        if passes >= MAX_FIX_PASSES {
            return Err(FixError::NoConvergence);
        }
    }
    let fixed = prog.pretty();
    let reparsed = parse(&fixed).map_err(FixError::Parse)?;
    let new_flow = analyze(&reparsed);
    lineage_equivalent(&orig_flow, &new_flow).map_err(FixError::Unsafe)?;
    Ok(FixOutcome { source: fixed, applied, passes, remaining: lint::run_lints(&new_flow) })
}

// ---------------------------------------------------------------------------
// Rewrites
// ---------------------------------------------------------------------------

/// Walk every expression (pre-order, including nested statements); `f`
/// returns `true` once it has rewritten its target, which stops the walk.
fn rewrite_first(prog: &mut Program, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    for s in &mut prog.stmts {
        if rewrite_stmt(s, f) {
            return true;
        }
    }
    false
}

fn rewrite_stmt(s: &mut Stmt, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    match s {
        Stmt::Val { value, .. } => rewrite_expr(value, f),
        Stmt::Expr(e) => rewrite_expr(e, f),
    }
}

fn rewrite_expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    if f(e) {
        return true;
    }
    match e {
        Expr::Ident(..)
        | Expr::Num(..)
        | Expr::Str(..)
        | Expr::Interp(..)
        | Expr::Char(..)
        | Expr::Under(..) => false,
        Expr::New { args, .. } => args.iter_mut().flatten().any(|a| rewrite_expr(&mut a.value, f)),
        Expr::Field { recv, .. } => rewrite_expr(recv, f),
        Expr::Method { recv, args, .. } => {
            rewrite_expr(recv, f) || args.iter_mut().any(|a| rewrite_expr(&mut a.value, f))
        }
        Expr::Apply { f: callee, args, .. } => {
            rewrite_expr(callee, f) || args.iter_mut().any(|a| rewrite_expr(&mut a.value, f))
        }
        Expr::Lambda { body, .. } => rewrite_expr(body, f),
        Expr::Cases(cs, _) => cs.iter_mut().any(|c| rewrite_expr(&mut c.body, f)),
        Expr::Block(stmts, _) => stmts.iter_mut().any(|s| rewrite_stmt(s, f)),
        Expr::Tuple(es, _) => es.iter_mut().any(|x| rewrite_expr(x, f)),
        Expr::Binary { lhs, rhs, .. } => rewrite_expr(lhs, f) || rewrite_expr(rhs, f),
        Expr::Unary { expr, .. } => rewrite_expr(expr, f),
        Expr::Match { scrutinee, cases, .. } => {
            rewrite_expr(scrutinee, f) || cases.iter_mut().any(|c| rewrite_expr(&mut c.body, f))
        }
    }
}

fn insert_cache(prog: &mut Program, target: Span) -> bool {
    rewrite_first(prog, &mut |e| {
        let s = e.span();
        if s.start != target.start || s.end != target.end {
            return false;
        }
        // Don't double-wrap if the walk revisits the wrapper we made.
        if let Expr::Method { name, .. } = e {
            if name == "cache" || name == "persist" {
                return false;
            }
        }
        let recv = std::mem::replace(e, Expr::Under(s));
        *e = Expr::Method {
            recv: Box::new(recv),
            name: "cache".to_string(),
            args: Vec::new(),
            brace: false,
            span: s,
        };
        true
    })
}

fn drop_cache(prog: &mut Program, target: Span, var: Option<&str>) -> bool {
    let matches_target = |recv: &Expr| {
        let rs = recv.span();
        if rs.start == target.start && rs.end == target.end {
            return true;
        }
        // Statement-form `x.cache()`: the receiver is the bound name, not
        // the defining expression the diagnostic points at.
        matches!((recv, var), (Expr::Ident(n, _), Some(v)) if n.as_str() == v)
    };
    // A cache call that is an entire statement is removed outright —
    // unwrapping it would leave a pointless bare-identifier statement.
    for i in 0..prog.stmts.len() {
        if let Stmt::Expr(Expr::Method { recv, name, .. }) = &prog.stmts[i] {
            if (name == "cache" || name == "persist") && matches_target(recv) {
                prog.stmts.remove(i);
                return true;
            }
        }
    }
    rewrite_first(prog, &mut |e| {
        let Expr::Method { recv, name, .. } = e else { return false };
        if name != "cache" && name != "persist" {
            return false;
        }
        if !matches_target(recv) {
            return false;
        }
        let inner = std::mem::replace(&mut **recv, Expr::Under(Span::default()));
        *e = inner;
        true
    })
}

fn map_to_mapvalues(prog: &mut Program, target: Span) -> bool {
    rewrite_first(prog, &mut |e| {
        let replacement = {
            let Expr::Method { recv, name, args, span, .. } = &*e else { return false };
            if name != "map" || span.start != target.start || span.end != target.end {
                return false;
            }
            let [Arg { name: None, value: Expr::Cases(cases, cspan) }] = args.as_slice() else {
                return false;
            };
            let [crate::ast::Case { pat: Pat::Tuple(ps), body: Expr::Tuple(es, _) }] =
                cases.as_slice()
            else {
                return false;
            };
            let ([Pat::Ident(k), vpat], [Expr::Ident(k2, _), value]) =
                (ps.as_slice(), es.as_slice())
            else {
                return false;
            };
            if k != k2 || !matches!(vpat, Pat::Ident(_) | Pat::Wild) {
                return false;
            }
            // The value expression must not capture the key — `mapValues`
            // would leave it unbound.
            if references_ident(value, k) {
                return false;
            }
            let lambda = Expr::Lambda {
                params: vec![vpat.clone()],
                body: Box::new(value.clone()),
                span: *cspan,
            };
            Expr::Method {
                recv: recv.clone(),
                name: "mapValues".to_string(),
                args: vec![Arg { name: None, value: lambda }],
                brace: false,
                span: *span,
            }
        };
        *e = replacement;
        true
    })
}

/// Conservative free-occurrence check: any `Ident(name)` anywhere in `e`
/// counts (shadowing is ignored on purpose — a false positive only skips
/// a fix, never corrupts one).
fn references_ident(e: &Expr, name: &str) -> bool {
    let mut found = false;
    // `rewrite_expr` on a clone doubles as a read-only walker.
    rewrite_expr(&mut e.clone(), &mut |x| {
        if matches!(x, Expr::Ident(n, _) if n == name) {
            found = true;
        }
        found
    });
    found
}

// ---------------------------------------------------------------------------
// Lineage equivalence
// ---------------------------------------------------------------------------

/// Structural lineage comparison: node graph (parents, ops, bindings),
/// action sites, and library calls must match; `cached`, trigger
/// accounting, and partitioner flags are exactly the intended deltas and
/// are ignored. A key-preserving `map` and `mapValues` compare equal —
/// that swap is the one op rewrite fixes perform.
pub fn lineage_equivalent(a: &Flow, b: &Flow) -> Result<(), String> {
    if a.app_name != b.app_name {
        return Err("app name changed".to_string());
    }
    if a.nodes.len() != b.nodes.len() {
        return Err(format!("node count {} -> {}", a.nodes.len(), b.nodes.len()));
    }
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        if x.parent != y.parent {
            return Err(format!("node {}: parent changed", x.id));
        }
        if x.var_name != y.var_name {
            return Err(format!("node {}: binding changed", x.id));
        }
        if !ops_equivalent(&x.op, &y.op) {
            return Err(format!("node {}: op {:?} -> {:?}", x.id, x.op, y.op));
        }
    }
    if a.actions.len() != b.actions.len()
        || a.actions.iter().zip(&b.actions).any(|(x, y)| x.kind != y.kind || x.node != y.node)
    {
        return Err("action sites changed".to_string());
    }
    if a.calls.len() != b.calls.len()
        || a.calls
            .iter()
            .zip(&b.calls)
            .any(|(x, y)| x.api != y.api || x.input != y.input || x.result != y.result)
    {
        return Err("library call sites changed".to_string());
    }
    Ok(())
}

fn ops_equivalent(a: &ChainOp, b: &ChainOp) -> bool {
    let key_preserving =
        |op: &ChainOp| matches!(op, ChainOp::MapValues | ChainOp::Map { key_preserving: true, .. });
    a == b || (key_preserving(a) && key_preserving(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{PARTITIONER_LOSS, SINGLE_USE_CACHE, UNCACHED_REUSE};

    const PRELUDE: &str = "val sc = new SparkContext(sparkConf)\n";

    fn fixable_rules(source: &str) -> Vec<&'static str> {
        let prog = parse(source).expect("parse");
        let flow = analyze(&prog);
        plan_fixes(&prog, &flow).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn insert_cache_resolves_uncached_reuse() {
        let src = format!(
            "{PRELUDE}val parsed = sc.textFile(p).map(x => x)\nval a = parsed.count\nval b = parsed.count\n"
        );
        assert_eq!(fixable_rules(&src), vec![UNCACHED_REUSE]);
        let out = apply_fixes(&src).expect("fixes apply");
        assert!(out.source.contains("sc.textFile(p).map(x => x).cache()"));
        assert_eq!(out.passes, 1);
        assert!(out.remaining.is_empty());
    }

    #[test]
    fn drop_cache_resolves_single_use_cache() {
        let src =
            format!("{PRELUDE}val data = sc.textFile(p).map(x => x).cache()\nval n = data.count\n");
        assert_eq!(fixable_rules(&src), vec![SINGLE_USE_CACHE]);
        let out = apply_fixes(&src).expect("fixes apply");
        assert!(!out.source.contains("cache"));
        assert!(out.remaining.is_empty());
    }

    #[test]
    fn drop_cache_removes_statement_form_calls() {
        let src = format!(
            "{PRELUDE}val data = sc.textFile(p).map(x => x)\ndata.cache()\nval n = data.count\n"
        );
        let out = apply_fixes(&src).expect("fixes apply");
        assert!(!out.source.contains("cache"));
        assert!(out.remaining.is_empty());
    }

    #[test]
    fn map_rewrites_to_mapvalues_and_keeps_the_partitioner() {
        let src = format!(
            "{PRELUDE}val part = sc.textFile(p).keyBy(f).partitionBy(h)\n\
             val bumped = part.map {{ case (k, v) => (k, g(v)) }}\n\
             val out = bumped.reduceByKey(g).count\n"
        );
        assert!(fixable_rules(&src).contains(&PARTITIONER_LOSS));
        let out = apply_fixes(&src).expect("fixes apply");
        assert!(out.source.contains("part.mapValues(v => g(v))"));
        assert!(out.remaining.iter().all(|d| d.rule != PARTITIONER_LOSS));
    }

    #[test]
    fn map_rewrite_skipped_when_value_captures_the_key() {
        let src = format!(
            "{PRELUDE}val part = sc.textFile(p).keyBy(f).partitionBy(h)\n\
             val bumped = part.map {{ case (k, v) => (k, g(k, v)) }}\n\
             val out = bumped.reduceByKey(g).count\n"
        );
        assert!(!fixable_rules(&src).contains(&PARTITIONER_LOSS));
        let out = apply_fixes(&src).expect("nothing to do is fine");
        assert!(out.remaining.iter().any(|d| d.rule == PARTITIONER_LOSS));
    }

    #[test]
    fn cascaded_cache_edits_converge_in_two_passes() {
        // Caching `b` (pass 1) starves the upstream cache on `a`, which
        // pass 2 then drops — the canonical two-pass cascade.
        let src = format!(
            "{PRELUDE}val a = sc.textFile(p).map(x => x).cache()\n\
             val b = a.filter(f)\n\
             val n = b.count\nval m = b.count\n"
        );
        let out = apply_fixes(&src).expect("fixes apply");
        assert_eq!(out.passes, 2);
        assert!(out.source.contains("a.filter(f).cache()"));
        assert!(!out.source.contains("map(x => x).cache()"));
        assert!(out.remaining.is_empty());
    }
}

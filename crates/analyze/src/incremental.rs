//! Incremental re-analysis with statement-level memoization.
//!
//! [`DocAnalyzer`] keeps a parsed-chunk cache keyed by chunk text, so a
//! single-edit update re-parses only the top-level statements the edit
//! touched; untouched chunks are cloned out of the cache with their spans
//! rebased to the new document position. Dataflow and linting always run
//! over the full reassembled program — they are linear and cheap next to
//! parsing, and re-running them keeps cross-statement facts (trigger
//! accounting, lineage) exact.
//!
//! Chunking is lexical: a new chunk starts at a line break where the
//! running paren/brace depth is zero and the token shapes on both sides
//! rule out a statement continuation (`.count` on the next line, a
//! trailing binary operator, an argument list spilling over). A split
//! that is too conservative only merges chunks — correctness never
//! depends on the boundaries, and `tests/fix_props.rs` property-checks
//! that the incremental result equals a from-scratch parse, spans
//! included.
//!
//! Parse errors are per-chunk and non-fatal: a broken statement becomes a
//! [`SYNTAX_ERROR`](crate::lint::SYNTAX_ERROR) diagnostic while every
//! other statement still parses, flows, and lints — exactly what an LSP
//! needs from code that is mid-edit.

use crate::ast::Program;
use crate::dataflow::{analyze, Flow};
use crate::lex::{lex, Span, Tok, TokKind};
use crate::lint::{run_lints, Diagnostic, SYNTAX_ERROR};
use crate::parse::parse;
use std::collections::HashMap;

/// Result of analyzing one document snapshot. Never an error: broken
/// code surfaces as `syntax-error` diagnostics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The parsed program (statements from unparseable chunks omitted).
    pub program: Program,
    /// Dataflow over `program`.
    pub flow: Flow,
    /// Syntax errors first (document order), then lint findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Cache accounting for the update that produced this analysis.
    pub stats: IncrementalStats,
}

/// Chunk-cache accounting for one update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Top-level chunks in the document.
    pub chunks: usize,
    /// Chunks parsed from scratch this update.
    pub reparsed: usize,
    /// Chunks served from the memo cache.
    pub reused: usize,
}

#[derive(Clone)]
struct ChunkEntry {
    /// Statements parsed from the chunk text in isolation (spans are
    /// chunk-relative).
    stmts: Vec<crate::ast::Stmt>,
    /// Parse failure for this chunk, if any (span chunk-relative).
    error: Option<(String, Span)>,
}

/// A stateful analyzer for one evolving document.
#[derive(Default)]
pub struct DocAnalyzer {
    cache: HashMap<u64, ChunkEntry>,
}

impl DocAnalyzer {
    /// An analyzer with an empty chunk cache.
    pub fn new() -> DocAnalyzer {
        DocAnalyzer::default()
    }

    /// Analyze a document snapshot, reusing chunk parses from previous
    /// updates where the text is unchanged.
    pub fn update(&mut self, source: &str) -> Analysis {
        let toks = lex(source);
        let chunks = chunk_boundaries(&toks);
        let mut next_cache = HashMap::with_capacity(chunks.len());
        let mut program = Program { stmts: Vec::new() };
        let mut syntax = Vec::new();
        let mut stats = IncrementalStats { chunks: chunks.len(), ..Default::default() };

        for c in &chunks {
            let first = &toks[c.start_tok];
            let text = &source[c.start_byte..c.end_byte];
            let key = fnv1a(text.as_bytes());
            let entry = match self.cache.remove(&key) {
                Some(e) => {
                    stats.reused += 1;
                    e
                }
                None => match next_cache.get(&key) {
                    // Duplicate chunk text within one document: the parse
                    // is content-addressed, clone it.
                    Some(e) => {
                        stats.reused += 1;
                        ChunkEntry::clone(e)
                    }
                    None => {
                        stats.reparsed += 1;
                        parse_chunk(text)
                    }
                },
            };
            let base = RebaseOffsets {
                byte: c.start_byte,
                line: first.span.line - 1,
                first_line_col: first.span.col - 1,
            };
            let mut chunk_prog = Program { stmts: entry.stmts.clone() };
            chunk_prog.map_spans(&mut |s| base.rebase(s));
            program.stmts.extend(chunk_prog.stmts);
            if let Some((msg, span)) = &entry.error {
                let mut span = *span;
                base.rebase(&mut span);
                syntax.push(Diagnostic { rule: SYNTAX_ERROR, message: msg.clone(), span });
            }
            next_cache.insert(key, entry);
        }
        self.cache = next_cache;

        let flow = analyze(&program);
        let mut diagnostics = syntax;
        diagnostics.extend(run_lints(&flow));
        Analysis { program, flow, diagnostics, stats }
    }
}

/// One-shot convenience: analyze a source snapshot with no memo state.
/// It never fails — parse errors come back as `syntax-error` diagnostics.
pub fn analyze_source(source: &str) -> Analysis {
    DocAnalyzer::new().update(source)
}

/// Offsets that relocate a chunk-relative span into the document.
struct RebaseOffsets {
    byte: usize,
    line: u32,
    /// Column shift for spans on the chunk's first line (a chunk may
    /// start mid-line after indentation).
    first_line_col: u32,
}

impl RebaseOffsets {
    fn rebase(&self, s: &mut Span) {
        if s == &Span::default() {
            // Spans synthesized by rewrites carry no position; leave them.
            return;
        }
        s.start += self.byte;
        s.end += self.byte;
        if s.line == 1 {
            s.col += self.first_line_col;
        }
        s.line += self.line;
    }
}

struct Chunk {
    start_tok: usize,
    start_byte: usize,
    end_byte: usize,
}

/// Split the token stream into top-level statement chunks.
///
/// A boundary sits before token `t` when the bracket depth is zero, `t`
/// starts a later line than the previous token ends on, the previous
/// token can end a statement (ident/number/string or a closing bracket),
/// and `t` can begin one (ident/number/string — never `.`, an operator,
/// or an opening bracket, which all mark continuations).
fn chunk_boundaries(toks: &[Tok]) -> Vec<Chunk> {
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut depth: i32 = 0;
    for (i, t) in toks.iter().enumerate() {
        let boundary = match i.checked_sub(1).map(|p| &toks[p]) {
            None => true,
            Some(prev) => {
                depth == 0
                    && t.span.line > prev.span.line
                    && can_end_stmt(prev)
                    && can_start_stmt(t)
            }
        };
        if boundary {
            chunks.push(Chunk { start_tok: i, start_byte: t.span.start, end_byte: t.span.end });
        } else if let Some(c) = chunks.last_mut() {
            c.end_byte = c.end_byte.max(t.span.end);
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "{" => depth += 1,
                ")" | "}" => depth = (depth - 1).max(0),
                _ => {}
            }
        }
    }
    chunks
}

fn can_end_stmt(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Str)
        || matches!(t.text.as_str(), ")" | "}")
}

fn can_start_stmt(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Str)
}

fn parse_chunk(text: &str) -> ChunkEntry {
    match parse(text) {
        Ok(prog) => ChunkEntry { stmts: prog.stmts, error: None },
        Err(e) => ChunkEntry { stmts: Vec::new(), error: Some((e.msg, e.span)) },
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "val sc = new SparkContext(sparkConf)\n\
                       val parsed = sc.textFile(p).map(x => x)\n\
                       val a = parsed.count\n\
                       val b = parsed.count\n";

    #[test]
    fn incremental_matches_from_scratch_including_spans() {
        let mut doc = DocAnalyzer::new();
        let cold = doc.update(SRC);
        assert_eq!(cold.program, parse(SRC).expect("full parse"));
        // Warm path: identical text must reuse every chunk and still
        // rebase to identical spans.
        let warm = doc.update(SRC);
        assert_eq!(warm.program, parse(SRC).expect("full parse"));
        assert_eq!(warm.stats.reparsed, 0);
        assert_eq!(warm.stats.reused, warm.stats.chunks);
    }

    #[test]
    fn single_edit_reparses_one_chunk() {
        let mut doc = DocAnalyzer::new();
        doc.update(SRC);
        let edited = SRC.replace("val a = parsed.count", "val a = parsed.first");
        let out = doc.update(&edited);
        assert_eq!(out.stats.reparsed, 1);
        assert_eq!(out.stats.reused, out.stats.chunks - 1);
        assert_eq!(out.program, parse(&edited).expect("full parse"));
    }

    #[test]
    fn broken_statement_degrades_to_a_syntax_error_diagnostic() {
        let mut doc = DocAnalyzer::new();
        let broken = SRC.replace("val b = parsed.count", "val b = parsed.count(");
        let out = doc.update(&broken);
        let syn: Vec<_> = out.diagnostics.iter().filter(|d| d.rule == SYNTAX_ERROR).collect();
        assert_eq!(syn.len(), 1);
        assert_eq!(syn[0].span.line, 4);
        // The other statements still parse and lint: `parsed` now has a
        // single trigger site, so uncached-reuse stays quiet, but the
        // program itself is intact.
        assert_eq!(out.program.stmts.len(), 3);
    }

    #[test]
    fn multi_line_statements_stay_in_one_chunk() {
        let src = "val sc = new SparkContext(sparkConf)\n\
                   val x = sc.textFile(p)\n  .map(x => x)\n\
                   val n = x.count\n";
        let out = analyze_source(src);
        assert_eq!(out.program, parse(src).expect("full parse"));
        assert_eq!(out.stats.chunks, 3);
    }

    #[test]
    fn indented_first_line_rebases_columns() {
        let src = "val sc = new SparkContext(sparkConf)\n  val n = sc.textFile(p).count\n";
        let out = analyze_source(src);
        assert_eq!(out.program, parse(src).expect("full parse"));
    }

    #[test]
    fn empty_and_comment_only_sources_are_clean() {
        for src in ["", "\n\n", "// just a comment\n"] {
            let out = analyze_source(src);
            assert!(out.program.stmts.is_empty());
            assert!(out.diagnostics.is_empty());
        }
    }
}

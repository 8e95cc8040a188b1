//! lite-lsp: a dependency-free Language Server Protocol server exposing
//! the static analysis plane interactively.
//!
//! Three capabilities, all built on `lite-analyze`'s incremental layer:
//!
//! * **publishDiagnostics** — the five semantic lints plus `syntax-error`
//!   chunk diagnostics, re-run through the memoizing [`DocAnalyzer`] on
//!   every `didChange` (full-document sync);
//! * **codeAction** — machine-applicable quick fixes from the auto-fix
//!   engine (`insert .cache()`, drop single-use caches, `map` →
//!   `mapValues`), each delivered as a whole-document edit through the
//!   canonical pretty-printer, plus a fix-all action running the engine
//!   to its fixpoint;
//! * **hover** — the NECS-predicted runtime of the document's extracted
//!   stage plan under the current best candidate configuration (batched
//!   scorer; see [`hover`]).
//!
//! Transport is JSON-RPC 2.0 over stdio with `Content-Length` framing
//! ([`read_message`] / [`write_message`]), serialized with the
//! workspace's own [`lite_obs::json::Json`] — no external JSON or LSP
//! crates. The server core ([`LspServer::handle`]) is a pure
//! message-in/messages-out function, so the scripted session test drives
//! it through the real binary and stdio alone.

pub mod hover;

use lite_analyze::fix::{apply_fix, apply_fixes, plan_fixes};
use lite_analyze::lint::{Diagnostic, SYNTAX_ERROR};
use lite_analyze::parse::parse;
use lite_analyze::DocAnalyzer;
use lite_obs::json::Json;
use lite_obs::Registry;
use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

/// Read one `Content-Length`-framed JSON-RPC message. `Ok(None)` on a
/// clean EOF before any header.
pub fn read_message(r: &mut impl BufRead) -> io::Result<Option<Json>> {
    let mut len: Option<usize> = None;
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if len.is_some() {
                break;
            }
            continue; // stray blank line between messages
        }
        if let Some(v) = trimmed.strip_prefix("Content-Length:") {
            len = v.trim().parse().ok();
        }
    }
    let n = len.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing length"))?;
    // The header is the peer's claim: the buffer grows with the bytes that
    // actually arrive, never to the claimed length up front.
    let mut buf = Vec::new();
    r.take(n as u64).read_to_end(&mut buf)?;
    if buf.len() < n {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "body shorter than its length"));
    }
    let text = String::from_utf8(buf)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON: {e:?}")))
}

/// Write one framed JSON-RPC message and flush.
pub fn write_message(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let body = msg.render();
    write!(w, "Content-Length: {}\r\n\r\n{body}", body.len())?;
    w.flush()
}

/// 0-based (line, character) of a byte offset, clamped to the text.
fn position_at(text: &str, byte: usize) -> (usize, usize) {
    let upto = &text.as_bytes()[..byte.min(text.len())];
    let line = upto.iter().filter(|&&b| b == b'\n').count();
    let col = upto.len() - upto.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    (line, col)
}

fn pos_json((line, character): (usize, usize)) -> Json {
    Json::obj(vec![("line", Json::UInt(line as u64)), ("character", Json::UInt(character as u64))])
}

fn range_json(start: (usize, usize), end: (usize, usize)) -> Json {
    Json::obj(vec![("start", pos_json(start)), ("end", pos_json(end))])
}

fn diag_json(text: &str, d: &Diagnostic) -> Json {
    // Lint spans carry a 1-based start line/col plus byte offsets; the
    // end position only exists as a byte offset.
    let start = if d.span.line > 0 {
        (d.span.line as usize - 1, d.span.col.saturating_sub(1) as usize)
    } else {
        position_at(text, d.span.start)
    };
    let end = if d.span.end > d.span.start { position_at(text, d.span.end) } else { start };
    let severity = if d.rule == SYNTAX_ERROR { 1 } else { 2 };
    Json::obj(vec![
        ("range", range_json(start, end)),
        ("severity", Json::Int(severity)),
        ("code", Json::Str(d.rule.to_string())),
        ("source", Json::Str("lite".to_string())),
        ("message", Json::Str(d.message.clone())),
    ])
}

/// One open document: current text plus its memoizing analyzer.
struct DocState {
    text: String,
    analyzer: DocAnalyzer,
    diagnostics: Vec<Diagnostic>,
}

/// The server core. Feed it decoded messages; it returns the framed-ready
/// replies (responses and notifications) in order.
pub struct LspServer {
    docs: HashMap<String, DocState>,
    scorer: hover::ScorerHandle,
    metrics: Registry,
    exited: bool,
}

impl Default for LspServer {
    fn default() -> Self {
        Self::new(hover::ScorerConfig::from_env())
    }
}

impl LspServer {
    pub fn new(scorer_cfg: hover::ScorerConfig) -> LspServer {
        LspServer {
            docs: HashMap::new(),
            scorer: hover::ScorerHandle::new(scorer_cfg),
            metrics: Registry::new(),
            exited: false,
        }
    }

    /// True once an `exit` notification arrived; the stdio loop stops.
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Metrics registry backing the `lsp.*` series.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Process one incoming message; returns outgoing messages in order.
    pub fn handle(&mut self, msg: &Json) -> Vec<Json> {
        self.metrics.counter("lsp.requests").inc();
        let method = msg.get("method").and_then(|m| m.as_str()).unwrap_or("").to_string();
        let id = msg.get("id").cloned();
        let params = msg.get("params").cloned().unwrap_or(Json::Null);
        match method.as_str() {
            "initialize" => vec![response(id, capabilities())],
            "initialized" | "$/cancelRequest" | "textDocument/didSave" => vec![],
            "textDocument/didOpen" => {
                let doc = params.get("textDocument").cloned().unwrap_or(Json::Null);
                let uri = str_field(&doc, "uri");
                let text = str_field(&doc, "text");
                self.update_doc(&uri, text)
            }
            "textDocument/didChange" => {
                let uri =
                    str_field(&params.get("textDocument").cloned().unwrap_or(Json::Null), "uri");
                // Full sync: the last content change wins.
                let text = params
                    .get("contentChanges")
                    .and_then(|c| c.as_arr())
                    .and_then(|a| a.last())
                    .map(|c| str_field(c, "text"))
                    .unwrap_or_default();
                self.update_doc(&uri, text)
            }
            "textDocument/didClose" => {
                let uri =
                    str_field(&params.get("textDocument").cloned().unwrap_or(Json::Null), "uri");
                self.docs.remove(&uri);
                vec![publish(&uri, Json::Arr(Vec::new()))]
            }
            "textDocument/hover" => {
                self.metrics.counter("lsp.hover").inc();
                let uri =
                    str_field(&params.get("textDocument").cloned().unwrap_or(Json::Null), "uri");
                let result = self
                    .docs
                    .get(&uri)
                    .and_then(|d| self.scorer.hover(&d.text))
                    .map(|value| {
                        Json::obj(vec![(
                            "contents",
                            Json::obj(vec![
                                ("kind", Json::Str("markdown".to_string())),
                                ("value", Json::Str(value)),
                            ]),
                        )])
                    })
                    .unwrap_or(Json::Null);
                vec![response(id, result)]
            }
            "textDocument/codeAction" => {
                let uri =
                    str_field(&params.get("textDocument").cloned().unwrap_or(Json::Null), "uri");
                let actions = self.code_actions(&uri);
                self.metrics.counter("lsp.code_actions").add(actions.len() as u64);
                vec![response(id, Json::Arr(actions))]
            }
            "shutdown" => vec![response(id, Json::Null)],
            "exit" => {
                self.exited = true;
                vec![]
            }
            _ if id.is_some() => vec![error_response(id, -32601, "method not found")],
            _ => vec![],
        }
    }

    fn update_doc(&mut self, uri: &str, text: String) -> Vec<Json> {
        let entry = self.docs.entry(uri.to_string()).or_insert_with(|| DocState {
            text: String::new(),
            analyzer: DocAnalyzer::new(),
            diagnostics: Vec::new(),
        });
        let t0 = Instant::now();
        let analysis = entry.analyzer.update(&text);
        self.metrics.histogram("lsp.update_us").record(t0.elapsed().as_micros() as u64);
        entry.text = text;
        entry.diagnostics = analysis.diagnostics;
        let payload =
            Json::Arr(entry.diagnostics.iter().map(|d| diag_json(&entry.text, d)).collect());
        self.metrics.counter("lsp.diagnostics_published").add(entry.diagnostics.len() as u64);
        vec![publish(uri, payload)]
    }

    /// Quick-fix actions for a document: one per planned fix, plus a
    /// fix-all running the engine to its fixpoint. Every edit is a
    /// whole-document replacement through the canonical printer — the
    /// only edit shape whose result is guaranteed to re-parse.
    fn code_actions(&self, uri: &str) -> Vec<Json> {
        let Some(doc) = self.docs.get(uri) else { return Vec::new() };
        let Ok(prog) = parse(&doc.text) else { return Vec::new() };
        let flow = lite_analyze::dataflow::analyze(&prog);
        let fixes = plan_fixes(&prog, &flow);
        let mut actions = Vec::new();
        for f in &fixes {
            let mut patched = prog.clone();
            if !apply_fix(&mut patched, f) {
                continue;
            }
            actions.push(action_json(uri, &doc.text, &f.title, &patched.pretty()));
        }
        if fixes.len() > 1 {
            if let Ok(out) = apply_fixes(&doc.text) {
                if !out.applied.is_empty() {
                    let title = format!("Fix all ({} fixes)", out.applied.len());
                    actions.push(action_json(uri, &doc.text, &title, &out.source));
                }
            }
        }
        actions
    }
}

fn str_field(obj: &Json, key: &str) -> String {
    obj.get(key).and_then(|v| v.as_str()).unwrap_or("").to_string()
}

fn response(id: Option<Json>, result: Json) -> Json {
    Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", id.unwrap_or(Json::Null)),
        ("result", result),
    ])
}

fn error_response(id: Option<Json>, code: i64, message: &str) -> Json {
    Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("id", id.unwrap_or(Json::Null)),
        (
            "error",
            Json::obj(vec![("code", Json::Int(code)), ("message", Json::Str(message.to_string()))]),
        ),
    ])
}

fn publish(uri: &str, diagnostics: Json) -> Json {
    Json::obj(vec![
        ("jsonrpc", Json::Str("2.0".to_string())),
        ("method", Json::Str("textDocument/publishDiagnostics".to_string())),
        (
            "params",
            Json::obj(vec![("uri", Json::Str(uri.to_string())), ("diagnostics", diagnostics)]),
        ),
    ])
}

fn capabilities() -> Json {
    Json::obj(vec![(
        "capabilities",
        Json::obj(vec![
            ("textDocumentSync", Json::Int(1)), // full-document sync
            ("hoverProvider", Json::Bool(true)),
            ("codeActionProvider", Json::Bool(true)),
        ]),
    )])
}

fn action_json(uri: &str, old_text: &str, title: &str, new_text: &str) -> Json {
    let full = range_json((0, 0), position_at(old_text, old_text.len()));
    let edit = Json::obj(vec![(
        "changes",
        Json::Obj(vec![(
            uri.to_string(),
            Json::Arr(vec![Json::obj(vec![
                ("range", full),
                ("newText", Json::Str(new_text.to_string())),
            ])]),
        )]),
    )]);
    Json::obj(vec![
        ("title", Json::Str(title.to_string())),
        ("kind", Json::Str("quickfix".to_string())),
        ("edit", edit),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: i64, method: &str, params: Json) -> Json {
        Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("id", Json::Int(id)),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ])
    }

    fn notif(method: &str, params: Json) -> Json {
        Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ])
    }

    fn open(uri: &str, text: &str) -> Json {
        notif(
            "textDocument/didOpen",
            Json::obj(vec![(
                "textDocument",
                Json::obj(vec![
                    ("uri", Json::Str(uri.to_string())),
                    ("text", Json::Str(text.to_string())),
                ]),
            )]),
        )
    }

    const DEFECT: &str = "val sc = new SparkContext(sparkConf)\n\
                          val parsed = sc.textFile(p).map(x => x)\n\
                          val a = parsed.count\n\
                          val b = parsed.count\n";

    #[test]
    fn framing_round_trips() {
        let msg = req(7, "shutdown", Json::Null);
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let back = read_message(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.render(), msg.render());
        // EOF is a clean None.
        assert!(read_message(&mut &b""[..]).unwrap().is_none());
    }

    #[test]
    fn did_open_publishes_lint_diagnostics_with_zero_based_ranges() {
        let mut srv = LspServer::new(hover::ScorerConfig::quick());
        let out = srv.handle(&open("file:///a.scala", DEFECT));
        assert_eq!(out.len(), 1);
        let diags = out[0].get("params").unwrap().get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("uncached-reuse"));
        // `parsed` is defined on 1-based line 2 → LSP line 1.
        let start = diags[0].get("range").unwrap().get("start").unwrap();
        assert_eq!(start.get("line").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn code_actions_resolve_the_diagnostic_they_fix() {
        let mut srv = LspServer::new(hover::ScorerConfig::quick());
        let uri = "file:///a.scala";
        srv.handle(&open(uri, DEFECT));
        let out = srv.handle(&req(
            2,
            "textDocument/codeAction",
            Json::obj(vec![("textDocument", Json::obj(vec![("uri", Json::Str(uri.to_string()))]))]),
        ));
        let actions = out[0].get("result").unwrap().as_arr().unwrap();
        assert_eq!(actions.len(), 1, "one planned fix, no fix-all for a single fix");
        let Json::Obj(changes) = actions[0].get("edit").unwrap().get("changes").unwrap() else {
            panic!("changes must be an object keyed by uri");
        };
        let new_text = changes[0].1.as_arr().unwrap()[0].get("newText").unwrap().as_str().unwrap();
        assert!(new_text.contains(".cache()"));
        // Applying the edit clears the diagnostic.
        let out = srv.handle(&notif(
            "textDocument/didChange",
            Json::obj(vec![
                ("textDocument", Json::obj(vec![("uri", Json::Str(uri.to_string()))])),
                (
                    "contentChanges",
                    Json::Arr(vec![Json::obj(vec![("text", Json::Str(new_text.to_string()))])]),
                ),
            ]),
        ));
        let diags = out[0].get("params").unwrap().get("diagnostics").unwrap().as_arr().unwrap();
        assert!(diags.is_empty(), "fix left diagnostics: {}", out[0].render());
    }

    #[test]
    fn broken_documents_publish_syntax_errors_not_crashes() {
        let mut srv = LspServer::new(hover::ScorerConfig::quick());
        let out = srv.handle(&open("file:///b.scala", "val broken = sc.textFile(\n"));
        let diags = out[0].get("params").unwrap().get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("syntax-error"));
        assert_eq!(diags[0].get("severity").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn lsp_metric_series_are_registered() {
        let mut srv = LspServer::new(hover::ScorerConfig::quick());
        srv.handle(&open("file:///a.scala", DEFECT));
        srv.handle(&req(1, "textDocument/codeAction", Json::Null));
        srv.handle(&req(2, "textDocument/hover", Json::Null));
        let snap = srv.metrics().snapshot();
        let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        for name in ["lsp.requests", "lsp.diagnostics_published", "lsp.hover", "lsp.code_actions"] {
            assert!(counters.contains(&name), "missing counter {name}: {counters:?}");
        }
        assert!(snap.histograms.iter().any(|(n, _)| n == "lsp.update_us"));
    }

    #[test]
    fn unknown_requests_get_method_not_found_and_exit_stops_the_loop() {
        let mut srv = LspServer::new(hover::ScorerConfig::quick());
        let out = srv.handle(&req(9, "textDocument/definition", Json::Null));
        let err = out[0].get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_f64(), Some(-32601.0));
        assert!(!srv.exited());
        srv.handle(&notif("exit", Json::Null));
        assert!(srv.exited());
    }
}

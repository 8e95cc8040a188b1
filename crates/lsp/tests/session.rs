//! Scripted end-to-end LSP session against the real `lite-lsp` binary
//! over stdio — the same transport an editor uses.
//!
//! The script: open a document seeded with all five lint violations,
//! check every rule is published; request code actions and apply the
//! fix-all edit; check only the non-mechanically-fixable rules remain and
//! no further quick fixes are offered; hover for the NECS-predicted
//! runtime; break the document and check a `syntax-error` diagnostic;
//! shut down cleanly. A second test feeds the binary hostile framing —
//! lying `Content-Length`s, truncated bodies, seeded rewrites of a valid
//! session — and requires an error or a clean exit, never a hang.

use lite_lsp::{read_message, write_message};
use lite_obs::json::Json;
use lite_sparksim::fault::mutate_bytes;
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const URI: &str = "file:///defects.scala";

/// Seeds all five rules: R1 on `parsed`, R2 on the `groupByKey` inside
/// `sums`, R3 on `all`, R4 on `bumped`, R5 on `data`. R1/R4/R5 are
/// mechanically fixable; R2/R3 are not.
const DEFECTS: &str = "\
val sc = new SparkContext(sparkConf)
val parsed = sc.textFile(p).map(x => x)
val a = parsed.count
val b = parsed.count
val sums = sc.textFile(q).map(x => x).groupByKey().mapValues(v => v)
val c = sums.count
val all = sc.textFile(r).map(x => x).collect()
val part = sc.textFile(s).keyBy(f).partitionBy(h)
val bumped = part.map { case (k, v) => (k, g(v)) }
val out = bumped.reduceByKey(g2).count
val data = sc.textFile(t).map(x => x).cache()
val n = data.count
";

struct Session {
    child: Child,
    stdin: ChildStdin,
    reader: BufReader<ChildStdout>,
    pending: VecDeque<Json>,
    next_id: i64,
}

impl Session {
    fn spawn() -> Session {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lite-lsp"))
            .env("LITE_LSP_QUICK", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn lite-lsp");
        let stdin = child.stdin.take().expect("piped stdin");
        let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        Session { child, stdin, reader, pending: VecDeque::new(), next_id: 0 }
    }

    fn notify(&mut self, method: &str, params: Json) {
        let msg = Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ]);
        write_message(&mut self.stdin, &msg).expect("write notification");
    }

    /// Send a request and block until its response arrives; interleaved
    /// notifications are queued for later inspection.
    fn request(&mut self, method: &str, params: Json) -> Json {
        self.next_id += 1;
        let id = self.next_id;
        let msg = Json::obj(vec![
            ("jsonrpc", Json::Str("2.0".to_string())),
            ("id", Json::Int(id)),
            ("method", Json::Str(method.to_string())),
            ("params", params),
        ]);
        write_message(&mut self.stdin, &msg).expect("write request");
        loop {
            let incoming = self.read();
            if incoming.get("id").and_then(|v| v.as_u64()) == Some(id as u64) {
                return incoming;
            }
            self.pending.push_back(incoming);
        }
    }

    fn read(&mut self) -> Json {
        read_message(&mut self.reader).expect("read from server").expect("server closed stream")
    }

    /// Next `publishDiagnostics` for [`URI`]: the queued one if a request
    /// already drained it, else the next message on the wire.
    fn diagnostics(&mut self) -> Vec<Json> {
        let msg = self.pending.pop_front().unwrap_or_else(|| self.read());
        assert_eq!(
            msg.get("method").and_then(|m| m.as_str()),
            Some("textDocument/publishDiagnostics"),
            "expected publishDiagnostics, got: {}",
            msg.render()
        );
        let params = msg.get("params").expect("params");
        assert_eq!(params.get("uri").and_then(|u| u.as_str()), Some(URI));
        params.get("diagnostics").and_then(|d| d.as_arr()).expect("diagnostics array").to_vec()
    }

    fn change(&mut self, text: &str) {
        self.notify(
            "textDocument/didChange",
            Json::obj(vec![
                ("textDocument", Json::obj(vec![("uri", Json::Str(URI.to_string()))])),
                (
                    "contentChanges",
                    Json::Arr(vec![Json::obj(vec![("text", Json::Str(text.to_string()))])]),
                ),
            ]),
        );
    }

    fn code_actions(&mut self) -> Vec<Json> {
        let resp = self.request(
            "textDocument/codeAction",
            Json::obj(vec![("textDocument", Json::obj(vec![("uri", Json::Str(URI.to_string()))]))]),
        );
        resp.get("result").and_then(|r| r.as_arr()).expect("actions array").to_vec()
    }
}

fn codes(diags: &[Json]) -> Vec<String> {
    let mut out: Vec<String> = diags
        .iter()
        .map(|d| d.get("code").and_then(|c| c.as_str()).expect("code").to_string())
        .collect();
    out.sort();
    out
}

#[test]
fn scripted_editor_session_end_to_end() {
    let mut s = Session::spawn();

    // Handshake.
    let init = s.request("initialize", Json::obj(vec![]));
    let caps = init.get("result").and_then(|r| r.get("capabilities")).expect("capabilities");
    assert_eq!(caps.get("hoverProvider").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(caps.get("codeActionProvider").and_then(|v| v.as_bool()), Some(true));
    s.notify("initialized", Json::obj(vec![]));

    // Open the seeded document: all five rules must be published.
    s.notify(
        "textDocument/didOpen",
        Json::obj(vec![(
            "textDocument",
            Json::obj(vec![
                ("uri", Json::Str(URI.to_string())),
                ("languageId", Json::Str("scala".to_string())),
                ("version", Json::Int(1)),
                ("text", Json::Str(DEFECTS.to_string())),
            ]),
        )]),
    );
    let opened = s.diagnostics();
    assert_eq!(
        codes(&opened),
        vec![
            "collect-unreduced",
            "partitioner-loss",
            "redundant-shuffle",
            "single-use-cache",
            "uncached-reuse",
        ],
        "all five rules fire on the seeded document"
    );

    // Three fixable diagnostics → three quick fixes plus a fix-all.
    let actions = s.code_actions();
    let titles: Vec<&str> =
        actions.iter().map(|a| a.get("title").and_then(|t| t.as_str()).unwrap()).collect();
    assert_eq!(actions.len(), 4, "3 quick fixes + fix-all, got: {titles:?}");
    let fix_all = actions
        .iter()
        .find(|a| a.get("title").and_then(|t| t.as_str()).is_some_and(|t| t.starts_with("Fix all")))
        .expect("fix-all action");
    let Json::Obj(changes) = fix_all.get("edit").and_then(|e| e.get("changes")).expect("edit")
    else {
        panic!("changes must be an object keyed by uri")
    };
    assert_eq!(changes[0].0, URI);
    let fixed_text = changes[0].1.as_arr().unwrap()[0]
        .get("newText")
        .and_then(|t| t.as_str())
        .expect("newText")
        .to_string();

    // Apply the edit: only the non-fixable rules survive, and the server
    // offers no further quick fixes (the fix engine hit its fixpoint).
    s.change(&fixed_text);
    let after = s.diagnostics();
    assert_eq!(codes(&after), vec!["collect-unreduced", "redundant-shuffle"]);
    assert!(s.code_actions().is_empty(), "no quick fixes after fixing");

    // Hover prices the document's stage plan with NECS.
    let hover = s.request(
        "textDocument/hover",
        Json::obj(vec![
            ("textDocument", Json::obj(vec![("uri", Json::Str(URI.to_string()))])),
            ("position", Json::obj(vec![("line", Json::Int(0)), ("character", Json::Int(0))])),
        ]),
    );
    let value = hover
        .get("result")
        .and_then(|r| r.get("contents"))
        .and_then(|c| c.get("value"))
        .and_then(|v| v.as_str())
        .expect("hover markdown");
    assert!(value.contains("NECS-predicted runtime"), "hover text: {value}");

    // Break the document: a span-carrying syntax-error diagnostic, not a
    // dead server.
    s.change("val broken = sc.textFile(\n");
    let broken = s.diagnostics();
    assert_eq!(codes(&broken), vec!["syntax-error"]);
    assert_eq!(broken[0].get("severity").and_then(|v| v.as_u64()), Some(1));

    // Clean shutdown.
    let bye = s.request("shutdown", Json::obj(vec![]));
    assert_eq!(bye.get("result"), Some(&Json::Null));
    s.notify("exit", Json::obj(vec![]));
    let status = s.child.wait().expect("wait for server");
    assert!(status.success(), "server exited with {status}");
}

/// Feed `input` to a fresh server, close its stdin, and wait for it to end:
/// its exit code (`None` when a signal killed it) and what it wrote to stderr.
fn fed(input: &[u8]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lite-lsp"))
        .env("LITE_LSP_QUICK", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lite-lsp");
    // A server that already refused the stream may close the pipe first.
    let _ = child.stdin.take().expect("piped stdin").write_all(input);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll server") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill hung server");
            panic!("server hung on {:?}", String::from_utf8_lossy(input));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    (status.code(), stderr)
}

#[test]
fn hostile_framing_ends_in_an_error_or_a_clean_exit_never_a_hang() {
    let framed = |body: &str| format!("Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes();
    let init = framed(r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#);
    let open = framed(&format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"{URI}","text":{}}}}}}}"#,
        Json::Str(DEFECTS.to_string()).render()
    ));
    let session = [&init[..], &open[..]].concat();
    assert_eq!(fed(&session), (Some(0), String::new()), "the unharmed session ends cleanly");

    // A length no input can back must be refused from what actually
    // arrives, not reserved up front; a body cut short is an error, and so
    // is one nested deeper than any stack could follow.
    let lying = |len: &str| format!("Content-Length: {len}\r\n\r\n{{\"jsonrpc\"").into_bytes();
    let deep = framed(&"[".repeat(1 << 20));
    for input in [lying("18446744073709551615"), lying("4000000000"), lying("10"), deep] {
        let (code, stderr) = fed(&[&init[..], &input[..]].concat());
        assert!(code == Some(1) && stderr.starts_with("lite-lsp: transport error"), "{stderr}");
    }
    // Anything else — an unparsable length is skipped as a stray header —
    // ends either way, but never by a panic or a signal.
    for input in (0..64).map(|seed| mutate_bytes(seed, &session, &init)).chain([lying("-1")]) {
        let (code, stderr) = fed(&input);
        let shown = String::from_utf8_lossy(&input);
        assert!(matches!(code, Some(0 | 1)) && !stderr.contains("panicked"), "{shown}: {stderr}");
    }
}

//! Run manifests: one JSON object per run, plus the human-readable tables.
//!
//! A [`Report`] collects everything a bench binary used to scatter over
//! `println!`: phase wall-clock timings, free-form fields (seed,
//! configuration, derived statistics), tables and notes. Tables and notes
//! are *printed as they are written* — the stdout view and the JSON
//! manifest are produced from the same data, so they cannot drift apart.
//!
//! `finish()` appends the manifest as one line of JSON to
//! `<dir>/<name>.manifest.jsonl` and returns the path.

// This module IS the stdout owner the workspace-wide print_stdout deny
// points everything else at.
#![allow(clippy::print_stdout)]

use crate::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Phase {
    name: String,
    wall_s: f64,
}

#[derive(Debug, Clone)]
struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

struct ReportInner {
    name: String,
    started: Instant,
    phases: Vec<Phase>,
    fields: Vec<(String, Json)>,
    tables: Vec<Table>,
    notes: Vec<String>,
}

/// A run report. Cloning shares the report (hand clones to helpers).
#[derive(Clone)]
pub struct Report {
    inner: Arc<Mutex<ReportInner>>,
}

impl Report {
    /// Start a report for a named run (e.g. `"table06_tuning"`).
    pub fn new(name: &str) -> Report {
        Report {
            inner: Arc::new(Mutex::new(ReportInner {
                name: name.to_string(),
                started: Instant::now(),
                phases: Vec::new(),
                fields: Vec::new(),
                tables: Vec::new(),
                notes: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReportInner> {
        self.inner.lock().expect("report lock")
    }

    /// Record a free-form manifest field.
    pub fn field(&self, key: &str, value: impl Into<Json>) {
        self.lock().fields.push((key.to_string(), value.into()));
    }

    /// Time a closure as a named phase.
    pub fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.lock()
            .phases
            .push(Phase { name: name.to_string(), wall_s: t0.elapsed().as_secs_f64() });
        out
    }

    /// Print a note line to stdout and capture it in the manifest.
    pub fn note(&self, line: &str) {
        println!("{line}");
        self.lock().notes.push(line.to_string());
    }

    /// Open a table: prints the header immediately, captures everything.
    pub fn table(&self, title: &str, header: &[&str], widths: &[usize]) -> TableWriter {
        println!("\n# {title}\n");
        print_cells(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths);
        let mut line = String::from("|");
        for w in widths {
            line.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        println!("{line}");
        let mut g = self.lock();
        g.tables.push(Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        });
        let index = g.tables.len() - 1;
        TableWriter { report: self.clone(), index, widths: widths.to_vec() }
    }

    /// Build the manifest JSON object.
    pub fn manifest(&self) -> Json {
        let g = self.lock();
        let mut pairs: Vec<(String, Json)> = vec![
            ("run".to_string(), Json::Str(g.name.clone())),
            ("wall_s".to_string(), Json::Num(g.started.elapsed().as_secs_f64())),
        ];
        pairs.extend(g.fields.iter().cloned());
        pairs.push((
            "phases".to_string(),
            Json::Arr(
                g.phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::Str(p.name.clone())),
                            ("wall_s", Json::Num(p.wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !g.tables.is_empty() {
            pairs.push((
                "tables".to_string(),
                Json::Arr(
                    g.tables
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("title", Json::Str(t.title.clone())),
                                (
                                    "header",
                                    Json::Arr(
                                        t.header.iter().map(|h| Json::Str(h.clone())).collect(),
                                    ),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(
                                                    r.iter()
                                                        .map(|c| Json::Str(c.clone()))
                                                        .collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !g.notes.is_empty() {
            pairs.push((
                "notes".to_string(),
                Json::Arr(g.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Append the manifest as one JSON line to `<dir>/<name>.manifest.jsonl`
    /// (creating `dir` if needed) and return the path.
    pub fn finish(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.manifest.jsonl", self.lock().name));
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        writeln!(f, "{}", self.manifest().render())?;
        Ok(path)
    }
}

/// Writes rows of one table through the report (printing + capturing).
pub struct TableWriter {
    report: Report,
    index: usize,
    widths: Vec<usize>,
}

impl TableWriter {
    /// Append (and print) one row.
    pub fn row(&mut self, cells: &[String]) {
        print_cells(cells, &self.widths);
        self.report.lock().tables[self.index].rows.push(cells.to_vec());
    }
}

fn print_cells(cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (c, w) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!(" {c:>w$} |"));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_contains_fields_phases_tables_notes() {
        let r = Report::new("unit");
        r.field("seed", 7u64);
        let x = r.phase("build", || 21 * 2);
        assert_eq!(x, 42);
        let mut t = r.table("Table T", &["a", "b"], &[4, 4]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        r.note("done");
        let j = r.manifest().render();
        assert!(j.starts_with(r#"{"run":"unit","wall_s":"#), "{j}");
        assert!(j.contains(r#""seed":7"#));
        assert!(j.contains(r#""name":"build""#));
        assert!(j.contains(r#""rows":[["1","2"],["3","4"]]"#));
        assert!(j.contains(r#""notes":["done"]"#));
    }

    #[test]
    fn finish_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("lite-obs-test-{}", std::process::id()));
        let r = Report::new("writer");
        r.field("k", "v");
        let p1 = r.finish(&dir).unwrap();
        let p2 = r.finish(&dir).unwrap();
        assert_eq!(p1, p2);
        let text = std::fs::read_to_string(&p1).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains(r#""k":"v""#));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

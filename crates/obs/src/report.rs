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
use crate::metrics::{MetricsSnapshot, Registry};
use crate::span::SpanRecord;
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
    metrics: Option<MetricsSnapshot>,
    span_count: usize,
    quiet: bool,
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
                metrics: None,
                span_count: 0,
                quiet: false,
            })),
        }
    }

    /// Suppress stdout echo (tables/notes are only captured). For tests.
    pub fn quiet(name: &str) -> Report {
        let r = Report::new(name);
        r.inner.lock().expect("report lock").quiet = true;
        r
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

    /// Record an already-measured phase duration.
    pub fn phase_s(&self, name: &str, wall_s: f64) {
        self.lock().phases.push(Phase { name: name.to_string(), wall_s });
    }

    /// Print a note line to stdout and capture it in the manifest.
    pub fn note(&self, line: &str) {
        let mut g = self.lock();
        if !g.quiet {
            println!("{line}");
        }
        g.notes.push(line.to_string());
    }

    /// Open a table: prints the header immediately, captures everything.
    pub fn table(&self, title: &str, header: &[&str], widths: &[usize]) -> TableWriter {
        let mut g = self.lock();
        if !g.quiet {
            println!("\n# {title}\n");
            print_cells(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths);
            let mut line = String::from("|");
            for w in widths {
                line.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            println!("{line}");
        }
        g.tables.push(Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        });
        let index = g.tables.len() - 1;
        TableWriter { report: self.clone(), index, widths: widths.to_vec() }
    }

    /// Attach a snapshot of a metrics registry (replaces any previous one).
    pub fn metrics(&self, registry: &Registry) {
        self.lock().metrics = Some(registry.snapshot());
    }

    /// Summarize finished spans into the manifest: per span name, the count
    /// and total duration. (Full span dumps stay out of the manifest — it
    /// is one line per run.)
    pub fn spans(&self, spans: &[SpanRecord]) {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in spans {
            let e = agg.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.duration_s();
        }
        let mut g = self.lock();
        g.span_count += spans.len();
        g.fields.push((
            "spans".to_string(),
            Json::Obj(
                agg.into_iter()
                    .map(|(name, (count, total_s))| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("count", Json::UInt(count)),
                                ("total_s", Json::Num(total_s)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
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
        if let Some(m) = &g.metrics {
            pairs.push(("metrics".to_string(), snapshot_json(m)));
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

    /// Render the manifest's phases/fields as a short human-readable block.
    pub fn render_human(&self) -> String {
        let g = self.lock();
        let mut out = String::new();
        out.push_str(&format!("run {} ({:.1}s wall)\n", g.name, g.started.elapsed().as_secs_f64()));
        for (k, v) in &g.fields {
            out.push_str(&format!("  {k}: {}\n", v.render()));
        }
        for p in &g.phases {
            out.push_str(&format!("  phase {}: {:.2}s\n", p.name, p.wall_s));
        }
        if let Some(m) = &g.metrics {
            for (k, v) in &m.counters {
                out.push_str(&format!("  counter {k}: {v}\n"));
            }
            for (k, v) in &m.gauges {
                out.push_str(&format!("  gauge {k}: {v:.4}\n"));
            }
            for (k, h) in &m.histograms {
                out.push_str(&format!(
                    "  histogram {k}: n={} mean={:.1} p50<={} p90<={} p99<={} p999<={}\n",
                    h.count, h.mean, h.p50, h.p90, h.p99, h.p999
                ));
            }
        }
        out
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
        let mut g = self.report.lock();
        if !g.quiet {
            print_cells(cells, &self.widths);
        }
        g.tables[self.index].rows.push(cells.to_vec());
    }
}

fn print_cells(cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (c, w) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!(" {c:>w$} |"));
    }
    println!("{line}");
}

fn snapshot_json(m: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(m.counters.iter().map(|(k, v)| (k.clone(), Json::UInt(*v))).collect()),
        ),
        ("gauges", Json::Obj(m.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::obj(vec![
                                ("count", Json::UInt(h.count)),
                                ("sum", Json::UInt(h.sum)),
                                ("mean", Json::Num(h.mean)),
                                ("p50", Json::UInt(h.p50)),
                                ("p90", Json::UInt(h.p90)),
                                ("p99", Json::UInt(h.p99)),
                                ("p999", Json::UInt(h.p999)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    #[test]
    fn manifest_contains_fields_phases_tables_notes() {
        let r = Report::quiet("unit");
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
    fn metrics_snapshot_lands_in_manifest() {
        let reg = Registry::new();
        reg.counter("c.x").add(5);
        reg.gauge("g.y").set(1.25);
        reg.histogram("h.z").record(10);
        let r = Report::quiet("unit2");
        r.metrics(&reg);
        let j = r.manifest().render();
        assert!(j.contains(r#""c.x":5"#), "{j}");
        assert!(j.contains(r#""g.y":1.25"#), "{j}");
        assert!(j.contains(r#""count":1"#), "{j}");
    }

    #[test]
    fn span_summary_aggregates_by_name() {
        let tracer = Tracer::new();
        for _ in 0..3 {
            drop(tracer.span("epoch"));
        }
        drop(tracer.span("run"));
        let r = Report::quiet("unit3");
        r.spans(&tracer.finished());
        let j = r.manifest().render();
        assert!(j.contains(r#""epoch":{"count":3"#), "{j}");
        assert!(j.contains(r#""run":{"count":1"#), "{j}");
    }

    #[test]
    fn finish_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("lite-obs-test-{}", std::process::id()));
        let r = Report::quiet("writer");
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

    #[test]
    fn human_rendering_mentions_everything() {
        let reg = Registry::new();
        reg.counter("n").add(2);
        let r = Report::quiet("hr");
        r.field("seed", 1u64);
        r.phase_s("train", 1.5);
        r.metrics(&reg);
        let h = r.render_human();
        assert!(h.contains("run hr"));
        assert!(h.contains("seed: 1"));
        assert!(h.contains("phase train: 1.50s"));
        assert!(h.contains("counter n: 2"));
    }
}

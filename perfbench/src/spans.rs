//! In-memory spans of a traced pass, written out once the run ends.

use serde_json::Value;
use std::io::Write;

/// One timed interval at a layer boundary. Times are seconds since the
/// pass started, on the benchmark's own clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Request (or offline sequence) the span belongs to.
    pub request: Option<u64>,
}

/// Append a span and return its index, for children to name as parent.
pub fn push(
    spans: &mut Vec<Span>,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    request: Option<u64>,
) -> usize {
    spans.push(Span {
        name,
        start_s,
        end_s,
        parent,
        request,
    });
    spans.len() - 1
}

/// Write `spans` as JSON lines under `perfbench/out/`; returns the path.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = "perfbench/out";
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{workload}-seed{seed}.spans.jsonl");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or(Value::Null, |v| Value::Int(v as i64));
        let line = Value::Object(vec![
            ("id".into(), Value::Int(i as i64)),
            ("name".into(), Value::Str(s.name.into())),
            ("start_s".into(), Value::Float(s.start_s)),
            ("end_s".into(), Value::Float(s.end_s)),
            ("parent".into(), opt(s.parent.map(|p| p as u64))),
            ("request".into(), opt(s.request)),
        ]);
        writeln!(
            out,
            "{}",
            serde_json::to_string(&line).expect("a Value always serializes")
        )?;
    }
    out.flush()?;
    Ok(path)
}

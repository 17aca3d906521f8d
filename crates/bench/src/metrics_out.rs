//! `--metrics-out` support for the bench binaries: collect labeled
//! engine [`MetricsSnapshot`]s while a table or figure is measured and
//! emit them as JSON lines at the end of the run.
//!
//! Every snapshot line carries the label passed to [`MetricsOut::record`]
//! (e.g. `table1.d-300.lexical.t4`), so one sweep file stays greppable
//! per benchmark, per subroutine, and per thread count.

use paramount::MetricsSnapshot;

/// Where the JSON lines go: stderr (`--metrics-out -`) or a file.
enum Target {
    Stderr,
    File(String),
}

/// Accumulates JSON lines until [`MetricsOut::flush`].
pub struct MetricsOut {
    target: Target,
    lines: String,
}

/// Parses `--metrics-out <path>` from argv. Absent flag → `None`
/// (binaries record nothing and pay nothing); path `-` → stderr.
pub fn from_args() -> Option<MetricsOut> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--metrics-out")?;
    let path = args.get(i + 1).cloned().unwrap_or_else(|| "-".to_string());
    let target = if path == "-" {
        Target::Stderr
    } else {
        Target::File(path)
    };
    Some(MetricsOut {
        target,
        lines: String::new(),
    })
}

impl MetricsOut {
    /// Appends one run's snapshot under `label`.
    pub fn record(&mut self, label: &str, snapshot: &MetricsSnapshot) {
        self.lines.push_str(&snapshot.to_json_lines(label));
    }

    /// Writes everything recorded so far to the chosen target.
    pub fn flush(self) {
        match self.target {
            Target::Stderr => eprint!("{}", self.lines),
            Target::File(path) => {
                if let Err(e) = std::fs::write(&path, &self.lines) {
                    eprintln!("cannot write --metrics-out {path}: {e}");
                }
            }
        }
    }
}

/// Records into an optional sink — the no-flag case stays a no-op at the
/// call site without an `if let` per measurement.
pub fn record(out: &mut Option<MetricsOut>, label: &str, snapshot: &MetricsSnapshot) {
    if let Some(m) = out.as_mut() {
        m.record(label, snapshot);
    }
}

/// Flushes an optional sink.
pub fn flush(out: Option<MetricsOut>) {
    if let Some(m) = out {
        m.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_sink_is_a_cheap_no_op() {
        let mut none: Option<MetricsOut> = None;
        record(&mut none, "x", &MetricsSnapshot::default());
        flush(none);
    }

    #[test]
    fn recorded_lines_carry_the_label() {
        let mut out = MetricsOut {
            target: Target::Stderr,
            lines: String::new(),
        };
        out.record("fig10.d-300.t4", &MetricsSnapshot::default());
        assert!(out.lines.contains("\"label\":\"fig10.d-300.t4\""));
        for line in out.lines.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}

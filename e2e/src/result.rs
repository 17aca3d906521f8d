//! The result line: the one JSON object a run ends its standard output
//! with, and the reader the self-check uses on its children's lines.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line (no newline). Values print with Rust's shortest
    /// round-trip formatting: every digit measured, nothing rounded.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`RunResult::to_line`].
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Parser {
            rest: line.trim().as_bytes(),
        };
        let mut result = RunResult {
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        let mut seen = [false; 4];
        p.object(|p, key| {
            match key {
                "correct" => {
                    seen[0] = true;
                    result.correct = match p.token()? {
                        "true" => true,
                        "false" => false,
                        other => return Err(format!("correct: `{other}` is not a boolean")),
                    }
                }
                "attempted" => {
                    seen[1] = true;
                    result.attempted = p.whole()?;
                }
                "failed" => {
                    seen[2] = true;
                    result.failed = p.whole()?;
                }
                "metrics" => {
                    seen[3] = true;
                    p.object(|p, name| {
                        let mut metric = Metric::new(name, f64::NAN, "");
                        p.object(|p, field| {
                            match field {
                                "value" => {
                                    let token = p.token()?;
                                    metric.value = token
                                        .parse()
                                        .map_err(|_| format!("`{token}` is not a number"))?;
                                }
                                "unit" => metric.unit = p.string()?.to_string(),
                                other => return Err(format!("unknown metric key `{other}`")),
                            }
                            Ok(())
                        })?;
                        if !metric.value.is_finite() {
                            return Err(format!("metric `{name}` has no finite value"));
                        }
                        result.metrics.push(metric);
                        Ok(())
                    })?;
                }
                other => return Err(format!("unknown key `{other}`")),
            }
            Ok(())
        })?;
        if !p.rest.is_empty() {
            return Err("trailing bytes after the result object".to_string());
        }
        if seen != [true; 4] {
            return Err("result line lacks one of correct/attempted/failed/metrics".to_string());
        }
        Ok(result)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A reader for the flat JSON this module writes: objects, strings
/// without escapes, numbers and booleans.
struct Parser<'a> {
    rest: &'a [u8],
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let [b' ' | b'\t' | b'\n' | b'\r', tail @ ..] = self.rest {
            self.rest = tail;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        match self.rest {
            [b, tail @ ..] if *b == byte => {
                self.rest = tail;
                Ok(())
            }
            _ => Err(format!("expected `{}`", byte as char)),
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let end = self
            .rest
            .iter()
            .position(|&b| b == b'"')
            .ok_or("unterminated string")?;
        let (s, tail) = self.rest.split_at(end);
        if s.contains(&b'\\') {
            return Err("escapes are not part of the result line".to_string());
        }
        self.rest = &tail[1..];
        std::str::from_utf8(s).map_err(|_| "string is not UTF-8".to_string())
    }

    /// A bare token: number or boolean.
    fn token(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let end = self
            .rest
            .iter()
            .position(|b| matches!(b, b',' | b'}' | b' '))
            .unwrap_or(self.rest.len());
        let (t, tail) = self.rest.split_at(end);
        self.rest = tail;
        match std::str::from_utf8(t) {
            Ok(t) if !t.is_empty() => Ok(t),
            _ => Err("expected a value".to_string()),
        }
    }

    fn whole(&mut self) -> Result<u64, String> {
        let token = self.token()?;
        token
            .parse()
            .map_err(|_| format!("`{token}` is not a whole number"))
    }

    fn object(
        &mut self,
        mut field: impl FnMut(&mut Parser<'a>, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if let [b'}', tail @ ..] = self.rest {
            self.rest = tail;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.rest {
                [b',', tail @ ..] => self.rest = tail,
                [b'}', tail @ ..] => {
                    self.rest = tail;
                    return Ok(());
                }
                _ => return Err("expected `,` or `}`".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", 1.203_456_789_012_3, "ms"),
                Metric::new("cuts_per_s", 13_107_231.5, "1/s"),
                Metric::new("wall.share_offline.load", 1e-9, "share"),
            ],
        };
        let line = result.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line).unwrap(), result);
        assert_eq!(result.get("cuts_per_s"), Some(13_107_231.5));
    }

    #[test]
    fn the_contract_example_parses_and_malformed_lines_do_not() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let parsed = RunResult::parse(line).unwrap();
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.get("setup_s"), Some(0.8127));
        for bad in [
            "",
            "{}",
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": maybe, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"m": {"unit": "s"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing"#,
        ] {
            assert!(RunResult::parse(bad).is_err(), "{bad}");
        }
    }
}

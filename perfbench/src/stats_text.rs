//! Parser of the daemon's Stats text (`docs/PROTOCOL.md`, "Stats").
//!
//! Every line is `name value` or `name{model="m"} value`; the value is a
//! number or a quoted string.

/// A line's value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Numeric value.
    Num(f64),
    /// Quoted string value, without the quotes.
    Str(String),
}

/// One parsed line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name, e.g. `serve_model_occupancy`.
    pub name: String,
    /// The `model` label, when present.
    pub model: Option<String>,
    /// The value.
    pub value: Value,
}

/// Parse a whole Stats text. Blank lines are skipped; any other line
/// that is not `name[{model="m"}] value` is an error naming it.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    text.lines().filter(|l| !l.trim().is_empty()).map(parse_line).collect()
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let bad = || format!("malformed stats line: {line:?}");
    let (head, raw) = line.trim().rsplit_once(' ').ok_or_else(bad)?;
    let (name, model) = match head.split_once('{') {
        Some((name, labels)) => {
            let m = labels
                .strip_prefix("model=\"")
                .and_then(|r| r.strip_suffix("\"}"))
                .ok_or_else(bad)?;
            (name, Some(m.to_string()))
        }
        None => (head, None),
    };
    let valid_name = !name.is_empty()
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if !valid_name {
        return Err(bad());
    }
    let value = match raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        Some(s) => Value::Str(s.to_string()),
        None => Value::Num(raw.parse().map_err(|_| bad())?),
    };
    Ok(Sample { name: name.to_string(), model, value })
}

/// The numeric value of `name` for `model` (`None` for daemon-level
/// lines), if present.
pub fn get(samples: &[Sample], name: &str, model: Option<&str>) -> Option<f64> {
    samples.iter().find(|s| s.name == name && s.model.as_deref() == model).and_then(|s| {
        match s.value {
            Value::Num(v) => Some(v),
            Value::Str(_) => None,
        }
    })
}

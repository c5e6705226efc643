//! The benchmark's definition: `BENCHMARK.json` at the repository root,
//! embedded at build time. That one file is the only place workloads,
//! metrics, units, directions and regression bounds are defined; this
//! module parses it with the repository's own JSON parser and refuses a
//! file that breaks the format's limits.

use blap_obs::json::{self, Value};

/// `BENCHMARK.json`, as it stood when the benchmark was built.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// Largest share of the parent's median by which an end-to-end metric may
/// worsen before a change counts as a regression.
const MAX_BOUND: f64 = 0.25;

/// The parsed benchmark definition.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workloads, in file order.
    pub workloads: Vec<Workload>,
    /// Metrics a user of the system sees, gated by their bound.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers, printed by traced runs; no bound.
    pub per_layer: Vec<Metric>,
}

/// One workload: its name and why it was chosen.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: String,
    /// One-line reason the workload exists.
    pub why: String,
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (rates).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

/// One metric's name, unit, direction and (end-to-end only) bound.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as printed and as keyed in the result line.
    pub name: String,
    /// Unit, as printed beside every value.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

impl Config {
    /// The embedded definition. The unit tests pin that it parses, so a
    /// failure here is a build of a broken `BENCHMARK.json`.
    pub fn embedded() -> Config {
        Config::parse(BENCHMARK_JSON).unwrap_or_else(|err| panic!("BENCHMARK.json: {err}"))
    }

    /// Parses and validates a benchmark definition.
    pub fn parse(text: &str) -> Result<Config, String> {
        let root = json::parse(text).map_err(|err| err.to_string())?;
        exact_keys(
            &root,
            "BENCHMARK.json",
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        )?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_u64)
            .filter(|s| (1..=60).contains(s))
            .ok_or("run_seconds must be a whole number from 1 to 60")?;
        let workloads = array(&root, "workloads")?
            .iter()
            .map(|w| {
                let name = name(w)?;
                exact_keys(w, &format!("workload {name:?}"), &["name", "why"])?;
                Ok(Workload {
                    name,
                    why: string(w, "why")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = metrics(&root, "end_to_end", true)?;
        let per_layer = metrics(&root, "per_layer", false)?;
        let config = Config {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        };
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), String> {
        let counts = [
            ("workloads", self.workloads.len(), 2..=8),
            ("end_to_end", self.end_to_end.len(), 1..=16),
            ("per_layer", self.per_layer.len(), 1..=128),
        ];
        for (section, n, range) in counts {
            if !range.contains(&n) {
                return Err(format!("{section} has {n} entries, want {range:?}"));
            }
        }
        let mut names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(self.metrics().map(|m| m.name.as_str()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("name {:?} is used more than once", pair[0]));
        }
        for w in &self.workloads {
            if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
                return Err(format!("workload {:?} needs a one-line why", w.name));
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
            _ => Err("end_to_end needs setup_s in s, lower is better".to_owned()),
        }
    }

    /// Every metric, end-to-end first.
    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// Looks a metric up by name in either section.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics().find(|m| m.name == name)
    }
}

/// Whether `name` is a valid workload or metric name: a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Fails unless `value` is an object with exactly `keys`, in any order.
fn exact_keys(value: &Value, what: &str, keys: &[&str]) -> Result<(), String> {
    let mut got: Vec<&str> = match value {
        Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let mut want = keys.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} must have exactly the keys {keys:?}"))
    }
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match value.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("{key} must be an array")),
    }
}

fn string(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string {key:?} in {value:?}"))
}

fn name(value: &Value) -> Result<String, String> {
    let name = string(value, "name")?;
    if valid_name(&name) {
        Ok(name)
    } else {
        Err(format!("invalid name {name:?}"))
    }
}

fn metrics(root: &Value, section: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    let expected_keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    array(root, section)?
        .iter()
        .map(|m| {
            let name = name(m)?;
            exact_keys(m, &format!("{section} metric {name:?}"), expected_keys)?;
            let unit = string(m, "unit")?;
            if !valid_unit(&unit) {
                return Err(format!("metric {name:?} has invalid unit {unit:?}"));
            }
            let better = match string(m, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("metric {name:?}: better {other:?}")),
            };
            let bound = match m.get("bound") {
                None => None,
                Some(Value::Num(text)) => match text.parse::<f64>() {
                    Ok(b) if b > 0.0 && b <= MAX_BOUND => Some(b),
                    _ => {
                        return Err(format!(
                            "metric {name:?}: bound {text} not in (0, {MAX_BOUND}]"
                        ))
                    }
                },
                Some(other) => return Err(format!("metric {name:?}: bound {other:?}")),
            };
            Ok(Metric {
                name,
                unit,
                better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_definition_parses_within_the_format_limits() {
        let config = Config::embedded();
        assert_eq!(config.workloads.len(), 4);
        assert!(config.end_to_end.len() <= 16);
        assert!(config.per_layer.len() <= 128);
        for workload in &config.workloads {
            assert!(valid_name(&workload.name), "{}", workload.name);
        }
        for metric in config.metrics() {
            assert!(valid_name(&metric.name), "{}", metric.name);
            assert!(valid_unit(&metric.unit), "{}", metric.unit);
        }
        for metric in &config.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= MAX_BOUND, "{}", metric.name);
        }
        assert!(config.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = config.metric("setup_s").expect("setup_s is defined");
        let widest = config
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
    }

    #[test]
    fn names_follow_the_character_rules() {
        for ok in [
            "fleet",
            "crypto.p256.self_us_per_trial",
            "a-b_c.9",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".dot", "has space", "slash/no", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    fn definition(workloads: usize, extra_metric: &str) -> String {
        let workloads: Vec<String> = (0..workloads)
            .map(|i| format!(r#"{{"name": "w{i}", "why": "reason {i}"}}"#))
            .collect();
        format!(
            r#"{{"command": ["true"], "paths": ["bench"], "run_seconds": 5, "workloads": [{}],
                "end_to_end": [{{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}}{extra_metric}],
                "per_layer": [{{"name": "layer.x", "unit": "us", "better": "lower"}}]}}"#,
            workloads.join(", ")
        )
    }

    #[test]
    fn counts_and_fields_are_enforced() {
        assert!(Config::parse(&definition(2, "")).is_ok());
        assert!(
            Config::parse(&definition(1, "")).is_err(),
            "too few workloads"
        );
        assert!(
            Config::parse(&definition(9, "")).is_err(),
            "too many workloads"
        );
        let no_bound = r#", {"name": "rate", "unit": "1/s", "better": "higher"}"#;
        assert!(Config::parse(&definition(2, no_bound)).is_err());
        let wide = r#", {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.5}"#;
        assert!(Config::parse(&definition(2, wide)).is_err());
        let sideways = r#", {"name": "rate", "unit": "1/s", "better": "up", "bound": 0.1}"#;
        assert!(Config::parse(&definition(2, sideways)).is_err());
        let reordered = r#", {"bound": 0.1, "better": "higher", "unit": "1/s", "name": "rate"}"#;
        assert!(
            Config::parse(&definition(2, reordered)).is_ok(),
            "key order is free"
        );
        let extra =
            r#", {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1, "x": 1}"#;
        assert!(Config::parse(&definition(2, extra)).is_err());
        let stray = definition(2, "").replacen('{', r#"{"baseline": {}, "#, 1);
        let err = Config::parse(&stray).expect_err("stray top-level key");
        assert!(err.contains("exactly the keys"), "{err}");
        let twice = r#", {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}"#;
        let err = Config::parse(&definition(2, twice)).expect_err("duplicate name");
        assert!(err.contains("setup_s"), "{err}");
    }
}

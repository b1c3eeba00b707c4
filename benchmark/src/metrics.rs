//! The metric tables. `BENCHMARK.json` at the repo root is their only
//! source: it is compiled in, so what the program prints and what the
//! driver reads cannot name different metrics, units or bounds.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ra_serve::Json;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; a per-layer metric has none.
    pub bound: Option<f64>,
}

pub struct Manifest {
    /// How long one run measures. The driver passes it back as
    /// `--seconds`; no other value is accepted.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    fn parse(text: &str) -> Result<Manifest, String> {
        let json = Json::parse(text).map_err(|err| err.to_string())?;
        let items = |key: &str| match json.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("`{key}` must be an array")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("an entry lacks `{key}`"))
        };
        let metrics = |key: &str| {
            items(key)?
                .iter()
                .map(|item| {
                    Ok(MetricDef {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better: text_of(item, "better")?,
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Manifest {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("`run_seconds` must be a whole number")?,
            workloads: items("workloads")?
                .iter()
                .map(|item| text_of(item, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The compiled-in `BENCHMARK.json`.
///
/// # Panics
///
/// Panics when it does not parse: the build is broken, not the run.
pub fn manifest() -> &'static Manifest {
    static PARSED: OnceLock<Manifest> = OnceLock::new();
    PARSED.get_or_init(|| {
        Manifest::parse(MANIFEST).unwrap_or_else(|err| panic!("BENCHMARK.json: {err}"))
    })
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a value under a name `BENCHMARK.json` lists.
    ///
    /// # Panics
    ///
    /// Panics on any other name: that is a typo in this package.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            manifest().find(name).is_some(),
            "`{name}` is not in BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The value of a metric an earlier layer has already measured.
    ///
    /// # Panics
    ///
    /// Panics when it has not: layers run in a fixed order.
    pub fn need(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("`{name}` is read before it is measured"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a `BENCHMARK.json` outside of.
    #[test]
    fn manifest_is_within_the_contract() {
        let manifest = manifest();
        assert!((1..=60).contains(&manifest.run_seconds));
        assert!((2..=8).contains(&manifest.workloads.len()));
        assert!((1..=16).contains(&manifest.end_to_end.len()));
        assert!((1..=128).contains(&manifest.per_layer.len()));
        let setup = manifest.find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for metric in &manifest.end_to_end {
            let bound = metric.bound.expect("an end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        let mut names: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
        for metric in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            assert!(matches!(metric.better.as_str(), "lower" | "higher"));
            assert!(metric.unit.len() <= 16, "{}", metric.name);
            names.push(&metric.name);
        }
        let total = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}

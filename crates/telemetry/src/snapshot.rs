//! Point-in-time metric snapshots and their two wire forms: a JSON tree
//! (for the `quclear-serve` protocol) and Prometheus text exposition.

use serde::Json;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, NUM_BUCKETS};

/// One counter's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Optional `key="value"` label pair.
    pub label: Option<(String, String)>,
    /// Help text (first registration wins).
    pub help: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Optional `key="value"` label pair.
    pub label: Option<(String, String)>,
    /// Help text.
    pub help: String,
    /// Gauge value.
    pub value: i64,
}

/// One histogram's buckets at snapshot time (nonzero buckets only — the
/// compact form that crosses the wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Optional `key="value"` label pair.
    pub label: Option<(String, String)>,
    /// Help text.
    pub help: String,
    /// Nonzero `(bucket index, count)` pairs, in bucket order.
    pub buckets: Vec<(usize, u64)>,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSample {
    pub(crate) fn new(
        name: String,
        label: Option<(String, String)>,
        help: String,
        snapshot: &HistogramSnapshot,
    ) -> Self {
        HistogramSample {
            name,
            label,
            help,
            buckets: snapshot.nonzero_buckets(),
            sum: snapshot.sum(),
            max: snapshot.max(),
        }
    }

    /// Rebuilds the full [`HistogramSnapshot`] (for quantile queries).
    #[must_use]
    pub fn histogram(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_parts(&self.buckets, self.sum, self.max)
    }

    /// Total sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, count)| count).sum()
    }
}

/// A coherent point-in-time copy of every metric in a
/// [`crate::MetricsRegistry`], ordered by name then label.
///
/// The snapshot is plain data: it can be inspected directly, rendered as
/// Prometheus text with [`MetricsSnapshot::to_prometheus_text`], shipped as
/// JSON with [`MetricsSnapshot::to_json`], and rebuilt on the other side
/// with [`MetricsSnapshot::from_json`] (the `quclear-serve` `metrics`
/// request does exactly that round trip).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter samples.
    pub counters: Vec<CounterSample>,
    /// Gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// The value of the counter registered under `name` (+ optional label).
    #[must_use]
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        self.counters
            .iter()
            .find(|s| s.name == name && label_matches(&s.label, label))
            .map(|s| s.value)
    }

    /// The value of the gauge registered under `name` (+ optional label).
    #[must_use]
    pub fn gauge_value(&self, name: &str, label: Option<(&str, &str)>) -> Option<i64> {
        self.gauges
            .iter()
            .find(|s| s.name == name && label_matches(&s.label, label))
            .map(|s| s.value)
    }

    /// The histogram registered under `name` (+ optional label), rebuilt
    /// for quantile queries.
    #[must_use]
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|s| s.name == name && label_matches(&s.label, label))
            .map(HistogramSample::histogram)
    }

    /// All histogram samples that share `name`, as `(label, sample)` views —
    /// how per-stage / per-kind families are enumerated.
    #[must_use]
    pub fn histogram_family(&self, name: &str) -> Vec<&HistogramSample> {
        self.histograms.iter().filter(|s| s.name == name).collect()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="..."}` lines
    /// with inclusive power-of-two bounds, `_sum` and `_count`).
    ///
    /// Bucket lines are emitted sparsely — only at the boundaries where the
    /// cumulative count actually changes, plus `+Inf` — which is valid
    /// exposition (the `le` values are just sample points of the CDF) and
    /// keeps 64-bucket histograms readable.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_header: Option<String> = None;
        for sample in &self.counters {
            header(
                &mut out,
                &mut last_header,
                &sample.name,
                &sample.help,
                "counter",
            );
            let labels = render_labels(&sample.label, None);
            out.push_str(&format!("{}{} {}\n", sample.name, labels, sample.value));
        }
        for sample in &self.gauges {
            header(
                &mut out,
                &mut last_header,
                &sample.name,
                &sample.help,
                "gauge",
            );
            let labels = render_labels(&sample.label, None);
            out.push_str(&format!("{}{} {}\n", sample.name, labels, sample.value));
        }
        for sample in &self.histograms {
            header(
                &mut out,
                &mut last_header,
                &sample.name,
                &sample.help,
                "histogram",
            );
            let mut cumulative = 0u64;
            for &(index, count) in &sample.buckets {
                cumulative += count;
                if index < NUM_BUCKETS - 1 {
                    let le = bucket_upper_bound(index) - 1;
                    let labels = render_labels(&sample.label, Some(("le", &le.to_string())));
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name, labels, cumulative
                    ));
                }
            }
            let inf = render_labels(&sample.label, Some(("le", "+Inf")));
            out.push_str(&format!("{}_bucket{} {}\n", sample.name, inf, cumulative));
            let labels = render_labels(&sample.label, None);
            out.push_str(&format!("{}_sum{} {}\n", sample.name, labels, sample.sum));
            out.push_str(&format!("{}_count{} {}\n", sample.name, labels, cumulative));
        }
        out
    }

    /// Encodes the snapshot as a JSON tree (the `quclear-serve` wire form).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|s| {
                sample_object(
                    &s.name,
                    &s.label,
                    &s.help,
                    vec![("value", Json::Uint(s.value))],
                )
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|s| {
                sample_object(
                    &s.name,
                    &s.label,
                    &s.help,
                    vec![("value", Json::Int(s.value))],
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|s| {
                let buckets = s
                    .buckets
                    .iter()
                    .map(|&(index, count)| {
                        Json::Array(vec![Json::Uint(index as u64), Json::Uint(count)])
                    })
                    .collect();
                sample_object(
                    &s.name,
                    &s.label,
                    &s.help,
                    vec![
                        ("sum", Json::Uint(s.sum)),
                        ("max", Json::Uint(s.max)),
                        ("buckets", Json::Array(buckets)),
                    ],
                )
            })
            .collect();
        Json::object([
            ("counters", Json::Array(counters)),
            ("gauges", Json::Array(gauges)),
            ("histograms", Json::Array(histograms)),
        ])
    }

    /// Decodes a snapshot from its [`MetricsSnapshot::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed element (input is
    /// network data on the client side, so no panics).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let mut snapshot = MetricsSnapshot::default();
        for entry in sample_array(json, "counters")? {
            let (name, label, help) = sample_identity(entry, "counter")?;
            let value = required_u64(entry, "value", "counter")?;
            snapshot.counters.push(CounterSample {
                name,
                label,
                help,
                value,
            });
        }
        for entry in sample_array(json, "gauges")? {
            let (name, label, help) = sample_identity(entry, "gauge")?;
            let value = entry
                .get("value")
                .and_then(Json::as_i64)
                .ok_or("gauge sample is missing an integer `value`")?;
            snapshot.gauges.push(GaugeSample {
                name,
                label,
                help,
                value,
            });
        }
        for entry in sample_array(json, "histograms")? {
            let (name, label, help) = sample_identity(entry, "histogram")?;
            let sum = required_u64(entry, "sum", "histogram")?;
            let max = required_u64(entry, "max", "histogram")?;
            let mut buckets = Vec::new();
            for pair in entry
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or("histogram sample is missing a `buckets` array")?
            {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("histogram bucket must be an [index, count] pair")?;
                let index = pair[0]
                    .as_u64()
                    .filter(|&i| i < NUM_BUCKETS as u64)
                    .ok_or("histogram bucket index is out of range")?;
                let count = pair[1]
                    .as_u64()
                    .ok_or("histogram bucket count must be a u64")?;
                buckets.push((index as usize, count));
            }
            snapshot.histograms.push(HistogramSample {
                name,
                label,
                help,
                buckets,
                sum,
                max,
            });
        }
        Ok(snapshot)
    }
}

fn label_matches(sample: &Option<(String, String)>, wanted: Option<(&str, &str)>) -> bool {
    match (sample, wanted) {
        (None, None) => true,
        (Some((k, v)), Some((wk, wv))) => k == wk && v == wv,
        _ => false,
    }
}

/// Emits `# HELP` / `# TYPE` once per metric name (samples arrive sorted,
/// so a family's labeled series are consecutive).
fn header(out: &mut String, last: &mut Option<String>, name: &str, help: &str, kind: &str) {
    if last.as_deref() == Some(name) {
        return;
    }
    if !help.is_empty() {
        out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
    }
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    *last = Some(name.to_string());
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(label: &Option<(String, String)>, extra: Option<(&str, &str)>) -> String {
    let mut pairs = Vec::new();
    if let Some((key, value)) = label {
        pairs.push(format!("{key}=\"{}\"", escape_label_value(value)));
    }
    if let Some((key, value)) = extra {
        pairs.push(format!("{key}=\"{}\"", escape_label_value(value)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn sample_object(
    name: &str,
    label: &Option<(String, String)>,
    help: &str,
    fields: Vec<(&str, Json)>,
) -> Json {
    let mut entries = vec![("name", Json::Str(name.to_string()))];
    if let Some((key, value)) = label {
        entries.push((
            "label",
            Json::Array(vec![Json::Str(key.clone()), Json::Str(value.clone())]),
        ));
    }
    if !help.is_empty() {
        entries.push(("help", Json::Str(help.to_string())));
    }
    entries.extend(fields);
    Json::object(entries)
}

fn sample_array<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match json.get(key) {
        None => Ok(&[]),
        Some(value) => value
            .as_array()
            .ok_or_else(|| format!("`{key}` must be an array")),
    }
}

/// `(name, label, help)` of a decoded sample object.
type SampleIdentity = (String, Option<(String, String)>, String);

fn sample_identity(entry: &Json, kind: &str) -> Result<SampleIdentity, String> {
    let name = entry
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{kind} sample is missing a string `name`"))?
        .to_string();
    let label = match entry.get("label") {
        None => None,
        Some(Json::Null) => None,
        Some(value) => {
            let pair = value
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{kind} `label` must be a [key, value] pair"))?;
            let key = pair[0]
                .as_str()
                .ok_or_else(|| format!("{kind} label key must be a string"))?;
            let val = pair[1]
                .as_str()
                .ok_or_else(|| format!("{kind} label value must be a string"))?;
            Some((key.to_string(), val.to_string()))
        }
    };
    let help = entry
        .get("help")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    Ok((name, label, help))
}

fn required_u64(entry: &Json, key: &str, kind: &str) -> Result<u64, String> {
    entry
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{kind} sample is missing a u64 `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn populated_registry() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry
            .counter("requests_total", "requests handled")
            .add(7);
        registry
            .counter_labeled("errors_total", "errors by kind", ("kind", "compile"))
            .add(2);
        registry.gauge("queue_depth", "queued requests").set(-3);
        let h = registry.histogram_labeled(
            "stage_duration_ns",
            "per-stage latency",
            ("stage", "extract"),
        );
        h.record(0);
        h.record(5);
        h.record(900);
        registry
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snapshot = populated_registry().snapshot();
        let rebuilt = MetricsSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(rebuilt, snapshot);
        // Through actual text, too.
        let text = serde_json::to_string(&snapshot.to_json());
        let reparsed = MetricsSnapshot::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(reparsed, snapshot);
    }

    #[test]
    fn lookups_respect_labels() {
        let snapshot = populated_registry().snapshot();
        assert_eq!(snapshot.counter_value("requests_total", None), Some(7));
        assert_eq!(
            snapshot.counter_value("requests_total", Some(("k", "v"))),
            None
        );
        assert_eq!(
            snapshot.counter_value("errors_total", Some(("kind", "compile"))),
            Some(2)
        );
        assert_eq!(snapshot.gauge_value("queue_depth", None), Some(-3));
        let h = snapshot
            .histogram("stage_duration_ns", Some(("stage", "extract")))
            .unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 900);
        assert_eq!(snapshot.histogram_family("stage_duration_ns").len(), 1);
    }

    #[test]
    fn prometheus_text_has_headers_labels_and_cumulative_buckets() {
        let text = populated_registry().snapshot().to_prometheus_text();
        assert!(text.contains("# HELP requests_total requests handled\n"));
        assert!(text.contains("# TYPE requests_total counter\n"));
        assert!(text.contains("requests_total 7\n"));
        assert!(text.contains("errors_total{kind=\"compile\"} 2\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth -3\n"));
        assert!(text.contains("# TYPE stage_duration_ns histogram\n"));
        // 0 → bucket 0 (le="0"), 5 → bucket 3 (le="7"), 900 → bucket 10 (le="1023").
        assert!(text.contains("stage_duration_ns_bucket{stage=\"extract\",le=\"0\"} 1\n"));
        assert!(text.contains("stage_duration_ns_bucket{stage=\"extract\",le=\"7\"} 2\n"));
        assert!(text.contains("stage_duration_ns_bucket{stage=\"extract\",le=\"1023\"} 3\n"));
        assert!(text.contains("stage_duration_ns_bucket{stage=\"extract\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("stage_duration_ns_sum{stage=\"extract\"} 905\n"));
        assert!(text.contains("stage_duration_ns_count{stage=\"extract\"} 3\n"));
    }

    #[test]
    fn headers_are_emitted_once_per_family() {
        let registry = MetricsRegistry::new();
        for kind in ["a", "b"] {
            registry
                .counter_labeled("family_total", "one family", ("kind", kind))
                .inc();
        }
        let text = registry.snapshot().to_prometheus_text();
        assert_eq!(text.matches("# TYPE family_total counter").count(), 1);
        assert_eq!(text.matches("# HELP family_total").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter_labeled("odd_total", "", ("kind", "a\"b\\c"))
            .inc();
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("odd_total{kind=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn from_json_rejects_malformed_samples() {
        for bad in [
            r#"{"counters":[{"value":1}]}"#,
            r#"{"counters":[{"name":"x"}]}"#,
            r#"{"counters":"nope"}"#,
            r#"{"histograms":[{"name":"h","sum":1,"max":1,"buckets":[[99]]}]}"#,
            r#"{"histograms":[{"name":"h","sum":1,"max":1,"buckets":[[400,1]]}]}"#,
            r#"{"gauges":[{"name":"g","label":["only-key"],"value":1}]}"#,
        ] {
            let tree = serde_json::from_str(bad).unwrap();
            assert!(MetricsSnapshot::from_json(&tree).is_err(), "{bad}");
        }
        // Absent sections are fine (forward compatibility).
        let empty = MetricsSnapshot::from_json(&serde_json::from_str("{}").unwrap()).unwrap();
        assert_eq!(empty, MetricsSnapshot::default());
    }
}

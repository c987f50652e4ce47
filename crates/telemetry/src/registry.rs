//! The metric registry: named handles out, coherent snapshots in.

use std::collections::BTreeMap;

use crate::sync::{Arc, PoisonError, RwLock};

use crate::histogram::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};

/// Identity of one metric: a name plus an optional `key="value"` label pair
/// (the subset of the Prometheus data model this workspace needs — one
/// dimension, e.g. `stage="extract"` or `kind="compile"`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) label: Option<(String, String)>,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct Registered {
    metric: Metric,
    help: String,
}

/// A registry of named counters, gauges and histograms.
///
/// Handles are registered lazily and shared: registering the same
/// name+label twice returns the *same* underlying atomic cell, so a
/// subsystem that reads a counter for its own bookkeeping (the engine's
/// [`stats`](https://docs.rs) path) and the metrics exposition read one
/// source of truth. Registration takes a write lock (cold path);
/// recording through a handle is lock-free.
///
/// Instances are cheap and independent, which keeps tests isolated: the
/// engine creates one per instance and the serve layer joins it.
///
/// # Examples
///
/// ```
/// use quclear_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let requests = registry.counter("requests_total", "requests handled");
/// requests.inc();
/// let latency = registry.histogram_labeled(
///     "request_duration_ns",
///     "per-request latency",
///     ("kind", "compile"),
/// );
/// latency.record(1_250);
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counter_value("requests_total", None), Some(1));
/// assert!(snapshot.to_prometheus_text().contains("requests_total 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<MetricKey, Registered>>,
}

fn read<T>(lock: &RwLock<T>) -> crate::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> crate::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, key: MetricKey, help: &str, build: impl FnOnce() -> Metric) -> Metric {
        if let Some(existing) = read(&self.metrics).get(&key) {
            return existing.metric.clone();
        }
        let mut metrics = write(&self.metrics);
        metrics
            .entry(key)
            .or_insert_with(|| Registered {
                metric: build(),
                help: help.to_string(),
            })
            .metric
            .clone()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the name+label is already registered as a different metric
    /// kind — that is a programming error, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_impl(name, help, None)
    }

    /// Registers (or retrieves) a counter with a `key="value"` label.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind mismatch, like [`MetricsRegistry::counter`].
    #[must_use]
    pub fn counter_labeled(&self, name: &str, help: &str, label: (&str, &str)) -> Arc<Counter> {
        self.counter_impl(name, help, Some(label))
    }

    fn counter_impl(&self, name: &str, help: &str, label: Option<(&str, &str)>) -> Arc<Counter> {
        let key = metric_key(name, label);
        match self.register(key, help, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(counter) => counter,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind mismatch, like [`MetricsRegistry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let key = metric_key(name, None);
        match self.register(key, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(gauge) => gauge,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind mismatch, like [`MetricsRegistry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_impl(name, help, None)
    }

    /// Registers (or retrieves) a histogram with a `key="value"` label.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind mismatch, like [`MetricsRegistry::counter`].
    #[must_use]
    pub fn histogram_labeled(&self, name: &str, help: &str, label: (&str, &str)) -> Arc<Histogram> {
        self.histogram_impl(name, help, Some(label))
    }

    fn histogram_impl(
        &self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
    ) -> Arc<Histogram> {
        let key = metric_key(name, label);
        match self.register(key, help, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(histogram) => histogram,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// The histogram registered under `name` (+ optional label), if any —
    /// without registering one.
    #[must_use]
    pub fn find_histogram(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Option<Arc<Histogram>> {
        match &read(&self.metrics).get(&metric_key(name, label))?.metric {
            Metric::Histogram(histogram) => Some(Arc::clone(histogram)),
            _ => None,
        }
    }

    /// A coherent point-in-time snapshot of every registered metric,
    /// ordered by name then label. Counters and gauges are single atomic
    /// loads; histograms snapshot their buckets (see
    /// [`crate::HistogramSnapshot`] for the coherence contract).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = read(&self.metrics);
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (key, registered) in metrics.iter() {
            let name = key.name.clone();
            let label = key.label.clone();
            let help = registered.help.clone();
            match &registered.metric {
                Metric::Counter(counter) => counters.push(CounterSample {
                    name,
                    label,
                    help,
                    value: counter.get(),
                }),
                Metric::Gauge(gauge) => gauges.push(GaugeSample {
                    name,
                    label,
                    help,
                    value: gauge.get(),
                }),
                Metric::Histogram(histogram) => histograms.push(HistogramSample::new(
                    name,
                    label,
                    help,
                    &histogram.snapshot(),
                )),
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn metric_key(name: &str, label: Option<(&str, &str)>) -> MetricKey {
    MetricKey {
        name: name.to_string(),
        label: label.map(|(k, v)| (k.to_string(), v.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_registration_returns_the_same_cell() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total", "first help wins");
        let b = registry.counter("x_total", "ignored");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_distinguish_metrics() {
        let registry = MetricsRegistry::new();
        let compile = registry.counter_labeled("errs_total", "", ("kind", "compile"));
        let sweep = registry.counter_labeled("errs_total", "", ("kind", "sweep"));
        compile.inc();
        assert_eq!(sweep.get(), 0);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter_value("errs_total", Some(("kind", "compile"))),
            Some(1)
        );
        assert_eq!(
            snapshot.counter_value("errs_total", Some(("kind", "sweep"))),
            Some(0)
        );
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("confused", "");
        let _ = registry.gauge("confused", "");
    }

    #[test]
    fn find_histogram_does_not_register() {
        let registry = MetricsRegistry::new();
        assert!(registry.find_histogram("absent", None).is_none());
        let _ = registry.histogram("present_ns", "");
        assert!(registry.find_histogram("present_ns", None).is_some());
        assert!(registry.snapshot().counters.is_empty());
        assert_eq!(registry.snapshot().histograms.len(), 1);
    }
}

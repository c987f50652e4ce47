//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment of this repository has no network access, so this
//! crate implements the API subset the workspace's benches use:
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`], [`BenchmarkId`]
//! and [`black_box`].
//!
//! Measurement model: each benchmark is warmed up, then timed over
//! `sample_size` samples; each sample runs the closure enough times to take
//! roughly [`SAMPLE_TARGET`]. Median, minimum and mean per-iteration times
//! are printed in a criterion-like format. Passing `--test` (as `cargo test`
//! does for harness-less targets) runs every closure exactly once. The
//! first argument that is not a flag filters benchmarks: only those whose
//! `group/id` contains it run (`cargo bench --bench kernels -- cache`).
//! Setting
//! the `CRITERION_JSON` environment variable to a path appends one JSON line
//! per benchmark: `{"id": .., "median_ns": .., "min_ns": .., "mean_ns": ..}`.

#![warn(missing_docs)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one measurement sample.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifier of one benchmark within a group: `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// Creates an id from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.test_mode {
            black_box(routine());
            self.samples_ns = vec![0.0];
            return;
        }
        // Calibrate: how many iterations fit in one sample window?
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters_per_sample =
            (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        // Warm-up.
        for _ in 0..iters_per_sample.min(100) {
            black_box(routine());
        }

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            self.samples_ns.push(elapsed / iters_per_sample as f64);
        }
    }
}

/// Summary statistics of one benchmark run, in nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Minimum per-iteration time.
    pub min_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
}

fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    Summary {
        median_ns: median,
        min_ns: min,
        mean_ns: mean,
    }
}

fn format_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The benchmark manager handed to `criterion_group!` targets.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args(std::env::args().skip(1))
    }
}

impl Criterion {
    /// Reads the command line (without the program name): `--test` selects
    /// test mode, and the first non-flag argument is the benchmark filter.
    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut criterion = Criterion {
            test_mode: false,
            filter: None,
        };
        for arg in args {
            if arg == "--test" {
                criterion.test_mode = true;
            } else if !arg.starts_with('-') && criterion.filter.is_none() {
                criterion.filter = Some(arg);
            }
        }
        criterion
    }

    /// Whether the benchmark `full_id` (`group/id`) passes the filter.
    fn selects(&self, full_id: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|filter| full_id.contains(filter))
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 50,
            test_mode: self.test_mode,
        }
    }

    /// Benchmarks a single closure outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let test_mode = self.test_mode;
        let mut group = self.benchmark_group("");
        group.run(id.to_string(), 50, test_mode, f);
        group.finish();
        self
    }
}

/// A named group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    test_mode: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let (sample_size, test_mode) = (self.sample_size, self.test_mode);
        self.run(id.to_string(), sample_size, test_mode, |b| f(b, input));
        self
    }

    /// Benchmarks a closure without an explicit input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let (sample_size, test_mode) = (self.sample_size, self.test_mode);
        self.run(id.to_string(), sample_size, test_mode, f);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(
        &mut self,
        id: String,
        sample_size: usize,
        test_mode: bool,
        mut f: F,
    ) {
        let full_id = if self.name.is_empty() {
            id
        } else {
            format!("{}/{}", self.name, id)
        };
        if !self.criterion.selects(&full_id) {
            return;
        }
        let mut bencher = Bencher {
            test_mode,
            sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        if test_mode {
            println!("test {full_id} ... ok");
            return;
        }
        if bencher.samples_ns.is_empty() {
            println!("{full_id:<40} (no measurement: Bencher::iter never called)");
            return;
        }
        let summary = summarize(&bencher.samples_ns);
        println!(
            "{full_id:<40} time: [{} {} {}]",
            format_time(summary.min_ns),
            format_time(summary.median_ns),
            format_time(summary.mean_ns),
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(
                    file,
                    "{{\"id\": \"{full_id}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"mean_ns\": {:.1}}}",
                    summary.median_ns, summary.min_ns, summary.mean_ns
                );
            }
        }
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 2.0);
        assert!((s.mean_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn format_time_scales() {
        assert!(format_time(12.0).contains("ns"));
        assert!(format_time(12_000.0).contains("µs"));
        assert!(format_time(12_000_000.0).contains("ms"));
        assert!(format_time(12_000_000_000.0).contains('s'));
    }

    #[test]
    fn bencher_runs_in_test_mode() {
        let mut c = Criterion::from_args(["--test".to_string()]);
        let mut calls = 0usize;
        let mut group = c.benchmark_group("g");
        group.bench_function("f", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn filter_is_the_first_non_flag_argument_matched_as_a_substring() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let c = Criterion::from_args(args(&["--bench", "cache", "other"]));
        assert!(!c.test_mode);
        assert!(c.selects("cache/warm_lookup_bind/1thread"));
        assert!(c.selects("engine/cache_hit"));
        assert!(!c.selects("tableau/apply/64"));

        let all = Criterion::from_args(args(&["--test"]));
        assert!(all.test_mode);
        assert!(all.selects("tableau/apply/64"));

        let mut c = Criterion::from_args(args(&["--test", "cache"]));
        let (mut kept, mut skipped) = (0usize, 0usize);
        let mut group = c.benchmark_group("cache");
        group.bench_function("hit", |b| b.iter(|| kept += 1));
        group.finish();
        let mut group = c.benchmark_group("tableau");
        group.bench_function("apply", |b| b.iter(|| skipped += 1));
        group.finish();
        assert_eq!((kept, skipped), (1, 0));
    }
}

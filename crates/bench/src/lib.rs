//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each table/figure of the QuCLEAR paper has a dedicated binary in
//! `src/bin/` (see DESIGN.md §3 for the index); this library provides the
//! pieces they share: compiling a benchmark with every method, timing,
//! pretty-printing aligned tables and writing machine-readable JSON into
//! `results/`.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use quclear_baselines::Method;
use quclear_circuit::Circuit;
use quclear_pauli::PauliRotation;
use quclear_workloads::Benchmark;
use serde::Json;

/// The metrics reported for one (benchmark, method) cell of Table III.
#[derive(Clone, Copy, Debug)]
pub struct MethodResult {
    /// CNOT gate count (SWAPs count as three).
    pub cnot_count: usize,
    /// Entangling (CNOT) depth.
    pub entangling_depth: usize,
    /// Single-qubit gate count.
    pub single_qubit_count: usize,
    /// Compile time in seconds.
    pub compile_time_s: f64,
}

impl MethodResult {
    /// Measures a compiled circuit together with its compile time.
    #[must_use]
    pub fn from_circuit(circuit: &Circuit, compile_time_s: f64) -> Self {
        MethodResult {
            cnot_count: circuit.cnot_count(),
            entangling_depth: circuit.entangling_depth(),
            single_qubit_count: circuit.single_qubit_count(),
            compile_time_s,
        }
    }

    /// The cell as a JSON object, fields in declaration order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let uint = |n: usize| Json::Uint(n as u64);
        Json::object([
            ("cnot_count", uint(self.cnot_count)),
            ("entangling_depth", uint(self.entangling_depth)),
            ("single_qubit_count", uint(self.single_qubit_count)),
            ("compile_time_s", Json::Float(self.compile_time_s)),
        ])
    }
}

/// Compiles a rotation program with a method, measuring wall-clock time.
#[must_use]
pub fn evaluate_method(method: Method, rotations: &[PauliRotation]) -> (Circuit, MethodResult) {
    let start = Instant::now();
    let circuit = method.compile(rotations);
    let elapsed = start.elapsed().as_secs_f64();
    let result = MethodResult::from_circuit(&circuit, elapsed);
    (circuit, result)
}

/// Returns the benchmark suite selected by the command line: `--small` skips
/// the two largest UCCSD instances, `--tiny` keeps only the quick ones.
#[must_use]
pub fn suite_from_args() -> Vec<Benchmark> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--tiny") {
        Benchmark::all()
            .into_iter()
            .filter(|b| b.rotations().len() <= 400)
            .collect()
    } else if args.iter().any(|a| a == "--small") {
        Benchmark::small_suite()
    } else {
        Benchmark::all()
    }
}

/// The directory experiment outputs are written to (`results/` at the
/// workspace root), created on demand.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("failed to create results directory");
    dir
}

/// Best-effort workspace root: the directory containing `Cargo.toml` with a
/// `[workspace]` table, falling back to the current directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(contents) = fs::read_to_string(&manifest) {
                if contents.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

/// Writes `value` as pretty JSON into `results/<name>.json`.
pub fn save_json(name: &str, value: &Json) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)).expect("failed to write results file");
    println!("\nwrote {}", path.display());
}

/// A minimal fixed-width table printer for the harness binaries.
#[derive(Debug, Default)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        TablePrinter {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_method_produces_consistent_metrics() {
        let program = Benchmark::Ucc(2, 4).rotations();
        let (circuit, result) = evaluate_method(Method::QuClear, &program);
        assert_eq!(result.cnot_count, circuit.cnot_count());
        assert!(result.compile_time_s >= 0.0);
    }

    #[test]
    fn workspace_root_contains_workspace_manifest() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
    }

    #[test]
    fn table_printer_does_not_panic() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.print();
    }
}

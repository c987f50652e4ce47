//! Regenerates Table III: CNOT count, entangling depth and compile time for
//! QuCLEAR and the baselines on a fully connected device.
//!
//! Run with `cargo run -p quclear-bench --release --bin table3`
//! (add `--small` to skip UCC-(8,16)/UCC-(10,20), `--tiny` for a quick pass).

use std::collections::BTreeMap;

use quclear_baselines::Method;
use quclear_bench::{evaluate_method, save_json, suite_from_args, MethodResult, TablePrinter};
use serde::Json;

struct Row {
    benchmark: String,
    results: BTreeMap<String, MethodResult>,
}

impl Row {
    fn to_json(&self) -> Json {
        let results = self.results.iter().map(|(m, r)| (m.as_str(), r.to_json()));
        Json::object([
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("results", Json::object(results)),
        ])
    }
}

fn main() {
    let suite = suite_from_args();
    let mut rows: Vec<Row> = Vec::new();

    for bench in &suite {
        let rotations = bench.rotations();
        eprintln!(
            "compiling {} ({} Pauli strings)…",
            bench.name(),
            rotations.len()
        );
        let mut results = BTreeMap::new();
        for method in Method::ALL {
            let (_circuit, result) = evaluate_method(method, &rotations);
            results.insert(method.name().to_string(), result);
        }
        rows.push(Row {
            benchmark: bench.name(),
            results,
        });
    }

    let methods: Vec<&str> = Method::ALL.iter().map(Method::name).collect();

    for (title, metric) in [
        ("CNOT gate count", 0usize),
        ("Entangling depth", 1),
        ("Compile time (s)", 2),
    ] {
        println!("\nTable III — {title}\n");
        let mut headers = vec!["Name"];
        headers.extend(methods.iter().copied());
        let mut table = TablePrinter::new(&headers);
        for row in &rows {
            let mut cells = vec![row.benchmark.clone()];
            for method in &methods {
                let r = &row.results[*method];
                cells.push(match metric {
                    0 => r.cnot_count.to_string(),
                    1 => r.entangling_depth.to_string(),
                    _ => format!("{:.4}", r.compile_time_s),
                });
            }
            table.add_row(cells);
        }
        table.print();
    }

    // Geometric-mean improvements of QuCLEAR over each baseline (the paper's
    // summary statistics).
    println!("\nGeometric-mean reduction of QuCLEAR vs baselines:");
    for baseline in ["Qiskit", "Rustiq", "PH", "tket"] {
        let mut cnot_ratio = 1.0f64;
        let mut depth_ratio = 1.0f64;
        let mut count = 0usize;
        for row in &rows {
            let q = &row.results["QuCLEAR"];
            let b = &row.results[baseline];
            if b.cnot_count > 0 && b.entangling_depth > 0 {
                cnot_ratio *= q.cnot_count as f64 / b.cnot_count as f64;
                depth_ratio *= q.entangling_depth as f64 / b.entangling_depth as f64;
                count += 1;
            }
        }
        if count > 0 {
            let gm_cnot = 1.0 - cnot_ratio.powf(1.0 / count as f64);
            let gm_depth = 1.0 - depth_ratio.powf(1.0 / count as f64);
            println!(
                "  vs {baseline:<7} CNOT reduction {:>5.1}%   depth reduction {:>5.1}%",
                100.0 * gm_cnot,
                100.0 * gm_depth
            );
        }
    }

    let rows = Json::Array(rows.iter().map(Row::to_json).collect());
    save_json("table3", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins a row of `results/table3.json`: per-method results nest as an
    /// object in method-name order.
    #[test]
    fn method_results_nest_in_key_order() {
        let mut results = BTreeMap::new();
        results.insert(
            "tket".to_string(),
            MethodResult {
                cnot_count: 40,
                entangling_depth: 31,
                single_qubit_count: 52,
                compile_time_s: 0.0625,
            },
        );
        results.insert(
            "QuCLEAR".to_string(),
            MethodResult {
                cnot_count: 12,
                entangling_depth: 9,
                single_qubit_count: 30,
                compile_time_s: 2.0,
            },
        );
        let row = Row {
            benchmark: "UCC-(2,4)".into(),
            results,
        };
        assert_eq!(
            serde_json::to_string_pretty(&row.to_json()),
            r#"{
  "benchmark": "UCC-(2,4)",
  "results": {
    "QuCLEAR": {
      "cnot_count": 12,
      "entangling_depth": 9,
      "single_qubit_count": 30,
      "compile_time_s": 2.0
    },
    "tket": {
      "cnot_count": 40,
      "entangling_depth": 31,
      "single_qubit_count": 52,
      "compile_time_s": 0.0625
    }
  }
}"#
        );
    }
}

//! Regenerates Table II: benchmark inventory (qubits, #Pauli, native #CNOT,
//! native #1-qubit gates).
//!
//! Run with `cargo run -p quclear-bench --release --bin table2`.

use quclear_bench::{save_json, suite_from_args, TablePrinter};
use serde::Json;

struct Row {
    benchmark: String,
    category: String,
    qubits: usize,
    num_pauli: usize,
    native_cnot: usize,
    native_single_qubit: usize,
}

impl Row {
    fn to_json(&self) -> Json {
        let uint = |n: usize| Json::Uint(n as u64);
        Json::object([
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("category", Json::Str(self.category.clone())),
            ("qubits", uint(self.qubits)),
            ("num_pauli", uint(self.num_pauli)),
            ("native_cnot", uint(self.native_cnot)),
            ("native_single_qubit", uint(self.native_single_qubit)),
        ])
    }
}

fn main() {
    let mut table = TablePrinter::new(&["Type", "Name", "#qubits", "#Pauli", "#CNOT", "#1Q"]);
    let mut rows = Vec::new();
    for bench in suite_from_args() {
        let rotations = bench.rotations();
        let row = Row {
            benchmark: bench.name(),
            category: bench.category().name().to_string(),
            qubits: bench.num_qubits(),
            num_pauli: rotations.len(),
            native_cnot: bench.native_cnot_count(),
            native_single_qubit: bench.native_single_qubit_count(),
        };
        table.add_row(vec![
            row.category.clone(),
            row.benchmark.clone(),
            row.qubits.to_string(),
            row.num_pauli.to_string(),
            row.native_cnot.to_string(),
            row.native_single_qubit.to_string(),
        ]);
        rows.push(row);
    }
    println!("Table II: benchmark information (native, unoptimized circuits)\n");
    table.print();
    let rows = Json::Array(rows.iter().map(Row::to_json).collect());
    save_json("table2", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins a row of `results/table2.json`: fields in declaration order.
    #[test]
    fn flat_row_renders_its_fields_in_order() {
        let row = Row {
            benchmark: "UCC-(2,4)".into(),
            category: "UCCSD".into(),
            qubits: 4,
            num_pauli: 24,
            native_cnot: 128,
            native_single_qubit: 0,
        };
        assert_eq!(
            serde_json::to_string_pretty(&row.to_json()),
            r#"{
  "benchmark": "UCC-(2,4)",
  "category": "UCCSD",
  "qubits": 4,
  "num_pauli": 24,
  "native_cnot": 128,
  "native_single_qubit": 0
}"#
        );
    }
}

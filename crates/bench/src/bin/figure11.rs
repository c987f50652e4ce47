//! Regenerates Figure 11: CNOT counts after mapping the compiled circuits to
//! devices with limited connectivity (a Sycamore-like 2-D grid and an IBM
//! Manhattan-like heavy-hex lattice).
//!
//! Run with `cargo run -p quclear-bench --release --bin figure11`
//! (add `--small` to replace UCC-(10,20) with UCC-(6,12)).

use std::collections::BTreeMap;

use quclear_baselines::Method;
use quclear_bench::{save_json, TablePrinter};
use quclear_circuit::{route, CouplingMap};
use quclear_workloads::Benchmark;
use serde::Json;

struct Row {
    benchmark: String,
    device: String,
    /// Post-routing CNOT count per method (SWAPs count as three CNOTs).
    routed_cnot: BTreeMap<String, usize>,
}

impl Row {
    fn to_json(&self) -> Json {
        let routed_cnot = self
            .routed_cnot
            .iter()
            .map(|(method, &count)| (method.as_str(), Json::Uint(count as u64)));
        Json::object([
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("device", Json::Str(self.device.clone())),
            ("routed_cnot", Json::object(routed_cnot)),
        ])
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small" || a == "--tiny");
    let chem = if small {
        Benchmark::Ucc(6, 12)
    } else {
        Benchmark::Ucc(10, 20)
    };
    let benches = [
        chem,
        Benchmark::Molecule(quclear_workloads::Molecule::Benzene),
        Benchmark::Labs(20),
        Benchmark::MaxCutRegular { n: 20, degree: 12 },
    ];
    let devices = [
        ("Sycamore-like grid", CouplingMap::sycamore_like()),
        ("Manhattan-like heavy-hex", CouplingMap::heavy_hex_65()),
    ];
    // Tetris is hardware-aware Paulihedral; in this reproduction it is folded
    // into PH + routing (see DESIGN.md), so the compared methods are the
    // remaining four columns of Figure 11.
    let methods = [
        Method::QiskitLike,
        Method::TketLike,
        Method::PaulihedralLike,
        Method::QuClear,
    ];

    let mut rows = Vec::new();
    for bench in &benches {
        let rotations = bench.rotations();
        eprintln!(
            "compiling {} ({} Pauli strings)…",
            bench.name(),
            rotations.len()
        );
        let compiled: Vec<(Method, quclear_circuit::Circuit)> = methods
            .iter()
            .map(|m| (*m, m.compile(&rotations)))
            .collect();
        for (device_name, coupling) in &devices {
            let mut routed_cnot = BTreeMap::new();
            for (method, circuit) in &compiled {
                let result = route(circuit, coupling);
                routed_cnot.insert(method.name().to_string(), result.circuit.cnot_count());
            }
            rows.push(Row {
                benchmark: bench.name(),
                device: (*device_name).to_string(),
                routed_cnot,
            });
        }
    }

    for (device_name, _) in &devices {
        println!("\nFigure 11 — mapping to {device_name}\n");
        let mut headers = vec!["Name"];
        let method_names: Vec<&str> = methods.iter().map(Method::name).collect();
        headers.extend(method_names.iter().copied());
        let mut table = TablePrinter::new(&headers);
        for row in rows.iter().filter(|r| r.device == **device_name) {
            let mut cells = vec![row.benchmark.clone()];
            for name in &method_names {
                cells.push(row.routed_cnot[*name].to_string());
            }
            table.add_row(cells);
        }
        table.print();
    }
    let rows = Json::Array(rows.iter().map(Row::to_json).collect());
    save_json("figure11", &rows);
}

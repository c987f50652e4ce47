//! Regenerates Figure 10: CNOT-count breakdown of the individual QuCLEAR
//! features on UCC-(4,8) and MaxCut-(n20, r8).
//!
//! The stages mirror the paper: native synthesis → recursive-tree Clifford
//! extraction (terminal Clifford still counted) → + commuting-block
//! reordering → + Clifford absorption (terminal Clifford removed) → + local
//! ("Qiskit") optimization.
//!
//! Run with `cargo run -p quclear-bench --release --bin figure10`.

use quclear_bench::{save_json, TablePrinter};
use quclear_circuit::optimize;
use quclear_core::{extract_clifford, ExtractionConfig};
use quclear_pauli::PauliRotation;
use quclear_workloads::Benchmark;
use serde::Json;

struct Breakdown {
    benchmark: String,
    native: usize,
    extraction_recursive_tree: usize,
    plus_commuting_blocks: usize,
    plus_absorption: usize,
    plus_local_optimization: usize,
}

impl Breakdown {
    fn to_json(&self) -> Json {
        let uint = |n: usize| Json::Uint(n as u64);
        Json::object([
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("native", uint(self.native)),
            (
                "extraction_recursive_tree",
                uint(self.extraction_recursive_tree),
            ),
            ("plus_commuting_blocks", uint(self.plus_commuting_blocks)),
            ("plus_absorption", uint(self.plus_absorption)),
            (
                "plus_local_optimization",
                uint(self.plus_local_optimization),
            ),
        ])
    }
}

fn breakdown(bench: &Benchmark) -> Breakdown {
    let rotations = bench.rotations();
    let native: usize = rotations.iter().map(PauliRotation::native_cnot_cost).sum();

    // Stage 2: recursive-tree extraction, no reordering; the extracted
    // Clifford is still part of the circuit (not yet absorbed).
    let no_reorder = extract_clifford(
        &rotations,
        &ExtractionConfig {
            recursive_tree: true,
            reorder_commuting: false,
            ..ExtractionConfig::default()
        },
    );
    let extraction_only = no_reorder.full_circuit().cnot_count();

    // Stage 3: + commuting-block reordering (Clifford still counted).
    let with_reorder = extract_clifford(&rotations, &ExtractionConfig::default());
    let with_commuting = with_reorder.full_circuit().cnot_count();

    // Stage 4: + absorption — only the optimized circuit runs on hardware.
    let absorbed = with_reorder.optimized.cnot_count();

    // Stage 5: + local peephole optimization.
    let local = optimize(&with_reorder.optimized).cnot_count();

    Breakdown {
        benchmark: bench.name(),
        native,
        extraction_recursive_tree: extraction_only,
        plus_commuting_blocks: with_commuting,
        plus_absorption: absorbed,
        plus_local_optimization: local,
    }
}

fn main() {
    let benches = [
        Benchmark::Ucc(4, 8),
        Benchmark::MaxCutRegular { n: 20, degree: 8 },
    ];
    let rows: Vec<Breakdown> = benches.iter().map(breakdown).collect();

    println!("Figure 10: CNOT count after each optimization feature\n");
    let mut table = TablePrinter::new(&[
        "Benchmark",
        "native",
        "+CE (recursive tree)",
        "+commuting blocks",
        "+absorption",
        "+local opt",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.benchmark.clone(),
            row.native.to_string(),
            row.extraction_recursive_tree.to_string(),
            row.plus_commuting_blocks.to_string(),
            row.plus_absorption.to_string(),
            row.plus_local_optimization.to_string(),
        ]);
    }
    table.print();
    println!("\n(paper, UCC-(4,8):        2624 → 1014 → 984 → ~half → 448)");
    println!("(paper, MaxCut-(n20,r8):  320  → 286  → 258 → 129 → 129)");
    let rows = Json::Array(rows.iter().map(Breakdown::to_json).collect());
    save_json("figure10", &rows);
}

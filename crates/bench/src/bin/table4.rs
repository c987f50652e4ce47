//! Regenerates Table IV: Clifford-Absorption runtime versus the number of
//! observables (UCC-style workload) and the number of measured states
//! (MaxCut-style workload).
//!
//! Run with `cargo run -p quclear-bench --release --bin table4`
//! (add `--small` to use UCC-(4,8) instead of UCC-(10,20)).

use std::collections::BTreeMap;
use std::time::Instant;

use quclear_bench::{save_json, TablePrinter};
use quclear_core::{compile, QuClearConfig};
use quclear_pauli::{PauliOp, PauliString, SignedPauli};
use quclear_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Json;

struct Row {
    count: usize,
    observable_absorption_s: f64,
    state_post_processing_s: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::Uint(self.count as u64)),
            (
                "observable_absorption_s",
                Json::Float(self.observable_absorption_s),
            ),
            (
                "state_post_processing_s",
                Json::Float(self.state_post_processing_s),
            ),
        ])
    }
}

fn random_observables(n: usize, count: usize, rng: &mut StdRng) -> Vec<SignedPauli> {
    (0..count)
        .map(|_| {
            let ops: Vec<PauliOp> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => PauliOp::I,
                    1 => PauliOp::X,
                    2 => PauliOp::Y,
                    _ => PauliOp::Z,
                })
                .collect();
            SignedPauli::positive(PauliString::from_ops(&ops))
        })
        .collect()
}

fn main() {
    let small = std::env::args().any(|a| a == "--small" || a == "--tiny");
    let chem = if small {
        Benchmark::Ucc(4, 8)
    } else {
        Benchmark::Ucc(10, 20)
    };
    let maxcut = Benchmark::MaxCutRegular { n: 20, degree: 12 };

    eprintln!("compiling {} for the observable benchmark…", chem.name());
    let chem_result = compile(&chem.rotations(), &QuClearConfig::default());
    eprintln!("compiling {} for the state benchmark…", maxcut.name());
    let maxcut_result = compile(&maxcut.rotations(), &QuClearConfig::default());
    let absorber = maxcut_result
        .probability_absorber()
        .expect("QAOA extracted Clifford must be probability-absorbable");

    let mut rng = StdRng::seed_from_u64(0xAB50);
    let counts = [10usize, 50, 100, 500, 1000, 5000];
    let mut rows = Vec::new();
    let n_chem = chem.num_qubits();
    let n_cut = maxcut.num_qubits();

    for &count in &counts {
        // Observable absorption runtime (CA-Pre for VQE workloads).
        let observables = random_observables(n_chem, count, &mut rng);
        let start = Instant::now();
        let absorption = chem_result.absorb_observables(&observables);
        let observable_time = start.elapsed().as_secs_f64();
        assert_eq!(absorption.len(), count);

        // Measured-state post-processing runtime (CA-Post for QAOA workloads).
        let mut measured: BTreeMap<usize, u64> = BTreeMap::new();
        while measured.len() < count {
            let state = rng.gen_range(0..(1usize << n_cut));
            *measured.entry(state).or_insert(0) += 1;
        }
        let start = Instant::now();
        let post = absorber.post_process_counts(&measured);
        let state_time = start.elapsed().as_secs_f64();
        assert_eq!(post.values().sum::<u64>(), measured.values().sum::<u64>());

        rows.push(Row {
            count,
            observable_absorption_s: observable_time,
            state_post_processing_s: state_time,
        });
    }

    println!(
        "Table IV: Clifford Absorption runtime (s) for {} observables and {} states\n",
        chem.name(),
        maxcut.name()
    );
    let mut table = TablePrinter::new(&["Number", "Observables (s)", "States (s)"]);
    for row in &rows {
        table.add_row(vec![
            row.count.to_string(),
            format!("{:.4}", row.observable_absorption_s),
            format!("{:.4}", row.state_post_processing_s),
        ]);
    }
    table.print();
    let rows = Json::Array(rows.iter().map(Row::to_json).collect());
    save_json("table4", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins a row of `results/table4.json`: an integral `f64` keeps its `.0`,
    /// so readers can tell it from a count.
    #[test]
    fn integral_floats_keep_their_decimal_point() {
        let row = Row {
            count: 500,
            observable_absorption_s: 2.0,
            state_post_processing_s: 0.000_125,
        };
        assert_eq!(
            serde_json::to_string_pretty(&row.to_json()),
            r#"{
  "count": 500,
  "observable_absorption_s": 2.0,
  "state_post_processing_s": 0.000125
}"#
        );
    }
}

//! Regenerates Figure 9: QuCLEAR with and without the local ("Qiskit")
//! peephole optimization — CNOT counts and compile times.
//!
//! Run with `cargo run -p quclear-bench --release --bin figure9`
//! (add `--small` / `--tiny` to shrink the suite).

use std::time::Instant;

use quclear_bench::{save_json, suite_from_args, TablePrinter};
use quclear_core::{compile, QuClearConfig};
use serde::Json;

struct Row {
    benchmark: String,
    cnot_without_peephole: usize,
    cnot_with_peephole: usize,
    time_without_peephole_s: f64,
    time_with_peephole_s: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        let uint = |n: usize| Json::Uint(n as u64);
        Json::object([
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("cnot_without_peephole", uint(self.cnot_without_peephole)),
            ("cnot_with_peephole", uint(self.cnot_with_peephole)),
            (
                "time_without_peephole_s",
                Json::Float(self.time_without_peephole_s),
            ),
            (
                "time_with_peephole_s",
                Json::Float(self.time_with_peephole_s),
            ),
        ])
    }
}

fn main() {
    let mut rows = Vec::new();
    for bench in suite_from_args() {
        let rotations = bench.rotations();
        eprintln!("compiling {}…", bench.name());

        let start = Instant::now();
        let without = compile(&rotations, &QuClearConfig::without_peephole());
        let time_without = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let with = compile(&rotations, &QuClearConfig::default());
        let time_with = start.elapsed().as_secs_f64();

        rows.push(Row {
            benchmark: bench.name(),
            cnot_without_peephole: without.cnot_count(),
            cnot_with_peephole: with.cnot_count(),
            time_without_peephole_s: time_without,
            time_with_peephole_s: time_with,
        });
    }

    println!("Figure 9: QuCLEAR with vs without the local optimization pass\n");
    let mut table = TablePrinter::new(&[
        "Name",
        "CNOT (QuCLEAR only)",
        "CNOT (+local opt)",
        "time (s, QuCLEAR only)",
        "time (s, +local opt)",
    ]);
    let mut ratio_product = 1.0f64;
    let mut count = 0usize;
    for row in &rows {
        table.add_row(vec![
            row.benchmark.clone(),
            row.cnot_without_peephole.to_string(),
            row.cnot_with_peephole.to_string(),
            format!("{:.4}", row.time_without_peephole_s),
            format!("{:.4}", row.time_with_peephole_s),
        ]);
        if row.cnot_without_peephole > 0 {
            ratio_product *= row.cnot_with_peephole as f64 / row.cnot_without_peephole as f64;
            count += 1;
        }
    }
    table.print();
    if count > 0 {
        println!(
            "\naverage CNOT reduction from the local pass: {:.1}% (paper reports ~4.4%)",
            100.0 * (1.0 - ratio_product.powf(1.0 / count as f64))
        );
    }
    let rows = Json::Array(rows.iter().map(Row::to_json).collect());
    save_json("figure9", &rows);
}

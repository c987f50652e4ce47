//! Oracles that share no code with the compiler under test: the returned
//! QASM is parsed, simulated densely, and compared with the native rotation
//! program simulated rotation by rotation.

use std::collections::BTreeMap;

use quclear_circuit::qasm::from_qasm;
use quclear_circuit::Circuit;
use quclear_serve::{CompiledSummary, RequestKind, ResponseBody};
use quclear_sim::StateVector;
use rand::Rng;

use crate::drive::Sample;
use crate::workload::{self, Structure};

/// Registers up to this size get the statevector checks.
pub const MAX_ORACLE_QUBITS: usize = 12;

/// Standard errors an estimate may deviate by (`1/√shots` bounds the
/// standard error of a ±1 observable). A run checks ~10⁴ observables, so
/// 5σ would fail a correct server now and then (a 5.1σ benzene term was
/// seen); at 6.5σ the chance per run is below 10⁻⁵, while a wrong group,
/// sign or basis still misses by far more.
const Z_TOLERANCE: f64 = 6.5;

/// Tolerance on `|⟨native|compiled⟩| − 1`.
const OVERLAP_TOLERANCE: f64 = 1e-6;

/// Quality of the returned circuits, one entry per structure.
#[derive(Debug, Default)]
pub struct Quality {
    /// `(CNOTs, entangling depth)` of the optimized circuit, by structure.
    pub per_structure: BTreeMap<usize, (usize, usize)>,
}

impl Quality {
    fn record(
        &mut self,
        structure: &Structure,
        index: usize,
        measured: (usize, usize),
    ) -> Result<(), String> {
        let first = *self.per_structure.entry(index).or_insert(measured);
        if first == measured {
            Ok(())
        } else {
            Err(format!(
                "{}: CNOTs/depth {measured:?} differ from an earlier response's {first:?}",
                structure.name
            ))
        }
    }

    /// Totals over every structure; an unsampled structure is an error, since
    /// the totals would silently shrink.
    pub fn totals(&self, structures: &[Structure]) -> Result<(u64, u64), String> {
        let mut cx = 0u64;
        let mut depth = 0u64;
        for (index, s) in structures.iter().enumerate() {
            let &(c, d) = self
                .per_structure
                .get(&index)
                .ok_or_else(|| format!("{}: no circuit was sampled", s.name))?;
            cx += c as u64;
            depth += d as u64;
        }
        Ok((cx, depth))
    }
}

/// Checks every sample; returns the number of checks run and the failures.
pub fn verify(
    structures: &[Structure],
    samples: &[Sample],
    seed: u64,
    quality: &mut Quality,
) -> (usize, Vec<String>) {
    let mut checks = 0;
    let mut failures = Vec::new();
    for (n, sample) in samples.iter().enumerate() {
        let s = &structures[sample.structure];
        let state_seed = workload::derive_seed(seed, 0x0DAC_1E00 + n as u64);
        let mut circuit = |angles: &[f64], summary: &CompiledSummary| {
            verify_circuit(s, angles, summary, state_seed)
                .and_then(|m| quality.record(s, sample.structure, m))
        };
        let outcome = match (&sample.kind, &sample.body) {
            (RequestKind::Compile { angles, .. }, ResponseBody::Compiled(summary)) => {
                checks += 1;
                circuit(angles, summary)
            }
            (RequestKind::Sweep { angle_sets, .. }, ResponseBody::Sweep(results)) => {
                checks += results.len();
                angle_sets
                    .iter()
                    .zip(results)
                    .try_for_each(|(angles, result)| match result {
                        Ok(summary) => circuit(angles, summary),
                        Err(e) => Err(format!("{}: sweep point failed: {e}", s.name)),
                    })
            }
            (
                RequestKind::Estimate { angles, shots, .. },
                ResponseBody::Estimated { expectations, .. },
            ) => {
                checks += 1;
                verify_estimate(s, angles, *shots, expectations)
            }
            (kind, body) => Err(format!(
                "{}: response {body:?} does not answer {}",
                s.name,
                kind.name()
            )),
        };
        if let Err(e) = outcome {
            failures.push(e);
        }
    }
    (checks, failures)
}

/// Parses the returned circuits and, on small registers, requires
/// `extracted · optimized` to act like the native program on a seeded
/// product state. Returns the optimized circuit's `(CNOTs, entangling depth)`.
fn verify_circuit(
    s: &Structure,
    angles: &[f64],
    summary: &CompiledSummary,
    seed: u64,
) -> Result<(usize, usize), String> {
    let parse = |qasm: &str, which: &str| {
        from_qasm(qasm).map_err(|e| format!("{}: {which} QASM does not parse: {e}", s.name))
    };
    let optimized = parse(&summary.optimized_qasm, "optimized")?;
    let extracted = parse(&summary.extracted_qasm, "extracted")?;
    if optimized.cnot_count() != summary.cnot_count {
        return Err(format!(
            "{}: QASM holds {} CNOTs, response claims {}",
            s.name,
            optimized.cnot_count(),
            summary.cnot_count
        ));
    }
    if optimized.num_qubits() != s.num_qubits || extracted.num_qubits() != s.num_qubits {
        return Err(format!(
            "{}: returned circuits have the wrong register size",
            s.name
        ));
    }
    if s.num_qubits <= MAX_ORACLE_QUBITS {
        let input = product_state(s.num_qubits, seed);
        let mut native = input.clone();
        native.apply_rotations(&s.bound(angles));
        let mut compiled = input;
        compiled.apply_circuit(&optimized);
        compiled.apply_circuit(&extracted);
        if !native.approx_eq_up_to_phase(&compiled, OVERLAP_TOLERANCE) {
            return Err(format!(
                "{}: statevector mismatch, |<native|compiled>| = {}",
                s.name,
                native.inner_product(&compiled).norm()
            ));
        }
    }
    Ok((optimized.cnot_count(), optimized.entangling_depth()))
}

/// Every sampled expectation must lie within `Z_TOLERANCE/√shots` of the
/// exact expectation of the native program on `|0…0⟩`.
fn verify_estimate(
    s: &Structure,
    angles: &[f64],
    shots: u64,
    expectations: &[f64],
) -> Result<(), String> {
    let mut state = StateVector::zero_state(s.num_qubits);
    state.apply_rotations(&s.bound(angles));
    let tolerance = Z_TOLERANCE / (shots as f64).sqrt();
    for (observable, &estimate) in s.observables.iter().zip(expectations) {
        let exact = state.expectation_signed(observable);
        if (estimate - exact).abs() > tolerance {
            return Err(format!(
                "{}: <{observable}> estimated {estimate}, exact {exact} (tolerance {tolerance})",
                s.name
            ));
        }
    }
    Ok(())
}

/// `⊗_q Rz(φ_q)·Ry(θ_q)|0⟩` with seeded angles: a generic input on which
/// unequal circuits almost surely disagree.
fn product_state(num_qubits: usize, seed: u64) -> StateVector {
    let mut rng = workload::rng(seed, 0);
    let mut prep = Circuit::new(num_qubits);
    for q in 0..num_qubits {
        prep.ry(q, rng.gen_range(0.1..3.0));
        prep.rz(q, rng.gen_range(-3.0..3.0));
    }
    StateVector::from_circuit(&prep)
}

//! Property-based and simulator-backed validation of the template engine:
//! a warm `bind` must reproduce a from-scratch `compile` gate for gate, and
//! remain unitarily correct even in the zero-angle corner where the two
//! pipelines legitimately produce different gate lists.

use std::f64::consts::{FRAC_PI_2, PI};

use proptest::prelude::*;
use quclear_circuit::qasm::{from_qasm, to_qasm};
use quclear_core::{compile, QuClearConfig};
use quclear_engine::{CompiledTemplate, Engine, ENGINE_STAGE_METRIC};
use quclear_pauli::{PauliOp, PauliRotation, PauliString};
use quclear_sim::StateVector;
use quclear_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random rotation programs on `n` qubits with non-zero angles (the regime
/// where bind/compile equivalence is exact).
fn rotation_strategy(n: usize, len: usize) -> impl Strategy<Value = Vec<PauliRotation>> {
    let single = (prop::collection::vec(0u8..4, n), 1u8..2, 0.05f64..2.9).prop_map(
        move |(ops, sign_bit, magnitude)| {
            let ops: Vec<PauliOp> = ops
                .into_iter()
                .map(|v| match v {
                    0 => PauliOp::I,
                    1 => PauliOp::X,
                    2 => PauliOp::Y,
                    _ => PauliOp::Z,
                })
                .collect();
            let angle = if sign_bit == 0 { -magnitude } else { magnitude };
            PauliRotation::new(PauliString::from_ops(&ops), angle)
        },
    );
    prop::collection::vec(single, 1..=len)
}

/// Angles that stress the served text: exact `0.0` and `-0.0`, multiples
/// of π/2 (which cancel a slot's folded offset or land on zero), the
/// extremes 1e-300 and 1e300, whose shortest spellings are 300 digits
/// long, and ordinary values.
fn served_angle_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    let angle = (0u8..8, -4i32..=4, -3.2f64..3.2).prop_map(|(kind, k, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from(k) * FRAC_PI_2,
        3 => 1e-300,
        4 => -1e300,
        _ => x,
    });
    prop::collection::vec(angle, len)
}

/// The texts a server returns for a bind equal `to_qasm` of the bound
/// circuits byte for byte, and parse back to the bound circuit.
fn served_texts_match_to_qasm(template: &CompiledTemplate, angles: &[f64]) -> Result<(), String> {
    let angles = &angles[..template.num_params()];
    let bound = template.bind(angles).unwrap();
    let (optimized, extracted) = template.render_qasm(&bound.optimized);
    prop_assert_eq!(&optimized, &to_qasm(&bound.optimized));
    prop_assert_eq!(&extracted, &to_qasm(&bound.extracted));
    let reparsed = from_qasm(&optimized).unwrap();
    prop_assert_eq!(reparsed.num_qubits(), bound.optimized.num_qubits());
    prop_assert_eq!(reparsed.gates(), bound.optimized.gates());
    let reparsed = from_qasm(&extracted).unwrap();
    prop_assert_eq!(reparsed.gates(), bound.extracted.gates());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A served render — the skeleton's holes filled, or `to_qasm` when the
    /// bind ran the peephole — is `to_qasm` of the bind, for a patchable
    /// skeleton with and without the peephole and for a raw skeleton (the
    /// program's first rotation repeated, which the marker peephole merges).
    /// Each template renders twice, so the second render reuses its text.
    #[test]
    fn served_qasm_equals_to_qasm_of_the_bind(
        small in rotation_strategy(3, 6),
        large in rotation_strategy(8, 10),
        first in served_angle_strategy(11),
        second in served_angle_strategy(11),
    ) {
        for program in [&small, &large] {
            let mut repeated = vec![program[0].clone()];
            repeated.extend(program.iter().cloned());
            for (program, config) in [
                (program, QuClearConfig::default()),
                (program, QuClearConfig::without_peephole()),
                (&repeated, QuClearConfig::default()),
            ] {
                let template = CompiledTemplate::compile_program(program, &config).unwrap();
                served_texts_match_to_qasm(&template, &first)?;
                served_texts_match_to_qasm(&template, &second)?;
            }
        }
    }

    /// The headline invariant: binding a template with a program's angles is
    /// gate-for-gate identical to compiling that program from scratch, for
    /// both pipeline configurations.
    #[test]
    fn bind_is_gate_for_gate_equivalent_to_compile(
        program in rotation_strategy(5, 8),
        peephole in any::<bool>(),
    ) {
        let config = if peephole {
            QuClearConfig::default()
        } else {
            QuClearConfig::without_peephole()
        };
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let bound = template.bind_program(&program).unwrap();
        let direct = compile(&program, &config);
        prop_assert_eq!(bound.optimized.gates(), direct.optimized.gates());
        prop_assert_eq!(bound.extracted.gates(), direct.extracted.gates());
    }

    /// Rebinding to fresh angles equals a fresh compile of the re-angled
    /// program — the sweep use case.
    #[test]
    fn rebind_tracks_fresh_compiles(
        program in rotation_strategy(4, 6),
        new_angles in prop::collection::vec(0.05f64..3.0, 6),
    ) {
        let config = QuClearConfig::default();
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let angles: Vec<f64> = program
            .iter()
            .enumerate()
            .map(|(i, _)| new_angles[i % new_angles.len()])
            .collect();
        let bound = template.bind(&angles).unwrap();

        let reangled: Vec<PauliRotation> = program
            .iter()
            .zip(&angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        let direct = compile(&reangled, &config);
        prop_assert_eq!(bound.optimized.gates(), direct.optimized.gates());
    }

    /// With exact-zero angles the gate lists may differ (direct compilation
    /// skips the rotation, the template keeps its Clifford structure), but
    /// the implemented unitary must not.
    #[test]
    fn zero_angles_stay_unitarily_correct(
        program in rotation_strategy(4, 5),
        zero_mask in prop::collection::vec(any::<bool>(), 5),
    ) {
        let config = QuClearConfig::default();
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let angles: Vec<f64> = program
            .iter()
            .enumerate()
            .map(|(i, r)| if zero_mask[i % zero_mask.len()] { 0.0 } else { r.angle() })
            .collect();
        let bound = template.bind(&angles).unwrap();

        let zeroed: Vec<PauliRotation> = program
            .iter()
            .zip(&angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        let direct = compile(&zeroed, &config);
        let bound_state = StateVector::from_circuit(&bound.full_circuit());
        let direct_state = StateVector::from_circuit(&direct.full_circuit());
        prop_assert!(
            bound_state.approx_eq_up_to_phase(&direct_state, 1e-8),
            "zero-angle binding changed the unitary"
        );
    }

    /// The engine front-end preserves the equivalence through its cache.
    #[test]
    fn engine_compile_matches_core_compile(program in rotation_strategy(4, 6)) {
        let engine = Engine::new(16);
        let via_engine = engine.compile(&program).unwrap();
        let direct = compile(&program, &QuClearConfig::default());
        prop_assert_eq!(via_engine.optimized.gates(), direct.optimized.gates());
    }
}

/// Regression for the ROADMAP slot-merge fallback: when the *marker*
/// peephole merges two parameterized rotations (identical adjacent axes),
/// the template cannot patch the optimized skeleton and must fall back to
/// binding from the raw skeleton — which still reproduces a from-scratch
/// compile gate for gate.
#[test]
fn compile_time_slot_merge_falls_back_to_the_raw_skeleton() {
    let config = QuClearConfig::default();
    let program = vec![
        PauliRotation::parse("ZZ", 0.3).unwrap(),
        PauliRotation::parse("ZZ", 0.5).unwrap(),
    ];
    let template = CompiledTemplate::compile_program(&program, &config).unwrap();
    assert_eq!(template.num_params(), 2);
    for angles in [[0.3, 0.5], [1.1, -0.4], [0.25, 0.25]] {
        let bound = template.bind(&angles).unwrap();
        let reangled: Vec<PauliRotation> = program
            .iter()
            .zip(&angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        let direct = compile(&reangled, &config);
        assert_eq!(
            bound.optimized.gates(),
            direct.optimized.gates(),
            "slot-merge fallback must stay gate-for-gate exact at {angles:?}"
        );
    }
}

/// Regression for the other half of the ROADMAP note: two parameterized
/// rotations that become *adjacent only after a zero-angle bind* (the
/// rotation between them vanishes) must trigger the full peephole rerun and
/// stay sim-equivalent to a from-scratch compile, even though the merged
/// gate lists legitimately differ.
#[test]
fn zero_angle_adjacency_merge_falls_back_and_stays_equivalent() {
    use quclear_circuit::Gate;
    let config = QuClearConfig::default();
    let cases: [&[&str]; 2] = [&["ZZ", "XX", "ZZ"], &["ZZI", "IXX", "ZZI"]];
    for axes in cases {
        let program: Vec<PauliRotation> = axes
            .iter()
            .map(|p| PauliRotation::parse(p, 0.3).unwrap())
            .collect();
        let template = CompiledTemplate::compile_program(&program, &config).unwrap();
        let angles = [0.3, 0.0, 0.5];
        let bound = template.bind(&angles[..axes.len()]).unwrap();
        let zeroed: Vec<PauliRotation> = program
            .iter()
            .zip(&angles)
            .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
            .collect();
        let direct = compile(&zeroed, &config);
        // The from-scratch compile merges the now-adjacent rotations into a
        // single Rz — fewer parameterized gates than template slots.
        let rz = |c: &quclear_circuit::Circuit| {
            c.gates()
                .iter()
                .filter(|g| matches!(g, Gate::Rz { .. }))
                .count()
        };
        assert!(
            rz(&direct.optimized) < axes.len(),
            "direct compile of {axes:?} must merge the adjacent rotations"
        );
        let bound_state = StateVector::from_circuit(&bound.full_circuit());
        let direct_state = StateVector::from_circuit(&direct.full_circuit());
        assert!(
            bound_state.approx_eq_up_to_phase(&direct_state, 1e-8),
            "zero-angle adjacency merge broke equivalence for {axes:?}"
        );
    }
}

/// A warm bind with generic angles patches the optimized skeleton and never
/// runs the peephole: every benchmark program's slots must decode at compile
/// time. A decode regression keeps every answer correct (the raw-skeleton
/// fallback is exact) but makes binds several times slower, so this counts
/// peephole runs directly. An all-zero bind must still take the fallback.
#[test]
fn generic_binds_of_benchmark_programs_never_run_the_peephole() {
    let mut rng = StdRng::seed_from_u64(17);
    for bench in Benchmark::small_suite() {
        let engine = Engine::new(4);
        let peephole_runs = || {
            engine
                .metrics_snapshot()
                .histogram(ENGINE_STAGE_METRIC, Some(("stage", "peephole")))
                .expect("peephole stage registered")
                .count()
        };
        let program = bench.rotations();
        let reangled = |angles: Vec<f64>| -> Vec<PauliRotation> {
            program
                .iter()
                .zip(angles)
                .map(|(r, a)| PauliRotation::new(r.pauli().clone(), a))
                .collect()
        };
        engine.compile(&program).unwrap();
        let warm = peephole_runs();
        for _ in 0..2 {
            let angles = (0..program.len()).map(|_| rng.gen_range(-PI..PI)).collect();
            engine.compile(&reangled(angles)).unwrap();
        }
        assert_eq!(
            peephole_runs(),
            warm,
            "{}: a generic bind ran the peephole",
            bench.name()
        );
        engine.compile(&reangled(vec![0.0; program.len()])).unwrap();
        assert_eq!(
            peephole_runs(),
            warm + 1,
            "{}: an all-zero bind must re-run the peephole once",
            bench.name()
        );
    }
}

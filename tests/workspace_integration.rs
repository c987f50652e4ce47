//! Workspace-level integration tests: benchmarks → compilers → simulator,
//! spanning every crate through the public facade.

use quclear::baselines::{synthesize_naive, Method};
use quclear::circuit::{route, CouplingMap};
use quclear::core::{compile, extract_clifford, ProbabilityAbsorber, QuClearConfig};
use quclear::prelude::*;
use quclear::sim::StateVector;
use quclear::tableau::CliffordTableau;
use quclear::workloads::{maxcut_qaoa, qaoa_initial_layer, Benchmark, Graph, Molecule, Uccsd};

/// Every compilation method produces a unitarily equivalent circuit on a
/// small UCCSD instance (QuCLEAR once its extracted Clifford is re-attached).
#[test]
fn all_methods_agree_on_ucc_2_4() {
    let program = Uccsd::new(2, 4).rotations();
    let reference = StateVector::from_circuit(&synthesize_naive(&program));

    for method in Method::ALL {
        let circuit = match method {
            Method::QuClear => compile(&program, &QuClearConfig::default()).full_circuit(),
            _ => method.compile(&program),
        };
        let state = StateVector::from_circuit(&circuit);
        assert!(
            state.approx_eq_up_to_phase(&reference, 1e-8),
            "{} does not implement the UCC-(2,4) unitary",
            method.name()
        );
    }
}

/// QuCLEAR reduces CNOTs on every chemistry benchmark of the suite relative
/// to the naive synthesis, and beats the Rustiq-like baseline (which must pay
/// for its terminal Clifford).
#[test]
fn quclear_wins_on_chemistry_benchmarks() {
    for bench in [
        Benchmark::Ucc(2, 4),
        Benchmark::Ucc(2, 6),
        Benchmark::Molecule(Molecule::LiH),
    ] {
        let program = bench.rotations();
        let quclear = compile(&program, &QuClearConfig::default());
        let native = bench.native_cnot_count();
        let rustiq = Method::RustiqLike.compile(&program);
        assert!(
            quclear.cnot_count() < native / 2,
            "{}: expected more than 2x reduction ({} vs native {})",
            bench.name(),
            quclear.cnot_count(),
            native
        );
        assert!(
            quclear.cnot_count() <= rustiq.cnot_count(),
            "{}: QuCLEAR ({}) should beat Rustiq-like ({})",
            bench.name(),
            quclear.cnot_count(),
            rustiq.cnot_count()
        );
    }
}

/// The probability-absorption path works for every QAOA benchmark (MaxCut and
/// LABS): Proposition 1 guarantees the extracted Clifford is a basis layer
/// plus a CNOT network.
#[test]
fn qaoa_benchmarks_are_probability_absorbable() {
    for bench in [
        Benchmark::MaxCutRegular { n: 15, degree: 4 },
        Benchmark::MaxCutRandom { n: 10, edges: 12 },
        Benchmark::Labs(10),
    ] {
        let result = compile(&bench.rotations(), &QuClearConfig::default());
        assert!(
            result.probability_absorber().is_ok(),
            "{} should satisfy Proposition 1",
            bench.name()
        );
    }
}

/// On all 19 Table II programs the pipeline serves the extracted Clifford
/// resynthesized from its tableau: tableau-equal to the raw extraction log
/// (so equal up to global phase), never longer, with the same Proposition 1
/// verdict, and short in total. Each program's optimized CNOT and gate
/// counts and raw extraction-log length are pinned.
#[test]
fn served_extracted_clifford_is_the_resynthesized_raw_log() {
    // Table II pins, as (name, optimized CNOTs, optimized gates, raw
    // extraction-log gates).
    // Every later support depends on every earlier tree and reordering
    // choice, so a changed choice almost always moves the log length.
    const PINS: [(&str, usize, usize, usize); 19] = [
        ("UCC-(2,4)", 27, 69, 49),
        ("UCC-(2,6)", 130, 293, 227),
        ("UCC-(4,8)", 611, 1243, 977),
        ("UCC-(6,12)", 3727, 7471, 6125),
        ("UCC-(8,16)", 13935, 27618, 23271),
        ("UCC-(10,20)", 40069, 78295, 67216),
        ("LiH", 81, 182, 131),
        ("H2O", 339, 718, 565),
        ("benzene", 3471, 6955, 5912),
        ("LABS-(n10)", 109, 199, 119),
        ("LABS-(n15)", 411, 693, 426),
        ("LABS-(n20)", 1177, 1832, 1197),
        ("MaxCut-(n15, r4)", 65, 125, 80),
        ("MaxCut-(n20, r4)", 87, 167, 107),
        ("MaxCut-(n20, r8)", 118, 238, 138),
        ("MaxCut-(n20, r12)", 162, 322, 182),
        ("MaxCut-(n10, e12)", 29, 61, 39),
        ("MaxCut-(n15, e63)", 109, 202, 124),
        ("MaxCut-(n20, e117)", 166, 323, 186),
    ];
    let config = QuClearConfig::default();
    let benches = Benchmark::all();
    assert_eq!(benches.len(), PINS.len());
    let (mut raw_total, mut served_total, mut cnot_total, mut gate_total) = (0, 0, 0, 0);
    for (bench, (name, cnots, gates, raw_len)) in benches.iter().zip(PINS) {
        assert_eq!(bench.name(), name);
        let rotations = bench.rotations();
        let raw = extract_clifford(&rotations, &config.extraction).extracted;
        let result = compile(&rotations, &config);
        assert_eq!(
            result.optimized.cnot_count(),
            cnots,
            "{name}: optimized CNOTs"
        );
        assert_eq!(result.optimized.len(), gates, "{name}: optimized gates");
        assert_eq!(raw.len(), raw_len, "{name}: raw extraction log");
        let served = result.extracted;
        assert_eq!(
            CliffordTableau::from_circuit(&served),
            CliffordTableau::from_circuit(&raw),
            "{name}: resynthesis changed the Clifford"
        );
        assert!(served.len() <= raw.len(), "{name}");
        assert_eq!(
            ProbabilityAbsorber::from_extracted(&served).is_ok(),
            ProbabilityAbsorber::from_extracted(&raw).is_ok(),
            "{name}: Proposition 1 verdict moved"
        );
        raw_total += raw.len();
        served_total += served.len();
        cnot_total += cnots;
        gate_total += gates;
    }
    assert_eq!(
        (cnot_total, gate_total, raw_total),
        (64_823, 127_006, 107_071)
    );
    assert!(
        served_total <= 3_000,
        "Table II extracted gates: {served_total} served, {raw_total} raw"
    );
}

/// The t|ket⟩-like baseline's summed CNOT and gate counts over the quick
/// Table III suite (`table3 --tiny`: every benchmark of at most 400
/// rotations) are pinned, so a change to how its diagonalizing Cliffords
/// are computed cannot move a single gate of that column unnoticed.
#[test]
fn tket_like_counts_are_pinned_on_the_tiny_suite() {
    let (mut cnots, mut gates) = (0, 0);
    for bench in Benchmark::all() {
        let rotations = bench.rotations();
        if rotations.len() > 400 {
            continue;
        }
        let circuit = Method::TketLike.compile(&rotations);
        cnots += circuit.cnot_count();
        gates += circuit.len();
    }
    assert_eq!((cnots, gates), (4_182, 6_352));
}

/// End-to-end QAOA equivalence through the facade: simulated measurement
/// distribution of the optimized circuit + CA modules equals the original.
#[test]
fn qaoa_distribution_recovered_exactly() {
    let graph = Graph::regular(6, 4, 3);
    let program = maxcut_qaoa(&graph, 1, 0.55, 0.95);
    let result = compile(&program, &QuClearConfig::default());
    let absorber = result.probability_absorber().unwrap();

    let mut reference = qaoa_initial_layer(6);
    reference.append(&synthesize_naive(&program));
    let expected = StateVector::from_circuit(&reference).probabilities();

    let mut optimized = qaoa_initial_layer(6);
    optimized.append(&result.optimized);
    optimized.append(&absorber.pre_circuit());
    let recovered =
        absorber.post_process_probabilities(&StateVector::from_circuit(&optimized).probabilities());

    for (a, b) in expected.iter().zip(&recovered) {
        assert!((a - b).abs() < 1e-9);
    }
}

/// Observable absorption through the facade on a Hamiltonian-simulation
/// workload with the synthetic LiH Hamiltonian terms as observables.
#[test]
fn lih_observables_match_after_absorption() {
    let molecule = Molecule::LiH;
    // A short-time Trotter step keeps the test numerically well conditioned.
    let program: Vec<PauliRotation> = molecule.trotter_step(0.2).into_iter().take(20).collect();
    let result = compile(&program, &QuClearConfig::default());

    let observables: Vec<SignedPauli> = molecule.observables().into_iter().take(12).collect();
    let absorption = result.absorb_observables(&observables);

    let reference = StateVector::from_circuit(&synthesize_naive(&program));
    let optimized = StateVector::from_circuit(&result.optimized);
    for (i, obs) in observables.iter().enumerate() {
        let direct = reference.expectation_signed(obs);
        let measured = optimized.expectation(absorption.get(i).pauli());
        let recovered = absorption.original_expectation(i, measured);
        assert!(
            (direct - recovered).abs() < 1e-8,
            "observable {i} mismatch: {direct} vs {recovered}"
        );
    }
}

/// Routing the compiled circuits onto the Figure 11 devices keeps every
/// two-qubit gate on a coupling edge.
#[test]
fn routed_circuits_respect_device_connectivity() {
    let program = Benchmark::MaxCutRegular { n: 15, degree: 4 }.rotations();
    let circuit = compile(&program, &QuClearConfig::default()).optimized;
    for coupling in [CouplingMap::sycamore_like(), CouplingMap::heavy_hex_65()] {
        let routed = route(&circuit, &coupling);
        for gate in routed.circuit.gates() {
            if gate.is_two_qubit() {
                let q = gate.qubit_list();
                let q = q.as_slice();
                assert!(
                    coupling.are_connected(q[0], q[1]),
                    "gate {gate} off the coupling map"
                );
            }
        }
        assert!(routed.circuit.cnot_count() >= circuit.cnot_count());
    }
}

/// The ablation switches of the pipeline behave monotonically on a chemistry
/// block: enabling reordering and recursion never hurts the optimized count
/// by more than a trivial margin (and the defaults enable everything).
#[test]
fn ablation_configurations_all_compile() {
    use quclear::core::ExtractionConfig;
    let program = Benchmark::Ucc(2, 6).rotations();
    let mut counts = Vec::new();
    for (recursive, reorder) in [(false, false), (true, false), (false, true), (true, true)] {
        let config = QuClearConfig {
            extraction: ExtractionConfig {
                recursive_tree: recursive,
                reorder_commuting: reorder,
                ..ExtractionConfig::default()
            },
            ..QuClearConfig::default()
        };
        counts.push(compile(&program, &config).cnot_count());
    }
    // Fully enabled must be at least as good as fully disabled.
    assert!(
        counts[3] <= counts[0],
        "full config {} vs none {}",
        counts[3],
        counts[0]
    );
}

/// Facade prelude exposes the basic types.
#[test]
fn prelude_reexports_work() {
    let p: PauliString = "XIZ".parse().unwrap();
    assert_eq!(p.weight(), 2);
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    assert_eq!(quclear::circuit::optimize(&c).cnot_count(), 1);
    let _gate = Gate::H(0);
    let _map = CouplingMap::linear(3);
    assert_eq!(PauliOp::Y.to_char(), 'Y');
}

//! The four traffic mixes and the request generators behind them.
//!
//! Every input is a function of the `--seed` argument: per-client request
//! streams are seeded from it, and the Table II programs themselves are fixed.
//! The server only ever sees the generated requests.

use std::f64::consts::PI;

use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::RequestKind;
use quclear_workloads::{qaoa_grid_sweep, Benchmark, Graph, Molecule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Shots per commuting group of every `estimate` request.
pub const SHOTS: u64 = 8192;

/// Grid points per `sweep` request: 4 γ values × 4 β values.
const GRID_SIDE: usize = 4;
pub const SWEEP_POINTS: usize = GRID_SIDE * GRID_SIDE;

/// The seed `Benchmark` uses for its random graphs, so the sweep workload runs
/// on the very graphs of Table II.
const TABLE2_GRAPH_SEED: u64 = 0x51CA;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm `compile` binds of small chemistry ansätze.
    VqeWarm,
    /// Cold `compile` of all 19 Table II programs, cache cleared every pass.
    Table2Cold,
    /// Warm sampled `estimate` on 12-qubit ansätze.
    VqeEstimate,
    /// Warm 16-point QAOA `sweep`s on the 20-node Table II regular graphs.
    QaoaSweep,
}

/// How many responses of a run are kept for the after-the-window checks.
#[derive(Clone, Copy, Debug)]
pub struct SamplePolicy {
    /// The first `first` responses of every structure on every client.
    pub first: usize,
    /// Then every `every`-th response of a client.
    pub every: u64,
    /// At most this many samples per client.
    pub cap: usize,
}

impl SamplePolicy {
    pub fn keep(&self, per_structure: usize, index: u64, kept: usize) -> bool {
        kept < self.cap && (per_structure < self.first || index.is_multiple_of(self.every))
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VqeWarm,
        Workload::Table2Cold,
        Workload::VqeEstimate,
        Workload::QaoaSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VqeWarm => "vqe_warm",
            Workload::Table2Cold => "table2_cold",
            Workload::VqeEstimate => "vqe_estimate",
            Workload::QaoaSweep => "qaoa_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wire name of the request kind the workload sends.
    pub fn kind_name(self) -> &'static str {
        match self {
            Workload::VqeWarm | Workload::Table2Cold => "compile",
            Workload::VqeEstimate => "estimate",
            Workload::QaoaSweep => "sweep",
        }
    }

    /// Whether setup primes the template cache (every lookup then hits).
    pub fn is_warm(self) -> bool {
        self != Workload::Table2Cold
    }

    /// The percentile reported as `latency_tail_ms`, fixed per workload. Each
    /// keeps dozens of samples beyond it in a 20-second run; higher ones
    /// (p99.9 on `vqe_warm`, p95 on `vqe_estimate`) moved by 30–40% from run
    /// to run on a shared two-thread host.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::VqeWarm | Workload::QaoaSweep => 99.0,
            Workload::Table2Cold => 95.0,
            Workload::VqeEstimate => 90.0,
        }
    }

    /// Which responses are checked against the oracles. Estimates and cold
    /// compiles cost milliseconds to check, so fewer of them are kept.
    pub fn oracle_samples(self) -> SamplePolicy {
        match self {
            Workload::VqeWarm => SamplePolicy {
                first: 4,
                every: 64,
                cap: 256,
            },
            Workload::Table2Cold => SamplePolicy {
                first: 2,
                every: u64::MAX,
                cap: 64,
            },
            Workload::VqeEstimate => SamplePolicy {
                first: 3,
                every: 32,
                cap: 10,
            },
            Workload::QaoaSweep => SamplePolicy {
                first: 2,
                every: 32,
                cap: 32,
            },
        }
    }

    /// Which traced requests are replayed through the layers.
    pub fn replay_samples(self) -> SamplePolicy {
        match self {
            Workload::VqeWarm => SamplePolicy {
                first: 8,
                every: 8,
                cap: 200,
            },
            Workload::Table2Cold => SamplePolicy {
                first: 1,
                every: u64::MAX,
                cap: 19,
            },
            Workload::VqeEstimate => SamplePolicy {
                first: 4,
                every: 4,
                cap: 12,
            },
            Workload::QaoaSweep => SamplePolicy {
                first: 4,
                every: 4,
                cap: 24,
            },
        }
    }
}

/// One program structure a workload sends, with everything the oracles need.
#[derive(Debug)]
pub struct Structure {
    pub name: String,
    pub num_qubits: usize,
    /// Wire spelling of the program's axes.
    pub program: Vec<String>,
    /// The native program (Table II angles).
    pub rotations: Vec<PauliRotation>,
    /// Native CNOT count, `Σ 2·(weight − 1)`.
    pub native_cx: usize,
    /// Observables of `estimate` requests (empty otherwise).
    pub observables: Vec<SignedPauli>,
    pub observable_strings: Vec<String>,
    /// The MaxCut graph of `sweep` requests.
    pub graph: Option<Graph>,
}

impl Structure {
    fn of(benchmark: Benchmark, with_observables: bool, graph: Option<Graph>) -> Structure {
        let rotations = benchmark.rotations();
        let observables = if with_observables {
            benchmark.observables()
        } else {
            Vec::new()
        };
        Structure {
            name: benchmark.name(),
            num_qubits: benchmark.num_qubits(),
            program: rotations.iter().map(|r| r.pauli().to_string()).collect(),
            native_cx: benchmark.native_cnot_count(),
            observable_strings: observables.iter().map(ToString::to_string).collect(),
            observables,
            rotations,
            graph,
        }
    }

    /// The program bound to `angles`, axis by axis.
    pub fn bound(&self, angles: &[f64]) -> Vec<PauliRotation> {
        self.rotations
            .iter()
            .zip(angles)
            .map(|(r, &angle)| PauliRotation::new(r.pauli().clone(), angle))
            .collect()
    }
}

/// Builds the structures of a workload.
pub fn structures(workload: Workload) -> Vec<Structure> {
    match workload {
        Workload::VqeWarm => [
            Benchmark::Molecule(Molecule::LiH),
            Benchmark::Ucc(2, 6),
            Benchmark::Molecule(Molecule::H2O),
        ]
        .into_iter()
        .map(|b| Structure::of(b, false, None))
        .collect(),
        Workload::Table2Cold => Benchmark::all()
            .into_iter()
            .map(|b| Structure::of(b, false, None))
            .collect(),
        Workload::VqeEstimate => [
            Benchmark::Ucc(6, 12),
            Benchmark::Molecule(Molecule::Benzene),
        ]
        .into_iter()
        .map(|b| Structure::of(b, true, None))
        .collect(),
        Workload::QaoaSweep => [4, 8, 12]
            .into_iter()
            .map(|degree| {
                let graph = Graph::regular(20, degree, TABLE2_GRAPH_SEED);
                Structure::of(
                    Benchmark::MaxCutRegular { n: 20, degree },
                    false,
                    Some(graph),
                )
            })
            .collect(),
    }
}

/// Uniform angles in `[-π, π)`.
pub fn random_angles(rng: &mut StdRng, count: usize) -> Vec<f64> {
    (0..count).map(|_| rng.gen_range(-PI..PI)).collect()
}

/// SplitMix-style stream separation, so clients and phases draw
/// independent streams from one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which a warm workload's clients cycle through its
/// structures (each client starts at a seeded offset). An exact cycle keeps
/// the mix identical in every run; `vqe_estimate` weights UCC-(6,12) 2:1
/// so its median falls inside one cost cluster rather than on the boundary
/// between the ~40 ms UCC and ~65 ms benzene estimates.
pub fn mix(workload: Workload) -> &'static [usize] {
    match workload {
        Workload::VqeEstimate => &[0, 0, 1],
        Workload::VqeWarm | Workload::QaoaSweep | Workload::Table2Cold => &[0, 1, 2],
    }
}

/// Requests in one full cycle of the workload's mix: a whole pass on
/// `table2_cold`.
pub fn cycle_len(workload: Workload, structures: &[Structure]) -> usize {
    match workload {
        Workload::Table2Cold => structures.len(),
        _ => mix(workload).len(),
    }
}

/// Request for structure `index` of a warm workload, with fresh seeded
/// angles (and, for `estimate`, a fresh sampling seed).
pub fn warm_request(
    workload: Workload,
    structures: &[Structure],
    index: usize,
    rng: &mut StdRng,
) -> RequestKind {
    let s = &structures[index];
    match workload {
        Workload::VqeWarm | Workload::Table2Cold => RequestKind::Compile {
            program: s.program.clone(),
            angles: random_angles(rng, s.rotations.len()),
        },
        Workload::VqeEstimate => RequestKind::Estimate {
            program: s.program.clone(),
            angles: random_angles(rng, s.rotations.len()),
            observables: s.observable_strings.clone(),
            shots: SHOTS,
            seed: rng.next_u64(),
        },
        Workload::QaoaSweep => {
            let gammas: Vec<f64> = (0..GRID_SIDE).map(|_| rng.gen_range(0.0..PI)).collect();
            let betas: Vec<f64> = (0..GRID_SIDE)
                .map(|_| rng.gen_range(0.0..PI / 2.0))
                .collect();
            let graph = s
                .graph
                .as_ref()
                .expect("sweep structures carry their graph");
            RequestKind::Sweep {
                program: s.program.clone(),
                angle_sets: qaoa_grid_sweep(graph, &gammas, &betas).angle_sets,
            }
        }
    }
}

/// A cold request: structure `index` at its native Table II angles.
pub fn native_compile(s: &Structure) -> RequestKind {
    RequestKind::Compile {
        program: s.program.clone(),
        angles: s.rotations.iter().map(PauliRotation::angle).collect(),
    }
}

/// A seeded permutation of `0..n` (one `table2_cold` pass).
pub fn pass_order(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

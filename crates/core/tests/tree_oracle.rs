//! The CNOT-tree synthesizer against a reference implementation.
//!
//! `OracleTree` is the straightforward form of Algorithm 1: it allocates a
//! `Vec` per partition group and, to connect a node's roots, rebuilds the
//! live view of the next Pauli by replaying *every* gate emitted so far for
//! the whole tree. The library synthesizer works over a reused index arena
//! and replays only the node's own gates; on random supports and lookahead
//! windows both must emit the same gates in the same order and pick the
//! same root.

use proptest::prelude::*;
use quclear_circuit::Gate;
use quclear_core::TreeSynthesizer;
use quclear_pauli::{PauliOp, PauliString};

/// Reference recursive CNOT-tree synthesis.
struct OracleTree<'a> {
    lookahead: &'a [PauliString],
    n: usize,
    recursive: bool,
}

impl OracleTree<'_> {
    fn synthesize(&self, support: &[usize]) -> (Vec<Gate>, usize) {
        let mut gates = Vec::new();
        let root = self.synth_rec(support, 0, &mut gates);
        (gates, root)
    }

    fn synth_rec(&self, tree_idxs: &[usize], depth: usize, gates: &mut Vec<Gate>) -> usize {
        if tree_idxs.len() == 1 {
            return tree_idxs[0];
        }
        if (!self.recursive && depth > 0) || depth >= self.lookahead.len() {
            return chain(tree_idxs, gates);
        }
        let mut groups: [Vec<usize>; 4] = Default::default();
        for &q in tree_idxs {
            let slot = match self.lookahead[depth].op(q) {
                PauliOp::Z => 0,
                PauliOp::I => 1,
                PauliOp::Y => 2,
                PauliOp::X => 3,
            };
            groups[slot].push(q);
        }
        let mut roots = Vec::new();
        for group in &groups {
            match group.len() {
                0 => {}
                1 => roots.push(group[0]),
                _ if self.recursive => roots.push(self.synth_rec(group, depth + 1, gates)),
                _ => roots.push(chain(group, gates)),
            }
        }
        self.connect_roots(&roots, depth, gates)
    }

    fn connect_roots(&self, roots: &[usize], depth: usize, gates: &mut Vec<Gate>) -> usize {
        let mut remaining = roots.to_vec();
        let mut live = PauliString::identity(self.n);
        let mut touched = roots.to_vec();
        for gate in gates.iter() {
            if let Gate::Cx { control, target } = gate {
                touched.push(*control);
                touched.push(*target);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &q in &touched {
            live.set_op(q, self.lookahead[depth].op(q));
        }
        for gate in gates.iter() {
            apply_cx(&mut live, gate);
        }
        while remaining.len() > 1 {
            let mut best: Option<(usize, usize, i32)> = None;
            for (ci, &control) in remaining.iter().enumerate() {
                for (ti, &target) in remaining.iter().enumerate() {
                    if ci == ti {
                        continue;
                    }
                    let (oc, ot) = (live.op(control), live.op(target));
                    let (nc, nt) = cx_images(oc, ot);
                    let reduction = (weight_of(oc) + weight_of(ot)) as i32
                        - (weight_of(nc) + weight_of(nt)) as i32;
                    if best.is_none_or(|(_, _, r)| reduction > r) {
                        best = Some((control, target, reduction));
                    }
                }
            }
            let (control, target, _) = best.expect("at least two roots remain");
            let gate = Gate::Cx { control, target };
            apply_cx(&mut live, &gate);
            gates.push(gate);
            remaining.retain(|&q| q != control);
        }
        remaining[0]
    }
}

fn cx_images(control: PauliOp, target: PauliOp) -> (PauliOp, PauliOp) {
    let (xc, zc) = control.xz();
    let (xt, zt) = target.xz();
    (PauliOp::from_xz(xc, zc ^ zt), PauliOp::from_xz(xt ^ xc, zt))
}

fn apply_cx(pauli: &mut PauliString, gate: &Gate) {
    let Gate::Cx { control, target } = *gate else {
        panic!("tree circuits contain only CNOTs, found {gate}")
    };
    let (nc, nt) = cx_images(pauli.op(control), pauli.op(target));
    pauli.set_op(control, nc);
    pauli.set_op(target, nt);
}

fn chain(tree_idxs: &[usize], gates: &mut Vec<Gate>) -> usize {
    for pair in tree_idxs.windows(2) {
        gates.push(Gate::Cx {
            control: pair[0],
            target: pair[1],
        });
    }
    tree_idxs[tree_idxs.len() - 1]
}

fn weight_of(op: PauliOp) -> usize {
    usize::from(!op.is_identity())
}

/// SplitMix64 step: a deterministic stream of words from one seed.
fn next_word(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds `count` lookahead strings on `n` qubits from `seed`. Operators
/// are Y-biased (Y takes half the mass) so the Y subtree and the
/// Y-involving CX rules are well exercised.
fn random_lookahead(n: usize, count: usize, seed: u64) -> Vec<PauliString> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let ops: Vec<PauliOp> = (0..n)
                .map(|_| match next_word(&mut state) % 8 {
                    0 | 1 => PauliOp::I,
                    2 => PauliOp::X,
                    3 => PauliOp::Z,
                    _ => PauliOp::Y,
                })
                .collect();
            PauliString::from_ops(&ops)
        })
        .collect()
}

/// Picks a non-empty support from the bits of `mask`, in ascending order.
fn decode_support(n: usize, mask: u64) -> Vec<usize> {
    let support: Vec<usize> = (0..n).filter(|&q| (mask >> q) & 1 == 1).collect();
    if support.is_empty() {
        vec![(mask % n as u64) as usize]
    } else {
        support
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn synthesizer_matches_the_reference(
        n in 2usize..=24,
        mask in any::<u64>(),
        count in 0usize..=17,
        seed in any::<u64>(),
        recursive in any::<bool>(),
    ) {
        let support = decode_support(n, mask);
        let lookahead = random_lookahead(n, count, seed);
        let oracle = OracleTree { lookahead: &lookahead, n, recursive };
        let synth = TreeSynthesizer::new(lookahead.as_slice(), recursive);
        prop_assert_eq!(synth.synthesize(&support), oracle.synthesize(&support));
    }

    /// Full supports make the deepest trees.
    #[test]
    fn synthesizer_matches_the_reference_on_full_supports(
        n in 2usize..=24,
        count in 0usize..=17,
        seed in any::<u64>(),
        recursive in any::<bool>(),
    ) {
        let support: Vec<usize> = (0..n).collect();
        let lookahead = random_lookahead(n, count, seed);
        let oracle = OracleTree { lookahead: &lookahead, n, recursive };
        let synth = TreeSynthesizer::new(lookahead.as_slice(), recursive);
        prop_assert_eq!(synth.synthesize(&support), oracle.synthesize(&support));
    }
}

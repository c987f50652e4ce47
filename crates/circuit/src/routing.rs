//! SWAP-insertion routing onto devices with limited connectivity.
//!
//! This is a compact greedy router in the spirit of SABRE: it keeps a
//! logical→physical layout, executes gates whose qubits are adjacent, and
//! otherwise inserts SWAPs along a shortest path, preferring the direction
//! that also helps upcoming gates. It is used for the paper's Figure 11
//! (mapping to Sycamore-like and heavy-hex devices).

use crate::{Circuit, CouplingMap};

/// The outcome of routing a logical circuit onto a device.
#[derive(Clone, Debug)]
pub struct RoutingResult {
    /// The physical circuit (acting on `coupling.num_qubits()` qubits) with
    /// SWAPs inserted.
    pub circuit: Circuit,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// Final logical→physical layout after routing.
    pub final_layout: Vec<usize>,
    /// Initial logical→physical layout used.
    pub initial_layout: Vec<usize>,
}

/// Routes `circuit` onto `coupling`, choosing an interaction-aware initial
/// layout automatically.
///
/// # Panics
///
/// Panics if the device has fewer qubits than the circuit or is disconnected.
#[must_use]
pub fn route(circuit: &Circuit, coupling: &CouplingMap) -> RoutingResult {
    let layout = initial_layout_by_interaction(circuit, coupling);
    route_with_layout(circuit, coupling, layout)
}

/// Routes `circuit` onto `coupling` starting from an explicit
/// logical→physical layout.
///
/// # Panics
///
/// Panics if the layout is not an injective map into the device qubits, if
/// the device has fewer qubits than the circuit, or if the device is
/// disconnected.
#[must_use]
pub fn route_with_layout(
    circuit: &Circuit,
    coupling: &CouplingMap,
    initial_layout: Vec<usize>,
) -> RoutingResult {
    let n_logical = circuit.num_qubits();
    let n_physical = coupling.num_qubits();
    assert!(
        n_logical <= n_physical,
        "device has {n_physical} qubits but the circuit needs {n_logical}"
    );
    assert!(coupling.is_connected(), "coupling map must be connected");
    assert_eq!(
        initial_layout.len(),
        n_logical,
        "layout must cover every logical qubit"
    );
    {
        let mut seen = vec![false; n_physical];
        for &p in &initial_layout {
            assert!(p < n_physical, "layout entry {p} out of range");
            assert!(!seen[p], "layout maps two logical qubits to physical {p}");
            seen[p] = true;
        }
    }

    // l2p[logical] = physical, p2l[physical] = Some(logical).
    let mut l2p = initial_layout.clone();
    let mut p2l: Vec<Option<usize>> = vec![None; n_physical];
    for (l, &p) in l2p.iter().enumerate() {
        p2l[p] = Some(l);
    }

    // Upcoming two-qubit interactions per gate index, used for the lookahead
    // score when deciding the swap direction.
    let future: Vec<(usize, usize)> = circuit
        .gates()
        .iter()
        .filter(|g| g.is_two_qubit())
        .map(|g| {
            let q = g.qubit_list();
            (q.as_slice()[0], q.as_slice()[1])
        })
        .collect();

    let mut out = Circuit::new(n_physical);
    let mut swap_count = 0usize;
    let mut future_idx = 0usize;

    let apply_swap = |a: usize,
                      b: usize,
                      out: &mut Circuit,
                      l2p: &mut Vec<usize>,
                      p2l: &mut Vec<Option<usize>>,
                      swap_count: &mut usize| {
        out.swap(a, b);
        *swap_count += 1;
        let la = p2l[a];
        let lb = p2l[b];
        if let Some(l) = la {
            l2p[l] = b;
        }
        if let Some(l) = lb {
            l2p[l] = a;
        }
        p2l.swap(a, b);
    };

    for gate in circuit.gates() {
        if !gate.is_two_qubit() {
            out.push(gate.map_qubits(|q| l2p[q]));
            continue;
        }
        let qs = gate.qubit_list();
        let (la, lb) = (qs.as_slice()[0], qs.as_slice()[1]);
        future_idx += 1;
        loop {
            let (pa, pb) = (l2p[la], l2p[lb]);
            if coupling.are_connected(pa, pb) {
                out.push(gate.map_qubits(|q| l2p[q]));
                break;
            }
            // Candidate swaps: move either endpoint one step along a shortest
            // path towards the other. Pick the candidate that minimizes the
            // remaining distance plus a small lookahead term.
            let mut best: Option<(usize, usize, f64)> = None;
            for (src, dst) in [(pa, pb), (pb, pa)] {
                for &nb in coupling.neighbors(src) {
                    if coupling.distance(nb, dst) + 1 != coupling.distance(src, dst) {
                        continue;
                    }
                    // Simulate the swap (src, nb) and score it.
                    let mut trial_l2p = l2p.clone();
                    if let Some(l) = p2l[src] {
                        trial_l2p[l] = nb;
                    }
                    if let Some(l) = p2l[nb] {
                        trial_l2p[l] = src;
                    }
                    let mut score = coupling.distance(trial_l2p[la], trial_l2p[lb]) as f64;
                    let lookahead = future.iter().skip(future_idx).take(8);
                    for (i, &(fa, fb)) in lookahead.enumerate() {
                        let d = coupling.distance(trial_l2p[fa], trial_l2p[fb]) as f64;
                        score += d * 0.5_f64.powi(i as i32 + 1);
                    }
                    if best.is_none() || score < best.unwrap().2 {
                        best = Some((src, nb, score));
                    }
                }
            }
            let (a, b, _) = best.expect("connected coupling map always offers a swap");
            apply_swap(a, b, &mut out, &mut l2p, &mut p2l, &mut swap_count);
        }
    }

    RoutingResult {
        circuit: out,
        swap_count,
        final_layout: l2p,
        initial_layout,
    }
}

/// Chooses an initial layout by placing the most-interacting logical qubits
/// on a BFS-connected cluster of high-degree physical qubits.
///
/// # Panics
///
/// Panics if the device has fewer qubits than the circuit.
#[must_use]
pub fn initial_layout_by_interaction(circuit: &Circuit, coupling: &CouplingMap) -> Vec<usize> {
    let n_logical = circuit.num_qubits();
    let n_physical = coupling.num_qubits();
    assert!(
        n_logical <= n_physical,
        "device has {n_physical} qubits but the circuit needs {n_logical}"
    );

    // Interaction count per logical qubit.
    let mut weight = vec![0usize; n_logical];
    for g in circuit.gates() {
        if g.is_two_qubit() {
            for &q in g.qubit_list().as_slice() {
                weight[q] += 1;
            }
        }
    }
    let mut logical_order: Vec<usize> = (0..n_logical).collect();
    logical_order.sort_by_key(|&q| std::cmp::Reverse(weight[q]));

    // BFS over physical qubits starting from the highest-degree one.
    let start = (0..n_physical)
        .max_by_key(|&q| coupling.neighbors(q).len())
        .unwrap_or(0);
    let mut visited = vec![false; n_physical];
    let mut order = Vec::with_capacity(n_physical);
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &nb in coupling.neighbors(v) {
            if !visited[nb] {
                visited[nb] = true;
                queue.push_back(nb);
            }
        }
    }

    let mut layout = vec![usize::MAX; n_logical];
    for (slot, &logical) in logical_order.iter().enumerate() {
        layout[logical] = order[slot];
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    fn all_to_all_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for a in 0..n {
            for b in a + 1..n {
                c.cx(a, b);
            }
        }
        c
    }

    #[test]
    fn routing_on_full_connectivity_inserts_no_swaps() {
        let c = all_to_all_circuit(5);
        let edges: Vec<_> = (0..5)
            .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
            .collect();
        let result = route(&c, &CouplingMap::from_edges(5, &edges));
        assert_eq!(result.swap_count, 0);
        assert_eq!(result.circuit.cnot_count(), c.cnot_count());
    }

    #[test]
    fn routing_respects_connectivity() {
        let c = all_to_all_circuit(5);
        let coupling = CouplingMap::linear(5);
        let result = route(&c, &coupling);
        for g in result.circuit.gates() {
            if g.is_two_qubit() {
                let q = g.qubit_list();
                let q = q.as_slice();
                assert!(
                    coupling.are_connected(q[0], q[1]),
                    "gate {g} not on an edge"
                );
            }
        }
        assert!(result.swap_count > 0);
    }

    #[test]
    fn single_qubit_gates_follow_the_layout() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        c.h(0);
        let coupling = CouplingMap::linear(3);
        let result = route_with_layout(&c, &coupling, vec![0, 1, 2]);
        // After routing, the H must land on whatever physical qubit logical 0
        // occupies.
        let h_gate = result
            .circuit
            .gates()
            .iter()
            .find(|g| matches!(g, Gate::H(_)))
            .unwrap();
        assert_eq!(h_gate.qubit_list().as_slice()[0], result.final_layout[0]);
    }

    #[test]
    fn layout_permutation_tracking_is_consistent() {
        let c = all_to_all_circuit(6);
        let coupling = CouplingMap::grid(2, 3);
        let result = route(&c, &coupling);
        let mut seen = vec![false; coupling.num_qubits()];
        for &p in &result.final_layout {
            assert!(!seen[p], "final layout must stay injective");
            seen[p] = true;
        }
    }

    #[test]
    fn grid_routing_cost_is_reasonable() {
        // A ladder on a line mapped to a grid should not explode.
        let mut c = Circuit::new(9);
        for q in 0..8 {
            c.cx(q, q + 1);
        }
        let result = route(&c, &CouplingMap::grid(3, 3));
        assert!(result.circuit.cnot_count() <= 8 + 3 * result.swap_count);
        assert!(result.swap_count < 20);
    }

    #[test]
    fn routed_circuit_counts_swaps_as_three_cnots() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let result = route_with_layout(&c, &CouplingMap::linear(3), vec![0, 1, 2]);
        assert_eq!(result.swap_count, 1);
        assert_eq!(result.circuit.cnot_count(), 4);
    }

    #[test]
    #[should_panic(expected = "device has")]
    fn too_small_device_panics() {
        let c = all_to_all_circuit(5);
        let _ = route(&c, &CouplingMap::linear(3));
    }

    #[test]
    #[should_panic(expected = "two logical qubits")]
    fn non_injective_layout_panics() {
        let c = all_to_all_circuit(3);
        let _ = route_with_layout(&c, &CouplingMap::linear(3), vec![0, 0, 1]);
    }
}

//! Peephole circuit optimization.
//!
//! Simulation cost scales with gate count, so trimming redundancy
//! before a run is free accuracy budget. The passes here are
//! deliberately conservative: every rewrite preserves the circuit's
//! unitary **exactly** (including global phase), verified by the
//! test-suite invariant `optimized.unitary() == original.unitary()`.
//!
//! Passes:
//!
//! * [`cancel_inverse_pairs`] — removes `G · G†` pairs that are
//!   adjacent on their qubits (no intervening gate touches them).
//! * [`merge_rotations`] — fuses qubit-adjacent same-axis rotations
//!   (`Rz(a)·Rz(b) → Rz(a+b)`, likewise `Rx`, `Ry`, `Phase`,
//!   `CPhase`, `ZZ`, `Givens`).
//! * [`drop_identities`] — removes gates whose matrix is the identity
//!   (e.g. fused rotations with zero total angle).
//! * [`optimize`] — runs all passes to a fixed point.

use crate::{Circuit, Gate, Operation};
use qns_linalg::Matrix;

/// Returns `true` when `ops[i]` and `ops[j]` act on the same qubit set
/// and no operation strictly between them touches any of those qubits.
fn adjacent_on_qubits(ops: &[Operation], i: usize, j: usize) -> bool {
    let qs = &ops[i].qubits;
    let mut sorted_a: Vec<usize> = qs.to_vec();
    sorted_a.sort_unstable();
    let mut sorted_b: Vec<usize> = ops[j].qubits.to_vec();
    sorted_b.sort_unstable();
    if sorted_a != sorted_b {
        return false;
    }
    ops[i + 1..j]
        .iter()
        .all(|mid| mid.qubits.iter().all(|q| !qs.contains(q)))
}

/// `true` when the two operations compose to the identity **exactly**
/// (up to numerical tolerance, including global phase).
fn compose_to_identity(a: &Operation, b: &Operation) -> bool {
    if a.qubits.len() != b.qubits.len() {
        return false;
    }
    let ma = a.gate.matrix();
    let mb = b.gate.matrix();
    // Orientation: for two-qubit gates the qubit order may differ.
    let prod = if a.qubits == b.qubits {
        mb.matmul(&ma)
    } else if a.qubits.len() == 2 && a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0] {
        mb.matmul(&swap_conjugate(&ma))
    } else {
        return false;
    };
    prod.approx_eq(&Matrix::identity(prod.rows()), 1e-12)
}

/// `SWAP · M · SWAP` — the matrix of a two-qubit gate with its qubits
/// exchanged.
fn swap_conjugate(m: &Matrix) -> Matrix {
    use qns_linalg::cr;
    let swap = Matrix::from_rows(&[
        vec![cr(1.0), cr(0.0), cr(0.0), cr(0.0)],
        vec![cr(0.0), cr(0.0), cr(1.0), cr(0.0)],
        vec![cr(0.0), cr(1.0), cr(0.0), cr(0.0)],
        vec![cr(0.0), cr(0.0), cr(0.0), cr(1.0)],
    ]);
    swap.matmul(m).matmul(&swap)
}

/// Removes adjacent `G · G†` pairs. Returns the number of removed
/// operations (always even).
pub fn cancel_inverse_pairs(circuit: &mut Circuit) -> usize {
    let mut removed = 0;
    loop {
        let ops = circuit.operations();
        let mut victim: Option<(usize, usize)> = None;
        'search: for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                if !adjacent_on_qubits(ops, i, j) {
                    // Keep scanning j only while the qubits stay
                    // untouched; once blocked, later j can't be
                    // adjacent either.
                    if ops[i + 1..=j]
                        .iter()
                        .any(|mid| mid.qubits.iter().any(|q| ops[i].qubits.contains(q)))
                    {
                        continue 'search;
                    }
                    continue;
                }
                if compose_to_identity(&ops[i], &ops[j]) {
                    victim = Some((i, j));
                    break 'search;
                }
                // Same qubits but not inverse: blocks further pairing.
                continue 'search;
            }
        }
        match victim {
            Some((i, j)) => {
                let mut rebuilt = Circuit::new(circuit.n_qubits());
                for (k, op) in circuit.operations().iter().enumerate() {
                    if k != i && k != j {
                        rebuilt.push(op.clone());
                    }
                }
                *circuit = rebuilt;
                removed += 2;
            }
            None => return removed,
        }
    }
}

/// Attempts to fuse two same-kind rotations into one.
fn fused(a: &Gate, b: &Gate) -> Option<Gate> {
    use Gate::*;
    match (a, b) {
        (Rx(x), Rx(y)) => Some(Rx(x + y)),
        (Ry(x), Ry(y)) => Some(Ry(x + y)),
        (Rz(x), Rz(y)) => Some(Rz(x + y)),
        (Phase(x), Phase(y)) => Some(Phase(x + y)),
        (CPhase(x), CPhase(y)) => Some(CPhase(x + y)),
        (ZZ(x), ZZ(y)) => Some(ZZ(x + y)),
        (Givens(x), Givens(y)) => Some(Givens(x + y)),
        _ => None,
    }
}

/// Fuses qubit-adjacent same-axis rotations. Returns the number of
/// operations eliminated.
pub fn merge_rotations(circuit: &mut Circuit) -> usize {
    let mut removed = 0;
    loop {
        let ops = circuit.operations();
        let mut action: Option<(usize, usize, Gate)> = None;
        'search: for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                if !adjacent_on_qubits(ops, i, j) {
                    if ops[i + 1..=j]
                        .iter()
                        .any(|mid| mid.qubits.iter().any(|q| ops[i].qubits.contains(q)))
                    {
                        continue 'search;
                    }
                    continue;
                }
                // Orientation-sensitive kinds (CPhase/ZZ are symmetric;
                // Givens is not symmetric under qubit swap).
                let symmetric = matches!(ops[i].gate, Gate::CPhase(_) | Gate::ZZ(_));
                if ops[i].qubits != ops[j].qubits && !symmetric {
                    continue 'search;
                }
                if let Some(g) = fused(&ops[i].gate, &ops[j].gate) {
                    action = Some((i, j, g));
                }
                break 'search;
            }
        }
        match action {
            Some((i, j, g)) => {
                let mut rebuilt = Circuit::new(circuit.n_qubits());
                for (k, op) in circuit.operations().iter().enumerate() {
                    if k == i {
                        rebuilt.push(Operation::new(g.clone(), op.qubits));
                    } else if k != j {
                        rebuilt.push(op.clone());
                    }
                }
                *circuit = rebuilt;
                removed += 1;
            }
            None => return removed,
        }
    }
}

/// Removes gates whose matrix equals the identity (within 1e-12).
/// Returns the number of removed operations.
pub fn drop_identities(circuit: &mut Circuit) -> usize {
    let before = circuit.gate_count();
    let mut rebuilt = Circuit::new(circuit.n_qubits());
    for op in circuit.operations() {
        let m = op.gate.matrix();
        if !m.approx_eq(&Matrix::identity(m.rows()), 1e-12) {
            rebuilt.push(op.clone());
        }
    }
    *circuit = rebuilt;
    before - circuit.gate_count()
}

/// Runs all passes to a fixed point; returns total operations removed.
pub fn optimize(circuit: &mut Circuit) -> usize {
    let mut total = 0;
    loop {
        let round =
            cancel_inverse_pairs(circuit) + merge_rotations(circuit) + drop_identities(circuit);
        if round == 0 {
            return total;
        }
        total += round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{inst_grid, qaoa_ring, QaoaRound};

    fn assert_equivalent(a: &Circuit, b: &Circuit) {
        assert!(
            a.unitary().approx_eq(&b.unitary(), 1e-10),
            "optimization changed the unitary"
        );
    }

    #[test]
    fn cancels_adjacent_self_inverse_gates() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1);
        let original = c.clone();
        let removed = cancel_inverse_pairs(&mut c);
        assert_eq!(removed, 2);
        assert_eq!(c.gate_count(), 1);
        assert_equivalent(&original, &c);
    }

    #[test]
    fn cancels_through_unrelated_gates() {
        let mut c = Circuit::new(3);
        c.x(0).h(2).x(0); // the H on qubit 2 does not block
        let removed = cancel_inverse_pairs(&mut c);
        assert_eq!(removed, 2);
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn blocked_pairs_survive() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1).x(0); // CX touches qubit 0: blocks
        let removed = cancel_inverse_pairs(&mut c);
        assert_eq!(removed, 0);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn cancels_t_tdg() {
        let mut c = Circuit::new(1);
        c.t(0).apply(Gate::Tdg, &[0]);
        assert_eq!(cancel_inverse_pairs(&mut c), 2);
        assert_eq!(c.gate_count(), 0);
    }

    #[test]
    fn cancels_cz_pair_with_swapped_qubits() {
        let mut c = Circuit::new(2);
        c.cz(0, 1).cz(1, 0); // CZ is symmetric
        assert_eq!(cancel_inverse_pairs(&mut c), 2);
        assert_eq!(c.gate_count(), 0);
    }

    #[test]
    fn does_not_cancel_cx_with_swapped_qubits() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0); // NOT inverse of each other
        assert_eq!(cancel_inverse_pairs(&mut c), 0);
    }

    #[test]
    fn merges_rotations_and_drops_zero() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.4).rz(0, -0.4).h(0);
        let original = c.clone();
        let removed = optimize(&mut c);
        assert!(removed >= 2, "removed {removed}");
        assert_eq!(c.gate_count(), 1); // only the H survives
        assert_equivalent(&original, &c);
    }

    #[test]
    fn merges_zz_interactions() {
        let mut c = Circuit::new(2);
        c.zz(0, 1, 0.3).zz(1, 0, 0.5); // symmetric gate, swapped order
        let original = c.clone();
        let removed = merge_rotations(&mut c);
        assert_eq!(removed, 1);
        assert_eq!(c.gate_count(), 1);
        assert_equivalent(&original, &c);
    }

    #[test]
    fn rotation_merge_respects_blocking() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.2).h(0).rx(0, 0.3); // H blocks the merge
        assert_eq!(merge_rotations(&mut c), 0);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn optimize_preserves_generator_circuits() {
        // Benchmark circuits are near-irreducible; the invariant is
        // that whatever is removed preserves the unitary exactly.
        let rounds = [QaoaRound {
            gamma: 0.35,
            beta: 0.2,
        }];
        for c0 in [qaoa_ring(4, &rounds), inst_grid(2, 2, 6, 3)] {
            let mut c = c0.clone();
            optimize(&mut c);
            assert_equivalent(&c0, &c);
        }
    }

    #[test]
    fn optimize_cleans_concatenated_inverse_circuit() {
        // C · C† optimizes all the way (or nearly) to nothing.
        let rounds = [QaoaRound {
            gamma: 0.4,
            beta: 0.3,
        }];
        let base = qaoa_ring(3, &rounds);
        let mut c = base.clone();
        c.extend(&base.dagger());
        let original = c.clone();
        let removed = optimize(&mut c);
        assert!(removed > base.gate_count(), "removed only {removed}");
        assert_equivalent(&original, &c);
    }

    #[test]
    fn global_phase_is_preserved() {
        // Rz(2π) = −I: must NOT be dropped (it changes the phase).
        let mut c = Circuit::new(1);
        c.rz(0, 2.0 * std::f64::consts::PI);
        let original = c.clone();
        drop_identities(&mut c);
        assert_eq!(c.gate_count(), 1, "−I global phase must survive");
        assert_equivalent(&original, &c);
    }
}

//! Bit-exact oracle for the level sums of the pattern-sum evaluator.
//!
//! Every other identity check in the workspace (streamed ≡ direct,
//! resumed ≡ fresh, delta ≡ full) runs both sides through the same
//! `LevelEvaluator`, so an evaluator-internal shortcut that returned a
//! wrong intermediate would pass them. This suite recomputes each
//! level's contribution from scratch: per pattern, fresh payload
//! tensors are swapped into the two `AmplitudeSkeleton` halves and the
//! plan is replayed through the allocating reference path
//! (`ContractionPlan::execute_reference`, a chain of
//! `Tensor::contract`), then the amplitude products are summed in the
//! evaluator's Gray order with its reduction shape — one accumulator
//! sequentially, 32-pattern chunk sums reduced in sequence in
//! parallel. The result must match `PartialEstimate::level_contribution`
//! bit for bit.

use proptest::prelude::*;
use qns::circuit::Circuit;
use qns::core::approx::{try_approximate_expectation, ApproxOptions};
use qns::core::patterns::GrayPatternStream;
use qns::core::{bounds, LevelEvaluator, NoiseSvd};
use qns::linalg::{Complex64, Matrix};
use qns::noise::{channels, Kraus, NoisyCircuit};
use qns::tensor::Tensor;
use qns::tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns::tnet::network::OrderStrategy;
use qns::tnet::plan::ContractionPlan;

/// Patterns per parallel chunk, as pulled by the evaluator's workers.
const CHUNK: usize = 32;

/// Strategy: a random circuit on `n` qubits with `g` gates.
fn random_circuit(n: usize, g: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        Just(GateSpec::H),
        Just(GateSpec::T),
        (-3.0f64..3.0).prop_map(GateSpec::Rx),
        (-3.0f64..3.0).prop_map(GateSpec::Ry),
        Just(GateSpec::Cx),
        Just(GateSpec::Cz),
        (-3.0f64..3.0).prop_map(GateSpec::Zz),
    ];
    proptest::collection::vec((gate, 0..n, 1..n), g).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (spec, a, delta) in specs {
            let b = (a + delta) % n;
            match spec {
                GateSpec::H => c.h(a),
                GateSpec::T => c.t(a),
                GateSpec::Rx(t) => c.rx(a, t),
                GateSpec::Ry(t) => c.ry(a, t),
                GateSpec::Cx => c.cx(a, b),
                GateSpec::Cz => c.cz(a, b),
                GateSpec::Zz(t) => c.zz(a, b, t),
            };
        }
        c
    })
}

#[derive(Clone, Debug)]
enum GateSpec {
    H,
    T,
    Rx(f64),
    Ry(f64),
    Cx,
    Cz,
    Zz(f64),
}

/// Strategy: a random CPTP single-qubit channel.
fn random_channel() -> impl Strategy<Value = Kraus> {
    prop_oneof![
        (0.0f64..0.3).prop_map(channels::depolarizing),
        (0.0f64..0.3).prop_map(channels::bit_flip),
        (0.0f64..0.3).prop_map(channels::amplitude_damping),
        (0.0f64..0.3).prop_map(channels::phase_damping),
        (10.0f64..200.0).prop_map(|t| channels::thermal_relaxation(30.0, 40.0, t)),
    ]
}

/// The reference side: both split halves with their plans and every
/// site's four SVD-term payloads, sites in the evaluator's order
/// (initial events first, then gate-attached events).
struct Reference {
    upper: AmplitudeSkeleton,
    lower: AmplitudeSkeleton,
    up_plan: ContractionPlan,
    lo_plan: ContractionPlan,
    /// `terms[site][term] = (U_term, V_term)`.
    terms: Vec<[(Matrix, Matrix); 4]>,
}

impl Reference {
    fn new(noisy: &NoisyCircuit, psi: &ProductState, v: &ProductState) -> Reference {
        let events: Vec<(usize, &qns::noise::NoiseEvent)> = noisy
            .initial_events()
            .iter()
            .map(|e| (usize::MAX, e))
            .chain(noisy.events().iter().map(|e| (e.after_gate, e)))
            .collect();
        let placeholders: Vec<Insertion> = events
            .iter()
            .map(|&(after_gate, e)| Insertion {
                after_gate,
                qubit: e.qubit,
                matrix: Matrix::identity(2),
            })
            .collect();
        let upper = AmplitudeSkeleton::new(noisy.circuit(), psi, v, &placeholders, false);
        let lower = AmplitudeSkeleton::new(noisy.circuit(), psi, v, &placeholders, true);
        let terms = events
            .iter()
            .map(|&(_, e)| {
                let svd = NoiseSvd::decompose(&e.kraus);
                std::array::from_fn(|t| {
                    let (u, vm) = svd.term(t);
                    (u.clone(), vm.clone())
                })
            })
            .collect();
        Reference {
            up_plan: upper.plan(OrderStrategy::Greedy),
            lo_plan: lower.plan(OrderStrategy::Greedy),
            upper,
            lower,
            terms,
        }
    }

    /// `amp_up · amp_lo` of one pattern, every payload swapped in
    /// afresh and both halves contracted through the reference chain.
    fn amplitude(&mut self, pattern: &[usize]) -> Complex64 {
        for (site, &term) in pattern.iter().enumerate() {
            let (u, v) = &self.terms[site][term];
            self.upper
                .set_insertion_tensor(site, Tensor::from_matrix(u));
            self.lower
                .set_insertion_tensor(site, Tensor::from_matrix(v));
        }
        let (up, _) = self.up_plan.execute_network_reference(self.upper.network());
        let (lo, _) = self.lo_plan.execute_network_reference(self.lower.network());
        up.scalar_value() * lo.scalar_value()
    }

    /// The level-`u` contribution with the evaluator's reduction shape.
    fn level_contribution(&mut self, u: usize, threads: usize) -> f64 {
        let n = self.terms.len();
        let mut stream = GrayPatternStream::new(n, u);
        let mut pattern = vec![0usize; n];
        let chunked = threads > 1 && bounds::level_patterns(n, u) > 1;
        let mut total = Complex64::ZERO;
        let mut chunk = Complex64::ZERO;
        let mut in_chunk = 0usize;
        while stream.next_into(&mut pattern) {
            let amp = self.amplitude(&pattern);
            if !chunked {
                total += amp;
                continue;
            }
            chunk += amp;
            in_chunk += 1;
            if in_chunk == CHUNK {
                total += chunk;
                chunk = Complex64::ZERO;
                in_chunk = 0;
            }
        }
        if in_chunk > 0 {
            total += chunk;
        }
        total.re
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn level_contributions_match_reference_sums_bitwise(
        c in random_circuit(4, 10),
        ch in random_channel(),
        initial in random_channel(),
        with_initial in 0usize..2,
        count in 2usize..6,
        seed in 0u64..1000,
        v_bits in 0usize..16,
    ) {
        let mut noisy = NoisyCircuit::inject_random(c, &ch, count, seed);
        if with_initial == 1 {
            noisy.push_initial((seed as usize) % 4, initial);
        }
        let n = noisy.noise_count();
        prop_assert!(n <= 6);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, v_bits);
        let top = n.min(3);
        let mut reference = Reference::new(&noisy, &psi, &v);

        for threads in [1usize, 2] {
            let opts = ApproxOptions::default().with_level(top).with_threads(threads);
            let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
            for u in 0..=top {
                let partial = eval.advance().unwrap();
                let expect = reference.level_contribution(u, threads);
                prop_assert_eq!(
                    partial.level_contribution.to_bits(),
                    expect.to_bits(),
                    "level {} threads {}: evaluator {} vs reference {}",
                    u, threads, partial.level_contribution, expect
                );
            }

            // Two single-size contractions — and two plan replays — per
            // pattern, whatever the evaluator reuses internally.
            let direct = try_approximate_expectation(&noisy, &psi, &v, &opts).unwrap();
            prop_assert_eq!(direct.contractions, 2 * direct.terms_evaluated);
            prop_assert_eq!(direct.stats.plan_reuses, 2 * direct.terms_evaluated);
            prop_assert_eq!(
                direct.terms_evaluated as u128,
                bounds::planned_patterns(n, top)
            );
        }
    }
}

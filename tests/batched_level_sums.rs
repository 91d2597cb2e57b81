//! Bit-identity of the subset-batched level sums (levels ≥ 2).
//!
//! The evaluator runs each non-dominant subset's steps once over all
//! term combinations and folds the resulting amplitude products in the
//! Gray order. This suite recomputes every level the per-pattern way:
//! payloads swapped into the two `AmplitudeSkeleton` halves and both
//! compiled plans delta-replayed (`execute_network_delta_scalar`) once
//! per pattern, the products summed in Gray order with the evaluator's
//! reduction shape (one accumulator sequentially, 32-pattern chunk sums
//! reduced in stream order in parallel). Levels 2–3, thread counts 1–4,
//! up to 7 noise sites — so a level's last unit of 32 subsets is
//! usually partial — plus matrix elements with distinct caps.

use proptest::prelude::*;
use qns::circuit::Circuit;
use qns::core::approx::{
    try_approximate_expectation, try_approximate_matrix_element, ApproxOptions,
};
use qns::core::patterns::GrayPatternStream;
use qns::core::{bounds, LevelEvaluator, NoiseSvd};
use qns::linalg::{Complex64, Matrix};
use qns::noise::{channels, Kraus, NoisyCircuit};
use qns::tensor::Tensor;
use qns::tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns::tnet::exec::{ExecutablePlan, Workspace};
use qns::tnet::network::OrderStrategy;

/// Patterns per chunk of the parallel reduction.
const CHUNK: usize = 32;

/// Sentinel: no payload installed yet.
const UNSET: usize = usize::MAX;

/// One split half replayed per pattern.
struct Half {
    skel: AmplitudeSkeleton,
    plan: ExecutablePlan,
    ws: Workspace,
    /// `payloads[site][term]`.
    payloads: Vec<[Tensor; 4]>,
}

impl Half {
    /// Installs `pattern`'s changed payloads and delta-replays the plan.
    fn amplitude(&mut self, pattern: &[usize], current: &[usize]) -> Complex64 {
        let mut dirty = Vec::new();
        for (site, (&term, &cur)) in pattern.iter().zip(current).enumerate() {
            if term != cur {
                self.skel
                    .set_insertion_payload(site, &self.payloads[site][term]);
                dirty.push(self.skel.insertion_slot(site));
            }
        }
        let (amp, stats) =
            self.plan
                .execute_network_delta_scalar(self.skel.network(), &dirty, &mut self.ws);
        assert_eq!(stats.plan_reuses, 1);
        amp
    }
}

/// Both halves of `⟨x|E(|ψ⟩⟨ψ|)|y⟩`, sites in the evaluator's order
/// (initial events first, then gate-attached events).
struct Reference {
    up: Half,
    lo: Half,
    current: Vec<usize>,
}

impl Reference {
    fn new(noisy: &NoisyCircuit, psi: &ProductState, x: &ProductState, y: &ProductState) -> Self {
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
        let svds: Vec<NoiseSvd> = events
            .iter()
            .map(|&(_, e)| NoiseSvd::decompose(&e.kraus))
            .collect();
        let half = |cap: &ProductState, lower: bool| {
            let skel = AmplitudeSkeleton::new(noisy.circuit(), psi, cap, &placeholders, lower);
            let plan = skel.plan(OrderStrategy::Greedy).compile();
            let payloads = svds
                .iter()
                .map(|svd| {
                    std::array::from_fn(|t| {
                        let (u, v) = svd.term(t);
                        Tensor::from_matrix(if lower { v } else { u })
                    })
                })
                .collect();
            Half {
                ws: Workspace::for_plan(&plan),
                skel,
                plan,
                payloads,
            }
        };
        Reference {
            up: half(x, false),
            lo: half(y, true),
            current: vec![UNSET; events.len()],
        }
    }

    /// The level-`u` sum with the evaluator's reduction shape.
    fn level_sum(&mut self, u: usize, threads: usize) -> Complex64 {
        let n = self.current.len();
        let chunked = threads > 1 && bounds::level_patterns(n, u) > 1;
        let mut stream = GrayPatternStream::new(n, u);
        let mut pattern = vec![0usize; n];
        let (mut total, mut chunk, mut in_chunk) = (Complex64::ZERO, Complex64::ZERO, 0);
        while stream.next_into(&mut pattern) {
            let amp = self.up.amplitude(&pattern, &self.current)
                * self.lo.amplitude(&pattern, &self.current);
            self.current.copy_from_slice(&pattern);
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
        total
    }
}

/// Strategy: a random circuit on `n` qubits with `g` gates.
fn random_circuit(n: usize, g: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec((0usize..5, 0..n, 1..n, -3.0f64..3.0), g).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for (kind, a, delta, t) in specs {
            let b = (a + delta) % n;
            match kind {
                0 => c.h(a),
                1 => c.ry(a, t),
                2 => c.cx(a, b),
                3 => c.cz(a, b),
                _ => c.zz(a, b, t),
            };
        }
        c
    })
}

/// Strategy: a random CPTP single-qubit channel.
fn random_channel() -> impl Strategy<Value = Kraus> {
    prop_oneof![
        (0.0f64..0.3).prop_map(channels::depolarizing),
        (0.0f64..0.3).prop_map(channels::amplitude_damping),
        (10.0f64..200.0).prop_map(|t| channels::thermal_relaxation(30.0, 40.0, t)),
    ]
}

/// Checks every level of an expectation run against the reference at
/// `threads`, and its plan-replay count.
fn check_expectation(noisy: &NoisyCircuit, v_bits: usize, top: usize, threads: usize) {
    let n_qubits = noisy.n_qubits();
    let psi = ProductState::all_zeros(n_qubits);
    let v = ProductState::basis(n_qubits, v_bits);
    let opts = ApproxOptions::default()
        .with_level(top)
        .with_threads(threads);
    let mut eval = LevelEvaluator::new(noisy, &psi, &v, &opts).unwrap();
    let mut reference = Reference::new(noisy, &psi, &v, &v);
    for u in 0..=top {
        let partial = eval.advance().unwrap();
        let expect = reference.level_sum(u, threads).re;
        assert_eq!(
            partial.level_contribution.to_bits(),
            expect.to_bits(),
            "level {u} threads {threads}: evaluator {} vs per-pattern {expect}",
            partial.level_contribution
        );
    }
    let direct = try_approximate_expectation(noisy, &psi, &v, &opts).unwrap();
    assert_eq!(direct.stats.plan_reuses, 2 * direct.terms_evaluated);
    assert_eq!(
        direct.terms_evaluated as u128,
        bounds::planned_patterns(noisy.noise_count(), top)
    );
}

/// Checks a matrix element `⟨x|E(ρ)|y⟩` with `x ≠ y` caps.
fn check_matrix_element(
    noisy: &NoisyCircuit,
    x_bits: usize,
    y_bits: usize,
    top: usize,
    threads: usize,
) {
    let n_qubits = noisy.n_qubits();
    let psi = ProductState::all_zeros(n_qubits);
    let x = ProductState::basis(n_qubits, x_bits);
    let y = ProductState::basis(n_qubits, y_bits);
    let opts = ApproxOptions::default()
        .with_level(top)
        .with_threads(threads);
    let value = try_approximate_matrix_element(noisy, &psi, &x, &y, &opts).unwrap();
    let mut reference = Reference::new(noisy, &psi, &x, &y);
    let mut expect = Complex64::ZERO;
    for u in 0..=top {
        expect += reference.level_sum(u, threads);
    }
    assert_eq!(
        (value.re.to_bits(), value.im.to_bits()),
        (expect.re.to_bits(), expect.im.to_bits()),
        "threads {threads}: evaluator {value} vs per-pattern {expect}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_levels_match_per_pattern_delta_sums_bitwise(
        c in random_circuit(4, 10),
        ch in random_channel(),
        initial in random_channel(),
        with_initial in 0usize..2,
        count in 2usize..7,
        seed in 0u64..1000,
        v_bits in 0usize..16,
        y_flip in 1usize..16,
    ) {
        let mut noisy = NoisyCircuit::inject_random(c, &ch, count, seed);
        if with_initial == 1 {
            noisy.push_initial((seed as usize) % 4, initial);
        }
        let n = noisy.noise_count();
        prop_assert!((2..=7).contains(&n));
        let top = n.min(3);
        for threads in 1..=4 {
            check_expectation(&noisy, v_bits, top, threads);
        }
        check_matrix_element(&noisy, v_bits, v_bits ^ y_flip, top, 1 + (seed as usize) % 4);
    }
}

#[test]
fn partial_last_unit_and_full_levels() {
    // 7 sites: C(7,2) = 21 and C(7,3) = 35 subsets, so both batched
    // levels end in a partial unit of 32 subsets.
    let mut c = Circuit::new(4);
    c.h(0)
        .cx(0, 1)
        .ry(2, 0.4)
        .cz(1, 2)
        .cx(2, 3)
        .zz(0, 3, 0.7)
        .h(3);
    let noisy = NoisyCircuit::inject_random(
        c.clone(),
        &channels::thermal_relaxation(30.0, 40.0, 120.0),
        7,
        5,
    );
    assert_eq!(bounds::level_patterns(7, 3) / 27 % 32, 3);
    for threads in 1..=4 {
        check_expectation(&noisy, 0b1011, 3, threads);
    }
    check_matrix_element(&noisy, 0b1011, 0b0110, 3, 2);
    // N = u: one subset holding every site (at 7 sites, more than one
    // program run batches: three slabs of 3^6 patterns).
    for n in [2, 3, 7] {
        let noisy = NoisyCircuit::inject_random(c.clone(), &channels::depolarizing(0.05), n, 9);
        for threads in [1, 3] {
            check_expectation(&noisy, 0b0101, n, threads);
        }
        check_matrix_element(&noisy, 0b0101, 0b1100, n, 1);
    }
}

#[test]
fn levels_beyond_the_batch_limit_run_in_slabs() {
    // Level 7 on 9 sites: 36 subsets of three slabs each, so the 108
    // slabs form units of 32 that start in the middle of a subset.
    let mut c = Circuit::new(4);
    c.h(0)
        .cx(0, 1)
        .ry(2, 0.4)
        .cz(1, 2)
        .cx(2, 3)
        .zz(0, 3, 0.7)
        .h(3);
    let noisy = NoisyCircuit::inject_random(c, &channels::amplitude_damping(0.05), 9, 13);
    let psi = ProductState::all_zeros(4);
    let v = ProductState::basis(4, 0b0110);
    for threads in [1, 3] {
        let opts = ApproxOptions::default().with_level(7).with_threads(threads);
        let mut eval = LevelEvaluator::new(&noisy, &psi, &v, &opts).unwrap();
        for u in 0..7 {
            let patterns = bounds::level_patterns(9, u) as usize;
            eval.install_level(0.0, patterns).unwrap();
        }
        let partial = eval.advance().unwrap();
        let expect = Reference::new(&noisy, &psi, &v, &v)
            .level_sum(7, threads)
            .re;
        assert_eq!(
            partial.level_contribution.to_bits(),
            expect.to_bits(),
            "threads {threads}: evaluator {} vs per-pattern {expect}",
            partial.level_contribution
        );
    }
}

//! Input generation. Everything a workload runs is derived from its
//! `--seed`; the library under test only ever sees the generated jobs.

use qns_bench::registry::{default_set, smoke_set, BenchCircuit};
use qns_noise::{channels, NoisyCircuit};
use qns_serve::{JobSpec, RefineRequest};
use qns_tnet::builder::ProductState;
use std::sync::Arc;

/// SplitMix64: a tiny, dependency-free, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sub-seed for stream `stream` of run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95)).next_u64()
}

/// The noise model every workload injects (superconducting-qubit
/// thermal relaxation: T1 = 30 µs, T2 = 40 µs, 25 ns gates).
pub fn base_channel() -> qns_noise::Kraus {
    channels::thermal_relaxation(30.0, 40.0, 25.0)
}

fn registry_circuit(set: &[BenchCircuit], name: &str) -> BenchCircuit {
    set.iter()
        .find(|b| b.name == name)
        .cloned()
        .unwrap_or_else(|| panic!("registry has no circuit named {name}"))
}

/// One library-level estimate request: `⟨v|E(|ψ⟩⟨ψ|)|v⟩` at `level`.
pub struct LibJob {
    pub circuit: &'static str,
    pub noisy: NoisyCircuit,
    pub psi: ProductState,
    pub v: ProductState,
    pub bits: usize,
    pub level: usize,
}

/// Jobs generated per library run; the window cycles through them.
pub const LIB_POOL: usize = 512;

/// Shape of a library workload's job stream.
pub struct LibConfig {
    /// Circuits in the order jobs cycle through them (a circuit listed
    /// twice gets twice the share).
    pub cycle: &'static [&'static str],
    pub noises: usize,
    pub level: usize,
    /// Distinct jobs of at most ten qubits checked against the dense
    /// density-matrix reference per run.
    pub references: usize,
}

/// `setup-heavy`: the largest default-registry circuits with few
/// noises at level 1, so the contraction-order search dominates.
/// `qaoa_16` takes five of every eight jobs, so both the median and the
/// 90th percentile fall inside its cost band rather than on a boundary
/// between two circuits' bands.
pub const SETUP_HEAVY: LibConfig = LibConfig {
    cycle: &[
        "qaoa_16",
        "qaoa_12",
        "qaoa_16",
        "hf_10",
        "qaoa_16",
        "inst_3x4_8",
        "qaoa_16",
        "qaoa_16",
    ],
    noises: 6,
    level: 1,
    // Only `hf_10` is small enough, at about a second per reference.
    references: 2,
};

/// `sum-heavy`: small circuits with 16 noises at level 3 — 16,249
/// patterns per estimate, so the pattern sum dominates.
pub const SUM_HEAVY: LibConfig = LibConfig {
    cycle: &["hf_6", "inst_2x3_8", "hf_8"],
    noises: 16,
    level: 3,
    references: 6,
};

/// The job pool of a library workload: every job gets its own noise
/// positions (a fresh injection seed) and a seeded basis observable.
pub fn library_pool(cfg: &LibConfig, seed: u64, count: usize) -> Vec<LibJob> {
    let set = default_set();
    let circuits: Vec<BenchCircuit> = cfg
        .cycle
        .iter()
        .map(|n| registry_circuit(&set, n))
        .collect();
    let channel = base_channel();
    let mut rng = Rng::new(sub_seed(seed, 1));
    (0..count)
        .map(|i| {
            let k = i % cfg.cycle.len();
            let circuit = circuits[k].circuit.clone();
            let n = circuit.n_qubits();
            let noisy = NoisyCircuit::inject_random(circuit, &channel, cfg.noises, rng.next_u64());
            let bits = rng.below(1 << n);
            LibJob {
                circuit: cfg.cycle[k],
                noisy,
                psi: ProductState::all_zeros(n),
                v: ProductState::basis(n, bits),
                bits,
                level: cfg.level,
            }
        })
        .collect()
}

/// Noise sites per `serve-sweep` structure.
pub const SERVE_NOISES: usize = 6;
/// Noise placements per smoke-registry circuit; each placement is one
/// structure. Several per circuit keep a seed's luck in placement cost
/// from setting the whole run's speed.
const SERVE_PLACEMENTS: usize = 12;
/// Noise-strength variants per structure.
const SERVE_STRENGTHS: usize = 4;
/// Basis observables per structure.
const SERVE_OBSERVABLES: usize = 32;
/// Pool entries drawn with the hot share (they stay in the result cache).
const SERVE_HOT: usize = 48;
const SERVE_HOT_SHARE: f64 = 0.3;
/// Pool entries refinements are drawn from (they fit the partial-sum
/// cache, so repeats resume from it).
const SERVE_REFINE_SET: usize = 32;
const SERVE_REFINE_SHARE: f64 = 0.08;

/// The `serve-sweep` parameter sweep: 36 structures (12 noise placements
/// on each smoke-registry circuit) whose noise strengths and
/// observables vary. The pool (4,608 specs) is far larger than the
/// default result cache (256), so cold draws execute and evict.
pub struct ServePool {
    pub specs: Vec<JobSpec>,
    hot: Vec<usize>,
    refine: Vec<usize>,
}

/// One request of the `serve-sweep` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Draw {
    Job(usize),
    Refine(usize),
}

impl Draw {
    pub fn index(self) -> usize {
        match self {
            Draw::Job(i) | Draw::Refine(i) => i,
        }
    }
}

/// The refinement every `Draw::Refine` submits: a first answer within
/// a level-1 pattern budget, escalating in the background to level 2.
pub fn refine_request() -> RefineRequest {
    let level1 = qns_core::bounds::planned_patterns(SERVE_NOISES, 1);
    RefineRequest::new()
        .with_pattern_budget(level1)
        .with_max_level(2)
}

impl ServePool {
    pub fn generate(seed: u64) -> ServePool {
        let mut rng = Rng::new(sub_seed(seed, 2));
        let base = base_channel();
        let mut specs = Vec::new();
        for bench in smoke_set() {
            let n = bench.circuit.n_qubits();
            for _ in 0..SERVE_PLACEMENTS {
                let positions = NoisyCircuit::inject_random(
                    bench.circuit.clone(),
                    &base,
                    SERVE_NOISES,
                    rng.next_u64(),
                );
                let variants: Vec<Arc<NoisyCircuit>> = (0..SERVE_STRENGTHS)
                    .map(|_| {
                        let t1 = 20.0 + 40.0 * rng.unit();
                        let t2 = t1 * (0.5 + rng.unit());
                        let gate_ns = 20.0 + 20.0 * rng.unit();
                        let channel = channels::thermal_relaxation(t1, t2, gate_ns);
                        Arc::new(positions.with_channel(&channel))
                    })
                    .collect();
                let observables = distinct_bits(&mut rng, n, SERVE_OBSERVABLES);
                for noisy in &variants {
                    for &bits in &observables {
                        specs.push(
                            JobSpec::new(
                                Arc::clone(noisy),
                                qns_api::InitialState::zeros(n),
                                qns_api::Observable::basis(n, bits),
                            )
                            .expect("generated jobs have matching qubit counts"),
                        );
                    }
                }
            }
        }
        let hot = (0..SERVE_HOT).map(|_| rng.below(specs.len())).collect();
        let refine = (0..SERVE_REFINE_SET)
            .map(|_| rng.below(specs.len()))
            .collect();
        ServePool { specs, hot, refine }
    }

    /// The seeded, skewed request stream.
    pub fn draws(&self, seed: u64) -> impl Iterator<Item = Draw> + '_ {
        let mut rng = Rng::new(sub_seed(seed, 3));
        std::iter::from_fn(move || {
            let u = rng.unit();
            Some(if u < SERVE_REFINE_SHARE {
                Draw::Refine(self.refine[rng.below(self.refine.len())])
            } else if u < SERVE_REFINE_SHARE + SERVE_HOT_SHARE {
                Draw::Job(self.hot[rng.below(self.hot.len())])
            } else {
                Draw::Job(rng.below(self.specs.len()))
            })
        })
    }
}

/// `count` distinct basis states of `n` qubits (all of them when
/// `2^n ≤ count`).
fn distinct_bits(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let space = 1usize << n;
    if space <= count {
        return (0..space).collect();
    }
    let mut out: Vec<usize> = Vec::with_capacity(count);
    while out.len() < count {
        let b = rng.below(space);
        if !out.contains(&b) {
            out.push(b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn distinct_bits_are_distinct() {
        let mut r = Rng::new(5);
        let mut bits = distinct_bits(&mut r, 9, 64);
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 64);
        assert_eq!(distinct_bits(&mut r, 3, 64), (0..8).collect::<Vec<_>>());
    }
}

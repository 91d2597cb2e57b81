//! Traced calls into the `core` and `tnet` layers for one job.
//!
//! [`traced_estimate`] runs the estimate itself through
//! `LevelEvaluator::new` / `advance`. [`decompose`] then repeats the
//! once-per-job setup step by step through the public functions the
//! evaluator is built from (`NoiseSvd::decompose`,
//! `AmplitudeSkeleton::new` / `plan`, `ContractionPlan::compile`) and
//! replays a fixed set of patterns through the compiled plans in full
//! and in delta mode. Delta replay must match full replay bit for bit;
//! a mismatch counts as a failed check.

use crate::stats::Ratio;
use crate::trace::{SpanId, Tracer};
use qns_core::approx::ApproxOptions;
use qns_core::patterns::{GrayPatternStream, TERM_UNSET};
use qns_core::{LevelEvaluator, NoiseSvd, QnsError};
use qns_linalg::{Complex64, Matrix};
use qns_noise::NoisyCircuit;
use qns_tensor::Tensor;
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::{ExecutablePlan, Workspace};
use qns_tnet::network::OrderStrategy;
use std::hint::black_box;
use std::time::Instant;

/// Deepest level the traced run reports a per-level time for.
pub const TRACED_MAX_LEVEL: usize = 3;
pub const LEVEL_SPANS: [&str; TRACED_MAX_LEVEL + 1] =
    ["core.level0", "core.level1", "core.level2", "core.level3"];

/// Patterns replayed per job in each replay mode.
const REPLAY_PATTERNS: usize = 256;

/// Counts gathered across the decomposed jobs of one run.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Σ over both halves of every job of the compiled plan's
    /// full-replay `flops_proxy`: the cost of the contraction order the
    /// planner chose, which repeats exactly for a fixed set of jobs.
    pub plan_flops: u128,
    /// Patterns in the levels each estimate summed, and their time.
    pub estimate_patterns: u128,
    pub estimate_sum_ns: u128,
    /// Replay totals of the timed passes (both halves per pattern).
    pub replay_patterns: u64,
    pub full_ns: u128,
    pub delta_ns: u128,
    pub delta_steps: u64,
    pub delta_flops: u128,
    /// Workspace growth events after warm-up (must stay 0).
    pub steady_allocs: u64,
    /// Patterns whose delta replay differed from the full replay.
    pub replay_mismatches: u64,
}

/// The estimate of `⟨v|E(|ψ⟩⟨ψ|)|v⟩` at `level`, traced as
/// `core.estimate` → `core.setup` + `core.level<u>`. Returns the value
/// and the evaluator, which [`traced_layers`] continues.
#[allow(clippy::too_many_arguments)]
pub fn traced_estimate(
    tracer: &Tracer,
    job: u64,
    parent: Option<SpanId>,
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    level: usize,
    threads: usize,
    counts: &mut LayerCounts,
) -> Result<(f64, LevelEvaluator), QnsError> {
    let opts = ApproxOptions::default()
        .with_level(level)
        .with_threads(threads);
    tracer.span("core.estimate", job, parent, |est| {
        let mut eval = tracer.span("core.setup", job, Some(est), |_| {
            LevelEvaluator::new(noisy, psi, v, &opts)
        })?;
        let top = level.min(eval.site_count());
        let mut value = 0.0;
        for u in 0..=top {
            let start = Instant::now();
            let p = tracer.span(LEVEL_SPANS[u.min(TRACED_MAX_LEVEL)], job, Some(est), |_| {
                eval.advance()
            })?;
            counts.estimate_sum_ns += start.elapsed().as_nanos();
            counts.estimate_patterns += p.level_patterns as u128;
            value = p.value;
        }
        Ok((value, eval))
    })
}

/// The `layers` span of a traced job: advances `eval` through the
/// levels up to [`TRACED_MAX_LEVEL`] the estimate did not need (so every
/// run reports a time for each level), then [`decompose`]s the job.
pub fn traced_layers(
    tracer: &Tracer,
    job: u64,
    eval: &mut LevelEvaluator,
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    counts: &mut LayerCounts,
) -> Result<(), QnsError> {
    tracer.span("layers", job, None, |layers| {
        while eval.next_level() <= TRACED_MAX_LEVEL.min(eval.site_count()) {
            let u = eval.next_level();
            tracer.span(LEVEL_SPANS[u], job, Some(layers), |_| eval.advance())?;
        }
        decompose(tracer, job, Some(layers), noisy, psi, v, counts);
        Ok(())
    })
}

/// Adds one job's level-sum time (levels `0..=TRACED_MAX_LEVEL`, setup
/// excluded) with one thread to `speedup.num` and with `threads` to
/// `speedup.den`.
pub fn add_thread_speedup(
    speedup: &mut Ratio,
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    threads: usize,
) -> Result<(), QnsError> {
    let sum_seconds = |threads: usize| -> Result<f64, QnsError> {
        let opts = ApproxOptions::default()
            .with_level(TRACED_MAX_LEVEL)
            .with_threads(threads);
        let mut eval = LevelEvaluator::new(noisy, psi, v, &opts)?;
        let top = TRACED_MAX_LEVEL.min(eval.site_count());
        let start = Instant::now();
        while eval.next_level() <= top {
            black_box(eval.advance()?);
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let one = sum_seconds(1)?;
    let many = sum_seconds(threads)?;
    speedup.num += one;
    speedup.den += many;
    Ok(())
}

/// One split half: its skeleton and compiled plan.
struct Half {
    skel: AmplitudeSkeleton,
    plan: ExecutablePlan,
}

/// Repeats the per-job setup through the layers' public functions and
/// replays patterns in full and delta mode, all under span `parent`.
fn decompose(
    tracer: &Tracer,
    job: u64,
    parent: Option<SpanId>,
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    counts: &mut LayerCounts,
) {
    let circuit = noisy.circuit();
    let sites: Vec<(usize, usize, NoiseSvd)> = noisy
        .initial_events()
        .iter()
        .map(|e| (usize::MAX, e))
        .chain(noisy.events().iter().map(|e| (e.after_gate, e)))
        .map(|(after_gate, e)| {
            let svd = tracer.span("core.noise_svd", job, parent, |_| {
                NoiseSvd::decompose(&e.kraus)
            });
            (after_gate, e.qubit, svd)
        })
        .collect();
    let placeholders: Vec<Insertion> = sites
        .iter()
        .map(|&(after_gate, qubit, _)| Insertion {
            after_gate,
            qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let mut halves: Vec<Half> = [false, true]
        .into_iter()
        .map(|conjugate| {
            let skel = tracer.span("tnet.skeleton", job, parent, |_| {
                AmplitudeSkeleton::new(circuit, psi, v, &placeholders, conjugate)
            });
            let plan = tracer.span("tnet.plan", job, parent, |_| {
                skel.plan(OrderStrategy::Greedy)
            });
            let plan = tracer.span("tnet.compile", job, parent, |_| plan.compile());
            counts.plan_flops += plan.replay_stats().flops_proxy;
            Half { skel, plan }
        })
        .collect();
    // payloads[site][term] = (upper U_term, lower V_term), as the
    // pattern sum installs them.
    let payloads: Vec<[(Tensor, Tensor); 4]> = sites
        .iter()
        .map(|(_, _, svd)| {
            std::array::from_fn(|term| {
                let (u, vm) = svd.term(term);
                (Tensor::from_matrix(u), Tensor::from_matrix(vm))
            })
        })
        .collect();
    let patterns = replay_patterns(sites.len());
    if patterns.is_empty() {
        return;
    }
    let full = replay(
        tracer,
        job,
        parent,
        &mut halves,
        &payloads,
        &patterns,
        false,
        counts,
    );
    let delta = replay(
        tracer,
        job,
        parent,
        &mut halves,
        &payloads,
        &patterns,
        true,
        counts,
    );
    counts.replay_mismatches += full
        .iter()
        .zip(&delta)
        .filter(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits())
        .count() as u64;
}

/// Up to `REPLAY_PATTERNS` level-1 and level-2 patterns in
/// minimal-change order.
fn replay_patterns(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for u in 1..=2 {
        let mut stream = GrayPatternStream::new(n, u);
        let mut buf = vec![0usize; n];
        while out.len() < REPLAY_PATTERNS && stream.next_into(&mut buf) {
            out.push(buf.clone());
        }
    }
    out
}

/// Per-mode replay state: installed terms and one workspace per half.
struct Replayer {
    delta: bool,
    current: Vec<usize>,
    workspaces: Vec<Workspace>,
    dirty: Vec<Vec<usize>>,
    steps: u64,
    flops: u128,
}

impl Replayer {
    fn new(halves: &[Half], n: usize, delta: bool) -> Self {
        Replayer {
            delta,
            current: vec![TERM_UNSET; n],
            workspaces: halves
                .iter()
                .map(|h| Workspace::for_plan(&h.plan))
                .collect(),
            dirty: vec![Vec::with_capacity(n); halves.len()],
            steps: 0,
            flops: 0,
        }
    }

    fn allocation_events(&self) -> u64 {
        self.workspaces
            .iter()
            .map(Workspace::allocation_events)
            .sum()
    }

    /// Installs the payloads `assignment` changes and replays both
    /// halves, returning `amp_up · amp_lo`.
    fn run(
        &mut self,
        halves: &mut [Half],
        payloads: &[[(Tensor, Tensor); 4]],
        assignment: &[usize],
    ) -> Complex64 {
        for d in self.dirty.iter_mut() {
            d.clear();
        }
        for (i, (&term, cur)) in assignment.iter().zip(self.current.iter_mut()).enumerate() {
            if term == *cur {
                continue;
            }
            let (up, lo) = &payloads[i][term];
            for (h, (half, payload)) in halves.iter_mut().zip([up, lo]).enumerate() {
                half.skel.set_insertion_payload(i, payload);
                self.dirty[h].push(half.skel.insertion_slot(i));
            }
            *cur = term;
        }
        let mut product = Complex64::ONE;
        for ((half, ws), d) in halves
            .iter()
            .zip(self.workspaces.iter_mut())
            .zip(&self.dirty)
        {
            product *= if self.delta {
                let (amp, st) = half
                    .plan
                    .execute_network_delta_scalar(half.skel.network(), d, ws);
                self.steps += st.contractions as u64;
                self.flops += st.flops_proxy;
                amp
            } else {
                half.plan.execute_network_scalar(half.skel.network(), ws)
            };
        }
        product
    }
}

/// Replays `patterns` through both halves, installing only changed
/// payloads; `delta` selects delta replay of the changed paths over a
/// full replay of the plan. Returns the per-pattern products.
#[allow(clippy::too_many_arguments)]
fn replay(
    tracer: &Tracer,
    job: u64,
    parent: Option<SpanId>,
    halves: &mut [Half],
    payloads: &[[(Tensor, Tensor); 4]],
    patterns: &[Vec<usize>],
    delta: bool,
    counts: &mut LayerCounts,
) -> Vec<Complex64> {
    let mut r = Replayer::new(halves, payloads.len(), delta);
    // An untimed pass warms the node caches and sizes the delta-merge
    // buffers; the timed pass must then be allocation-free.
    for p in patterns {
        black_box(r.run(halves, payloads, p));
    }
    r.steps = 0;
    r.flops = 0;
    let allocs_before = r.allocation_events();
    let name = if delta {
        "tnet.delta_replay"
    } else {
        "tnet.full_replay"
    };
    let mut products = Vec::with_capacity(patterns.len());
    let start = Instant::now();
    tracer.span(name, job, parent, |_| {
        for p in patterns {
            products.push(black_box(r.run(halves, payloads, p)));
        }
    });
    let elapsed = start.elapsed().as_nanos();
    if delta {
        counts.delta_ns += elapsed;
        counts.delta_steps += r.steps;
        counts.delta_flops += r.flops;
        counts.steady_allocs += r.allocation_events() - allocs_before;
        counts.replay_patterns += patterns.len() as u64;
    } else {
        counts.full_ns += elapsed;
    }
    products
}

//! The l-level approximation algorithm (paper, Algorithm 1).
//!
//! Every noise event's superoperator is expanded as
//! `M_E = Σ_{i=0..3} U_i ⊗ V_i` ([`crate::NoiseSvd`]). A *substitution
//! pattern* assigns one term to every noise; because each substituted
//! noise is a Kronecker product, the double-size network of the paper
//! factorizes into an upper network (the circuit with the `U` matrices
//! spliced in) and a lower network (the conjugated circuit with the
//! `V` matrices), whose scalar contractions multiply.
//!
//! The level-`l` approximation sums all patterns in which at most `l`
//! noises take a sub-dominant term `i ∈ {1,2,3}`:
//!
//! ```text
//! A(l) = Σ_{u=0..l}  Σ_{|S|=u}  Σ_{i_S ∈ {1,2,3}^u}   amp_up · amp_lo
//! ```
//!
//! at `2·Σ_{u≤l} C(N,u)·3^u` single-size contractions (Theorem 1).
//!
//! # Plan-once/execute-many
//!
//! All patterns share exactly one network topology per split half —
//! only the 2×2 `U`/`V` payloads differ — so the evaluators here build
//! each half's [`AmplitudeSkeleton`] **once per run**, capture its
//! greedy contraction order as a [`qns_tnet::plan::ContractionPlan`],
//! and then merely swap payloads and replay the plan per pattern. The
//! order search therefore runs `O(1)` times per run instead of once
//! per pattern (`O(N^l)` times); [`ApproxResult::stats`] reports the
//! search/replay counts so the amortization is observable. Patterns
//! themselves are *streamed* (sequentially, or pulled in fixed-size
//! chunks by worker threads), so pattern-buffer memory is `O(chunk)`
//! rather than `O(N^l)`.
//!
//! # Incremental (delta) replay
//!
//! Patterns are enumerated in the minimal-change order of
//! [`crate::patterns::GrayPatternStream`]: consecutive patterns differ
//! in at most two noise sites. The evaluators track the previously
//! installed assignment, swap only the payloads that changed, and
//! replay only the contraction-tree paths those leaves feed
//! ([`ExecutablePlan::execute_network_delta_into`]); every other
//! intermediate is reused from the plan's persistent workspace arena.
//! Steady-state cost per pattern is therefore `O(tree depth)`
//! contractions instead of the full plan. Delta replay is bit-identical
//! to full replay by construction — the recomputed steps read the same
//! operand values a full replay would — so this is purely a
//! performance change; workers that start cold fall back to one full
//! replay automatically.
//!
//! # Subset-batched level sums (levels ≥ 2)
//!
//! At level `u ≥ 2` the `3^u` patterns of one non-dominant subset `S`
//! differ only in the payloads at `S`, and each half's amplitude is
//! multilinear in them. So the evaluator takes one subset at a time:
//!
//! * **Memo.** A tree node whose subtree holds at most one active site
//!   takes one of only `1 + 3N` values per run: the all-dominant
//!   baseline, or one site at one sub-dominant term. A per-run
//!   `SplitMemo` records them (plus each site's three payloads) in
//!   one single-site pass of `2 + 3N` delta replays per half, built by
//!   [`crate::refine::LevelEvaluator`] at its first level ≥ 2.
//! * **Batched steps.** Every node with at least two active sites below
//!   it runs once per subset, over all `3^b` term combinations of its
//!   `b` active sites ([`ExecutablePlan::execute_step_batch`]): each
//!   active site's operand carries a free batch leg of size 3, read
//!   from the memo. Each half then yields all `3^|S|` root amplitudes,
//!   and `amp_up[t]·amp_lo[t]` is folded in the Gray stream's order.
//!   Beyond six active sites the program runs once per *slab*: the
//!   first six sites stay batched and the others take the fixed terms
//!   of `3^6` consecutive patterns, which bounds a step's values.
//!
//! Why the bits survive: a batch leg is never contracted, so every
//! output value is the fused kernel run on exactly the operands a
//! per-pattern replay of that term combination reads — the same `k`
//! order, the same zero-skip — and the memo entries *are* full-replay
//! values of the same subtree inputs. The products are added in the
//! same order, sequentially into one accumulator and in parallel into
//! the same 32-pattern chunk sums, because a worker's unit of 32 slabs
//! (32 subsets up to six active sites) is exactly `3^b` whole chunks.

use crate::noise_svd::NoiseSvd;
use crate::patterns::{GrayPatternStream, TERM_UNSET};
use qns_circuit::Circuit;
use qns_linalg::{Complex64, Matrix};
use qns_noise::{NoiseEvent, NoisyCircuit, QnsError};
use qns_tensor::Tensor;
use qns_tnet::builder::{AmplitudeSkeleton, Insertion, ProductState};
use qns_tnet::exec::{Batch, ExecutablePlan, Workspace};
use qns_tnet::network::{ContractionStats, OrderStrategy, TensorNetwork};
use std::sync::{Mutex, PoisonError};

/// Options for [`approximate_expectation`].
///
/// Marked `#[non_exhaustive]`: construct with
/// [`ApproxOptions::default`] and the `with_*` setters so future
/// fields are not breaking changes.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxOptions {
    /// Approximation level `l` (0 = dominant terms only; `≥ N` = exact).
    pub level: usize,
    /// Contraction-order strategy for the split networks.
    pub strategy: OrderStrategy,
    /// Guard against accidental exponential blow-ups: the run panics if
    /// it would evaluate more than this many substitution patterns.
    pub max_terms: u128,
    /// Worker threads for pattern evaluation (patterns are independent,
    /// so the sum parallelizes embarrassingly — the paper's server runs
    /// exploited exactly this). `0` or `1` evaluates sequentially.
    /// Workers share one contraction plan and pull patterns from a
    /// streaming enumerator in fixed-size chunks.
    pub threads: usize,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            level: 1,
            strategy: OrderStrategy::Greedy,
            max_terms: 20_000_000,
            threads: 1,
        }
    }
}

impl ApproxOptions {
    /// Returns a copy with the approximation level set to `level`.
    pub fn with_level(mut self, level: usize) -> Self {
        self.level = level;
        self
    }

    /// Returns a copy with the contraction-order strategy set.
    pub fn with_strategy(mut self, strategy: OrderStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with the pattern-count guard set.
    pub fn with_max_terms(mut self, max_terms: u128) -> Self {
        self.max_terms = max_terms;
        self
    }

    /// Returns a copy with the worker-thread count set. `0` is clamped
    /// to `1` (sequential evaluation) so a computed count — e.g.
    /// `available_cores / jobs` rounding down — can never produce a
    /// degenerate configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Result of an approximation run.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxResult {
    /// The approximation `A(l)` of `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`.
    pub value: f64,
    /// Per-level contributions `T_0, …, T_l` (their sum is `value`).
    pub per_level: Vec<f64>,
    /// Number of substitution patterns evaluated.
    pub terms_evaluated: usize,
    /// Number of tensor-network contractions performed
    /// (`2 × terms_evaluated`).
    pub contractions: usize,
    /// Aggregated contraction statistics across the whole pattern sum.
    /// With plan reuse, `stats.order_searches` stays `O(1)` per run
    /// (2 — one search per split half) while `stats.plan_reuses`
    /// counts the replays.
    pub stats: ContractionStats,
}

/// One noise site prepared for substitution.
pub(crate) struct Site {
    /// `after_gate` index for [`Insertion`] (`usize::MAX` = initial).
    after_gate: usize,
    qubit: usize,
    svd: NoiseSvd,
}

pub(crate) fn collect_sites(noisy: &NoisyCircuit) -> Vec<Site> {
    let mk = |after_gate: usize, e: &NoiseEvent| Site {
        after_gate,
        qubit: e.qubit,
        svd: NoiseSvd::decompose(&e.kraus),
    };
    noisy
        .initial_events()
        .iter()
        .map(|e| mk(usize::MAX, e))
        .chain(noisy.events().iter().map(|e| mk(e.after_gate, e)))
        .collect()
}

/// The two split-half skeletons of one run. Payload swaps mutate the
/// skeletons, so each worker thread clones this pair; the (read-only)
/// plans and payload tables are shared.
#[derive(Clone)]
pub(crate) struct SplitSkeletons {
    upper: AmplitudeSkeleton,
    lower: AmplitudeSkeleton,
}

/// The per-run shared state of the split evaluator: the **compiled**
/// contraction plans (searched and lowered once) and every site's four
/// SVD-term payload tensors, pre-resolved — conjugation included — so
/// the hot loop only memcpys 2×2 buffers into the skeleton slots and
/// replays kernels through a per-worker [`Workspace`]: zero heap
/// allocations per pattern in steady state.
pub(crate) struct SplitShared {
    up: ExecutablePlan,
    lo: ExecutablePlan,
    /// `payloads[site][term] = (upper tensor U_term, lower tensor)`.
    /// The lower network is built with `conjugate = true`, which
    /// conjugates inserted *matrices*; the pre-built tensor carries
    /// `V_term` itself (the old path passed `V.conj()` and let the
    /// builder conjugate it back).
    payloads: Vec<[(Tensor, Tensor); 4]>,
    /// The stats of the once-per-run setup: two order searches.
    pub(crate) planning: ContractionStats,
}

/// Builds the insertion skeletons for `⟨x|·|ψ⟩` (upper) and
/// `⟨y|·|ψ⟩`* (lower) with identity placeholders at every noise site,
/// plans **and compiles** both contractions, and resolves the payload
/// tensors — the once-per-run setup.
pub(crate) fn build_split(
    circuit: &Circuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    sites: &[Site],
    strategy: OrderStrategy,
) -> (SplitSkeletons, SplitShared) {
    let placeholders: Vec<Insertion> = sites
        .iter()
        .map(|s| Insertion {
            after_gate: s.after_gate,
            qubit: s.qubit,
            matrix: Matrix::identity(2),
        })
        .collect();
    let upper = AmplitudeSkeleton::new(circuit, psi, x, &placeholders, false);
    let lower = AmplitudeSkeleton::new(circuit, psi, y, &placeholders, true);
    let up_plan = upper.plan(strategy);
    let lo_plan = lower.plan(strategy);
    let mut planning = ContractionStats::default();
    planning.absorb(&up_plan.planning_stats());
    planning.absorb(&lo_plan.planning_stats());
    let payloads = sites
        .iter()
        .map(|s| {
            std::array::from_fn(|term| {
                let (u, vm) = s.svd.term(term);
                (Tensor::from_matrix(u), Tensor::from_matrix(vm))
            })
        })
        .collect();
    (
        SplitSkeletons { upper, lower },
        SplitShared {
            up: up_plan.compile(),
            lo: lo_plan.compile(),
            payloads,
            planning,
        },
    )
}

/// Incremental evaluator state for the split networks: the previously
/// installed assignment plus one warm [`Workspace`] per half.
///
/// Per pattern it diffs the new assignment against the installed one,
/// memcpys only the changed `U`/`V` payloads into the skeleton slots,
/// and delta-replays only the contraction-tree paths those leaves feed
/// — bit-identical to a full replay, but `O(changes · tree depth)`
/// contractions under the minimal-change [`GrayPatternStream`] order.
/// A cold workspace (a worker's first pattern) falls back to one full
/// replay inside the executor; no coordination is needed. Levels 0–1
/// and the [`SplitMemo`] build run through it.
pub(crate) struct SplitDelta {
    /// Term installed at each site (`TERM_UNSET` before the first
    /// pattern, so every site reads as changed).
    current: Vec<usize>,
    dirty_up: Vec<usize>,
    dirty_lo: Vec<usize>,
    /// Sites whose term changed in the pattern being evaluated.
    changed: Vec<usize>,
    /// One workspace per half: cached intermediates belong to a single
    /// plan, and alternating two plans through one workspace would
    /// evict the warm arena on every pattern.
    ws_up: Workspace,
    ws_lo: Workspace,
}

impl SplitDelta {
    pub(crate) fn new(shared: &SplitShared, n_sites: usize) -> Self {
        SplitDelta {
            current: vec![TERM_UNSET; n_sites],
            dirty_up: Vec::new(),
            dirty_lo: Vec::new(),
            changed: Vec::with_capacity(n_sites),
            ws_up: Workspace::for_plan(&shared.up),
            ws_lo: Workspace::for_plan(&shared.lo),
        }
    }

    /// Workspace growth events of both halves (see
    /// [`Workspace::allocation_events`]).
    pub(crate) fn allocation_events(&self) -> u64 {
        self.ws_up.allocation_events() + self.ws_lo.allocation_events()
    }

    /// Installs the payloads of every site whose term differs from
    /// `current`, recording those sites in `changed`.
    // qns-lint: zero-alloc
    fn install(&mut self, skels: &mut SplitSkeletons, shared: &SplitShared, assignment: &[usize]) {
        self.changed.clear();
        for (i, (&term, cur)) in assignment.iter().zip(&mut self.current).enumerate() {
            if term == *cur {
                continue;
            }
            let (u, v) = &shared.payloads[i][term];
            skels.upper.set_insertion_payload(i, u);
            skels.lower.set_insertion_payload(i, v);
            self.changed.push(i);
            *cur = term;
        }
    }

    /// Evaluates one substitution pattern incrementally. Returns
    /// `amp_up · amp_lo`; no network construction, no order search,
    /// and — once the workspaces are warm — no heap allocations and
    /// no work for unchanged subtrees.
    fn evaluate(
        &mut self,
        skels: &mut SplitSkeletons,
        shared: &SplitShared,
        assignment: &[usize],
        stats: &mut ContractionStats,
    ) -> Complex64 {
        self.install(skels, shared, assignment);
        self.dirty_up.clear();
        self.dirty_lo.clear();
        for &i in &self.changed {
            self.dirty_up.push(skels.upper.insertion_slot(i));
            self.dirty_lo.push(skels.lower.insertion_slot(i));
        }
        let (amp_up, st_up) = shared.up.execute_network_delta_scalar(
            skels.upper.network(),
            &self.dirty_up,
            &mut self.ws_up,
        );
        let (amp_lo, st_lo) = shared.lo.execute_network_delta_scalar(
            skels.lower.network(),
            &self.dirty_lo,
            &mut self.ws_lo,
        );
        stats.absorb(&st_up);
        stats.absorb(&st_lo);
        amp_up * amp_lo
    }
}

/// The read-only single-site memo of one split half: every step's
/// output at the all-dominant assignment, and per site its three
/// sub-dominant payloads with the outputs of the steps on its
/// leaf-to-root path.
pub(crate) struct HalfMemo {
    /// Step `s`'s baseline output is `baseline[offsets[s]..offsets[s + 1]]`.
    baseline: Vec<Complex64>,
    offsets: Vec<usize>,
    /// Per site: the plan input slot of its insertion.
    slots: Vec<usize>,
    /// Per site: its insertion leaf's path, ascending.
    paths: Vec<Vec<u32>>,
    /// Elements of one insertion payload.
    leaf_len: usize,
    /// Per site: terms 1, 2, 3 as consecutive blocks, each the term's
    /// payload followed by the outputs of the site's path steps.
    sites: Vec<Vec<Complex64>>,
}

impl HalfMemo {
    /// The baseline from `ws` (warm at the all-dominant assignment).
    fn baseline(
        plan: &ExecutablePlan,
        ws: &Workspace,
        skel: &AmplitudeSkeleton,
        n_sites: usize,
    ) -> HalfMemo {
        let mut offsets = vec![0];
        for s in 0..plan.step_count() {
            offsets.push(offsets[s] + plan.step_output_len(s));
        }
        let mut baseline = Vec::with_capacity(offsets[plan.step_count()]);
        for s in 0..plan.step_count() {
            baseline.extend_from_slice(plan.step_output(s, ws));
        }
        let slots: Vec<usize> = (0..n_sites).map(|i| skel.insertion_slot(i)).collect();
        let paths: Vec<Vec<u32>> = slots.iter().map(|&l| plan.leaf_path(l).to_vec()).collect();
        let leaf_len = slots
            .first()
            .map_or(0, |&l| skel.network().node_tensor(l).len());
        // Exact capacities: the memo lives as long as the evaluator.
        let sites = paths
            .iter()
            .map(|path| {
                let block: usize = path.iter().map(|&s| plan.step_output_len(s as usize)).sum();
                Vec::with_capacity(3 * (leaf_len + block))
            })
            .collect();
        HalfMemo {
            baseline,
            offsets,
            slots,
            paths,
            leaf_len,
            sites,
        }
    }

    /// Appends `payload` and the outputs of `site`'s path steps from
    /// `ws` (warm at the site's next sub-dominant term) as the site's
    /// next term block.
    fn capture(&mut self, site: usize, payload: &Tensor, plan: &ExecutablePlan, ws: &Workspace) {
        assert_eq!(payload.len(), self.leaf_len, "insertion payload length");
        self.sites[site].extend_from_slice(payload.as_slice());
        for &s in &self.paths[site] {
            self.sites[site].extend_from_slice(plan.step_output(s as usize, ws));
        }
    }

    fn path(&self, site: usize) -> &[u32] {
        &self.paths[site]
    }

    fn len(&self, step: usize) -> usize {
        self.offsets[step + 1] - self.offsets[step]
    }

    /// The three sub-dominant values of `site` found `offset` elements
    /// into each of its term blocks (`0`: the payloads themselves).
    // qns-lint: zero-alloc
    fn terms(&self, site: usize, offset: usize) -> Batch<'_> {
        let data = &self.sites[site];
        Batch {
            data: &data[offset..],
            stride: data.len() / 3,
            count: 3,
        }
    }
}

/// The per-run single-site memo of both split halves, built lazily at
/// the first level ≥ 2 and read-only afterwards (shared by every
/// worker). Memory per half: the plan's arena plus, per site, three
/// times its payload and the sizes of its path's intermediates.
pub(crate) struct SplitMemo {
    up: HalfMemo,
    lo: HalfMemo,
}

impl SplitMemo {
    /// Builds the memo by one single-site pass through `delta`: the
    /// all-dominant pattern, then every site at terms 1–3 with every
    /// other site dominant, then the all-dominant pattern again, which
    /// leaves `skels` holding the dominant payloads the subset programs
    /// read (`2 + 3N` ordinary delta replays per half, whose
    /// contractions are absorbed into `stats`; they replay no pattern
    /// of the sum, so `plan_reuses` is untouched).
    pub(crate) fn build(
        skels: &mut SplitSkeletons,
        shared: &SplitShared,
        delta: &mut SplitDelta,
        stats: &mut ContractionStats,
    ) -> SplitMemo {
        let n = shared.payloads.len();
        let mut replays = ContractionStats::default();
        let mut assignment = vec![0usize; n];
        delta.evaluate(skels, shared, &assignment, &mut replays);
        let mut up = HalfMemo::baseline(&shared.up, &delta.ws_up, &skels.upper, n);
        let mut lo = HalfMemo::baseline(&shared.lo, &delta.ws_lo, &skels.lower, n);
        for site in 0..n {
            for term in 1..=3 {
                assignment[site] = term;
                delta.evaluate(skels, shared, &assignment, &mut replays);
                let (u, v) = &shared.payloads[site][term];
                up.capture(site, u, &shared.up, &delta.ws_up);
                lo.capture(site, v, &shared.lo, &delta.ws_lo);
            }
            assignment[site] = 0;
        }
        delta.evaluate(skels, shared, &assignment, &mut replays);
        replays.plan_reuses = 0;
        stats.absorb(&replays);
        SplitMemo { up, lo }
    }
}

/// Input-slot marker: no active site's insertion.
const NO_SITE: usize = usize::MAX;

/// Active sites whose terms one program run batches. A subset with
/// more runs once per term combination of the others (a *slab* of
/// `3^MAX_BATCHED` consecutive patterns in Gray order), so a step holds
/// at most 729 values whatever the level.
const MAX_BATCHED: usize = 6;

/// Where a step's values come from in a subset program.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    /// No active site below: one value, the memo's baseline.
    Baseline,
    /// Exactly one, the `pos`-th active site: its memo values, `offset`
    /// elements into each of the site's term blocks (three if the site
    /// is batched, else the one of its fixed term).
    Single { pos: usize, offset: usize },
    /// Two or more: `3^b` values computed into the batch buffer, `b`
    /// the batched sites below.
    Computed,
}

/// One half's step program for one subset of active (non-dominant)
/// sites, of which the first `b` are batched. Every step with at least
/// two active sites below it runs once per run, over all term
/// combinations of its batched sites: its values are indexed
/// `t = t_lhs · count_rhs + t_rhs` by its operands' value indices, as
/// [`ExecutablePlan::execute_step_batch`] packs them. All buffers are
/// sized once from the plan, so laying out and running never allocate.
pub(crate) struct SubsetProgram {
    /// Source of every step's values, indexed by step.
    source: Vec<Source>,
    /// Active sites below every step.
    below: Vec<u32>,
    /// Batched active sites below every step.
    batched: Vec<u32>,
    /// Per computed step below the root: offset of its values in the
    /// batch buffer.
    region: Vec<usize>,
    /// Per input slot: the position of the active site inserted there,
    /// or [`NO_SITE`].
    leaf_pos: Vec<usize>,
    /// The active sites, ascending.
    active: Vec<usize>,
    /// How many leading active sites are batched.
    b: usize,
    /// Steps of [`Source::Computed`], ascending (the root last).
    computed: Vec<u32>,
    /// Per batched site: the weight of its term digit in the root's
    /// value index.
    weights: Vec<usize>,
    /// Buffer regions in use while laying out: `(start, end, step)`,
    /// ascending by `start`.
    live: Vec<(usize, usize, usize)>,
    /// Batch-buffer elements the program needs.
    peak: usize,
}

impl SubsetProgram {
    fn new(plan: &ExecutablePlan, n_sites: usize) -> SubsetProgram {
        let steps = plan.step_count();
        SubsetProgram {
            source: vec![Source::Baseline; steps],
            below: vec![0; steps],
            batched: vec![0; steps],
            region: vec![0; steps],
            leaf_pos: vec![NO_SITE; plan.n_inputs()],
            active: Vec::with_capacity(n_sites),
            b: 0,
            computed: Vec::with_capacity(steps),
            weights: Vec::with_capacity(n_sites),
            live: Vec::with_capacity(steps),
            peak: 0,
        }
    }

    /// Batched active sites below `slot`.
    fn batched_below(&self, plan: &ExecutablePlan, slot: usize) -> u32 {
        match slot.checked_sub(plan.n_inputs()) {
            None => u32::from(self.leaf_pos[slot] < self.b),
            Some(step) => self.batched[step],
        }
    }

    /// Number of values of a computed step.
    fn values(&self, step: usize) -> usize {
        3usize.pow(self.batched[step])
    }

    /// Derives every step's source for the active `sites` (ascending),
    /// the first `min(|sites|, MAX_BATCHED)` batched, and lays the
    /// computed steps out in the batch buffer. Touches only the leaf
    /// paths of the old and new subsets.
    // qns-lint: zero-alloc
    fn layout(&mut self, half: &HalfMemo, plan: &ExecutablePlan, sites: &[usize]) {
        for &site in &self.active {
            self.leaf_pos[half.slots[site]] = NO_SITE;
            for &s in half.path(site) {
                self.source[s as usize] = Source::Baseline;
                self.below[s as usize] = 0;
                self.batched[s as usize] = 0;
            }
        }
        self.active.clear();
        self.active.extend_from_slice(sites);
        self.b = sites.len().min(MAX_BATCHED);
        self.computed.clear();
        for (pos, &site) in sites.iter().enumerate() {
            self.leaf_pos[half.slots[site]] = pos;
            let mut offset = half.leaf_len;
            for &s in half.path(site) {
                let s = s as usize;
                self.below[s] += 1;
                self.batched[s] += u32::from(pos < self.b);
                match self.below[s] {
                    1 => self.source[s] = Source::Single { pos, offset },
                    2 => {
                        self.source[s] = Source::Computed;
                        self.computed.push(s as u32);
                    }
                    _ => {}
                }
                offset += half.len(s);
            }
        }
        self.computed.sort_unstable();
        self.allocate(half, plan);
    }

    /// First-fit layout of the computed steps' values below the root
    /// (which writes the caller's root buffer): a region is reused once
    /// the step consuming it has run. Sets `region` and `peak`.
    // qns-lint: zero-alloc
    fn allocate(&mut self, half: &HalfMemo, plan: &ExecutablePlan) {
        let root = plan.step_count() - 1;
        self.live.clear();
        self.peak = 0;
        for i in 0..self.computed.len() {
            let s = self.computed[i] as usize;
            if s == root {
                continue;
            }
            let len = half.len(s) * self.values(s);
            let mut start = 0;
            let mut at = self.live.len();
            for (k, &(lo, hi, _)) in self.live.iter().enumerate() {
                if lo >= start + len {
                    at = k;
                    break;
                }
                start = hi;
            }
            self.live.insert(at, (start, start + len, s));
            self.region[s] = start;
            self.peak = self.peak.max(start + len);
            for child in plan.step_children(s) {
                if let Some(c) = child.checked_sub(plan.n_inputs()) {
                    self.live.retain(|&(_, _, step)| step != c);
                }
            }
        }
    }

    /// Sets every batched site's digit weight in the root's value index:
    /// the product, over the computed steps its path enters from the
    /// lhs, of the rhs operand's value count.
    // qns-lint: zero-alloc
    fn weigh(&mut self, half: &HalfMemo, plan: &ExecutablePlan) {
        self.weights.clear();
        for i in 0..self.b {
            let site = self.active[i];
            let mut weight = 1usize;
            let mut prev = half.slots[site];
            for &s in half.path(site) {
                let s = s as usize;
                let [lhs, rhs] = plan.step_children(s);
                if self.below[s] >= 2 && lhs == prev {
                    weight *= 3usize.pow(self.batched_below(plan, rhs));
                }
                prev = plan.n_inputs() + s;
            }
            self.weights.push(weight);
        }
    }

    /// The values of the `pos`-th active site found `offset` elements
    /// into its term blocks: all three if it is batched, else the one
    /// of its term in `digits`.
    // qns-lint: zero-alloc
    fn site_values<'a>(
        &self,
        half: &'a HalfMemo,
        digits: &[usize],
        pos: usize,
        offset: usize,
    ) -> Batch<'a> {
        let terms = half.terms(self.active[pos], offset);
        if pos < self.b {
            return terms;
        }
        Batch::single(&terms.data[digits[pos] * terms.stride..])
    }

    /// The values of `slot` as an operand. `lo` is the batch buffer
    /// below the running step's region and `hi` the buffer from
    /// `hi_start` on.
    // qns-lint: zero-alloc
    #[allow(clippy::too_many_arguments)]
    fn operand<'a>(
        &self,
        half: &'a HalfMemo,
        plan: &ExecutablePlan,
        net: &'a TensorNetwork,
        digits: &[usize],
        lo: &'a [Complex64],
        hi: &'a [Complex64],
        hi_start: usize,
        slot: usize,
    ) -> Batch<'a> {
        let Some(step) = slot.checked_sub(plan.n_inputs()) else {
            return match self.leaf_pos[slot] {
                NO_SITE => Batch::single(net.node_tensor(slot).as_slice()),
                pos => self.site_values(half, digits, pos, 0),
            };
        };
        match self.source[step] {
            Source::Baseline => {
                Batch::single(&half.baseline[half.offsets[step]..][..half.len(step)])
            }
            Source::Single { pos, offset } => self.site_values(half, digits, pos, offset),
            Source::Computed => {
                let start = self.region[step];
                Batch {
                    data: if start < lo.len() {
                        &lo[start..]
                    } else {
                        &hi[start - hi_start..]
                    },
                    stride: half.len(step),
                    count: self.values(step),
                }
            }
        }
    }

    /// Runs every computed step with the unbatched sites at `digits`,
    /// reading inactive leaves from `net` (all-dominant), and writes
    /// the root's `3^b` amplitudes into `amps`.
    // qns-lint: zero-alloc
    fn run(
        &self,
        half: &HalfMemo,
        plan: &ExecutablePlan,
        net: &TensorNetwork,
        digits: &[usize],
        buf: &mut [Complex64],
        amps: &mut [Complex64],
    ) -> ContractionStats {
        let root = plan.step_count() - 1;
        let mut stats = ContractionStats::default();
        for &s in &self.computed {
            let s = s as usize;
            let [l, r] = plan.step_children(s);
            let st = if s == root {
                let lhs = self.operand(half, plan, net, digits, buf, &[], buf.len(), l);
                let rhs = self.operand(half, plan, net, digits, buf, &[], buf.len(), r);
                plan.execute_step_batch(s, lhs, rhs, amps)
            } else {
                let start = self.region[s];
                let end = start + half.len(s) * self.values(s);
                let (lo, rest) = buf.split_at_mut(start);
                let (dst, hi) = rest.split_at_mut(end - start);
                let lhs = self.operand(half, plan, net, digits, lo, hi, end, l);
                let rhs = self.operand(half, plan, net, digits, lo, hi, end, r);
                plan.execute_step_batch(s, lhs, rhs, dst)
            };
            stats.absorb(&st);
        }
        stats
    }
}

/// One worker's state for subset-batched levels: a step program per
/// half, the term digits of the current run, the batch buffer both
/// halves share, and each half's root amplitudes.
pub(crate) struct SubsetEval {
    progs: [SubsetProgram; 2],
    /// Per active site: its term − 1 in the current run (read for the
    /// unbatched sites only).
    digits: Vec<usize>,
    buf: Vec<Complex64>,
    amps: [Vec<Complex64>; 2],
    /// Buffer growth after [`SubsetEval::size_for_level`] sized them.
    allocation_events: u64,
}

impl SubsetEval {
    pub(crate) fn new(shared: &SplitShared, n_sites: usize) -> SubsetEval {
        SubsetEval {
            progs: [
                SubsetProgram::new(&shared.up, n_sites),
                SubsetProgram::new(&shared.lo, n_sites),
            ],
            digits: Vec::with_capacity(n_sites),
            buf: Vec::new(),
            amps: [Vec::new(), Vec::new()],
            allocation_events: 0,
        }
    }

    /// Buffer growth events after sizing: zero when
    /// [`SubsetEval::size_for_level`] sized the buffers for the level.
    pub(crate) fn allocation_events(&self) -> u64 {
        self.allocation_events
    }

    /// The batch-buffer length of level `u`: the largest program peak
    /// over its subsets and both halves. Leaves no subset laid out.
    pub(crate) fn level_buffer_len(
        &mut self,
        shared: &SplitShared,
        memo: &SplitMemo,
        n: usize,
        u: usize,
    ) -> usize {
        let mut peak = 0;
        let mut sites: Vec<usize> = (0..u).collect();
        let mut more = u <= n;
        while more {
            let [up, lo] = &mut self.progs;
            for (prog, plan, half) in [(up, &shared.up, &memo.up), (lo, &shared.lo, &memo.lo)] {
                prog.layout(half, plan, &sites);
                peak = peak.max(prog.peak);
            }
            // Next subset in lexicographic order.
            match (0..u).rev().find(|&i| sites[i] < n - u + i) {
                Some(i) => {
                    sites[i] += 1;
                    for j in i + 1..u {
                        sites[j] = sites[j - 1] + 1;
                    }
                }
                None => more = false,
            }
        }
        self.layout(shared, memo, &[]);
        peak
    }

    /// Sizes the buffers, exactly, for level `u` with a batch buffer of
    /// `len`.
    pub(crate) fn size_for_level(&mut self, len: usize, u: usize) {
        let values = 3usize.pow(u.min(MAX_BATCHED) as u32);
        let [up, lo] = &mut self.amps;
        for (buf, need) in [(&mut self.buf, len), (up, values), (lo, values)] {
            if buf.len() < need {
                buf.reserve_exact(need - buf.len());
                buf.resize(need, Complex64::ZERO);
            }
        }
    }

    /// The active sites laid out.
    fn sites(&self) -> &[usize] {
        &self.progs[0].active
    }

    /// Lays out both halves for the active `sites` (ascending).
    // qns-lint: zero-alloc
    fn layout(&mut self, shared: &SplitShared, memo: &SplitMemo, sites: &[usize]) {
        let [up, lo] = &mut self.progs;
        for (prog, plan, half) in [(up, &shared.up, &memo.up), (lo, &shared.lo, &memo.lo)] {
            prog.layout(half, plan, sites);
            prog.weigh(half, plan);
        }
    }

    /// Runs both halves with the `p`-th active site at term
    /// `digit(p) + 1` for every unbatched `p`: all `3^b` amplitudes of
    /// each half land in `amps`. Counts one plan replay per half per
    /// pattern of the run.
    // qns-lint: zero-alloc
    fn run(
        &mut self,
        skels: &SplitSkeletons,
        shared: &SplitShared,
        memo: &SplitMemo,
        digit: impl Fn(usize) -> usize,
        stats: &mut ContractionStats,
    ) {
        let u = self.progs[0].active.len();
        self.digits.clear();
        self.digits.extend((0..u).map(digit));
        let values = 3usize.pow(self.progs[0].b as u32);
        let halves = [
            (&shared.up, &memo.up, skels.upper.network()),
            (&shared.lo, &memo.lo, skels.lower.network()),
        ];
        for (h, (plan, half, net)) in halves.into_iter().enumerate() {
            let prog = &self.progs[h];
            if self.buf.len() < prog.peak {
                self.buf.resize(prog.peak, Complex64::ZERO);
                self.allocation_events += 1;
            }
            if self.amps[h].len() < values {
                self.amps[h].resize(values, Complex64::ZERO);
                self.allocation_events += 1;
            }
            let amps = &mut self.amps[h][..values];
            let mut st = prog.run(half, plan, net, &self.digits, &mut self.buf, amps);
            st.plan_reuses = values;
            stats.absorb(&st);
        }
    }

    /// `amp_up · amp_lo` of the run's pattern whose `p`-th batched site
    /// is at term `digit(p) + 1`.
    // qns-lint: zero-alloc
    fn product(&self, digit: impl Fn(usize) -> usize) -> Complex64 {
        let mut t = [0usize; 2];
        for (h, prog) in self.progs.iter().enumerate() {
            for (p, &w) in prog.weights.iter().enumerate() {
                t[h] += digit(p) * w;
            }
        }
        self.amps[0][t[0]] * self.amps[1][t[1]]
    }
}

/// Validates that a state's qubit count matches the circuit's.
pub(crate) fn check_state(
    what: &'static str,
    state: &ProductState,
    circuit: &Circuit,
) -> Result<(), QnsError> {
    if state.n_qubits() != circuit.n_qubits() {
        return Err(QnsError::SizeMismatch {
            what,
            expected: circuit.n_qubits(),
            actual: state.n_qubits(),
        });
    }
    Ok(())
}

/// Validates the Theorem-1 pattern budget against the `max_terms`
/// guard, returning the planned pattern count.
pub(crate) fn check_budget(
    n_sites: usize,
    level: usize,
    max_terms: u128,
) -> Result<u128, QnsError> {
    let planned: u128 = crate::bounds::planned_patterns(n_sites, level);
    if planned > max_terms {
        return Err(QnsError::TermBudgetExceeded {
            level,
            planned,
            max_terms,
        });
    }
    Ok(planned)
}

/// Patterns pulled from the shared stream per lock acquisition. Small
/// enough that the tail imbalance between workers stays negligible,
/// large enough that the mutex is cold next to the contractions.
const PATTERN_CHUNK: usize = 32;

/// Slabs a worker pulls per lock acquisition at the batched levels: a
/// unit holds `3^b` whole [`PATTERN_CHUNK`]s (the last unit of a level
/// may be partial), so chunk boundaries and with them the chunk-ordered
/// reduction are those of the per-pattern stream.
const SLAB_UNIT: usize = PATTERN_CHUNK;

/// Streams the level-`u` patterns sequentially through the shared
/// plans in minimal-change order, delta-replaying each one. Returns
/// `(Σ amp_up·amp_lo, patterns evaluated, stats)`.
pub(crate) fn evaluate_level_sequential(
    skels: &mut SplitSkeletons,
    shared: &SplitShared,
    n: usize,
    u: usize,
    delta: &mut SplitDelta,
) -> (Complex64, usize, ContractionStats) {
    let mut stream = GrayPatternStream::new(n, u);
    let mut assignment = vec![0usize; n];
    let mut acc = Complex64::ZERO;
    let mut count = 0usize;
    let mut stats = ContractionStats::default();
    while stream.next_into(&mut assignment) {
        acc += delta.evaluate(skels, shared, &assignment, &mut stats);
        count += 1;
    }
    (acc, count, stats)
}

/// Fans the level-`u` pattern stream across scoped worker threads.
/// Each worker clones the skeletons, shares the run's plans, and pulls
/// [`PATTERN_CHUNK`]-sized chunks from the stream — peak pattern
/// memory is `O(threads · chunk)` regardless of the level's size.
///
/// Which worker evaluates which chunk depends on OS scheduling, so to
/// keep the (non-associative) floating-point sum run-to-run
/// deterministic every chunk carries a sequence number and the partial
/// sums are reduced in sequence order after the join.
pub(crate) fn evaluate_level_parallel(
    skels: &SplitSkeletons,
    shared: &SplitShared,
    n: usize,
    u: usize,
    threads: usize,
) -> (Complex64, usize, ContractionStats) {
    let avail = crate::bounds::level_patterns(n, u).min(usize::MAX as u128) as usize;
    let workers = threads.min(avail).max(1);
    // Shared state: the pattern stream plus the next chunk's sequence
    // number, handed out under the same lock as the chunk itself.
    // Minimal-change order keeps consecutive patterns *within* a chunk
    // two sites apart; across chunk boundaries a worker's diff may be
    // larger, which the delta evaluator absorbs (it diffs, it does not
    // assume adjacency).
    let stream = Mutex::new((GrayPatternStream::new(n, u), 0usize));
    // Skeleton clones are made here, so they live in the caller's heap.
    let mut clones: Vec<SplitSkeletons> = (0..workers).map(|_| skels.clone()).collect();
    fan_out(&mut clones, |skels, chunk_sums| {
        let mut count = 0usize;
        let mut stats = ContractionStats::default();
        // One delta evaluator per worker, owned across its whole chunk
        // stream: its workspaces warm up on the first pattern (one full
        // replay), then every later pattern is an allocation-free delta.
        let mut delta = SplitDelta::new(shared, n);
        // Flat chunk buffer: PATTERN_CHUNK assignments of n sites each,
        // refilled under one lock.
        let mut buf = vec![0usize; PATTERN_CHUNK * n];
        loop {
            let (seq, filled) = {
                let mut guard = stream.lock().unwrap_or_else(PoisonError::into_inner);
                let (s, next_seq) = &mut *guard;
                let mut f = 0;
                while f < PATTERN_CHUNK && s.next_into(&mut buf[f * n..(f + 1) * n]) {
                    f += 1;
                }
                let seq = *next_seq;
                if f > 0 {
                    *next_seq += 1;
                }
                (seq, f)
            };
            if filled == 0 {
                break;
            }
            let mut chunk_acc = Complex64::ZERO;
            for k in 0..filled {
                chunk_acc += delta.evaluate(skels, shared, &buf[k * n..(k + 1) * n], &mut stats);
            }
            chunk_sums.push((seq, chunk_acc));
            count += filled;
        }
        (count, stats)
    })
}

/// Runs `work` on one scoped thread per element of `states` (on the
/// calling thread when there is just one). Each pushes `(sequence,
/// chunk sum)` pairs and returns its pattern count and stats; the chunk
/// sums are reduced in sequence order after the join, so the sum does
/// not depend on which worker took which chunk.
fn fan_out<S, F>(states: &mut [S], work: F) -> (Complex64, usize, ContractionStats)
where
    S: Send,
    F: Fn(&mut S, &mut Vec<(usize, Complex64)>) -> (usize, ContractionStats) + Sync,
{
    let run = |state: &mut S| {
        let mut chunk_sums = Vec::new();
        let (count, stats) = work(state, &mut chunk_sums);
        (chunk_sums, count, stats)
    };
    let results: Vec<_> = match states {
        [state] => vec![run(state)],
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .map(|state| scope.spawn(|| run(state)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        }),
    };
    let mut all_chunks: Vec<(usize, Complex64)> = Vec::new();
    let mut count = 0usize;
    let mut stats = ContractionStats::default();
    for (chunks, c, s) in results {
        all_chunks.extend(chunks);
        count += c;
        stats.absorb(&s);
    }
    all_chunks.sort_unstable_by_key(|&(seq, _)| seq);
    let acc = all_chunks.into_iter().map(|(_, v)| v).sum();
    (acc, count, stats)
}

/// The level-`u` sum (`u ≥ 2`) one subset at a time: per non-dominant
/// subset S, both halves run their [`SubsetProgram`] once per slab of
/// `3^min(|S|, MAX_BATCHED)` consecutive patterns (once per subset up
/// to six active sites), yielding the slab's amplitudes, and
/// `amp_up[t]·amp_lo[t]` is folded in the [`GrayPatternStream`]'s order
/// into one accumulator — the same values, added in the same order, as
/// a per-pattern replay. A slab is contiguous in that order because
/// the reflected Gray code sweeps the low positions fully before a
/// higher one moves. `skels` must hold the dominant payloads
/// ([`SplitMemo::build`] leaves them so) and is only read. `eval`'s
/// buffers are sized for the level before its first subset.
pub(crate) fn evaluate_subsets_sequential(
    skels: &SplitSkeletons,
    shared: &SplitShared,
    memo: &SplitMemo,
    n: usize,
    u: usize,
    eval: &mut SubsetEval,
) -> (Complex64, usize, ContractionStats) {
    let buf_len = eval.level_buffer_len(shared, memo, n, u);
    eval.size_for_level(buf_len, u);
    let per_subset = 3usize.pow(u as u32);
    let per_slab = 3usize.pow(u.min(MAX_BATCHED) as u32);
    let mut stream = GrayPatternStream::new(n, u);
    let mut sites = Vec::with_capacity(u);
    let mut acc = Complex64::ZERO;
    let mut count = 0usize;
    let mut stats = ContractionStats::default();
    while let Some(pattern) = stream.next_pattern() {
        if count.is_multiple_of(per_subset) {
            sites.clear();
            sites.extend((0..n).filter(|&i| pattern[i] != 0));
            eval.layout(shared, memo, &sites);
        }
        let digit = |p: usize| pattern[sites[p]] - 1;
        if count.is_multiple_of(per_slab) {
            eval.run(skels, shared, memo, digit, &mut stats);
        }
        acc += eval.product(digit);
        count += 1;
    }
    (acc, count, stats)
}

/// [`evaluate_subsets_sequential`] across scoped worker threads that
/// share `skels`, the plans and the memo read-only. Workers pull units
/// of [`SLAB_UNIT`] slabs from the shared stream, recording each slab's
/// active sites and each pattern's term digits, and fold each
/// 32-pattern chunk of a unit into its own sum; the chunk sums are
/// reduced in stream order, exactly as [`evaluate_level_parallel`]
/// reduces them. Worker `w` runs on `evals[w]` (created as needed);
/// every worker's buffers are sized for the level on the calling
/// thread, so they live in its heap and carry over to later levels.
pub(crate) fn evaluate_subsets_parallel(
    skels: &SplitSkeletons,
    shared: &SplitShared,
    memo: &SplitMemo,
    n: usize,
    u: usize,
    threads: usize,
    evals: &mut Vec<SubsetEval>,
) -> (Complex64, usize, ContractionStats) {
    let per_slab = 3usize.pow(u.min(MAX_BATCHED) as u32);
    let slabs = (crate::bounds::level_patterns(n, u) / per_slab as u128) as usize;
    let workers = threads.min(slabs.div_ceil(SLAB_UNIT)).max(1);
    while evals.len() < workers {
        evals.push(SubsetEval::new(shared, n));
    }
    let buf_len = evals[0].level_buffer_len(shared, memo, n, u);
    for eval in evals.iter_mut() {
        eval.size_for_level(buf_len, u);
    }
    // The stream plus the next unit's sequence number.
    let stream = Mutex::new((GrayPatternStream::new(n, u), 0usize));
    fan_out(&mut evals[..workers], |eval, chunk_sums| {
        let mut count = 0usize;
        let mut stats = ContractionStats::default();
        // Per slab of the unit its active sites, per pattern its digits
        // as the base-3 number Σ_p (term − 1)·3^p.
        let mut unit_sites = vec![0usize; SLAB_UNIT * u];
        let mut unit_digits = vec![0usize; SLAB_UNIT * per_slab];
        loop {
            let (seq, filled) = {
                let mut guard = stream.lock().unwrap_or_else(PoisonError::into_inner);
                let (s, next_seq) = &mut *guard;
                let mut f = 0;
                while f < unit_digits.len() {
                    let Some(pattern) = s.next_pattern() else {
                        break;
                    };
                    let sites = &mut unit_sites[f / per_slab * u..][..u];
                    if f.is_multiple_of(per_slab) {
                        for (slot, site) in
                            sites.iter_mut().zip((0..n).filter(|&i| pattern[i] != 0))
                        {
                            *slot = site;
                        }
                    }
                    unit_digits[f] = sites.iter().rev().fold(0, |t, &i| 3 * t + pattern[i] - 1);
                    f += 1;
                }
                let seq = *next_seq;
                if f > 0 {
                    *next_seq += 1;
                }
                (seq, f)
            };
            if filled == 0 {
                break;
            }
            // A full unit is `per_slab` chunks.
            let mut chunk_seq = seq * per_slab;
            let mut chunk_acc = Complex64::ZERO;
            for (k, &digits) in unit_digits[..filled].iter().enumerate() {
                let digit = |p: usize| digits / 3usize.pow(p as u32) % 3;
                if k.is_multiple_of(per_slab) {
                    let sites = &unit_sites[k / per_slab * u..][..u];
                    if eval.sites() != sites {
                        eval.layout(shared, memo, sites);
                    }
                    eval.run(skels, shared, memo, digit, &mut stats);
                }
                chunk_acc += eval.product(digit);
                if k % PATTERN_CHUNK == PATTERN_CHUNK - 1 || k + 1 == filled {
                    chunk_sums.push((chunk_seq, chunk_acc));
                    chunk_seq += 1;
                    chunk_acc = Complex64::ZERO;
                }
            }
            count += filled;
        }
        (count, stats)
    })
}

/// The l-level approximation of `⟨v| E_N(|ψ⟩⟨ψ|) |v⟩`
/// (paper, Algorithm 1).
///
/// `level ≥ N` reproduces the exact value (all `4^N` patterns).
///
/// # Panics
///
/// Panics if state sizes mismatch the circuit, or the configured
/// [`ApproxOptions::max_terms`] guard would be exceeded.
pub fn approximate_expectation(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    opts: &ApproxOptions,
) -> ApproxResult {
    try_approximate_expectation(noisy, psi, v, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking variant of [`approximate_expectation`].
///
/// # Errors
///
/// [`QnsError::SizeMismatch`] if a state's qubit count disagrees with
/// the circuit, [`QnsError::TermBudgetExceeded`] if the run would
/// exceed [`ApproxOptions::max_terms`].
pub fn try_approximate_expectation(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    opts: &ApproxOptions,
) -> Result<ApproxResult, QnsError> {
    // Built on the level-streaming evaluator so that a direct run and a
    // streamed [`crate::refine::LevelEvaluator`] run are the *same*
    // code path — their per-level contributions (and therefore the
    // final sum) are bitwise identical by construction, not by test.
    let mut eval = crate::refine::LevelEvaluator::new(noisy, psi, v, opts)?;
    let level = opts.level.min(eval.site_count());
    for _ in 0..=level {
        eval.advance()?;
    }
    Ok(eval.into_result())
}

/// The l-level approximation of a general output-density-matrix
/// element `⟨x| E_N(|ψ⟩⟨ψ|) |y⟩` (paper, Section III: "every element
/// of `E_N(ρ₀)` can be independently estimated").
///
/// It runs the expectation's [`crate::refine::LevelEvaluator`] with the
/// two split networks capped by different product states, which the
/// superoperator form supports directly — so threads and the level ≥ 2
/// memo apply, and with `x == y` the real part has the same bits as
/// [`approximate_expectation`]'s `value`.
///
/// # Panics
///
/// Panics under the same conditions as [`approximate_expectation`].
pub fn approximate_matrix_element(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    opts: &ApproxOptions,
) -> Complex64 {
    try_approximate_matrix_element(noisy, psi, x, y, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking variant of [`approximate_matrix_element`].
///
/// # Errors
///
/// As [`try_approximate_expectation`].
pub fn try_approximate_matrix_element(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    x: &ProductState,
    y: &ProductState,
    opts: &ApproxOptions,
) -> Result<Complex64, QnsError> {
    let circuit = noisy.circuit();
    check_state("input state", psi, circuit)?;
    check_state("bra state", x, circuit)?;
    check_state("ket state", y, circuit)?;
    // The expectation's evaluator with asymmetric caps: the upper
    // (ket-side) network capped with `x`, the lower (conjugate-side)
    // network with `y` — producing the terms of
    // `⟨x|E(ρ)|y⟩ = (⟨x| ⊗ ⟨y*|)·M·(|ψ⟩ ⊗ |ψ*⟩)`.
    let mut eval = crate::refine::LevelEvaluator::with_caps(noisy, psi, x, y, opts)?;
    let level = opts.level.min(eval.site_count());
    let mut total = Complex64::ZERO;
    for _ in 0..=level {
        total += eval.step()?;
    }
    Ok(total)
}

/// Reconstructs the full output density matrix of a noisy circuit by
/// estimating every element with [`approximate_matrix_element`]
/// (paper, Section III). Intended for small `n` — `4^n` element
/// estimates.
///
/// # Panics
///
/// Panics if `n > 6` or under the underlying run's conditions. Use
/// [`try_reconstruct_density`] for a non-panicking variant.
pub fn reconstruct_density(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    opts: &ApproxOptions,
) -> qns_linalg::Matrix {
    try_reconstruct_density(noisy, psi, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking variant of [`reconstruct_density`].
///
/// # Errors
///
/// [`QnsError::TooLarge`] when `n > 6` (the reconstruction estimates
/// `4^n` elements), plus the underlying run's error conditions.
pub fn try_reconstruct_density(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    opts: &ApproxOptions,
) -> Result<qns_linalg::Matrix, QnsError> {
    let n = noisy.n_qubits();
    if n > 6 {
        return Err(QnsError::TooLarge {
            what: "density reconstruction",
            n,
            limit: 6,
        });
    }
    let dim = 1usize << n;
    let mut rho = qns_linalg::Matrix::zeros(dim, dim);
    for r in 0..dim {
        let x = ProductState::basis(n, r);
        // Diagonal element plus upper triangle; fill lower by symmetry.
        for c in r..dim {
            let y = ProductState::basis(n, c);
            let val = try_approximate_matrix_element(noisy, psi, &x, &y, opts)?;
            rho[(r, c)] = val;
            if c != r {
                rho[(c, r)] = val.conj();
            }
        }
    }
    Ok(rho)
}

/// Diagnostics attached to an automatic run.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoReport {
    /// The level chosen by the Theorem-1 planner.
    pub level: usize,
    /// The a-priori error bound at that level.
    pub bound: f64,
    /// The largest per-event noise rate used in the planning.
    pub noise_rate: f64,
    /// The approximation result itself.
    pub result: ApproxResult,
}

/// Plans the cheapest level whose Theorem-1 bound meets
/// `target_error`, then runs [`approximate_expectation`] at that
/// level.
///
/// # Errors
///
/// Returns `Err` with the smallest bound **achievable within the
/// [`ApproxOptions::max_terms`] guard** when no feasible level reaches
/// the target. Levels whose pattern count exceeds the guard do not
/// contribute to the reported bound — it is always attainable by
/// re-running with a looser target.
///
/// # Panics
///
/// Panics on state-size mismatches (as the underlying run does).
pub fn simulate_auto(
    noisy: &NoisyCircuit,
    psi: &ProductState,
    v: &ProductState,
    target_error: f64,
    base: &ApproxOptions,
) -> Result<AutoReport, f64> {
    let n = noisy.noise_count();
    let p = noisy.max_noise_rate();
    let mut best_bound = f64::INFINITY;
    for level in 0..=n {
        let patterns = crate::bounds::planned_patterns(n, level);
        if patterns > base.max_terms {
            break;
        }
        let bound = crate::bounds::error_bound(n, p, level);
        best_bound = best_bound.min(bound);
        if bound <= target_error {
            let opts = ApproxOptions { level, ..*base };
            let result = approximate_expectation(noisy, psi, v, &opts);
            return Ok(AutoReport {
                level,
                bound,
                noise_rate: p,
                result,
            });
        }
    }
    Err(best_bound)
}

/// Rewrites Problem 1 with a non-product reference `|v⟩ = U_ideal|0…0⟩`
/// into product form: appends the ideal circuit's inverse so that
/// `⟨v|E(ρ)|v⟩ = ⟨0…0| (U† ∘ E)(ρ) |0…0⟩` — the construction used for
/// the paper's Table IV, where `|v⟩` is the noiseless output state.
pub fn append_ideal_inverse(noisy: &NoisyCircuit) -> NoisyCircuit {
    let mut extended = noisy.circuit().clone();
    let dag = noisy.circuit().dagger();
    extended.extend(&dag);
    // positions are unchanged: noise stays inside the original prefix.
    let mut rebuilt = NoisyCircuit::new(extended, noisy.events().to_vec());
    for e in noisy.initial_events() {
        rebuilt.push_initial(e.qubit, e.kraus.clone());
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::generators::{ghz, inst_grid, qaoa_ring, QaoaRound};
    use qns_noise::channels;
    use qns_sim::density;
    use qns_sim::statevector;

    fn exact(noisy: &NoisyCircuit, psi: &ProductState, v: &ProductState) -> f64 {
        density::expectation(noisy, &psi.to_statevector(), &v.to_statevector())
    }

    fn opts(level: usize) -> ApproxOptions {
        ApproxOptions {
            level,
            ..Default::default()
        }
    }

    /// Materializes the pattern stream (test-only; production code
    /// streams).
    fn enumerate_patterns(n: usize, u: usize) -> Vec<Vec<usize>> {
        let mut stream = crate::patterns::PatternStream::new(n, u);
        let mut out = Vec::new();
        let mut pat = vec![0usize; n];
        while stream.next_into(&mut pat) {
            out.push(pat.clone());
        }
        out
    }

    #[test]
    fn noiseless_value_is_exact_probability() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(0));
        assert!((res.value - 0.5).abs() < 1e-10);
        assert_eq!(res.terms_evaluated, 1);
    }

    #[test]
    fn full_level_reproduces_exact_value() {
        // The central exactness property: level = N sums all 4^N
        // patterns and must equal dense density-matrix simulation.
        for (name, ch) in [
            ("depolarizing", channels::depolarizing(0.05)),
            ("amplitude_damping", channels::amplitude_damping(0.1)),
            ("thermal", channels::thermal_relaxation(30.0, 40.0, 200.0)),
        ] {
            let noisy = NoisyCircuit::inject_random(ghz(3), &ch, 3, 11);
            let psi = ProductState::all_zeros(3);
            let v = ProductState::basis(3, 0b111);
            let res = approximate_expectation(&noisy, &psi, &v, &opts(3));
            let mm = exact(&noisy, &psi, &v);
            assert!(
                (res.value - mm).abs() < 1e-9,
                "{name}: {} vs {}",
                res.value,
                mm
            );
            assert_eq!(res.terms_evaluated, 64); // 4^3
        }
    }

    #[test]
    fn error_decreases_with_level() {
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(5e-3), 4, 3);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        let mm = exact(&noisy, &psi, &v);
        let mut prev = f64::INFINITY;
        for l in 0..=4 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            let err = (res.value - mm).abs();
            assert!(
                err <= prev * 1.5 + 1e-12,
                "error grew at level {l}: {err} > {prev}"
            );
            prev = err.max(1e-15);
        }
        // level 4 (= N) is exact
        let res = approximate_expectation(&noisy, &psi, &v, &opts(4));
        assert!((res.value - mm).abs() < 1e-9);
    }

    #[test]
    fn level_one_beats_level_zero_on_qaoa() {
        let rounds = [QaoaRound {
            gamma: 0.4,
            beta: 0.3,
        }];
        let c = qaoa_ring(4, &rounds);
        let noisy = NoisyCircuit::inject_random(c, &channels::depolarizing(1e-2), 4, 17);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::all_zeros(4);
        let mm = exact(&noisy, &psi, &v);
        let e0 = (approximate_expectation(&noisy, &psi, &v, &opts(0)).value - mm).abs();
        let e1 = (approximate_expectation(&noisy, &psi, &v, &opts(1)).value - mm).abs();
        assert!(e1 < e0, "level-1 error {e1} not below level-0 error {e0}");
    }

    #[test]
    fn theorem_1_bound_holds_empirically() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(2e-3), 3, 5);
        let p = noisy.max_noise_rate();
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let mm = exact(&noisy, &psi, &v);
        for l in 0..=2 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            let bound = crate::bounds::error_bound(3, p, l);
            assert!(
                (res.value - mm).abs() <= bound + 1e-12,
                "level {l}: error {} exceeds bound {bound}",
                (res.value - mm).abs()
            );
        }
    }

    #[test]
    fn contraction_count_matches_formula() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 4, 2);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);
        for l in 0..=2 {
            let res = approximate_expectation(&noisy, &psi, &v, &opts(l));
            assert_eq!(
                res.contractions as u128,
                crate::bounds::contraction_count(4, l),
                "level {l}"
            );
        }
    }

    #[test]
    fn plan_reuse_amortizes_order_searches() {
        // The acceptance criterion of the plan subsystem: per-run
        // order searches are O(1) — one per split half — while every
        // pattern replays a plan.
        let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-2), 5, 37);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        for threads in [1usize, 4] {
            let o = ApproxOptions {
                level: 2,
                threads,
                ..Default::default()
            };
            let res = approximate_expectation(&noisy, &psi, &v, &o);
            assert!(res.terms_evaluated > 50, "nontrivial pattern count");
            assert_eq!(res.stats.order_searches, 2, "threads={threads}");
            assert_eq!(
                res.stats.plan_reuses,
                2 * res.terms_evaluated,
                "threads={threads}: every pattern replays both half-plans"
            );
        }
    }

    #[test]
    fn per_level_contributions_sum_to_value() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.05), 3, 8);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let sum: f64 = res.per_level.iter().sum();
        assert!((sum - res.value).abs() < 1e-12);
        // T_0 dominates for weak noise.
        assert!(res.per_level[0].abs() > res.per_level[1].abs());
    }

    #[test]
    fn works_on_supremacy_circuit() {
        let c = inst_grid(2, 2, 6, 4);
        let noisy =
            NoisyCircuit::inject_random(c, &channels::thermal_relaxation(30.0, 40.0, 25.0), 3, 6);
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1010);
        let mm = exact(&noisy, &psi, &v);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(1));
        assert!(
            (res.value - mm).abs() < 1e-5,
            "approx {} vs exact {}",
            res.value,
            mm
        );
    }

    #[test]
    fn ideal_inverse_trick_matches_direct_fidelity() {
        // ⟨v|E(ρ)|v⟩ with v = U|0⟩ computed two ways.
        let rounds = [QaoaRound {
            gamma: 0.3,
            beta: 0.2,
        }];
        let c = qaoa_ring(3, &rounds);
        let noisy = NoisyCircuit::inject_random(c.clone(), &channels::depolarizing(5e-3), 2, 9);

        // Direct: dense simulation with the non-product v.
        let ideal = statevector::run(&c, &statevector::zero_state(3));
        let direct = density::expectation(&noisy, &statevector::zero_state(3), &ideal);

        // Trick: append U† and use v = |0…0⟩, exactly (level = N).
        let extended = append_ideal_inverse(&noisy);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::all_zeros(3);
        let res = approximate_expectation(&extended, &psi, &v, &opts(2));
        assert!(
            (res.value - direct).abs() < 1e-9,
            "trick {} vs direct {}",
            res.value,
            direct
        );
    }

    #[test]
    fn matrix_element_matches_density_sim() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::amplitude_damping(0.08), 3, 53);
        let psi = ProductState::all_zeros(3);
        let rho = density::run(&noisy, &psi.to_statevector());
        for threads in [1usize, 2] {
            for (xb, yb) in [(0usize, 0usize), (0, 7), (7, 0), (2, 5), (7, 7)] {
                let x = ProductState::basis(3, xb);
                let y = ProductState::basis(3, yb);
                // Full level = exact.
                let val = approximate_matrix_element(
                    &noisy,
                    &psi,
                    &x,
                    &y,
                    &opts(3).with_threads(threads),
                );
                let expect = rho.matrix_element(&x.to_statevector(), &y.to_statevector());
                assert!(
                    val.approx_eq(expect, 1e-9),
                    "threads={threads} ({xb},{yb}): {val} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn matrix_element_diagonal_equals_expectation() {
        // One evaluator behind both: the diagonal element has the
        // expectation's bits, sequentially and in parallel.
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(5e-3), 5, 59);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        for threads in [1usize, 2] {
            for l in 0..=3 {
                let o = opts(l).with_threads(threads);
                let elem = approximate_matrix_element(&noisy, &psi, &v, &v, &o);
                let expect = approximate_expectation(&noisy, &psi, &v, &o).value;
                assert_eq!(
                    elem.re.to_bits(),
                    expect.to_bits(),
                    "threads={threads} level {l}"
                );
                assert!(elem.im.abs() < 1e-10);
            }
        }
    }

    #[test]
    fn reconstructed_density_matches_exact() {
        let noisy = NoisyCircuit::inject_random(
            ghz(3),
            &channels::thermal_relaxation(30.0, 40.0, 150.0),
            2,
            61,
        );
        let psi = ProductState::all_zeros(3);
        let approx_rho = reconstruct_density(&noisy, &psi, &opts(2)); // 2 noises ⇒ exact
        let exact_rho = density::run(&noisy, &psi.to_statevector()).to_matrix();
        assert!(
            approx_rho.approx_eq(&exact_rho, 1e-9),
            "reconstructed density deviates"
        );
        // Physicality of the reconstruction.
        assert!((approx_rho.trace().re - 1.0).abs() < 1e-9);
        assert!(approx_rho.is_hermitian(1e-9));
    }

    #[test]
    fn auto_simulation_meets_target() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 3, 41);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let target = 1e-6;
        let report = simulate_auto(&noisy, &psi, &v, target, &ApproxOptions::default())
            .expect("target is reachable");
        assert!(report.bound <= target);
        let mm = exact(&noisy, &psi, &v);
        assert!(
            (report.result.value - mm).abs() <= target,
            "auto run missed target: {}",
            (report.result.value - mm).abs()
        );
        // The planner picks a nontrivial level for this target.
        assert!(report.level >= 1);
    }

    #[test]
    fn auto_simulation_reports_unreachable_targets() {
        let noisy = NoisyCircuit::inject_random(
            ghz(3),
            &channels::depolarizing(0.2), // strong noise
            8,
            43,
        );
        let tight = ApproxOptions {
            max_terms: 10, // only level 0 fits
            ..Default::default()
        };
        let out = simulate_auto(
            &noisy,
            &ProductState::all_zeros(3),
            &ProductState::basis(3, 0),
            1e-12,
            &tight,
        );
        assert!(out.is_err());
        assert!(out.unwrap_err() > 1e-12);
    }

    #[test]
    fn auto_simulation_reports_only_feasible_bounds() {
        // Regression: the reported "smallest achievable bound" must be
        // attainable within the max_terms budget. With max_terms = 10
        // only level 0 is feasible (level 1 needs 1 + 3·8 = 25
        // patterns), so the error must be the level-0 bound — not the
        // smaller level-1+ bounds the old code folded in before
        // noticing they were over budget.
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(0.05), 8, 43);
        let n = noisy.noise_count();
        let p = noisy.max_noise_rate();
        let tight = ApproxOptions {
            max_terms: 10,
            ..Default::default()
        };
        let reported = simulate_auto(
            &noisy,
            &ProductState::all_zeros(3),
            &ProductState::basis(3, 0),
            1e-12,
            &tight,
        )
        .unwrap_err();
        let feasible = crate::bounds::error_bound(n, p, 0);
        let infeasible = crate::bounds::error_bound(n, p, 1);
        assert!(infeasible < feasible, "level 1 must look tempting");
        assert_eq!(
            reported, feasible,
            "reported bound must be the best *feasible* one"
        );
    }

    #[test]
    fn coherent_noise_handled_by_approximation() {
        // Unitary (coherent) noise channels also decompose and
        // approximate; full level is exact.
        let noisy =
            NoisyCircuit::inject_random(ghz(3), &channels::coherent_overrotation('x', 0.05), 2, 47);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        let res = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let mm = exact(&noisy, &psi, &v);
        assert!((res.value - mm).abs() < 1e-9, "{} vs {mm}", res.value);
        // And level-0 is already excellent: a unitary superoperator is
        // exactly rank-1 under the tensor permutation.
        let l0 = approximate_expectation(&noisy, &psi, &v, &opts(0));
        assert!((l0.value - mm).abs() < 1e-9, "level-0 {} vs {mm}", l0.value);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            5,
            29,
        );
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        for level in 0..=2 {
            let seq = approximate_expectation(&noisy, &psi, &v, &opts(level));
            let par = approximate_expectation(
                &noisy,
                &psi,
                &v,
                &ApproxOptions {
                    level,
                    threads: 4,
                    ..Default::default()
                },
            );
            assert!(
                (seq.value - par.value).abs() < 1e-12,
                "level {level}: seq {} vs par {}",
                seq.value,
                par.value
            );
            assert_eq!(seq.terms_evaluated, par.terms_evaluated);
        }
    }

    #[test]
    fn parallel_evaluation_streams_multiple_chunks() {
        // 7 sites at level 2 put C(7,2)·9 = 189 patterns in the top
        // level — more than PATTERN_CHUNK × threads, so workers must go
        // back to the shared stream for further chunks and still
        // reproduce the sequential sum and term count exactly.
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            7,
            31,
        );
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        assert!(
            crate::bounds::level_patterns(7, 2) as usize > PATTERN_CHUNK * 4,
            "test must exercise multiple chunks in flight"
        );
        let seq = approximate_expectation(&noisy, &psi, &v, &opts(2));
        let par = approximate_expectation(
            &noisy,
            &psi,
            &v,
            &ApproxOptions {
                level: 2,
                threads: 4,
                ..Default::default()
            },
        );
        assert!(
            (seq.value - par.value).abs() < 1e-12,
            "seq {} vs par {}",
            seq.value,
            par.value
        );
        assert_eq!(seq.terms_evaluated, par.terms_evaluated);
        assert_eq!(par.terms_evaluated, 1 + 21 + 189);
        assert_eq!(par.stats.plan_reuses, 2 * par.terms_evaluated);

        // Run-to-run determinism: chunk assignment depends on OS
        // scheduling, but the sequence-ordered reduction must make the
        // float sum bit-identical across repeats.
        for _ in 0..3 {
            let again = approximate_expectation(
                &noisy,
                &psi,
                &v,
                &ApproxOptions {
                    level: 2,
                    threads: 4,
                    ..Default::default()
                },
            );
            assert_eq!(
                again.value.to_bits(),
                par.value.to_bits(),
                "parallel sum must be bit-stable across runs"
            );
        }
    }

    #[test]
    fn batched_levels_match_delta_replay_with_fewer_steps() {
        let noisy = NoisyCircuit::inject_random(
            inst_grid(2, 3, 8, 5),
            &channels::thermal_relaxation(30.0, 40.0, 80.0),
            8,
            71,
        );
        let psi = ProductState::all_zeros(6);
        let v = ProductState::basis(6, 0b101101);
        let sites = collect_sites(&noisy);
        let n = sites.len();
        let (mut skels, shared) =
            build_split(noisy.circuit(), &psi, &v, &v, &sites, OrderStrategy::Greedy);
        let mut delta = SplitDelta::new(&shared, n);
        let mut build_stats = ContractionStats::default();
        let memo = SplitMemo::build(&mut skels, &shared, &mut delta, &mut build_stats);
        assert_eq!(
            build_stats.plan_reuses, 0,
            "the memo pass replays no pattern"
        );
        assert!(build_stats.contractions > 0);
        let mut eval = SubsetEval::new(&shared, n);
        for u in 2..=3 {
            let (batched, batched_count, batched_stats) =
                evaluate_subsets_sequential(&skels, &shared, &memo, n, u, &mut eval);
            assert_eq!(eval.allocation_events(), 0, "level {u}: batch buffers grew");
            // The delta path last, since it moves the skeleton payloads.
            let mut plain_skels = skels.clone();
            let (plain, plain_count, plain_stats) =
                evaluate_level_sequential(&mut plain_skels, &shared, n, u, &mut delta);
            assert_eq!(batched, plain, "level {u}");
            assert_eq!(batched_count, plain_count);
            assert_eq!(batched_stats.plan_reuses, plain_stats.plan_reuses);
            assert!(
                batched_stats.contractions * 10 < plain_stats.contractions,
                "level {u}: batched {} vs delta {} step runs",
                batched_stats.contractions,
                plain_stats.contractions
            );
        }
    }

    #[test]
    fn batched_parallel_levels_match_sequential_bits_of_the_chunked_shape() {
        // C(7,3) = 35 subsets: one full unit and a partial one.
        let noisy = NoisyCircuit::inject_random(
            ghz(4),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            7,
            31,
        );
        let psi = ProductState::all_zeros(4);
        let v = ProductState::basis(4, 0b1111);
        let opts = |threads| opts(3).with_threads(threads);
        let two = approximate_expectation(&noisy, &psi, &v, &opts(2));
        for threads in [3, 4] {
            let more = approximate_expectation(&noisy, &psi, &v, &opts(threads));
            assert_eq!(
                more.value.to_bits(),
                two.value.to_bits(),
                "threads={threads}"
            );
            assert_eq!(more.stats.plan_reuses, 2 * more.terms_evaluated);
        }
        let one = approximate_expectation(&noisy, &psi, &v, &opts(1));
        assert!((one.value - two.value).abs() < 1e-12);
    }

    #[test]
    fn pattern_enumeration_counts() {
        assert_eq!(enumerate_patterns(5, 0).len(), 1);
        assert_eq!(enumerate_patterns(5, 1).len(), 15); // C(5,1)·3
        assert_eq!(enumerate_patterns(5, 2).len(), 90); // C(5,2)·9

        // Every pattern has exactly u nonzero entries with values 1..=3.
        for pat in enumerate_patterns(4, 2) {
            assert_eq!(pat.iter().filter(|&&x| x > 0).count(), 2);
            assert!(pat.iter().all(|&x| x <= 3));
        }

        // The stream agrees with the closed-form count — now served by
        // `bounds` (the former private duplicate of this formula here
        // disagreed with `bounds` on overflow behavior) — and never
        // repeats a pattern.
        let mut pats = enumerate_patterns(6, 3);
        assert_eq!(pats.len() as u128, crate::bounds::level_patterns(6, 3));
        pats.sort();
        pats.dedup();
        assert_eq!(pats.len() as u128, crate::bounds::level_patterns(6, 3));
    }

    /// Level-`l` sum of the double-size network (paper, Fig. 2) with
    /// every noise tensor replaced by the Kronecker pair `(U_i, V_i)` of
    /// its pattern term: the unfactorized form of the split sum.
    fn double_network_sum(
        noisy: &NoisyCircuit,
        psi: &ProductState,
        v: &ProductState,
        l: usize,
    ) -> f64 {
        let sites = collect_sites(noisy);
        let (n_regular, n_initial) = (noisy.events().len(), noisy.initial_events().len());
        // `collect_sites` puts initial events first; `double_network`
        // keys regular events by index and initial events after them.
        let key = |s: usize| {
            if s < n_initial {
                n_regular + s
            } else {
                s - n_initial
            }
        };
        let mut total = 0.0;
        for u in 0..=l {
            for pattern in enumerate_patterns(sites.len(), u) {
                let replacements = pattern
                    .iter()
                    .enumerate()
                    .map(|(s, &term)| {
                        let (a, b) = sites[s].svd.term(term);
                        (key(s), (a.clone(), b.clone()))
                    })
                    .collect();
                let net = qns_tnet::builder::double_network(noisy, psi, v, &replacements);
                total += net.contract_all(OrderStrategy::Greedy).0.scalar_value().re;
            }
        }
        total
    }

    #[test]
    fn unsplit_matches_split_evaluation() {
        // The factorization the split evaluator rests on, checked on
        // truncated sums (level < N) against the unsplit double network.
        let noisy = NoisyCircuit::inject_random(
            ghz(3),
            &channels::thermal_relaxation(30.0, 40.0, 100.0),
            3,
            19,
        );
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0b111);
        for l in 0..=2 {
            let split = approximate_expectation(&noisy, &psi, &v, &opts(l)).value;
            let unsplit = double_network_sum(&noisy, &psi, &v, l);
            assert!(
                (split - unsplit).abs() < 1e-10,
                "level {l}: split {split} vs unsplit {unsplit}"
            );
        }
    }

    #[test]
    fn unsplit_matches_split_with_initial_noise() {
        let mut noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-2), 2, 23);
        noisy.push_initial(1, channels::amplitude_damping(0.05));
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);
        for l in 0..=2 {
            let split = approximate_expectation(&noisy, &psi, &v, &opts(l)).value;
            let unsplit = double_network_sum(&noisy, &psi, &v, l);
            assert!(
                (split - unsplit).abs() < 1e-10,
                "level {l}: split {split} vs unsplit {unsplit}"
            );
        }
    }

    #[test]
    fn try_variants_report_structured_errors() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 4, 1);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);

        // Wrong-size state.
        let wrong = ProductState::all_zeros(5);
        let err = try_approximate_expectation(&noisy, &wrong, &v, &opts(1)).unwrap_err();
        assert_eq!(
            err,
            QnsError::SizeMismatch {
                what: "input state",
                expected: 3,
                actual: 5
            }
        );

        // Budget guard.
        let tight = ApproxOptions::default().with_level(3).with_max_terms(2);
        let err = try_approximate_expectation(&noisy, &psi, &v, &tight).unwrap_err();
        assert!(matches!(
            err,
            QnsError::TermBudgetExceeded {
                level: 3,
                max_terms: 2,
                ..
            }
        ));

        // Matrix elements share the same validation.
        let err = try_approximate_matrix_element(&noisy, &psi, &wrong, &v, &opts(1)).unwrap_err();
        assert!(matches!(
            err,
            QnsError::SizeMismatch {
                what: "bra state",
                ..
            }
        ));

        // Reconstruction refuses large systems without panicking.
        let big = NoisyCircuit::noiseless(ghz(7));
        let err = try_reconstruct_density(&big, &ProductState::all_zeros(7), &opts(0)).unwrap_err();
        assert!(matches!(err, QnsError::TooLarge { n: 7, limit: 6, .. }));

        // And the happy path still matches the panicking wrapper.
        let a = try_approximate_expectation(&noisy, &psi, &v, &opts(1)).unwrap();
        let b = approximate_expectation(&noisy, &psi, &v, &opts(1));
        assert_eq!(a, b);
    }

    #[test]
    fn options_builder_setters_compose() {
        let o = ApproxOptions::default()
            .with_level(3)
            .with_strategy(OrderStrategy::Sequential)
            .with_max_terms(99)
            .with_threads(4);
        assert_eq!(o.level, 3);
        assert_eq!(o.strategy, OrderStrategy::Sequential);
        assert_eq!(o.max_terms, 99);
        assert_eq!(o.threads, 4);
    }

    #[test]
    #[should_panic(expected = "max_terms")]
    fn guard_trips_on_huge_level() {
        let noisy = NoisyCircuit::inject_random(ghz(3), &channels::depolarizing(1e-3), 30, 1);
        let psi = ProductState::all_zeros(3);
        let v = ProductState::basis(3, 0);
        let tight = ApproxOptions {
            level: 10,
            max_terms: 100,
            ..Default::default()
        };
        let _ = approximate_expectation(&noisy, &psi, &v, &tight);
    }
}

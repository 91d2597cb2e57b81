//! Compiled, zero-allocation plan execution.
//!
//! A [`crate::plan::ContractionPlan`] records *what* to contract; an
//! [`ExecutablePlan`] records *how*, down to the last byte: at compile
//! time (shapes are fixed per skeleton) every pair contraction is
//! lowered to an exec step carrying
//!
//! * row/column **offset tables for both operands**, read by one fused
//!   kernel ([`qns_linalg::kernels::matmul_gather_into`]) as
//!   `a[row[i] + col[k]]` and `b[row[k] + col[j]]`. A contraction
//!   permutation always splits an operand's axes into a free group and
//!   a contracted group, so the permuted flat index factorizes and no
//!   permuted copy of either operand is ever materialized; when an
//!   operand's column axes already trail in order its column table is
//!   dropped and the kernel walks that operand's rows as contiguous
//!   slices,
//! * its `flops_proxy` (`m·k·n`), so stats accounting per executed
//!   step is one addition,
//! * an exact slot-buffer layout inside a shared arena: every tree
//!   node (intermediate) owns a **persistent, non-overlapping region**
//!   for the plan's lifetime, assigned bump-style in step order — so
//!   cached intermediates survive across executions (delta replay
//!   reuses them), and every operand region lies *below* the
//!   destination region of the step reading it.
//!
//! Execution then threads a [`Workspace`] — one per worker thread,
//! sized once from the plan — through the whole pattern sum: after the
//! first execution has grown the workspace buffers, replaying the plan
//! performs **zero heap allocations per pattern**. The
//! [`Workspace::allocation_events`] counter makes that invariant
//! observable (and is asserted in CI by `contract_bench --smoke`).
//!
//! # Delta execution
//!
//! Because every arena slot is persistent and every tree node is a
//! deterministic function of its children, a replay whose payloads
//! differ from the previous one in only a few leaves need not rerun the
//! whole tree: [`ExecutablePlan::execute_network_delta_into`] recomputes
//! exactly the union of the dirty leaves' leaf-to-root paths (plus the
//! final output gather) and leaves every other cached intermediate
//! untouched — **bit-identical to a full replay by construction**, at
//! `O(dirty leaves × tree depth)` steps instead of `O(network)`. The
//! workspace tracks which plan's intermediates it holds
//! ([`Workspace::is_warm_for`]); a delta request against a cold or
//! foreign workspace silently falls back to a full replay, which is
//! what makes per-worker chunked pattern streams correct without any
//! coordination.
//!
//! # Batched steps
//!
//! [`ExecutablePlan::execute_step_batch`] runs one step over batches of
//! operand values for callers that keep intermediates of their own. A
//! free batch leg on an operand is never contracted, so it only adds
//! rows and columns: the batched kernel
//! ([`qns_linalg::kernels::matmul_gather_batch_into`]) computes every
//! output entry exactly as an ordinary replay of its pair of operand
//! values would. The pattern sum uses it to evaluate all term
//! combinations of one noise subset at once (see `qns_core::approx`).
//!
//! Results are bit-identical to the allocating reference path
//! ([`crate::plan::ContractionPlan::execute_reference`]): the fused
//! kernel keeps the reference accumulation order (`k` ascending per
//! output element, zero lhs entries skipped), and reading an operand
//! through offset tables moves the same values a permuted copy would.

use crate::network::{ContractionStats, TensorNetwork};
use crate::plan::ContractionPlan;
use qns_linalg::kernels::{matmul_gather_batch_into, matmul_gather_into, Gathered, Strided};
use qns_linalg::Complex64;
use qns_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic id source distinguishing lowered plans, so a [`Workspace`]
/// can tell whose intermediates its arena currently caches. Clones of
/// an [`ExecutablePlan`] share the id — their layouts are identical, so
/// their cached intermediates are interchangeable.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// Where a slot's buffer lives during execution.
#[derive(Clone, Copy, Debug)]
enum SlotLoc {
    /// The `i`-th input tensor, borrowed from the caller.
    Input(usize),
    /// The output of step `step`: a region of the workspace arena,
    /// unless the caller supplies the operand itself.
    Step {
        step: usize,
        offset: usize,
        len: usize,
    },
}

/// Offset tables reading one operand as a matrix: element `(r, c)` is
/// `src[rows[r] + cols[c]]` (`cols = None`: `src[rows[r] + c]`).
#[derive(Clone, Debug)]
struct Tables {
    rows: Vec<usize>,
    cols: Option<Vec<usize>>,
}

impl Tables {
    fn over<'a>(&'a self, data: &'a [Complex64]) -> Gathered<'a> {
        Gathered {
            data,
            rows: &self.rows,
            cols: self.cols.as_deref(),
        }
    }
}

/// One operand of [`ExecutablePlan::execute_step_batch`]: `count`
/// values of a step's child, value `i` being the child's element count
/// of entries from `data[i * stride]` on.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    /// The buffer holding every value.
    pub data: &'a [Complex64],
    /// Elements from one value's start to the next.
    pub stride: usize,
    /// Number of values.
    pub count: usize,
}

impl<'a> Batch<'a> {
    /// A batch of one value.
    pub fn single(data: &'a [Complex64]) -> Self {
        Batch {
            data,
            stride: 0,
            count: 1,
        }
    }
}

/// One lowered pair contraction: `dst (m×n) = lhs (m×k) · rhs (k×n)`
/// with `m = lhs.rows.len()` and `k = rhs.rows.len()`.
#[derive(Clone, Debug)]
struct ExecStep {
    lhs: SlotLoc,
    rhs: SlotLoc,
    /// Arena offset of the `m × n` result.
    dst_offset: usize,
    n: usize,
    lhs_tables: Tables,
    rhs_tables: Tables,
    /// `m · k · n`, precomputed for stats accounting.
    flops: u128,
}

impl ExecStep {
    fn dst_len(&self) -> usize {
        self.lhs_tables.rows.len() * self.n
    }
}

/// A [`ContractionPlan`] lowered to executable kernels; created by
/// [`ContractionPlan::compile`]. Immutable and shareable across worker
/// threads — all mutable state lives in the per-thread [`Workspace`].
#[derive(Clone, Debug)]
pub struct ExecutablePlan {
    /// Identity for workspace warm-tracking (shared by clones).
    id: u64,
    n_inputs: usize,
    input_lens: Vec<usize>,
    steps: Vec<ExecStep>,
    /// Per input slot: the step indices on its leaf-to-root path, in
    /// ascending (execution) order — precomputed so delta replay is a
    /// merge of sorted lists, no tree walk.
    leaf_paths: Vec<Vec<u32>>,
    /// Location of the final tensor before the output permutation.
    result: SlotLoc,
    result_len: usize,
    /// Shape of the executed result (after the output permutation).
    output_shape: Vec<usize>,
    /// `out[i] = result[out_gather[i]]`; `None` = already in order.
    out_gather: Option<Vec<usize>>,
    arena_len: usize,
    replay_stats: ContractionStats,
}

/// Per-thread scratch memory for [`ExecutablePlan`] execution: the
/// intermediate-slot arena (the contraction tree's node cache) and the
/// output buffer. Grown on first use (or by [`Workspace::for_plan`])
/// and reused verbatim afterwards; buffers are never shrunk, so one
/// workspace can serve several plans (e.g. the two split halves of the
/// pattern sum) at the maximum of their footprints — though only the
/// most recently executed plan's intermediates stay cached for delta
/// replay.
#[derive(Debug, Default)]
pub struct Workspace {
    arena: Vec<Complex64>,
    out: Vec<Complex64>,
    allocation_events: u64,
    /// Id of the plan whose intermediates the arena currently holds
    /// (set by any full execution; delta replay requires a match).
    warm_for: Option<u64>,
    /// Reused buffer for the merged dirty-step set of a delta replay.
    dirty_steps: Vec<u32>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first execution.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace pre-sized for `plan` (the first execution then
    /// performs no allocations at all).
    pub fn for_plan(plan: &ExecutablePlan) -> Self {
        let mut ws = Workspace::new();
        ws.ensure(plan);
        ws
    }

    /// Number of buffer-growth events since construction. Steady-state
    /// replay allocates nothing: after the first execution of the
    /// largest plan this counter stops moving — the zero-allocation
    /// invariant benchmarks and CI assert.
    pub fn allocation_events(&self) -> u64 {
        self.allocation_events
    }

    /// Total elements currently held across all buffers.
    pub fn capacity(&self) -> usize {
        self.arena.len() + self.out.len()
    }

    /// Whether this workspace's arena holds `plan`'s cached
    /// intermediates — i.e. whether a delta execution against `plan`
    /// would take the incremental path rather than fall back to a full
    /// replay. Set by any full execution of `plan`; cleared by
    /// executing a different plan through the same workspace.
    pub fn is_warm_for(&self, plan: &ExecutablePlan) -> bool {
        self.warm_for == Some(plan.id)
    }

    /// Grows any undersized buffer to `plan`'s footprint.
    fn ensure(&mut self, plan: &ExecutablePlan) {
        for (buf, need) in [
            (&mut self.arena, plan.arena_len),
            (&mut self.out, plan.result_len.max(1)),
        ] {
            if buf.len() < need {
                buf.resize(need, Complex64::ZERO);
                self.allocation_events += 1;
            }
        }
    }
}

/// Row-major strides of a shape.
fn strides_of(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Flat source offsets of every row-major index combination over
/// `axes` of a tensor with the given `strides` — one half of a
/// factorized permutation.
fn offset_table(shape: &[usize], strides: &[usize], axes: &[usize]) -> Vec<usize> {
    let dims: Vec<usize> = axes.iter().map(|&a| shape[a]).collect();
    let total: usize = dims.iter().product();
    let mut table = Vec::with_capacity(total);
    let mut coords = vec![0usize; axes.len()];
    for _ in 0..total {
        table.push(coords.iter().zip(axes).map(|(&c, &a)| c * strides[a]).sum());
        for t in (0..axes.len()).rev() {
            coords[t] += 1;
            if coords[t] < dims[t] {
                break;
            }
            coords[t] = 0;
        }
    }
    table
}

/// The row/column tables reading a tensor of `shape` with `row_axes`
/// as rows and `col_axes` as columns; the column table is elided when
/// the column axes trail in order (it would read `0, 1, 2, …`).
fn tables(shape: &[usize], row_axes: &[usize], col_axes: &[usize]) -> Tables {
    let strides = strides_of(shape);
    let first_col = shape.len() - col_axes.len();
    let trailing = col_axes
        .iter()
        .enumerate()
        .all(|(i, &a)| a == first_col + i);
    Tables {
        rows: offset_table(shape, &strides, row_axes),
        cols: (!trailing).then(|| offset_table(shape, &strides, col_axes)),
    }
}

impl ExecutablePlan {
    /// Lowers `plan` — see [`ContractionPlan::compile`].
    pub(crate) fn lower(plan: &ContractionPlan) -> ExecutablePlan {
        let n_inputs = plan.n_inputs();
        let input_shapes = plan.input_shapes();
        let mut slot_locs: Vec<SlotLoc> = (0..n_inputs).map(SlotLoc::Input).collect();
        let mut slot_shapes: Vec<Vec<usize>> = input_shapes.to_vec();
        // Persistent bump layout: every tree node owns its region for
        // the plan's lifetime (no recycling), so cached intermediates
        // survive across executions — the invariant delta replay needs.
        let mut arena_len = 0usize;
        let mut steps = Vec::with_capacity(plan.steps().len());

        for (index, step) in plan.steps().iter().enumerate() {
            let sa = &slot_shapes[step.lhs];
            let sb = &slot_shapes[step.rhs];
            let free_a: Vec<usize> = (0..sa.len())
                .filter(|i| !step.axes_lhs.contains(i))
                .collect();
            let free_b: Vec<usize> = (0..sb.len())
                .filter(|i| !step.axes_rhs.contains(i))
                .collect();
            // Free axes → rows of the lhs / columns of the rhs,
            // contracted axes → the shared `k` dimension.
            let lhs_tables = tables(sa, &free_a, &step.axes_lhs);
            let rhs_tables = tables(sb, &step.axes_rhs, &free_b);
            let m = lhs_tables.rows.len();
            let k = rhs_tables.rows.len();
            let n: usize = free_b.iter().map(|&i| sb[i]).product();
            let mut shape: Vec<usize> = free_a.iter().map(|&i| sa[i]).collect();
            shape.extend(free_b.iter().map(|&i| sb[i]));

            let dst_len = m * n;
            let dst_offset = arena_len;
            arena_len += dst_len;
            steps.push(ExecStep {
                lhs: slot_locs[step.lhs],
                rhs: slot_locs[step.rhs],
                dst_offset,
                n,
                lhs_tables,
                rhs_tables,
                flops: (m as u128)
                    .saturating_mul(k.max(1) as u128)
                    .saturating_mul(n as u128),
            });
            slot_locs.push(SlotLoc::Step {
                step: index,
                offset: dst_offset,
                len: dst_len,
            });
            slot_shapes.push(shape);
        }

        let (result, result_shape) = match slot_locs.last() {
            Some(&loc) if n_inputs > 0 => (loc, slot_shapes.last().expect("slot shape").clone()),
            // Empty plan: the scalar 1 is synthesized at run time.
            _ => (
                SlotLoc::Step {
                    step: 0,
                    offset: 0,
                    len: 0,
                },
                Vec::new(),
            ),
        };
        let result_len: usize = result_shape.iter().product();

        let (output_shape, out_gather) = match plan.output_perm() {
            Some(perm) => {
                let out_shape: Vec<usize> = perm.iter().map(|&p| result_shape[p]).collect();
                // Row-major walk over the output axes, offsets through
                // the un-permuted result's strides — the same
                // factorized-permutation table as the operand gathers.
                let table = offset_table(&result_shape, &strides_of(&result_shape), perm);
                (out_shape, Some(table))
            }
            None => (result_shape, None),
        };

        let mut replay_stats = plan.replay_stats();
        replay_stats.plan_reuses = 1;
        let leaf_paths = (0..n_inputs)
            .map(|l| plan.leaf_path(l).into_iter().map(|s| s as u32).collect())
            .collect();
        ExecutablePlan {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            n_inputs,
            input_lens: input_shapes.iter().map(|s| s.iter().product()).collect(),
            steps,
            leaf_paths,
            result,
            result_len,
            output_shape,
            out_gather,
            arena_len,
            replay_stats,
        }
    }

    /// Number of input tensors the plan expects.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of pair-contraction steps (tree nodes); step
    /// `step_count() - 1` is the root.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The steps on input slot `leaf`'s leaf-to-root path, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= n_inputs()`.
    pub fn leaf_path(&self, leaf: usize) -> &[u32] {
        &self.leaf_paths[leaf]
    }

    /// Element count of step `step`'s output (the tree node's tensor).
    ///
    /// # Panics
    ///
    /// Panics if `step >= step_count()`.
    pub fn step_output_len(&self, step: usize) -> usize {
        self.steps[step].dst_len()
    }

    /// Step `step`'s output as cached in `ws` by the last execution of
    /// this plan that ran the step (row-major, before any output
    /// permutation) — how callers capture intermediates for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `step >= step_count()` or `ws` was never sized for
    /// this plan.
    pub fn step_output<'w>(&self, step: usize, ws: &'w Workspace) -> &'w [Complex64] {
        let s = &self.steps[step];
        &ws.arena[s.dst_offset..s.dst_offset + s.dst_len()]
    }

    /// The two slots step `step` contracts, `[lhs, rhs]`. Slots below
    /// [`n_inputs`](ExecutablePlan::n_inputs) are input tensors; slot
    /// `n_inputs() + s` is the output of step `s`.
    ///
    /// # Panics
    ///
    /// Panics if `step >= step_count()`.
    pub fn step_children(&self, step: usize) -> [usize; 2] {
        let s = &self.steps[step];
        [s.lhs, s.rhs].map(|loc| match loc {
            SlotLoc::Input(i) => i,
            SlotLoc::Step { step, .. } => self.n_inputs + step,
        })
    }

    /// Runs step `step` once for every pair of operand values: output
    /// value `i · rhs.count + j` (each [`step_output_len`] elements,
    /// packed in `dst`) contracts lhs value `i` with rhs value `j`.
    /// Returns the stats of the batch: one contraction, whose
    /// multiply-adds count every pair, and no plan replay.
    ///
    /// Nothing is compiled per call: every pair reuses the step's
    /// offset tables and fused kernel, so each output value has the
    /// bits an ordinary replay with that pair of operands computes.
    ///
    /// [`step_output_len`]: ExecutablePlan::step_output_len
    ///
    /// # Panics
    ///
    /// Panics if `step >= step_count()`, if an operand value overruns
    /// its buffer, or if `dst` does not hold exactly one output per
    /// pair.
    // qns-lint: zero-alloc
    pub fn execute_step_batch(
        &self,
        step: usize,
        lhs: Batch<'_>,
        rhs: Batch<'_>,
        dst: &mut [Complex64],
    ) -> ContractionStats {
        let s = &self.steps[step];
        for (batch, len) in [(lhs, self.slot_len(s.lhs)), (rhs, self.slot_len(s.rhs))] {
            assert!(
                batch.count == 0 || (batch.count - 1) * batch.stride + len <= batch.data.len(),
                "batched step {step}: operand values overrun their buffer"
            );
        }
        matmul_gather_batch_into(
            s.lhs_tables.over(lhs.data),
            Strided {
                count: lhs.count,
                stride: lhs.stride,
            },
            s.rhs_tables.over(rhs.data),
            Strided {
                count: rhs.count,
                stride: rhs.stride,
            },
            dst,
            s.n,
        );
        ContractionStats {
            contractions: 1,
            max_intermediate: self.replay_stats.max_intermediate,
            flops_proxy: s.flops * (lhs.count * rhs.count) as u128,
            ..Default::default()
        }
    }

    /// Shape of the executed result (axes in ascending open-leg
    /// order, like the planning network's [`TensorNetwork`] output).
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Elements of workspace memory one execution needs (arena +
    /// output).
    pub fn workspace_len(&self) -> usize {
        self.arena_len + self.result_len.max(1)
    }

    /// The statistics of one replay: same counters as the reference
    /// path's per-execution stats (`plan_reuses = 1`,
    /// `order_searches = 0`). Absorb into a run's aggregate per
    /// execution.
    pub fn replay_stats(&self) -> ContractionStats {
        self.replay_stats
    }

    /// Executes against borrowed input tensors (one per original node,
    /// in node order, with the planned shapes), returning the result's
    /// row-major buffer inside `ws`. Zero heap allocations once `ws`
    /// has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the input count or a buffer length disagrees with the
    /// plan.
    pub fn execute_into<'w>(&self, inputs: &[&Tensor], ws: &'w mut Workspace) -> &'w [Complex64] {
        assert_eq!(
            inputs.len(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            inputs.len()
        );
        self.run(|i| inputs[i].as_slice(), ws)
    }

    /// Executes against the tensors currently held by `net` (same node
    /// count and shapes as the planning network) — the
    /// swap-payloads-and-replay entry point of the pattern sum.
    ///
    /// # Panics
    ///
    /// As [`ExecutablePlan::execute_into`].
    pub fn execute_network_into<'w>(
        &self,
        net: &TensorNetwork,
        ws: &'w mut Workspace,
    ) -> &'w [Complex64] {
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        self.run(|i| net.node_tensor(i).as_slice(), ws)
    }

    /// [`ExecutablePlan::execute_network_into`] for fully contracted
    /// (rank-0) plans, returning the scalar directly.
    ///
    /// # Panics
    ///
    /// Panics if the plan's output is not rank 0.
    pub fn execute_network_scalar(&self, net: &TensorNetwork, ws: &mut Workspace) -> Complex64 {
        assert!(
            self.output_shape.is_empty(),
            "execute_network_scalar requires a rank-0 output"
        );
        self.execute_network_into(net, ws)[0]
    }

    /// Delta execution against borrowed input tensors: recomputes only
    /// the contraction-tree paths from the `dirty_leaves` (input-slot
    /// indices whose payloads changed since the previous execution
    /// through `ws`) to the root, reusing every other intermediate
    /// cached in the workspace arena — bit-identical to
    /// [`ExecutablePlan::execute_into`] by construction.
    ///
    /// Falls back to a full replay when `ws` was not warmed by this
    /// plan (first execution, or the workspace last ran a different
    /// plan), so callers never need to track warmth themselves. The
    /// returned [`ContractionStats`] count the pair contractions
    /// actually executed, which is how the saving shows up in
    /// aggregate run statistics.
    ///
    /// # Panics
    ///
    /// Panics if the input count, a buffer length, or a dirty-leaf
    /// index disagrees with the plan. Leaves *not* listed in
    /// `dirty_leaves` must hold the same payloads as the previous
    /// execution through `ws`; this is the caller's contract and is
    /// not checked (checking would cost the full replay the delta
    /// path avoids).
    pub fn execute_delta_into<'w>(
        &self,
        inputs: &[&Tensor],
        dirty_leaves: &[usize],
        ws: &'w mut Workspace,
    ) -> (&'w [Complex64], ContractionStats) {
        assert_eq!(
            inputs.len(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            inputs.len()
        );
        self.run_delta(|i| inputs[i].as_slice(), dirty_leaves, ws)
    }

    /// [`ExecutablePlan::execute_delta_into`] against the tensors
    /// currently held by `net` — `dirty_leaves` are node indices. This
    /// is the pattern sum's incremental entry point: swap only the
    /// payloads that changed, then replay only their tree paths.
    ///
    /// # Panics
    ///
    /// As [`ExecutablePlan::execute_delta_into`].
    pub fn execute_network_delta_into<'w>(
        &self,
        net: &TensorNetwork,
        dirty_leaves: &[usize],
        ws: &'w mut Workspace,
    ) -> (&'w [Complex64], ContractionStats) {
        assert_eq!(
            net.node_count(),
            self.n_inputs,
            "plan expects {} input tensors, got {}",
            self.n_inputs,
            net.node_count()
        );
        self.run_delta(|i| net.node_tensor(i).as_slice(), dirty_leaves, ws)
    }

    /// [`ExecutablePlan::execute_network_delta_into`] for fully
    /// contracted (rank-0) plans, returning the scalar directly.
    ///
    /// # Panics
    ///
    /// Panics if the plan's output is not rank 0, and as
    /// [`ExecutablePlan::execute_delta_into`].
    pub fn execute_network_delta_scalar(
        &self,
        net: &TensorNetwork,
        dirty_leaves: &[usize],
        ws: &mut Workspace,
    ) -> (Complex64, ContractionStats) {
        assert!(
            self.output_shape.is_empty(),
            "execute_network_delta_scalar requires a rank-0 output"
        );
        let (out, stats) = self.execute_network_delta_into(net, dirty_leaves, ws);
        (out[0], stats)
    }

    fn run<'w, 'i>(
        &self,
        input: impl Fn(usize) -> &'i [Complex64],
        ws: &'w mut Workspace,
    ) -> &'w [Complex64] {
        // Profiling hook: a no-op atomic load unless a profiler is
        // installed (the clock read lives in `profile`, off the
        // determinism path this file sits on).
        let timer = crate::profile::start_replay();
        ws.ensure(self);
        if self.n_inputs == 0 {
            ws.out[0] = Complex64::ONE;
            ws.warm_for = Some(self.id);
            crate::profile::record_full(timer, 0);
            return &ws.out[..1];
        }
        for step in &self.steps {
            self.exec_step(step, &input, &mut ws.arena);
        }
        self.finalize(&input, &ws.arena, &mut ws.out);
        // The arena now caches every intermediate of this plan — the
        // workspace is warm for delta replay.
        ws.warm_for = Some(self.id);
        crate::profile::record_full(timer, self.steps.len() as u64);
        &ws.out[..self.result_len]
    }

    /// Incremental replay: reruns only the steps on the dirty leaves'
    /// leaf-to-root paths (plus the final output stage), reusing every
    /// other intermediate cached in the arena. Falls back to a full
    /// [`ExecutablePlan::run`] when `ws` is not warm for this plan.
    /// The returned stats count the steps actually executed.
    // qns-lint: zero-alloc
    fn run_delta<'w, 'i>(
        &self,
        input: impl Fn(usize) -> &'i [Complex64],
        dirty_leaves: &[usize],
        ws: &'w mut Workspace,
    ) -> (&'w [Complex64], ContractionStats) {
        if ws.warm_for != Some(self.id) || self.n_inputs == 0 {
            // The fallback records itself as a full replay inside
            // `run`, so the timer starts after this check.
            let out = self.run(input, ws);
            return (out, self.replay_stats);
        }
        let timer = crate::profile::start_replay();
        // Union of the dirty leaves' (individually sorted) paths, as
        // one ascending step sequence. Reuses the workspace's merge
        // buffer: no allocation once it has grown.
        let mut dirty_steps = std::mem::take(&mut ws.dirty_steps);
        dirty_steps.clear();
        for &leaf in dirty_leaves {
            assert!(leaf < self.n_inputs, "dirty leaf {leaf} out of range");
            if dirty_steps.len() + self.leaf_paths[leaf].len() > dirty_steps.capacity() {
                ws.allocation_events += 1;
            }
            dirty_steps.extend_from_slice(&self.leaf_paths[leaf]);
        }
        dirty_steps.sort_unstable();
        dirty_steps.dedup();
        let mut stats = ContractionStats {
            plan_reuses: 1,
            max_intermediate: self.replay_stats.max_intermediate,
            ..Default::default()
        };
        for &si in &dirty_steps {
            let step = &self.steps[si as usize];
            self.exec_step(step, &input, &mut ws.arena);
            stats.contractions += 1;
            stats.flops_proxy += step.flops;
        }
        self.finalize(&input, &ws.arena, &mut ws.out);
        ws.dirty_steps = dirty_steps;
        crate::profile::record_delta(timer, stats.contractions as u64);
        (&ws.out[..self.result_len], stats)
    }

    /// Runs one lowered step: the fused kernel reads both operands in
    /// place through their offset tables and writes the step's own
    /// arena region. Operand regions lie below the destination (bump
    /// layout in step order), so one split borrows them disjointly.
    // qns-lint: zero-alloc
    fn exec_step<'i>(
        &self,
        step: &ExecStep,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &mut [Complex64],
    ) {
        let (below, from_dst) = arena.split_at_mut(step.dst_offset);
        let dst = &mut from_dst[..step.dst_len()];
        let a = self.slot(step.lhs, input, below);
        let b = self.slot(step.rhs, input, below);
        matmul_gather_into(
            step.lhs_tables.over(a),
            step.rhs_tables.over(b),
            dst,
            step.n,
        );
    }

    /// The buffer behind `loc`: an input tensor or the step's arena
    /// region.
    // qns-lint: zero-alloc
    fn slot<'a, 'i: 'a>(
        &self,
        loc: SlotLoc,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &'a [Complex64],
    ) -> &'a [Complex64] {
        match loc {
            SlotLoc::Input(i) => {
                let s = input(i);
                assert_eq!(s.len(), self.input_lens[i], "input tensor {i} length");
                s
            }
            SlotLoc::Step { offset, len, .. } => &arena[offset..offset + len],
        }
    }

    /// Element count of the value in slot `loc`.
    fn slot_len(&self, loc: SlotLoc) -> usize {
        match loc {
            SlotLoc::Input(i) => self.input_lens[i],
            SlotLoc::Step { len, .. } => len,
        }
    }

    /// Final stage: copy/gather the root slot into the output buffer
    /// (applying the open-leg output permutation when present). Always
    /// rerun — even by delta replay, whose dirty set may be empty.
    // qns-lint: zero-alloc
    fn finalize<'i>(
        &self,
        input: &impl Fn(usize) -> &'i [Complex64],
        arena: &[Complex64],
        out: &mut [Complex64],
    ) {
        let res = self.slot(self.result, input, arena);
        let out = &mut out[..self.result_len];
        match &self.out_gather {
            Some(table) => {
                for (o, &src_idx) in out.iter_mut().zip(table) {
                    *o = res[src_idx];
                }
            }
            None => out.copy_from_slice(res),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::OrderStrategy;
    use qns_linalg::cr;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| qns_linalg::c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// A 4-node chain where payload swaps and delta replays can be
    /// compared against full executions.
    fn chain4(rng: &mut StdRng) -> (TensorNetwork, Vec<Vec<usize>>) {
        let shapes = vec![vec![2, 3], vec![3, 4], vec![4, 3], vec![3, 2]];
        let mut net = TensorNetwork::new();
        let legs: Vec<usize> = (0..5).map(|_| net.fresh_leg()).collect();
        for (i, s) in shapes.iter().enumerate() {
            net.add(rand_tensor(rng, s.clone()), vec![legs[i], legs[i + 1]]);
        }
        (net, shapes)
    }

    #[test]
    fn delta_on_cold_workspace_falls_back_to_full_replay() {
        let mut rng = StdRng::seed_from_u64(21);
        let (net, _) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        assert!(!ws.is_warm_for(&exec));
        // No leaf is dirty, but the cold workspace forces a full run.
        let (out, stats) = exec.execute_network_delta_into(&net, &[], &mut ws);
        assert_eq!(stats.contractions, 3);
        let out = out.to_vec();
        assert!(ws.is_warm_for(&exec));
        let (reference, _) = net
            .plan(OrderStrategy::Greedy)
            .execute_network_reference(&net);
        assert_eq!(out, reference.as_slice());
    }

    #[test]
    fn delta_recomputes_only_dirty_paths_bit_identically() {
        let mut rng = StdRng::seed_from_u64(22);
        let (mut net, shapes) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::for_plan(&exec);
        let _ = exec.execute_network_into(&net, &mut ws);
        let warm = ws.allocation_events();

        for dirty in 0..shapes.len() {
            net.set_tensor(
                net.node_id(dirty),
                rand_tensor(&mut rng, shapes[dirty].clone()),
            );
            let (out, stats) = exec.execute_network_delta_into(&net, &[dirty], &mut ws);
            // A delta replay runs strictly fewer pair contractions than
            // the full chain (3 steps) unless the leaf sits at maximum
            // depth.
            assert!(stats.contractions <= 3, "leaf {dirty}");
            assert!(stats.contractions >= 1, "leaf {dirty}");
            assert_eq!(stats.plan_reuses, 1);
            let out = out.to_vec();
            let (reference, _) = net
                .plan(OrderStrategy::Greedy)
                .execute_network_reference(&net);
            assert_eq!(out, reference.as_slice(), "leaf {dirty}");
        }
        // The first delta may grow the dirty-step merge buffer; after
        // that the delta path allocates nothing.
        let after_first = ws.allocation_events();
        for dirty in 0..shapes.len() {
            net.set_tensor(
                net.node_id(dirty),
                rand_tensor(&mut rng, shapes[dirty].clone()),
            );
            let _ = exec.execute_network_delta_into(&net, &[dirty], &mut ws);
        }
        assert_eq!(ws.allocation_events(), after_first);
        assert!(after_first <= warm + 1);
    }

    #[test]
    fn foreign_plan_cools_the_workspace() {
        let mut rng = StdRng::seed_from_u64(23);
        let (net_a, _) = chain4(&mut rng);
        let (mut net_b, shapes_b) = chain4(&mut rng);
        let exec_a = net_a.plan(OrderStrategy::Greedy).compile();
        let exec_b = net_b.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec_b.execute_network_into(&net_b, &mut ws);
        // Running plan A invalidates B's cached intermediates …
        let _ = exec_a.execute_network_into(&net_a, &mut ws);
        assert!(!ws.is_warm_for(&exec_b));
        // … so B's next delta must fall back to a full replay and
        // still match the reference.
        net_b.set_tensor(net_b.node_id(0), rand_tensor(&mut rng, shapes_b[0].clone()));
        let (out, stats) = exec_b.execute_network_delta_into(&net_b, &[0], &mut ws);
        assert_eq!(stats.contractions, 3, "full-replay fallback");
        let out = out.to_vec();
        let (reference, _) = net_b
            .plan(OrderStrategy::Greedy)
            .execute_network_reference(&net_b);
        assert_eq!(out, reference.as_slice());
    }

    #[test]
    fn clones_share_warmth() {
        let mut rng = StdRng::seed_from_u64(24);
        let (net, _) = chain4(&mut rng);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let clone = exec.clone();
        let mut ws = Workspace::new();
        let _ = exec.execute_network_into(&net, &mut ws);
        // Identical layout ⇒ the clone may reuse the cache.
        assert!(ws.is_warm_for(&clone));
        let (_, stats) = clone.execute_network_delta_into(&net, &[], &mut ws);
        assert_eq!(stats.contractions, 0);
    }

    #[test]
    fn batched_step_matches_replays_of_each_operand_pair() {
        // A ring, so the plan is rank 0 and the root's children split
        // the leaves into two disjoint subtrees.
        let mut rng = StdRng::seed_from_u64(25);
        let shapes = [vec![2, 3], vec![3, 4], vec![4, 3], vec![3, 2]];
        let ring = |rng: &mut StdRng| {
            let mut net = TensorNetwork::new();
            let legs: Vec<usize> = (0..4).map(|_| net.fresh_leg()).collect();
            for (i, s) in shapes.iter().enumerate() {
                net.add(
                    rand_tensor(rng, s.clone()),
                    vec![legs[i], legs[(i + 1) % 4]],
                );
            }
            net
        };
        let variants: Vec<TensorNetwork> = (0..3).map(|_| ring(&mut rng)).collect();
        let exec = variants[0].plan(OrderStrategy::Greedy).compile();
        let root = exec.step_count() - 1;
        let [l, r] = exec.step_children(root);
        // Value of `slot` in `net` after a full replay.
        let value = |net: &TensorNetwork, slot: usize| -> Vec<Complex64> {
            let mut ws = Workspace::new();
            let _ = exec.execute_network_scalar(net, &mut ws);
            if slot < exec.n_inputs() {
                net.node_tensor(slot).as_slice().to_vec()
            } else {
                exec.step_output(slot - exec.n_inputs(), &ws).to_vec()
            }
        };
        let under = |leaf: usize, slot: usize| {
            leaf == slot
                || (slot >= exec.n_inputs()
                    && exec
                        .leaf_path(leaf)
                        .contains(&((slot - exec.n_inputs()) as u32)))
        };
        // Two lhs values padded to a stride of len + 1, three packed
        // rhs values.
        let len_l = value(&variants[0], l).len();
        let mut lhs = Vec::new();
        for net in &variants[..2] {
            lhs.extend(value(net, l));
            lhs.push(Complex64::ZERO);
        }
        let rhs: Vec<Complex64> = variants.iter().flat_map(|net| value(net, r)).collect();
        let mut dst = vec![Complex64::ZERO; 6];
        let stats = exec.execute_step_batch(
            root,
            Batch {
                data: &lhs,
                stride: len_l + 1,
                count: 2,
            },
            Batch {
                data: &rhs,
                stride: rhs.len() / 3,
                count: 3,
            },
            &mut dst,
        );
        assert_eq!(stats.contractions, 1);
        assert_eq!(stats.plan_reuses, 0);
        for i in 0..2 {
            for j in 0..3 {
                // The network whose lhs subtree comes from variant i
                // and everything else from variant j.
                let mut net = variants[j].clone();
                for leaf in 0..exec.n_inputs() {
                    if under(leaf, l) {
                        net.set_tensor(net.node_id(leaf), variants[i].node_tensor(leaf).clone());
                    }
                }
                let mut ws = Workspace::new();
                let expect = exec.execute_network_scalar(&net, &mut ws);
                assert_eq!(dst[i * 3 + j], expect, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn chain_matches_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_tensor(&mut rng, vec![2, 3]);
        let b = rand_tensor(&mut rng, vec![3, 4]);
        let c = rand_tensor(&mut rng, vec![4, 2]);
        let mut net = TensorNetwork::new();
        let (l0, l1, l2, l3) = (
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
            net.fresh_leg(),
        );
        net.add(a, vec![l0, l1]);
        net.add(b, vec![l1, l2]);
        net.add(c, vec![l2, l3]);
        for strategy in [OrderStrategy::Greedy, OrderStrategy::Sequential] {
            let plan = net.plan(strategy);
            let exec = plan.compile();
            let mut ws = Workspace::new();
            let out = exec.execute_network_into(&net, &mut ws);
            let (reference, _) = plan.execute_network_reference(&net);
            assert_eq!(out, reference.as_slice(), "{strategy:?}");
            assert_eq!(exec.output_shape(), reference.shape());
        }
    }

    #[test]
    fn workspace_stops_allocating_after_first_execution() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = TensorNetwork::new();
        let (l0, l1, l2) = (net.fresh_leg(), net.fresh_leg(), net.fresh_leg());
        net.add(rand_tensor(&mut rng, vec![2, 3]), vec![l0, l1]);
        net.add(rand_tensor(&mut rng, vec![3, 2]), vec![l1, l2]);
        net.add(rand_tensor(&mut rng, vec![2, 2]), vec![l2, l0]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec.execute_network_into(&net, &mut ws);
        let warm = ws.allocation_events();
        assert!(warm > 0, "first execution must size the buffers");
        for _ in 0..10 {
            let _ = exec.execute_network_into(&net, &mut ws);
        }
        assert_eq!(ws.allocation_events(), warm, "steady state allocates");
    }

    #[test]
    fn for_plan_presizing_makes_first_run_allocation_free() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = TensorNetwork::new();
        let (l0, l1) = (net.fresh_leg(), net.fresh_leg());
        net.add(rand_tensor(&mut rng, vec![2, 3]), vec![l0, l1]);
        net.add(rand_tensor(&mut rng, vec![3, 2]), vec![l1, l0]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::for_plan(&exec);
        let presize = ws.allocation_events();
        let _ = exec.execute_network_into(&net, &mut ws);
        assert_eq!(ws.allocation_events(), presize);
    }

    #[test]
    fn empty_plan_executes_to_scalar_one() {
        let net = TensorNetwork::new();
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        assert_eq!(exec.execute_network_scalar(&net, &mut ws), Complex64::ONE);
    }

    #[test]
    fn single_node_output_permutation() {
        let mut net = TensorNetwork::new();
        let l_hi = net.fresh_leg();
        let l_lo = net.fresh_leg();
        let t = Tensor::from_vec(vec![cr(1.0), cr(2.0), cr(3.0), cr(4.0)], vec![2, 2]);
        net.add(t.clone(), vec![l_lo, l_hi]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let out = exec.execute_network_into(&net, &mut ws);
        assert_eq!(out, t.permute(&[1, 0]).as_slice());
    }

    #[test]
    #[should_panic(expected = "plan expects 2 input tensors")]
    fn arity_mismatch_panics() {
        let mut net = TensorNetwork::new();
        let l = net.fresh_leg();
        net.add(Tensor::zeros(vec![2]), vec![l]);
        net.add(Tensor::zeros(vec![2]), vec![l]);
        let exec = net.plan(OrderStrategy::Greedy).compile();
        let mut ws = Workspace::new();
        let _ = exec.execute_into(&[&Tensor::zeros(vec![2])], &mut ws);
    }
}

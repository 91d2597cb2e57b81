//! The qns repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <setup-heavy|sum-heavy|serve-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every run derives its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures a closed loop for
//! `--seconds`, checks the answers outside the timed window, prints one
//! line per metric and, last, one JSON result object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` repeats the loop with
//! spans around the calls into each layer, reports the per-layer
//! metrics and writes the spans to `.bench_trace/`. See `METRICS.md`.

mod calibrate;
mod check;
mod jobs;
mod layers;
mod library;
mod report;
mod serving;
mod stats;
mod sweep;
mod trace;

use layers::{LayerCounts, LEVEL_SPANS};
use report::Report;
use serving::{ServeSamples, Stop};
use stats::{Ratio, Samples};
use std::time::Duration;
use trace::{adopt_orphans, SpanTree, Tracer};

/// Set-ups per run; the median is reported.
pub const SETUP_REPEATS: usize = 9;
/// Longest a measured window may run past `--seconds` to collect the
/// samples its tail percentile needs.
const WINDOW_GRACE: Duration = Duration::from_secs(30);

const WORKLOADS: [&str; 3] = ["setup-heavy", "sum-heavy", "serve-sweep"];

/// Run-wide settings from the command line.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `available_parallelism`, used as the estimate thread count and
    /// the service worker count.
    pub threads: usize,
}

impl Ctx {
    /// The measured window: `--seconds`, extended until the p90 has
    /// ten samples beyond it.
    pub fn stop(&self) -> Stop {
        let after = Duration::from_secs_f64(self.seconds);
        Stop {
            after,
            min_samples: stats::min_samples_for_tail(0.9),
            cap: after + WINDOW_GRACE,
        }
    }
}

/// A traced serving pass and the service's counters after it.
pub struct ServeOutcome {
    pub samples: ServeSamples,
    pub stats: qns_serve::ServiceStats,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: qns-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.threads
    );
    let report = match ctx.workload {
        "setup-heavy" => library::run(&jobs::SETUP_HEAVY, &ctx),
        "sum-heavy" => library::run(&jobs::SUM_HEAVY, &ctx),
        _ => sweep::run(&ctx),
    };
    report.print(if ctx.trace {
        report::LAYER
    } else {
        report::E2E
    });
}

/// `(traced median / untraced median − 1) · 100`.
fn overhead_pct(traced: &mut Samples, untraced: &mut Samples) -> f64 {
    match (traced.median(), untraced.median()) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Reports the end-to-end metrics of an untraced window, in
/// `report::E2E` order.
pub fn e2e_metrics(
    report: &mut Report,
    setups: &mut Samples,
    latency_ms: &Samples,
    completed: usize,
    window_s: f64,
    rss_mb: f64,
) {
    let mut latency = latency_ms.clone();
    report.median("setup_s", setups);
    report.median("latency_p50_ms", &mut latency);
    let p90 = latency.tail(0.9);
    if p90.is_none() {
        report.fail(format!(
            "only {} latency samples, too few for p90",
            latency.len()
        ));
    }
    report.value(
        "latency_p90_ms",
        p90.unwrap_or(0.0),
        format!("n={}", latency.len()),
    );
    report.value(
        "throughput_per_s",
        completed as f64 / window_s,
        format!("{completed} requests in {window_s:.3} s"),
    );
    report.value("peak_rss_mb", rss_mb, "VmHWM after the window");
}

/// Finishes a traced run: links each backend span to its request,
/// reports the per-layer metrics (the tracing overhead compares the
/// durations of the spans named `latency_span` with `untraced_ms`) and
/// writes the spans to `.bench_trace/<workload>-seed<n>.jsonl` under the
/// working directory.
#[allow(clippy::too_many_arguments)]
pub fn finish_traced(
    report: &mut Report,
    tracer: &Tracer,
    ctx: &Ctx,
    counts: &LayerCounts,
    speedup: Ratio,
    serve: &ServeOutcome,
    latency_span: &str,
    mut untraced_ms: Samples,
) {
    let mut spans = tracer.snapshot();
    adopt_orphans(&mut spans, "api.backend", "serve.request");
    let tree = SpanTree::new(spans);
    let overhead = overhead_pct(&mut tree.durations(latency_span, 1e6), &mut untraced_ms);
    layer_metrics(report, &tree, counts, speedup, serve, overhead);
    let path = std::path::Path::new(".bench_trace")
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Reports the per-layer metrics, in `report::LAYER` order.
fn layer_metrics(
    report: &mut Report,
    tree: &SpanTree,
    counts: &LayerCounts,
    speedup: Ratio,
    serve: &ServeOutcome,
    overhead: f64,
) {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let estimate_ns = tree.total_ns("core.estimate") as f64;
    report.median("core.setup_ms.p50", &mut tree.durations("core.setup", MS));
    report.ratio(
        "core.setup_share",
        Ratio::new(tree.total_ns("core.setup") as f64, estimate_ns),
    );
    report.ratio(
        "core.sum_share",
        Ratio::new(counts.estimate_sum_ns as f64, estimate_ns),
    );
    report.median("tnet.plan_ms.p50", &mut tree.durations("tnet.plan", MS));
    report.value(
        "tnet.plan_flops",
        counts.plan_flops as f64,
        "full-replay flops_proxy of the chosen plans, both halves, summed over the decomposed jobs",
    );
    report.median(
        "core.noise_svd_us.p50",
        &mut tree.durations("core.noise_svd", US),
    );
    report.median(
        "tnet.skeleton_us.p50",
        &mut tree.durations("tnet.skeleton", US),
    );
    report.median(
        "tnet.compile_us.p50",
        &mut tree.durations("tnet.compile", US),
    );
    let level_names = [
        "core.level0_ms.p50",
        "core.level1_ms.p50",
        "core.level2_ms.p50",
        "core.level3_ms.p50",
    ];
    for (name, span) in level_names.into_iter().zip(LEVEL_SPANS) {
        report.median(name, &mut tree.durations(span, MS));
    }
    report.ratio(
        "core.patterns_per_s",
        Ratio::new(
            counts.estimate_patterns as f64,
            counts.estimate_sum_ns as f64 / 1e9,
        ),
    );
    report.ratio("core.thread_speedup", speedup);
    let replayed = counts.replay_patterns as f64;
    report.ratio(
        "tnet.full_us_per_pattern",
        Ratio::new(counts.full_ns as f64 / US, replayed),
    );
    report.ratio(
        "tnet.delta_us_per_pattern",
        Ratio::new(counts.delta_ns as f64 / US, replayed),
    );
    report.ratio(
        "tnet.delta_steps_per_pattern",
        Ratio::new(counts.delta_steps as f64, replayed),
    );
    report.ratio(
        "tensor.flops_per_pattern",
        Ratio::new(counts.delta_flops as f64, replayed),
    );
    if let Some(m) = report.metrics.last_mut() {
        m.detail
            .push_str(", computed from delta-replay flops_proxy");
    }
    report.count("tnet.steady_allocs", counts.steady_allocs as f64);
    if counts.steady_allocs != 0 {
        report.fail(format!(
            "{} workspace allocations after warm-up",
            counts.steady_allocs
        ));
    }
    if counts.replay_mismatches != 0 {
        report.fail(format!(
            "{} delta replays differ from full replay",
            counts.replay_mismatches
        ));
    }
    report.median(
        "api.fingerprint_us.p50",
        &mut tree.durations("api.fingerprint", US),
    );
    report.median("serve.route_us.p50", &mut tree.durations("serve.route", US));
    report.median(
        "serve.submit_us.p50",
        &mut tree.durations("serve.submit", US),
    );
    report.median("api.backend_ms.p50", &mut tree.durations("api.backend", MS));
    // Executed jobs: the request's self time once the backend span is
    // its child, i.e. queue wait, routing and resolve.
    let mut overheads = Samples::new();
    for (id, span) in tree.spans().iter().enumerate() {
        let executed = tree
            .children(id)
            .iter()
            .any(|&c| tree.spans()[c].name == "api.backend");
        if span.name == "serve.request" && executed {
            overheads.push(tree.self_time_ns(id) as f64 / US);
        }
    }
    report.median("serve.overhead_us.p50", &mut overheads);
    let st = &serve.stats;
    report.ratio(
        "serve.saved_ratio",
        Ratio::new((st.cache_hits + st.dedup_joins) as f64, st.submitted as f64),
    );
    report.count("serve.cache_evictions", st.cache_evictions as f64);
    let partial = st.partial_cache;
    report.ratio(
        "serve.partial_hit_ratio",
        Ratio::new(partial.hits as f64, (partial.hits + partial.misses) as f64),
    );
    report.median(
        "serve.refine_first_ms.p50",
        &mut serve.samples.refine_first_ms.clone(),
    );
    report.median(
        "serve.refine_resume_ms.p50",
        &mut serve.samples.refine_resume_ms.clone(),
    );
    report.value(
        "trace.overhead_pct",
        overhead,
        "traced vs untraced median request latency",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let ctx = parse_args(&args(&[
            "qns-perf",
            "--workload",
            "sum-heavy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(ctx.workload, "sum-heavy");
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.seconds, 10.0);
        assert!(ctx.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = [
            "qns-perf",
            "--workload",
            "sum-heavy",
            "--seed",
            "7",
            "--seconds",
            "10",
        ];
        assert!(parse_args(&args(&base)).is_err(), "--trace missing");
        let mut bad = base.to_vec();
        bad.extend(["--trace", "2"]);
        assert!(parse_args(&args(&bad)).is_err());
        let mut bad = base.to_vec();
        bad[2] = "nope";
        bad.extend(["--trace", "0"]);
        assert!(parse_args(&args(&bad)).is_err());
    }

    #[test]
    fn overhead_compares_medians() {
        let mut t = Samples::new();
        let mut u = Samples::new();
        for v in [1.0, 2.0, 3.0] {
            t.push(v * 1.1);
            u.push(v);
        }
        assert!((overhead_pct(&mut t, &mut u) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&mut Samples::new(), &mut u), 0.0);
    }
}

//! The `serve-sweep` workload: a closed loop from one generator thread
//! keeping a fixed window of requests outstanding against a `Service`
//! built with `ServiceBuilder` defaults except `workers = nproc`.

use crate::calibrate::Calibration;
use crate::check;
use crate::jobs::{Draw, ServePool};
use crate::layers::{self, LayerCounts};
use crate::report::{peak_rss_mb, Report};
use crate::serving::{job_id, run_pass, ServeSamples, ServeTrace, TimingBackend};
use crate::stats::{Ratio, Samples};
use crate::trace::Tracer;
use crate::{Ctx, ServeOutcome, SETUP_REPEATS};
use qns_api::{ApproxBackend, InitialState, Observable};
use qns_serve::{default_engines, JobSpec, Service, ServiceBuilder, SharedBackend};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Outstanding requests per service worker.
const WINDOW_PER_WORKER: usize = 4;
/// Distinct answers checked against the dense density-matrix reference.
const REFERENCE_JOBS: usize = 12;
/// Distinct approx answers compared bit for bit with a direct call.
const BITWISE_JOBS: usize = 48;
/// Distinct pool entries the traced run decomposes through the layers.
const DECOMPOSE_JOBS: usize = 24;
/// Jobs the thread speed-up is measured on.
const SPEEDUP_JOBS: usize = 6;

fn build_service(threads: usize, engines: Vec<SharedBackend>) -> Service {
    ServiceBuilder::new()
        .workers(threads)
        .engines(engines)
        .build()
}

/// Runs one job per smoke-registry circuit that the sweep never draws
/// (the `|+…+⟩` input), so workers, engines and allocator are warm but
/// the result cache holds no pool entry.
fn warm_up(service: &Service, pool: &ServePool) {
    let per_circuit = pool.specs.len() / 3;
    for c in 0..3 {
        let noisy = pool.specs[c * per_circuit].noisy().clone();
        let n = noisy.n_qubits();
        let spec = JobSpec::new(noisy, InitialState::plus(n), Observable::zeros(n))
            .expect("matching qubit counts");
        let _ = service.submit(&spec).and_then(|h| h.wait());
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut calibration = Calibration::default();
    let mut setups = Samples::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // The previous repetition's service shuts down (and joins its
        // workers) before this one is timed.
        drop(built.take());
        calibration.sample();
        let start = Instant::now();
        let pool = ServePool::generate(ctx.seed);
        let service = build_service(ctx.threads, default_engines());
        warm_up(&service, &pool);
        setups.push(start.elapsed().as_secs_f64());
        built = Some((pool, service));
    }
    let (pool, service) = built.expect("at least one set-up");
    let window = ctx.threads * WINDOW_PER_WORKER;
    let untraced = run_pass(
        &service,
        &pool.specs,
        pool.draws(ctx.seed),
        window,
        &ctx.stop(),
        None,
        Some(&mut calibration),
    );
    let rss = peak_rss_mb();
    let refine_opts = *service.refine_options();
    drop(service);
    report.attempted += untraced.attempted();
    if !ctx.trace {
        crate::e2e_metrics(
            &mut report,
            &mut setups,
            &untraced.latency_ms,
            untraced.attempted(),
            untraced.window_s,
            rss,
        );
    }
    check_answers(&mut report, &pool, &untraced, refine_opts);
    if ctx.trace {
        traced(
            &mut report,
            &pool,
            ctx,
            untraced,
            refine_opts,
            &mut calibration,
        );
    }
    report.speed = calibration.speed();
    report.notes.push(format!(
        "reference kernel median {:.6} s",
        calibration.median_s()
    ));
    report
}

/// Every answer finite; a sample against the density reference; a
/// sample of approx answers and of refinement finals bit for bit
/// against direct `ApproxBackend` calls.
fn check_answers(
    report: &mut Report,
    pool: &ServePool,
    samples: &ServeSamples,
    refine_opts: qns_api::ApproxOptions,
) {
    let engine_opts = *ApproxBackend::level(1).options();
    let mut referenced = HashSet::new();
    let mut bitwise = HashSet::new();
    let mut refine_checked = HashSet::new();
    for (draw, result) in &samples.results {
        let what = format!("{draw:?}");
        let est = match result {
            Ok(est) => est,
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                continue;
            }
        };
        if !check::finite(report, &what, est.value) {
            continue;
        }
        let spec = &pool.specs[draw.index()];
        let job = spec.job();
        if referenced.len() < REFERENCE_JOBS
            && !referenced.contains(draw)
            && check::against_density(report, &what, &job, est)
        {
            referenced.insert(*draw);
        }
        match draw {
            Draw::Job(i)
                if est.backend == "approx"
                    && bitwise.len() < BITWISE_JOBS
                    && bitwise.insert(*i) =>
            {
                check::bitwise_approx(report, &what, &job, est, engine_opts);
            }
            Draw::Refine(i) if refine_checked.insert(*i) => {
                let level = est.level.unwrap_or(spec.noisy().noise_count());
                check::bitwise_approx(report, &what, &job, est, refine_opts.with_level(level));
            }
            _ => {}
        }
    }
    report.notes.push(format!(
        "checked {} density references, {} approx and {} refinement answers bit for bit",
        referenced.len(),
        bitwise.len(),
        refine_checked.len()
    ));
}

fn traced(
    report: &mut Report,
    pool: &ServePool,
    ctx: &Ctx,
    untraced: ServeSamples,
    refine_opts: qns_api::ApproxOptions,
    calibration: &mut Calibration,
) {
    let tracer = Arc::new(Tracer::new());
    let service = build_service(ctx.threads, TimingBackend::wrap(default_engines(), &tracer));
    warm_up(&service, pool);
    let engines = default_engines();
    let trace = ServeTrace {
        tracer: &tracer,
        engines: &engines,
    };
    let window = ctx.threads * WINDOW_PER_WORKER;
    let samples = run_pass(
        &service,
        &pool.specs,
        pool.draws(ctx.seed),
        window,
        &ctx.stop(),
        Some(&trace),
        Some(calibration),
    );
    let stats = service.stats();
    drop(service);
    report.attempted += samples.attempted();
    check_answers(report, pool, &samples, refine_opts);

    // The core/tnet layers, on the first distinct jobs the sweep draws,
    // as the approx engine runs them (level 1, one thread).
    let mut seen = HashSet::new();
    let picks: Vec<usize> = pool
        .draws(ctx.seed)
        .filter_map(|d| match d {
            Draw::Job(i) if seen.insert(i) => Some(i),
            _ => None,
        })
        .take(DECOMPOSE_JOBS)
        .collect();
    let mut counts = LayerCounts::default();
    let mut speedup = Ratio::default();
    for (k, &i) in picks.iter().enumerate() {
        let job = pool.specs[i].job();
        let (noisy, psi, v) = (
            job.noisy(),
            job.initial().product(),
            job.observable().product(),
        );
        let id = job_id(&job);
        report.attempted += 1;
        let est = layers::traced_estimate(&tracer, id, None, noisy, psi, v, 1, 1, &mut counts);
        let Ok((_, mut eval)) = est.map_err(|e| report.fail(format!("decomposed job {i}: {e}")))
        else {
            continue;
        };
        if let Err(e) = layers::traced_layers(&tracer, id, &mut eval, noisy, psi, v, &mut counts) {
            report.fail(format!("decomposed job {i}: deeper levels: {e}"));
        }
        if k < SPEEDUP_JOBS {
            if let Err(e) = layers::add_thread_speedup(&mut speedup, noisy, psi, v, ctx.threads) {
                report.fail(format!("thread speed-up run: {e}"));
            }
        }
    }
    let serve = ServeOutcome { samples, stats };
    crate::finish_traced(
        report,
        &tracer,
        ctx,
        &counts,
        speedup,
        &serve,
        "serve.request",
        untraced.latency_ms,
    );
}

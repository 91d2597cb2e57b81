//! The library workloads (`setup-heavy`, `sum-heavy`): one caller in a
//! closed loop running `qns_core::approx::try_approximate_expectation`
//! with `threads = nproc`.

use crate::calibrate::Calibration;
use crate::check;
use crate::jobs::{library_pool, Draw, LibConfig, LibJob, LIB_POOL};
use crate::layers::{self, LayerCounts};
use crate::report::{peak_rss_mb, Report};
use crate::serving::{run_pass, ServeTrace, Stop, TimingBackend};
use crate::stats::{Ratio, Samples};
use crate::trace::Tracer;
use crate::{Ctx, ServeOutcome, SETUP_REPEATS};
use qns_api::{Estimate, ExpectationJob, InitialState, Observable, QnsError};
use qns_core::approx::{try_approximate_expectation, ApproxOptions};
use qns_serve::{default_engines, route_job, JobSpec, Route, ServiceBuilder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs the traced run decomposes (the first ones of the pool, so the
/// counts repeat exactly for a seed).
const TRACED_JOBS: usize = 40;
/// Seed of the warm-up jobs.
const WARM_UP_SEED: u64 = 0;
/// Jobs the thread speed-up is measured on.
const SPEEDUP_JOBS: usize = 6;
/// Jobs the traced run also pushes through a service, twice each.
const SERVE_PASS_JOBS: usize = 6;

fn options(job: &LibJob, threads: usize) -> ApproxOptions {
    ApproxOptions::default()
        .with_level(job.level)
        .with_threads(threads)
}

fn expectation_job(job: &LibJob) -> ExpectationJob<'_> {
    let n = job.noisy.n_qubits();
    ExpectationJob::new(
        &job.noisy,
        InitialState::zeros(n),
        Observable::basis(n, job.bits),
    )
    .expect("generated jobs have matching qubit counts")
}

/// The Theorem-1 bound of `job` at its level.
fn theorem1_bound(job: &LibJob) -> f64 {
    qns_core::bounds::error_bound(
        job.noisy.noise_count(),
        job.noisy.max_noise_rate(),
        job.level,
    )
}

/// What the untimed window measured.
struct Window {
    latency_ms: Samples,
    /// `(pool index, value)` per attempted estimate, in order.
    results: Vec<(usize, Result<f64, QnsError>)>,
    /// `(pool index, latency)` per successful estimate.
    by_job: Vec<(usize, f64)>,
    seconds: f64,
}

fn run_window(
    pool: &[LibJob],
    threads: usize,
    stop: &Stop,
    calibration: &mut Calibration,
) -> Window {
    let mut w = Window {
        latency_ms: Samples::new(),
        results: Vec::new(),
        by_job: Vec::new(),
        seconds: 0.0,
    };
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    for i in 0.. {
        let elapsed = start.elapsed() - paused;
        if (elapsed >= stop.after && w.latency_ms.len() >= stop.min_samples) || elapsed >= stop.cap
        {
            break;
        }
        if calibration.due() {
            paused += calibration.sample();
        }
        let idx = i % pool.len();
        let job = &pool[idx];
        let t = Instant::now();
        let r = try_approximate_expectation(&job.noisy, &job.psi, &job.v, &options(job, threads));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let r = black_box(r).map(|res| res.value);
        if r.is_ok() {
            w.latency_ms.push(ms);
            w.by_job.push((idx, ms));
        }
        w.results.push((idx, r));
    }
    w.seconds = (start.elapsed() - paused).as_secs_f64();
    w
}

pub fn run(cfg: &LibConfig, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut calibration = Calibration::default();
    let mut setups = Samples::new();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        calibration.sample();
        let start = Instant::now();
        pool = library_pool(cfg, ctx.seed, LIB_POOL);
        // Warm-up: one estimate per circuit of the cycle, on jobs that
        // do not depend on the seed, so set-up time does not either.
        for job in &library_pool(cfg, WARM_UP_SEED, cfg.cycle.len()) {
            let _ = black_box(try_approximate_expectation(
                &job.noisy,
                &job.psi,
                &job.v,
                &options(job, ctx.threads),
            ));
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let window = run_window(&pool, ctx.threads, &ctx.stop(), &mut calibration);
    let rss = peak_rss_mb();
    report.attempted += window.results.len();
    if !ctx.trace {
        crate::e2e_metrics(
            &mut report,
            &mut setups,
            &window.latency_ms,
            window.results.len(),
            window.seconds,
            rss,
        );
    }
    check_window(&mut report, cfg, &pool, &window);
    if ctx.trace {
        traced(&mut report, &pool, ctx, &window, &mut calibration);
    }
    report.speed = calibration.speed();
    report.notes.push(format!(
        "reference kernel median {:.6} s",
        calibration.median_s()
    ));
    report
}

fn check_window(report: &mut Report, cfg: &LibConfig, pool: &[LibJob], window: &Window) {
    let mut referenced = Vec::new();
    for (idx, result) in &window.results {
        let job = &pool[*idx];
        let what = format!("job {idx} ({})", job.circuit);
        let value = match result {
            Ok(v) => *v,
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                continue;
            }
        };
        if !check::finite(report, &what, value) {
            continue;
        }
        // A projector expectation is a probability.
        let bound = theorem1_bound(job);
        if !(-bound - check::FLOAT_SLACK..=1.0 + bound + check::FLOAT_SLACK).contains(&value) {
            report.fail(format!("{what}: {value} outside [0, 1] ± {bound:e}"));
        }
        if referenced.len() < cfg.references && !referenced.contains(idx) {
            let estimate = Estimate::bounded(value, bound, job.level, "approx");
            if check::against_density(report, &what, &expectation_job(job), &estimate) {
                referenced.push(*idx);
            }
        }
    }
    report
        .notes
        .push(format!("density references checked: {}", referenced.len()));
}

fn traced(
    report: &mut Report,
    pool: &[LibJob],
    ctx: &Ctx,
    window: &Window,
    calibration: &mut Calibration,
) {
    let tracer = Arc::new(Tracer::new());
    let engines = default_engines();
    let mut counts = LayerCounts::default();
    for (i, job) in pool.iter().take(TRACED_JOBS).enumerate() {
        if calibration.due() {
            calibration.sample();
        }
        let id = i as u64;
        let what = format!("traced job {i} ({})", job.circuit);
        let ej = expectation_job(job);
        let req = tracer.begin("request", id, None);
        tracer.span("api.fingerprint", id, Some(req), |_| {
            black_box(ej.fingerprint())
        });
        tracer.span("serve.route", id, Some(req), |_| {
            black_box(route_job(&engines, &ej, Route::Auto)).ok()
        });
        let est = layers::traced_estimate(
            &tracer,
            id,
            Some(req),
            &job.noisy,
            &job.psi,
            &job.v,
            job.level,
            ctx.threads,
            &mut counts,
        );
        tracer.end(req);
        report.attempted += 1;
        let (value, mut eval) = match est {
            Ok(ok) => ok,
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                continue;
            }
        };
        // The untraced window ran the same job through the one-shot
        // entry point, which is built on the same evaluator.
        if let Some((_, Ok(direct))) = window.results.iter().find(|(idx, _)| *idx == i) {
            if direct.to_bits() != value.to_bits() {
                report.fail(format!("{what}: traced {value} vs one-shot {direct}"));
            }
        }
        if let Err(e) = layers::traced_layers(
            &tracer,
            id,
            &mut eval,
            &job.noisy,
            &job.psi,
            &job.v,
            &mut counts,
        ) {
            report.fail(format!("{what}: deeper levels: {e}"));
        }
    }
    let mut speedup = Ratio::default();
    for job in pool.iter().take(SPEEDUP_JOBS) {
        if let Err(e) =
            layers::add_thread_speedup(&mut speedup, &job.noisy, &job.psi, &job.v, ctx.threads)
        {
            report.fail(format!("thread speed-up run: {e}"));
        }
    }
    let serve = serve_pass(report, pool, ctx, &tracer);
    let mut untraced_ms = Samples::new();
    for &(idx, ms) in &window.by_job {
        if idx < TRACED_JOBS {
            untraced_ms.push(ms);
        }
    }
    crate::finish_traced(
        report,
        &tracer,
        ctx,
        &counts,
        speedup,
        &serve,
        "core.estimate",
        untraced_ms,
    );
}

/// Pushes the first jobs of the pool through a service, twice each
/// (the second round is answered from the cache), then two
/// refinements twice each (the second time from the partial-sum
/// cache), one request at a time.
fn serve_pass(
    report: &mut Report,
    pool: &[LibJob],
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
) -> ServeOutcome {
    let specs: Vec<JobSpec> = pool
        .iter()
        .take(SERVE_PASS_JOBS)
        .map(|job| {
            let n = job.noisy.n_qubits();
            JobSpec::new(
                job.noisy.clone(),
                InitialState::zeros(n),
                Observable::basis(n, job.bits),
            )
            .expect("generated jobs have matching qubit counts")
        })
        .collect();
    let service = ServiceBuilder::new()
        .workers(ctx.threads)
        .engines(TimingBackend::wrap(default_engines(), tracer))
        .build();
    let draws = (0..specs.len())
        .chain(0..specs.len())
        .map(Draw::Job)
        .chain([0, 1, 0, 1].map(Draw::Refine));
    let engines = default_engines();
    let trace = ServeTrace {
        tracer,
        engines: &engines,
    };
    // Run every draw: the sample target is never met, so only the
    // (generous) cap could end the pass early.
    let stop = Stop {
        after: Duration::ZERO,
        min_samples: usize::MAX,
        cap: Duration::from_secs(120),
    };
    let samples = run_pass(&service, &specs, draws, 1, &stop, Some(&trace), None);
    report.attempted += samples.attempted();
    for (draw, result) in &samples.results {
        let what = format!("served {draw:?}");
        match result {
            Ok(est) => {
                check::finite(report, &what, est.value);
            }
            Err(e) => report.fail(format!("{what}: {e}")),
        }
    }
    let stats = service.stats();
    ServeOutcome { samples, stats }
}

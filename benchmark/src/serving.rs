//! The serving loop: one generator thread keeps a fixed window of
//! outstanding requests against a `qns_serve::Service`, and one waiter
//! thread per window slot blocks on each handle, so every latency is
//! taken when its own handle resolves.

use crate::calibrate::Calibration;
use crate::jobs::{refine_request, Draw};
use crate::stats::Samples;
use crate::trace::Tracer;
use qns_api::{Backend, Estimate, ExpectationJob, QnsError};
use qns_serve::{route_job, JobHandle, JobSpec, RefinementHandle, Route, Service, SharedBackend};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The span-recording id of a job: the low 64 bits of its fingerprint.
pub fn job_id(job: &ExpectationJob<'_>) -> u64 {
    job.fingerprint().as_u128() as u64
}

/// Wraps an engine and records an `api.backend` span around every
/// `expectation` call. Name, support, cost hint and tolerance delegate,
/// so routing is unchanged.
pub struct TimingBackend {
    inner: SharedBackend,
    tracer: Arc<Tracer>,
}

impl TimingBackend {
    pub fn wrap(engines: Vec<SharedBackend>, tracer: &Arc<Tracer>) -> Vec<SharedBackend> {
        engines
            .into_iter()
            .map(|inner| {
                Arc::new(TimingBackend {
                    inner,
                    tracer: Arc::clone(tracer),
                }) as SharedBackend
            })
            .collect()
    }
}

impl Backend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn expectation(&self, job: &ExpectationJob<'_>) -> Result<Estimate, QnsError> {
        let id = job_id(job);
        self.tracer
            .span("api.backend", id, None, |_| self.inner.expectation(job))
    }

    fn supports(&self, job: &ExpectationJob<'_>) -> Result<(), QnsError> {
        self.inner.supports(job)
    }

    fn cost_hint(&self, job: &ExpectationJob<'_>) -> Option<u128> {
        self.inner.cost_hint(job)
    }

    fn tolerance(&self) -> f64 {
        self.inner.tolerance()
    }
}

/// What one serving pass measured.
#[derive(Default)]
pub struct ServeSamples {
    /// Submit → handle resolved, plain jobs.
    pub latency_ms: Samples,
    /// `submit_refine` → `wait_first`, refinements.
    pub refine_first_ms: Samples,
    /// The same, for refinements whose first answer came from the
    /// partial-sum cache.
    pub refine_resume_ms: Samples,
    /// Every answer (the final one for refinements), by draw.
    pub results: Vec<(Draw, Result<Estimate, QnsError>)>,
    /// First submit to last resolve, less the calibration runs.
    pub window_s: f64,
}

impl ServeSamples {
    pub fn attempted(&self) -> usize {
        self.results.len()
    }
}

/// When a serving pass stops drawing.
pub struct Stop {
    /// Stop once this long has passed and `min_samples` plain-job
    /// latencies are in…
    pub after: Duration,
    pub min_samples: usize,
    /// …or, at the latest, after this long.
    pub cap: Duration,
}

enum Pending {
    Job(JobHandle),
    Refine(RefinementHandle),
}

struct Work {
    draw: Draw,
    pending: Pending,
    submitted: Instant,
    span: Option<usize>,
}

/// Optional tracing of a pass: the recorder and the engines the
/// generator routes with (the service's own, for `serve.route` spans).
pub struct ServeTrace<'a> {
    pub tracer: &'a Tracer,
    pub engines: &'a [SharedBackend],
}

/// Runs draws against `service` with `window` requests outstanding.
/// Submission errors end the pass; they are returned as results. With a
/// `calibration`, the generator lets the window drain whenever a kernel
/// run is due, runs it while nothing is in flight, and leaves its time
/// out of `window_s`.
pub fn run_pass(
    service: &Service,
    specs: &[JobSpec],
    draws: impl Iterator<Item = Draw>,
    window: usize,
    stop: &Stop,
    trace: Option<&ServeTrace<'_>>,
    mut calibration: Option<&mut Calibration>,
) -> ServeSamples {
    let out = Mutex::new(ServeSamples::default());
    let plain = AtomicUsize::new(0);
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        token_tx
            .send(())
            .expect("token channel is sized to the window");
    }
    let (work_tx, work_rx) = mpsc::channel::<Work>();
    let work_rx = Mutex::new(work_rx);
    let refine_req = refine_request();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    std::thread::scope(|scope| {
        for _ in 0..window {
            let token_tx = token_tx.clone();
            let (work_rx, out, plain) = (&work_rx, &out, &plain);
            scope.spawn(move || loop {
                let next = work_rx.lock().expect("work queue lock poisoned").recv();
                let Ok(work) = next else { break };
                let result = resolve(work, out, trace.map(|t| t.tracer));
                if matches!(result.0, Draw::Job(_)) {
                    plain.fetch_add(1, Ordering::Relaxed);
                }
                out.lock()
                    .expect("sample lock poisoned")
                    .results
                    .push(result);
                // The generator may already have stopped; a closed
                // channel is fine.
                let _ = token_tx.send(());
            });
        }
        drop(token_tx);
        // Free window slots the generator holds.
        let mut held = 0usize;
        for draw in draws {
            let elapsed = start.elapsed() - paused;
            let enough = plain.load(Ordering::Relaxed) >= stop.min_samples;
            if (elapsed >= stop.after && enough) || elapsed >= stop.cap {
                break;
            }
            if let Some(cal) = calibration.as_deref_mut().filter(|c| c.due()) {
                while held < window {
                    token_rx.recv().expect("waiters hold the token sender");
                    held += 1;
                }
                paused += cal.sample();
            }
            if held == 0 {
                token_rx.recv().expect("waiters hold the token sender");
                held += 1;
            }
            held -= 1;
            let spec = &specs[draw.index()];
            let traced = trace.map(|t| traced_preamble(t, spec));
            let submitted = Instant::now();
            let name = match draw {
                Draw::Job(_) => "serve.request",
                Draw::Refine(_) => "serve.refine",
            };
            let request = traced.map(|(tracer, id)| (tracer, id, tracer.begin(name, id, None)));
            let submit = || match draw {
                Draw::Job(_) => service.submit(spec).map(Pending::Job),
                Draw::Refine(_) => service
                    .submit_refine(spec, &refine_req)
                    .map(Pending::Refine),
            };
            let pending = match request {
                Some((tracer, id, req)) => tracer.span("serve.submit", id, Some(req), |_| submit()),
                None => submit(),
            };
            match pending {
                Ok(pending) => work_tx
                    .send(Work {
                        draw,
                        pending,
                        submitted,
                        span: request.map(|r| r.2),
                    })
                    .expect("waiters outlive the generator"),
                Err(e) => {
                    if let Some((tracer, _, req)) = request {
                        tracer.end(req);
                    }
                    out.lock()
                        .expect("sample lock poisoned")
                        .results
                        .push((draw, Err(e)));
                    break;
                }
            }
        }
        drop(work_tx);
    });
    let mut out = out.into_inner().expect("sample lock poisoned");
    out.window_s = (start.elapsed() - paused).as_secs_f64();
    out
}

/// Generator-side layer calls of a traced request, recorded as their
/// own spans before the request starts: the job fingerprint and the
/// routing decision. Returns the recorder and the job id.
fn traced_preamble<'a>(trace: &ServeTrace<'a>, spec: &JobSpec) -> (&'a Tracer, u64) {
    let job = spec.job();
    let id = trace
        .tracer
        .span("api.fingerprint", 0, None, |_| job_id(&job));
    trace.tracer.span("serve.route", id, None, |_| {
        black_box(route_job(trace.engines, &job, Route::Auto)).ok()
    });
    (trace.tracer, id)
}

/// Waits for one request and records its latency.
fn resolve(
    work: Work,
    out: &Mutex<ServeSamples>,
    tracer: Option<&Tracer>,
) -> (Draw, Result<Estimate, QnsError>) {
    // Takes the latency and closes the request span.
    let resolved = || {
        let ms = work.submitted.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (tracer, work.span) {
            t.end(id);
        }
        ms
    };
    match work.pending {
        Pending::Job(handle) => {
            let result = handle.wait();
            let ms = resolved();
            if result.is_ok() {
                out.lock()
                    .expect("sample lock poisoned")
                    .latency_ms
                    .push(ms);
            }
            (work.draw, result)
        }
        Pending::Refine(handle) => {
            let first = handle.wait_first();
            let ms = resolved();
            if let Ok(update) = &first {
                let mut out = out.lock().expect("sample lock poisoned");
                out.refine_first_ms.push(ms);
                if update.from_cache {
                    out.refine_resume_ms.push(ms);
                }
            }
            // Waiting for the last level keeps the escalation alive, so
            // its levels reach the partial-sum cache.
            let last = first.and_then(|_| handle.wait_final());
            (work.draw, last.map(|u| u.estimate))
        }
    }
}

//! `ExpectationJob::new` refuses inputs no engine can answer — a
//! non-trace-preserving channel, a non-finite or unnormalized product
//! state — and still accepts every shipped channel and every job the
//! registry and the repository benchmark build.

use qns::api::{
    ApproxBackend, Backend, DensityBackend, ExpectationJob, InitialState, Observable, QnsError,
    Simulation, TddBackend,
};
use qns::circuit::Circuit;
use qns::linalg::{c64, Matrix};
use qns::noise::{channels, Kraus, NoisyCircuit};
use qns::tnet::builder::ProductState;
use qns_bench::registry;

fn bell() -> NoisyCircuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    NoisyCircuit::noiseless(c)
}

fn invalid<T: std::fmt::Debug>(result: Result<T, QnsError>) -> bool {
    matches!(result, Err(QnsError::InvalidJob { .. }))
}

#[test]
fn reproduced_bad_inputs_are_refused_before_any_engine_runs() {
    let engines: [&dyn Backend; 3] = [
        &ApproxBackend::level(2),
        &DensityBackend::new(),
        &TddBackend::new(),
    ];
    let one = [c64(1.0, 0.0), c64(0.0, 0.0)];

    // A NaN product-state factor.
    let nan = ProductState::from_factors(vec![[c64(f64::NAN, 0.0), c64(0.0, 0.0)], one]);
    let noisy = bell();
    assert!(invalid(ExpectationJob::new(
        &noisy,
        nan,
        Observable::zeros(2)
    )));

    // One Kraus operator diag(1.5, 1) as initial noise.
    let mut grow = Matrix::identity(2);
    grow[(0, 0)] = c64(1.5, 0.0);
    let mut non_cptp = bell();
    non_cptp.push_initial(0, Kraus::new(vec![grow]));
    for engine in engines {
        assert!(
            invalid(Simulation::new(&non_cptp).run_on(engine)),
            "{}",
            engine.name()
        );
    }

    // A first factor of (3, 0).
    let three = ProductState::from_factors(vec![[c64(3.0, 0.0), c64(0.0, 0.0)], one]);
    assert!(invalid(ExpectationJob::new(
        &noisy,
        three.clone(),
        Observable::zeros(2)
    )));
    for engine in engines {
        assert!(
            invalid(
                Simulation::new(&noisy)
                    .observable(three.clone())
                    .run_on(engine)
            ),
            "{}",
            engine.name()
        );
    }
}

#[test]
fn registry_and_benchmark_style_jobs_are_accepted() {
    let benchmark_channels = [
        channels::thermal_relaxation(30.0, 40.0, 25.0),
        // The serve sweep's extremes: T1 ∈ [20, 60] µs, T2 ∈ [0.5, 1.5]·T1,
        // gates of 20–40 ns.
        channels::thermal_relaxation(20.0, 10.0, 40.0),
        channels::thermal_relaxation(60.0, 90.0, 20.0),
    ];
    for bench in registry::default_set() {
        let n = bench.circuit.n_qubits();
        for (i, ch) in benchmark_channels.iter().enumerate() {
            for noises in [6, 16] {
                let positions = NoisyCircuit::inject_random(
                    bench.circuit.clone(),
                    &channels::depolarizing(1e-3),
                    noises,
                    i as u64,
                );
                let noisy = positions.with_channel(ch);
                for bits in [0, (1 << n) - 1] {
                    let job = ExpectationJob::new(
                        &noisy,
                        InitialState::zeros(n),
                        Observable::basis(n, bits),
                    );
                    assert!(job.is_ok(), "{} ({noises} noises): {job:?}", bench.name);
                }
                assert!(ExpectationJob::new(
                    &noisy,
                    InitialState::plus(n),
                    Observable::projector(ProductState::all_plus(n)),
                )
                .is_ok());
            }
        }
    }
}

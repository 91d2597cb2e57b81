//! Jobs, states, observables and the fluent [`Simulation`] builder.

use crate::backends::Backend;
use qns_linalg::Complex64;
use qns_noise::{NoisyCircuit, QnsError};
use qns_tnet::builder::ProductState;

/// The input state `|ψ⟩` of a simulation, as a product state.
///
/// Every engine in the workspace accepts product inputs (the paper's
/// experiments use computational basis states and local rotations);
/// this type owns the conversions to the three representations the
/// engines want — a [`ProductState`], a dense statevector, and a list
/// of per-qubit factors — so call sites stop hand-rolling state glue.
/// Conversions are computed on demand, once per backend invocation;
/// their cost is negligible next to any simulation.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct InitialState {
    state: ProductState,
}

impl InitialState {
    /// `|0…0⟩` on `n` qubits.
    pub fn zeros(n: usize) -> Self {
        ProductState::all_zeros(n).into()
    }

    /// The computational basis state `|bits⟩` (qubit 0 is the most
    /// significant bit, matching the rest of the workspace).
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis(n: usize, bits: usize) -> Self {
        ProductState::basis(n, bits).into()
    }

    /// The uniform superposition `|+⟩^{⊗n}`.
    pub fn plus(n: usize) -> Self {
        ProductState::all_plus(n).into()
    }

    /// Builds from explicit per-qubit factors.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty.
    pub fn from_factors(factors: Vec<[Complex64; 2]>) -> Self {
        ProductState::from_factors(factors).into()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.state.n_qubits()
    }

    /// The [`ProductState`] representation (tensor-network engines).
    pub fn product(&self) -> &ProductState {
        &self.state
    }

    /// The per-qubit factor representation (TDD and MPO engines).
    pub fn factors(&self) -> Vec<[Complex64; 2]> {
        (0..self.state.n_qubits())
            .map(|q| self.state.factor(q))
            .collect()
    }

    /// The dense statevector representation (`2^n` amplitudes; dense
    /// and trajectory engines).
    pub fn statevector(&self) -> Vec<Complex64> {
        self.state.to_statevector()
    }
}

impl From<ProductState> for InitialState {
    fn from(state: ProductState) -> Self {
        InitialState { state }
    }
}

/// The measured quantity: the projector `|v⟩⟨v|` onto a product state
/// `|v⟩`, i.e. the paper's Problem 1 expectation `⟨v|E_N(ρ)|v⟩`.
///
/// Shares [`InitialState`]'s conversions between the three state
/// representations. For a non-product `|v⟩ = U|0…0⟩` use
/// [`qns_core::append_ideal_inverse`] and observe `|0…0⟩⟨0…0|` on the
/// extended circuit (the paper's Table IV construction).
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct Observable {
    state: ProductState,
}

impl Observable {
    /// The projector onto `|0…0⟩`.
    pub fn zeros(n: usize) -> Self {
        ProductState::all_zeros(n).into()
    }

    /// The projector onto the computational basis state `|bits⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn basis(n: usize, bits: usize) -> Self {
        ProductState::basis(n, bits).into()
    }

    /// The projector onto an arbitrary product state.
    pub fn projector(state: ProductState) -> Self {
        state.into()
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.state.n_qubits()
    }

    /// The [`ProductState`] being projected onto.
    pub fn product(&self) -> &ProductState {
        &self.state
    }

    /// The per-qubit factor representation.
    pub fn factors(&self) -> Vec<[Complex64; 2]> {
        (0..self.state.n_qubits())
            .map(|q| self.state.factor(q))
            .collect()
    }

    /// The dense statevector representation.
    pub fn statevector(&self) -> Vec<Complex64> {
        self.state.to_statevector()
    }
}

impl From<ProductState> for Observable {
    fn from(state: ProductState) -> Self {
        Observable { state }
    }
}

/// A validated expectation request: which noisy circuit to run, on
/// which input, measuring which projector.
///
/// Construction via [`ExpectationJob::new`] (or the [`Simulation`]
/// builder) checks all qubit counts once, so [`Backend`]
/// implementations never re-validate and never panic on mismatched
/// sizes.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct ExpectationJob<'a> {
    noisy: &'a NoisyCircuit,
    initial: InitialState,
    observable: Observable,
}

impl<'a> ExpectationJob<'a> {
    /// Builds and validates a job.
    ///
    /// # Errors
    ///
    /// [`QnsError::SizeMismatch`] if the initial state or observable
    /// disagrees with the circuit's qubit count;
    /// [`QnsError::InvalidJob`] if a gate parameter, a custom gate
    /// matrix entry or a Kraus entry is not finite, if a noise channel
    /// is not trace preserving within [`CPTP_TOLERANCE`], or if a
    /// factor of the initial state or observable is not finite or not
    /// normalized within [`NORM_TOLERANCE`].
    pub fn new(
        noisy: &'a NoisyCircuit,
        initial: impl Into<InitialState>,
        observable: impl Into<Observable>,
    ) -> Result<Self, QnsError> {
        let initial = initial.into();
        let observable = observable.into();
        if initial.n_qubits() != noisy.n_qubits() {
            return Err(QnsError::SizeMismatch {
                what: "input state",
                expected: noisy.n_qubits(),
                actual: initial.n_qubits(),
            });
        }
        if observable.n_qubits() != noisy.n_qubits() {
            return Err(QnsError::SizeMismatch {
                what: "observable",
                expected: noisy.n_qubits(),
                actual: observable.n_qubits(),
            });
        }
        check_finite(noisy)?;
        check_channels(noisy)?;
        check_state("input state", initial.product())?;
        check_state("observable", observable.product())?;
        Ok(ExpectationJob {
            noisy,
            initial,
            observable,
        })
    }

    /// The noisy circuit to simulate.
    pub fn noisy(&self) -> &'a NoisyCircuit {
        self.noisy
    }

    /// The input state `|ψ⟩`.
    pub fn initial(&self) -> &InitialState {
        &self.initial
    }

    /// The observable projector `|v⟩⟨v|`.
    pub fn observable(&self) -> &Observable {
        &self.observable
    }

    /// Number of qubits (shared by circuit, state and observable).
    pub fn n_qubits(&self) -> usize {
        self.noisy.n_qubits()
    }

    /// The job's canonical structural hash: two jobs built
    /// independently from identical circuits, noise, states and
    /// observables fingerprint equal (see [`crate::Fingerprint`]).
    /// Serving layers use this as their cache / dedup key.
    pub fn fingerprint(&self) -> crate::Fingerprint {
        crate::fingerprint::fingerprint_job(
            self.noisy,
            self.initial.product(),
            self.observable.product(),
        )
    }
}

/// Refuses circuits whose gates or noise channels carry a NaN or an
/// infinity: no engine can answer them, and some would answer anyway.
fn check_finite(noisy: &NoisyCircuit) -> Result<(), QnsError> {
    let circuit = noisy.circuit();
    if let Some((i, op)) = circuit
        .operations()
        .iter()
        .enumerate()
        .find(|(_, op)| !op.gate.is_finite())
    {
        return Err(QnsError::InvalidJob {
            reason: format!("gate {i} ({op}) has a non-finite parameter"),
        });
    }
    if let Some(e) = noisy
        .initial_events()
        .iter()
        .chain(noisy.events())
        .find(|e| !e.kraus.is_finite())
    {
        return Err(QnsError::InvalidJob {
            reason: format!(
                "a noise channel on qubit {} has a non-finite Kraus entry",
                e.qubit
            ),
        });
    }
    Ok(())
}

/// Largest `‖Σ E_k†E_k − I‖_max` a noise channel may show and still
/// count as trace preserving ([`qns_noise::Kraus::is_cptp`]). Every
/// shipped channel is within rounding of zero; the bound leaves room
/// for channels composed or pruned by callers.
pub const CPTP_TOLERANCE: f64 = 1e-9;

/// Largest `| |a|² + |b|² − 1 |` a product-state factor `(a, b)` of an
/// initial state or observable may show.
pub const NORM_TOLERANCE: f64 = 1e-9;

/// Refuses noise channels that are not trace preserving: every engine
/// would answer, none correctly. Clones of one channel share their
/// operators, so a set is not checked again while it is among the
/// last few distinct sets checked (without allocating: serving
/// validates a job per request).
fn check_channels(noisy: &NoisyCircuit) -> Result<(), QnsError> {
    let mut checked: [Option<&qns_noise::Kraus>; 4] = [None; 4];
    let mut next = 0;
    for e in noisy.initial_events().iter().chain(noisy.events()) {
        if checked
            .iter()
            .flatten()
            .any(|k| k.shares_operators(&e.kraus))
        {
            continue;
        }
        if !e.kraus.is_cptp(CPTP_TOLERANCE) {
            return Err(QnsError::InvalidJob {
                reason: format!(
                    "a noise channel on qubit {} is not trace preserving \
                     (tolerance {CPTP_TOLERANCE:e})",
                    e.qubit
                ),
            });
        }
        checked[next % checked.len()] = Some(&e.kraus);
        next += 1;
    }
    Ok(())
}

/// Refuses a product state with a non-finite or unnormalized factor.
fn check_state(what: &str, state: &ProductState) -> Result<(), QnsError> {
    for q in 0..state.n_qubits() {
        let [a, b] = state.factor(q);
        let norm = a.norm_sqr() + b.norm_sqr();
        if !(a.is_finite() && b.is_finite()) || (norm - 1.0).abs() > NORM_TOLERANCE {
            return Err(QnsError::InvalidJob {
                reason: format!(
                    "{what} factor on qubit {q} has squared norm {norm} \
                     (must be finite and 1 within {NORM_TOLERANCE:e})"
                ),
            });
        }
    }
    Ok(())
}

/// One backend's answer to an [`ExpectationJob`].
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// The estimated expectation `⟨v|E_N(|ψ⟩⟨ψ|)|v⟩`.
    pub value: f64,
    /// Statistical standard error of the mean for sampling backends;
    /// `None` for deterministic ones.
    pub std_error: Option<f64>,
    /// Accumulated truncation-error bound for bond-capped engines
    /// (the MPO backend's discarded singular-value weight); `None`
    /// when the run was exact to machine precision.
    pub truncation_error: Option<f64>,
    /// A-priori Theorem-1 error bound for level-truncated pattern-sum
    /// runs: `|value − exact| ≤ error_bound`. `None` when the run was
    /// exact or the backend carries its uncertainty elsewhere.
    pub error_bound: Option<f64>,
    /// The truncation level of a level-truncated pattern-sum run;
    /// `None` for backends without a level knob (or exact runs).
    pub level: Option<usize>,
    /// Name of the backend that produced the estimate.
    pub backend: &'static str,
}

impl Estimate {
    /// An estimate from a deterministic backend that ran without any
    /// approximation-forcing truncation.
    pub fn exact(value: f64, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: None,
            truncation_error: None,
            error_bound: None,
            level: None,
            backend,
        }
    }

    /// An estimate from a sampling backend, with its standard error.
    pub fn sampled(value: f64, std_error: f64, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: Some(std_error),
            truncation_error: None,
            error_bound: None,
            level: None,
            backend,
        }
    }

    /// An estimate from a deterministic backend whose resource cap
    /// forced truncation, with the accumulated truncation-error bound.
    pub fn truncated(value: f64, truncation_error: f64, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: None,
            truncation_error: Some(truncation_error),
            error_bound: None,
            level: None,
            backend,
        }
    }

    /// A level-truncated pattern-sum estimate with its a-priori
    /// Theorem-1 error bound: `|value − exact| ≤ error_bound`.
    pub fn bounded(value: f64, error_bound: f64, level: usize, backend: &'static str) -> Self {
        Estimate {
            value,
            std_error: None,
            truncation_error: None,
            error_bound: Some(error_bound),
            level: Some(level),
            backend,
        }
    }

    /// `true` when the estimate carries no statistical error bar.
    pub fn is_deterministic(&self) -> bool {
        self.std_error.is_none()
    }

    /// `true` when the estimate is exact up to machine precision:
    /// deterministic *and* free of truncation (bond-cap or level).
    pub fn is_exact(&self) -> bool {
        self.std_error.is_none() && self.truncation_error.is_none() && self.error_bound.is_none()
    }

    /// Bound-aware agreement check between two estimates: the values
    /// must differ by at most `tol` **plus** each side's declared
    /// uncertainty — five standard errors for sampling backends, the
    /// accumulated truncation bound for bond-capped ones, and the
    /// Theorem-1 bound for level-truncated ones. This is the one
    /// comparison the agreement suites share instead of hand-rolling
    /// `max(k·σ, ε)` at every call site.
    ///
    /// ```
    /// use qns_api::Estimate;
    /// let exact = Estimate::exact(0.500, "density");
    /// let noisy = Estimate::sampled(0.512, 0.01, "trajectory");
    /// assert!(noisy.agrees_with(&exact, 1e-3)); // |Δ| ≤ 1e-3 + 5σ
    /// assert!(!Estimate::exact(0.6, "tdd").agrees_with(&exact, 1e-3));
    /// ```
    pub fn agrees_with(&self, other: &Estimate, tol: f64) -> bool {
        let slack = tol
            + 5.0 * self.std_error.unwrap_or(0.0)
            + 5.0 * other.std_error.unwrap_or(0.0)
            + self.truncation_error.unwrap_or(0.0)
            + other.truncation_error.unwrap_or(0.0)
            + self.error_bound.unwrap_or(0.0)
            + other.error_bound.unwrap_or(0.0);
        (self.value - other.value).abs() <= slack
    }
}

/// Fluent builder for [`ExpectationJob`]s:
///
/// ```
/// use qns_api::{ApproxBackend, Simulation};
/// use qns_circuit::generators::ghz;
/// use qns_noise::{channels, NoisyCircuit};
///
/// let noisy = NoisyCircuit::inject_random(ghz(4), &channels::depolarizing(1e-3), 2, 7);
/// let est = Simulation::new(&noisy)
///     .observable_basis(0b1111)
///     .run_on(&ApproxBackend::level(2))?;
/// assert!((est.value - 0.5).abs() < 0.01);
/// # Ok::<(), qns_api::QnsError>(())
/// ```
///
/// The initial state defaults to `|0…0⟩` and the observable to the
/// `|0…0⟩⟨0…0|` projector.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct Simulation<'a> {
    noisy: &'a NoisyCircuit,
    initial: Option<InitialState>,
    observable: Option<Observable>,
}

impl<'a> Simulation<'a> {
    /// Starts a simulation of `noisy`.
    pub fn new(noisy: &'a NoisyCircuit) -> Self {
        Simulation {
            noisy,
            initial: None,
            observable: None,
        }
    }

    /// Sets the input state (default: `|0…0⟩`).
    pub fn initial(mut self, initial: impl Into<InitialState>) -> Self {
        self.initial = Some(initial.into());
        self
    }

    /// Sets the input to the basis state `|bits⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn initial_basis(self, bits: usize) -> Self {
        let n = self.noisy.n_qubits();
        self.initial(InitialState::basis(n, bits))
    }

    /// Sets the observable (default: the `|0…0⟩⟨0…0|` projector).
    pub fn observable(mut self, observable: impl Into<Observable>) -> Self {
        self.observable = Some(observable.into());
        self
    }

    /// Sets the observable to the `|bits⟩⟨bits|` projector.
    ///
    /// # Panics
    ///
    /// Panics if `bits ≥ 2^n`.
    pub fn observable_basis(self, bits: usize) -> Self {
        let n = self.noisy.n_qubits();
        self.observable(Observable::basis(n, bits))
    }

    /// Finalizes the builder into a validated [`ExpectationJob`].
    ///
    /// # Errors
    ///
    /// As [`ExpectationJob::new`].
    pub fn build(self) -> Result<ExpectationJob<'a>, QnsError> {
        let n = self.noisy.n_qubits();
        let initial = self.initial.unwrap_or_else(|| InitialState::zeros(n));
        let observable = self.observable.unwrap_or_else(|| Observable::zeros(n));
        ExpectationJob::new(self.noisy, initial, observable)
    }

    /// Builds the job and runs it on `backend` in one call.
    ///
    /// # Errors
    ///
    /// Validation errors from [`Simulation::build`] plus whatever the
    /// backend reports.
    pub fn run_on(self, backend: &dyn Backend) -> Result<Estimate, QnsError> {
        backend.expectation(&self.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{Circuit, Gate};
    use qns_linalg::{c64, Matrix};
    use qns_noise::{channels, Kraus, NoiseEvent};

    fn refused(noisy: &NoisyCircuit) -> bool {
        matches!(
            Simulation::new(noisy).build(),
            Err(QnsError::InvalidJob { .. })
        )
    }

    fn nan_matrix(dim: usize) -> Matrix {
        let mut m = Matrix::identity(dim);
        m[(0, 1)] = c64(0.0, f64::NAN);
        m
    }

    #[test]
    fn non_finite_gates_are_refused() {
        let bad = [
            Gate::Rx(f64::NAN),
            Gate::Rz(f64::INFINITY),
            Gate::Custom1(Box::new(nan_matrix(2))),
            Gate::FSim(0.1, f64::NEG_INFINITY),
            Gate::CU(Box::new(nan_matrix(2))),
            Gate::Custom2(Box::new(nan_matrix(4))),
        ];
        for gate in bad {
            let mut c = Circuit::new(2);
            let qubits = [0, 1];
            c.h(0).apply(gate.clone(), &qubits[..gate.arity()]);
            assert!(refused(&NoisyCircuit::noiseless(c)), "{gate:?}");
        }
    }

    #[test]
    fn non_finite_kraus_entries_are_refused() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let bad = Kraus::new(vec![nan_matrix(2)]);
        let after_gate = NoisyCircuit::new(
            c.clone(),
            vec![NoiseEvent {
                after_gate: 1,
                qubit: 1,
                kraus: bad.clone(),
            }],
        );
        assert!(refused(&after_gate));
        let mut initial = NoisyCircuit::noiseless(c.clone());
        initial.push_initial(0, bad);
        assert!(refused(&initial));

        let good = NoisyCircuit::inject_random(c, &channels::depolarizing(0.01), 3, 1);
        assert!(Simulation::new(&good).build().is_ok());
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn non_cptp_channels_are_refused() {
        // One Kraus operator diag(1.5, 1) as initial noise.
        let mut grow = Matrix::identity(2);
        grow[(0, 0)] = c64(1.5, 0.0);
        let mut noisy = NoisyCircuit::noiseless(bell());
        noisy.push_initial(0, Kraus::new(vec![grow]));
        assert!(refused(&noisy));
    }

    #[test]
    fn non_finite_or_unnormalized_states_are_refused() {
        let noisy = NoisyCircuit::noiseless(bell());
        let one = [c64(1.0, 0.0), c64(0.0, 0.0)];
        let nan = [c64(f64::NAN, 0.0), c64(0.0, 0.0)];
        let three = [c64(3.0, 0.0), c64(0.0, 0.0)];
        for bad in [nan, three] {
            let state = ProductState::from_factors(vec![bad, one]);
            for job in [
                ExpectationJob::new(&noisy, state.clone(), Observable::zeros(2)),
                ExpectationJob::new(&noisy, InitialState::zeros(2), state.clone()),
            ] {
                assert!(matches!(job, Err(QnsError::InvalidJob { .. })), "{bad:?}");
            }
        }
        let plus = ProductState::all_plus(2);
        assert!(ExpectationJob::new(&noisy, plus.clone(), plus).is_ok());
    }

    #[test]
    fn every_shipped_channel_is_accepted() {
        let mut shipped = channels::catalogue(0.05);
        shipped.extend([
            ("pauli", channels::pauli_channel(0.01, 0.02, 0.03)),
            ("thermal", channels::thermal_relaxation(30.0, 40.0, 25.0)),
            (
                "thermal_long",
                channels::thermal_relaxation(30.0, 40.0, 200.0),
            ),
            ("overrotation", channels::coherent_overrotation('y', 0.05)),
            ("full_depolarizing", channels::depolarizing(1.0)),
            ("full_damping", channels::amplitude_damping(1.0)),
        ]);
        for (name, ch) in shipped {
            let mut noisy = NoisyCircuit::inject_random(bell(), &ch, 4, 3);
            noisy.push_initial(1, ch);
            assert!(Simulation::new(&noisy).build().is_ok(), "{name}");
        }
    }
}

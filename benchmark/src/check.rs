//! Correctness checks, run outside every timed window.

use crate::report::Report;
use qns_api::{ApproxBackend, ApproxOptions, Backend, DensityBackend, Estimate, ExpectationJob};

/// Largest circuit the dense density-matrix reference is run on.
pub const REFERENCE_MAX_QUBITS: usize = 10;

/// Slack for floating-point rounding between two exact evaluations
/// (the dense reference and the pattern sum round differently).
pub const FLOAT_SLACK: f64 = 1e-10;

/// Every answer must be a finite number.
pub fn finite(report: &mut Report, what: &str, value: f64) -> bool {
    if value.is_finite() {
        return true;
    }
    report.fail(format!("{what}: non-finite value {value}"));
    false
}

/// `|estimate − density reference|` must be within the estimate's
/// declared uncertainty (the Theorem-1 bound for a truncated level)
/// plus [`FLOAT_SLACK`]. Jobs over [`REFERENCE_MAX_QUBITS`] are skipped;
/// returns whether a reference was computed.
pub fn against_density(
    report: &mut Report,
    what: &str,
    job: &ExpectationJob<'_>,
    estimate: &Estimate,
) -> bool {
    if job.n_qubits() > REFERENCE_MAX_QUBITS {
        return false;
    }
    match DensityBackend::new().expectation(job) {
        Ok(reference) if estimate.agrees_with(&reference, FLOAT_SLACK) => {}
        Ok(reference) => report.fail(format!(
            "{what}: {} vs density reference {} (declared bound {:?})",
            estimate.value, reference.value, estimate.error_bound
        )),
        Err(e) => report.fail(format!("{what}: density reference failed: {e}")),
    }
    true
}

/// A served approx answer must equal, bit for bit, a direct call on an
/// `ApproxBackend` with the same options.
pub fn bitwise_approx(
    report: &mut Report,
    what: &str,
    job: &ExpectationJob<'_>,
    served: &Estimate,
    opts: ApproxOptions,
) {
    match ApproxBackend::with_options(opts).expectation(job) {
        Ok(direct) if direct.value.to_bits() == served.value.to_bits() => {}
        Ok(direct) => report.fail(format!(
            "{what}: served {} but a direct ApproxBackend call gives {}",
            served.value, direct.value
        )),
        Err(e) => report.fail(format!("{what}: direct ApproxBackend call failed: {e}")),
    }
}

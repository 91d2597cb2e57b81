//! Pins what the in-memory job representation must not change: the
//! cache keys of a few registry jobs, the text form of every registry
//! circuit, and that the noise sites of one injection share their
//! channel's operator storage.

use qns_api::{ExpectationJob, Fingerprinter, InitialState, Observable};
use qns_bench::registry;
use qns_noise::{channels, NoisyCircuit};

/// The registry job `name` with 6 thermal-relaxation sites injected
/// with seed 7.
fn pinned_noisy(name: &str) -> NoisyCircuit {
    let bench = registry::full_set()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("registry has no `{name}`"));
    NoisyCircuit::inject_random(
        bench.circuit,
        &channels::thermal_relaxation(30.0, 40.0, 25.0),
        6,
        7,
    )
}

#[test]
fn fingerprints_of_registry_jobs_are_pinned() {
    let pinned = [
        ("hf_6", "70cf9f02bb63298275ba63b00b9d9362"),
        ("qaoa_9", "a5509f26b71003831db2fd8608faa16d"),
        ("inst_2x3_8", "1ce3999bfa0aa948d379126e2283f6ea"),
    ];
    for (name, expected) in pinned {
        let noisy = pinned_noisy(name);
        let n = noisy.n_qubits();
        let job = ExpectationJob::new(&noisy, InitialState::zeros(n), Observable::zeros(n))
            .expect("registry job is valid");
        assert_eq!(job.fingerprint().to_string(), expected, "{name}");
    }
}

/// FNV-1a digest of a circuit's text form, with its byte length.
fn text_digest(text: &str) -> (usize, String) {
    let mut h = Fingerprinter::new();
    h.write_str(text);
    (text.len(), h.finish().to_string())
}

#[test]
fn registry_circuit_text_is_pinned() {
    let pinned: &[(&str, usize, &str)] = &[
        ("hf_6", 947, "fb629a598c831e3ed8ba7bbc467f8729"),
        ("hf_8", 1751, "3d3097b25aad8829b987c90a4f1631eb"),
        ("hf_10", 2807, "2995484ba212c785c476fb17021a5d67"),
        ("qaoa_9", 1986, "ce3ce10693af7834e117edf46b08725e"),
        ("qaoa_12", 2748, "fe56c7b70e35d5162ed86df486105042"),
        ("qaoa_16", 3900, "514813d212c27d8f1db8fca366fc0d83"),
        ("inst_2x3_8", 252, "563ce426ef9b72a73f90b7da01683fe0"),
        ("inst_3x3_8", 369, "a68f6212bf526c253c6bf87ea50abcb3"),
        ("inst_3x4_8", 505, "0a70eb3fd5598425d3ff2d44164c0286"),
        ("hf_12", 4137, "3aec844c0c9b7d11c0a52fe864ddb364"),
        ("qaoa_25", 6365, "0f2ed8f98d1915166082f8b276349391"),
        ("inst_4x4_8", 696, "502bf278b9012d379e2b23b39493f91c"),
        ("inst_4x4_16", 1312, "48911da1a34b67e9abe70df2d8c66fd3"),
    ];
    let set = registry::full_set();
    assert_eq!(set.len(), pinned.len());
    for (bench, &(name, len, digest)) in set.iter().zip(pinned) {
        assert_eq!(bench.name, name);
        let text = qns_circuit::to_text(&bench.circuit).expect("registry circuits have text");
        assert_eq!(text_digest(&text), (len, digest.to_string()), "{name}");
    }
}

#[test]
fn injected_sites_share_operator_storage() {
    let noisy = pinned_noisy("qaoa_9");
    let events = noisy.events();
    assert_eq!(events.len(), 6);
    let first = events[0].kraus.operators().as_ptr();
    for e in events {
        assert_eq!(e.kraus.operators().as_ptr(), first);
    }
    // A clone of the whole circuit shares the storage too.
    let copy = noisy.clone();
    assert_eq!(copy.events()[0].kraus.operators().as_ptr(), first);
}

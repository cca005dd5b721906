//! The run document with every section, and its one reader under hostile
//! input.
//!
//! * A quick chaos run written with all six optional sections reads back
//!   to the same spec, statistics and cost tree, and each section holds
//!   what the run produced.
//! * A deterministic mutation loop (bit flips, truncations, numbers
//!   inflated to the edge of `u64` and past it) over that document and over a two-run sweep document: every
//!   mutant must read back as `Ok` or `Err`, never panic. Tier-1 runs this
//!   under the debug profile, so an arithmetic overflow in the reader
//!   would panic here.

use std::sync::{Arc, Mutex};

use vic::core::managers::DropClass;
use vic::core::policy::Configuration;
use vic::core::Rng64;
use vic::metrics::ProgressReporter;
use vic::os::SystemKind;
use vic::profile::{parse_json, JsonValue};
use vic::trace::{ConsistencyAuditor, FanoutSink, RingBufferSink, Tracer};
use vic::workloads::{run_observed, run_profiled, WorkloadKind};
use vic_bench::output::{read_doc, run_doc, run_from_json, run_json, sweep_json, Sections};
use vic_bench::sweep::run_sweep;
use vic_bench::SystemSpec;

/// A quick fork-bench run under a manager that drops flushes (so the
/// audit has divergences), profiled and traced into an auditor and an
/// eight-event ring, plus an observed twin for the snapshot and series.
fn every_section_doc() -> (SystemSpec, String) {
    let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Chaos(DropClass::Flushes));
    let auditor = Arc::new(Mutex::new(ConsistencyAuditor::new()));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
    let tracer = Tracer::new(FanoutSink::new().with(auditor.clone()).with(ring.clone()));
    let (stats, tree) = run_profiled(spec.kernel_config(), spec.build_workload().as_ref(), tracer);
    let observed = run_observed(
        spec.kernel_config(),
        spec.build_workload().as_ref(),
        Tracer::off(),
        Some(stats.cycles / 4),
    );
    let series = observed.series.expect("sampled");
    let (audit, events) = (auditor.lock().unwrap(), ring.lock().unwrap());
    let sections = Sections {
        cost_tree: Some(&tree),
        snapshot: Some(&observed.snapshot),
        series: Some(&series),
        audit: Some(&audit),
        events: Some(&events),
        error: Some("a \"quoted\"\nreason"),
    };
    (spec, run_doc(&spec, &stats, Some(0.5), &sections))
}

#[test]
fn every_section_reads_back() {
    let (spec, doc) = every_section_doc();
    let (stats, tree) = spec.run_profiled();
    let plain = run_json(&spec, &stats, Some(0.5));
    assert_eq!(
        run_doc(&spec, &stats, Some(0.5), &Sections::default()),
        plain,
        "no section, no change"
    );
    assert!(doc.starts_with(&plain[..plain.len() - 1]), "{doc}");
    assert!(doc.ends_with(",\"error\":\"a \\\"quoted\\\"\\nreason\"}"));
    let read = read_doc(&doc).expect("own output reads back");
    assert!(read.failures.is_empty());
    assert_eq!(read.runs.len(), 1);
    let run = &read.runs[0];
    assert_eq!(run.spec, spec);
    assert_eq!(run.stats, stats, "the chaos run is deterministic too");
    assert_eq!(run.cost_tree, Some(tree.flatten()));
    assert_eq!(run_from_json(&doc), Ok((spec, stats.clone())));

    let v = parse_json(&doc).unwrap();
    let keys: Vec<&str> = match &v {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(
        &keys[keys.len() - 6..],
        [
            "cost_tree",
            "snapshot",
            "series",
            "audit",
            "events",
            "error"
        ],
        "sections follow the plain fields, in order"
    );
    let num = |v: &JsonValue, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(JsonValue::as_u64)
    };
    assert_eq!(
        num(&v, &["snapshot", "machine", "cycles"]),
        Some(stats.cycles)
    );
    assert!(num(&v, &["audit", "divergence_count"]) > Some(0));
    let samples = v.get("series").and_then(|s| s.get("samples"));
    assert!(samples
        .and_then(JsonValue::as_arr)
        .is_some_and(|s| !s.is_empty()));
    let events = v.get("events").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(events.len(), 8, "the ring keeps the last eight");
    assert_eq!(
        v.get("error").and_then(JsonValue::as_str),
        Some("a \"quoted\"\nreason")
    );
}

/// A sweep document of two profiled quick runs, written without host
/// time as `profile baseline` writes one.
fn two_run_sweep_doc() -> String {
    let specs = [Configuration::A, Configuration::F]
        .map(|c| SystemSpec::quick(WorkloadKind::AliasUnaligned, SystemKind::Cmu(c)));
    let sweep = run_sweep(
        &specs,
        1,
        &ProgressReporter::disabled(),
        SystemSpec::run_profiled,
    );
    sweep_json(&sweep, false)
}

/// One hostile variant of `doc`.
fn mutate(doc: &[u8], rng: &mut Rng64) -> Vec<u8> {
    let mut out = doc.to_vec();
    match rng.gen_index(3) {
        // One to four flipped bits.
        0 => {
            for _ in 0..=rng.gen_index(4) {
                let i = rng.gen_index(out.len());
                out[i] ^= 1 << rng.gen_index(8);
            }
        }
        // A torn write.
        1 => out.truncate(rng.gen_index(out.len())),
        // A number replaced by one at or past the edge of u64, or by a
        // run of nines: sums that overflow, counts nothing can back.
        _ => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            let mut start = digits[rng.gen_index(digits.len())];
            while start > 0 && out[start - 1].is_ascii_digit() {
                start -= 1;
            }
            let end = (start..out.len())
                .find(|&i| !out[i].is_ascii_digit())
                .unwrap_or(out.len());
            let number = match rng.gen_index(3) {
                0 => b"18446744073709551615".to_vec(),
                1 => b"9223372036854775808".to_vec(),
                _ => vec![b'9'; 1 + rng.gen_index(400)],
            };
            out.splice(start..end, number);
        }
    }
    out
}

#[test]
fn hostile_documents_never_panic_the_reader() {
    let mut rng = Rng64::seed_from_u64(0x5eed_d0c5);
    for (name, doc) in [
        ("run document", every_section_doc().1),
        ("sweep document", two_run_sweep_doc()),
    ] {
        assert!(read_doc(&doc).is_ok(), "{name}: the original reads");
        let mut errors = 0;
        for case in 0..500 {
            let bytes = mutate(doc.as_bytes(), &mut rng);
            let text = String::from_utf8_lossy(&bytes);
            let read = std::panic::catch_unwind(|| read_doc(&text));
            let single = std::panic::catch_unwind(|| run_from_json(&text));
            match (read, single) {
                (Ok(read), Ok(_)) => errors += usize::from(read.is_err()),
                _ => panic!("{name}, case {case}: the reader panicked on:\n{text}"),
            }
        }
        assert!(errors > 100, "{name}: the mutations bite ({errors} of 500)");
    }
}

//! The run document with every section, and its one reader and the
//! checkpoint decoder under hostile input.
//!
//! * A quick chaos run written with all six optional sections reads back
//!   to the same spec, statistics and cost tree, and each section holds
//!   what the run produced.
//! * A deterministic mutation loop (bit flips, truncations, numbers
//!   inflated to the edge of `u64` and past it) over that document and over a two-run sweep document: every
//!   mutant must read back as `Ok` or `Err`, never panic. Tier-1 runs this
//!   under the debug profile, so an arithmetic overflow in the reader
//!   would panic here.
//! * The same loop over the committed checkpoint, plus single-word
//!   mutations of its decoded kernel-state and cursor streams: every
//!   mutant must parse and resume to `Ok` or `Err`, never panic.

use std::sync::{Arc, Mutex};

use vic::core::managers::DropClass;
use vic::core::policy::Configuration;
use vic::core::types::CpuId;
use vic::core::Rng64;
use vic::machine::Observers;
use vic::metrics::{ProgressReporter, SnapshotSampler};
use vic::os::{Kernel, SystemKind};
use vic::profile::{parse_json, JsonValue, Profiler};
use vic::trace::{ConsistencyAuditor, FanoutSink, RingBufferSink, Tracer};
use vic::workloads::{drive, Cursor, WorkloadKind};
use vic_bench::checkpoint::SystemCheckpoint;
use vic_bench::output::{read_doc, run_doc, run_from_json, run_json, sweep_json, Sections};
use vic_bench::profile::profiled;
use vic_bench::sweep::run_sweep;
use vic_bench::SystemSpec;

/// A quick fork-bench run under a manager that drops flushes (so the
/// audit has divergences), profiled and traced into an auditor and an
/// eight-event ring, plus an observed twin for the snapshot and series.
fn every_section_doc() -> (SystemSpec, String) {
    let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Chaos(DropClass::Flushes));
    let auditor = Arc::new(Mutex::new(ConsistencyAuditor::new()));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
    let observers = Observers {
        tracer: Tracer::new(FanoutSink::new().with(auditor.clone()).with(ring.clone())),
        profiler: Profiler::enabled(),
        ..Observers::default()
    };
    let (stats, mut observers) = spec.run_with(observers);
    let tree = observers.profiler.take_tree().expect("profiled");
    // The observed twin, sampled four times and inspected at its end.
    let mut k = Kernel::new(spec.kernel_config());
    k.machine_mut().attach(Observers {
        sampler: Some(SnapshotSampler::every(stats.cycles / 4)),
        ..Observers::default()
    });
    let workload = spec.workload.build_step(spec.quick);
    let mut cur = Cursor::new();
    drive(&mut k, CpuId::BOOT, workload.as_ref(), &mut cur, None).expect("runs");
    let sampler = k.machine_mut().detach().sampler.expect("sampled");
    let series = sampler.into_series(workload.name());
    let snapshot = k.inspect();
    let (audit, events) = (auditor.lock().unwrap(), ring.lock().unwrap());
    let sections = Sections {
        cost_tree: Some(&tree),
        snapshot: Some(&snapshot),
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
    let (stats, tree) = profiled(&spec);
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
    let sweep = run_sweep(&specs, 1, &ProgressReporter::disabled(), profiled);
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

/// Parse `text` as a checkpoint and resume it: `Some(true)` for a clean
/// restore, `Some(false)` for a typed error, `None` for a panic.
fn parse_and_resume(text: &str) -> Option<bool> {
    std::panic::catch_unwind(|| {
        SystemCheckpoint::parse(text)
            .and_then(|cp| cp.resume())
            .is_ok()
    })
    .ok()
}

#[test]
fn hostile_checkpoints_never_panic_parse_or_resume() {
    let fixture = include_str!("../BENCH_checkpoint.json");
    let original = SystemCheckpoint::parse(fixture).expect("the fixture parses");
    assert!(original.resume().is_ok(), "the fixture resumes");
    let mut rng = Rng64::seed_from_u64(0xc4ec_4b07);
    // Text-level: the run document's mutations, applied to the file.
    let mut restored = 0;
    for case in 0..500 {
        let text = String::from_utf8_lossy(&mutate(fixture.as_bytes(), &mut rng)).into_owned();
        let outcome = parse_and_resume(&text);
        let ok = outcome.unwrap_or_else(|| panic!("text case {case} panicked on:\n{text}"));
        restored += usize::from(ok);
    }
    assert!(
        restored < 500,
        "text mutations bite ({restored} of 500 resumed)"
    );
    // Word-level: one word of a decoded stream replaced, then re-encoded.
    let (mut restored, mut rejected) = (0, 0);
    for case in 0..1_200 {
        let mut cp = original.clone();
        let cursor = case % 4 == 3;
        let words = if cursor {
            &mut cp.cursor
        } else {
            &mut cp.state
        };
        let at = rng.gen_index(words.len());
        let was = words[at];
        words[at] = match rng.gen_index(5) {
            0 => was ^ (1 << rng.gen_index(64)),
            1 => u64::MAX,
            2 => was.wrapping_add(1),
            3 => was.wrapping_sub(1),
            _ => rng.next_u64(),
        };
        let stream = if cursor { "cursor" } else { "state" };
        match parse_and_resume(&cp.to_json()) {
            Some(true) => restored += 1,
            Some(false) => rejected += 1,
            None => panic!("word case {case}: {stream} word {at} {was:#x} -> panicked"),
        }
    }
    assert!(
        restored > 0 && rejected > 100,
        "word mutations both restore and bite ({restored} restored, {rejected} rejected)"
    );
}

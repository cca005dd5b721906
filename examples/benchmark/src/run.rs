//! The child side: run one slice of a workload and report it as one JSON
//! line.
//!
//! A slice is an untimed warm-up followed by the timed runs of one round.
//! The warm-up matters: in a fresh process `Kernel::new`'s large zeroed
//! buffers are fresh heap pages that fault in lazily; the second kernel
//! reuses them, zeroing them itself and faulting in every page; from the
//! third on, `Kernel::new` zeroes resident memory (~3 ms), the cost every
//! later run of a long-running grid pays. So the warm-up is a bare boot
//! and a full run of the first job.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vic_bench::output::{json_array, run_json, JsonObj};
use vic_core::types::CpuId;
use vic_os::{Kernel, KernelConfig};
use vic_workloads::{collect, Cursor};

use crate::probes::PROBES;
use crate::workload::{count_metrics, stats_digest, Job, Workload};

/// What a slice does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The timed runs of one round.
    Timed,
    /// One round with spans around every layer call, each run after an
    /// untraced run of the same job, then the probes.
    Traced,
    /// Each distinct job once with the machine's fast paths off.
    Twins,
}

/// Host time of one traced run, split into spans (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `Kernel::new`.
    pub boot: u64,
    /// The sum of the `StepWorkload::step` calls.
    pub drive: u64,
    /// `collect`.
    pub collect: u64,
    /// `run_json` plus writing it to disk.
    pub output: u64,
    /// Dropping the kernel.
    pub teardown: u64,
    /// The whole run.
    pub wall: u64,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host time of the run.
    pub spans: Spans,
    /// Its counters, in `vic_sample::metrics_of` order.
    pub counters: Vec<u64>,
    /// `StepWorkload::step` calls it made.
    pub steps: u64,
    /// [`stats_digest`] of its results.
    pub digest: u64,
    /// It completed and the oracle saw no stale data.
    pub ok: bool,
}

/// Steps timed as one span. Reading the clock around every step would cost
/// ~2 % of the alias-hit loop, whose steps take ~2 µs.
const STEPS_PER_SPAN: usize = 64;

/// Per-phase drive time: `(driver name, phase)` → nanoseconds.
pub type Phases = BTreeMap<(&'static str, u64), u64>;

/// Run one job from `Kernel::new` to the dropped kernel. With `phases`,
/// the steps are timed and charged to the driver phase they started in;
/// without, only boot and the whole run are timed.
pub fn run_job(job: &Job, fast_paths: bool, out: &Path, phases: Option<&mut Phases>) -> RunResult {
    let mut cfg: KernelConfig = job.spec.kernel_config();
    cfg.machine.fast_paths = fast_paths;
    let driver = job.driver();
    let name = driver.name();
    let mut cur = Cursor::new();
    let mut steps = 0u64;

    let t0 = Instant::now();
    let mut k = Kernel::new(cfg);
    let t1 = Instant::now();
    let (driven, t2, drive) = match phases {
        None => {
            let r = loop {
                steps += 1;
                match driver.step(&mut k, CpuId::BOOT, &mut cur) {
                    Ok(true) => {}
                    Ok(false) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            let t2 = Instant::now();
            (r, t2, (t2 - t1).as_nanos() as u64)
        }
        Some(phases) => {
            // A span covers up to STEPS_PER_SPAN consecutive steps that
            // start in one phase; the clock reads between spans are left
            // unattributed.
            let mut per_phase: Vec<u64> = Vec::new();
            let r = loop {
                let phase = cur.phase;
                let start = Instant::now();
                let mut r = Ok(true);
                for _ in 0..STEPS_PER_SPAN {
                    steps += 1;
                    r = driver.step(&mut k, CpuId::BOOT, &mut cur);
                    if !matches!(r, Ok(true)) || cur.phase != phase {
                        break;
                    }
                }
                let ns = (Instant::now() - start).as_nanos() as u64;
                let phase = phase as usize;
                if phase >= per_phase.len() {
                    per_phase.resize(phase + 1, 0);
                }
                per_phase[phase] += ns;
                match r {
                    Ok(true) => {}
                    Ok(false) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            let drive = per_phase.iter().sum();
            for (phase, ns) in per_phase.into_iter().enumerate() {
                *phases.entry((name, phase as u64)).or_default() += ns;
            }
            (r, Instant::now(), drive)
        }
    };
    let stats = collect(&k, name);
    let t3 = Instant::now();
    let json = run_json(&job.spec, &stats, None);
    let written = std::fs::write(out, json);
    let t4 = Instant::now();
    drop(k);
    let t5 = Instant::now();

    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    if let Err(e) = &driven {
        eprintln!("benchmark: {} failed: {e}", job.spec.label());
    }
    if let Err(e) = &written {
        eprintln!("benchmark: cannot write {}: {e}", out.display());
    }
    let counters = vic_sample::metrics_of(&stats);
    RunResult {
        spans: Spans {
            boot: ns(t0, t1),
            drive,
            collect: ns(t2, t3),
            output: ns(t3, t4),
            teardown: ns(t4, t5),
            wall: ns(t0, t5),
        },
        digest: stats_digest(&counters, stats.oracle_violations),
        counters,
        steps,
        ok: driven.is_ok() && written.is_ok() && stats.oracle_violations == 0,
    }
}

/// Where runs write their result document: next to the benchmark binary,
/// inside the build directory.
pub fn run_output_path() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.with_file_name("benchmark-run.json")
}

/// The process's peak resident set (`VmHWM`) in KiB, 0 where `/proc` is
/// missing.
pub fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The job indices a slice runs, in order, for a workload of `jobs` jobs.
pub fn order(workload: Workload, jobs: usize, mode: Mode) -> Vec<usize> {
    match mode {
        Mode::Twins => (0..jobs).collect(),
        Mode::Timed | Mode::Traced => workload.round(jobs),
    }
}

/// Run one slice and return its report line.
pub fn slice(workload: Workload, seed: u64, quick: bool, mode: Mode) -> String {
    let jobs = workload.jobs(seed, quick);
    let out = run_output_path();
    let order = order(workload, jobs.len(), mode);
    let fast_paths = mode != Mode::Twins;
    let mut phases = Phases::new();
    let traced = mode == Mode::Traced;

    if mode != Mode::Twins {
        drop(Kernel::new(jobs[order[0]].spec.kernel_config()));
        run_job(&jobs[order[0]], true, &out, None);
    }
    let mut untraced_walls = Vec::new();
    let t = Instant::now();
    let runs: Vec<RunResult> = order
        .iter()
        .enumerate()
        .map(|(i, &j)| {
            let job = &jobs[j];
            if !traced {
                return run_job(job, fast_paths, &out, None);
            }
            // Each traced run is paired with an untraced run of the same
            // job, in alternating order, so the tracing overhead compares
            // runs made under the same conditions.
            if i % 2 == 0 {
                untraced_walls.push(run_job(job, true, &out, None).spans.wall);
            }
            let r = run_job(job, true, &out, Some(&mut phases));
            if i % 2 == 1 {
                untraced_walls.push(run_job(job, true, &out, None).spans.wall);
            }
            r
        })
        .collect();
    let elapsed = t.elapsed().as_nanos() as u64;
    let vmhwm = vmhwm_kb();

    let mut probes = JsonObj::new();
    if traced {
        for (name, run) in PROBES {
            probes = probes.f64(name, run());
        }
    }
    let ok: Vec<&RunResult> = runs.iter().filter(|r| r.ok).collect();
    let mut sums = vec![0; vic_sample::METRICS.len()];
    for r in &ok {
        for (s, c) in sums.iter_mut().zip(&r.counters) {
            *s += c;
        }
    }
    let steps = ok.iter().map(|r| r.steps).sum();
    let counts = count_metrics(&sums, ok.len().max(1) as u64, steps)
        .into_iter()
        .fold(JsonObj::new(), |o, (name, v)| o.f64(name, v));
    let runs_json = json_array(order.iter().zip(&runs).map(|(&j, r)| {
        let s = r.spans;
        json_array(
            [
                j as u64,
                u64::from(r.ok),
                s.boot,
                s.drive,
                s.collect,
                s.output,
                s.teardown,
                s.wall,
            ]
            .iter()
            .map(u64::to_string)
            .chain([format!("\"{:016x}\"", r.digest)]),
        )
    }));
    let phases_json = phases
        .iter()
        .fold(JsonObj::new(), |o, ((name, phase), ns)| {
            o.u64(&format!("{name}/{phase}"), *ns)
        });
    JsonObj::new()
        .u64("elapsed_ns", elapsed)
        .u64("vmhwm_kb", vmhwm)
        .raw("runs", &runs_json)
        .raw(
            "untraced_walls",
            &json_array(untraced_walls.iter().map(u64::to_string)),
        )
        .u64("sim_cycles", sums[0]) // `metrics_of` leads with the cycle count
        .raw("counts", &counts.finish())
        .raw("phases", &phases_json.finish())
        .raw("probes", &probes.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_bench::SystemSpec;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    #[test]
    fn digest_is_stable_on_a_quick_fork_bench_spec() {
        let job = Job {
            spec: SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F)),
            seed: 0,
        };
        let out = run_output_path();
        let a = run_job(&job, true, &out, None);
        assert!(a.ok);
        let mut phases = Phases::new();
        let b = run_job(&job, true, &out, Some(&mut phases));
        assert_eq!(a.digest, b.digest, "timing changes no result");
        assert_eq!((&a.counters, a.steps), (&b.counters, b.steps));
        let counts = count_metrics(&a.counters, 1, a.steps);
        assert_eq!(counts[0], ("machine.cycles_per_run", a.counters[0] as f64));
        let stock = job.spec.run();
        let stock = stats_digest(&vic_sample::metrics_of(&stock), stock.oracle_violations);
        assert_eq!(a.digest, stock, "seed 0 runs the stock driver");
        let twin = run_job(&job, false, &out, None);
        assert_eq!(a.digest, twin.digest, "fast paths change no result");
        let seeded = run_job(&Job { seed: 7, ..job }, true, &out, None);
        assert_ne!(a.digest, seeded.digest, "the seed reaches the driver");

        let s = b.spans;
        let parts = s.boot + s.drive + s.collect + s.output + s.teardown;
        assert!(parts <= s.wall && s.wall - parts < s.wall / 10, "{s:?}");
        assert_eq!(phases.values().sum::<u64>(), s.drive);
    }
}

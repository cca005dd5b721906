//! The four workloads and the runs (jobs) each is made of.
//!
//! Every workload is a closed loop with one client: one run at a time on
//! one thread. They are built from the paper's two experiments, the
//! Table-4/5 grid and the §2.5 alias loop, and each stresses a different
//! layer (see the README for the measured shares).

use vic_bench::SystemSpec;
use vic_core::policy::Configuration;
use vic_os::SystemKind;
use vic_workloads::{
    AfsBench, AliasLoop, ForkBench, KernelBuild, LatexBench, StepWorkload, WorkloadKind,
};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 4 and 5 at paper scale: 23 specs, one pass per round.
    PaperGrid,
    /// The aligned alias loop: every write is a data-cache hit.
    AliasHit,
    /// The unaligned alias loop: every write is a consistency fault.
    AliasFault,
    /// latex-paper and fork-bench under all ten systems, six passes a round.
    ShortRuns,
}

/// CMU configuration F, the paper's full system.
const CMU_F: SystemKind = SystemKind::Cmu(Configuration::F);

impl Workload {
    /// Every workload, in reporting order (the order of `BENCHMARK.json`).
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::AliasHit,
        Workload::AliasFault,
        Workload::ShortRuns,
    ];

    /// The name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::AliasHit => "alias-hit",
            Workload::AliasFault => "alias-fault",
            Workload::ShortRuns => "short-runs",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether `--seed` changes the inputs. The alias loops have no seed:
    /// their op streams are fixed by their parameters.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::PaperGrid | Workload::ShortRuns)
    }

    /// The distinct runs of the workload, in pass order.
    pub fn jobs(self, seed: u64, quick: bool) -> Vec<Job> {
        let job = |workload, system| Job {
            spec: SystemSpec {
                quick,
                ..SystemSpec::new(workload, system)
            },
            seed,
        };
        match self {
            Workload::PaperGrid => SystemSpec::table4_grid(quick)
                .into_iter()
                .chain(SystemSpec::table5_grid(quick))
                .map(|spec| Job { spec, seed })
                .collect(),
            Workload::AliasHit => vec![job(WorkloadKind::AliasAligned, CMU_F)],
            Workload::AliasFault => vec![job(WorkloadKind::AliasUnaligned, CMU_F)],
            Workload::ShortRuns => [WorkloadKind::Latex, WorkloadKind::Fork]
                .into_iter()
                .flat_map(|w| all_systems().map(move |s| (w, s)))
                .map(|(w, s)| job(w, s))
                .collect(),
        }
    }

    /// Passes over [`Workload::jobs`] in one round. Sized so that a round
    /// takes about a second and a ten-round set makes at least 100 runs.
    pub fn passes_per_round(self) -> usize {
        match self {
            Workload::PaperGrid => 1,
            Workload::AliasHit => 10,
            Workload::AliasFault => 16,
            Workload::ShortRuns => 6,
        }
    }

    /// The job indices one round runs, in order.
    pub fn round(self, jobs: usize) -> Vec<usize> {
        (0..self.passes_per_round()).flat_map(|_| 0..jobs).collect()
    }
}

/// The ten comparable systems: CMU A–F and the four Table-5 kernels.
fn all_systems() -> impl Iterator<Item = SystemKind> {
    Configuration::ALL
        .into_iter()
        .map(SystemKind::Cmu)
        .chain(SystemKind::table5().into_iter().skip(1))
}

/// One run: a spec (kernel configuration and driver kind) plus the
/// benchmark seed its driver is built with.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// What to run, under which system.
    pub spec: SystemSpec,
    /// XORed into the seeds of kernel-build and fork-bench. Not into
    /// afs-bench's: its seed draws the file sizes, which move an afs run's
    /// host time by up to 20 %, and afs runs hold paper-grid's median, so
    /// ten seeds spread that median wider than its bound.
    pub seed: u64,
}

impl Job {
    /// The driver, with the benchmark's sizes and seed. Paper scale except
    /// for the alias loops, which are sized so one run times stably:
    /// 4M hit writes (~115 ms) and 250k faulting writes (~70 ms).
    pub fn driver(&self) -> Box<dyn StepWorkload> {
        let quick = self.spec.quick;
        match self.spec.workload {
            WorkloadKind::Afs => Box::new(pick(quick, AfsBench::paper(), AfsBench::quick())),
            WorkloadKind::KernelBuild => {
                let d = pick(quick, KernelBuild::paper(), KernelBuild::quick());
                Box::new(KernelBuild {
                    seed: d.seed ^ self.seed,
                    ..d
                })
            }
            WorkloadKind::Fork => {
                let d = pick(quick, ForkBench::paper(), ForkBench::quick());
                Box::new(ForkBench {
                    seed: d.seed ^ self.seed,
                    ..d
                })
            }
            WorkloadKind::Latex => Box::new(pick(quick, LatexBench::paper(), LatexBench::quick())),
            WorkloadKind::AliasAligned => Box::new(AliasLoop {
                iters: pick(quick, 4_000_000, 2_000),
                aligned: true,
            }),
            WorkloadKind::AliasUnaligned => Box::new(AliasLoop {
                iters: pick(quick, 250_000, 2_000),
                aligned: false,
            }),
        }
    }
}

/// The paper-scale or the quick value.
fn pick<T>(quick: bool, paper: T, small: T) -> T {
    if quick {
        small
    } else {
        paper
    }
}

/// The digest of a run's simulated results: `hash_words` over its
/// counters (`vic_sample::metrics_of`, not the JSON bytes, so a change to
/// the writer does not change it) and the oracle's violation count.
pub fn stats_digest(counters: &[u64], oracle_violations: u64) -> u64 {
    let mut words = counters.to_vec();
    words.push(oracle_violations);
    vic_core::hash_words(&words)
}

/// The count metrics of `runs` runs, from the element-wise sum of their
/// `vic_sample::metrics_of` counters and their total `StepWorkload::step`
/// calls: per-run means, and two ratios of useful work.
pub fn count_metrics(sums: &[u64], runs: u64, steps: u64) -> Vec<(&'static str, f64)> {
    let c = |name| sums[vic_sample::metric_index(name).expect("a vic-sample counter")];
    let per_run = |x: u64| x as f64 / runs as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("machine.cycles_per_run", per_run(c("cycles"))),
        (
            "machine.accesses_per_run",
            per_run(c("loads") + c("stores") + c("ifetches")),
        ),
        (
            "machine.dcache_hit_ratio",
            ratio(c("d_hits"), c("d_hits") + c("d_misses")),
        ),
        ("machine.tlb_misses_per_run", per_run(c("tlb_misses"))),
        ("machine.writebacks_per_run", per_run(c("writebacks"))),
        (
            "machine.lines_per_flush",
            ratio(c("flush_writebacks"), c("d_flush_pages")),
        ),
        ("core.flushes_per_run", per_run(c("mgr_flushes"))),
        ("core.purges_per_run", per_run(c("mgr_purges"))),
        (
            "os.consistency_faults_per_run",
            per_run(c("consistency_faults")),
        ),
        ("os.mapping_faults_per_run", per_run(c("mapping_faults"))),
        (
            "os.page_preps_per_run",
            per_run(c("zero_fills") + c("page_copies")),
        ),
        (
            "os.dma_pages_per_run",
            per_run(c("dma_writes") + c("dma_reads")),
        ),
        ("workloads.steps_per_run", per_run(steps)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_and_short_runs_have_the_documented_sizes() {
        assert_eq!(Workload::PaperGrid.jobs(0, false).len(), 23);
        assert_eq!(Workload::ShortRuns.jobs(0, false).len(), 20);
        for w in Workload::ALL {
            let per_set = 10 * w.round(w.jobs(0, false).len()).len();
            assert!(per_set >= 100, "{}: {per_set} runs per set", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}

//! Cross-crate assertions of the paper's experimental claims — the
//! "shape" of every table, checked on every `cargo test`.
//!
//! Quick-scale runs are used where the effect is scale-independent; the
//! full HP 720 geometry is used where the small test geometry (4 cache
//! pages) would make accidental alignment too common.

mod common;

use common::unobserved;
use vic::core::manager::OpCause;
use vic::core::policy::Configuration;
use vic::os::{KernelConfig, SystemKind};
use vic::workloads::{AfsBench, AliasLoop, KernelBuild, LatexBench, RunStats, StepWorkload};

/// `w` under configurations A and F, on the machine `size` builds.
fn old_new(w: &dyn StepWorkload, size: fn(SystemKind) -> KernelConfig) -> (RunStats, RunStats) {
    (
        unobserved(size(SystemKind::Cmu(Configuration::A)), w),
        unobserved(size(SystemKind::Cmu(Configuration::F)), w),
    )
}

/// Table 1: the new system wins on every benchmark, with fewer flushes and
/// purges, and nobody ever observes stale data.
#[test]
fn table1_new_beats_old_everywhere() {
    for w in [
        &AfsBench::quick() as &dyn StepWorkload,
        &LatexBench::quick(),
        &KernelBuild::quick(),
    ] {
        let (old, new) = old_new(w, KernelConfig::small);
        assert_eq!(old.oracle_violations, 0, "{}", w.name());
        assert_eq!(new.oracle_violations, 0, "{}", w.name());
        assert!(
            new.cycles < old.cycles,
            "{}: new {} !< old {}",
            w.name(),
            new.cycles,
            old.cycles
        );
        assert!(new.total_flushes() <= old.total_flushes(), "{}", w.name());
    }
}

/// Table 1 at full geometry: the gains land in the paper's bands
/// (afs ~10 %, latex ~5 %, kernel-build ~8.5 %).
#[test]
fn table1_gains_match_paper_bands() {
    let cases: [(&dyn StepWorkload, f64, f64); 3] = [
        (&AfsBench::paper(), 7.0, 14.0),
        (&LatexBench::paper(), 2.5, 8.0),
        (&KernelBuild::paper(), 5.5, 12.0),
    ];
    for (w, lo, hi) in cases {
        let (old, new) = old_new(w, KernelConfig::new);
        let gain = new.gain_over(&old);
        assert!(
            (lo..=hi).contains(&gain),
            "{}: gain {gain:.1}% outside [{lo}, {hi}] (paper: 10/5/8.5)",
            w.name()
        );
    }
}

/// Table 4: elapsed time is non-increasing across the cumulative
/// configurations A -> F for every benchmark.
#[test]
fn table4_configurations_are_monotone() {
    for w in [
        &AfsBench::paper() as &dyn StepWorkload,
        &LatexBench::paper(),
        &KernelBuild::paper(),
    ] {
        let mut prev: Option<u64> = None;
        for cfg in Configuration::ALL {
            let s = unobserved(KernelConfig::new(SystemKind::Cmu(cfg)), w);
            assert_eq!(s.oracle_violations, 0, "{} {cfg}", w.name());
            if let Some(p) = prev {
                // Allow modest slack (1.5%): B (lazy unmap alone) can cost slightly
                // more than A in a zero-fill-always kernel (see EXPERIMENTS.md);
                // the substantial steps (C, D) must still be monotone.
                assert!(
                    s.cycles as f64 <= p as f64 * 1.015,
                    "{}: config {cfg} regressed ({} > {})",
                    w.name(),
                    s.cycles,
                    p
                );
            }
            prev = Some(s.cycles);
        }
    }
}

/// §5.1: under configuration F, mapping faults dwarf consistency faults
/// and are constant across configurations (they are not a virtual-cache
/// cost).
#[test]
fn mapping_faults_constant_consistency_faults_drop() {
    let w = KernelBuild::paper();
    let a = unobserved(KernelConfig::new(SystemKind::Cmu(Configuration::A)), &w);
    let f = unobserved(KernelConfig::new(SystemKind::Cmu(Configuration::F)), &w);
    assert_eq!(
        a.os.mapping_faults, f.os.mapping_faults,
        "mapping faults occur regardless of the cache architecture"
    );
    assert!(
        f.os.consistency_faults < a.os.consistency_faults,
        "consistency faults must drop substantially: {} vs {}",
        f.os.consistency_faults,
        a.os.consistency_faults
    );
}

/// §5.1: under F, flushes collapse to the unavoidable ones — DMA-reads and
/// data→instruction-space copies.
#[test]
fn config_f_flushes_are_dma_plus_text() {
    for w in [
        &AfsBench::paper() as &dyn StepWorkload,
        &KernelBuild::paper(),
    ] {
        let s = unobserved(KernelConfig::new(SystemKind::Cmu(Configuration::F)), w);
        let dma = s.mgr.d_flush_pages.get(OpCause::DmaRead);
        let text = s.mgr.d_flush_pages.get(OpCause::TextCopy);
        let total = s.mgr.d_flush_pages.total();
        assert!(
            dma + text >= total * 95 / 100,
            "{}: flushes {total} not dominated by DMA {dma} + text {text}",
            w.name()
        );
    }
}

/// §5.1: most purges under F stem from new mappings (random frames from
/// the free list), with text copies and DMA-writes as the other causes.
#[test]
fn config_f_purges_dominated_by_new_mappings() {
    let s = unobserved(
        KernelConfig::new(SystemKind::Cmu(Configuration::F)),
        &KernelBuild::paper(),
    );
    let nm = s.mgr.d_purge_pages.get(OpCause::NewMapping);
    assert!(
        nm * 2 > s.mgr.d_purge_pages.total(),
        "new mappings {nm} of {} data purges",
        s.mgr.d_purge_pages.total()
    );
}

/// §2.5: the contrived microbenchmark — unaligned aliasing is catastrophic,
/// aligned aliasing is free.
#[test]
fn microbenchmark_alias_ratio() {
    let sys = SystemKind::Cmu(Configuration::F);
    let aligned = unobserved(KernelConfig::new(sys), &AliasLoop::quick(true));
    let unaligned = unobserved(KernelConfig::new(sys), &AliasLoop::quick(false));
    let ratio = unaligned.cycles as f64 / aligned.cycles as f64;
    assert!(ratio > 100.0, "paper: ~seconds vs minutes; got {ratio:.0}x");
    assert_eq!(aligned.total_flushes() + aligned.total_purges(), 0);
}

/// §5.1: the 720 purges no faster than it flushes, the instruction cache
/// purges in constant time, and the proposed single-cycle purge would
/// recover the purge overhead.
#[test]
fn fast_purge_what_if_saves_time() {
    let sys = SystemKind::Cmu(Configuration::F);
    let w = KernelBuild::quick();
    let normal = unobserved(KernelConfig::new(sys), &w);
    let mut fast = KernelConfig::new(sys);
    fast.machine.costs = fast.machine.costs.fast_purge();
    let fast = unobserved(fast, &w);
    assert!(
        fast.cycles < normal.cycles,
        "single-cycle purge must save cycles: {} vs {}",
        fast.cycles,
        normal.cycles
    );
}

/// Table 5: the CMU system outperforms every baseline on the
/// file-intensive benchmark; every baseline is still correct.
#[test]
fn table5_cmu_wins_baselines_correct() {
    let w = AfsBench::quick();
    let cmu = unobserved(KernelConfig::new(SystemKind::Cmu(Configuration::F)), &w);
    assert_eq!(cmu.oracle_violations, 0);
    for sys in [
        SystemKind::Utah,
        SystemKind::Apollo,
        SystemKind::Tut,
        SystemKind::Sun,
    ] {
        let s = unobserved(KernelConfig::new(sys), &w);
        assert_eq!(s.oracle_violations, 0, "{sys:?} must be correct");
        assert!(
            cmu.cycles <= s.cycles,
            "CMU {} should beat {sys:?} {}",
            cmu.cycles,
            s.cycles
        );
    }
}

/// Table 5, Sun: unaligned aliases become uncached — correct, but paying
/// per-access memory costs.
#[test]
fn sun_goes_uncached_on_aliases() {
    let sys = SystemKind::Sun;
    let s = unobserved(KernelConfig::new(sys), &AliasLoop::quick(false));
    assert_eq!(s.oracle_violations, 0);
    assert!(
        s.machine.uncached > 1_000,
        "the alias loop should run uncached under Sun: {} uncached accesses",
        s.machine.uncached
    );
}

/// Tut reuses residue only at the *same* virtual address: aligned-but-
/// different addresses still pay, so Tut does more work than CMU on the
/// recycling-heavy build.
#[test]
fn tut_pays_more_than_cmu_on_recycling() {
    let w = KernelBuild::quick();
    let cmu = unobserved(KernelConfig::new(SystemKind::Cmu(Configuration::F)), &w);
    let tut = unobserved(KernelConfig::new(SystemKind::Tut), &w);
    assert_eq!(tut.oracle_violations, 0);
    assert!(
        tut.total_flushes() + tut.total_purges() >= cmu.total_flushes() + cmu.total_purges(),
        "tut {}+{} vs cmu {}+{}",
        tut.total_flushes(),
        tut.total_purges(),
        cmu.total_flushes(),
        cmu.total_purges()
    );
}

/// The paper's bottom line: total virtually-indexed-cache overhead under F
/// is a small fraction of execution time (<1 % here; paper: 0.22 %).
#[test]
fn total_overhead_is_small() {
    let s = unobserved(
        KernelConfig::new(SystemKind::Cmu(Configuration::F)),
        &KernelBuild::paper(),
    );
    let costs = vic::machine::CycleCosts::hp720();
    let fault_cycles = s.os.consistency_faults * costs.consistency_fault_service;
    let purge_cycles = s.machine.d_purge_pages.cycles + s.machine.i_purge_pages.cycles;
    let overhead = (fault_cycles + purge_cycles) as f64 / s.cycles as f64;
    assert!(
        overhead < 0.04,
        "consistency overhead {:.2}% should be a small fraction",
        overhead * 100.0
    );
}

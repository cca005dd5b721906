//! §3.3 — "Application to other architectures": end-to-end checks that the
//! consistency machinery behaves as the paper predicts on variant
//! hardware.

mod common;

use common::unobserved;
use vic::core::policy::Configuration;
use vic::machine::WritePolicy;
use vic::os::{KernelConfig, SystemKind};
use vic::workloads::{AfsBench, AliasLoop, KernelBuild, StepWorkload};

fn wt_config(sys: SystemKind) -> KernelConfig {
    let mut cfg = KernelConfig::small(sys);
    cfg.machine.write_policy = WritePolicy::WriteThrough;
    cfg
}

/// With a write-through cache, memory is never stale with respect to the
/// cache: every workload stays oracle-clean and no flush ever writes
/// anything back (the flush operation is unnecessary, as §3.3 states).
#[test]
fn write_through_no_flush_ever_writes_back() {
    for sys in [
        SystemKind::Cmu(Configuration::A),
        SystemKind::Cmu(Configuration::F),
        SystemKind::Utah,
        SystemKind::Tut,
        SystemKind::Sun,
    ] {
        for w in [
            &AfsBench::quick() as &dyn StepWorkload,
            &KernelBuild::quick(),
            &AliasLoop::quick(false),
        ] {
            let s = unobserved(wt_config(sys), w);
            assert_eq!(s.oracle_violations, 0, "{sys:?}/{}", w.name());
            assert_eq!(
                s.machine.flush_writebacks,
                0,
                "{sys:?}/{}: write-through lines are never dirty",
                w.name()
            );
            assert_eq!(s.machine.writebacks, 0, "{sys:?}/{}", w.name());
        }
    }
}

/// The alias problem does NOT go away with write-through (§3.3 removes
/// only the dirty state): the unaligned loop still needs per-crossing
/// consistency work, while the aligned loop stays free.
#[test]
fn write_through_still_needs_alias_management() {
    let sys = SystemKind::Cmu(Configuration::F);
    let unaligned = unobserved(wt_config(sys), &AliasLoop::quick(false));
    let aligned = unobserved(wt_config(sys), &AliasLoop::quick(true));
    assert_eq!(unaligned.oracle_violations, 0);
    assert!(
        unaligned.os.consistency_faults > 1_000,
        "unaligned aliases still fault: {}",
        unaligned.os.consistency_faults
    );
    assert_eq!(aligned.total_flushes() + aligned.total_purges(), 0);
}

/// A physically indexed cache corresponds to the degenerate geometry where
/// every virtual page aligns (one cache page): the third column of Table 2
/// becomes irrelevant and only DMA needs management — the alias loop runs
/// without any consistency work.
#[test]
fn single_cache_page_geometry_behaves_physically_indexed() {
    let sys = SystemKind::Cmu(Configuration::F);
    let mut cfg = KernelConfig::small(sys);
    // One page per cache: all virtual pages align.
    cfg.machine.dcache_bytes = cfg.machine.page_size;
    cfg.machine.icache_bytes = cfg.machine.page_size;
    let s = unobserved(cfg, &AliasLoop::quick(false));
    assert_eq!(s.oracle_violations, 0);
    assert_eq!(
        s.total_flushes() + s.total_purges(),
        0,
        "every alias aligns: no cache management at all"
    );
}

/// DMA consistency is independent of the write policy and geometry: file
/// I/O (DMA both ways) is clean everywhere.
#[test]
fn dma_clean_across_architectures() {
    for (label, cfg) in [
        (
            "write-back",
            KernelConfig::small(SystemKind::Cmu(Configuration::F)),
        ),
        (
            "write-through",
            wt_config(SystemKind::Cmu(Configuration::F)),
        ),
        ("physically-indexed", {
            let mut c = KernelConfig::small(SystemKind::Cmu(Configuration::F));
            c.machine.dcache_bytes = c.machine.page_size;
            c.machine.icache_bytes = c.machine.page_size;
            c
        }),
    ] {
        let s = unobserved(cfg, &AfsBench::quick());
        assert_eq!(s.oracle_violations, 0, "{label}");
        assert!(s.machine.dma_reads > 0, "{label}: disk traffic happened");
    }
}

/// §3.3 set-associative caches: the consistency rules are unchanged —
/// every workload runs oracle-clean on a 2-way machine under every
/// manager, and associativity reduces conflict misses.
#[test]
fn set_associative_unchanged_rules() {
    use vic::workloads::LatexBench;
    for sys in [
        SystemKind::Cmu(Configuration::A),
        SystemKind::Cmu(Configuration::F),
        SystemKind::Utah,
        SystemKind::Sun,
    ] {
        let mut cfg = KernelConfig::small(sys);
        cfg.machine.dcache_assoc = 2;
        cfg.machine.icache_assoc = 2;
        for w in [
            &AfsBench::quick() as &dyn StepWorkload,
            &LatexBench::quick(),
            &AliasLoop::quick(false),
        ] {
            let s = unobserved(cfg, w);
            assert_eq!(s.oracle_violations, 0, "{sys:?}/{}", w.name());
        }
    }
}

/// Associativity reduces data-cache misses on the build workload (fewer
/// conflict evictions), with identical results.
#[test]
fn associativity_reduces_misses() {
    let sys = SystemKind::Cmu(Configuration::F);
    let direct = unobserved(KernelConfig::new(sys), &KernelBuild::quick());
    let mut cfg = KernelConfig::new(sys);
    cfg.machine.dcache_assoc = 2;
    let two_way = unobserved(cfg, &KernelBuild::quick());
    assert_eq!(two_way.oracle_violations, 0);
    assert!(
        two_way.machine.d_misses <= direct.machine.d_misses,
        "2-way {} vs direct {}",
        two_way.machine.d_misses,
        direct.machine.d_misses
    );
}

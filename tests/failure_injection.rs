//! Failure injection: every class of cache operation a correct manager
//! performs is load-bearing. Suppressing any one class from the full CMU/F
//! manager produces observable staleness on real workloads — caught by the
//! oracle — which in turn certifies that the oracle-clean runs elsewhere
//! in the suite are meaningful for every failure mode, not just total
//! absence of management.
//!
//! This is the end-to-end companion of the model-level necessity check in
//! `vic_core::spec` (each of Table 2's six flush/purge cells is
//! individually necessary).

mod common;

use common::unobserved;
use vic::core::managers::DropClass;
use vic::core::policy::Configuration;
use vic::os::{Kernel, KernelConfig, ShareAlignment, SystemKind};
use vic::workloads::{AfsBench, KernelBuild, StepWorkload};
use vic_core::types::CpuId;

/// A run of the given workload under a sabotaged manager must trip the
/// oracle; the same workload under the intact manager must not.
fn assert_drop_is_caught(drop: DropClass, w: &dyn StepWorkload) {
    let clean = unobserved(KernelConfig::small(SystemKind::Cmu(Configuration::F)), w);
    assert_eq!(clean.oracle_violations, 0, "the intact manager is correct");
    let broken = unobserved(KernelConfig::small(SystemKind::Chaos(drop)), w);
    assert!(
        broken.oracle_violations > 0,
        "dropping {drop:?} must produce staleness on {}",
        w.name()
    );
}

#[test]
fn dropping_flushes_is_caught() {
    // Flushes carry dirty data to memory before DMA and refills: the
    // file-intensive workload exposes their absence.
    assert_drop_is_caught(DropClass::Flushes, &AfsBench::quick());
}

#[test]
fn dropping_data_purges_is_caught() {
    // Purges keep stale lines from shadowing fresh memory. The exposing
    // pattern needs CLEAN resident lines on a recycled frame (dirty data
    // is protected by flushes, which stay intact), which in turn needs the
    // residue to survive until the frame's reuse: a 2-slot buffer cache
    // whose slots do not conflict in the 4-page test cache, cycled by
    // sequential re-reads. (Larger buffer caches self-clean by conflict
    // eviction — silent survival of the bug, which is exactly why the
    // injection harness exists.)
    let run = |sys| {
        let mut cfg = KernelConfig::small(sys);
        cfg.buffer_slots = 2;
        let mut k = Kernel::new(cfg);
        buffer_churn(&mut k);
        k.machine().oracle().violations()
    };
    assert_eq!(run(SystemKind::Cmu(Configuration::F)), 0);
    assert!(run(SystemKind::Chaos(DropClass::DataPurges)) > 0);
}

/// Cycle clean pages through a tiny buffer cache (see
/// `dropping_data_purges_is_caught`).
fn buffer_churn(k: &mut Kernel) {
    let t = k.create_task();
    let buf = k.vm_allocate(t, 1).unwrap();
    let f = k.fs_create();
    for p in 0..3u64 {
        k.write(CpuId::BOOT, t, buf, 0xAB00 + p as u32).unwrap();
        k.fs_write_page(CpuId::BOOT, t, f, p, buf).unwrap();
    }
    k.sync(CpuId::BOOT);
    let dst = k.vm_allocate(t, 1).unwrap();
    for &p in &[0u64, 1, 2, 0, 1, 2] {
        let _ = k.fs_read_page(CpuId::BOOT, t, f, p, dst);
    }
}

#[test]
fn dropping_insn_purges_is_caught() {
    // Instruction purges keep stale text from executing; exec-heavy
    // recycling exposes their absence.
    assert_drop_is_caught(DropClass::InsnPurges, &KernelBuild::quick());
}

#[test]
fn flushes_becoming_purges_is_caught() {
    // Discarding dirty data instead of writing it back silently loses
    // writes.
    assert_drop_is_caught(DropClass::FlushesBecomePurges, &AfsBench::quick());
}

/// A directed minimal scenario per drop class (useful failure signatures
/// when the workload-level tests fire).
#[test]
fn directed_minimal_scenarios() {
    // Flushes: dirty alias read.
    let mut k = Kernel::new(KernelConfig::small(SystemKind::Chaos(DropClass::Flushes)));
    let a = k.create_task();
    let b = k.create_task();
    let va = k.vm_allocate(a, 1).unwrap();
    k.write(CpuId::BOOT, a, va, 42).unwrap();
    let vb = k
        .vm_share_with(CpuId::BOOT, a, va, b, ShareAlignment::Unaligned)
        .unwrap();
    let _ = k.read(CpuId::BOOT, b, vb).unwrap();
    assert!(
        k.machine().oracle().violations() > 0,
        "flush drop undetected"
    );

    // Data purges: a DMA-write shadowed by resident CLEAN lines of the
    // recycled frame (dirty lines would be protected by flushes).
    let mut cfg = KernelConfig::small(SystemKind::Chaos(DropClass::DataPurges));
    cfg.buffer_slots = 2;
    let mut k = Kernel::new(cfg);
    buffer_churn(&mut k);
    assert!(
        k.machine().oracle().violations() > 0,
        "purge drop undetected (violations = {})",
        k.machine().oracle().violations()
    );
}

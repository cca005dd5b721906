//! Probes: the cost of one call into a single layer, timed from outside.
//!
//! Each probe sets its layer up outside the timing, then times batches of
//! calls and reports the median batch's cost per call. Every traced child
//! runs every probe after its traced round, so each probe also runs in the
//! process state of the workload it maps to (see the README's table).

use std::hint::black_box;
use std::time::{Duration, Instant};

use vic_bench::output::run_json;
use vic_bench::SystemSpec;
use vic_core::cache_control::{cache_control, CcOp, RecordingHw};
use vic_core::manager::AccessHints;
use vic_core::page_state::PhysPageInfo;
use vic_core::policy::Configuration;
use vic_core::types::{
    CacheGeometry, CachePage, CpuId, Mapping, PFrame, Prot, SpaceId, VAddr, VPage,
};
use vic_machine::{Machine, MachineConfig};
use vic_os::{Kernel, KernelConfig, ShareAlignment, SystemKind, TaskId};
use vic_workloads::WorkloadKind;

use crate::stats::median;

/// A probe: its metric name (the unit is the name's suffix) and the
/// measurement, in that unit.
pub type Probe = (&'static str, fn() -> f64);

/// Every probe, by layer.
pub const PROBES: &[Probe] = &[
    ("machine.new_ms", machine_new_ms),
    ("machine.store_hit_ns", machine_store_hit_ns),
    ("machine.load_hit_ns", machine_load_hit_ns),
    ("machine.store_run_page_ns", machine_store_run_page_ns),
    ("machine.copy_run_page_ns", machine_copy_run_page_ns),
    ("machine.flush_page_ns", machine_flush_page_ns),
    ("machine.purge_page_ns", machine_purge_page_ns),
    ("machine.set_protection_ns", machine_set_protection_ns),
    ("core.cc_write_pingpong_ns", core_cc_write_pingpong_ns),
    ("core.cc_read_ns", core_cc_read_ns),
    ("core.cc_dma_write_ns", core_cc_dma_write_ns),
    ("os.write_hit_ns", os_write_hit_ns),
    ("os.write_fault_ns", os_write_fault_ns),
    ("os.fs_read_page_ns", os_fs_read_page_ns),
    ("os.server_round_trip_ns", os_server_round_trip_ns),
    ("os.zero_fill_fault_ns", os_zero_fill_fault_ns),
    ("bench.run_json_us", bench_run_json_us),
];

/// Timed batches per probe; one more runs first, untimed, as a warm-up.
const BATCHES: usize = 21;

/// The median over [`BATCHES`] of nanoseconds per call. `batch` does its
/// own untimed setup and returns the time its calls took and their number.
fn per_call(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    batch();
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (t, calls) = batch();
            t.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per)
}

/// Time `calls` calls of `f` (given the call index).
fn timed(calls: u64, mut f: impl FnMut(u64)) -> (Duration, u64) {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (t.elapsed(), calls)
}

const SPACE: SpaceId = SpaceId(1);
const CPU: CpuId = CpuId::BOOT;
const PAGE: u64 = 4096;
const WORDS: u64 = PAGE / 4;
const CMU_F: SystemKind = SystemKind::Cmu(Configuration::F);

/// A paper-scale machine with virtual pages `0..pages` mapped read-write
/// to frames `100..`, each page's every line already in the cache.
fn machine(pages: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::hp720());
    for p in 0..pages {
        m.enter_mapping(
            Mapping::new(SPACE, VPage(p)),
            PFrame(100 + p),
            Prot::READ_WRITE,
        );
        for w in 0..WORDS {
            m.store(SPACE, VAddr(p * PAGE + w * 4), 0)
                .expect("mapped read-write");
        }
    }
    m
}

fn machine_new_ms() -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let m = black_box(Machine::new(MachineConfig::hp720()));
            let e = t.elapsed();
            drop(m);
            e.as_secs_f64() * 1e3
        })
        .collect();
    median(&per)
}

fn machine_store_hit_ns() -> f64 {
    let mut m = machine(1);
    per_call(|| {
        timed(8192, |i| {
            m.store(SPACE, VAddr((i % WORDS) * 4), i as u32)
                .expect("mapped");
        })
    })
}

fn machine_load_hit_ns() -> f64 {
    let mut m = machine(1);
    per_call(|| {
        timed(8192, |i| {
            black_box(m.load(SPACE, VAddr((i % WORDS) * 4)).expect("mapped"));
        })
    })
}

fn machine_store_run_page_ns() -> f64 {
    let mut m = machine(1);
    let values = vec![7u32; WORDS as usize];
    per_call(|| {
        timed(64, |_| {
            m.store_run(SPACE, VAddr(0), 4, &values).expect("mapped");
        })
    })
}

fn machine_copy_run_page_ns() -> f64 {
    let mut m = machine(2);
    per_call(|| {
        timed(64, |_| {
            m.copy_run(SPACE, VAddr(0), SPACE, VAddr(PAGE), WORDS as usize)
                .expect("mapped");
        })
    })
}

/// Pages whose single cached line the flush and purge probes act on: one
/// line per page, no two in the same cache line, as the alias-fault loop
/// leaves a page between faults.
const ONE_LINE_PAGES: u64 = 512;

fn one_line_addr(p: u64) -> VAddr {
    // 64 cache pages of 128 lines: page p holds line p / 64 of cache page
    // p % 64, so all 512 lines coexist in the direct-mapped cache.
    VAddr(p * PAGE + (p / 64) * 32)
}

fn one_line_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::hp720());
    for p in 0..ONE_LINE_PAGES {
        m.enter_mapping(
            Mapping::new(SPACE, VPage(p)),
            PFrame(100 + p),
            Prot::READ_WRITE,
        );
    }
    m
}

fn machine_flush_page_ns() -> f64 {
    let mut m = one_line_machine();
    per_call(|| {
        for p in 0..ONE_LINE_PAGES {
            m.store(SPACE, one_line_addr(p), 1).expect("mapped");
        }
        timed(ONE_LINE_PAGES, |p| {
            m.flush_dcache_page(CachePage((p % 64) as u32), PFrame(100 + p));
        })
    })
}

fn machine_purge_page_ns() -> f64 {
    let mut m = one_line_machine();
    per_call(|| {
        for p in 0..ONE_LINE_PAGES {
            black_box(m.load(SPACE, one_line_addr(p)).expect("mapped"));
        }
        timed(ONE_LINE_PAGES, |p| {
            m.purge_dcache_page(CachePage((p % 64) as u32), PFrame(100 + p));
        })
    })
}

fn machine_set_protection_ns() -> f64 {
    let mut m = machine(1);
    let map = Mapping::new(SPACE, VPage(0));
    per_call(|| {
        timed(4096, |i| {
            let prot = if i % 2 == 0 {
                Prot::READ
            } else {
                Prot::READ_WRITE
            };
            m.set_protection(map, prot);
        })
    })
}

/// `cache_control` on a frame with the given mappings, against a
/// recording hardware double (its logs are cleared outside the timing).
fn cc_probe(mappings: &[(u32, u64)], op: CcOp, target: impl Fn(u64) -> Option<VPage>) -> f64 {
    let geom = CacheGeometry::new(64, 32);
    let mut hw = RecordingHw::new(geom);
    let mut info = PhysPageInfo::new(geom);
    for &(space, vp) in mappings {
        info.add_mapping(Mapping::new(SpaceId(space), VPage(vp)), Prot::READ_WRITE);
    }
    per_call(|| {
        hw.flushes.clear();
        hw.purges.clear();
        hw.insn_purges.clear();
        timed(4096, |i| {
            black_box(cache_control(
                &mut hw,
                &mut info,
                PFrame(1),
                op,
                target(i),
                AccessHints::default(),
            ));
        })
    })
}

fn core_cc_write_pingpong_ns() -> f64 {
    // Alternating writes through two unaligned aliases: flush, purge and
    // reprotect on every call.
    cc_probe(&[(1, 0), (2, 1)], CcOp::CpuWrite, |i| Some(VPage(i % 2)))
}

fn core_cc_read_ns() -> f64 {
    cc_probe(&[(1, 0), (2, 64)], CcOp::CpuRead, |_| Some(VPage(0)))
}

fn core_cc_dma_write_ns() -> f64 {
    let eight: Vec<(u32, u64)> = (0..8).map(|i| (i, u64::from(i))).collect();
    cc_probe(&eight, CcOp::DmaWrite, |_| None)
}

/// A paper-scale CMU/F kernel with one task.
fn kernel() -> (Kernel, TaskId) {
    let mut k = Kernel::new(KernelConfig::new(CMU_F));
    let t = k.create_task();
    (k, t)
}

fn os_write_hit_ns() -> f64 {
    let (mut k, t) = kernel();
    let va = k.vm_allocate(t, 1).expect("task exists");
    for w in 0..WORDS {
        k.write(CPU, t, VAddr(va.0 + w * 4), 0).expect("fault in");
    }
    per_call(|| {
        timed(8192, |i| {
            k.write(CPU, t, VAddr(va.0 + (i % WORDS) * 4), i as u32)
                .expect("resident page");
        })
    })
}

fn os_write_fault_ns() -> f64 {
    // The alias-fault loop's setup: two unaligned aliases of one frame.
    let (mut k, t) = kernel();
    let va1 = k.vm_allocate(t, 1).expect("task exists");
    k.write(CPU, t, va1, 0).expect("fault in");
    let va2 = k
        .vm_share_with(CPU, t, va1, t, ShareAlignment::Unaligned)
        .expect("share");
    per_call(|| {
        timed(1024, |i| {
            let va = if i % 2 == 0 { va1 } else { va2 };
            k.write(CPU, t, va, i as u32).expect("consistency fault");
        })
    })
}

fn os_fs_read_page_ns() -> f64 {
    let (mut k, t) = kernel();
    let buf = k.vm_allocate(t, 1).expect("task exists");
    k.write(CPU, t, buf, 1).expect("fault in");
    let f = k.fs_create();
    k.fs_write_page(CPU, t, f, 0, buf).expect("write");
    per_call(|| {
        timed(256, |_| {
            k.fs_read_page(CPU, t, f, 0, buf).expect("buffer-cache hit");
        })
    })
}

fn os_server_round_trip_ns() -> f64 {
    let (mut k, t) = kernel();
    k.server_round_trip(CPU, t).expect("open the channel");
    per_call(|| {
        timed(1024, |_| {
            k.server_round_trip(CPU, t).expect("round trip");
        })
    })
}

fn os_zero_fill_fault_ns() -> f64 {
    let (mut k, t) = kernel();
    per_call(|| {
        timed(256, |_| {
            let va = k.vm_allocate(t, 1).expect("task exists");
            k.write(CPU, t, va, 1).expect("zero-fill fault");
            k.vm_deallocate(CPU, t, va, 1).expect("deallocate");
        })
    })
}

fn bench_run_json_us() -> f64 {
    let spec = SystemSpec::quick(WorkloadKind::Afs, CMU_F);
    let stats = spec.run();
    per_call(|| {
        timed(256, |_| {
            black_box(run_json(&spec, &stats, None));
        })
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_is_named_by_unit_and_unique() {
        let mut names: Vec<&str> = PROBES.iter().map(|p| p.0).collect();
        assert!(names
            .iter()
            .all(|n| n.ends_with("_ns") || n.ends_with("_us") || n.ends_with("_ms")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROBES.len());
    }
}

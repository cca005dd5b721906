//! The zero-cost-when-disabled guarantee, enforced with a counting
//! global allocator: with no observers attached (the default), the
//! machine's access hot path — loads, stores, ifetches, including misses
//! and writebacks — performs **zero heap allocations**. Nothing attached
//! is one `Option` test per access, and a disabled profiler one per span
//! site, nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vic_core::types::{Mapping, PFrame, Prot, SpaceId, VPage};
use vic_machine::{Machine, MachineConfig, Observers};
use vic_profile::Profiler;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread because the test
    /// harness runs tests in parallel: a process-wide count would charge
    /// one test with another's allocations. The code under test is
    /// single-threaded, so its own thread sees every allocation it makes.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

fn steady_state_machine() -> (Machine, SpaceId, Vec<vic_core::types::VAddr>) {
    let mut m = Machine::new(MachineConfig::small());
    let sp = SpaceId(1);
    let mut vas = Vec::new();
    for vp in 0..4u64 {
        m.enter_mapping(
            Mapping::new(sp, VPage(vp)),
            PFrame(vp + 2),
            Prot::READ_WRITE,
        );
        vas.push(m.config().vaddr(VPage(vp)));
    }
    // Warm up: fault in TLB entries and cache lines so the measured
    // loop is the steady state, not first-touch growth of internal
    // tables.
    for &va in &vas {
        m.store(sp, va, 7).unwrap();
        let _ = m.load(sp, va).unwrap();
    }
    (m, sp, vas)
}

#[test]
fn disabled_profiler_allocates_nothing_on_the_access_path() {
    let (mut m, sp, vas) = steady_state_machine();
    assert!(m.observers().is_none(), "nothing is attached by default");

    let (allocs, _) = allocations_during(|| {
        for round in 0..64u32 {
            for &va in &vas {
                m.store(sp, va, round).unwrap();
                assert_eq!(m.load(sp, va).unwrap(), round);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "profiler-off steady-state accesses must not touch the heap"
    );
}

#[test]
fn steady_state_miss_path_allocates_nothing() {
    // The miss path too — fill, eviction, write-back — not only hits.
    // vp0 and vp4 collide in the small config's 4-page data cache but map
    // distinct frames (one mapping per frame, so no aliasing and no
    // oracle-violation logging): alternating stores conflict-miss and
    // write back forever, even in the steady state.
    let mut m = Machine::new(MachineConfig::small());
    let sp = SpaceId(1);
    for (vp, f) in [(0u64, 2u64), (4, 3)] {
        m.enter_mapping(Mapping::new(sp, VPage(vp)), PFrame(f), Prot::READ_WRITE);
    }
    let va0 = m.config().vaddr(VPage(0));
    let va4 = m.config().vaddr(VPage(4));
    // Warm up the TLB, oracle shadow state and the conflict pattern, and
    // leave `0` as the last value stored through va4.
    for round in 0..4u32 {
        m.store(sp, va0, round).unwrap();
        m.store(sp, va4, 0).unwrap();
    }
    let misses_before = m.stats().d_misses;
    let (allocs, _) = allocations_during(|| {
        for round in 1..=256u32 {
            // Evicts va4's dirty line (write-back), fills va0's: miss.
            m.store(sp, va0, round).unwrap();
            // Evicts va0's dirty line, reads back what the eviction above
            // just wrote to memory: miss.
            assert_eq!(m.load(sp, va4).unwrap(), round - 1);
            // Same line, same tag: hit, re-dirties for the next round.
            m.store(sp, va4, round).unwrap();
        }
    });
    assert_eq!(allocs, 0, "miss + write-back path must not touch the heap");
    assert!(
        m.stats().d_misses - misses_before >= 2 * 256,
        "the loop must actually conflict-miss throughout"
    );
    assert_eq!(m.oracle().violations(), 0, "no aliasing, no staleness");
}

#[test]
fn disabled_profiler_hooks_allocate_nothing() {
    // The hooks the kernel and manager call on every dispatch, with the
    // profiler off: pure no-ops, no heap.
    let mut p = Profiler::off();
    let (allocs, _) = allocations_during(|| {
        for _ in 0..1000 {
            p.push(vic_profile::Seg::Os("fault.mapping"));
            p.leaf("software", 3);
            p.event("dma.write");
            p.pop();
        }
    });
    assert_eq!(allocs, 0, "disabled spans must be a branch, not an alloc");
}

#[test]
fn enabled_profiler_reaches_steady_state_too() {
    // Not part of the disabled-guarantee, but worth pinning: once every
    // path in the working set has its tree node, repeating the same
    // accesses allocates nothing either — the arena only grows on new
    // paths.
    let (mut m, sp, vas) = steady_state_machine();
    m.attach(Observers {
        profiler: Profiler::enabled(),
        ..Observers::default()
    });
    // One full round builds the needed nodes.
    for &va in &vas {
        m.store(sp, va, 1).unwrap();
        let _ = m.load(sp, va).unwrap();
    }
    let (allocs, _) = allocations_during(|| {
        for round in 0..64u32 {
            for &va in &vas {
                m.store(sp, va, round).unwrap();
                let _ = m.load(sp, va).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "repeated paths reuse their arena nodes");
}

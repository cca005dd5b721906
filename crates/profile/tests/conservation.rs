//! The profiler's central invariant, end to end: **every simulated cycle
//! is attributed exactly once**. For any workload under any consistency
//! system, the cost tree's total equals the machine's cycle counter, and
//! per-operation slices of the tree equal the corresponding
//! `MachineStats` aggregates — the profiler is an exact decomposition of
//! the numbers the tables already report, not a sampled approximation.

use vic_bench::profile::profiled;
use vic_bench::SystemSpec;
use vic_core::policy::Configuration;
use vic_machine::Observers;
use vic_os::SystemKind;
use vic_profile::Seg;
use vic_workloads::WorkloadKind;

fn machine_op_cycles(tree: &vic_profile::CostTree, op: &'static str) -> u64 {
    tree.cycles_where(|path| path.last() == Some(&Seg::Machine(op)))
}

#[test]
fn every_cycle_attributed_across_the_grid() {
    // One spec per workload kind, across dissimilar systems — COW, exec
    // text loading, file I/O, aliasing, IPC all exercised.
    let specs = [
        SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::A)),
        SystemSpec::quick(WorkloadKind::Latex, SystemKind::Cmu(Configuration::F)),
        SystemSpec::quick(WorkloadKind::KernelBuild, SystemKind::Utah),
        SystemSpec::quick(WorkloadKind::Fork, SystemKind::Apollo),
        SystemSpec::quick(WorkloadKind::AliasAligned, SystemKind::Tut),
        SystemSpec::quick(WorkloadKind::AliasUnaligned, SystemKind::Sun),
    ];
    for spec in specs {
        let (stats, tree) = profiled(&spec);
        let label = spec.label();

        // The tentpole invariant: the tree is a partition of the run.
        assert_eq!(
            tree.total_cycles(),
            stats.cycles,
            "{label}: tree total != machine cycles"
        );

        // Per-operation slices equal the machine's own aggregates.
        assert_eq!(
            machine_op_cycles(&tree, "flush_page.d"),
            stats.machine.d_flush_pages.cycles,
            "{label}: flush cycles"
        );
        assert_eq!(
            machine_op_cycles(&tree, "purge_page.d"),
            stats.machine.d_purge_pages.cycles,
            "{label}: D-purge cycles"
        );
        assert_eq!(
            machine_op_cycles(&tree, "purge_page.i"),
            stats.machine.i_purge_pages.cycles,
            "{label}: I-purge cycles"
        );

        // Counts too, not only cycles.
        let flush_count = {
            let mut n = 0;
            tree.visit(|path, count, _| {
                if path.last() == Some(&Seg::Machine("flush_page.d")) {
                    n += count;
                }
            });
            n
        };
        assert_eq!(
            flush_count, stats.machine.d_flush_pages.count,
            "{label}: flush count"
        );

        // Flattened rows re-sum to the total (the JSON round-trip rests
        // on this).
        let row_sum: u64 = tree.flatten().iter().map(|r| r.cycles).sum();
        assert_eq!(row_sum, stats.cycles, "{label}: flatten loses cycles");
    }
}

#[test]
fn profiling_changes_no_statistic() {
    // A profiled run and an unprofiled run of the same spec are the
    // same simulation: identical RunStats, bit for bit.
    let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
    let (profiled, _tree) = profiled(&spec);
    let plain = spec.run();
    assert_eq!(profiled, plain, "the probe must not disturb the experiment");
}

#[test]
fn conservation_holds_with_fast_paths_off() {
    // The hot-path rework's host-side fast paths (occupancy
    // short-circuits, translation micro-cache) must not disturb the
    // attribution: with them force-disabled, the same spec yields the
    // same stats and the identical flattened cost tree, and every cycle
    // is still attributed exactly once.
    let spec = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
    let (fast_stats, fast_tree) = profiled(&spec);

    let mut cfg = spec.kernel_config();
    cfg.machine.fast_paths = false;
    let observers = Observers {
        profiler: vic_profile::Profiler::enabled(),
        ..Observers::default()
    };
    let workload = spec.workload.build_step(spec.quick);
    let (slow_stats, mut observers) = vic_workloads::run(cfg, workload.as_ref(), observers);
    let slow_tree = observers.profiler.take_tree().expect("profiled");
    assert_eq!(fast_stats, slow_stats, "stats differ with fast paths off");
    assert_eq!(slow_tree.total_cycles(), slow_stats.cycles);
    assert_eq!(
        fast_tree.flatten(),
        slow_tree.flatten(),
        "cost attribution differs with fast paths off"
    );
}

#[test]
fn consistency_work_is_separated_from_user_work() {
    // The paper's Table 2/3 question — how much time goes to consistency
    // management — answered from the tree: manager-context cycles are a
    // nonzero, strict subset of the run under an old-style system on the
    // unaligned alias workload.
    let spec = SystemSpec::quick(
        WorkloadKind::AliasUnaligned,
        SystemKind::Cmu(Configuration::A),
    );
    let (stats, tree) = profiled(&spec);
    let mgr_cycles = tree.cycles_where(|path| path.iter().any(|s| matches!(s, Seg::Mgr(_))));
    assert!(
        mgr_cycles > 0,
        "aliasing under A must cost consistency work"
    );
    assert!(mgr_cycles < stats.cycles);
    // Fault handling (kernel context) also shows up.
    let fault_cycles = tree.cycles_where(|path| {
        path.first() == Some(&Seg::Os("fault.mapping"))
            || path.first() == Some(&Seg::Os("fault.consistency"))
    });
    assert!(fault_cycles > 0);
}

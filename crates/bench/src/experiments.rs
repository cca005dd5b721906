//! The paper's tables, rendered from one sweep. [`measured_specs`] lists
//! every run that Tables 1, 4 and 5, the §5.1 summary and what-if and the
//! §2.5 microbenchmark read, each once; the `sweep` binary runs them and
//! [`render_tables`] prints the tables from the results, looked up through
//! a [`Grid`]. Table 2 is the exception: [`table2_report`] runs the model
//! checker, not the simulator. `tests/experiments.rs` asserts the paper's
//! qualitative claims on the same runs.

use std::fmt::{self, Write as _};

use vic_core::manager::OpCause;
use vic_core::policy::Configuration;
use vic_machine::MachineConfig;
use vic_os::{KernelConfig, SystemKind};
use vic_workloads::report::{pct, secs, thousands, Table};
use vic_workloads::{run_with_config, KernelBuild, RunStats, WorkloadKind};

use crate::spec::SystemSpec;
use crate::sweep::SweepResult;

/// Every spec the measured tables read, each once: the Table-4 grid
/// (which holds Table 1's A and F columns and Table 5's CMU/F row), the
/// four other Table-5 systems, the two §2.5 alias loops, the three §5.1
/// single-cycle-purge runs under F and, at paper scale, the colored
/// free-list what-if. The quick what-if runs on the HP 720 machine, which
/// no quick spec describes, so [`colored_free_lists_ablation`] runs it
/// directly.
pub fn measured_specs(quick: bool) -> Vec<SystemSpec> {
    let f = SystemKind::Cmu(Configuration::F);
    let at = |workload, system| SystemSpec {
        quick,
        ..SystemSpec::new(workload, system)
    };
    let mut specs = SystemSpec::table4_grid(quick);
    specs.extend(SystemSpec::table5_grid(quick));
    specs.push(at(WorkloadKind::AliasAligned, f));
    specs.push(at(WorkloadKind::AliasUnaligned, f));
    for w in WorkloadKind::TABLE4 {
        specs.push(SystemSpec {
            fast_purge: true,
            ..at(w, f)
        });
    }
    if !quick {
        specs.push(SystemSpec {
            colored_free_lists: true,
            ..at(WorkloadKind::KernelBuild, f)
        });
    }
    let mut distinct: Vec<SystemSpec> = Vec::with_capacity(specs.len());
    for spec in specs {
        if !distinct.contains(&spec) {
            distinct.push(spec);
        }
    }
    distinct
}

/// The results of a sweep over [`measured_specs`], looked up by spec.
#[derive(Debug, Clone, Copy)]
pub struct Grid<'a> {
    quick: bool,
    results: &'a [SweepResult],
}

impl<'a> Grid<'a> {
    /// The grid of `results`, swept at quick or paper scale.
    pub fn new(quick: bool, results: &'a [SweepResult]) -> Self {
        Grid { quick, results }
    }

    /// The spec of `workload` under `system` at this grid's scale.
    fn spec(&self, workload: WorkloadKind, system: SystemKind) -> SystemSpec {
        SystemSpec {
            quick: self.quick,
            ..SystemSpec::new(workload, system)
        }
    }

    /// The statistics of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the grid holds no result for `spec`.
    fn stats(&self, spec: SystemSpec) -> &'a RunStats {
        self.results
            .iter()
            .find(|r| r.spec == spec)
            .map(|r| &r.out)
            .unwrap_or_else(|| panic!("no result for {} in the grid", spec.label()))
    }
}

/// Every measured table, in the order the paper's sections use them:
/// Table 1, Table 4 with the §5.1 summary and what-if, Table 5 and the
/// §2.5 microbenchmark.
///
/// # Panics
///
/// Panics if the grid lacks a spec of [`measured_specs`] or a run saw a
/// staleness-oracle violation.
pub fn render_tables(grid: &Grid) -> String {
    let mut out = String::new();
    render_table1(grid, &mut out)
        .and_then(|()| render_table4(grid, &mut out))
        .and_then(|()| render_table5(grid, &mut out))
        .and_then(|()| render_microbench(grid, &mut out))
        .expect("writing to a String cannot fail");
    out
}

// -------------------------------------------------------------------
// Table 1

/// Table 1: each benchmark on the old ("A") and new ("F") kernels —
/// elapsed time, percentage gain, and page flush/purge counts.
fn render_table1(grid: &Grid, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 1 — two approaches to consistency management (old = config A, new = config F)\n"
    )?;
    let mut t = Table::new([
        "Program",
        "Elapsed old (s)",
        "new (s)",
        "% gain",
        "Flushes old (k)",
        "new (k)",
        "Purges old (k)",
        "new (k)",
    ]);
    for w in WorkloadKind::TABLE4 {
        let old = grid.stats(grid.spec(w, SystemKind::Cmu(Configuration::A)));
        let new = grid.stats(grid.spec(w, SystemKind::Cmu(Configuration::F)));
        t.row([
            w.cli_name().to_string(),
            secs(old.seconds),
            secs(new.seconds),
            pct(new.gain_over(old)),
            thousands(old.total_flushes()),
            thousands(new.total_flushes()),
            thousands(old.total_purges()),
            thousands(new.total_purges()),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(out, "(paper: afs-bench 66.0 -> 59.4 s (10%), latex-paper 5.8 -> 5.5 s (5%), kernel-build 678.9 -> 620.9 s (8.5%))")?;
    writeln!(
        out,
        "(absolute seconds differ — simulated substrate — but the ordering and gains reproduce)"
    )
}

// -------------------------------------------------------------------
// Table 2 / Table 3 / Figure 1

/// Render the model artifacts: Table 2 (from the transition function),
/// Table 3 (the state encoding) and the small-scope checker's verdicts on
/// correctness and necessity.
pub fn table2_report() -> String {
    use vic_core::spec;
    let mut out = String::new();
    out.push_str(
        "Table 2 — cache line state transitions (generated from vic_core::transition):\n\n",
    );
    out.push_str(&vic_core::state::render_table());
    out.push_str("\nTable 3 — cache page state encoding:\n\n");
    out.push_str("  state    | mapped[c] | stale[c] | cache_dirty\n");
    out.push_str("  ---------+-----------+----------+------------\n");
    out.push_str("  Empty    | false     | false    | -\n");
    out.push_str("  Present  | true      | false    | false\n");
    out.push_str("  Dirty    | true      | false    | true\n");
    out.push_str("  Stale    | false     | true     | -\n");
    out.push_str(
        "\nSmall-scope exhaustive check (2 cache pages, 2 words, adversarial eviction):\n",
    );
    match spec::check_correctness(5) {
        Ok(()) => out.push_str(
            "  correctness: PASS — no event sequence of depth <= 5 delivers stale data\n",
        ),
        Err((seq, msg)) => out.push_str(&format!("  correctness: FAIL — {msg} via {seq:?}\n")),
    }
    let undem = spec::check_necessity(5);
    if undem.is_empty() {
        out.push_str(
            "  necessity:   PASS — skipping any of the 6 flush/purge cells admits a violation\n",
        );
    } else {
        out.push_str(&format!("  necessity:   INCOMPLETE — {undem:?}\n"));
    }
    out
}

// -------------------------------------------------------------------
// Table 4

/// One cell of Table 4: a benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct Table4Cell {
    /// Configuration letter.
    pub config: Configuration,
    /// The run.
    pub stats: RunStats,
}

/// Group `(spec, stats)` pairs from the Table-4 grid per benchmark, each
/// benchmark's cells in configuration order.
pub fn group_table4(
    runs: impl IntoIterator<Item = (SystemSpec, RunStats)>,
) -> Vec<(String, Vec<Table4Cell>)> {
    let mut grouped: Vec<(String, Vec<Table4Cell>)> = Vec::new();
    for (spec, stats) in runs {
        let SystemKind::Cmu(config) = spec.system else {
            continue;
        };
        let name = spec.workload.cli_name().to_string();
        if grouped.last().map(|(n, _)| n.as_str()) != Some(name.as_str()) {
            grouped.push((name, Vec::new()));
        }
        let cells = &mut grouped.last_mut().expect("just pushed").1;
        cells.push(Table4Cell { config, stats });
    }
    grouped
}

/// Render one benchmark's Table-4 cells as the standard grid.
///
/// # Panics
///
/// Panics if any run saw a staleness-oracle violation.
pub fn render_table4_group(program: &str, cells: &[Table4Cell]) -> String {
    let mut t = Table::new([
        "Cfg",
        "Elapsed (s)",
        "Map faults",
        "Cons faults",
        "D flush",
        "avg cyc",
        "D purge",
        "avg cyc",
        "I purge",
        "avg cyc",
        "DMA-rd",
        "DMA-wr",
        "D->I copies",
    ]);
    for cell in cells {
        let s = &cell.stats;
        assert_eq!(s.oracle_violations, 0, "oracle violation in {program}");
        t.row([
            cell.config.to_string(),
            secs(s.seconds),
            s.os.mapping_faults.to_string(),
            s.os.consistency_faults.to_string(),
            s.machine.d_flush_pages.count.to_string(),
            format!("{:.0}", s.machine.d_flush_pages.avg()),
            s.machine.d_purge_pages.count.to_string(),
            format!("{:.0}", s.machine.d_purge_pages.avg()),
            s.machine.i_purge_pages.count.to_string(),
            format!("{:.0}", s.machine.i_purge_pages.avg()),
            s.machine.dma_reads.to_string(),
            s.machine.dma_writes.to_string(),
            s.os.d2i_copies.to_string(),
        ]);
    }
    format!("== {program} ==\n{}", t.render())
}

/// Table 4: the three benchmarks across configurations A–F — elapsed
/// time, fault counts, flush/purge counts with average cycle costs, DMA
/// and text-copy traffic — plus the §5.1 summary (purge-cause breakdown,
/// total overhead, and the single-cycle-purge what-if) and the colored
/// free-list what-if.
fn render_table4(grid: &Grid, out: &mut String) -> fmt::Result {
    writeln!(out, "Table 4 — benchmarks under configurations A-F\n")?;
    writeln!(
        out,
        "  A = old (eager, unaligned)      B = +lazy unmap   C = +align pages"
    )?;
    writeln!(
        out,
        "  D = +aligned prepare            E = +need data    F = +will overwrite (new)\n"
    )?;
    let cells = SystemSpec::table4_grid(grid.quick)
        .into_iter()
        .map(|spec| (spec, grid.stats(spec).clone()));
    for (program, cells) in group_table4(cells) {
        writeln!(out, "{}", render_table4_group(&program, &cells))?;
    }

    writeln!(out, "== Summary over configuration F (paper §5.1) ==\n")?;
    let s = summary_f(grid);
    writeln!(
        out,
        "  total elapsed:                {} s",
        secs(s.total_seconds)
    )?;
    writeln!(out, "  total page purges:            {}", s.total_purges)?;
    writeln!(out, "  total page flushes:           {}", s.total_flushes)?;
    writeln!(
        out,
        "  purge causes: new mappings {:.0}%, DMA-writes {:.0}%, data->instr copies {:.0}%",
        100.0 * s.purge_frac_new_mapping,
        100.0 * s.purge_frac_dma_write,
        100.0 * s.purge_frac_text_copy
    )?;
    writeln!(
        out,
        "  consistency-fault overhead:   {:.3} s ({:.2}% of total)",
        s.fault_overhead_seconds,
        100.0 * s.fault_overhead_seconds / s.total_seconds
    )?;
    writeln!(
        out,
        "  non-DMA data purge overhead:  {:.3} s ({:.2}% of total)",
        s.purge_overhead_seconds,
        100.0 * s.purge_overhead_seconds / s.total_seconds
    )?;
    writeln!(
        out,
        "  single-cycle page purge would save: {:.3} s ({:.2}%)",
        s.fast_purge_savings_seconds,
        100.0 * s.fast_purge_savings_seconds / s.total_seconds
    )?;
    writeln!(
        out,
        "\n(paper: ~80% of purges from new mappings, 9% DMA-writes, 17.5% text copies;"
    )?;
    writeln!(
        out,
        " total virtually-indexed overhead 0.22%; 1-cycle purge saves 0.33%)"
    )?;

    writeln!(
        out,
        "\n== What-if: multiple free page lists (paper §5.1 proposal) ==\n"
    )?;
    let (single, colored) = colored_free_lists_ablation(grid);
    writeln!(
        out,
        "  kernel-build/F, single list:   {} purges, {} flushes, {} s",
        single.total_purges(),
        single.total_flushes(),
        secs(single.seconds)
    )?;
    writeln!(
        out,
        "  kernel-build/F, colored lists: {} purges, {} flushes, {} s",
        colored.total_purges(),
        colored.total_flushes(),
        secs(colored.seconds)
    )?;
    writeln!(
        out,
        "  -> {:.0}% of the new-mapping purges eliminated by coloring",
        100.0 * (1.0 - colored.total_purges() as f64 / single.total_purges().max(1) as f64)
    )
}

/// The paper's §5.1 summary over configuration-F runs: totals, the purge
/// cause breakdown, the consistency overhead, and the single-cycle-purge
/// what-if.
#[derive(Debug, Clone)]
pub struct SummaryF {
    /// Total elapsed seconds across the three benchmarks (config F).
    pub total_seconds: f64,
    /// Total page purges (both caches).
    pub total_purges: u64,
    /// Total page flushes.
    pub total_flushes: u64,
    /// Fraction of data-cache purges due to new mappings.
    pub purge_frac_new_mapping: f64,
    /// Fraction of purges due to DMA-writes.
    pub purge_frac_dma_write: f64,
    /// Fraction of purges (instruction side) due to text copies.
    pub purge_frac_text_copy: f64,
    /// Seconds spent on consistency faults (bookkeeping).
    pub fault_overhead_seconds: f64,
    /// Seconds spent purging the data cache for reasons other than DMA.
    pub purge_overhead_seconds: f64,
    /// Total seconds saved by the paper's proposed single-cycle page purge.
    pub fast_purge_savings_seconds: f64,
}

/// Compute the §5.1 summary from the three benchmarks' runs under F with
/// normal and with single-cycle-purge hardware.
pub fn summary_f(grid: &Grid) -> SummaryF {
    let mut total_seconds = 0.0;
    let mut fast_seconds = 0.0;
    let mut total_purges = 0;
    let mut total_flushes = 0;
    let mut purges_nm = 0;
    let mut purges_dma = 0;
    let mut purges_text = 0;
    let mut purge_cycles_non_dma = 0.0;
    let mut fault_cycles = 0.0;
    let mut clock = 50e6;
    for w in WorkloadKind::TABLE4 {
        let spec = grid.spec(w, SystemKind::Cmu(Configuration::F));
        let cfg = spec.kernel_config();
        let s = grid.stats(spec);
        let fast = grid.stats(SystemSpec {
            fast_purge: true,
            ..spec
        });
        clock = cfg.machine.clock_hz as f64;
        total_seconds += s.seconds;
        fast_seconds += fast.seconds;
        total_purges += s.total_purges();
        total_flushes += s.total_flushes();
        purges_nm += s.mgr.d_purge_pages.get(OpCause::NewMapping);
        purges_dma += s.mgr.d_purge_pages.get(OpCause::DmaWrite);
        purges_text += s.mgr.i_purge_pages.get(OpCause::TextCopy);
        // Purge cycle attribution: manager counts by cause, machine counts
        // cycles; apportion cycles by count.
        let d_purges = s.machine.d_purge_pages;
        if d_purges.count > 0 {
            let non_dma = d_purges.count
                - s.mgr
                    .d_purge_pages
                    .get(OpCause::DmaWrite)
                    .min(d_purges.count);
            purge_cycles_non_dma += d_purges.avg() * non_dma as f64;
        }
        fault_cycles +=
            s.os.consistency_faults as f64 * cfg.machine.costs.consistency_fault_service as f64;
    }
    let denom = total_purges.max(1) as f64;
    SummaryF {
        total_seconds,
        total_purges,
        total_flushes,
        purge_frac_new_mapping: purges_nm as f64 / denom,
        purge_frac_dma_write: purges_dma as f64 / denom,
        purge_frac_text_copy: purges_text as f64 / denom,
        fault_overhead_seconds: fault_cycles / clock,
        purge_overhead_seconds: purge_cycles_non_dma / clock,
        fast_purge_savings_seconds: total_seconds - fast_seconds,
    }
}

/// The paper's proposed **multiple free page lists** (§5.1): frames binned
/// by residue color, allocation preferring an aligned frame. Returns
/// (single-list run, colored run) of kernel-build under F: from the grid
/// at paper scale; at quick scale, run here, because the short build runs
/// on the full HP 720 geometry (the geometry matters to coloring), which
/// no quick spec describes.
pub fn colored_free_lists_ablation(grid: &Grid) -> (RunStats, RunStats) {
    let sys = SystemKind::Cmu(Configuration::F);
    if !grid.quick {
        let single = grid.spec(WorkloadKind::KernelBuild, sys);
        let colored = SystemSpec {
            colored_free_lists: true,
            ..single
        };
        return (grid.stats(single).clone(), grid.stats(colored).clone());
    }
    let w = KernelBuild::quick();
    let mut base_cfg = KernelConfig::small(sys);
    base_cfg.machine = MachineConfig::hp720();
    let single = run_with_config(base_cfg, &w);
    let mut colored_cfg = base_cfg;
    colored_cfg.colored_free_lists = true;
    let colored = run_with_config(colored_cfg, &w);
    (single, colored)
}

// -------------------------------------------------------------------
// Table 5

/// Table 5: the qualitative feature matrix of the five systems (CMU,
/// Utah, Tut, Apollo, Sun) — derived from each manager's own declared
/// capabilities — plus the measured afs-bench run under every system.
fn render_table5(grid: &Grid, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 5 — operating systems for virtually indexed caches\n"
    )?;
    let specs = SystemSpec::table5_grid(grid.quick);
    let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();

    let mut feat = Table::new([
        "System",
        "Unaligned aliases",
        "Lazy unmap",
        "Aligns mappings",
        "Aligned prepare",
        "need_data",
        "will_overwrite",
        "State granularity",
    ]);
    for spec in &specs {
        let machine = spec.kernel_config().machine;
        let f = spec
            .system
            .build_manager(machine.num_frames(), machine.geometry())
            .features();
        feat.row([
            spec.system.label(),
            f.unaligned_aliases.to_string(),
            yes_no(f.lazy_unmap),
            f.aligns_mappings.to_string(),
            f.aligned_prepare.to_string(),
            yes_no(f.need_data),
            yes_no(f.will_overwrite),
            f.state_granularity.to_string(),
        ]);
    }
    writeln!(out, "{}", feat.render())?;

    writeln!(out, "Measured: afs-bench under each system\n")?;
    let mut m = Table::new([
        "System",
        "Elapsed (s)",
        "Flushes",
        "Purges",
        "Cons faults",
        "Uncached accesses",
    ]);
    for spec in &specs {
        let afs = grid.stats(*spec);
        m.row([
            spec.system.label(),
            secs(afs.seconds),
            afs.total_flushes().to_string(),
            afs.total_purges().to_string(),
            afs.os.consistency_faults.to_string(),
            afs.machine.uncached.to_string(),
        ]);
    }
    writeln!(out, "{}", m.render())?;
    writeln!(
        out,
        "(expected ordering: CMU/F fastest; the eager systems pay flushes at every unmap;"
    )?;
    writeln!(
        out,
        " Sun pays per-access uncached costs when aliases arise)"
    )
}

// -------------------------------------------------------------------
// §2.5 microbenchmark

/// The §2.5 **contrived microbenchmark**: "a single thread repeatedly
/// wrote one physical address through two virtual addresses. When the
/// virtual addresses were aligned, a loop of 1,000,000 writes completed in
/// a fraction of a second. When unaligned, the loop took over 2 minutes."
fn render_microbench(grid: &Grid, out: &mut String) -> fmt::Result {
    let f = SystemKind::Cmu(Configuration::F);
    let aligned = grid.stats(grid.spec(WorkloadKind::AliasAligned, f));
    let unaligned = grid.stats(grid.spec(WorkloadKind::AliasUnaligned, f));
    writeln!(
        out,
        "Alias write loop ({} writes):\n",
        aligned.machine.stores
    )?;
    for (name, s) in [("aligned:", aligned), ("unaligned:", unaligned)] {
        writeln!(
            out,
            "  {name:<12}{:>12} cycles = {:>8.3} s   (flushes {}, purges {}, faults {})",
            s.cycles,
            s.seconds,
            s.total_flushes(),
            s.total_purges(),
            s.os.consistency_faults
        )?;
    }
    writeln!(
        out,
        "\n  slowdown: {:.0}x",
        unaligned.cycles as f64 / aligned.cycles as f64
    )?;
    writeln!(
        out,
        "\n(paper: aligned = a fraction of a second; unaligned = over 2 minutes)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_report_contains_passes() {
        let r = table2_report();
        assert!(r.contains("correctness: PASS"));
        assert!(r.contains("necessity:   PASS"));
        assert!(r.contains("CPU-write"));
    }

    #[test]
    fn measured_specs_are_distinct_and_cover_both_grids() {
        for (quick, len) in [(true, 27), (false, 28)] {
            let specs = measured_specs(quick);
            assert_eq!(specs.len(), len, "quick={quick}");
            assert!(specs.iter().all(|s| s.quick == quick));
            for (i, s) in specs.iter().enumerate() {
                assert!(!specs[..i].contains(s), "{} twice", s.label());
            }
            for s in SystemSpec::table4_grid(quick)
                .iter()
                .chain(&SystemSpec::table5_grid(quick))
            {
                assert!(specs.contains(s), "{} missing", s.label());
            }
        }
    }
}

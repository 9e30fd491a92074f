//! Multi-core oracle: a scripted 2- and 4-core run whose statistics are
//! pinned by fixtures captured from the machine before its front ends
//! were boxed behind one pointer.
//!
//! The scenario interleaves core switches with everything a switch has
//! to carry across correctly: accesses whose single-cycle charge is
//! still deferred by the page-resident fast-forward when the switch
//! happens, instruction batches, `remap` (which queues TLB shootdowns
//! for the other cores), `sbrk`, batched streams and context switches.
//! The fixture holds the running cycle count at every switch, then the
//! merged [`RunReport`](mtlb_sim::RunReport) and
//! [`per_core_stats`](Machine::per_core_stats), both as `Debug` text, so
//! the comparison is against the old switch rather than against itself.
//!
//! Swap-out and demotion are left out on purpose: with more than one
//! core they also flush the parked cores' caches, which the old machine
//! did not do.

use std::fmt::Write as _;

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};

/// Per-core data region: 256 KB, remapped to shadow superpages mid-run.
const REGION: u64 = 256 * 1024;
/// Offset of each process's region inside its 4 GB window, clear of
/// the heap `sbrk` grows.
const REGION_OFFSET: u64 = 1 << 30;

fn region_of(pid: usize) -> VirtAddr {
    Machine::process_heap_base(pid) + REGION_OFFSET
}

/// Runs the script on an `cores`-core MTLB machine and returns its log:
/// the cycle count at every core switch, then the final report and
/// per-core counters.
fn scenario(cores: usize) -> String {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_cores(cores));
    let mut log = String::new();
    m.load_program(16 * PAGE_SIZE, true);
    // Core 0 stays on the boot process; every other core gets its own
    // process (a context switch, so a shootdown of the other cores).
    let mut pids = vec![0usize];
    for core in 1..cores {
        let pid = m.spawn_process();
        m.set_active_core(core);
        m.try_switch_process(pid).expect("pid just spawned");
        m.load_program(8 * PAGE_SIZE, core % 2 == 0);
        pids.push(pid);
    }
    for (core, &pid) in pids.iter().enumerate() {
        m.set_active_core(core);
        m.map_region(region_of(pid), REGION, Prot::RW);
    }
    let mut checksum = 0u64;
    for round in 0..6u64 {
        for (core, &pid) in pids.iter().enumerate() {
            m.set_active_core(core);
            writeln!(log, "round {round} core {core}: {}", m.cycles().get()).unwrap();
            let base = region_of(pid);
            // Same-line hits: after the first touch these are deferred
            // fast-forward charges, still pending at the next switch.
            for i in 0..96u64 {
                let va = base + (i % 8) * 64 + round * 4;
                m.try_write_u32(va, (i + round) as u32).expect("mapped");
                checksum += u64::from(m.try_read_u32(va).expect("mapped"));
            }
            m.try_execute(17 + core as u64).expect("text loaded");
            match round {
                // Promotion on one core shoots the range down elsewhere.
                2 => {
                    m.remap(base, REGION);
                }
                // Heap growth (auto-promoted regions queue shootdowns).
                3 => {
                    let p = m.sbrk(96 * 1024);
                    m.try_write_u64(p + 8, round).expect("heap mapped");
                }
                // A context switch away and back on the odd cores.
                4 if core % 2 == 1 => {
                    let other = m.spawn_process();
                    m.try_switch_process(other).expect("spawned");
                    m.try_switch_process(pid).expect("pid exists");
                }
                _ => {}
            }
            let stream = base + 64 * 1024 + round * 4096;
            m.try_stream_write_u32(stream, 700, 1, |i| i as u32)
                .expect("mapped");
            m.try_stream_read_u32(stream, 700, 2, |_, v| checksum += u64::from(v))
                .expect("mapped");
        }
    }
    writeln!(log, "checksum: {checksum}").unwrap();
    let report = m.report();
    writeln!(log, "{report:#?}").unwrap();
    writeln!(log, "{:#?}", m.per_core_stats()).unwrap();
    log
}

fn assert_matches_fixture(cores: usize, fixture: &str) {
    let got = scenario(cores);
    assert!(
        got == fixture,
        "{cores}-core scenario drifted from its fixture; a core switch \
         must not move a cycle or a counter.\n--- got ---\n{got}"
    );
}

#[test]
fn two_core_scenario_matches_fixture() {
    assert_matches_fixture(2, include_str!("fixtures/multicore_2core.txt"));
}

#[test]
fn four_core_scenario_matches_fixture() {
    assert_matches_fixture(4, include_str!("fixtures/multicore_4core.txt"));
}

/// Switching cores costs nothing simulated: back-to-back switches with
/// no op in between, including ones that leave fast-forward charges
/// pending, leave the report exactly as it was.
#[test]
fn back_to_back_switches_leave_the_report_unchanged() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_cores(4));
    let base = region_of(0);
    m.map_region(base, REGION, Prot::RW);
    for i in 0..64u64 {
        m.try_read_u32(base + (i % 4) * 64).expect("mapped");
    }
    let cycles = m.cycles();
    let mut probe = Machine::new(MachineConfig::paper_mtlb(64).with_cores(4));
    probe.map_region(base, REGION, Prot::RW);
    for i in 0..64u64 {
        probe.try_read_u32(base + (i % 4) * 64).expect("mapped");
    }
    let before = format!("{:?}", probe.report());
    for core in [1, 2, 2, 3, 0, 3, 1, 0] {
        m.set_active_core(core);
        assert_eq!(m.cycles(), cycles);
    }
    assert_eq!(format!("{:?}", m.report()), before);
    assert_eq!(m.per_core_stats(), probe.per_core_stats());
}

//! Swap-out and demotion keep guest data intact across core migration
//! and superpage re-promotion.
//!
//! * Swap-out and demotion flush the superpage's lines from every
//!   core's L1, not just the active core's: a process that ran on
//!   another core leaves dirty lines there, and writing one back after
//!   its page was swapped out would shadow-fault.
//! * Swap copies die with the shadow pages they were keyed by: a page
//!   rewritten while 4 KB-mapped, re-promoted and swapped out clean
//!   must not swap back in its first-generation data.

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Cycles, Prot, VirtAddr, PAGE_SIZE};

/// One 1 MB superpage.
const REGION: u64 = 1 << 20;
/// Offset of the region inside the process's 4 GB window, clear of
/// its heap.
const REGION_OFFSET: u64 = 1 << 30;

/// Writes `value(p)` to the first word of every page of `base`'s region.
fn fill(m: &mut Machine, base: VirtAddr, value: impl Fn(u64) -> u64) {
    for p in 0..REGION / PAGE_SIZE {
        m.try_write_u64(base + p * PAGE_SIZE, value(p))
            .expect("mapped");
    }
}

/// Pages of `base`'s region whose first word reads back other than
/// `value(p)`.
fn stale_pages(m: &mut Machine, base: VirtAddr, value: impl Fn(u64) -> u64) -> usize {
    (0..REGION / PAGE_SIZE)
        .filter(|&p| m.try_read_u64(base + p * PAGE_SIZE) != Ok(value(p)))
        .count()
}

#[test]
fn swap_copies_do_not_survive_demotion() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    let base = Machine::process_heap_base(0) + REGION_OFFSET;
    m.map_region(base, REGION, Prot::RW);
    m.remap(base, REGION);
    fill(&mut m, base, |p| p + 1);
    m.swap_out_superpage(base.vpn());
    m.demote_superpage(base.vpn());
    assert_eq!(m.kernel().swap().pages_stored(), 0);
    fill(&mut m, base, |p| p + 1000);
    m.remap(base, REGION);
    m.swap_out_superpage(base.vpn());
    assert_eq!(stale_pages(&mut m, base, |p| p + 1000), 0);
}

#[test]
fn swap_out_after_migration_keeps_data() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_cores(2));
    let base = Machine::process_heap_base(0) + REGION_OFFSET;
    m.map_region(base, REGION, Prot::RW);
    m.remap(base, REGION);
    // Process 0 dirties its region on core 1, then moves to core 0.
    m.set_active_core(1);
    fill(&mut m, base, |p| p + 1);
    m.set_active_core(0);
    let kernel_before = m.report().buckets.kernel;
    let rep = m.swap_out_superpage(base.vpn());
    // Core 1's dirty lines were written back before the pages left
    // DRAM, and their bus cycles are part of the swap-out's kernel
    // charge.
    assert_eq!(rep.pages_written, REGION / PAGE_SIZE);
    let r = m.report();
    assert_eq!(r.buckets.kernel - kernel_before, rep.cycles);
    assert!(m.per_core_stats()[1].cache.flush_writebacks > 0);
    // Core 1 runs another process whose accesses evict its L1.
    let pid = m.spawn_process();
    m.set_active_core(1);
    m.try_switch_process(pid).expect("spawned");
    let other = Machine::process_heap_base(pid) + REGION_OFFSET;
    m.map_region(other, 4 * REGION, Prot::RW);
    for i in 0..4 * REGION / 64 {
        m.try_write_u64(other + i * 64, i).expect("mapped");
    }
    m.set_active_core(0);
    assert_eq!(stale_pages(&mut m, base, |p| p + 1), 0);
}

#[test]
fn demotion_after_migration_keeps_data() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_cores(2));
    let base = Machine::process_heap_base(0) + REGION_OFFSET;
    m.map_region(base, REGION, Prot::RW);
    m.remap(base, REGION);
    m.set_active_core(1);
    fill(&mut m, base, |p| p + 7);
    m.set_active_core(0);
    let flushed_before = m.per_core_stats()[1].cache.flush_writebacks;
    m.demote_superpage(base.vpn());
    // Core 1's shadow-tagged dirty lines were written back before the
    // shadow mapping went away.
    assert!(m.per_core_stats()[1].cache.flush_writebacks > flushed_before);
    assert!(m.report().buckets.kernel > Cycles::ZERO);
    assert_eq!(stale_pages(&mut m, base, |p| p + 7), 0);
    m.set_active_core(1);
    assert_eq!(stale_pages(&mut m, base, |p| p + 7), 0);
}

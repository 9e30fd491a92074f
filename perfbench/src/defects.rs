//! Reproducers of two known `mtlb-os` defects in swap-out.
//!
//! Both tests are ignored until the Kernel is fixed. A benchmark
//! workload that mixes accesses with swap-out, demotion and re-promotion
//! (a seeded kernel-service stream on a multi-core machine) fails its
//! read checks on every seed until then, so the benchmark holds no such
//! workload yet.

#![cfg(test)]

use mtlb_sim::{Machine, MachineConfig};
use mtlb_types::{Prot, VirtAddr, PAGE_SIZE};

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

/// Swap copies are keyed by shadow page and outlive a demotion, so
/// a page rewritten while 4 KB-mapped, re-promoted clean and swapped
/// out again is not rewritten to swap: the swap-in returns the first
/// generation's data. Any later superpage that reuses the freed shadow
/// region inherits the stale copies the same way.
#[test]
#[ignore = "known simulator defect: stale swap copy after demote + remap"]
fn swap_copies_do_not_survive_demotion() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64));
    let base = Machine::process_heap_base(0) + REGION_OFFSET;
    m.map_region(base, REGION, Prot::RW);
    m.remap(base, REGION);
    fill(&mut m, base, |p| p + 1);
    m.swap_out_superpage(base.vpn());
    m.demote_superpage(base.vpn());
    fill(&mut m, base, |p| p + 1000);
    m.remap(base, REGION);
    m.swap_out_superpage(base.vpn());
    assert_eq!(stale_pages(&mut m, base, |p| p + 1000), 0);
}

/// Swapping out flushes only the active core's L1. When a process
/// has run on the other core, that core keeps dirty lines of the
/// swapped pages, and writing one back when it is evicted later
/// panics on the shadow fault.
#[test]
#[ignore = "known simulator defect: swap-out misses remote cores' dirty lines"]
fn swap_out_after_migration_keeps_data() {
    let mut m = Machine::new(MachineConfig::paper_mtlb(64).with_cores(2));
    let base = Machine::process_heap_base(0) + REGION_OFFSET;
    m.map_region(base, REGION, Prot::RW);
    m.remap(base, REGION);
    // Process 0 dirties its region on core 1, then moves to core 0.
    m.set_active_core(1);
    fill(&mut m, base, |p| p + 1);
    m.set_active_core(0);
    m.swap_out_superpage(base.vpn());
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

//! Pieces every workload shares: the per-run result, cell failure
//! bookkeeping, simulated-counter aggregation, the release-build cycle
//! audit and the process CPU clock.

use std::collections::BTreeMap;
use std::time::Instant;

use mtlb_sim::{Machine, RunReport};

/// Outcome of one workload run, as the child process reports it.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Cell labels in run order, each with its failure reasons.
    pub cells: Cells,
    /// Median set-up seconds over the run's set-up repetitions.
    pub setup_s: f64,
    /// Host wall seconds of the measured part.
    pub wall_s: f64,
    /// Process user + system CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Simulated operations (instructions + loads + stores) summed over
    /// every cell's report.
    pub sim_ops: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Simulated cells of one run and why any of them failed.
#[derive(Debug, Default)]
pub struct Cells {
    labels: Vec<String>,
    failures: BTreeMap<String, Vec<String>>,
}

impl Cells {
    /// Registers a cell; returns its label for later failures.
    pub fn add(&mut self, label: impl Into<String>) -> String {
        let label = label.into();
        self.labels.push(label.clone());
        label
    }

    /// Marks `label` failed with a reason. A cell that fails several
    /// checks still counts once.
    pub fn fail(&mut self, label: &str, reason: impl Into<String>) {
        self.failures
            .entry(label.to_string())
            .or_default()
            .push(reason.into());
    }

    /// Fails `label` unless `ok`.
    pub fn check(&mut self, label: &str, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(label, reason());
        }
    }

    /// Cells attempted.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.labels.len()
    }

    /// Cells with at least one failure.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// `label: reason` lines for every failure.
    #[must_use]
    pub fn reasons(&self) -> Vec<String> {
        self.failures
            .iter()
            .flat_map(|(l, rs)| rs.iter().map(move |r| format!("{l}: {r}")))
            .collect()
    }
}

/// Simulated operations in a report: instructions + loads + stores.
#[must_use]
pub fn sim_ops(r: &RunReport) -> u64 {
    r.instructions + r.loads + r.stores
}

/// The release-build cycle audit from outside the machine: the time
/// buckets must add up to the reported total.
pub fn audit_report(cells: &mut Cells, label: &str, r: &RunReport) {
    cells.check(label, r.buckets.total() == r.total_cycles, || {
        format!(
            "audit: buckets sum {} != total_cycles {}",
            r.buckets.total().get(),
            r.total_cycles.get()
        )
    });
}

/// [`audit_report`] plus, for a machine the benchmark holds, the
/// per-core front-end counters must sum to the merged report.
pub fn audit_machine(cells: &mut Cells, label: &str, m: &Machine, r: &RunReport) {
    audit_report(cells, label, r);
    let per_core = m.per_core_stats();
    let sum = |f: fn(&mtlb_sim::CoreStats) -> u64| per_core.iter().map(f).sum::<u64>();
    let pairs = [
        ("loads", sum(|c| c.loads), r.loads),
        ("stores", sum(|c| c.stores), r.stores),
        ("instructions", sum(|c| c.instructions), r.instructions),
        ("tlb hits", sum(|c| c.tlb.hits), r.tlb.hits),
        ("tlb misses", sum(|c| c.tlb.misses), r.tlb.misses),
        ("cache hits", sum(|c| c.cache.hits), r.cache.hits),
        ("cache misses", sum(|c| c.cache.misses), r.cache.misses),
        ("itlb misses", sum(|c| c.itlb_misses), r.itlb_misses),
    ];
    for (what, cores, merged) in pairs {
        cells.check(label, cores == merged, || {
            format!("audit: per-core {what} sum {cores} != merged {merged}")
        });
    }
}

/// Simulated counters summed over reports, for the per-layer ratios.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    instructions: u64,
    loads: u64,
    stores: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    itlb_hits: u64,
    itlb_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_writebacks: u64,
    mtlb_hits: u64,
    mtlb_misses: u64,
    fills: u64,
    fill_mmc_cycles: u64,
    contention_events: u64,
    shootdowns: u64,
    reach_bytes: u64,
    reach_samples: u64,
}

impl Counters {
    /// Adds one cell's report.
    pub fn add(&mut self, r: &RunReport) {
        self.instructions += r.instructions;
        self.loads += r.loads;
        self.stores += r.stores;
        self.tlb_hits += r.tlb.hits;
        self.tlb_misses += r.tlb.misses;
        self.itlb_hits += r.itlb_hits;
        self.itlb_misses += r.itlb_misses;
        self.cache_hits += r.cache.hits;
        self.cache_misses += r.cache.misses;
        self.cache_writebacks += r.cache.total_writebacks();
        self.mtlb_hits += r.mmc.mtlb_hits;
        self.mtlb_misses += r.mmc.mtlb_misses;
        self.fills += r.mmc.fills();
        self.fill_mmc_cycles += r.mmc.fill_mmc_cycles;
        self.contention_events += r.mtlb_contention_events;
        self.shootdowns += r.kernel.shootdowns;
    }

    /// Adds the end-of-run translation reach of a machine the
    /// benchmark holds.
    pub fn add_machine(&mut self, m: &Machine) {
        self.reach_bytes += m.tlb_reach_bytes();
        self.reach_samples += 1;
    }

    /// Writes the simulated-counter metrics of the tlb/schemes, cache,
    /// mmc, os and sim layers.
    pub fn emit(&self, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("sim.instructions", self.instructions as f64);
        out.insert("sim.loads", self.loads as f64);
        out.insert("sim.stores", self.stores as f64);
        out.insert(
            "tlb.miss_rate",
            ratio(self.tlb_misses, self.tlb_hits + self.tlb_misses),
        );
        out.insert(
            "itlb.miss_rate",
            ratio(self.itlb_misses, self.itlb_hits + self.itlb_misses),
        );
        out.insert(
            "tlb.reach_kb",
            ratio(self.reach_bytes, self.reach_samples) / 1024.0,
        );
        out.insert(
            "cache.miss_rate",
            ratio(self.cache_misses, self.cache_hits + self.cache_misses),
        );
        out.insert("cache.writebacks", self.cache_writebacks as f64);
        out.insert(
            "mmc.mtlb_hit_rate",
            ratio(self.mtlb_hits, self.mtlb_hits + self.mtlb_misses),
        );
        out.insert(
            "mmc.avg_fill_mmc_cycles",
            ratio(self.fill_mmc_cycles, self.fills),
        );
        out.insert("mmc.contention_events", self.contention_events as f64);
        out.insert("kernel.shootdowns", self.shootdowns as f64);
    }
}

/// User + system CPU seconds this process has used so far (all
/// threads, finished ones included), from `/proc/self/stat`. Zero when
/// the file cannot be read.
#[must_use]
pub fn process_cpu_s() -> f64 {
    // USER_HZ, the unit of the utime/stime fields, is 100 on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14 and stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Times `f` and the process CPU it used: `(value, wall_s, cpu_s)`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, process_cpu_s() - cpu0)
}

/// Runs a set-up closure `reps` times and returns the median seconds
/// and the last value built. Each repetition's value is dropped before
/// the next is built, so no two are alive at once.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    times.sort_by(f64::total_cmp);
    (
        times[times.len() / 2],
        last.expect("at least one repetition"),
    )
}

/// Nanoseconds per item, zero for no items.
#[must_use]
pub fn ns_per(seconds: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        seconds * 1e9 / items as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtlb_types::Cycles;

    #[test]
    fn audit_catches_buckets_that_do_not_add_up() {
        let mut r = RunReport::default();
        r.buckets.user = Cycles::new(10);
        r.total_cycles = Cycles::new(10);
        let mut cells = Cells::default();
        let l = cells.add("cell");
        audit_report(&mut cells, &l, &r);
        assert_eq!(cells.failed(), 0);
        r.total_cycles = Cycles::new(11);
        audit_report(&mut cells, &l, &r);
        assert_eq!(cells.failed(), 1);
        assert_eq!(cells.reasons().len(), 1);
    }

    #[test]
    fn process_cpu_clock_advances() {
        let (_, wall, cpu) = measure(|| {
            let t = Instant::now();
            while t.elapsed().as_millis() < 100 {
                std::hint::black_box(0u64);
            }
        });
        assert!(wall >= 0.1 && cpu > 0.0, "wall {wall} cpu {cpu}");
    }
}

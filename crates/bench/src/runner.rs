//! Parallel sweep execution.
//!
//! Every sweep in [`experiments`](crate::experiments) is a set of
//! *independent* simulations — one workload on one [`MachineConfig`] —
//! so the drivers describe their work as [`JobSpec`] lists (or labelled
//! closures, for experiments that drive a machine by hand) and hand them
//! to a [`Runner`]. The runner executes them across OS threads with
//! [`std::thread::scope`]; no job queue crate, no channels.
//!
//! Two properties the rest of the crate relies on:
//!
//! * **Determinism.** Results always come back in job order, whatever
//!   order the jobs finished in, so tables and CSVs built from them are
//!   byte-identical between `--jobs 1` and `--jobs N`. Each simulation
//!   is single-threaded and seeded, so its simulated cycle counts cannot
//!   depend on scheduling either.
//! * **Attribution.** The runner records per-job host wall time and
//!   simulated cycles ([`JobRecord`]); `repro --bench-report` drains
//!   these into `BENCH_baseline.json`.
//!
//! Every job runs its workload live. The first job of each `(workload,
//! scale)` pair also records the op stream as an [`mtlb_trace`] buffer
//! ([`Runner::trace`], [`Runner::recorded_traces`], `repro
//! --record-traces`); only traces handed in with
//! [`Runner::preload_trace`] (`repro --replay-traces`) are replayed.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mtlb_sim::{Bucket, Machine, MachineConfig, RingTrace, RunReport};
use mtlb_trace::TraceWriter;
use mtlb_workloads::{Outcome, Scale};

use crate::experiments::workload_by_name;

/// The scale discriminant stored in a trace header ([`mtlb_trace`]
/// keeps it a raw byte so it does not depend on the workloads crate).
#[must_use]
pub fn scale_byte(scale: Scale) -> u8 {
    match scale {
        Scale::Test => 0,
        Scale::Paper => 1,
    }
}

/// Inverts [`scale_byte`].
#[must_use]
pub fn scale_from_byte(byte: u8) -> Option<Scale> {
    match byte {
        0 => Some(Scale::Test),
        1 => Some(Scale::Paper),
        _ => None,
    }
}

/// One independent simulation: a workload on a machine configuration.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display label, e.g. `fig3/em3d/tlb64+mtlb`.
    pub label: String,
    /// Workload name (see [`crate::experiments::WORKLOADS`]).
    pub workload: &'static str,
    /// Workload scale.
    pub scale: Scale,
    /// The machine to run it on.
    pub cfg: MachineConfig,
}

impl JobSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        workload: &'static str,
        scale: Scale,
        cfg: MachineConfig,
    ) -> Self {
        JobSpec {
            label: label.into(),
            workload,
            scale,
            cfg,
        }
    }
}

/// The outcome of one completed [`JobSpec`].
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec's label.
    pub label: String,
    /// Workload outcome (checksum + self-check).
    pub outcome: Outcome,
    /// Full statistics snapshot of the run.
    pub report: RunReport,
    /// Bytes the translation front end could map without a miss at
    /// the end of the run ([`Machine::tlb_reach_bytes`]).
    pub tlb_reach_bytes: u64,
    /// Host wall time the job took.
    pub wall: Duration,
}

/// What one simulation produces, and what the result cache keeps.
#[derive(Clone, Debug)]
struct Simulated {
    outcome: Outcome,
    report: RunReport,
    tlb_reach_bytes: u64,
}

/// A host-time record of one finished job, for `--bench-report`.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// Host wall time.
    pub wall: Duration,
    /// Simulated cycles, when the job was a machine simulation.
    pub sim_cycles: Option<u64>,
}

/// A labelled closure job, for experiments that drive a machine by hand
/// rather than running a named workload (paging, multiprogramming, …).
pub struct Task<'scope, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'scope>,
}

impl<'scope, T> Task<'scope, T> {
    /// Wraps a closure with a display label.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'scope) -> Self {
        Task {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// What a runner holds for one `(workload, scale)` pair's op stream.
#[derive(Debug)]
enum TraceSlot {
    /// A job of this pair is running live with a [`TraceWriter`]
    /// attached; no other job records it.
    Recording,
    /// Recorded by this runner's first job of the pair. Later jobs
    /// still run live: the trace is kept for `repro --record-traces`.
    Recorded(Arc<Vec<u8>>),
    /// Loaded with [`Runner::preload_trace`]; every job of the pair
    /// replays it. The first job whose replay fails records a live run
    /// in its place.
    Preloaded(Arc<Vec<u8>>),
}

/// Op traces keyed by the `(workload, scale)` pair whose address
/// stream they capture.
type TraceCache = BTreeMap<(&'static str, Scale), TraceSlot>;

/// Finished simulations keyed by `(workload, scale, config)` — the
/// config via its exhaustive `Debug` rendering. Simulations are
/// deterministic, so identical rows appearing across experiments in
/// one sweep (`fig3` and `fig3.4` share several) run once.
type ResultCache = BTreeMap<(&'static str, Scale, String), Simulated>;

/// Executes independent jobs across OS threads, returning results in
/// deterministic job order.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    live: bool,
    trace: bool,
    traces: Mutex<TraceCache>,
    results: Mutex<ResultCache>,
    records: Mutex<Vec<JobRecord>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::with_jobs(0)
    }
}

impl Runner {
    /// A runner executing jobs one at a time, in order, on the calling
    /// thread — the pre-parallelism behaviour.
    #[must_use]
    pub fn serial() -> Self {
        Runner::with_jobs(1)
    }

    /// A runner using `jobs` worker threads; `0` means the host's
    /// available parallelism.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        Runner {
            jobs,
            live: false,
            trace: false,
            traces: Mutex::new(BTreeMap::new()),
            results: Mutex::new(BTreeMap::new()),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Enables a per-job completion line on stderr (label, wall time,
    /// simulated cycles). Stdout stays untouched so rendered tables and
    /// CSVs remain byte-identical across jobs levels.
    #[must_use]
    pub fn live_progress(mut self, on: bool) -> Self {
        self.live = on;
        self
    }

    /// Attaches a [`RingTrace`] sink to every simulated machine and
    /// prints a per-job cycle-attribution summary (events seen, cycles
    /// per bucket) on stderr when the job completes. Stdout — and the
    /// simulated cycle counts themselves — are unaffected.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// The worker-thread count this runner uses.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Seeds the runner with an externally recorded trace (see
    /// `repro --replay-traces`): every later job of this `(workload,
    /// scale)` pair replays it instead of running the workload.
    /// Ignored when the runner already holds a trace for the pair.
    pub fn preload_trace(&self, workload: &'static str, scale: Scale, bytes: Vec<u8>) {
        self.traces
            .lock()
            .expect("traces")
            .entry((workload, scale))
            .or_insert_with(|| TraceSlot::Preloaded(Arc::new(bytes)));
    }

    /// The op stream held for one `(workload, scale)` pair: recorded by
    /// this runner's first job of the pair, or preloaded. `None` before
    /// any job of the pair has finished recording.
    #[must_use]
    pub fn trace(&self, workload: &str, scale: Scale) -> Option<Arc<Vec<u8>>> {
        match self.traces.lock().expect("traces").get(&(workload, scale)) {
            Some(TraceSlot::Recorded(bytes) | TraceSlot::Preloaded(bytes)) => {
                Some(Arc::clone(bytes))
            }
            Some(TraceSlot::Recording) | None => None,
        }
    }

    /// Snapshots the traces held so far — one per `(workload, scale)`
    /// pair this runner has run (or was preloaded with); see
    /// `repro --record-traces`.
    #[must_use]
    pub fn recorded_traces(&self) -> Vec<(&'static str, Scale, Arc<Vec<u8>>)> {
        let traces = self.traces.lock().expect("traces");
        let mut out: Vec<_> = traces
            .iter()
            .filter_map(|(&(name, scale), slot)| match slot {
                TraceSlot::Recording => None,
                TraceSlot::Recorded(bytes) | TraceSlot::Preloaded(bytes) => {
                    Some((name, scale, Arc::clone(bytes)))
                }
            })
            .collect();
        out.sort_by_key(|&(name, scale, _)| (name, scale_byte(scale)));
        out
    }

    /// Runs every spec and returns their results in spec order.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        self.execute(specs.len(), |i| {
            let spec = &specs[i];
            let start = Instant::now();
            let sim = self.simulate(spec);
            let wall = start.elapsed();
            self.note(&spec.label, wall, Some(sim.report.total_cycles.get()));
            JobResult {
                label: spec.label.clone(),
                outcome: sim.outcome,
                report: sim.report,
                tlb_reach_bytes: sim.tlb_reach_bytes,
                wall,
            }
        })
    }

    /// One simulation: deduplicated against an already-finished
    /// identical row when possible, simulated otherwise.
    fn simulate(&self, spec: &JobSpec) -> Simulated {
        // Trace mode bypasses the dedup so every job still prints its
        // own cycle-attribution summary.
        let dedup_key =
            (!self.trace).then(|| (spec.workload, spec.scale, format!("{:?}", spec.cfg)));
        if let Some(key) = &dedup_key {
            if let Some(sim) = self.results.lock().expect("results").get(key) {
                return sim.clone();
            }
        }
        let sim = self.simulate_uncached(spec);
        if let Some(key) = dedup_key {
            self.results
                .lock()
                .expect("results")
                .insert(key, sim.clone());
        }
        sim
    }

    /// Runs the simulation for real: replayed from a preloaded trace
    /// when one is held for the pair, live otherwise. The first live
    /// job of each pair claims the recording under the lock and runs
    /// with a [`TraceWriter`] attached; so does the first job whose
    /// preloaded trace fails to replay, so the bad bytes are replaced
    /// and no later job of the pair retries them.
    fn simulate_uncached(&self, spec: &JobSpec) -> Simulated {
        let key = (spec.workload, spec.scale);
        let (preloaded, mut record) = {
            let mut traces = self.traces.lock().expect("traces");
            match traces.get(&key) {
                Some(TraceSlot::Preloaded(bytes)) => (Some(Arc::clone(bytes)), false),
                Some(_) => (None, false),
                None => {
                    traces.insert(key, TraceSlot::Recording);
                    (None, true)
                }
            }
        };
        if let Some(bytes) = preloaded {
            let mut machine = self.machine(spec);
            match mtlb_trace::replay(&mut machine, &bytes) {
                Ok(header) => {
                    let tlb_reach_bytes = machine.tlb_reach_bytes();
                    let report = machine.report();
                    self.trace_summary(&spec.label, &mut machine);
                    let outcome = Outcome {
                        checksum: header.checksum,
                        verified: header.verified,
                    };
                    return Simulated {
                        outcome,
                        report,
                        tlb_reach_bytes,
                    };
                }
                // The trace does not apply to this machine (corrupt, or
                // recorded from another build): run live instead of
                // failing the sweep, recording the stream unless another
                // job of the pair already replaced these bytes.
                Err(e) => {
                    eprintln!("[replay] {}: {e}; running live", spec.label);
                    let mut traces = self.traces.lock().expect("traces");
                    if let Some(TraceSlot::Preloaded(held)) = traces.get(&key) {
                        if Arc::ptr_eq(held, &bytes) {
                            traces.insert(key, TraceSlot::Recording);
                            record = true;
                        }
                    }
                }
            }
        }
        let mut machine = self.machine(spec);
        if record {
            machine.set_op_sink(Box::new(TraceWriter::new()));
        }
        let outcome = workload_by_name(spec.workload, spec.scale).run(&mut machine);
        let tlb_reach_bytes = machine.tlb_reach_bytes();
        let report = machine.report();
        if let Some(sink) = machine.take_op_sink() {
            if let Ok(writer) = sink.into_any().downcast::<TraceWriter>() {
                let bytes = writer.finish(
                    spec.workload,
                    scale_byte(spec.scale),
                    outcome.checksum,
                    outcome.verified,
                );
                self.traces
                    .lock()
                    .expect("traces")
                    .insert(key, TraceSlot::Recorded(Arc::new(bytes)));
            }
        }
        self.trace_summary(&spec.label, &mut machine);
        Simulated {
            outcome,
            report,
            tlb_reach_bytes,
        }
    }

    /// A fresh machine for `spec`, with the `--trace` ring attached when
    /// tracing is on.
    fn machine(&self, spec: &JobSpec) -> Machine {
        let mut machine = Machine::new(spec.cfg.clone());
        if self.trace {
            machine.set_trace_sink(Box::new(RingTrace::new(1024)));
        }
        machine
    }

    /// Prints the per-job cycle-attribution summary when `--trace` is
    /// on. Identical for live and replayed runs — the charge stream is.
    fn trace_summary(&self, label: &str, machine: &mut Machine) {
        if let Some(sink) = machine.take_trace_sink() {
            if let Some(ring) = sink.as_any().downcast_ref::<RingTrace>() {
                let per_bucket: Vec<String> = Bucket::ALL
                    .iter()
                    .map(|&b| format!("{} {}", b.name(), ring.bucket_cycles(b).get()))
                    .collect();
                eprintln!(
                    "[trace] {label}: {} events ({} retained), cycles by bucket: {}",
                    ring.events(),
                    ring.records().count(),
                    per_bucket.join(", ")
                );
            }
        }
    }

    /// Runs labelled closures and returns their values in task order.
    pub fn run_tasks<T: Send>(&self, tasks: Vec<Task<'_, T>>) -> Vec<T> {
        let cells: Vec<Mutex<Option<Task<'_, T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.execute(cells.len(), |i| {
            let task = cells[i]
                .lock()
                .expect("task cell")
                .take()
                .expect("each task runs exactly once");
            let start = Instant::now();
            let value = (task.run)();
            self.note(&task.label, start.elapsed(), None);
            value
        })
    }

    /// Drains the per-job records accumulated so far.
    pub fn take_records(&self) -> Vec<JobRecord> {
        std::mem::take(&mut *self.records.lock().expect("records"))
    }

    fn note(&self, label: &str, wall: Duration, sim_cycles: Option<u64>) {
        if self.live {
            match sim_cycles {
                Some(c) => eprintln!("[job] {label}: {:>9.2?} wall, {c} simulated cycles", wall),
                None => eprintln!("[job] {label}: {:>9.2?} wall", wall),
            }
        }
        self.records.lock().expect("records").push(JobRecord {
            label: label.to_string(),
            wall,
            sim_cycles,
        });
    }

    /// Runs `worker(0..n)` across the configured threads; `out[i]` is
    /// `worker(i)`. With one job (or one item) this degenerates to a
    /// plain in-order loop on the calling thread.
    fn execute<T: Send>(&self, n: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.jobs <= 1 || n <= 1 {
            return (0..n).map(worker).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = worker(i);
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job completed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for jobs in [1, 2, 7] {
            let runner = Runner::with_jobs(jobs);
            let tasks: Vec<Task<'_, usize>> = (0..23usize)
                .map(|i| {
                    Task::new(format!("t{i}"), move || {
                        // Stagger finish times so out-of-order completion
                        // would be caught.
                        std::thread::sleep(Duration::from_micros((((23 - i) % 5) * 200) as u64));
                        i
                    })
                })
                .collect();
            let got = runner.run_tasks(tasks);
            assert_eq!(got, (0..23usize).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(Runner::with_jobs(0).jobs() >= 1);
        assert_eq!(Runner::serial().jobs(), 1);
    }

    #[test]
    fn records_carry_labels_and_wall_times() {
        let runner = Runner::with_jobs(2);
        let _ = runner.run_tasks(vec![Task::new("a", || 1u32), Task::new("b", || 2u32)]);
        let mut labels: Vec<String> = runner.take_records().into_iter().map(|r| r.label).collect();
        labels.sort();
        assert_eq!(labels, ["a", "b"]);
        assert!(runner.take_records().is_empty(), "drained");
    }

    #[test]
    fn recorded_traces_can_seed_another_runner() {
        use mtlb_sim::MachineConfig;
        let spec = JobSpec::new("a", "radix", Scale::Test, MachineConfig::paper_mtlb(64));
        let recorder = Runner::serial();
        let first = recorder.run(std::slice::from_ref(&spec));
        let traces = recorder.recorded_traces();
        assert_eq!(traces.len(), 1);
        let (name, scale, bytes) = &traces[0];
        assert_eq!((*name, *scale), ("radix", Scale::Test));

        let seeded = Runner::serial();
        seeded.preload_trace(name, *scale, bytes.to_vec());
        let second = seeded.run(std::slice::from_ref(&spec));
        assert_eq!(
            format!("{:?}", first[0].report),
            format!("{:?}", second[0].report)
        );
        assert_eq!(first[0].outcome, second[0].outcome);
    }

    #[test]
    fn identical_simulations_on_any_jobs_level() {
        use mtlb_sim::MachineConfig;
        let spec =
            |label: &str| JobSpec::new(label, "radix", Scale::Test, MachineConfig::paper_base(64));
        let serial = Runner::serial().run(&[spec("s0"), spec("s1")]);
        let threaded = Runner::with_jobs(4).run(&[spec("p0"), spec("p1")]);
        for (a, b) in serial.iter().zip(&threaded) {
            // RunReport carries no PartialEq; its Debug output covers
            // every field, so this is full-report equality.
            assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
            assert_eq!(a.outcome.checksum, b.outcome.checksum);
        }
    }
}

//! `fig3-sweep`: the paper's Figure 3 sweep on two paper-scale kernels.
//!
//! The measured part is one call of `experiments::fig3`, exactly what
//! `repro fig3` runs for these kernels. The traced run then drives the
//! same cells through each layer's entry points from here: the Runner
//! split into its record and replay phases, a live `Workload::run`, a
//! capturing run with `TraceWriter`, `decode_trace`, and both `replay`
//! and `replay_decoded` on the 96-entry base system and its MTLB twin.

use std::collections::BTreeMap;

use mtlb_bench::experiments::{self, workload_by_name};
use mtlb_bench::runner::{scale_byte, JobSpec, Runner};
use mtlb_sim::{Machine, MachineConfig, RunReport};
use mtlb_trace::TraceWriter;
use mtlb_workloads::Scale;

use crate::common::{audit_machine, audit_report, measure, median_setup, ns_per, sim_ops};
use crate::common::{Cells, Counters, RunResult};
use crate::pins;
use crate::span::Tracer;

/// One streaming/permutation kernel and one pointer-chasing kernel.
pub const KERNELS: [&str; 2] = ["radix", "vortex"];
/// The paper's CPU TLB sizes.
const TLB_SIZES: [usize; 3] = [64, 96, 128];
/// Bytes the decoded SoA batches hold per op (tag + address + arg);
/// the sparse side table for block/stream extras is not counted.
const DECODED_BYTES_PER_OP: u64 = 17;

/// The six machine configurations of one kernel's Figure 3 row, in
/// the order `experiments::fig3` creates its jobs: the 96-entry base
/// system first, then each (size, MTLB) cell.
#[must_use]
pub fn configs() -> Vec<(String, MachineConfig)> {
    let mut out = vec![("tlb96".to_string(), MachineConfig::paper_base(96))];
    for &e in &TLB_SIZES {
        for mtlb in [false, true] {
            if !mtlb && e == 96 {
                continue;
            }
            if mtlb {
                out.push((format!("tlb{e}+mtlb"), MachineConfig::paper_mtlb(e)));
            } else {
                out.push((format!("tlb{e}"), MachineConfig::paper_base(e)));
            }
        }
    }
    out
}

fn label(kernel: &str, entries: usize, mtlb: bool) -> String {
    format!(
        "fig3/{kernel}/tlb{entries}{}",
        if mtlb { "+mtlb" } else { "" }
    )
}

/// One workload run. `threads` sizes the Runner; `tracer` is on for
/// the traced run.
pub fn run(threads: usize, setup_reps: usize, tracer: &mut Tracer) -> RunResult {
    let (setup_s, runner) = median_setup(setup_reps, || {
        let runner = Runner::with_jobs(threads);
        for k in KERNELS {
            drop(workload_by_name(k, Scale::Paper));
            for (_, cfg) in configs() {
                drop(Machine::new(cfg));
            }
        }
        runner
    });

    let (rows, wall_s, cpu_s) = measure(|| {
        tracer.span("runner.fig3", |_| {
            experiments::fig3(&runner, Scale::Paper, &TLB_SIZES, &KERNELS)
        })
    });

    let mut res = RunResult {
        setup_s,
        wall_s,
        cpu_s,
        ..RunResult::default()
    };
    let mut counters = Counters::default();
    for row in &rows {
        let l = res
            .cells
            .add(label(row.workload, row.tlb_entries, row.mtlb));
        res.sim_ops += sim_ops(&row.report);
        counters.add(&row.report);
        res.cells
            .check(&l, row.verified, || "workload self-check failed".into());
        audit_report(&mut res.cells, &l, &row.report);
        check_pin(&mut res.cells, &l, row.total_cycles);
    }
    // Replayed cells report the recorded run's checksum, so one
    // header per kernel covers every configuration of it.
    let recorded = runner.recorded_traces();
    for kernel in KERNELS {
        let header = recorded
            .iter()
            .find(|(name, _, _)| *name == kernel)
            .map(|(_, _, bytes)| mtlb_trace::read_header(bytes));
        let want = pins::checksum(kernel);
        for (c, _) in configs() {
            let l = format!("fig3/{kernel}/{c}");
            match &header {
                Some(Ok(h)) => res
                    .cells
                    .check(&l, Some(h.checksum) == want && h.verified, || {
                        format!("recorded checksum {:#x}, pinned {want:?}", h.checksum)
                    }),
                Some(Err(e)) => res.cells.fail(&l, format!("unreadable recording: {e}")),
                None => res
                    .cells
                    .fail(&l, "the Runner recorded no stream".to_string()),
            }
        }
    }
    drop(recorded);

    if tracer.on() {
        let records = runner.take_records();
        drop(runner);
        res.layers
            .insert("runner.cells_requested", rows.len() as f64);
        res.layers
            .insert("runner.cells_simulated", records.len() as f64);
        layer_walk(threads, tracer, &mut res, &mut counters);
        counters.emit(&mut res.layers);
    }
    res
}

/// Fails `label` unless its simulated total equals the pinned value.
pub fn check_pin(cells: &mut Cells, label: &str, total_cycles: u64) {
    let want = pins::cycles(label);
    cells.check(label, want == Some(total_cycles), || {
        format!("total_cycles {total_cycles}, pinned {want:?}")
    });
}

/// The traced run's per-layer pass over the same cells.
fn layer_walk(threads: usize, tracer: &mut Tracer, res: &mut RunResult, counters: &mut Counters) {
    let mut record_s = 0.0;
    let mut replay_s = 0.0;
    let mut recording_bytes = 0u64;
    let mut live_ops = 0u64;
    let mut trace_ops = 0u64;
    let mut trace_bytes = 0u64;
    let mut replayed_ops = 0u64;

    for kernel in KERNELS {
        // The Runner, phase by phase: the first cell records the
        // kernel's stream, the other five replay it.
        let runner = Runner::with_jobs(threads);
        let specs: Vec<JobSpec> = configs()
            .into_iter()
            .map(|(c, cfg)| JobSpec::new(format!("{kernel}/{c}"), kernel, Scale::Paper, cfg))
            .collect();
        tracer.span("runner.record", |_| runner.run(&specs[..1]));
        record_s += runner
            .take_records()
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .sum::<f64>();
        tracer.span("runner.replay", |_| runner.run(&specs[1..]));
        replay_s += runner
            .take_records()
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .sum::<f64>();
        for (_, _, bytes) in runner.recorded_traces() {
            let ops = mtlb_trace::TraceReader::new(&bytes).map_or(0, |r| r.remaining());
            recording_bytes += bytes.len() as u64 + ops * DECODED_BYTES_PER_OP;
        }
        drop(runner);

        // Live, with no sink: the workload layer on its own.
        let base_label = format!("fig3/{kernel}/tlb96");
        let mut m = tracer.call("sim.machine_new", || {
            Machine::new(MachineConfig::paper_base(96))
        });
        let live_outcome = tracer.span("workloads.run", |_| {
            workload_by_name(kernel, Scale::Paper).run(&mut m)
        });
        let live_report = tracer.call("sim.report", || m.report());
        drop(m);
        let live_total = live_report.total_cycles.get();
        check_pin(&mut res.cells, &base_label, live_total);
        res.cells.check(
            &base_label,
            pins::checksum(kernel) == Some(live_outcome.checksum),
            || format!("live checksum {:#x}", live_outcome.checksum),
        );

        // The same run with a capturing trace writer.
        let mut m = tracer.call("sim.machine_new", || {
            Machine::new(MachineConfig::paper_base(96))
        });
        let (bytes, decoded) = tracer.span("trace.capture", |_| {
            m.set_op_sink(Box::new(TraceWriter::capturing()));
            let outcome = workload_by_name(kernel, Scale::Paper).run(&mut m);
            let writer = m
                .take_op_sink()
                .and_then(|s| s.into_any().downcast::<TraceWriter>().ok())
                .expect("capturing writer attached");
            writer.finish_decoded(
                kernel,
                scale_byte(Scale::Paper),
                outcome.checksum,
                outcome.verified,
            )
        });
        let decoded = decoded.expect("capturing writer yields batches");
        live_ops += decoded.ops();
        trace_ops += decoded.ops();
        trace_bytes += bytes.len() as u64;

        let redecoded = tracer.span("trace.decode", |_| mtlb_trace::decode_trace(&bytes));
        res.cells.check(
            &base_label,
            redecoded.as_ref().map(|d| d.ops()).ok() == Some(decoded.ops()),
            || "decode_trace disagrees with the captured batches".into(),
        );
        drop(redecoded);

        // Both replay engines on the base system and its MTLB twin.
        for (c, cfg) in configs()
            .into_iter()
            .filter(|(c, _)| c.starts_with("tlb96"))
        {
            let l = format!("fig3/{kernel}/{c}");
            let streamed = replay_one(tracer, "trace.replay", &cfg, |m| {
                mtlb_trace::replay(m, &bytes)
            });
            let batched = replay_one(tracer, "trace.replay_decoded", &cfg, |m| {
                mtlb_trace::replay_decoded(m, &decoded)
            });
            replayed_ops += decoded.ops();
            for (how, got) in [("replay", streamed), ("replay_decoded", batched)] {
                match got {
                    Ok((m, report)) => {
                        check_pin(&mut res.cells, &l, report.total_cycles.get());
                        audit_machine(&mut res.cells, &l, &m, &report);
                        if how == "replay_decoded" {
                            counters.add_machine(&m);
                        }
                    }
                    Err(e) => res.cells.fail(&l, format!("{how}: {e}")),
                }
            }
        }
    }

    let l = &mut res.layers;
    l.insert("runner.record_s", record_s);
    l.insert("runner.replay_s", replay_s);
    l.insert("runner.recording_mb", recording_bytes as f64 / 1e6);
    l.insert("trace.ops", trace_ops as f64);
    l.insert(
        "trace.bytes_per_op",
        if trace_ops == 0 {
            0.0
        } else {
            trace_bytes as f64 / trace_ops as f64
        },
    );
    l.insert(
        "trace.capture_s",
        tracer.span_s("trace.capture") - tracer.span_s("workloads.run"),
    );
    l.insert("trace.decode_s", tracer.span_s("trace.decode"));
    l.insert(
        "trace.replay_ns_per_op",
        ns_per(tracer.span_s("trace.replay"), replayed_ops),
    );
    l.insert(
        "trace.replay_batched_ns_per_op",
        ns_per(tracer.span_s("trace.replay_decoded"), replayed_ops),
    );
    l.insert(
        "workloads.live_ns_per_op",
        ns_per(tracer.span_s("workloads.run"), live_ops),
    );
    l.insert("sim.machine_new_ms", tracer.median_ms("sim.machine_new"));
    l.insert("sim.report_ms", tracer.median_ms("sim.report"));
}

/// Builds a machine for `cfg` and replays into it under a span named
/// `span`; returns the machine and its report.
fn replay_one(
    tracer: &mut Tracer,
    span: &'static str,
    cfg: &MachineConfig,
    replay: impl FnOnce(&mut Machine) -> Result<mtlb_trace::TraceHeader, mtlb_trace::TraceError>,
) -> Result<(Machine, RunReport), mtlb_trace::TraceError> {
    let mut m = tracer.call("sim.machine_new", || Machine::new(cfg.clone()));
    tracer.span(span, |_| replay(&mut m))?;
    let report = tracer.call("sim.report", || m.report());
    Ok((m, report))
}

/// Cell labels and pinned totals of one run, as Rust source for
/// [`pins`]: regenerates the table after a deliberate model change.
pub fn print_pins(threads: usize) {
    let runner = Runner::with_jobs(threads);
    let rows = experiments::fig3(&runner, Scale::Paper, &TLB_SIZES, &KERNELS);
    let mut seen = BTreeMap::new();
    for row in &rows {
        seen.insert(
            label(row.workload, row.tlb_entries, row.mtlb),
            row.total_cycles,
        );
    }
    for (l, c) in seen {
        println!("    (\"{l}\", {c}),");
    }
    for (name, _, bytes) in runner.recorded_traces() {
        if let Ok(h) = mtlb_trace::read_header(&bytes) {
            println!("    checksum (\"{name}\", {:#x}),", h.checksum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_pinned_cycles_fail_the_cell() {
        let label = "fig3/radix/tlb64";
        let pinned = pins::cycles(label).expect("cell is pinned");
        let mut cells = Cells::default();
        let l = cells.add(label);
        check_pin(&mut cells, &l, pinned);
        assert_eq!(cells.failed(), 0);
        check_pin(&mut cells, &l, pinned + 1);
        assert_eq!((cells.attempted(), cells.failed()), (1, 1));
    }

    #[test]
    fn unpinned_cell_fails() {
        let mut cells = Cells::default();
        let l = cells.add("fig3/radix/tlb256");
        check_pin(&mut cells, &l, 1);
        assert_eq!(cells.failed(), 1);
    }

    #[test]
    fn every_fig3_cell_and_kernel_is_pinned() {
        for k in KERNELS {
            assert!(pins::checksum(k).is_some(), "{k}");
            for (c, _) in configs() {
                assert!(pins::cycles(&format!("fig3/{k}/{c}")).is_some(), "{k}/{c}");
            }
        }
    }
}

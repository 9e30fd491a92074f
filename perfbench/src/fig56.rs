//! `fig5-fig6`: the rival-scheme shoot-out, then the 4-instance
//! multi-core co-run, on the `fig3-sweep` kernels with one Runner.
//!
//! The measured part is `experiments::fig5` at the 96-entry size
//! followed by `experiments::fig6`, the calls `repro` makes for them.
//! The traced
//! run then records each kernel's op stream once and drives it from
//! here: `apply_op` on one core, and a 4-core co-run through
//! `spawn_process` / `set_active_core` / `try_switch_process` /
//! `apply_op`.

use mtlb_bench::experiments::{self, workload_by_name};
use mtlb_bench::runner::Runner;
use mtlb_mem::FrameOrder;
use mtlb_schemes::SchemeConfig;
use mtlb_sim::{Machine, MachineConfig, MachineOp, VecOpSink};
use mtlb_types::PAGE_SIZE;
use mtlb_workloads::Scale;

use crate::common::{audit_machine, audit_report, measure, median_setup, ns_per, sim_ops};
use crate::common::{Counters, RunResult};
use crate::fig3::{check_pin, KERNELS};
use crate::pins;
use crate::span::Tracer;

/// Co-running instances in the fig6 cell.
pub const INSTANCES: usize = 4;
/// CPU TLB sizes of the fig5 cells: the paper's 96 entries only. Every
/// rival scheme still runs, and a run takes about 40 % less time than
/// with 64/96/128, so a 60 s benchmark run on a 2-vCPU host holds four
/// or five of them and its median rests on more than two or three.
const FIG5_TLB_SIZES: [usize; 1] = [96];

/// Every machine configuration the two experiments build: each fig5
/// scheme at each size, and the fig6 co-run machine.
fn configs() -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for &e in &FIG5_TLB_SIZES {
        out.push(MachineConfig::paper_base(e));
        out.push(MachineConfig::paper_mtlb(e));
        let mut coalesced = MachineConfig::paper_base(e).with_scheme(SchemeConfig::Coalesced);
        coalesced.kernel.frame_order = FrameOrder::Sequential;
        out.push(coalesced);
    }
    out.push(MachineConfig::paper_mtlb(96).with_scheme(SchemeConfig::Split));
    out.push(MachineConfig::paper_mtlb(96).with_cores(INSTANCES));
    out
}

/// One workload run. `threads` sizes the Runner; `tracer` is on for
/// the traced run.
pub fn run(threads: usize, setup_reps: usize, tracer: &mut Tracer) -> RunResult {
    let (setup_s, runner) = median_setup(setup_reps, || {
        let runner = Runner::with_jobs(threads);
        for k in KERNELS {
            drop(workload_by_name(k, Scale::Paper));
        }
        for cfg in configs() {
            drop(Machine::new(cfg));
        }
        runner
    });

    let ((fig5, fig6), wall_s, cpu_s) = measure(|| {
        let fig5 = tracer.span("runner.fig5", |_| {
            experiments::fig5(&runner, Scale::Paper, &FIG5_TLB_SIZES, &KERNELS)
        });
        let fig6 = tracer.span("runner.fig6", |_| {
            experiments::fig6(&runner, Scale::Paper, &[INSTANCES], &KERNELS)
        });
        (fig5, fig6)
    });

    let mut res = RunResult {
        setup_s,
        wall_s,
        cpu_s,
        ..RunResult::default()
    };
    let mut counters = Counters::default();
    for row in &fig5 {
        let l = res.cells.add(format!(
            "fig5/{}/{}{}",
            row.workload, row.scheme, row.tlb_entries
        ));
        res.sim_ops += sim_ops(&row.report);
        counters.add(&row.report);
        audit_report(&mut res.cells, &l, &row.report);
        check_pin(&mut res.cells, &l, row.total_cycles);
    }
    for row in &fig6 {
        let l = res
            .cells
            .add(format!("fig6/{}/x{}", row.workload, row.instances));
        res.sim_ops += sim_ops(&row.report);
        counters.add(&row.report);
        audit_report(&mut res.cells, &l, &row.report);
        check_pin(&mut res.cells, &l, row.corun_cycles);
        // The fig6 baseline is a second recording of the fig5 mtlb96 cell.
        let want = pins::cycles(&format!("fig5/{}/mtlb96", row.workload));
        res.cells.check(&l, want == Some(row.baseline_cycles), || {
            format!("baseline_cycles {}, pinned {want:?}", row.baseline_cycles)
        });
    }

    if tracer.on() {
        let records = runner.take_records();
        let l = &mut res.layers;
        l.insert("runner.cells_requested", (fig5.len() + fig6.len()) as f64);
        l.insert("runner.cells_simulated", records.len() as f64);
        let (record_s, replay_s) = records.iter().fold((0.0, 0.0), |(rec, rep), r| {
            let s = r.wall.as_secs_f64();
            if r.label.ends_with("/record") {
                (rec + s, rep)
            } else {
                (rec, rep + s)
            }
        });
        l.insert("runner.record_s", record_s);
        l.insert("runner.replay_s", replay_s);
        // fig5 records each kernel on the 96-entry MTLB machine and that
        // run is its mtlb cell, so no replay task of that scheme exists:
        // the probe below replays it the way fig5 replays the others.
        for scheme in ["cpu", "coalesced", "split"] {
            let (mut wall, mut ops) = (0.0, 0u64);
            for row in fig5.iter().filter(|r| r.scheme == scheme) {
                let label = format!("fig5/{}/{}{}", row.workload, scheme, row.tlb_entries);
                if let Some(rec) = records.iter().find(|r| r.label == label) {
                    wall += rec.wall.as_secs_f64();
                    ops += sim_ops(&row.report);
                }
            }
            let name = match scheme {
                "cpu" => "schemes.cpu.ns_per_op",
                "coalesced" => "schemes.coalesced.ns_per_op",
                _ => "schemes.split.ns_per_op",
            };
            l.insert(name, ns_per(wall, ops));
        }
        drop(runner);
        probe(tracer, &mut res, &mut counters);
        counters.emit(&mut res.layers);
    }
    res
}

/// The traced run's single-core versus co-run comparison.
fn probe(tracer: &mut Tracer, res: &mut RunResult, counters: &mut Counters) {
    let mut applied = 0u64;
    let mut applied_sim_ops = 0u64;
    let mut coran = 0u64;
    let mut recording_bytes = 0usize;
    for kernel in KERNELS {
        let record_label = format!("fig5/{kernel}/mtlb96");
        let mut m = tracer.call("sim.machine_new", || {
            Machine::new(MachineConfig::paper_mtlb(96))
        });
        m.set_op_sink(Box::new(VecOpSink::default()));
        let outcome = tracer.span("workloads.record", |_| {
            workload_by_name(kernel, Scale::Paper).run(&mut m)
        });
        let ops = m
            .take_op_sink()
            .and_then(|s| s.into_any().downcast::<VecOpSink>().ok())
            .expect("VecOpSink attached")
            .ops;
        recording_bytes += ops.len() * std::mem::size_of::<MachineOp>();
        let report = tracer.call("sim.report", || m.report());
        drop(m);
        check_pin(&mut res.cells, &record_label, report.total_cycles.get());
        res.cells.check(
            &record_label,
            outcome.verified && pins::checksum(kernel) == Some(outcome.checksum),
            || format!("recorded outcome {outcome:?}"),
        );

        // One core: apply_op over the recorded stream.
        let mut m = tracer.call("sim.machine_new", || {
            Machine::new(MachineConfig::paper_mtlb(96))
        });
        // The recording's few Kernel services are timed one by one.
        let replayed = tracer.span("sim.apply", |t| {
            ops.iter()
                .enumerate()
                .try_for_each(|(i, op)| match kernel_call(op) {
                    Some(name) => t.call(name, || mtlb_trace::apply_op(&mut m, op, i as u64)),
                    None => mtlb_trace::apply_op(&mut m, op, i as u64),
                })
        });
        applied += ops.len() as u64;
        let report = tracer.call("sim.report", || m.report());
        applied_sim_ops += sim_ops(&report);
        match replayed {
            Ok(()) => {
                check_pin(&mut res.cells, &record_label, report.total_cycles.get());
                audit_machine(&mut res.cells, &record_label, &m, &report);
                counters.add_machine(&m);
            }
            Err(e) => res.cells.fail(&record_label, format!("apply_op: {e}")),
        }
        drop(m);

        // INSTANCES cores, one process each, round-robin one op per core
        // per turn — the fig6 schedule, driven through the public API.
        let corun_label = format!("fig6/{kernel}/x{INSTANCES}");
        let mut m = tracer.call("sim.machine_new", || {
            Machine::new(MachineConfig::paper_mtlb(96).with_cores(INSTANCES))
        });
        let mut deltas = vec![0u64];
        let mut switched = Ok(());
        for core in 1..INSTANCES {
            let pid = m.spawn_process();
            deltas
                .push(Machine::process_heap_base(pid).get() - Machine::process_heap_base(0).get());
            m.set_active_core(core);
            switched = switched.and(tracer.call("os.switch", || m.try_switch_process(pid)));
        }
        m.set_active_core(0);
        let coran_before = coran;
        let corun = tracer.span("sim.corun", |_| {
            for (i, op) in ops.iter().enumerate() {
                for (core, &delta) in deltas.iter().enumerate() {
                    let Some(op) = rebase(op, delta) else {
                        continue;
                    };
                    m.set_active_core(core);
                    mtlb_trace::apply_op(&mut m, &op, i as u64)?;
                    coran += 1;
                }
            }
            Ok::<(), mtlb_trace::TraceError>(())
        });
        let report = tracer.call("sim.report", || m.report());
        match (switched, corun) {
            (Ok(()), Ok(())) => {
                check_pin(&mut res.cells, &corun_label, report.total_cycles.get());
                audit_machine(&mut res.cells, &corun_label, &m, &report);
                counters.add_machine(&m);
                // The co-run's core switches again, timed on their own
                // so that the clock reads stay out of `sim.corun`.
                tracer.span("sim.set_active_core", |_| {
                    for i in 1..=coran - coran_before {
                        m.set_active_core(i as usize % INSTANCES);
                    }
                });
            }
            (Err(e), _) => res.cells.fail(&corun_label, format!("switch: {e}")),
            (_, Err(e)) => res
                .cells
                .fail(&corun_label, format!("co-run apply_op: {e}")),
        }
    }
    let l = &mut res.layers;
    // Each experiment holds every kernel's Vec<MachineOp> at once.
    l.insert("runner.recording_mb", recording_bytes as f64 / 1e6);
    l.insert(
        "sim.apply_ns_per_op",
        ns_per(tracer.span_s("sim.apply"), applied),
    );
    l.insert(
        "schemes.mtlb.ns_per_op",
        ns_per(tracer.span_s("sim.apply"), applied_sim_ops),
    );
    l.insert(
        "sim.corun_ns_per_op",
        ns_per(tracer.span_s("sim.corun"), coran),
    );
    l.insert(
        "sim.set_active_core_s",
        tracer.span_s("sim.set_active_core"),
    );
    l.insert("sim.machine_new_ms", tracer.median_ms("sim.machine_new"));
    l.insert("sim.report_ms", tracer.median_ms("sim.report"));
    for (call, p50, p99) in OS_CALLS {
        let us = |q| {
            tracer
                .calls(call)
                .map_or(0.0, |c| c.quantile_ns(q) as f64 / 1e3)
        };
        l.insert(p50, us(0.50));
        l.insert(p99, us(0.99));
    }
}

/// Timed Kernel services and their per-layer percentile metrics.
const OS_CALLS: [(&str, &str, &str); 3] = [
    ("os.sbrk", "os.sbrk_us.p50", "os.sbrk_us.p99"),
    ("os.remap", "os.remap_us.p50", "os.remap_us.p99"),
    ("os.switch", "os.switch_us.p50", "os.switch_us.p99"),
];

/// The traced call name of a recorded op that runs a Kernel service.
fn kernel_call(op: &MachineOp) -> Option<&'static str> {
    match op {
        MachineOp::Sbrk { .. } => Some("os.sbrk"),
        MachineOp::Remap { .. } => Some("os.remap"),
        _ => None,
    }
}

/// Moves a recorded op's virtual addresses `delta` bytes up, into
/// another process's 4 GB window (the fig6 relocation). Heap growth and
/// program loads place themselves per process; process-control ops
/// cannot occur in a single-process recording and are dropped.
fn rebase(op: &MachineOp, delta: u64) -> Option<MachineOp> {
    use MachineOp as O;
    let pages = delta / PAGE_SIZE;
    Some(match *op {
        O::Read { va, size } => O::Read {
            va: va + delta,
            size,
        },
        O::Write { va, size } => O::Write {
            va: va + delta,
            size,
        },
        O::ReadBlock { va, len, instr } => O::ReadBlock {
            va: va + delta,
            len,
            instr,
        },
        O::WriteBlock { va, len, instr } => O::WriteBlock {
            va: va + delta,
            len,
            instr,
        },
        O::StreamReadU32 { base, count, instr } => O::StreamReadU32 {
            base: base + delta,
            count,
            instr,
        },
        O::StreamWriteU32 { base, count, instr } => O::StreamWriteU32 {
            base: base + delta,
            count,
            instr,
        },
        O::StreamWritePairU32 { a, b, count, instr } => O::StreamWritePairU32 {
            a: a + delta,
            b: b + delta,
            count,
            instr,
        },
        O::StreamWriteU32F64 { a, b, count, instr } => O::StreamWriteU32F64 {
            a: a + delta,
            b: b + delta,
            count,
            instr,
        },
        O::MapRegion { start, len, prot } => O::MapRegion {
            start: start + delta,
            len,
            prot,
        },
        O::Remap { start, len } => O::Remap {
            start: start + delta,
            len,
        },
        O::SwapOutSuperpage { vpn } => O::SwapOutSuperpage {
            vpn: vpn.offset(pages),
        },
        O::DemoteSuperpage { vpn } => O::DemoteSuperpage {
            vpn: vpn.offset(pages),
        },
        O::PageBits { vpn } => O::PageBits {
            vpn: vpn.offset(pages),
        },
        O::RecolorPage { vpn, color } => O::RecolorPage {
            vpn: vpn.offset(pages),
            color,
        },
        O::Execute { .. } | O::Sbrk { .. } | O::LoadProgram { .. } => *op,
        O::SpawnProcess | O::SwitchProcess { .. } | O::ResetStats => return None,
    })
}

/// Cell labels and pinned totals of one run, as Rust source for
/// [`pins`].
pub fn print_pins(threads: usize) {
    let runner = Runner::with_jobs(threads);
    for row in experiments::fig5(&runner, Scale::Paper, &FIG5_TLB_SIZES, &KERNELS) {
        println!(
            "    (\"fig5/{}/{}{}\", {}),",
            row.workload, row.scheme, row.tlb_entries, row.total_cycles
        );
    }
    for row in experiments::fig6(&runner, Scale::Paper, &[INSTANCES], &KERNELS) {
        println!(
            "    (\"fig6/{}/x{}\", {}),",
            row.workload, row.instances, row.corun_cycles
        );
    }
}

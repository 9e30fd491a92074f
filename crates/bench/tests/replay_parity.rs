//! Replay-parity regression gate: trace record/replay must be
//! invisible in simulated results.
//!
//! Builds the exact Figure 3 job grid (every workload × TLB size ×
//! MTLB on/off, test scale) and runs it twice — once live on a runner
//! that records each workload's op stream, and once on a second runner
//! seeded with those recordings, which replays every row — comparing
//! the serialized `RunReport` JSON byte-for-byte on every row, plus
//! the workload outcomes. Any divergence means replay is not
//! cycle-faithful and fails the build.

use mtlb_bench::experiments;
use mtlb_bench::runner::{JobResult, JobSpec, Runner};
use mtlb_sim::MachineConfig;
use mtlb_workloads::Scale;

/// The Figure 3 grid at test scale: per workload, the base-96 job plus
/// one job per (size, mtlb) cell — the same specs `experiments::fig3`
/// submits.
fn fig3_specs() -> Vec<JobSpec> {
    let workloads: [&'static str; 5] = ["compress95", "em3d", "radix", "vortex", "cc1"];
    let mut specs = Vec::new();
    for name in workloads {
        specs.push(JobSpec::new(
            format!("fig3/{name}/base96"),
            name,
            Scale::Test,
            MachineConfig::paper_base(96),
        ));
        for entries in [64usize, 96, 128] {
            for mtlb in [false, true] {
                if !mtlb && entries == 96 {
                    continue;
                }
                let (cfg, tag) = if mtlb {
                    (MachineConfig::paper_mtlb(entries), "+mtlb")
                } else {
                    (MachineConfig::paper_base(entries), "")
                };
                specs.push(JobSpec::new(
                    format!("fig3/{name}/tlb{entries}{tag}"),
                    name,
                    Scale::Test,
                    cfg,
                ));
            }
        }
    }
    specs
}

/// Runs `specs` live, then again on a runner seeded (through
/// `preload_trace`) with the live runner's recordings, after passing
/// each recording through `tamper`; returns both result lists.
fn live_and_replayed(
    specs: &[JobSpec],
    tamper: impl Fn(&[u8]) -> Vec<u8>,
) -> (Vec<JobResult>, Vec<JobResult>) {
    let live_runner = Runner::serial();
    let live = live_runner.run(specs);
    let seeded = Runner::serial();
    let traces = live_runner.recorded_traces();
    assert!(!traces.is_empty(), "the live runner recorded nothing");
    for (name, scale, bytes) in traces {
        seeded.preload_trace(name, scale, tamper(&bytes));
    }
    let replayed = seeded.run(specs);
    (live, replayed)
}

fn assert_rows_identical(live: &[JobResult], replayed: &[JobResult]) {
    assert_eq!(replayed.len(), live.len());
    for (r, l) in replayed.iter().zip(live) {
        assert_eq!(r.label, l.label);
        assert_eq!(
            r.report.to_json(),
            l.report.to_json(),
            "replayed RunReport diverged from live for {}",
            r.label
        );
        assert_eq!(r.outcome, l.outcome, "outcome diverged for {}", r.label);
    }
}

#[test]
fn replayed_fig3_rows_are_byte_identical_to_live() {
    let specs = fig3_specs();
    let (live, replayed) = live_and_replayed(&specs, <[u8]>::to_vec);
    assert_rows_identical(&live, &replayed);
}

#[test]
fn synthetic_workloads_replay_identically_too() {
    let specs: Vec<JobSpec> = ["synth_seq", "synth_stride", "synth_rand"]
        .into_iter()
        .flat_map(|name| {
            [64usize, 128].into_iter().map(move |entries| {
                JobSpec::new(
                    format!("synth/{name}/tlb{entries}"),
                    name,
                    Scale::Test,
                    MachineConfig::paper_mtlb(entries),
                )
            })
        })
        .collect();
    let (live, replayed) = live_and_replayed(&specs, <[u8]>::to_vec);
    assert_rows_identical(&live, &replayed);
}

/// A preloaded trace that fails part-way through replay (here: its
/// last bytes cut off) must not leak into results: the runner falls
/// back to a live run of the job.
#[test]
fn corrupt_preloaded_trace_falls_back_to_live() {
    let specs: Vec<JobSpec> = [64usize, 128]
        .into_iter()
        .map(|entries| {
            JobSpec::new(
                format!("radix/tlb{entries}"),
                "radix",
                Scale::Test,
                MachineConfig::paper_mtlb(entries),
            )
        })
        .collect();
    let (live, replayed) = live_and_replayed(&specs, |bytes| bytes[..bytes.len() - 3].to_vec());
    assert_rows_identical(&live, &replayed);
}

/// The live fallback for a preloaded trace that fails to replay records
/// the stream and replaces the bad bytes, so later jobs of the pair do
/// not retry them and fig6 co-runs from the good recording: fig5 and
/// fig6 rows then equal a live runner's.
#[test]
fn corrupt_preloaded_trace_is_replaced_by_a_live_recording() {
    let live = Runner::serial();
    let live5 = experiments::fig5(&live, Scale::Test, &[96], &["radix"]);
    let live6 = experiments::fig6(&live, Scale::Test, &[2], &["radix"]);
    let good = live
        .trace("radix", Scale::Test)
        .expect("live runner recorded radix");

    let seeded = Runner::serial();
    seeded.preload_trace("radix", Scale::Test, good[..good.len() - 3].to_vec());
    let got5 = experiments::fig5(&seeded, Scale::Test, &[96], &["radix"]);
    let got6 = experiments::fig6(&seeded, Scale::Test, &[2], &["radix"]);

    assert_eq!(got5.len(), live5.len());
    for (g, l) in got5.iter().zip(&live5) {
        assert_eq!((g.scheme, g.tlb_entries), (l.scheme, l.tlb_entries));
        assert_eq!(format!("{:?}", g.report), format!("{:?}", l.report));
        assert_eq!(g.reach_bytes, l.reach_bytes);
    }
    assert_eq!(got6.len(), live6.len());
    for (g, l) in got6.iter().zip(&live6) {
        assert_eq!(format!("{:?}", g.report), format!("{:?}", l.report));
        assert_eq!(g.baseline_cycles, l.baseline_cycles);
    }
    let held = seeded.trace("radix", Scale::Test).expect("trace held");
    assert_eq!(held.as_slice(), good.as_slice(), "bad bytes replaced");
}

//! Simulated results pinned for the current model at the benchmark's
//! scale. A cell whose total differs from its pin counts as failed: a
//! host-side change must never move a simulated cycle. A deliberate
//! model change regenerates the tables with `perfbench pins`.

/// `(cell label, total simulated cycles)`.
const CYCLES: &[(&str, u64)] = &[
    ("fig3/radix/tlb128", 267719552),
    ("fig3/radix/tlb128+mtlb", 165671262),
    ("fig3/radix/tlb64", 275002152),
    ("fig3/radix/tlb64+mtlb", 165671262),
    ("fig3/radix/tlb96", 271407800),
    ("fig3/radix/tlb96+mtlb", 165671262),
    ("fig3/vortex/tlb128", 117178433),
    ("fig3/vortex/tlb128+mtlb", 116176207),
    ("fig3/vortex/tlb64", 130170303),
    ("fig3/vortex/tlb64+mtlb", 116176207),
    ("fig3/vortex/tlb96", 123296015),
    ("fig3/vortex/tlb96+mtlb", 116176207),
    ("fig5/radix/cpu96", 271407800),
    ("fig5/radix/mtlb96", 165671262),
    ("fig5/radix/coalesced96", 187338272),
    ("fig5/radix/split104", 165671262),
    ("fig5/vortex/cpu96", 123296015),
    ("fig5/vortex/mtlb96", 116176207),
    ("fig5/vortex/coalesced96", 100036511),
    ("fig5/vortex/split104", 116635499),
    ("fig6/radix/x4", 764648280),
    ("fig6/vortex/x4", 520066906),
];

/// `(kernel, workload checksum)` of the paper-scale kernels.
const CHECKSUMS: &[(&str, u64)] = &[("radix", 0x93d782820d782d1), ("vortex", 0x92a1545ecc2d6b25)];

/// The pinned total of a cell, if it has one.
#[must_use]
pub fn cycles(label: &str) -> Option<u64> {
    CYCLES.iter().find(|(l, _)| *l == label).map(|&(_, c)| c)
}

/// The pinned checksum of a kernel, if it has one.
#[must_use]
pub fn checksum(kernel: &str) -> Option<u64> {
    CHECKSUMS
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|&(_, c)| c)
}

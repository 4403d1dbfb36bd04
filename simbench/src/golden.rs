//! Golden output digests (see `digest.rs` for the hash). A simulator
//! change that claims to keep behaviour must leave every one of these
//! unchanged; a change that alters behaviour on purpose updates them and
//! says so. A mismatching run prints the digest it got.

use crate::workloads::Kind;

/// Digest of each single-run workload's output at
/// [`REFERENCE_SEED`](crate::workloads::REFERENCE_SEED): `Stats`, plus
/// the JSONL byte stream for observed_locks.
pub fn single(kind: Kind) -> u64 {
    match kind {
        Kind::DenseSharing => 0x533d_7eb9_4b5b_f63e,
        Kind::LockHandoff => 0xbd0a_3490_7c35_9dd0,
        Kind::ObservedLocks => 0x72b0_0476_aca5_cd45,
        Kind::ExperimentSuite => unreachable!("the suite has one digest per experiment"),
    }
}

/// Digest of each experiment's rendered report, E1 first.
pub const SUITE: [u64; 13] = [
    0x6695_a79b_553b_8871,
    0x13db_59de_c0ad_77cd,
    0x9aa2_470b_2a1d_fa22,
    0x8e70_8660_3a27_c818,
    0x0f84_5de0_38bd_aef7,
    0xbbd3_0220_e1dc_c3e2,
    0xd57a_123c_7f55_87e3,
    0x31d3_d43a_66fe_ef8a,
    0xbb0b_c384_a049_b759,
    0x49e6_5ba2_0c13_c7aa,
    0x3cb6_4942_f3cc_0739,
    0x9be9_2fc0_01de_858f,
    0x9c23_92ec_7570_959a,
];

//! Goldens for the serial fallback on real programs.
//!
//! The trend baselines only cover partitioned programs, so nothing else
//! pins what the shared-cache fallback computes for a StreamMD step.
//! Each water-216 variant's step program is forced off the parallel path
//! (intents cleared, plus one load of the scatter-added `forces` region:
//! a read/reduce `RegionConflict`) and every simulated observable is
//! compared with recorded values at one and two host threads; the
//! thread count may not show. The interpreter's check of these kernels
//! on real strip data is `tape_equivalence`'s launch oracle.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_arch::MachineConfig;
use merrimac_sim::program::{BufferDecl, LabelledOp};
use merrimac_sim::timeline::Unit;
use merrimac_sim::{
    BatchWidth, BufferId, CacheAccessStats, Counters, FallbackKind, HostExec, StreamOp,
    StreamProcessor,
};
use streammd::{StreamMdApp, Variant};

struct Golden {
    variant: Variant,
    cycles: u64,
    counters: Counters,
    sdr_peak: usize,
    srf_peak_words_per_cluster: usize,
    cache_stats: CacheAccessStats,
    timeline_fnv: u64,
    forces_fnv: u64,
}

/// `counters` and `cache` in field declaration order.
#[allow(clippy::too_many_arguments)]
const fn golden(
    variant: Variant,
    cycles: u64,
    counters: [u64; 9],
    sdr_peak: usize,
    srf_peak_words_per_cluster: usize,
    cache: [u64; 5],
    timeline_fnv: u64,
    forces_fnv: u64,
) -> Golden {
    Golden {
        variant,
        cycles,
        counters: Counters {
            lrf_refs: counters[0],
            srf_refs: counters[1],
            mem_refs: counters[2],
            hardware_flops: counters[3],
            hardware_ops: counters[4],
            kernel_iterations: counters[5],
            dram_words: counters[6],
            cache_hits: counters[7],
            cache_misses: counters[8],
        },
        sdr_peak,
        srf_peak_words_per_cluster,
        cache_stats: CacheAccessStats {
            accesses: cache[0],
            hits: cache[1],
            misses: cache[2],
            writebacks: cache[3],
            max_bank_load: cache[4],
        },
        timeline_fnv,
        forces_fnv,
    }
}

/// Recorded at the commit before the scoreboard stopped executing ops.
const GOLDENS: [Golden; 4] = [
    golden(
        Variant::Expanded,
        159_627,
        [
            10_864_656, 389_880, 415_968, 4_054_752, 3_404_952, 8_664, 261_936, 178_539, 32_721,
        ],
        1,
        3_584,
        [415_968, 178_539, 32_721, 0, 1_255],
        0x971f_78e3_6b4f_7d90,
        0xf940_3b22_1f7d_10a6,
    ),
    golden(
        Variant::Fixed,
        106_341,
        [
            14_595_609, 248_121, 262_727, 5_445_603, 4_575_003, 1_451, 147_150, 130_067, 18_391,
        ],
        1,
        3_935,
        [262_727, 130_067, 18_391, 0, 6_333],
        0x9f21_9141_d177_4ce3,
        0x618b_6472_eb4d_22ee,
    ),
    golden(
        Variant::Variable,
        76_004,
        [
            11_909_832, 184_159, 192_923, 4_134_636, 3_727_240, 8_668, 110_324, 110_872, 13_789,
        ],
        1,
        6_486,
        [192_923, 110_872, 13_789, 0, 2_564],
        0x2121_2a60_0603_155a,
        0xf287_7ea1_4a47_5a84,
    ),
    golden(
        Variant::Duplicated,
        156_574,
        [
            24_901_506, 261_954, 288_510, 9_358_902, 7_771_302, 2_646, 266_548, 46_819, 33_317,
        ],
        1,
        4_725,
        [288_510, 46_819, 33_317, 0, 527],
        0xabc9_fe6a_6d59_f4e3,
        0x5709_9cd4_0d82_0d35,
    ),
];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

#[test]
fn forced_fallback_matches_recorded_goldens_on_water_216() {
    let system = WaterBox::builder().molecules(216).seed(7).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 1,
    };
    let list = NeighborList::build(&system, params);
    let mut app = StreamMdApp::new(MachineConfig::default());
    app.neighbor = params;

    for golden in &GOLDENS {
        let v = golden.variant;
        let mut step = app.build_step_program(&system, &list, v);
        step.program.intents.clear();
        let last_strip = step.program.ops.last().expect("non-empty program").strip;
        step.program.buffers.push(BufferDecl {
            name: "forces readback".into(),
            record_len: 3,
        });
        step.program.ops.push(LabelledOp {
            op: StreamOp::Load {
                region: step.forces,
                record_len: 3,
                start: 0,
                records: 32,
                dst: BufferId(step.program.buffers.len() - 1),
            },
            label: "load forces readback".into(),
            strip: last_strip,
        });

        for threads in [1usize, 2] {
            let what = format!("{v} threads={threads}");
            let mut mem = step.memory.clone();
            let report = StreamProcessor::new(app.cfg.clone())
                .with_costs(app.costs.clone())
                .with_policy(app.policy)
                .with_host(HostExec { threads })
                .with_batch_width(BatchWidth::W8)
                .run(&mut mem, &step.program)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(!report.partition.parallelized, "{what}: must fall back");
            assert_eq!(
                report.partition.fallback,
                Some(FallbackKind::RegionConflict),
                "{what}"
            );

            let mut timeline = Fnv::new();
            for iv in &report.timeline.intervals {
                timeline.word(match iv.unit {
                    Unit::Kernel => 0,
                    Unit::Memory => 1,
                });
                timeline.word(iv.start);
                timeline.word(iv.end);
                timeline.bytes(iv.label.as_bytes());
                timeline.word(iv.strip as u64);
            }
            let mut forces = Fnv::new();
            for x in mem.data(step.forces) {
                forces.word(x.to_bits());
            }

            assert_eq!(report.cycles, golden.cycles, "{what}: cycles");
            assert_eq!(report.counters, golden.counters, "{what}: counters");
            assert_eq!(report.sdr_peak, golden.sdr_peak, "{what}: SDR peak");
            assert_eq!(
                report.srf_peak_words_per_cluster, golden.srf_peak_words_per_cluster,
                "{what}: SRF peak"
            );
            assert_eq!(
                report.cache_stats, golden.cache_stats,
                "{what}: cache stats"
            );
            assert_eq!(
                timeline.0, golden.timeline_fnv,
                "{what}: timeline hash {:#018x}",
                timeline.0
            );
            assert_eq!(
                forces.0, golden.forces_fnv,
                "{what}: force-bit hash {:#018x}",
                forces.0
            );
        }
    }
}

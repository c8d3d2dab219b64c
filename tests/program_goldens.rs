//! Goldens for what `crates/core` generates: kernel IR and step-program
//! shape.
//!
//! Schedules, `sim_cycles` and the trend baselines hang on the node
//! order of the generated kernels and on the region / buffer / op order
//! of the built step programs, so both are pinned to the bit here:
//! recorded at the commit before the kernel builders and strip emitters
//! were merged, and unchanged by that merge. The TIP5P rows were added
//! with N-site water, which left every row above them as it was.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_kernel::Kernel;
use merrimac_sim::{RegionId, StreamOp};
use streammd::kernels::{atom_block_kernel, block_kernel, workload_kernel};
use streammd::{StreamMdApp, Variant, Workload};

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

    fn word(&mut self, w: usize) {
        self.bytes(&(w as u64).to_le_bytes());
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.word(s.len());
        self.bytes(s.as_bytes());
    }
}

fn kernel_pin(k: &Kernel) -> (String, usize, u64) {
    let mut h = Fnv::new();
    h.bytes(format!("{k:?}").as_bytes());
    (k.name.clone(), k.nodes.len(), h.0)
}

#[test]
fn kernel_ir_is_pinned() {
    let mut got = Vec::new();
    for w in Workload::ALL {
        for v in Variant::ALL {
            got.push(kernel_pin(&workload_kernel(w, v, 8)));
        }
    }
    for l in [1, 4] {
        for partials in [true, false] {
            got.push(kernel_pin(&block_kernel(l, partials)));
            for coulomb in [false, true] {
                got.push(kernel_pin(&atom_block_kernel(coulomb, l, partials)));
            }
        }
    }
    let tip5p = Workload::of_model(&WaterModel::tip5p());
    for v in Variant::ALL {
        got.push(kernel_pin(&workload_kernel(tip5p, v, 8)));
    }
    let want: Vec<(String, usize, u64)> = KERNEL_PINS
        .iter()
        .map(|&(name, nodes, fnv)| (name.to_string(), nodes, fnv))
        .collect();
    assert_eq!(got, want, "got {got:?}");
}

/// (kernel name, `nodes.len()`, FNV-1a of `format!("{kernel:?}")`).
const KERNEL_PINS: [(&str, usize, u64); 28] = [
    ("streammd_expanded", 258, 0x71b4_4c2c_ca49_e1c0),
    ("streammd_fixed_l8", 1829, 0x53d3_0a88_59ba_291e),
    ("streammd_variable", 315, 0x6ea3_2a93_0438_28a8),
    ("streammd_duplicated_l8", 1829, 0x024d_d221_61b9_6f50),
    ("streammd_lj_expanded", 48, 0xc504_c043_9c25_4923),
    ("streammd_lj_fixed_l8", 290, 0xe023_38c5_339f_0423),
    ("streammd_lj_variable", 69, 0x8fa6_f76e_27f5_ca02),
    ("streammd_lj_duplicated_l8", 290, 0x3d61_a422_2ddf_d7ca),
    ("streammd_charged_expanded", 55, 0x0b2d_c9a9_07a0_b25b),
    ("streammd_charged_fixed_l8", 339, 0x1e1f_8f85_af6e_398a),
    ("streammd_charged_variable", 76, 0x7be5_5631_41f3_b8d6),
    ("streammd_charged_duplicated_l8", 339, 0x8c47_59da_b602_004d),
    ("streammd_fixed_l1", 268, 0xe865_dc59_4b90_d5b4),
    ("streammd_lj_fixed_l1", 52, 0xf97a_92cb_2710_1dcb),
    ("streammd_charged_fixed_l1", 59, 0x857d_d49a_55da_ffa6),
    ("streammd_duplicated_l1", 268, 0xc106_7ffe_9181_88a1),
    ("streammd_lj_duplicated_l1", 52, 0xcb86_6b74_01a3_5257),
    ("streammd_charged_duplicated_l1", 59, 0x45bd_91d7_63b1_b6e6),
    ("streammd_fixed_l4", 937, 0x1f59_be92_98cb_67ff),
    ("streammd_lj_fixed_l4", 154, 0x3e4b_607f_cff6_c487),
    ("streammd_charged_fixed_l4", 179, 0xa912_94ea_0ddb_dad8),
    ("streammd_duplicated_l4", 937, 0x29c0_7313_5269_6cad),
    ("streammd_lj_duplicated_l4", 154, 0x4679_042b_21ab_7b76),
    ("streammd_charged_duplicated_l4", 179, 0x1010_0efb_2ed1_9dfd),
    ("streammd_5site_expanded", 462, 0x2dce_f397_0a7b_a791),
    ("streammd_5site_fixed_l8", 3271, 0x05b9_6d08_b774_5ce1),
    ("streammd_5site_variable", 555, 0x6397_681b_053c_ff1a),
    ("streammd_5site_duplicated_l8", 3271, 0x56f7_cc73_11ef_d120),
];

/// Region names and lengths, buffer names and record widths, and every
/// op in order: strip, label, mnemonic and the region / buffer ids and
/// record widths it is wired to.
fn program_pin(app: &StreamMdApp, system: &WaterBox, variant: Variant) -> (usize, u64) {
    let list = NeighborList::build(system, app.neighbor);
    let step = app.build_step_program(system, &list, variant);
    let mut h = Fnv::new();
    h.word(step.forces.0);
    h.word(step.memory.num_regions());
    for r in (0..step.memory.num_regions()).map(RegionId) {
        h.str(step.memory.name(r));
        h.word(step.memory.data(r).len());
    }
    h.word(step.program.buffers.len());
    for b in &step.program.buffers {
        h.str(&b.name);
        h.word(b.record_len);
    }
    for (region, intent) in &step.program.intents {
        h.word(*region);
        h.str(&intent.to_string());
    }
    for op in &step.program.ops {
        h.word(op.strip);
        h.str(&op.label);
        h.str(op.op.mnemonic());
        match &op.op {
            StreamOp::Gather {
                region,
                record_len,
                indices,
                dst,
            } => {
                for w in [region.0, *record_len, indices.len(), dst.0] {
                    h.word(w);
                }
            }
            StreamOp::Load {
                region,
                record_len,
                start,
                records,
                dst,
            } => {
                for w in [region.0, *record_len, *start, *records, dst.0] {
                    h.word(w);
                }
            }
            StreamOp::Kernel {
                kernel,
                inputs,
                outputs,
                params,
                iterations,
                max_cluster_iterations,
            } => {
                h.str(&kernel.ir.name);
                for b in inputs.iter().chain(outputs) {
                    h.word(b.0);
                }
                for p in params {
                    h.bytes(&p.to_bits().to_le_bytes());
                }
                h.word(*iterations as usize);
                h.word(*max_cluster_iterations as usize);
            }
            StreamOp::ScatterAdd {
                src,
                region,
                record_len,
                indices,
            } => {
                for w in [src.0, region.0, *record_len, indices.len()] {
                    h.word(w);
                }
            }
            StreamOp::Store {
                src,
                region,
                record_len,
                start,
            } => {
                for w in [src.0, region.0, *record_len, *start] {
                    h.word(w);
                }
            }
        }
    }
    (step.program.ops.len(), h.0)
}

#[test]
fn step_program_shape_is_pinned() {
    let mut got = Vec::new();
    for model in [
        WaterModel::spc(),
        WaterModel::lj_atom(),
        WaterModel::tip5p(),
    ] {
        let builder = WaterBox::builder().molecules(64).seed(99);
        let system = if model.num_sites() == 1 {
            builder.model(model).density(21.0).build()
        } else {
            builder.model(model).build()
        };
        let app = StreamMdApp::builder()
            .neighbor(NeighborListParams {
                cutoff: (0.45 * system.pbc().side()).min(1.0),
                skin: 0.0,
                rebuild_interval: 1,
            })
            // Several strips per program, so per-strip names and ids show.
            .strip_iterations(40)
            .build()
            .unwrap();
        for variant in Variant::ALL {
            got.push(program_pin(&app, &system, variant));
        }
    }
    assert_eq!(got, PROGRAM_PINS, "got {got:?}");
}

/// (ops, FNV-1a of the shape) for water-64, lj-64, then tip5p-64,
/// `Variant::ALL` order.
const PROGRAM_PINS: [(usize, u64); 12] = [
    (180, 0xf7d9_f53e_a7b4_cd07),
    (45, 0x45c6_a79b_065b_7d2b),
    (154, 0xffc0_93ce_fd18_0b6e),
    (64, 0x383f_ff82_878d_463b),
    (180, 0xad0b_5650_6fe5_7dad),
    (45, 0x99f4_7d5f_4df1_2961),
    (154, 0x8e46_c374_6499_4b2f),
    (64, 0x4554_05eb_ce11_1951),
    (180, 0x6b82_0dbb_fa84_c038),
    (45, 0x9079_e27f_494a_8dfa),
    (154, 0x589b_7417_bdc0_f60c),
    (64, 0x8f0f_3464_2e82_4824),
];

//! The water-water interaction kernels, one per StreamMD variant.
//!
//! All four share the same molecule-pair interaction subgraph, which is
//! constructed to match the paper's operation budget exactly: **234
//! programmer-visible flops per interaction, including 9 divides and 9
//! square roots** (Section 3). The budget decomposes as
//!
//! ```text
//!   9 atom pairs × 23  (displacement, r², √, ÷, Coulomb, force, accum)   207
//!   Lennard-Jones terms on the O-O pair                                  +12
//!   periodic shift applied to the centre molecule                         +9
//!   virial (shift-force) accumulation, 3 fused multiply-adds              +6
//!                                                                       = 234
//! ```
//!
//! Kernel launch parameters (same order for every variant): the 9
//! Coulomb charge products `qq[a][b]` pre-scaled by 1/4πɛ₀, then `C6`
//! and `C12`.

use md_sim::atomic::AtomForceField;
use md_sim::force::ForceField;
use md_sim::water::WaterModel;
use merrimac_kernel::builder::{KernelBuilder, Val, V3};
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::Kernel;

use crate::variant::Variant;
use crate::workload::Workload;

/// Number of launch parameters: 9 qq products + C6 + C12.
pub const NUM_PARAMS: usize = 11;

/// Pack force-field parameters in kernel launch order.
pub fn kernel_params(ff: &ForceField) -> Vec<f64> {
    let mut p = Vec::with_capacity(NUM_PARAMS);
    for a in 0..3 {
        for b in 0..3 {
            p.push(ff.qq[a][b]);
        }
    }
    p.push(ff.c6);
    p.push(ff.c12);
    p
}

/// Shared per-kernel constants and parameter handles.
struct Ctx {
    qq: [[Val; 3]; 3],
    c6: Val,
    c12: Val,
    six: Val,
    twelve: Val,
    one: Val,
}

impl Ctx {
    fn new(b: &mut KernelBuilder) -> Self {
        let mut qq = [[Val(0); 3]; 3];
        for row in qq.iter_mut() {
            for cell in row.iter_mut() {
                *cell = b.param();
            }
        }
        let c6 = b.param();
        let c12 = b.param();
        Self {
            qq,
            c6,
            c12,
            six: b.constant(6.0),
            twelve: b.constant(12.0),
            one: b.constant(1.0),
        }
    }
}

/// Accumulators threaded through interactions.
#[derive(Clone, Copy)]
struct Accum {
    e_coul: Val,
    e_lj: Val,
    virial: Val,
}

/// Per-interaction energy/virial contributions, reduced by the caller.
///
/// Keeping the accumulation *outside* the pair loop (a balanced tree per
/// iteration plus one register add) keeps the loop-carried recurrence a
/// single add deep, which is what lets the modulo scheduler reach a
/// resource-bound initiation interval.
struct Contribution {
    /// Coulomb energy of each of the 9 atom pairs.
    vc: Vec<Val>,
    /// Lennard-Jones energy of the O-O pair.
    de_lj: Val,
    /// Virial (shift-force) term of the O-O pair: a 3-deep madd chain
    /// seeded by a multiply (5 flops).
    vir: Val,
}

/// Balanced pairwise summation: `n − 1` adds.
fn tree_sum(b: &mut KernelBuilder, vals: &[Val]) -> Val {
    assert!(!vals.is_empty());
    let mut level: Vec<Val> = vals.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for chunk in level.chunks(2) {
            next.push(if chunk.len() == 2 {
                b.add(chunk[0], chunk[1])
            } else {
                chunk[0]
            });
        }
        level = next;
    }
    level[0]
}

/// Site positions of one molecule as three 3-vectors.
#[derive(Clone, Copy)]
struct Mol([V3; 3]);

fn read_molecule(b: &mut KernelBuilder, stream: u32, base_field: u32) -> Mol {
    Mol([
        b.read_v3(stream, base_field),
        b.read_v3(stream, base_field + 3),
        b.read_v3(stream, base_field + 6),
    ])
}

/// Apply the periodic shift to the centre molecule: 9 adds.
fn apply_shift(b: &mut KernelBuilder, c: Mol, shift: Mol) -> Mol {
    Mol([
        b.v3_add(c.0[0], shift.0[0]),
        b.v3_add(c.0[1], shift.0[1]),
        b.v3_add(c.0[2], shift.0[2]),
    ])
}

/// One molecule-pair interaction: returns (forces on centre sites,
/// forces on neighbour sites, energy/virial contributions). Together
/// with the caller-side reduction and the shift this totals exactly 234
/// solution flops per interaction (tested in this module).
fn interaction(
    b: &mut KernelBuilder,
    ctx: &Ctx,
    c_shifted: Mol,
    n: Mol,
) -> ([V3; 3], [V3; 3], Contribution) {
    let zero = b.constant(0.0);
    let zv = V3 {
        x: zero,
        y: zero,
        z: zero,
    };
    let mut fc = [zv; 3];
    let mut fn_ = [zv; 3];
    let mut vc_all = Vec::with_capacity(9);
    let mut de_lj = zero;
    let mut d_oo = zv;
    let mut f_oo = zv;

    // `a`/`n_site` are site indices into several parallel per-site
    // arrays (fc, fn_, qq), so plain index loops read best here.
    #[allow(clippy::needless_range_loop)]
    for a in 0..3 {
        for n_site in 0..3 {
            // Displacement and squared distance: 3 + 5 flops.
            let d = b.v3_sub(c_shifted.0[a], n.0[n_site]);
            let r2 = b.v3_norm2(d);
            // r = √r², 1/r = 1 ÷ r: the divide and square root of the
            // paper's accounting (one of each per atom pair).
            let r = b.sqrt(r2);
            let rinv = b.div(ctx.one, r);
            let rinv2 = b.mul(rinv, rinv);
            // Coulomb: V = qq/r, f/r = V/r².
            let vc = b.mul(ctx.qq[a][n_site], rinv);
            vc_all.push(vc);
            let mut fs = b.mul(vc, rinv2);
            if a == 0 && n_site == 0 {
                // Lennard-Jones on the oxygen pair: 11 flops here, the
                // 12th is the caller's accumulation of `de_lj`.
                let rinv4 = b.mul(rinv2, rinv2);
                let rinv6 = b.mul(rinv4, rinv2);
                let v6 = b.mul(ctx.c6, rinv6);
                let rinv12 = b.mul(rinv6, rinv6);
                let v12 = b.mul(ctx.c12, rinv12);
                de_lj = b.sub(v12, v6);
                let t12 = b.mul(ctx.twelve, v12);
                let u = b.nmsub(ctx.six, v6, t12); // 12·v12 − 6·v6
                let fs_lj = b.mul(u, rinv2);
                fs = b.add(fs, fs_lj);
            }
            let f = b.v3_scale(d, fs);
            fc[a] = b.v3_add(fc[a], f);
            fn_[n_site] = b.v3_sub(fn_[n_site], f);
            if a == 0 && n_site == 0 {
                d_oo = d;
                f_oo = f;
            }
        }
    }
    // Virial contribution of the O-O pair: mul + 2 madds (5 flops).
    let vx = b.mul(d_oo.x, f_oo.x);
    let vxy = b.madd(d_oo.y, f_oo.y, vx);
    let vir = b.madd(d_oo.z, f_oo.z, vxy);

    (
        fc,
        fn_,
        Contribution {
            vc: vc_all,
            de_lj,
            vir,
        },
    )
}

/// Reduce a set of per-interaction contributions into the accumulator
/// registers: a balanced tree per class plus one register add each.
fn reduce_contributions(b: &mut KernelBuilder, acc: Accum, contribs: &[Contribution]) -> Accum {
    let vcs: Vec<Val> = contribs.iter().flat_map(|c| c.vc.iter().copied()).collect();
    let des: Vec<Val> = contribs.iter().map(|c| c.de_lj).collect();
    let virs: Vec<Val> = contribs.iter().map(|c| c.vir).collect();
    let vc_sum = tree_sum(b, &vcs);
    let de_sum = tree_sum(b, &des);
    let vir_sum = tree_sum(b, &virs);
    Accum {
        e_coul: b.add(acc.e_coul, vc_sum),
        e_lj: b.add(acc.e_lj, de_sum),
        virial: b.add(acc.virial, vir_sum),
    }
}

/// Declare the three energy/virial accumulator registers and their
/// update chain for a kernel whose body computes `n_interactions`.
fn accum_regs(b: &mut KernelBuilder) -> (Accum, [u32; 3]) {
    let r_ec = b.reg(0.0);
    let r_el = b.reg(0.0);
    let r_vir = b.reg(0.0);
    let acc = Accum {
        e_coul: b.read_reg(r_ec),
        e_lj: b.read_reg(r_el),
        virial: b.read_reg(r_vir),
    };
    (acc, [r_ec, r_el, r_vir])
}

fn finish_accum(b: &mut KernelBuilder, regs: [u32; 3], acc: Accum) {
    b.set_reg(regs[0], acc.e_coul);
    b.set_reg(regs[1], acc.e_lj);
    b.set_reg(regs[2], acc.virial);
}

fn flatten(m: &[V3; 3]) -> Vec<Val> {
    m.iter().flat_map(|v| [v.x, v.y, v.z]).collect()
}

/// `expanded`: inputs c_pos(9) + c_shift(9) + n_pos(9); outputs both
/// partial-force records every iteration.
pub fn expanded_kernel() -> Kernel {
    let mut b = KernelBuilder::new("streammd_expanded");
    let s_cpos = b.input("c_positions", 9, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", 9, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", 9, StreamMode::EveryIteration);
    let o_cf = b.output("c_partial_forces", 9);
    let o_nf = b.output("n_partial_forces", 9);
    let ctx = Ctx::new(&mut b);
    let (acc0, regs) = accum_regs(&mut b);

    let c = read_molecule(&mut b, s_cpos, 0);
    let shift = read_molecule(&mut b, s_shift, 0);
    let n = read_molecule(&mut b, s_npos, 0);
    let cs = apply_shift(&mut b, c, shift);
    let (fc, fn_, contrib) = interaction(&mut b, &ctx, cs, n);
    let acc = reduce_contributions(&mut b, acc0, &[contrib]);
    let fc_flat = flatten(&fc);
    let fn_flat = flatten(&fn_);
    b.write(o_cf, &fc_flat);
    b.write(o_nf, &fn_flat);
    finish_accum(&mut b, regs, acc);
    b.build()
}

/// `fixed` / `duplicated` block kernel: one iteration processes a centre
/// with `l` (padded) neighbours. `write_neighbor_partials = false` gives
/// the `duplicated` kernel.
pub fn block_kernel(l: usize, write_neighbor_partials: bool) -> Kernel {
    assert!(l >= 1);
    let name = if write_neighbor_partials {
        format!("streammd_fixed_l{l}")
    } else {
        format!("streammd_duplicated_l{l}")
    };
    let mut b = KernelBuilder::new(name);
    let s_cpos = b.input("c_positions", 9, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", 9, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", (9 * l) as u32, StreamMode::EveryIteration);
    let o_cf = b.output("c_forces", 9);
    let o_nf = if write_neighbor_partials {
        Some(b.output("n_partial_forces", 9))
    } else {
        None
    };
    let ctx = Ctx::new(&mut b);
    let (acc0, regs) = accum_regs(&mut b);

    let c = read_molecule(&mut b, s_cpos, 0);
    let shift = read_molecule(&mut b, s_shift, 0);
    let cs = apply_shift(&mut b, c, shift);

    // Accumulate the centre force across the block in-LRF (the
    // "reduced within the cluster to save on output bandwidth" of
    // Section 3.3).
    let zero = b.constant(0.0);
    let zv = V3 {
        x: zero,
        y: zero,
        z: zero,
    };
    let mut fc_total = [zv; 3];
    let mut contribs = Vec::with_capacity(l);
    for nb in 0..l {
        let n = read_molecule(&mut b, s_npos, (9 * nb) as u32);
        let (fc, fn_, contrib) = interaction(&mut b, &ctx, cs, n);
        contribs.push(contrib);
        for site in 0..3 {
            fc_total[site] = b.v3_add(fc_total[site], fc[site]);
        }
        if let Some(o) = o_nf {
            let flat = flatten(&fn_);
            b.write(o, &flat);
        }
    }
    let acc = reduce_contributions(&mut b, acc0, &contribs);
    let flat = flatten(&fc_total);
    b.write(o_cf, &flat);
    finish_accum(&mut b, regs, acc);
    b.build()
}

/// `variable`: conditional-stream kernel. Inputs: `n_positions` (9,
/// every iteration), `new_center_flags` (1, every iteration), and the
/// conditional `center_records` stream (18 = 9 pos + 9 shift). Whenever
/// the flag fires, the previous centre's accumulated force is emitted
/// (conditional write) and a new centre record is popped.
pub fn variable_kernel() -> Kernel {
    let mut b = KernelBuilder::new("streammd_variable");
    let s_npos = b.input("n_positions", 9, StreamMode::EveryIteration);
    let s_flag = b.input("new_center_flags", 1, StreamMode::EveryIteration);
    let s_center = b.input("center_records", 18, StreamMode::Conditional);
    let o_cf = b.output("c_forces", 9);
    let o_nf = b.output("n_partial_forces", 9);
    let ctx = Ctx::new(&mut b);
    let (acc0, acc_regs) = accum_regs(&mut b);

    // Loop-carried centre state: the 18 position/shift words of a centre
    // record are added once, on refresh, so the registers hold the 9
    // *shifted* centre coordinates plus 9 accumulated force components.
    let zero = b.constant(0.0);
    let flag = b.read(s_flag, 0);
    let is_new = b.cmp_lt(zero, flag);

    // Previous accumulated centre force (flushed on a new centre).
    let fc_regs: Vec<u32> = (0..9).map(|_| b.reg(0.0)).collect();
    let fc_prev: Vec<Val> = fc_regs.iter().map(|&r| b.read_reg(r)).collect();
    // The conditional write occupies issue slots like any conditional
    // stream instruction ("issued on every iteration with a condition");
    // model that with one guard op per written word.
    let guarded: Vec<Val> = fc_prev.iter().map(|v| b.mov(*v)).collect();
    b.write_if(o_cf, is_new, &guarded);

    // Shifted-centre registers with conditional refresh.
    let cs_regs: Vec<u32> = (0..9).map(|_| b.reg(0.0)).collect();
    let mut cs_vals = Vec::with_capacity(9);
    for (k, &r) in cs_regs.iter().enumerate() {
        let prev = b.read_reg(r);
        let pos = b.cond_read(s_center, k as u32, is_new, zero);
        let shift = b.cond_read(s_center, (k + 9) as u32, is_new, zero);
        let fresh = b.add(pos, shift); // shift applied on refresh: 9 adds
        let v = b.sel(is_new, fresh, prev);
        b.set_reg(r, v);
        cs_vals.push(v);
    }
    let cs = Mol([
        V3 {
            x: cs_vals[0],
            y: cs_vals[1],
            z: cs_vals[2],
        },
        V3 {
            x: cs_vals[3],
            y: cs_vals[4],
            z: cs_vals[5],
        },
        V3 {
            x: cs_vals[6],
            y: cs_vals[7],
            z: cs_vals[8],
        },
    ]);

    let n = read_molecule(&mut b, s_npos, 0);
    let (fc, fn_, contrib) = interaction(&mut b, &ctx, cs, n);
    let acc = reduce_contributions(&mut b, acc0, &[contrib]);
    let fn_flat = flatten(&fn_);
    b.write(o_nf, &fn_flat);

    // Centre force accumulation with conditional reset.
    let fc_new = flatten(&fc);
    for (k, &r) in fc_regs.iter().enumerate() {
        let base = b.sel(is_new, zero, fc_prev[k]);
        let updated = b.add(fc_new[k], base);
        b.set_reg(r, updated);
    }
    finish_accum(&mut b, acc_regs, acc);
    b.build()
}

// ---------------------------------------------------------------------------
// Single-site atomic kernels (LJ fluid and charged particle)
// ---------------------------------------------------------------------------
//
// Same four variants, 3-word records instead of 9. The LJ kernel costs 35
// flops per interaction (1 divide, no square root): shift 3, displacement 3,
// r² 5, 1/r² 1, LJ chain 10, force 3, neighbour partial 3, virial 5, energy
// + virial accumulation 2. The charged kernel replaces the 1/r² divide with
// √r² · (1/r) · (1/r·1/r) and adds the Coulomb energy/force terms: 41 flops
// (1 divide *and* 1 square root per pair).

/// Launch parameters of the plain LJ kernel: C6, C12.
pub const NUM_ATOM_PARAMS_LJ: usize = 2;
/// Launch parameters of the charged kernel: qq, C6, C12.
pub const NUM_ATOM_PARAMS_CHARGED: usize = 3;

/// Pack atomic force-field parameters in kernel launch order.
pub fn atom_kernel_params(ff: &AtomForceField, coulomb: bool) -> Vec<f64> {
    assert_eq!(
        ff.coulomb(),
        coulomb,
        "force field charge does not match the requested kernel"
    );
    if coulomb {
        vec![ff.qq, ff.c6, ff.c12]
    } else {
        vec![ff.c6, ff.c12]
    }
}

/// Parameter handles of an atomic kernel. `qq` exists only when the
/// kernel carries a Coulomb term, so the LJ kernel's parameter list
/// stays minimal (2 words in the microcontroller broadcast).
struct AtomCtx {
    qq: Option<Val>,
    c6: Val,
    c12: Val,
    six: Val,
    twelve: Val,
    one: Val,
}

impl AtomCtx {
    fn new(b: &mut KernelBuilder, coulomb: bool) -> Self {
        let qq = if coulomb { Some(b.param()) } else { None };
        let c6 = b.param();
        let c12 = b.param();
        Self {
            qq,
            c6,
            c12,
            six: b.constant(6.0),
            twelve: b.constant(12.0),
            one: b.constant(1.0),
        }
    }
}

/// Energy/virial contribution of one atom pair.
struct AtomContribution {
    /// Coulomb energy (charged kernel only).
    vc: Option<Val>,
    de_lj: Val,
    vir: Val,
}

/// One atom-pair interaction: returns (force on centre, force on
/// neighbour, contributions). The operation DAG matches
/// `md_sim::atomic::pair_force_atomic` op for op, which is what the
/// bitwise differential tests rely on.
fn atom_interaction(
    b: &mut KernelBuilder,
    ctx: &AtomCtx,
    cs: V3,
    n: V3,
) -> (V3, V3, AtomContribution) {
    let d = b.v3_sub(cs, n);
    let r2 = b.v3_norm2(d);
    let (fs_c, rinv2, vc) = if let Some(qq) = ctx.qq {
        // Charged: r = √r², 1/r, then r⁻² rebuilt from 1/r so the
        // Coulomb force term V/r² reuses it.
        let r = b.sqrt(r2);
        let rinv = b.div(ctx.one, r);
        let rinv2 = b.mul(rinv, rinv);
        let vc = b.mul(qq, rinv);
        let fs_c = b.mul(vc, rinv2);
        (Some(fs_c), rinv2, Some(vc))
    } else {
        // Plain LJ needs only even powers: a single divide, no root.
        (None, b.div(ctx.one, r2), None)
    };
    let rinv4 = b.mul(rinv2, rinv2);
    let rinv6 = b.mul(rinv4, rinv2);
    let v6 = b.mul(ctx.c6, rinv6);
    let rinv12 = b.mul(rinv6, rinv6);
    let v12 = b.mul(ctx.c12, rinv12);
    let de_lj = b.sub(v12, v6);
    let t12 = b.mul(ctx.twelve, v12);
    let u = b.nmsub(ctx.six, v6, t12); // 12·v12 − 6·v6
    let fs_lj = b.mul(u, rinv2);
    let fs = match fs_c {
        Some(c) => b.add(c, fs_lj),
        None => fs_lj,
    };
    let f = b.v3_scale(d, fs);
    let zero = b.constant(0.0);
    let zv = V3 {
        x: zero,
        y: zero,
        z: zero,
    };
    let fn_ = b.v3_sub(zv, f);
    let vx = b.mul(d.x, f.x);
    let vxy = b.madd(d.y, f.y, vx);
    let vir = b.madd(d.z, f.z, vxy);
    (f, fn_, AtomContribution { vc, de_lj, vir })
}

/// Reduce atomic contributions into the accumulator registers. The
/// Coulomb accumulator is left untouched by the LJ kernel (it stays at
/// its initial 0.0; no flops are spent on it).
fn reduce_atom_contributions(
    b: &mut KernelBuilder,
    acc: Accum,
    contribs: &[AtomContribution],
) -> Accum {
    let vcs: Vec<Val> = contribs.iter().filter_map(|c| c.vc).collect();
    let des: Vec<Val> = contribs.iter().map(|c| c.de_lj).collect();
    let virs: Vec<Val> = contribs.iter().map(|c| c.vir).collect();
    let e_coul = if vcs.is_empty() {
        acc.e_coul
    } else {
        let s = tree_sum(b, &vcs);
        b.add(acc.e_coul, s)
    };
    let de_sum = tree_sum(b, &des);
    let vir_sum = tree_sum(b, &virs);
    Accum {
        e_coul,
        e_lj: b.add(acc.e_lj, de_sum),
        virial: b.add(acc.virial, vir_sum),
    }
}

fn atom_kernel_name(coulomb: bool, variant: &str) -> String {
    if coulomb {
        format!("streammd_charged_{variant}")
    } else {
        format!("streammd_lj_{variant}")
    }
}

/// Atomic `expanded`: inputs c_pos(3) + c_shift(3) + n_pos(3); outputs
/// both 3-word partial-force records every iteration.
pub fn atom_expanded_kernel(coulomb: bool) -> Kernel {
    let mut b = KernelBuilder::new(atom_kernel_name(coulomb, "expanded"));
    let s_cpos = b.input("c_positions", 3, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", 3, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", 3, StreamMode::EveryIteration);
    let o_cf = b.output("c_partial_forces", 3);
    let o_nf = b.output("n_partial_forces", 3);
    let ctx = AtomCtx::new(&mut b, coulomb);
    let (acc0, regs) = accum_regs(&mut b);

    let c = b.read_v3(s_cpos, 0);
    let shift = b.read_v3(s_shift, 0);
    let n = b.read_v3(s_npos, 0);
    let cs = b.v3_add(c, shift);
    let (fc, fn_, contrib) = atom_interaction(&mut b, &ctx, cs, n);
    let acc = reduce_atom_contributions(&mut b, acc0, &[contrib]);
    b.write(o_cf, &[fc.x, fc.y, fc.z]);
    b.write(o_nf, &[fn_.x, fn_.y, fn_.z]);
    finish_accum(&mut b, regs, acc);
    b.build()
}

/// Atomic `fixed` / `duplicated` block kernel: one centre with `l`
/// (padded) neighbours per iteration; centre force reduced in-LRF.
pub fn atom_block_kernel(coulomb: bool, l: usize, write_neighbor_partials: bool) -> Kernel {
    assert!(l >= 1);
    let variant = if write_neighbor_partials {
        format!("fixed_l{l}")
    } else {
        format!("duplicated_l{l}")
    };
    let mut b = KernelBuilder::new(atom_kernel_name(coulomb, &variant));
    let s_cpos = b.input("c_positions", 3, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", 3, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", (3 * l) as u32, StreamMode::EveryIteration);
    let o_cf = b.output("c_forces", 3);
    let o_nf = if write_neighbor_partials {
        Some(b.output("n_partial_forces", 3))
    } else {
        None
    };
    let ctx = AtomCtx::new(&mut b, coulomb);
    let (acc0, regs) = accum_regs(&mut b);

    let c = b.read_v3(s_cpos, 0);
    let shift = b.read_v3(s_shift, 0);
    let cs = b.v3_add(c, shift);

    let zero = b.constant(0.0);
    let zv = V3 {
        x: zero,
        y: zero,
        z: zero,
    };
    let mut fc_total = zv;
    let mut contribs = Vec::with_capacity(l);
    for nb in 0..l {
        let n = b.read_v3(s_npos, (3 * nb) as u32);
        let (fc, fn_, contrib) = atom_interaction(&mut b, &ctx, cs, n);
        contribs.push(contrib);
        fc_total = b.v3_add(fc_total, fc);
        if let Some(o) = o_nf {
            b.write(o, &[fn_.x, fn_.y, fn_.z]);
        }
    }
    let acc = reduce_atom_contributions(&mut b, acc0, &contribs);
    b.write(o_cf, &[fc_total.x, fc_total.y, fc_total.z]);
    finish_accum(&mut b, regs, acc);
    b.build()
}

/// Atomic `variable`: conditional-stream kernel with 6-word centre
/// records (3 position + 3 shift) and 3-word loop-carried force state.
pub fn atom_variable_kernel(coulomb: bool) -> Kernel {
    let mut b = KernelBuilder::new(atom_kernel_name(coulomb, "variable"));
    let s_npos = b.input("n_positions", 3, StreamMode::EveryIteration);
    let s_flag = b.input("new_center_flags", 1, StreamMode::EveryIteration);
    let s_center = b.input("center_records", 6, StreamMode::Conditional);
    let o_cf = b.output("c_forces", 3);
    let o_nf = b.output("n_partial_forces", 3);
    let ctx = AtomCtx::new(&mut b, coulomb);
    let (acc0, acc_regs) = accum_regs(&mut b);

    let zero = b.constant(0.0);
    let flag = b.read(s_flag, 0);
    let is_new = b.cmp_lt(zero, flag);

    // Previous accumulated centre force (flushed on a new centre).
    let fc_regs: Vec<u32> = (0..3).map(|_| b.reg(0.0)).collect();
    let fc_prev: Vec<Val> = fc_regs.iter().map(|&r| b.read_reg(r)).collect();
    let guarded: Vec<Val> = fc_prev.iter().map(|v| b.mov(*v)).collect();
    b.write_if(o_cf, is_new, &guarded);

    // Shifted-centre registers with conditional refresh.
    let cs_regs: Vec<u32> = (0..3).map(|_| b.reg(0.0)).collect();
    let mut cs_vals = Vec::with_capacity(3);
    for (k, &r) in cs_regs.iter().enumerate() {
        let prev = b.read_reg(r);
        let pos = b.cond_read(s_center, k as u32, is_new, zero);
        let shift = b.cond_read(s_center, (k + 3) as u32, is_new, zero);
        let fresh = b.add(pos, shift); // shift applied on refresh: 3 adds
        let v = b.sel(is_new, fresh, prev);
        b.set_reg(r, v);
        cs_vals.push(v);
    }
    let cs = V3 {
        x: cs_vals[0],
        y: cs_vals[1],
        z: cs_vals[2],
    };

    let n = b.read_v3(s_npos, 0);
    let (fc, fn_, contrib) = atom_interaction(&mut b, &ctx, cs, n);
    let acc = reduce_atom_contributions(&mut b, acc0, &[contrib]);
    b.write(o_nf, &[fn_.x, fn_.y, fn_.z]);

    // Centre force accumulation with conditional reset.
    let fc_new = [fc.x, fc.y, fc.z];
    for (k, &r) in fc_regs.iter().enumerate() {
        let base = b.sel(is_new, zero, fc_prev[k]);
        let updated = b.add(fc_new[k], base);
        b.set_reg(r, updated);
    }
    finish_accum(&mut b, acc_regs, acc);
    b.build()
}

// ---------------------------------------------------------------------------
// Workload dispatch
// ---------------------------------------------------------------------------

/// Generate the kernel for a (workload, variant) pair. `block_l` is the
/// neighbour-block length used by the `Fixed`/`Duplicated` variants.
pub fn workload_kernel(workload: Workload, variant: Variant, block_l: usize) -> Kernel {
    match workload {
        Workload::Water => match variant {
            Variant::Expanded => expanded_kernel(),
            Variant::Fixed => block_kernel(block_l, true),
            Variant::Duplicated => block_kernel(block_l, false),
            Variant::Variable => variable_kernel(),
        },
        Workload::LjFluid | Workload::Charged => {
            let coulomb = workload.coulomb();
            match variant {
                Variant::Expanded => atom_expanded_kernel(coulomb),
                Variant::Fixed => atom_block_kernel(coulomb, block_l, true),
                Variant::Duplicated => atom_block_kernel(coulomb, block_l, false),
                Variant::Variable => atom_variable_kernel(coulomb),
            }
        }
    }
}

/// Pack launch parameters for any workload's kernels from its model.
pub fn workload_params(workload: Workload, model: &WaterModel) -> Vec<f64> {
    match workload {
        Workload::Water => kernel_params(&ForceField::from_model(model)),
        Workload::LjFluid | Workload::Charged => {
            atom_kernel_params(&AtomForceField::from_model(model), workload.coulomb())
        }
    }
}

/// Number of launch parameters per workload.
pub fn workload_num_params(workload: Workload) -> usize {
    match workload {
        Workload::Water => NUM_PARAMS,
        Workload::LjFluid => NUM_ATOM_PARAMS_LJ,
        Workload::Charged => NUM_ATOM_PARAMS_CHARGED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::force::{DIVS_PER_INTERACTION, FLOPS_PER_INTERACTION, SQRTS_PER_INTERACTION};
    use merrimac_arch::OpCosts;
    use merrimac_kernel::lower::lower_kernel;
    use merrimac_kernel::KernelStats;

    fn stats(k: &Kernel) -> KernelStats {
        let l = lower_kernel(k, &OpCosts::default());
        KernelStats::analyze(k, &l)
    }

    #[test]
    fn expanded_kernel_hits_paper_flop_budget() {
        let st = stats(&expanded_kernel());
        assert_eq!(st.solution_flops, FLOPS_PER_INTERACTION, "expanded flops");
        assert_eq!(st.divides, DIVS_PER_INTERACTION);
        assert_eq!(st.square_roots, SQRTS_PER_INTERACTION);
    }

    #[test]
    fn block_kernel_scales_with_l() {
        for l in [1usize, 4, 8] {
            let st = stats(&block_kernel(l, true));
            // Shift is applied once per block; per-interaction flops are
            // 234 − 9 + 9/L plus the cross-block centre-total reduction
            // (9 adds per interaction).
            let expected = 9 + l as u64 * (FLOPS_PER_INTERACTION - 9 + 9);
            assert_eq!(st.solution_flops, expected, "L = {l}");
            assert_eq!(st.divides, 9 * l as u64);
            assert_eq!(st.square_roots, 9 * l as u64);
        }
    }

    #[test]
    fn duplicated_kernel_drops_neighbor_output() {
        let with = block_kernel(8, true);
        let without = block_kernel(8, false);
        assert_eq!(with.outputs.len(), 2);
        assert_eq!(without.outputs.len(), 1);
        // Neighbour forces become dead code in duplicated: fewer live ops.
        let sw = stats(&with);
        let so = stats(&without);
        assert!(so.solution_flops < sw.solution_flops);
    }

    #[test]
    fn variable_kernel_word_traffic_matches_paper_minimum() {
        let k = variable_kernel();
        let st = stats(&k);
        // Paper: "as a minimum 10 words of input are consumed and 9 words
        // are produced for every iteration".
        assert_eq!(st.words_in_unconditional, 10);
        assert_eq!(st.words_out_unconditional, 9);
        assert_eq!(st.words_in_conditional, 18);
        assert_eq!(st.words_out_conditional, 9);
    }

    #[test]
    fn variable_kernel_flops_near_expanded() {
        // The variable kernel does the same physics plus the conditional
        // select/guard plumbing (which adds no solution flops beyond the
        // refresh adds replacing the shift adds).
        let sv = stats(&variable_kernel());
        let se = stats(&expanded_kernel());
        assert_eq!(sv.divides, se.divides);
        assert_eq!(sv.square_roots, se.square_roots);
        // Same interaction core (225) + 9 refresh adds + 9 accumulate adds.
        assert_eq!(sv.solution_flops, se.solution_flops + 9);
    }

    /// The batch engine's stage split of every shipped kernel, pinned
    /// so a silent reclassification fails here: the every-iteration
    /// variants run all but their three accumulate adds in one vector
    /// stage, and the `variable` kernels leave `seq` only the force and
    /// energy accumulators — the pops resolve from the flag stream and
    /// the shifted centre is latched, so the interaction is vectorized.
    #[test]
    fn batch_plan_stage_sizes_are_pinned() {
        use merrimac_kernel::CompiledTape;
        // (vec_pre, pops, vec_pop, latches, vec_latch, seq, vec_post)
        for (k, sizes) in [
            (expanded_kernel(), [210, 0, 0, 0, 0, 3, 0]),
            (block_kernel(8, true), [1710, 0, 0, 0, 0, 3, 0]),
            (block_kernel(8, false), [1710, 0, 0, 0, 0, 3, 0]),
            (variable_kernel(), [1, 18, 9, 9, 210, 21, 9]),
            (atom_variable_kernel(false), [1, 6, 3, 3, 28, 8, 3]),
            (atom_variable_kernel(true), [1, 6, 3, 3, 33, 9, 3]),
        ] {
            let tape = CompiledTape::compile(&k);
            let got: Vec<usize> = tape.batch_stage_sizes().iter().map(|s| s.1).collect();
            assert_eq!(got, sizes, "{}: {:?}", k.name, tape.batch_stage_sizes());
            assert_eq!(tape.audit_batch_plan(), vec![], "{}", k.name);
        }
    }

    #[test]
    fn kernels_validate_and_lower() {
        for k in [
            expanded_kernel(),
            block_kernel(8, true),
            block_kernel(8, false),
            variable_kernel(),
        ] {
            k.validate_ssa();
            let l = lower_kernel(&k, &OpCosts::default());
            assert!(l.is_lowered());
        }
    }

    #[test]
    fn params_order_stable() {
        let ff = ForceField::from_model(&md_sim::water::WaterModel::spc());
        let p = kernel_params(&ff);
        assert_eq!(p.len(), NUM_PARAMS);
        assert_eq!(p[0], ff.qq[0][0]);
        assert_eq!(p[8], ff.qq[2][2]);
        assert_eq!(p[9], ff.c6);
        assert_eq!(p[10], ff.c12);
    }

    #[test]
    fn atom_expanded_kernels_hit_workload_flop_budgets() {
        let lj = stats(&atom_expanded_kernel(false));
        assert_eq!(
            lj.solution_flops,
            Workload::LjFluid.flops_per_interaction(),
            "lj expanded flops"
        );
        assert_eq!(lj.divides, 1);
        assert_eq!(lj.square_roots, 0);

        let ch = stats(&atom_expanded_kernel(true));
        assert_eq!(
            ch.solution_flops,
            Workload::Charged.flops_per_interaction(),
            "charged expanded flops"
        );
        assert_eq!(ch.divides, 1);
        assert_eq!(ch.square_roots, 1);
    }

    #[test]
    fn atom_block_kernels_scale_with_l() {
        for l in [1usize, 4, 8] {
            // Fixed: shift 3 + per-neighbour interaction + centre-total
            // reduction + per-class accumulation.
            let lj = stats(&atom_block_kernel(false, l, true));
            assert_eq!(lj.solution_flops, 3 + 35 * l as u64, "lj fixed L={l}");
            assert_eq!(lj.divides, l as u64);
            assert_eq!(lj.square_roots, 0);
            let ch = stats(&atom_block_kernel(true, l, true));
            assert_eq!(ch.solution_flops, 3 + 41 * l as u64, "charged fixed L={l}");
            assert_eq!(ch.square_roots, l as u64);

            // Duplicated drops the 3-word neighbour partial per pair.
            let ljd = stats(&atom_block_kernel(false, l, false));
            assert_eq!(ljd.solution_flops, 3 + 32 * l as u64, "lj dup L={l}");
            let chd = stats(&atom_block_kernel(true, l, false));
            assert_eq!(chd.solution_flops, 3 + 38 * l as u64, "charged dup L={l}");
        }
    }

    #[test]
    fn atom_variable_kernel_word_traffic() {
        for coulomb in [false, true] {
            let st = stats(&atom_variable_kernel(coulomb));
            // 3 neighbour words + 1 flag in, 3 partial-force words out,
            // unconditionally; 6-word centre record in and 3-word centre
            // force out under condition.
            assert_eq!(st.words_in_unconditional, 4);
            assert_eq!(st.words_out_unconditional, 3);
            assert_eq!(st.words_in_conditional, 6);
            assert_eq!(st.words_out_conditional, 3);
        }
    }

    #[test]
    fn atom_variable_kernel_flops_near_expanded() {
        // Variable = expanded − shift(3) + refresh adds(3) + centre
        // accumulation adds(3) = expanded + 3, for both atomic workloads.
        for coulomb in [false, true] {
            let sv = stats(&atom_variable_kernel(coulomb));
            let se = stats(&atom_expanded_kernel(coulomb));
            assert_eq!(sv.solution_flops, se.solution_flops + 3);
            assert_eq!(sv.divides, se.divides);
            assert_eq!(sv.square_roots, se.square_roots);
        }
    }

    #[test]
    fn atom_kernels_validate_and_lower() {
        for coulomb in [false, true] {
            for k in [
                atom_expanded_kernel(coulomb),
                atom_block_kernel(coulomb, 8, true),
                atom_block_kernel(coulomb, 8, false),
                atom_variable_kernel(coulomb),
            ] {
                k.validate_ssa();
                let l = lower_kernel(&k, &OpCosts::default());
                assert!(l.is_lowered());
            }
        }
    }

    #[test]
    fn atom_params_order_stable() {
        let lj = AtomForceField::from_model(&WaterModel::lj_atom());
        let p = atom_kernel_params(&lj, false);
        assert_eq!(p, vec![lj.c6, lj.c12]);
        assert_eq!(p.len(), NUM_ATOM_PARAMS_LJ);

        let ch = AtomForceField::from_model(&WaterModel::charged_atom());
        let p = atom_kernel_params(&ch, true);
        assert_eq!(p, vec![ch.qq, ch.c6, ch.c12]);
        assert_eq!(p.len(), NUM_ATOM_PARAMS_CHARGED);
    }

    #[test]
    fn workload_dispatch_covers_every_pair() {
        for w in Workload::ALL {
            for v in Variant::ALL {
                let k = workload_kernel(w, v, 8);
                k.validate_ssa();
                assert_eq!(
                    workload_params(w, &w.default_model()).len(),
                    workload_num_params(w),
                    "{w}/{v} param count"
                );
            }
        }
    }
}

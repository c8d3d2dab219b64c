//! The interaction kernels: one skeleton per StreamMD variant, generic
//! over the sites of a molecule record and the pair-interaction body.
//!
//! [`expanded`], [`block`] (`fixed` / `duplicated`) and [`variable`]
//! are each written once and instantiated over a [`Model`]: N-site
//! water around the site-pair body, or a single-site atom around the
//! LJ ± Coulomb body. The bodies are constructed to match their
//! operation budgets exactly (tested in this module):
//!
//! ```text
//! water — 234 flops per interaction, 9 divides and 9 square roots (Section 3)
//!   9 atom pairs × 23  (displacement, r², √, ÷, Coulomb, force, accum)   207
//!   Lennard-Jones terms on the O-O pair                                  +12
//!   periodic shift applied to the centre molecule                         +9
//!   virial (shift-force) accumulation, 3 fused multiply-adds              +6
//!
//! TIP5P (Section 5.4) — 420 flops, 17 divides and 17 square roots
//!   16 pairs of charged sites × 23                                       368
//!   the neutral oxygens' pair, Lennard-Jones only                        +31
//!   periodic shift, 5 sites                                              +15
//!   virial                                                                +6
//!
//! LJ atom — 35 flops, 1 divide, no square root
//!   shift 3, displacement 3, r² 5, 1/r² 1, LJ chain 10, force 3,
//!   neighbour partial 3, virial 5, energy + virial accumulation 2
//!
//! charged atom — 41 flops, 1 divide and 1 square root
//!   the 1/r² divide becomes √r² · (1/r) · (1/r · 1/r), plus the Coulomb
//!   energy and force terms
//! ```
//!
//! Kernel launch parameters (same order for every variant): the Coulomb
//! charge products pre-scaled by 1/4πɛ₀ — water's `sites²` `qq[a][b]`
//! (9 for three sites), the charged atom's one, none for the LJ atom —
//! then `C6` and `C12`.
//!
//! Node order is part of the simulator's fixed point (schedules, cycle
//! counts and the trend baselines hang on it); `kernel_ir_is_pinned`
//! holds every generated kernel to it.

use md_sim::multisite::MultiSiteField;
use md_sim::water::WaterModel;
use merrimac_kernel::builder::{KernelBuilder, Val, V3};
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::Kernel;

use crate::variant::Variant;
use crate::workload::Workload;

/// One molecule-pair interaction between the (shifted) centre sites
/// and the neighbour sites: forces on the centre sites, forces on the
/// neighbour sites, energy/virial contributions.
type Body = fn(&mut KernelBuilder, &Ctx, &[V3], &[V3]) -> (Vec<V3>, Vec<V3>, Contribution);

/// What a skeleton is instantiated over.
struct Model {
    /// Kernel names are `{stem}_{variant}`.
    stem: String,
    /// Interaction sites per molecule record (3 words each).
    sites: usize,
    /// Bit `s` set: site `s` carries a charge. With any set, the `sites²`
    /// charge products are parameters ahead of C6 and C12; a kernel
    /// without a Coulomb term has none, so its parameter list stays
    /// minimal (2 words in the microcontroller broadcast).
    charged: u32,
    body: Body,
}

/// N-site water; three sites (all charged in the paper's SPC:
/// `water(3, 0b111)`) keep the paper kernels' bare name.
fn water(sites: usize, charged: u32) -> Model {
    Model {
        stem: if sites == 3 {
            "streammd".to_string()
        } else {
            format!("streammd_{sites}site")
        },
        sites,
        charged,
        body: water_pairs,
    }
}

fn atom(coulomb: bool) -> Model {
    Model {
        stem: if coulomb {
            "streammd_charged"
        } else {
            "streammd_lj"
        }
        .to_string(),
        sites: 1,
        charged: coulomb as u32,
        body: atom_pair,
    }
}

/// Shared per-kernel constants and parameter handles.
struct Ctx {
    qq: Vec<Val>,
    /// [`Model::charged`].
    charged: u32,
    c6: Val,
    c12: Val,
    six: Val,
    twelve: Val,
    one: Val,
}

impl Ctx {
    fn new(b: &mut KernelBuilder, m: &Model) -> Self {
        let qq = if m.charged == 0 { 0 } else { m.sites * m.sites };
        Self {
            qq: (0..qq).map(|_| b.param()).collect(),
            charged: m.charged,
            c6: b.param(),
            c12: b.param(),
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
    /// Coulomb energy of each atom pair with a Coulomb term.
    vc: Vec<Val>,
    /// Lennard-Jones energy of the (O-O) pair.
    de_lj: Val,
    /// Virial (shift-force) term of the (O-O) pair: a 3-deep madd chain
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

/// Site positions of one molecule record starting at `base_field`.
fn read_sites(b: &mut KernelBuilder, stream: u32, base_field: usize, sites: usize) -> Vec<V3> {
    (0..sites)
        .map(|s| b.read_v3(stream, (base_field + 3 * s) as u32))
        .collect()
}

/// Site-wise sum (the periodic shift applied to the centre molecule,
/// the centre force accumulated across a block): 3 adds per site.
fn add_sites(b: &mut KernelBuilder, x: &[V3], y: &[V3]) -> Vec<V3> {
    x.iter().zip(y).map(|(&x, &y)| b.v3_add(x, y)).collect()
}

fn flatten(m: &[V3]) -> Vec<Val> {
    m.iter().flat_map(|v| [v.x, v.y, v.z]).collect()
}

fn splat(v: Val) -> V3 {
    V3 { x: v, y: v, z: v }
}

/// Water's body: every pair of charged sites of two N-site molecules
/// plus the O–O Lennard-Jones term, which rides on the oxygens' Coulomb
/// pair or, where they are neutral (TIP5P), is a pair of its own; any
/// other pair with a neutral site has no term and is skipped. Three
/// charged sites give the paper's 9 atom pairs: with the caller-side
/// reduction and the shift, exactly 234 solution flops per interaction.
fn water_pairs(
    b: &mut KernelBuilder,
    ctx: &Ctx,
    c_shifted: &[V3],
    n: &[V3],
) -> (Vec<V3>, Vec<V3>, Contribution) {
    let sites = n.len();
    let zero = b.constant(0.0);
    let zv = splat(zero);
    let mut fc = vec![zv; sites];
    let mut fn_ = vec![zv; sites];
    let mut vc = Vec::with_capacity(sites * sites);
    let mut de_lj = zero;
    let mut d_oo = zv;
    let mut f_oo = zv;

    // `a`/`n_site` are site indices into several parallel per-site
    // arrays (fc, fn_, qq), so plain index loops read best here.
    #[allow(clippy::needless_range_loop)]
    for a in 0..sites {
        for n_site in 0..sites {
            let coulomb = ctx.charged >> a & ctx.charged >> n_site & 1 == 1;
            let oo = a == 0 && n_site == 0;
            if !coulomb && !oo {
                continue;
            }
            // Displacement and squared distance: 3 + 5 flops.
            let d = b.v3_sub(c_shifted[a], n[n_site]);
            let r2 = b.v3_norm2(d);
            // r = √r², 1/r = 1 ÷ r: the divide and square root of the
            // paper's accounting (one of each per atom pair).
            let r = b.sqrt(r2);
            let rinv = b.div(ctx.one, r);
            let rinv2 = b.mul(rinv, rinv);
            let mut fs = zero;
            if coulomb {
                // Coulomb: V = qq/r, f/r = V/r².
                let vc_pair = b.mul(ctx.qq[sites * a + n_site], rinv);
                vc.push(vc_pair);
                fs = b.mul(vc_pair, rinv2);
            }
            if oo {
                // Lennard-Jones on the oxygen pair: 11 flops here (10
                // without a Coulomb term to add to), the last is the
                // caller's accumulation of `de_lj`.
                let (de, fs_lj) = lennard_jones(b, ctx, rinv2);
                de_lj = de;
                fs = if coulomb { b.add(fs, fs_lj) } else { fs_lj };
            }
            let f = b.v3_scale(d, fs);
            fc[a] = b.v3_add(fc[a], f);
            fn_[n_site] = b.v3_sub(fn_[n_site], f);
            if oo {
                d_oo = d;
                f_oo = f;
            }
        }
    }
    let vir = virial(b, d_oo, f_oo);
    (fc, fn_, Contribution { vc, de_lj, vir })
}

/// The atoms' body: one LJ ± Coulomb pair. The operation DAG matches
/// `md_sim::atomic::pair_force_atomic` op for op, which is what the
/// bitwise differential tests rely on.
fn atom_pair(
    b: &mut KernelBuilder,
    ctx: &Ctx,
    cs: &[V3],
    n: &[V3],
) -> (Vec<V3>, Vec<V3>, Contribution) {
    let d = b.v3_sub(cs[0], n[0]);
    let r2 = b.v3_norm2(d);
    let (coulomb, rinv2) = if let Some(&qq) = ctx.qq.first() {
        // Charged: r = √r², 1/r, then r⁻² rebuilt from 1/r so the
        // Coulomb force term V/r² reuses it.
        let r = b.sqrt(r2);
        let rinv = b.div(ctx.one, r);
        let rinv2 = b.mul(rinv, rinv);
        let vc = b.mul(qq, rinv);
        (Some((vc, b.mul(vc, rinv2))), rinv2)
    } else {
        // Plain LJ needs only even powers: a single divide, no root.
        (None, b.div(ctx.one, r2))
    };
    let (de_lj, fs_lj) = lennard_jones(b, ctx, rinv2);
    let fs = match coulomb {
        Some((_, fs_c)) => b.add(fs_c, fs_lj),
        None => fs_lj,
    };
    let f = b.v3_scale(d, fs);
    let zero = b.constant(0.0);
    let fn_ = b.v3_sub(splat(zero), f);
    let vir = virial(b, d, f);
    let vc = coulomb.map(|(vc, _)| vc).into_iter().collect();
    (vec![f], vec![fn_], Contribution { vc, de_lj, vir })
}

/// Lennard-Jones from r⁻²: the pair energy and the force scale f/r
/// (11 flops).
fn lennard_jones(b: &mut KernelBuilder, ctx: &Ctx, rinv2: Val) -> (Val, Val) {
    let rinv4 = b.mul(rinv2, rinv2);
    let rinv6 = b.mul(rinv4, rinv2);
    let v6 = b.mul(ctx.c6, rinv6);
    let rinv12 = b.mul(rinv6, rinv6);
    let v12 = b.mul(ctx.c12, rinv12);
    let de_lj = b.sub(v12, v6);
    let t12 = b.mul(ctx.twelve, v12);
    let u = b.nmsub(ctx.six, v6, t12); // 12·v12 − 6·v6
    (de_lj, b.mul(u, rinv2))
}

/// Virial contribution d·f of one atom pair: mul + 2 madds (5 flops).
fn virial(b: &mut KernelBuilder, d: V3, f: V3) -> Val {
    let vx = b.mul(d.x, f.x);
    let vxy = b.madd(d.y, f.y, vx);
    b.madd(d.z, f.z, vxy)
}

/// Reduce a set of per-interaction contributions into the accumulator
/// registers: a balanced tree per class plus one register add each. A
/// kernel without a Coulomb term leaves that accumulator at its initial
/// 0.0 and spends no flops on it.
///
/// Where the Coulomb add sits is node order, hence fixed: the atomic
/// kernels issue it right after the Coulomb tree, water after all
/// three trees.
fn reduce(b: &mut KernelBuilder, m: &Model, acc: Accum, contribs: &[Contribution]) -> Accum {
    let vcs: Vec<Val> = contribs.iter().flat_map(|c| c.vc.iter().copied()).collect();
    let des: Vec<Val> = contribs.iter().map(|c| c.de_lj).collect();
    let virs: Vec<Val> = contribs.iter().map(|c| c.vir).collect();
    let vc_sum = (!vcs.is_empty()).then(|| tree_sum(b, &vcs));
    let add_coul = |b: &mut KernelBuilder| vc_sum.map_or(acc.e_coul, |s| b.add(acc.e_coul, s));
    let early = (m.sites == 1).then(|| add_coul(b));
    let de_sum = tree_sum(b, &des);
    let vir_sum = tree_sum(b, &virs);
    Accum {
        e_coul: early.unwrap_or_else(|| add_coul(b)),
        e_lj: b.add(acc.e_lj, de_sum),
        virial: b.add(acc.virial, vir_sum),
    }
}

/// What every skeleton starts with after its stream declarations: the
/// parameter handles and the three energy/virial accumulator registers.
fn prologue(b: &mut KernelBuilder, m: &Model) -> (Ctx, Accum, [u32; 3]) {
    let ctx = Ctx::new(b, m);
    let regs = [b.reg(0.0), b.reg(0.0), b.reg(0.0)];
    let acc = Accum {
        e_coul: b.read_reg(regs[0]),
        e_lj: b.read_reg(regs[1]),
        virial: b.read_reg(regs[2]),
    };
    (ctx, acc, regs)
}

fn finish(mut b: KernelBuilder, regs: [u32; 3], acc: Accum) -> Kernel {
    b.set_reg(regs[0], acc.e_coul);
    b.set_reg(regs[1], acc.e_lj);
    b.set_reg(regs[2], acc.virial);
    b.build()
}

/// `expanded`: inputs c_pos + c_shift + n_pos, one record each; outputs
/// both partial-force records every iteration.
fn expanded(m: &Model) -> Kernel {
    let w = 3 * m.sites as u32;
    let mut b = KernelBuilder::new(format!("{}_expanded", m.stem));
    let s_cpos = b.input("c_positions", w, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", w, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", w, StreamMode::EveryIteration);
    let o_cf = b.output("c_partial_forces", w);
    let o_nf = b.output("n_partial_forces", w);
    let (ctx, acc0, regs) = prologue(&mut b, m);

    let c = read_sites(&mut b, s_cpos, 0, m.sites);
    let shift = read_sites(&mut b, s_shift, 0, m.sites);
    let n = read_sites(&mut b, s_npos, 0, m.sites);
    let cs = add_sites(&mut b, &c, &shift);
    let (fc, fn_, contrib) = (m.body)(&mut b, &ctx, &cs, &n);
    let acc = reduce(&mut b, m, acc0, &[contrib]);
    b.write(o_cf, &flatten(&fc));
    b.write(o_nf, &flatten(&fn_));
    finish(b, regs, acc)
}

/// `fixed` / `duplicated`: one iteration processes a centre with `l`
/// (padded) neighbours. `write_neighbor_partials = false` gives the
/// `duplicated` kernel.
fn block(m: &Model, l: usize, write_neighbor_partials: bool) -> Kernel {
    assert!(l >= 1);
    let w = 3 * m.sites;
    let variant = if write_neighbor_partials {
        "fixed"
    } else {
        "duplicated"
    };
    let mut b = KernelBuilder::new(format!("{}_{variant}_l{l}", m.stem));
    let s_cpos = b.input("c_positions", w as u32, StreamMode::EveryIteration);
    let s_shift = b.input("c_shifts", w as u32, StreamMode::EveryIteration);
    let s_npos = b.input("n_positions", (w * l) as u32, StreamMode::EveryIteration);
    let o_cf = b.output("c_forces", w as u32);
    let o_nf = write_neighbor_partials.then(|| b.output("n_partial_forces", w as u32));
    let (ctx, acc0, regs) = prologue(&mut b, m);

    let c = read_sites(&mut b, s_cpos, 0, m.sites);
    let shift = read_sites(&mut b, s_shift, 0, m.sites);
    let cs = add_sites(&mut b, &c, &shift);

    // Accumulate the centre force across the block in-LRF (the
    // "reduced within the cluster to save on output bandwidth" of
    // Section 3.3).
    let zero = b.constant(0.0);
    let mut fc_total = vec![splat(zero); m.sites];
    let mut contribs = Vec::with_capacity(l);
    for nb in 0..l {
        let n = read_sites(&mut b, s_npos, w * nb, m.sites);
        let (fc, fn_, contrib) = (m.body)(&mut b, &ctx, &cs, &n);
        contribs.push(contrib);
        fc_total = add_sites(&mut b, &fc_total, &fc);
        if let Some(o) = o_nf {
            b.write(o, &flatten(&fn_));
        }
    }
    let acc = reduce(&mut b, m, acc0, &contribs);
    b.write(o_cf, &flatten(&fc_total));
    finish(b, regs, acc)
}

/// `variable`: conditional-stream kernel. Inputs: `n_positions` (one
/// record, every iteration), `new_center_flags` (1, every iteration),
/// and the conditional `center_records` stream (position + shift
/// records). Whenever the flag fires, the previous centre's accumulated
/// force is emitted (conditional write) and a new centre record is
/// popped.
fn variable(m: &Model) -> Kernel {
    let w = 3 * m.sites;
    let mut b = KernelBuilder::new(format!("{}_variable", m.stem));
    let s_npos = b.input("n_positions", w as u32, StreamMode::EveryIteration);
    let s_flag = b.input("new_center_flags", 1, StreamMode::EveryIteration);
    let s_center = b.input("center_records", 2 * w as u32, StreamMode::Conditional);
    let o_cf = b.output("c_forces", w as u32);
    let o_nf = b.output("n_partial_forces", w as u32);
    let (ctx, acc0, regs) = prologue(&mut b, m);

    // Loop-carried centre state: the position and shift words of a
    // centre record are added once, on refresh, so the registers hold
    // the *shifted* centre coordinates plus the accumulated force
    // components.
    let zero = b.constant(0.0);
    let flag = b.read(s_flag, 0);
    let is_new = b.cmp_lt(zero, flag);

    // Previous accumulated centre force (flushed on a new centre).
    let fc_regs: Vec<u32> = (0..w).map(|_| b.reg(0.0)).collect();
    let fc_prev: Vec<Val> = fc_regs.iter().map(|&r| b.read_reg(r)).collect();
    // The conditional write occupies issue slots like any conditional
    // stream instruction ("issued on every iteration with a condition");
    // model that with one guard op per written word.
    let guarded: Vec<Val> = fc_prev.iter().map(|v| b.mov(*v)).collect();
    b.write_if(o_cf, is_new, &guarded);

    // Shifted-centre registers with conditional refresh.
    let mut cs_vals = Vec::with_capacity(w);
    for k in 0..w {
        let r = b.reg(0.0);
        let prev = b.read_reg(r);
        let pos = b.cond_read(s_center, k as u32, is_new, zero);
        let shift = b.cond_read(s_center, (k + w) as u32, is_new, zero);
        let fresh = b.add(pos, shift); // shift applied on refresh
        let v = b.sel(is_new, fresh, prev);
        b.set_reg(r, v);
        cs_vals.push(v);
    }
    let cs: Vec<V3> = cs_vals
        .chunks(3)
        .map(|v| V3 {
            x: v[0],
            y: v[1],
            z: v[2],
        })
        .collect();

    let n = read_sites(&mut b, s_npos, 0, m.sites);
    let (fc, fn_, contrib) = (m.body)(&mut b, &ctx, &cs, &n);
    let acc = reduce(&mut b, m, acc0, &[contrib]);
    b.write(o_nf, &flatten(&fn_));

    // Centre force accumulation with conditional reset.
    for ((&r, &prev), new) in fc_regs.iter().zip(&fc_prev).zip(flatten(&fc)) {
        let base = b.sel(is_new, zero, prev);
        let updated = b.add(new, base);
        b.set_reg(r, updated);
    }
    finish(b, regs, acc)
}

/// Water `expanded`: 9-word records.
pub fn expanded_kernel() -> Kernel {
    expanded(&water(3, 0b111))
}

/// Water `fixed` / `duplicated` block kernel of `l` neighbours.
pub fn block_kernel(l: usize, write_neighbor_partials: bool) -> Kernel {
    block(&water(3, 0b111), l, write_neighbor_partials)
}

/// Water `variable`: 18-word centre records, 9 words of loop-carried
/// force state.
pub fn variable_kernel() -> Kernel {
    variable(&water(3, 0b111))
}

/// Atomic `expanded`: 3-word records.
pub fn atom_expanded_kernel(coulomb: bool) -> Kernel {
    expanded(&atom(coulomb))
}

/// Atomic `fixed` / `duplicated` block kernel of `l` neighbours.
pub fn atom_block_kernel(coulomb: bool, l: usize, write_neighbor_partials: bool) -> Kernel {
    block(&atom(coulomb), l, write_neighbor_partials)
}

/// Atomic `variable`: 6-word centre records, 3 words of loop-carried
/// force state.
pub fn atom_variable_kernel(coulomb: bool) -> Kernel {
    variable(&atom(coulomb))
}

/// Generate the kernel for a (workload, variant) pair. `block_l` is the
/// neighbour-block length used by the `Fixed`/`Duplicated` variants.
pub fn workload_kernel(workload: Workload, variant: Variant, block_l: usize) -> Kernel {
    let m = &match workload {
        Workload::Water { sites, charged } => water(sites, charged),
        Workload::LjFluid | Workload::Charged => atom(workload.coulomb()),
    };
    match variant {
        Variant::Expanded => expanded(m),
        Variant::Fixed => block(m, block_l, true),
        Variant::Duplicated => block(m, block_l, false),
        Variant::Variable => variable(m),
    }
}

/// Pack launch parameters for any workload's kernels from its model:
/// the `sites²` charge products `qq[a][b]`, row-major, where the kernel
/// has a Coulomb term, then C6 and C12.
pub fn workload_params(workload: Workload, model: &WaterModel) -> Vec<f64> {
    let ff = MultiSiteField::from_model(model);
    let mut p = if workload.coulomb() {
        ff.qq
    } else {
        Vec::new()
    };
    p.extend([ff.c6, ff.c12]);
    p
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
    fn tip5p_expanded_kernel_hits_the_n_site_budget() {
        // 16 pairs of charged sites and the neutral oxygens' LJ pair.
        let tip5p = Workload::of_model(&WaterModel::tip5p());
        let st = stats(&workload_kernel(tip5p, Variant::Expanded, 8));
        assert_eq!(st.solution_flops, 420);
        assert_eq!(st.solution_flops, tip5p.flops_per_interaction());
        assert_eq!(st.divides, 17);
        assert_eq!(st.square_roots, 17);
        assert_eq!(st.square_roots, tip5p.sqrts_per_interaction());
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

    /// The batch plan of every shipped kernel, pinned so a silent
    /// reclassification fails here. At unroll 1 every plan is staged:
    /// the every-iteration variants run all but their accumulate adds in
    /// one vector stage and those as sum scans, and in the `variable`
    /// kernels the pops resolve from the flag stream, the shifted centre
    /// is latched and the force and energy accumulators are sums, so the
    /// interaction is vectorized. The LJ kernels' Coulomb register is
    /// never changed, so it is a constant, not a register.
    #[test]
    fn batch_plan_stage_sizes_are_pinned() {
        use merrimac_kernel::{unroll::unroll, CompiledTape};
        use Variant::{Duplicated, Expanded, Fixed, Variable};
        // A staged plan's (vec_pre, pops, vec_pop, latches, vec_latch,
        // sums, vec_post); a serial plan's whole tape. Unrolled twice,
        // every register is a chain of two updates, neither latch nor
        // sum, so every unroll-2 plan is serial.
        let stages = [
            "vec_pre",
            "pops",
            "vec_pop",
            "latches",
            "vec_latch",
            "sums",
            "vec_post",
        ];
        let staged = |sizes: [usize; 7]| stages.into_iter().zip(sizes).collect::<Vec<_>>();
        let serial = |ops: usize| vec![("serial", ops)];
        let spc = Workload::of_model(&WaterModel::spc());
        let tip5p = Workload::of_model(&WaterModel::tip5p());
        let (lj, charged) = (Workload::LjFluid, Workload::Charged);
        for (workload, variant, by, want) in [
            (spc, Expanded, 1, staged([210, 0, 0, 0, 0, 3, 0])),
            (spc, Fixed, 1, staged([1710, 0, 0, 0, 0, 3, 0])),
            (spc, Variable, 1, staged([1, 18, 9, 9, 210, 12, 9])),
            (spc, Duplicated, 1, staged([1710, 0, 0, 0, 0, 3, 0])),
            (tip5p, Expanded, 1, staged([380, 0, 0, 0, 0, 3, 0])),
            (tip5p, Fixed, 1, staged([3076, 0, 0, 0, 0, 3, 0])),
            (tip5p, Variable, 1, staged([1, 30, 15, 15, 380, 18, 15])),
            (tip5p, Duplicated, 1, staged([3076, 0, 0, 0, 0, 3, 0])),
            (lj, Expanded, 1, staged([28, 0, 0, 0, 0, 2, 0])),
            (lj, Fixed, 1, staged([241, 0, 0, 0, 0, 2, 0])),
            (lj, Variable, 1, staged([1, 6, 3, 3, 28, 5, 3])),
            (lj, Duplicated, 1, staged([241, 0, 0, 0, 0, 2, 0])),
            (charged, Expanded, 1, staged([33, 0, 0, 0, 0, 3, 0])),
            (charged, Fixed, 1, staged([288, 0, 0, 0, 0, 3, 0])),
            (charged, Variable, 1, staged([1, 6, 3, 3, 33, 6, 3])),
            (charged, Duplicated, 1, staged([288, 0, 0, 0, 0, 3, 0])),
            (spc, Expanded, 2, serial(426)),
            (spc, Fixed, 2, serial(3426)),
            (spc, Variable, 2, serial(536)),
            (spc, Duplicated, 2, serial(3426)),
            (tip5p, Expanded, 2, serial(766)),
            (tip5p, Fixed, 2, serial(6158)),
            (tip5p, Variable, 2, serial(948)),
            (tip5p, Duplicated, 2, serial(6158)),
            (lj, Expanded, 2, serial(60)),
            (lj, Fixed, 2, serial(486)),
            (lj, Variable, 2, serial(98)),
            (lj, Duplicated, 2, serial(486)),
            (charged, Expanded, 2, serial(72)),
            (charged, Fixed, 2, serial(582)),
            (charged, Variable, 2, serial(110)),
            (charged, Duplicated, 2, serial(582)),
        ] {
            let k = unroll(&workload_kernel(workload, variant, 8), by);
            let tape = CompiledTape::compile(&k);
            assert_eq!(tape.batch_stage_sizes(), want, "{}", k.name);
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
        // Row-major charge products, then C6 and C12; the same bits the
        // reference force fields compute for themselves.
        let spc = WaterModel::spc();
        let ff = md_sim::force::ForceField::from_model(&spc);
        let p = workload_params(Workload::of_model(&spc), &spc);
        assert_eq!(p[..9], ff.qq.concat());
        assert_eq!(p[9..], [ff.c6, ff.c12]);

        let tip5p = WaterModel::tip5p();
        let p = workload_params(Workload::of_model(&tip5p), &tip5p);
        assert_eq!(p.len(), 25 + 2);
        assert_eq!(p[0], 0.0, "neutral oxygen");
        let q = |s: usize| tip5p.sites[s].charge;
        assert_eq!(p[5 + 3], md_sim::units::COULOMB * q(1) * q(3));

        let lj = WaterModel::lj_atom();
        assert_eq!(workload_params(Workload::LjFluid, &lj), [lj.c6, lj.c12]);
        let ch = md_sim::atomic::AtomForceField::from_model(&WaterModel::charged_atom());
        assert_eq!(
            workload_params(Workload::Charged, &WaterModel::charged_atom()),
            [ch.qq, ch.c6, ch.c12]
        );
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
    fn workload_dispatch_covers_every_pair() {
        // Two neutral sites: N-site water without a Coulomb term, so
        // without charge-product parameters.
        let mut neutral_dimer = WaterModel::spc();
        neutral_dimer.sites.truncate(2);
        neutral_dimer.sites.iter_mut().for_each(|s| s.charge = 0.0);
        for model in [
            WaterModel::spc(),
            WaterModel::tip5p(),
            neutral_dimer,
            WaterModel::lj_atom(),
            WaterModel::charged_atom(),
        ] {
            let w = Workload::of_model(&model);
            for v in Variant::ALL {
                let k = workload_kernel(w, v, 8);
                k.validate_ssa();
                assert!(lower_kernel(&k, &OpCosts::default()).is_lowered());
                assert_eq!(
                    workload_params(w, &model).len(),
                    k.num_params as usize,
                    "{}/{v} param count",
                    model.name
                );
            }
        }
    }
}

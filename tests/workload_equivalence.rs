//! Differential pinning of the atomic workloads (LJ fluid and charged
//! particles): the simulated kernels must produce forces
//! bitwise-identical to the reference double-precision evaluation in
//! `md_sim::atomic` — over random interaction geometries, under both
//! kernel engines (graph interpreter and compiled tape) — and the
//! end-to-end force step must be bitwise-identical at every host
//! thread count and simulated node count. This mirrors
//! `tape_equivalence.rs` for the workload generalization: the water
//! pipeline's exactness guarantees must hold for every workload the
//! `Workload` abstraction admits. N-site water (SPC, TIP3P, TIP5P) is
//! held to `md_sim::multisite` end to end on the same terms: every
//! variant, the parallel engine at 1, 2 and 8 host threads, admission
//! and eight nodes. The interpreter's check of the shipped N-site
//! kernels on real strip data is `tape_equivalence`'s launch oracle.

use md_sim::atomic::{pair_force_atomic, AtomForceField};
use md_sim::force::compute_forces;
use md_sim::multisite::compute_forces_multisite;
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use md_sim::water::WaterModel;
use merrimac_bench::{run, Dataset, SEED};
use merrimac_kernel::interp::{InterpOutput, Interpreter, StreamData};
use merrimac_kernel::CompiledTape;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streammd::kernels::{atom_expanded_kernel, atom_variable_kernel, workload_params};
use streammd::{run_multinode, StreamMdApp, Variant, Workload};

fn workload_setup(coulomb: bool) -> (AtomForceField, Vec<f64>) {
    let (model, wl) = if coulomb {
        (WaterModel::charged_atom(), Workload::Charged)
    } else {
        (WaterModel::lj_atom(), Workload::LjFluid)
    };
    let ff = AtomForceField::from_model(&model);
    let params = workload_params(wl, &model);
    (ff, params)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Both engines on the same kernel must agree bitwise with each other.
fn assert_engines_bitwise(tape: &InterpOutput, interp: &InterpOutput, ctx: &str) {
    assert_eq!(tape.outputs.len(), interp.outputs.len(), "{ctx}: outputs");
    for (i, (t, r)) in tape.outputs.iter().zip(&interp.outputs).enumerate() {
        assert_eq!(bits(&t.data), bits(&r.data), "{ctx}: output {i}");
    }
    assert_eq!(bits(&tape.final_regs), bits(&interp.final_regs), "{ctx}");
}

/// One random geometry: centre, shift and neighbour positions kept at
/// liquid-like separations so forces stay finite (bitwise comparison
/// would hold regardless, but finite values also exercise the LJ tail).
fn random_points(rng: &mut ChaCha8Rng, n: usize) -> Vec<([f64; 3], [f64; 3], [f64; 3])> {
    (0..n)
        .map(|_| {
            let c = [
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.5..1.5),
            ];
            let s = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            // Neighbour offset from the shifted centre, 0.25–1.6 nm out.
            let dir = [
                rng.gen_range(-1.0..1.0f64),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let norm = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2])
                .sqrt()
                .max(1e-3);
            let r = rng.gen_range(0.25..1.6);
            let n = [
                c[0] + s[0] + dir[0] / norm * r,
                c[1] + s[1] + dir[1] / norm * r,
                c[2] + s[2] + dir[2] / norm * r,
            ];
            (c, s, n)
        })
        .collect()
}

/// The expanded kernel over random pairs: every centre partial force
/// must match `pair_force_atomic` bitwise, every neighbour partial must
/// be its exact `0.0 - f` negation, under both engines.
fn differential_expanded(seed: u64, coulomb: bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (ff, params) = workload_setup(coulomb);
    let k = atom_expanded_kernel(coulomb);
    let n_pts = rng.gen_range(1usize..24);
    let pts = random_points(&mut rng, n_pts);
    let iters = pts.len();
    let (mut cd, mut sd, mut nd) = (Vec::new(), Vec::new(), Vec::new());
    for (c, s, n) in &pts {
        cd.extend_from_slice(c);
        sd.extend_from_slice(s);
        nd.extend_from_slice(n);
    }
    let inputs = vec![
        StreamData::new(3, cd),
        StreamData::new(3, sd),
        StreamData::new(3, nd),
    ];
    let interp = Interpreter::new(&k)
        .run(&inputs, &params, iters)
        .expect("interpreter runs");
    let tape = CompiledTape::compile(&k)
        .run(&inputs, &params, iters)
        .expect("tape runs");
    assert_engines_bitwise(&tape, &interp, &k.name);

    for (i, (c, s, n)) in pts.iter().enumerate() {
        let cs = Vec3::new(c[0] + s[0], c[1] + s[1], c[2] + s[2]);
        let t = pair_force_atomic(&ff, cs, Vec3::new(n[0], n[1], n[2]));
        let f = [t.force.x, t.force.y, t.force.z];
        for (x, fx) in f.iter().enumerate() {
            assert_eq!(
                interp.outputs[0].data[i * 3 + x].to_bits(),
                fx.to_bits(),
                "{}: centre partial {i}.{x}",
                k.name
            );
            assert_eq!(
                interp.outputs[1].data[i * 3 + x].to_bits(),
                (0.0 - fx).to_bits(),
                "{}: neighbour partial {i}.{x}",
                k.name
            );
        }
    }
}

/// The variable (conditional-stream) kernel over random per-centre
/// runs: neighbour partials bitwise every iteration, and each flushed
/// centre force must equal the reference left-to-right accumulation of
/// that centre's pair forces.
fn differential_variable(seed: u64, coulomb: bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (ff, params) = workload_setup(coulomb);
    let k = atom_variable_kernel(coulomb);

    let centers = rng.gen_range(1usize..5);
    let mut flags = Vec::new();
    let mut npos = Vec::new();
    let mut center_records = Vec::new();
    let mut expected_nf = Vec::new();
    let mut expected_flushes: Vec<[f64; 3]> = vec![[0.0; 3]]; // initial regs
    for _ in 0..centers {
        let n_pts = rng.gen_range(1usize..5);
        let pts = random_points(&mut rng, n_pts);
        let (c, s, _) = pts[0];
        center_records.extend_from_slice(&c);
        center_records.extend_from_slice(&s);
        let cs = Vec3::new(c[0] + s[0], c[1] + s[1], c[2] + s[2]);
        let mut acc = [0.0f64; 3];
        for (j, (_, _, n)) in pts.iter().enumerate() {
            flags.push(if j == 0 { 1.0 } else { 0.0 });
            npos.extend_from_slice(n);
            let t = pair_force_atomic(&ff, cs, Vec3::new(n[0], n[1], n[2]));
            let f = [t.force.x, t.force.y, t.force.z];
            for x in 0..3 {
                expected_nf.push(0.0 - f[x]);
                // Kernel accumulation order: add(f, base), base reset
                // to 0.0 on the centre's first pair.
                #[allow(clippy::assign_op_pattern)]
                {
                    acc[x] = f[x] + acc[x];
                }
            }
        }
        expected_flushes.push(acc);
    }
    let iters = flags.len();
    let inputs = vec![
        StreamData::new(3, npos),
        StreamData::new(1, flags),
        StreamData::new(6, center_records),
    ];
    let interp = Interpreter::new(&k)
        .run(&inputs, &params, iters)
        .expect("interpreter runs");
    let tape = CompiledTape::compile(&k)
        .run(&inputs, &params, iters)
        .expect("tape runs");
    assert_engines_bitwise(&tape, &interp, &k.name);

    assert_eq!(
        bits(&interp.outputs[1].data),
        bits(&expected_nf),
        "{}",
        k.name
    );
    // One flush per new centre: the initial zeros, then each completed
    // centre except the last (flushed by the next strip's sentinel in
    // real layouts).
    let flushed = &interp.outputs[0].data;
    assert_eq!(flushed.len(), centers * 3, "{}: flush count", k.name);
    for (j, rec) in expected_flushes[..centers].iter().enumerate() {
        for x in 0..3 {
            assert_eq!(
                flushed[j * 3 + x].to_bits(),
                rec[x].to_bits(),
                "{}: flush {j}.{x}",
                k.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lj_expanded_kernel_matches_reference_bitwise(seed in 0u64..1_000_000) {
        differential_expanded(seed, false);
    }

    #[test]
    fn charged_expanded_kernel_matches_reference_bitwise(seed in 0u64..1_000_000) {
        differential_expanded(seed, true);
    }

    #[test]
    fn lj_variable_kernel_matches_reference_bitwise(seed in 0u64..1_000_000) {
        differential_variable(seed, false);
    }

    #[test]
    fn charged_variable_kernel_matches_reference_bitwise(seed in 0u64..1_000_000) {
        differential_variable(seed, true);
    }
}

// ---- end-to-end thread/node invariance ---------------------------------

fn force_bits(forces: &[Vec3]) -> Vec<u64> {
    forces
        .iter()
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

/// Both atomic workloads, Variable and Fixed: the step forces are
/// bitwise-identical over 1/2/8 host threads × 1/2 simulated nodes.
#[test]
fn atomic_step_forces_invariant_across_threads_and_nodes() {
    for ds in [Dataset::lj(64), Dataset::charged(64)] {
        for variant in [Variant::Variable, Variant::Fixed] {
            let base = run(ds.spec(variant)).unwrap_or_else(|e| panic!("{} {variant}: {e}", ds.id));
            let base_bits = force_bits(&base.forces);
            for threads in [1usize, 2, 8] {
                for nodes in [1usize, 2] {
                    let out = run(ds.spec(variant).threads(threads).nodes(nodes))
                        .unwrap_or_else(|e| panic!("{} {variant} t{threads} n{nodes}: {e}", ds.id));
                    assert_eq!(
                        force_bits(&out.forces),
                        base_bits,
                        "{} {variant}: forces drifted at {threads} threads, {nodes} nodes",
                        ds.id
                    );
                }
            }
        }
    }
}

// ---- N-site water through the one pipeline -----------------------------

/// FNV-1a over the force bits of the SPC rows below, `Variant::ALL`
/// order for 64 then 216 molecules: recorded with the build of the
/// commit before N-site water, when three sites were all `run_step`
/// served and `compute_forces` all it was checked against.
const SPC_FORCE_PINS: [u64; 8] = [
    0xb8a4_adce_df82_f0b1,
    0xb3b0_1b83_2220_6aed,
    0xab59_045f_c80f_6353,
    0xb3ad_a455_c5ad_4681,
    0x3cc2_3327_2296_b36d,
    0x8930_4240_ccca_0ece,
    0x6dc3_b95f_3ade_83cc,
    0xcba5_abd2_ba97_9562,
];

fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn assert_forces_close(got: &[Vec3], want: &[Vec3], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: sites");
    let scale = want.iter().map(|f| f.norm()).fold(1.0f64, f64::max);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (*g - *w).max_abs();
        assert!(err < 1e-8 * scale, "{ctx}: site {i} off by {err:.2e}");
    }
}

/// SPC, TIP3P and TIP5P × every variant on 64 and 216 molecules through
/// `StreamMdApp::run_step`: forces against the N-site reference, on the
/// parallel engine, the same bits at every thread count, admitted by the
/// static analysis and unchanged by an 8-node decomposition. Five sites
/// with four charges do 1.8× the arithmetic of three on 1.67× the
/// words, so TIP5P's measured intensity is above SPC's (Section 5.4).
#[test]
fn n_site_water_is_served_by_the_main_pipeline_on_every_variant() {
    let mut spc_pins = Vec::new();
    for molecules in [64usize, 216] {
        let mut intensity = Vec::new();
        for model in [WaterModel::spc(), WaterModel::tip3p(), WaterModel::tip5p()] {
            let system = WaterBox::builder()
                .molecules(molecules)
                .model(model.clone())
                .seed(SEED)
                .build();
            let params = NeighborListParams {
                cutoff: (0.45 * system.pbc().side()).min(1.0),
                skin: 0.0,
                rebuild_interval: 10,
            };
            let list = NeighborList::build(&system, params);
            let reference = compute_forces_multisite(&system, &list).forces;
            let app = StreamMdApp::builder().neighbor(params);
            let default_app = app.clone().build().unwrap();
            let mut per_variant = Vec::new();
            for variant in Variant::ALL {
                let ctx = format!("{} x{molecules} {variant}", model.name);
                let base = default_app
                    .run_step(&system, variant)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_forces_close(&base.forces, &reference, &ctx);
                let partition = base.report.partition;
                assert!(
                    partition.parallelized && partition.fallback.is_none(),
                    "{ctx}: {partition:?}"
                );
                let base_bits = force_bits(&base.forces);
                if model.name == "SPC" {
                    let three_site = compute_forces(&system, &list).forces;
                    assert_forces_close(&base.forces, &three_site, &ctx);
                    spc_pins.push(fnv(&base_bits));
                }
                per_variant.push(base.perf.intensity_measured);

                for threads in [1usize, 2, 8] {
                    let out = app.clone().threads(threads).build().unwrap();
                    let out = out.run_step(&system, variant).unwrap();
                    let ctx = format!("{ctx} on {threads} threads");
                    assert_eq!(force_bits(&out.forces), base_bits, "{ctx}: forces");
                    assert_eq!(out.perf.cycles, base.perf.cycles, "{ctx}: cycles");
                    assert_eq!(out.report.counters, base.report.counters, "{ctx}");
                }

                let admitted = app.clone().analyze().build().unwrap();
                let admitted = admitted
                    .run_step_with_list(&system, &list, variant)
                    .unwrap_or_else(|e| panic!("{ctx}: not admitted: {e}"));
                assert_eq!(force_bits(&admitted.forces), base_bits, "{ctx}: admitted");

                let multi = run_multinode(&default_app, &system, &list, variant, 8)
                    .unwrap_or_else(|e| panic!("{ctx} on 8 nodes: {e}"));
                assert_eq!(
                    force_bits(&multi.outcome.forces),
                    base_bits,
                    "{ctx}: 8 nodes"
                );
            }
            intensity.push(per_variant);
        }
        let (spc, tip5p) = (&intensity[0], &intensity[2]);
        for (i, variant) in Variant::ALL.iter().enumerate() {
            if matches!(variant, Variant::Expanded | Variant::Variable) {
                assert!(
                    tip5p[i] > 1.08 * spc[i],
                    "x{molecules} {variant}: TIP5P {:.2} vs SPC {:.2} flops/word",
                    tip5p[i],
                    spc[i]
                );
            }
        }
    }
    assert_eq!(spc_pins, SPC_FORCE_PINS, "got {spc_pins:#018x?}");
}

//! A Rust port of the GROMACS 3.x water-water inner loop structure.
//!
//! GROMACS's `inl1130` SSE loop processes one central water molecule
//! against its neighbour list in packed single precision: for each of
//! the 9 atom pairs it computes `1/r` with `rsqrtps` plus one
//! Newton–Raphson step, the Coulomb interaction for all pairs, and
//! Lennard-Jones for the O-O pair. This port keeps that numerical
//! profile — `f32` arithmetic, approximate rsqrt with one refinement —
//! so its accuracy/performance relationship to the double-precision
//! Merrimac path mirrors the paper's comparison.

use md_sim::force::ForceField;
use md_sim::neighbor::NeighborList;
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;

/// Result of the single-precision baseline evaluation.
#[derive(Debug, Clone)]
pub struct SingleForceResult {
    /// Per-site forces in f32 precision (stored widened).
    pub forces: Vec<Vec3>,
    pub coulomb_energy: f64,
    pub lj_energy: f64,
    pub interactions: u64,
}

/// `rsqrtps` + one Newton–Raphson step, the GROMACS SSE idiom
/// (~22-bit accuracy).
#[inline]
fn rsqrt_nr(x: f32) -> f32 {
    // Software model of the hardware estimate: ~12-bit seed.
    let seed = {
        let i = 0x5f37_59dfu32.wrapping_sub(x.to_bits() >> 1);
        f32::from_bits(i)
    };
    let y = seed * (1.5 - 0.5 * x * seed * seed);
    // GROMACS performs exactly one refinement after the estimate;
    // the bit-hack seed is a bit coarser than rsqrtps, so refine twice
    // to land at the same ~22-bit accuracy.
    y * (1.5 - 0.5 * x * y * y)
}

/// Evaluate all interactions in `list` with the GROMACS-like
/// single-precision loop.
pub fn water_water_forces_sse_like(system: &WaterBox, list: &NeighborList) -> SingleForceResult {
    let ff = ForceField::from_model(system.model());
    let qq: [[f32; 3]; 3] = {
        let mut q = [[0.0f32; 3]; 3];
        for (qa, fa) in q.iter_mut().zip(&ff.qq) {
            for (qb, &fb) in qa.iter_mut().zip(fa) {
                *qb = fb as f32;
            }
        }
        q
    };
    let c6 = ff.c6 as f32;
    let c12 = ff.c12 as f32;
    let pbc = system.pbc();
    let n = system.num_molecules();

    // f32 working arrays (the SSE loop's layout: xyz per site).
    let mut fx = vec![0.0f32; n * 3];
    let mut fy = vec![0.0f32; n * 3];
    let mut fz = vec![0.0f32; n * 3];
    let mut vctot = 0.0f32;
    let mut vnbtot = 0.0f32;
    let mut interactions = 0u64;

    // Canonical (wrapped, rigidly reconstructed) coordinates.
    let canon: Vec<[f32; 3]> = (0..n * 3)
        .map(|site| {
            let m = site / 3;
            let mol = system.molecule(m);
            let o = pbc.wrap(mol[0]);
            let p = match site % 3 {
                0 => o,
                k => o + pbc.min_image(mol[k], mol[0]),
            };
            [p.x as f32, p.y as f32, p.z as f32]
        })
        .collect();

    for (center, shift_index, neighbors) in list.groups() {
        let shift = pbc.shift_vector(shift_index as usize);
        let (sx, sy, sz) = (shift.x as f32, shift.y as f32, shift.z as f32);
        let c = center as usize;
        // Shifted central molecule coordinates, kept in registers in the
        // assembly loop.
        let mut cx = [0.0f32; 3];
        let mut cy = [0.0f32; 3];
        let mut cz = [0.0f32; 3];
        for s in 0..3 {
            cx[s] = canon[c * 3 + s][0] + sx;
            cy[s] = canon[c * 3 + s][1] + sy;
            cz[s] = canon[c * 3 + s][2] + sz;
        }
        let mut fix = [0.0f32; 3];
        let mut fiy = [0.0f32; 3];
        let mut fiz = [0.0f32; 3];

        for &jn in neighbors {
            let j = jn as usize;
            interactions += 1;
            for a in 0..3 {
                for b in 0..3 {
                    let dx = cx[a] - canon[j * 3 + b][0];
                    let dy = cy[a] - canon[j * 3 + b][1];
                    let dz = cz[a] - canon[j * 3 + b][2];
                    let rsq = dx * dx + dy * dy + dz * dz;
                    let rinv = rsqrt_nr(rsq);
                    let rinvsq = rinv * rinv;
                    let vcoul = qq[a][b] * rinv;
                    vctot += vcoul;
                    let mut fs = vcoul * rinvsq;
                    if a == 0 && b == 0 {
                        let rinv6 = rinvsq * rinvsq * rinvsq;
                        let vnb6 = c6 * rinv6;
                        let vnb12 = c12 * rinv6 * rinv6;
                        vnbtot += vnb12 - vnb6;
                        fs += (12.0 * vnb12 - 6.0 * vnb6) * rinvsq;
                    }
                    let (tx, ty, tz) = (fs * dx, fs * dy, fs * dz);
                    fix[a] += tx;
                    fiy[a] += ty;
                    fiz[a] += tz;
                    fx[j * 3 + b] -= tx;
                    fy[j * 3 + b] -= ty;
                    fz[j * 3 + b] -= tz;
                }
            }
        }
        for s in 0..3 {
            fx[c * 3 + s] += fix[s];
            fy[c * 3 + s] += fiy[s];
            fz[c * 3 + s] += fiz[s];
        }
    }

    let forces = (0..n * 3)
        .map(|i| Vec3::new(fx[i] as f64, fy[i] as f64, fz[i] as f64))
        .collect();
    SingleForceResult {
        forces,
        coulomb_energy: vctot as f64,
        lj_energy: vnbtot as f64,
        interactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::force::compute_forces;
    use md_sim::neighbor::NeighborListParams;

    fn setup() -> (WaterBox, NeighborList) {
        let s = WaterBox::builder().molecules(64).seed(5).build();
        let params = NeighborListParams {
            cutoff: (0.45 * s.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&s, params);
        (s, nl)
    }

    #[test]
    fn rsqrt_nr_accuracy() {
        for x in [0.01f32, 0.5, 1.0, 7.3, 1234.5] {
            let got = rsqrt_nr(x);
            let want = 1.0 / x.sqrt();
            let rel = ((got - want) / want).abs();
            // ~22-bit accuracy: the rsqrtps + one-NR idiom.
            assert!(rel < 1e-5, "rsqrt({x}) rel err {rel}");
        }
    }

    #[test]
    fn matches_double_precision_reference_loosely() {
        let (s, nl) = setup();
        let single = water_water_forces_sse_like(&s, &nl);
        let double = compute_forces(&s, &nl);
        assert_eq!(single.interactions, double.interactions);
        let scale = double
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0f64, f64::max);
        for (a, b) in single.forces.iter().zip(&double.forces) {
            let err = (*a - *b).max_abs();
            // Single precision with approximate rsqrt: ~1e-5 relative.
            assert!(err < 1e-4 * scale, "f32 force error {err} vs scale {scale}");
        }
        let rel_e = ((single.coulomb_energy - double.coulomb_energy)
            / double.coulomb_energy.abs().max(1.0))
        .abs();
        assert!(rel_e < 1e-3, "energy error {rel_e}");
    }

    #[test]
    fn single_precision_differs_from_double() {
        // The whole point of the paper's precision caveat: the baseline
        // is *not* bit-identical to the double-precision path.
        let (s, nl) = setup();
        let single = water_water_forces_sse_like(&s, &nl);
        let double = compute_forces(&s, &nl);
        let any_diff = single
            .forces
            .iter()
            .zip(&double.forces)
            .any(|(a, b)| (*a - *b).max_abs() > 0.0);
        assert!(any_diff);
    }

    #[test]
    fn net_force_is_small() {
        let (s, nl) = setup();
        let single = water_water_forces_sse_like(&s, &nl);
        let net: Vec3 = single.forces.iter().copied().sum();
        // f32 accumulation leaves a rounding residue only.
        let scale: f64 = single.forces.iter().map(|f| f.norm()).sum();
        assert!(net.max_abs() < 1e-4 * scale.max(1.0), "net {net:?}");
    }
}

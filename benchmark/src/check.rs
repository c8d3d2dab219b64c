//! The per-op output check behind `failed` / `op_fail_ratio`.

use md_sim::force::compute_forces;
use md_sim::vec3::Vec3;
use streammd::SimError;

use crate::workloads::{OpOutput, Prepared};

/// Hard limit on `force_max_rel_err`, as `tests/variants_vs_reference.rs`.
pub const FORCE_ERR_LIMIT: f64 = 1e-8;

/// FNV-1a over 64-bit words, byte by byte.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fingerprint of an op's output: every bit of its forces (final
/// positions on traj-), then its simulated cycles.
pub fn fingerprint(out: &OpOutput) -> u64 {
    let bits = out
        .checked_vectors()
        .iter()
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]);
    fnv64(bits.chain([out.sim_cycles()]))
}

/// Largest site error of `got` against `want`, over the largest
/// reference force (at least 1). Infinite when the shapes differ or a
/// component is not a number.
pub fn max_rel_err(got: &[Vec3], want: &[Vec3]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let scale = want.iter().map(|f| f.norm()).fold(1.0f64, f64::max);
    let mut worst = 0.0f64;
    for (g, w) in got.iter().zip(want) {
        let diff = *g - *w;
        // `max_abs` folds with `f64::max`, which drops a NaN.
        if !(diff.x.is_finite() && diff.y.is_finite() && diff.z.is_finite()) {
            return f64::INFINITY;
        }
        worst = worst.max(diff.max_abs() / scale);
    }
    worst
}

/// Counts ops and the ones that fail: an `Err`, forces beyond
/// [`FORCE_ERR_LIMIT`] of `md_sim::force::compute_forces`, or a
/// fingerprint other than the first op's.
pub struct Checker {
    reference: Vec<Vec3>,
    first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub force_max_rel_err: f64,
}

impl Checker {
    /// Computes the reference forces of the initial state. This is the
    /// harness's own work and is kept out of `setup_s`. A trajectory op
    /// returns no forces, so on traj- the machine's force step on the
    /// initial state is run here, once, and checked in its place.
    pub fn new(p: &Prepared) -> Result<Self, SimError> {
        let reference = compute_forces(&p.system, &p.list).forces;
        let force_max_rel_err = if p.workload.steps_per_op() > 1 {
            let out = p
                .app
                .run_step_with_list(&p.system, &p.list, p.workload.variant())?;
            max_rel_err(&out.forces, &reference)
        } else {
            0.0
        };
        Ok(Self {
            reference,
            first: None,
            attempted: 0,
            failed: 0,
            force_max_rel_err,
        })
    }

    /// Check one op; `Some(reason)` when it failed.
    pub fn check(&mut self, result: &Result<OpOutput, SimError>) -> Option<String> {
        self.attempted += 1;
        let failure = match result {
            Err(e) => Some(format!("op returned an error: {e}")),
            Ok(out) => {
                if let Some(forces) = out.forces() {
                    let err = max_rel_err(forces, &self.reference);
                    self.force_max_rel_err = self.force_max_rel_err.max(err);
                }
                let print = fingerprint(out);
                let first = *self.first.get_or_insert(print);
                if self.force_max_rel_err > FORCE_ERR_LIMIT {
                    Some(format!(
                        "force_max_rel_err {:e} exceeds {FORCE_ERR_LIMIT:e}",
                        self.force_max_rel_err
                    ))
                } else if print != first {
                    Some(format!(
                        "fingerprint {print:#018x} differs from the first op's {first:#018x}"
                    ))
                } else {
                    None
                }
            }
        };
        self.failed += u64::from(failure.is_some());
        failure
    }

    /// Fingerprint of the first op that returned an output.
    pub fn fingerprint(&self) -> u64 {
        self.first.unwrap_or(0)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64([]), 0xcbf2_9ce4_8422_2325);
        // FNV-1a of the eight bytes "a\0\0\0\0\0\0\0" differs from the
        // empty hash and from another word's.
        assert_ne!(fnv64([0x61]), fnv64([]));
        assert_ne!(fnv64([1, 2]), fnv64([2, 1]));
        // One byte 'a' followed by seven zero bytes, computed by hand
        // from the one-byte vector 0xaf63dc4c8601ec8c.
        let mut expect = 0xaf63_dc4c_8601_ec8cu64;
        for _ in 0..7 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(fnv64([0x61]), expect);
    }

    #[test]
    fn max_rel_err_scales_by_the_largest_reference_force() {
        let want = [Vec3::new(0.0, 200.0, 0.0), Vec3::new(1.0, 1.0, 1.0)];
        let got = [Vec3::new(0.0, 200.0, 0.0), Vec3::new(1.0, 1.5, 1.0)];
        assert_eq!(max_rel_err(&got, &want), 0.5 / 200.0);
        assert_eq!(max_rel_err(&want, &want), 0.0);
        assert!(max_rel_err(&got[..1], &want).is_infinite());
        let nan = [Vec3::new(f64::NAN, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)];
        assert!(max_rel_err(&nan, &want).is_infinite());
    }
}

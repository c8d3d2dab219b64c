//! Cut-off neighbour lists in the GROMACS/StreamMD layout.
//!
//! The list is a *half* list — each interacting molecule pair appears
//! exactly once — grouped by central molecule and periodic shift, exactly
//! the structure GROMACS hands to its water-water inner loop and the
//! paper feeds to the stream program as `i_central` / `i_neighbor`.
//!
//! Accuracy under infrequent rebuilds is maintained the way the paper
//! describes: "artificially increasing the cutoff distance beyond what is
//! strictly required by the physics" — the [`NeighborListParams::skin`]
//! parameter.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cell::CellGrid;
use crate::pbc::Pbc;
use crate::system::WaterBox;
use crate::vec3::Vec3;

/// Centre count above which [`NeighborList::build`] fans the per-centre
/// search out over the rayon worker pool. Below it, thread spawn/join
/// costs more than the search; at the 10⁵–10⁶-particle sweep points the
/// build dominates wall-clock and scales with cores.
const PAR_BUILD_MIN_CENTERS: usize = 512;

/// Parameters of the neighbour search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborListParams {
    /// Interaction cut-off r_c in nm (paper dataset: 1.0).
    pub cutoff: f64,
    /// Extra list radius so the list stays valid between rebuilds.
    pub skin: f64,
    /// Time steps between rebuilds ("only generating it once every
    /// several time-steps").
    pub rebuild_interval: usize,
}

impl Default for NeighborListParams {
    fn default() -> Self {
        Self {
            cutoff: 1.0,
            skin: 0.1,
            rebuild_interval: 10,
        }
    }
}

impl NeighborListParams {
    /// The radius molecules are listed within.
    pub fn list_radius(&self) -> f64 {
        self.cutoff + self.skin
    }
}

/// Neighbours of one central molecule under one periodic shift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CenterList {
    /// Central molecule index.
    pub center: u32,
    /// GROMACS shift index (see [`Pbc::shift_index`]); the shift is
    /// applied to the *central* molecule's coordinates.
    pub shift_index: u8,
    /// Neighbour molecule indices.
    pub neighbors: Vec<u32>,
}

/// A complete half neighbour list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborList {
    pub params: NeighborListParams,
    /// Per-(centre, shift) lists, ordered by centre.
    pub lists: Vec<CenterList>,
}

impl NeighborList {
    /// Build from a water box using a cell grid over oxygen positions.
    ///
    /// Large boxes fan the per-centre search out over the rayon worker
    /// pool: each centre's lists are a pure function of the (read-only)
    /// grid and positions, and the order-preserving parallel collect
    /// reassembles them in centre order, so the emitted list is
    /// byte-identical to the serial build at any thread count (pinned
    /// by `parallel_build_is_byte_identical_to_serial`).
    pub fn build(system: &WaterBox, params: NeighborListParams) -> Self {
        let parallel =
            system.num_molecules() >= PAR_BUILD_MIN_CENTERS && rayon::current_num_threads() > 1;
        Self::build_impl(system, params, parallel)
    }

    fn build_impl(system: &WaterBox, params: NeighborListParams, parallel: bool) -> Self {
        let n = system.num_molecules();
        let pbc = system.pbc();
        let radius = params.list_radius();
        assert!(
            radius * 2.0 <= pbc.side() + 1e-12,
            "cutoff+skin {radius} too large for box {}; minimum image would be ambiguous",
            pbc.side()
        );
        let oxygens: Vec<Vec3> = (0..n).map(|m| pbc.wrap(system.oxygen(m))).collect();
        let grid = CellGrid::build(pbc, &oxygens, radius);

        // One centre's (shift-grouped, sorted) lists, appended to `out`.
        // Scratch buffers are caller-owned so the serial path can reuse
        // them across centres.
        let collect_center = |i: usize,
                              by_shift: &mut Vec<Vec<u32>>,
                              used_shifts: &mut Vec<usize>,
                              out: &mut Vec<CenterList>| {
            for v in by_shift.iter_mut() {
                v.clear();
            }
            used_shifts.clear();
            let pi = oxygens[i];
            grid.for_neighbourhood(pi, |j| {
                // Half list: only pairs with j > i.
                if j <= i {
                    return;
                }
                let pj = oxygens[j];
                let d = pbc.min_image(pi, pj);
                if d.norm2() <= radius * radius {
                    let shift = pbc.image_shift(pi, pj);
                    let si = Pbc::shift_index(shift);
                    if by_shift[si].is_empty() {
                        used_shifts.push(si);
                    }
                    by_shift[si].push(j as u32);
                }
            });
            used_shifts.sort_unstable();
            for &si in used_shifts.iter() {
                let mut neighbors = std::mem::take(&mut by_shift[si]);
                neighbors.sort_unstable();
                out.push(CenterList {
                    center: i as u32,
                    shift_index: si as u8,
                    neighbors,
                });
            }
        };

        let lists: Vec<CenterList> = if parallel {
            let per_center: Vec<Vec<CenterList>> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let mut by_shift: Vec<Vec<u32>> = vec![Vec::new(); Pbc::NUM_SHIFTS];
                    let mut used_shifts: Vec<usize> = Vec::new();
                    let mut out = Vec::new();
                    collect_center(i, &mut by_shift, &mut used_shifts, &mut out);
                    out
                })
                .collect();
            let mut lists = Vec::with_capacity(per_center.iter().map(Vec::len).sum());
            for mut v in per_center {
                lists.append(&mut v);
            }
            lists
        } else {
            let mut lists = Vec::new();
            let mut by_shift: Vec<Vec<u32>> = vec![Vec::new(); Pbc::NUM_SHIFTS];
            let mut used_shifts: Vec<usize> = Vec::new();
            for i in 0..n {
                collect_center(i, &mut by_shift, &mut used_shifts, &mut lists);
            }
            lists
        };
        Self { params, lists }
    }

    /// Total molecule-pair interactions (Table 2's "interactions").
    pub fn num_pairs(&self) -> usize {
        self.lists.iter().map(|l| l.neighbors.len()).sum()
    }

    /// Mean neighbours per *molecule* (not per list).
    pub fn mean_neighbors_per_molecule(&self, num_molecules: usize) -> f64 {
        if num_molecules == 0 {
            0.0
        } else {
            self.num_pairs() as f64 / num_molecules as f64
        }
    }

    /// Flatten to `(center, neighbor, shift_index)` triples — the fully
    /// expanded interaction list of the `expanded` variant.
    pub fn flat_pairs(&self) -> Vec<(u32, u32, u8)> {
        let mut out = Vec::with_capacity(self.num_pairs());
        for l in &self.lists {
            for &j in &l.neighbors {
                out.push((l.center, j, l.shift_index));
            }
        }
        out
    }

    /// Does the list need rebuilding after molecules moved by at most
    /// `max_displacement` since the last build? (Standard skin criterion:
    /// two molecules may each travel skin/2.)
    pub fn is_stale(&self, max_displacement: f64) -> bool {
        max_displacement * 2.0 > self.params.skin
    }

    /// Brute-force reference list (O(n²)) used by tests and small systems.
    pub fn build_brute_force(system: &WaterBox, params: NeighborListParams) -> Self {
        let n = system.num_molecules();
        let pbc = system.pbc();
        let radius = params.list_radius();
        let oxygens: Vec<Vec3> = (0..n).map(|m| pbc.wrap(system.oxygen(m))).collect();
        let mut lists: Vec<CenterList> = Vec::new();
        for i in 0..n {
            let mut by_shift: Vec<Vec<u32>> = vec![Vec::new(); Pbc::NUM_SHIFTS];
            for j in (i + 1)..n {
                let d = pbc.min_image(oxygens[i], oxygens[j]);
                if d.norm2() <= radius * radius {
                    let si = Pbc::shift_index(pbc.image_shift(oxygens[i], oxygens[j]));
                    by_shift[si].push(j as u32);
                }
            }
            for (si, neighbors) in by_shift.into_iter().enumerate() {
                if !neighbors.is_empty() {
                    lists.push(CenterList {
                        center: i as u32,
                        shift_index: si as u8,
                        neighbors,
                    });
                }
            }
        }
        Self { params, lists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_box(n: usize, seed: u64) -> WaterBox {
        WaterBox::builder().molecules(n).seed(seed).build()
    }

    #[test]
    fn grid_matches_brute_force() {
        let sys = small_box(125, 11);
        let params = NeighborListParams {
            cutoff: 0.55,
            skin: 0.05,
            rebuild_interval: 10,
        };
        let fast = NeighborList::build(&sys, params);
        let slow = NeighborList::build_brute_force(&sys, params);
        assert_eq!(fast.num_pairs(), slow.num_pairs());
        let mut fp = fast.flat_pairs();
        let mut sp = slow.flat_pairs();
        fp.sort_unstable();
        sp.sort_unstable();
        assert_eq!(fp, sp);
    }

    #[test]
    fn half_list_has_each_pair_once() {
        let sys = small_box(64, 12);
        let params = NeighborListParams {
            cutoff: 0.5,
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&sys, params);
        let mut seen = std::collections::HashSet::new();
        for (c, j, _) in nl.flat_pairs() {
            assert!(c < j, "half list must have center < neighbor");
            assert!(seen.insert((c, j)), "pair ({c},{j}) duplicated");
        }
    }

    #[test]
    fn paper_dataset_statistics() {
        // Table 2 reconstruction: 900 molecules at r_c = 1.0 nm should give
        // roughly 62k pairs (~69 neighbours per molecule in the half list).
        let sys = WaterBox::paper_dataset(7);
        let params = NeighborListParams {
            cutoff: 1.0,
            skin: 0.0,
            rebuild_interval: 10,
        };
        let nl = NeighborList::build(&sys, params);
        let pairs = nl.num_pairs();
        assert!(
            (55_000..70_000).contains(&pairs),
            "paper dataset pair count {pairs} outside expected band"
        );
        let mean = nl.mean_neighbors_per_molecule(900);
        assert!(mean > 60.0 && mean < 80.0, "mean neighbours {mean}");
    }

    #[test]
    fn shift_applied_to_center_reproduces_min_image() {
        let sys = small_box(64, 13);
        let pbc = sys.pbc();
        let params = NeighborListParams {
            cutoff: 0.6,
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&sys, params);
        for l in &nl.lists {
            let shift = pbc.shift_vector(l.shift_index as usize);
            let ci = pbc.wrap(sys.oxygen(l.center as usize)) + shift;
            for &j in &l.neighbors {
                let d = ci - pbc.wrap(sys.oxygen(j as usize));
                let mi = pbc.min_image(
                    pbc.wrap(sys.oxygen(l.center as usize)),
                    pbc.wrap(sys.oxygen(j as usize)),
                );
                assert!(
                    (d - mi).max_abs() < 1e-9,
                    "shifted displacement != min image"
                );
            }
        }
    }

    #[test]
    fn cutoff_respected() {
        let sys = small_box(64, 14);
        let pbc = sys.pbc();
        let params = NeighborListParams {
            cutoff: 0.6,
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&sys, params);
        for (c, j, _) in nl.flat_pairs() {
            let d = pbc
                .min_image(sys.oxygen(c as usize), sys.oxygen(j as usize))
                .norm();
            assert!(d <= 0.6 + 1e-12);
        }
    }

    #[test]
    fn staleness_criterion() {
        let params = NeighborListParams {
            cutoff: 1.0,
            skin: 0.2,
            rebuild_interval: 10,
        };
        let nl = NeighborList {
            params,
            lists: vec![],
        };
        assert!(!nl.is_stale(0.05));
        assert!(nl.is_stale(0.15));
    }

    #[test]
    fn oversized_cutoff_rejected() {
        let sys = small_box(8, 15);
        let params = NeighborListParams {
            cutoff: 5.0,
            skin: 0.0,
            rebuild_interval: 1,
        };
        let r = std::panic::catch_unwind(|| NeighborList::build(&sys, params));
        assert!(r.is_err());
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        // Above and below the parallelism threshold, forced through
        // both paths: same lists in the same order, so downstream
        // consumers (dataset cache keys, kernels) cannot observe the
        // host thread count.
        for (n, seed) in [(125usize, 21u64), (700, 22)] {
            let sys = small_box(n, seed);
            let params = NeighborListParams {
                cutoff: 0.55,
                skin: 0.05,
                rebuild_interval: 10,
            };
            let serial = NeighborList::build_impl(&sys, params, false);
            let parallel = NeighborList::build_impl(&sys, params, true);
            assert_eq!(serial, parallel, "n={n}");
            assert_eq!(
                NeighborList::build(&sys, params),
                serial,
                "n={n} front door"
            );
        }
    }

    #[test]
    fn lists_sorted_by_center() {
        let sys = small_box(64, 16);
        let nl = NeighborList::build(
            &sys,
            NeighborListParams {
                cutoff: 0.6,
                skin: 0.0,
                rebuild_interval: 1,
            },
        );
        for w in nl.lists.windows(2) {
            assert!(w[0].center <= w[1].center);
        }
    }
}

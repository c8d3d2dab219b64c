//! Cut-off neighbour lists in the GROMACS/StreamMD layout.
//!
//! The list is a *half* list — each interacting molecule pair appears
//! exactly once — grouped by central molecule and periodic shift, exactly
//! the structure GROMACS hands to its water-water inner loop and the
//! paper feeds to the stream program as `i_central` / `i_neighbor`.
//!
//! It is stored once, as a CSR: group `g` is central molecule
//! `centers[g]` under shift `shifts[g]` with the neighbours
//! `neighbors[starts[g]..starts[g + 1]]`. The order is canonical —
//! centres ascending, shift indices ascending within a centre, neighbours
//! ascending within a group — so a list is a function of the positions
//! and the radius alone, whatever searched it and on how many threads.
//!
//! Accuracy under infrequent rebuilds is maintained the way the paper
//! describes: "artificially increasing the cutoff distance beyond what is
//! strictly required by the physics" — the [`NeighborListParams::skin`]
//! parameter.

use std::ops::Range;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cell::CellGrid;
use crate::pbc::Pbc;
use crate::system::WaterBox;
use crate::vec3::Vec3;

/// Centre count from which [`NeighborList::build`] fans the search out
/// over the rayon worker pool. At two threads (medians of 400 builds
/// alternating with serial ones, so the worker has parked), fanning out
/// reads 0.26 against 0.33 ms here, 0.45 against 0.66 ms at 512 and 1.2
/// against 1.85 ms at 900 molecules; below, waking the worker costs more
/// than it saves: 0.15–0.18 against 0.14 ms at 216, 0.10 against 0.05 ms
/// at 125.
const PAR_BUILD_MIN_CENTERS: usize = 343;

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

/// A complete half neighbour list (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborList {
    pub params: NeighborListParams,
    /// Molecules of the system the list was built over.
    molecules: usize,
    centers: Vec<u32>,
    /// GROMACS shift indices (see [`Pbc::shift_index`]); the shift is
    /// applied to the *central* molecule's coordinates.
    shifts: Vec<u8>,
    starts: Vec<u32>,
    neighbors: Vec<u32>,
}

/// The list radius, which the minimum-image convention must be able to
/// serve: every searcher goes through this check.
fn checked_radius(pbc: Pbc, params: NeighborListParams) -> f64 {
    let radius = params.list_radius();
    assert!(
        radius * 2.0 <= pbc.side() + 1e-12,
        "cutoff+skin {radius} too large for box {}; minimum image would be ambiguous",
        pbc.side()
    );
    radius
}

/// One component of a minimum-image computation between two wrapped
/// points `d` apart in a box of side `l`: the image displacement and the
/// lattice step `round(d / l)` it took. `|d / l| < 1.5`, where rounding
/// half away from zero is two comparisons — no libm call, no integer
/// conversion, so a loop over it vectorises.
#[inline]
fn nearest_image(d: f64, l: f64) -> (f64, f64) {
    let q = d / l;
    let up = if q >= 0.5 { 1.0 } else { 0.0 };
    let step = up - if q <= -0.5 { 1.0 } else { 0.0 };
    (d - l * step, step)
}

impl NeighborList {
    /// A list of no groups, over no molecules.
    pub fn empty(params: NeighborListParams) -> Self {
        Self {
            params,
            molecules: 0,
            centers: Vec::new(),
            shifts: Vec::new(),
            starts: vec![0],
            neighbors: Vec::new(),
        }
    }

    /// Build from a water box using a cell grid over oxygen positions.
    ///
    /// Large boxes fan the search out over the rayon worker pool in
    /// contiguous centre ranges, four per participant, claimed as the
    /// participants free up, whose pieces concatenate in centre order, so
    /// the emitted list is byte-identical to the serial build at any
    /// thread count (pinned by
    /// `parallel_build_is_byte_identical_to_serial`).
    pub fn build(system: &WaterBox, params: NeighborListParams) -> Self {
        let fan_out = system.num_molecules() >= PAR_BUILD_MIN_CENTERS;
        Self::build_on(system, params, fan_out)
    }

    fn build_on(system: &WaterBox, params: NeighborListParams, fan_out: bool) -> Self {
        let (n, pbc) = (system.num_molecules(), system.pbc());
        let radius = checked_radius(pbc, params);
        let oxygens: Vec<Vec3> = (0..n).map(|m| pbc.wrap(system.oxygen(m))).collect();
        let grid = CellGrid::build(pbc, &oxygens, radius);
        let over = || Self {
            molecules: n,
            ..Self::empty(params)
        };
        let search = |centres: Range<usize>| {
            let mut piece = over();
            let mut s = Scratch {
                dist2: vec![0.0; n],
                shift: vec![0.0; n],
                found: vec![0; n],
                shift_of: vec![0; n],
            };
            for i in centres {
                let k = candidates(&grid, i, oxygens[i], pbc.side(), radius * radius, &mut s);
                piece.push_center(i as u32, &s.found[..k], &s.shift_of[..k]);
            }
            piece
        };
        let workers = rayon::current_num_threads();
        if !fan_out || workers == 1 {
            return search(0..n);
        }
        // Four ranges per participant, claimed as they free up: a centre
        // is tested against the molecules after it, so the early ranges
        // cost the most.
        let ranges = 4 * workers;
        let pieces: Vec<Self> = (0..ranges)
            .into_par_iter()
            .map(|r| search(r * n / ranges..(r + 1) * n / ranges))
            .collect();
        let mut list = over();
        list.neighbors
            .reserve_exact(pieces.iter().map(|p| p.neighbors.len()).sum());
        for piece in pieces {
            let base = list.neighbors.len() as u32;
            list.centers.extend(piece.centers);
            list.shifts.extend(piece.shifts);
            list.starts
                .extend(piece.starts[1..].iter().map(|s| s + base));
            list.neighbors.extend(piece.neighbors);
        }
        list
    }

    /// Append one centre's groups: its neighbours `found` (any order),
    /// each under its shift index, bucketed by shift and sorted.
    fn push_center(&mut self, center: u32, found: &[u32], shift_of: &[u8]) {
        let mut cursor = [0u32; Pbc::NUM_SHIFTS];
        for &s in shift_of {
            cursor[s as usize] += 1;
        }
        let first = self.centers.len();
        let mut at = self.neighbors.len() as u32;
        self.neighbors.resize(at as usize + found.len(), 0);
        for (s, c) in cursor.iter_mut().enumerate() {
            if *c > 0 {
                self.centers.push(center);
                self.shifts.push(s as u8);
                (*c, at) = (at, at + *c);
                self.starts.push(at);
            }
        }
        for (&j, &s) in found.iter().zip(shift_of) {
            self.neighbors[cursor[s as usize] as usize] = j;
            cursor[s as usize] += 1;
        }
        for g in first..self.centers.len() {
            self.neighbors[self.starts[g] as usize..self.starts[g + 1] as usize].sort_unstable();
        }
    }

    /// The list's groups in canonical order: `(central molecule, shift
    /// index, neighbours)`.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = (u32, u8, &[u32])> + Clone {
        let bounds = self.starts.windows(2);
        (self.centers.iter().zip(&self.shifts).zip(bounds))
            .map(|((&c, &s), w)| (c, s, &self.neighbors[w[0] as usize..w[1] as usize]))
    }

    /// Molecules of the system the list was built over.
    pub fn molecules(&self) -> usize {
        self.molecules
    }

    /// Total molecule-pair interactions (Table 2's "interactions").
    pub fn num_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// Mean neighbours per *molecule* (not per list).
    pub fn mean_neighbors_per_molecule(&self, num_molecules: usize) -> f64 {
        if num_molecules == 0 {
            0.0
        } else {
            self.num_pairs() as f64 / num_molecules as f64
        }
    }

    /// Does the list need rebuilding after molecules moved by at most
    /// `max_displacement` since the last build? (Standard skin criterion:
    /// two molecules may each travel skin/2.)
    pub fn is_stale(&self, max_displacement: f64) -> bool {
        max_displacement * 2.0 > self.params.skin
    }

    /// Brute-force reference list (O(n²)) used by tests and small systems.
    pub fn build_brute_force(system: &WaterBox, params: NeighborListParams) -> Self {
        let (n, pbc) = (system.num_molecules(), system.pbc());
        let radius = checked_radius(pbc, params);
        let o: Vec<Vec3> = (0..n).map(|m| pbc.wrap(system.oxygen(m))).collect();
        let mut list = Self::empty(params);
        list.molecules = n;
        for i in 0..n {
            let near = |&j: &usize| pbc.min_image(o[i], o[j]).norm2() <= radius * radius;
            let shift = |j: usize| Pbc::shift_index(pbc.image_shift(o[i], o[j])) as u8;
            let listed = (i + 1..n).filter(near).map(|j| (j as u32, shift(j)));
            let (found, shift_of): (Vec<u32>, Vec<u8>) = listed.unzip();
            list.push_center(i as u32, &found, &shift_of);
        }
        list
    }
}

/// Per candidate of a cell, its squared image distance and shift index;
/// then the accepted candidates of a centre.
struct Scratch {
    dist2: Vec<f64>,
    shift: Vec<f64>,
    found: Vec<u32>,
    shift_of: Vec<u8>,
}

/// Test centre `i` (at `at`) once against every molecule after it in its
/// cell neighbourhood: a pass of pure arithmetic (one [`nearest_image`]
/// per axis) over each cell's contiguous coordinates, then a compaction
/// that stores every candidate at the count of accepted ones, which only
/// a pair within the radius advances — no branch on the distance.
/// Returns the number accepted into `found` / `shift_of`.
fn candidates(
    grid: &CellGrid,
    i: usize,
    at: Vec3,
    side: f64,
    radius2: f64,
    s: &mut Scratch,
) -> usize {
    let mut k = 0;
    for cell in grid.neighbourhood(i) {
        let slots = grid.cell(cell);
        // Half list: only pairs with j > i, and ids ascend in a cell.
        let after = grid.ids[slots.clone()].partition_point(|&j| j as usize <= i);
        let r = slots.start + after..slots.end;
        let (dist2, shift) = (&mut s.dist2[..r.len()], &mut s.shift[..r.len()]);
        let coords = grid.x[r.clone()]
            .iter()
            .zip(&grid.y[r.clone()])
            .zip(&grid.z[r.clone()]);
        for (((&xj, &yj), &zj), (d2, sh)) in coords.zip(dist2.iter_mut().zip(shift.iter_mut())) {
            let (dx, sx) = nearest_image(at.x - xj, side);
            let (dy, sy) = nearest_image(at.y - yj, side);
            let (dz, sz) = nearest_image(at.z - zj, side);
            *d2 = dx * dx + dy * dy + dz * dz;
            // `Pbc::shift_index` of the shift (-sx, -sy, -sz).
            *sh = Pbc::CENTRAL_SHIFT as f64 - (sx + 3.0 * sy + 9.0 * sz);
        }
        for ((&j, &d2), &sh) in grid.ids[r].iter().zip(&*dist2).zip(&*shift) {
            s.found[k] = j;
            s.shift_of[k] = sh as u8;
            k += (d2 <= radius2) as usize;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_box(n: usize, seed: u64) -> WaterBox {
        WaterBox::builder().molecules(n).seed(seed).build()
    }

    fn params(cutoff: f64, skin: f64) -> NeighborListParams {
        NeighborListParams {
            cutoff,
            skin,
            rebuild_interval: 10,
        }
    }

    fn on_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
        pool.expect("pool").install(f)
    }

    fn pairs(list: &NeighborList) -> Vec<(u32, u32, u8)> {
        let of =
            |(c, s, n): (u32, u8, &[u32])| n.iter().map(move |&j| (c, j, s)).collect::<Vec<_>>();
        list.groups().flat_map(of).collect()
    }

    /// The builder this module had before the one-pass CSR (PR 22's
    /// serial `build_impl`, with `CellGrid::build` and `for_neighbourhood`
    /// written out): a grid of `floor(side / radius)` cells per axis
    /// walked 27 cells at a time with repeats suppressed, every `j <= i`
    /// rejected one by one, `Pbc::min_image` + `Pbc::image_shift` (six
    /// `f64::round`s) per accepted pair, a `Vec` per shift. Its groups
    /// go into the CSR one at a time, not through `push_center`, so the
    /// equalities it is part of hold `push_center` to account too.
    fn build_reference(system: &WaterBox, params: NeighborListParams) -> NeighborList {
        let n = system.num_molecules();
        let pbc = system.pbc();
        let radius = checked_radius(pbc, params);
        let oxygens: Vec<Vec3> = (0..n).map(|m| pbc.wrap(system.oxygen(m))).collect();

        let nc = ((pbc.side() / radius).floor() as usize).max(1);
        let cell_side = pbc.side() / nc as f64;
        let axis = |c: f64| ((c / cell_side) as usize).min(nc - 1);
        let cell_of = |p: Vec3| {
            let wrapped = pbc.wrap(p);
            (axis(wrapped.x), axis(wrapped.y), axis(wrapped.z))
        };
        let slot = |(cx, cy, cz): (usize, usize, usize)| (cz * nc + cy) * nc + cx;
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); nc * nc * nc];
        for (m, &p) in oxygens.iter().enumerate() {
            cells[slot(cell_of(p))].push(m);
        }
        let wrap = |c: usize, d: isize| (c as isize + d).rem_euclid(nc as isize) as usize;

        let mut list = NeighborList {
            molecules: n,
            ..NeighborList::empty(params)
        };
        for i in 0..n {
            let pi = oxygens[i];
            let (cx, cy, cz) = cell_of(pi);
            let mut by_shift: Vec<Vec<u32>> = vec![Vec::new(); Pbc::NUM_SHIFTS];
            let mut used_shifts: Vec<usize> = Vec::new();
            let mut visited: Vec<(usize, usize, usize)> = Vec::with_capacity(27);
            for (dz, dy, dx) in (0..27).map(|k| (k / 9 - 1, k / 3 % 3 - 1, k % 3 - 1)) {
                let c = (wrap(cx, dx), wrap(cy, dy), wrap(cz, dz));
                if visited.contains(&c) {
                    continue;
                }
                visited.push(c);
                for &j in &cells[slot(c)] {
                    // Half list: only pairs with j > i.
                    if j <= i {
                        continue;
                    }
                    let pj = oxygens[j];
                    if pbc.min_image(pi, pj).norm2() <= radius * radius {
                        let si = Pbc::shift_index(pbc.image_shift(pi, pj));
                        if by_shift[si].is_empty() {
                            used_shifts.push(si);
                        }
                        by_shift[si].push(j as u32);
                    }
                }
            }
            used_shifts.sort_unstable();
            for si in used_shifts {
                let mut neighbors = std::mem::take(&mut by_shift[si]);
                neighbors.sort_unstable();
                list.centers.push(i as u32);
                list.shifts.push(si as u8);
                list.neighbors.extend(neighbors);
                list.starts.push(list.neighbors.len() as u32);
            }
        }
        list
    }

    #[test]
    fn grid_matches_brute_force() {
        let sys = small_box(125, 11);
        let fast = NeighborList::build(&sys, params(0.55, 0.05));
        let slow = NeighborList::build_brute_force(&sys, params(0.55, 0.05));
        assert_eq!(fast, slow);
        assert_eq!(fast, build_reference(&sys, params(0.55, 0.05)));
    }

    #[test]
    fn half_list_has_each_pair_once() {
        let sys = small_box(64, 12);
        let nl = NeighborList::build(&sys, params(0.5, 0.0));
        let mut seen = std::collections::HashSet::new();
        for (c, j, _) in pairs(&nl) {
            assert!(c < j, "half list must have center < neighbor");
            assert!(seen.insert((c, j)), "pair ({c},{j}) duplicated");
        }
        assert_eq!(seen.len(), nl.num_pairs());
    }

    #[test]
    fn paper_dataset_statistics() {
        // Table 2 reconstruction: 900 molecules at r_c = 1.0 nm should give
        // roughly 62k pairs (~69 neighbours per molecule in the half list).
        let sys = WaterBox::paper_dataset(7);
        let nl = NeighborList::build(&sys, params(1.0, 0.0));
        let pairs = nl.num_pairs();
        assert!(
            (55_000..70_000).contains(&pairs),
            "paper dataset pair count {pairs} outside expected band"
        );
        let mean = nl.mean_neighbors_per_molecule(900);
        assert!(mean > 60.0 && mean < 80.0, "mean neighbours {mean}");
    }

    fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
        let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        bytes.into_iter().fold(h, step)
    }

    #[test]
    fn paper_box_lists_are_the_recorded_ones() {
        // FNV-1a over `centers`, `shifts`, `starts`, `neighbors` (words
        // little-endian), recorded from the list PR 22's builder made.
        for (seed, groups, pairs, want) in [
            (42, 2471, 65_876, 0x85f0_8599_fb1d_6d91u64),
            (7, 2475, 65_960, 0xeda1_17e8_dac8_6416),
        ] {
            let nl = NeighborList::build(&WaterBox::paper_dataset(seed), params(1.0, 0.0));
            assert_eq!((nl.groups().len(), nl.num_pairs()), (groups, pairs));
            let words = |v: &[u32]| v.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>();
            let mut h = fnv(0xcbf2_9ce4_8422_2325, words(&nl.centers));
            h = fnv(h, nl.shifts.iter().copied());
            h = fnv(h, words(&nl.starts));
            h = fnv(h, words(&nl.neighbors));
            assert_eq!(h, want, "seed {seed}: {h:#018x}");
        }
    }

    #[test]
    fn shift_applied_to_center_reproduces_min_image() {
        let sys = small_box(64, 13);
        let pbc = sys.pbc();
        let nl = NeighborList::build(&sys, params(0.6, 0.0));
        for (center, shift_index, neighbors) in nl.groups() {
            let shift = pbc.shift_vector(shift_index as usize);
            let ci = pbc.wrap(sys.oxygen(center as usize)) + shift;
            for &j in neighbors {
                let d = ci - pbc.wrap(sys.oxygen(j as usize));
                let mi = pbc.min_image(
                    pbc.wrap(sys.oxygen(center as usize)),
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
        let nl = NeighborList::build(&sys, params(0.6, 0.0));
        for (c, j, _) in pairs(&nl) {
            let d = pbc
                .min_image(sys.oxygen(c as usize), sys.oxygen(j as usize))
                .norm();
            assert!(d <= 0.6 + 1e-12);
        }
    }

    #[test]
    fn oversized_cutoff_rejected() {
        // The searcher and its oracle refuse the same inputs.
        let sys = small_box(8, 15);
        type Build = fn(&WaterBox, NeighborListParams) -> NeighborList;
        for build in [
            NeighborList::build as Build,
            NeighborList::build_brute_force,
        ] {
            assert!(std::panic::catch_unwind(|| build(&sys, params(5.0, 0.0))).is_err());
            let half = sys.pbc().side() / 2.0;
            assert!(std::panic::catch_unwind(|| build(&sys, params(half, 0.01))).is_err());
            build(&sys, params(half, 0.0));
        }
    }

    #[test]
    fn staleness_criterion() {
        let nl = NeighborList::empty(params(1.0, 0.2));
        assert!(!nl.is_stale(0.05));
        assert!(nl.is_stale(0.15));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        // On one cell and on a grid, below the front door's fan-out
        // threshold and on it, fanned out or not: same
        // groups in the same order, so downstream consumers (dataset
        // cache keys, kernels) cannot observe the host thread count.
        let door = PAR_BUILD_MIN_CENTERS;
        for (n, seed, cutoff) in [(125usize, 21u64, 0.55), (700, 22, 0.55), (door, 23, 0.5)] {
            let sys = small_box(n, seed);
            let params = params(cutoff, 0.05);
            let serial = NeighborList::build_on(&sys, params, false);
            for width in [1, 2, 3, 8] {
                let fanned = on_width(width, || NeighborList::build_on(&sys, params, true));
                assert_eq!(serial, fanned, "n={n} width={width}");
                let front = on_width(width, || NeighborList::build(&sys, params));
                assert_eq!(front, serial, "n={n} width={width} front door");
            }
        }
    }

    #[test]
    fn groups_are_in_canonical_order() {
        let sys = small_box(216, 16);
        let nl = NeighborList::build(&sys, params(0.6, 0.0));
        let keys: Vec<(u32, u8)> = nl.groups().map(|(c, s, _)| (c, s)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (c, _, neighbors) in nl.groups() {
            assert!(!neighbors.is_empty() && neighbors[0] > c);
            assert!(neighbors.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn lattice_step_is_round_on_wrapped_quotients() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut quotients = vec![0.0, 0.49999999999999994, 0.5, 1.0, 1.4999];
        quotients.extend([0.5f64.next_up(), 0.5f64.next_down()]);
        quotients.extend((0..10_000).map(|_| rng.gen::<f64>() * 3.0 - 1.5));
        for q in quotients.iter().flat_map(|&q| [q, -q]) {
            // Side 1: the quotient is the displacement itself.
            let (image, step) = nearest_image(q, 1.0);
            assert_eq!(step, q.round(), "q = {q:e}");
            assert_eq!(image, q - q.round(), "q = {q:e}");
        }
    }

    /// 96 points in a box `cells` list radii wide (or a fraction more),
    /// a quarter of the coordinates on cell faces, a quarter on box faces
    /// (unwrapped: `side`, `-0.0`), the rest uniform.
    fn faced_box(cells: usize, skin: f64, seed: u64) -> (WaterBox, NeighborListParams) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let model = crate::water::WaterModel::lj_atom();
        let mut sys = WaterBox::builder().molecules(96).model(model).build();
        let side = sys.pbc().side();
        let radius = side / (cells as f64 + [0.0, 0.37, 0.999][rng.gen::<u32>() as usize % 3]);
        // Half the side is the largest radius; a hair above it (inside
        // the check's tolerance) is the one way to a 1-cell quotient.
        let radius = if cells == 1 {
            side / 2.0 + 4e-13
        } else {
            radius
        };
        let face = side / (side / radius).floor().max(1.0);
        let mut coord = || match rng.gen::<u32>() % 4 {
            0 => (rng.gen::<u32>() % 6) as f64 * face,
            1 => [0.0, side, -0.0, side.next_down()][rng.gen::<u32>() as usize % 4],
            _ => rng.gen::<f64>() * side,
        };
        for p in sys.positions_mut() {
            *p = Vec3::new(coord(), coord(), coord());
        }
        (sys, params(radius - skin, skin))
    }

    proptest! {
        #[test]
        fn prop_one_pass_list_is_the_old_builders_and_the_oracles(
            seed in 0u64..10_000,
            cells in 1usize..6,
            skinned in 0usize..2,
        ) {
            let (sys, params) = faced_box(cells, [0.0, 0.1][skinned], seed);
            let oracle = NeighborList::build_brute_force(&sys, params);
            prop_assert_eq!(&build_reference(&sys, params), &oracle);
            for width in [1, 2, 8] {
                let list = on_width(width, || NeighborList::build_on(&sys, params, true));
                prop_assert!(list == oracle, "width {}", width);
            }
            prop_assert!(oracle.num_pairs() > 0);
        }
    }
}

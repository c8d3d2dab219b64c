//! Cell (link-cell) spatial decomposition for O(n) neighbour searching.
//!
//! GROMACS builds its neighbour lists with a grid search; we do the same.
//! The box is divided into at least `cutoff`-sized cells; candidate pairs
//! are drawn only from the 27-cell neighbourhood. Points are stored
//! cell-sorted as SoA `x / y / z` beside their indices (ascending within
//! a cell), so a search streams contiguous coordinates.

use std::ops::Range;

use crate::pbc::Pbc;
use crate::vec3::Vec3;

/// A cell grid over a cubic periodic box.
#[derive(Debug, Clone)]
pub struct CellGrid {
    /// Cells per axis: 1, or at least 4.
    n: usize,
    /// Slot ranges per cell, CSR-style.
    cell_start: Vec<u32>,
    /// Cell of each point.
    cell_of: Vec<u32>,
    /// Point indices by cell, ascending within a cell.
    pub(crate) ids: Vec<u32>,
    /// Coordinates of `ids`, slot for slot.
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
}

impl CellGrid {
    /// Bin `points` (wrapped into the box) into cells no smaller than
    /// `min_cell`. A box of at most 3 such cells per axis is kept as one
    /// cell: its 27-cell neighbourhood would be the whole box, repeated
    /// where the grid wraps onto itself.
    pub fn build(pbc: Pbc, points: &[Vec3], min_cell: f64) -> Self {
        assert!(min_cell > 0.0);
        let fit = (pbc.side() / min_cell).floor() as usize;
        let n = if fit <= 3 { 1 } else { fit };
        let cell_side = pbc.side() / n as f64;
        let axis = |c: f64| ((c / cell_side) as usize).min(n - 1);
        let cell_of: Vec<u32> = points
            .iter()
            .map(|p| ((axis(p.z) * n + axis(p.y)) * n + axis(p.x)) as u32)
            .collect();

        // Counting sort into CSR layout; stable, so ids ascend per cell.
        let mut cell_start = vec![0u32; n * n * n + 1];
        for &c in &cell_of {
            cell_start[c as usize + 1] += 1;
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }
        let mut cursor = cell_start.clone();
        let mut ids = vec![0u32; points.len()];
        for (i, &c) in cell_of.iter().enumerate() {
            ids[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        let sorted =
            |axis: fn(&Vec3) -> f64| ids.iter().map(|&i| axis(&points[i as usize])).collect();
        Self {
            n,
            cell_start,
            x: sorted(|p| p.x),
            y: sorted(|p| p.y),
            z: sorted(|p| p.z),
            cell_of,
            ids,
        }
    }

    /// Slots (indices into `ids` / `x` / `y` / `z`) of cell `c`.
    pub fn cell(&self, c: usize) -> Range<usize> {
        self.cell_start[c] as usize..self.cell_start[c + 1] as usize
    }

    /// The distinct cells of the 27-cell neighbourhood of the cell
    /// holding `point` (its own included): every point within one cell
    /// side of it, under any periodic image, is in one of them.
    pub fn neighbourhood(&self, point: usize) -> impl Iterator<Item = usize> {
        let n = self.n;
        let c = self.cell_of[point] as usize;
        let at = [c % n, c / n % n, c / (n * n)];
        // One cell is its own neighbourhood; four or more per axis make
        // the three wrapped offsets distinct.
        let reach = if n == 1 { 1 } else { 3 };
        let step = move |axis: usize, d: usize| (at[axis] + n + d - reach / 2) % n;
        (0..reach * reach * reach).map(move |k| {
            (step(2, k / (reach * reach)) * n + step(1, k / reach % reach)) * n + step(0, k % reach)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Points visited from `point`'s neighbourhood, counted.
    fn visits(grid: &CellGrid, point: usize) -> Vec<usize> {
        let mut count = vec![0usize; grid.ids.len()];
        for c in grid.neighbourhood(point) {
            for slot in grid.cell(c) {
                count[grid.ids[slot] as usize] += 1;
            }
        }
        count
    }

    #[test]
    fn all_points_binned_once_sorted_with_their_coordinates() {
        let pbc = Pbc::cubic(4.5);
        let pts: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new(i as f64 * 0.059, i as f64 * 0.113, i as f64 * 0.211))
            .map(|p| pbc.wrap(p))
            .collect();
        let grid = CellGrid::build(pbc, &pts, 1.0);
        assert_eq!(grid.n, 4);
        let mut seen = [false; 50];
        for c in 0..64 {
            let slots = grid.cell(c);
            assert!(grid.ids[slots.clone()].windows(2).all(|w| w[0] < w[1]));
            for slot in slots {
                let i = grid.ids[slot] as usize;
                assert!(!std::mem::replace(&mut seen[i], true));
                assert_eq!(Vec3::new(grid.x[slot], grid.y[slot], grid.z[slot]), pts[i]);
                assert!(grid.neighbourhood(i).any(|n| n == c));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn up_to_three_cells_per_axis_are_one_cell() {
        for (side, min_cell) in [(1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (3.9, 1.0)] {
            let pbc = Pbc::cubic(side);
            let pts: Vec<Vec3> = (0..20)
                .map(|i| pbc.wrap(Vec3::splat(i as f64 * 0.1)))
                .collect();
            let grid = CellGrid::build(pbc, &pts, min_cell);
            assert_eq!(grid.n, 1);
            assert_eq!(grid.ids, (0..20).collect::<Vec<u32>>());
            assert_eq!(visits(&grid, 0), vec![1; 20], "side {side}");
        }
    }

    proptest! {
        #[test]
        fn prop_neighbourhood_completeness(seed in 0u64..500, side in 2.5f64..6.0) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let pbc = Pbc::cubic(side);
            let pts: Vec<Vec3> = (0..40)
                .map(|_| Vec3::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                .collect();
            let cutoff = 0.8;
            let grid = CellGrid::build(pbc, &pts, cutoff);
            for (i, &p) in pts.iter().enumerate() {
                let count = visits(&grid, i);
                prop_assert!(count.iter().all(|&c| c <= 1), "duplicate visits: {:?}", count);
                for (j, &q) in pts.iter().enumerate() {
                    if pbc.min_image(p, q).norm() <= cutoff {
                        prop_assert_eq!(count[j], 1);
                    }
                }
            }
        }
    }
}

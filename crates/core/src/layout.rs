//! Stream layout: turning the GROMACS neighbour list into the index and
//! data streams each StreamMD variant feeds the hardware.
//!
//! This is the "scalar code" half of the paper's Section 3: the neighbour
//! list is produced on the scalar core every few time-steps and passed to
//! the stream program through memory. The four variants differ only in
//! how the list is laid out:
//!
//! * `expanded` — one entry per interaction, centres repeated per pair;
//! * `fixed`/`duplicated` — fixed-L blocks with centre replication and
//!   dummy-neighbour padding (Figure 6 of the paper);
//! * `variable` — per-centre runs with a new-centre flag stream and a
//!   conditional centre-record stream.
//!
//! Every builder reads the list's `(centre, shift, neighbours)` groups
//! straight off its CSR, in canonical order, and writes strips by slice
//! copies into [`IndexStream`]s that the stream program's gathers and
//! scatter-adds then share: no pair or block array in between.
//!
//! Dummy molecules are placed ~10¹² nm away so their force contribution
//! underflows to a physically negligible value while exercising exactly
//! the same arithmetic (the paper's dummies likewise "do not contribute
//! to the solution but consume resources").

use md_sim::neighbor::NeighborList;
use md_sim::pbc::Pbc;
use md_sim::system::WaterBox;
use merrimac_sim::IndexStream;

use crate::variant::{DatasetStats, Variant};
use crate::workload::Workload;

/// Distance scale of dummy molecules (nm).
const DUMMY_FAR: f64 = 2.0e12;

/// One strip of work (the unit of strip-mining, Section 3.2). A stream
/// used twice (gathered centres are scattered to) is one allocation.
#[derive(Debug, Clone, Default)]
pub struct Strip {
    /// Kernel loop iterations in this strip.
    pub iterations: u64,
    /// Iterations of the busiest cluster under the round-robin
    /// distribution.
    pub max_cluster_iterations: u64,
    /// Real (non-dummy, non-duplicate-discounted) interactions.
    pub real_interactions: u64,
    /// Gather indices into the position region for centre molecules
    /// (one per iteration for `expanded`, one per block for fixed-L).
    pub i_central: IndexStream,
    /// Gather indices into the 27-entry shift table, parallel to
    /// `i_central`.
    pub i_shift: IndexStream,
    /// Gather indices for neighbour positions (padded for blocks).
    pub i_neighbor: IndexStream,
    /// Scatter-add record indices for centre forces.
    pub c_scatter: IndexStream,
    /// Scatter-add record indices for neighbour partial forces (empty
    /// for `duplicated`).
    pub n_scatter: IndexStream,
    /// `variable` only: one flag word per iteration (1.0 = new centre).
    pub flags: Vec<f64>,
    /// `variable` only: 2·width-word centre records (positions + shift,
    /// 18 words for water, 6 for atomic workloads), including the
    /// trailing sentinel.
    pub center_records: Vec<f64>,
}

/// Complete layout for one variant over one system + neighbour list.
#[derive(Debug, Clone)]
pub struct Layout {
    pub variant: Variant,
    /// Interaction model the records describe (derived from the system's
    /// particle model).
    pub workload: Workload,
    /// Words per molecule record (9 for 3-site water, 3 for atomic).
    pub width: usize,
    /// Canonical molecule position records: `molecules + 2` records of
    /// `width` words (two dummies at the end: neighbour dummy, centre
    /// dummy).
    pub positions: Vec<f64>,
    /// 27 shift records of `width` words (the shift vector replicated
    /// per site).
    pub shift_table: Vec<f64>,
    /// Force region record count (`molecules + 2`).
    pub force_records: usize,
    /// Index of the dummy record used for neighbour padding.
    pub dummy_neighbor: u32,
    /// Index of the dummy record absorbing sentinel/flush writes.
    pub dummy_center: u32,
    pub strips: Vec<Strip>,
    pub stats: DatasetStats,
    /// Fixed-L block length used (for block variants).
    pub block_l: usize,
}

/// Canonical position records: each molecule reconstructed rigidly about
/// its wrapped first site, exactly as the reference force engines do.
/// Records are `num_sites · 3` words wide (9 for water, 3 for atomic).
pub fn canonical_positions(system: &WaterBox) -> Vec<f64> {
    let pbc = system.pbc();
    let n = system.num_molecules();
    let ns = system.num_sites();
    let w = ns * 3;
    let mut out = Vec::with_capacity((n + 2) * w);
    for m in 0..n {
        let mol = system.molecule(m);
        let o = pbc.wrap(mol[0]);
        out.extend_from_slice(&[o.x, o.y, o.z]);
        for s in mol.iter().skip(1) {
            let p = o + pbc.min_image(*s, mol[0]);
            out.extend_from_slice(&[p.x, p.y, p.z]);
        }
    }
    // Dummy neighbour at −FAR, dummy centre at +FAR: mutual distance and
    // distance to every real molecule are enormous.
    for k in 0..w {
        out.push(if k % 3 == 0 { -DUMMY_FAR } else { 0.0 });
    }
    for k in 0..w {
        out.push(if k % 3 == 0 { DUMMY_FAR } else { 0.0 });
    }
    out
}

/// The 27-record shift table (record = shift vector replicated once per
/// site).
pub fn shift_table(pbc: Pbc, sites: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(27 * sites * 3);
    for idx in 0..Pbc::NUM_SHIFTS {
        let v = pbc.shift_vector(idx);
        for _ in 0..sites {
            out.extend_from_slice(&[v.x, v.y, v.z]);
        }
    }
    out
}

/// GROMACS shift-index inversion: negating the shift vector mirrors the
/// index about the centre of the 3×3×3 cube.
fn invert_shift(idx: u8) -> u8 {
    (26 - idx as usize) as u8
}

/// Build the layout for `variant`.
pub fn build_layout(
    system: &WaterBox,
    list: &NeighborList,
    variant: Variant,
    block_l: usize,
    strip_iterations: usize,
) -> Layout {
    assert!(block_l >= 1 && strip_iterations >= 1);
    let n = system.num_molecules();
    let dummy_neighbor = n as u32;
    let dummy_center = n as u32 + 1;
    let positions = canonical_positions(system);
    let table = shift_table(system.pbc(), system.num_sites());
    let workload = Workload::of_model(system.model());

    // Fixed-layout statistics are reported for every variant (Table 2).
    let blocks = |(_, _, group): (u32, u8, &[u32])| group.len().div_ceil(block_l);
    let blocks_half: usize = list.groups().map(blocks).sum();
    let mut layout = Layout {
        variant,
        workload,
        width: system.num_sites() * 3,
        positions,
        shift_table: table,
        force_records: n + 2,
        dummy_neighbor,
        dummy_center,
        strips: Vec::new(),
        stats: DatasetStats {
            molecules: n,
            interactions: list.num_pairs(),
            repeated_molecules_fixed: blocks_half,
            total_neighbors_fixed: blocks_half * block_l,
        },
        block_l,
    };

    match variant {
        Variant::Expanded => build_blocks(&mut layout, list.groups(), strip_iterations, 1, true),
        Variant::Fixed => build_blocks(&mut layout, list.groups(), strip_iterations, block_l, true),
        Variant::Duplicated => {
            let (starts, neighbors) = full_list(list, n);
            let filled = (0..).zip(starts.windows(2)).filter(|(_, w)| w[0] < w[1]);
            let groups = filled.map(|(key, w): (usize, _)| {
                let (c, shift) = (key / Pbc::NUM_SHIFTS, key % Pbc::NUM_SHIFTS);
                let group = &neighbors[w[0] as usize..w[1] as usize];
                (c as u32, shift as u8, group)
            });
            build_blocks(&mut layout, groups, strip_iterations, block_l, false)
        }
        Variant::Variable => build_variable(&mut layout, list, strip_iterations, system),
    }
    layout
}

/// The full list as a CSR over `(centre, shift)` keys (`centre · 27 +
/// shift`): every pair appears under both molecules, with the shift
/// inverted for the reversed direction. A stable counting sort of the
/// half list's canonical order, so each group ascends.
fn full_list(list: &NeighborList, n: usize) -> (Vec<u32>, Vec<u32>) {
    let key = |c: u32, shift: u8| c as usize * Pbc::NUM_SHIFTS + shift as usize;
    let mut starts = vec![0u32; n * Pbc::NUM_SHIFTS + 1];
    for (c, shift, neighbors) in list.groups() {
        starts[key(c, shift) + 1] += neighbors.len() as u32;
        for &j in neighbors {
            starts[key(j, invert_shift(shift)) + 1] += 1;
        }
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    let mut cursor = starts.clone();
    let mut out = vec![0u32; 2 * list.num_pairs()];
    let mut put = |k: usize, m: u32| {
        out[cursor[k] as usize] = m;
        cursor[k] += 1;
    };
    for (c, shift, neighbors) in list.groups() {
        for &j in neighbors {
            put(key(c, shift), j);
            put(key(j, invert_shift(shift)), c);
        }
    }
    (starts, out)
}

/// Strips of `strip_iterations` blocks, a block being one centre under
/// one shift with `l` of its neighbours, the last block of a group
/// padded with the dummy. A group goes in by slice copies, as many whole
/// blocks at a time as the strip has room for. `expanded` is the `l = 1`
/// case: a block per pair and nothing to pad.
fn build_blocks<'a>(
    layout: &mut Layout,
    groups: impl Iterator<Item = (u32, u8, &'a [u32])>,
    strip_iterations: usize,
    l: usize,
    neighbor_partials: bool,
) {
    let dummy = layout.dummy_neighbor;
    // The open strip's centres, shifts and neighbours, at full size.
    let fresh =
        || [1, 1, l].map(|per_block| Vec::<u32>::with_capacity(strip_iterations * per_block));
    let mut open = fresh();
    let mut cut = |[centres, shifts, neighbours]: [Vec<u32>; 3]| {
        let (i_central, i_neighbor) = (IndexStream::from(centres), IndexStream::from(neighbours));
        let partials = if neighbor_partials {
            i_neighbor.clone()
        } else {
            IndexStream::default()
        };
        layout.strips.push(Strip {
            iterations: i_central.len() as u64,
            max_cluster_iterations: (i_central.len() as u64).div_ceil(16),
            real_interactions: i_neighbor.iter().filter(|&&j| j != dummy).count() as u64,
            c_scatter: i_central.clone(),
            n_scatter: partials,
            i_central,
            i_shift: shifts.into(),
            i_neighbor,
            ..Default::default()
        });
    };
    for (c, shift, mut group) in groups {
        while !group.is_empty() {
            let [centres, shifts, neighbours] = &mut open;
            let room = strip_iterations - centres.len();
            let blocks = group.len().div_ceil(l).min(room);
            let (now, rest) = group.split_at(group.len().min(blocks * l));
            centres.resize(centres.len() + blocks, c);
            shifts.resize(centres.len(), shift as u32);
            neighbours.extend_from_slice(now);
            neighbours.resize(centres.len() * l, dummy);
            group = rest;
            if centres.len() == strip_iterations {
                cut(std::mem::replace(&mut open, fresh()));
            }
        }
    }
    if !open[0].is_empty() {
        cut(open);
    }
    // For `duplicated` every real pair appears twice; the halving is done
    // globally in `Layout::total_real_interactions` so per-strip odd
    // counts do not lose remainders.
}

fn build_variable(
    layout: &mut Layout,
    list: &NeighborList,
    strip_iterations: usize,
    system: &WaterBox,
) {
    let pbc = system.pbc();
    let w = layout.width;
    let sites = w / 3;
    let dummy_n = layout.dummy_neighbor;
    let dummy_c = layout.dummy_center;
    // Partition centre lists into strips of roughly `strip_iterations`
    // interactions.
    let mut groups = list.groups().peekable();
    while groups.peek().is_some() {
        let mut s = Strip::default();
        // Leading flush lands in the dummy-centre force slot.
        let mut c_scatter = vec![dummy_c];
        let mut i_neighbor: Vec<u32> = Vec::new();
        let mut run_lengths: Vec<u64> = Vec::new();
        while let Some((c, shift, neighbors)) = groups
            .next_if(|g| i_neighbor.is_empty() || i_neighbor.len() + g.2.len() <= strip_iterations)
        {
            // Centre record: canonical positions + replicated shift.
            let base = c as usize * w;
            s.center_records
                .extend_from_slice(&layout.positions[base..base + w]);
            let v = pbc.shift_vector(shift as usize);
            for _ in 0..sites {
                s.center_records.extend_from_slice(&[v.x, v.y, v.z]);
            }
            s.flags.push(1.0);
            i_neighbor.extend_from_slice(neighbors);
            s.flags.resize(i_neighbor.len(), 0.0);
            c_scatter.push(c);
            run_lengths.push(neighbors.len() as u64);
        }
        s.real_interactions = i_neighbor.len() as u64;
        // Sentinel: flush the last centre, consume the dummy centre
        // record, interact with the dummy neighbour.
        s.flags.push(1.0);
        i_neighbor.push(dummy_n);
        let base = dummy_c as usize * w;
        s.center_records
            .extend_from_slice(&layout.positions[base..base + w]);
        s.center_records.extend(std::iter::repeat_n(0.0, w));

        s.iterations = i_neighbor.len() as u64;
        s.i_neighbor = i_neighbor.into();
        s.n_scatter = s.i_neighbor.clone();
        s.c_scatter = c_scatter.into();
        // Conditional streams let every cluster pull whole centre runs at
        // its own rate; the scalar code orders the runs longest-first, so
        // the distribution behaves like LPT scheduling onto 16 machines.
        // Simulate that assignment to bound the busiest cluster (plus the
        // sentinel-like fill iteration).
        run_lengths.sort_unstable_by(|a, b| b.cmp(a));
        let mut load = [0u64; 16];
        for r in run_lengths {
            let min = load.iter_mut().min().expect("16 clusters");
            *min += r;
        }
        s.max_cluster_iterations = load.iter().copied().max().unwrap_or(0) + 1;
        layout.strips.push(s);
    }
}

impl Layout {
    /// Total kernel iterations across strips.
    pub fn total_iterations(&self) -> u64 {
        self.strips.iter().map(|s| s.iterations).sum()
    }

    /// Total real interactions (each physical pair counted once; the
    /// `duplicated` variant's two evaluations per pair are discounted).
    pub fn total_real_interactions(&self) -> u64 {
        let sum: u64 = self.strips.iter().map(|s| s.real_interactions).sum();
        if self.variant == Variant::Duplicated {
            sum / 2
        } else {
            sum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::neighbor::NeighborListParams;

    fn setup(n: usize) -> (WaterBox, NeighborList) {
        let s = WaterBox::builder().molecules(n).seed(77).build();
        let params = NeighborListParams {
            cutoff: (0.45 * s.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&s, params);
        (s, nl)
    }

    #[test]
    fn expanded_counts() {
        let (s, nl) = setup(64);
        let lay = build_layout(&s, &nl, Variant::Expanded, 8, 500);
        assert_eq!(lay.total_iterations() as usize, nl.num_pairs());
        assert_eq!(lay.total_real_interactions() as usize, nl.num_pairs());
        for strip in &lay.strips {
            assert_eq!(strip.i_central.len(), strip.iterations as usize);
            assert_eq!(strip.i_neighbor.len(), strip.iterations as usize);
        }
    }

    #[test]
    fn fixed_blocks_are_padded() {
        let (s, nl) = setup(64);
        let lay = build_layout(&s, &nl, Variant::Fixed, 8, 100);
        let blocks: u64 = lay.strips.iter().map(|s| s.iterations).sum();
        assert_eq!(blocks as usize, lay.stats.repeated_molecules_fixed);
        for strip in &lay.strips {
            assert_eq!(strip.i_neighbor.len(), strip.iterations as usize * 8);
        }
        assert_eq!(lay.total_real_interactions() as usize, nl.num_pairs());
        // Padding exists.
        let dummies: usize = lay
            .strips
            .iter()
            .flat_map(|s| s.i_neighbor.iter())
            .filter(|&&j| j == lay.dummy_neighbor)
            .count();
        assert_eq!(dummies, lay.stats.total_neighbors_fixed - nl.num_pairs(),);
    }

    #[test]
    fn duplicated_visits_each_pair_twice() {
        let (s, nl) = setup(64);
        let lay = build_layout(&s, &nl, Variant::Duplicated, 8, 100);
        let real_neighbor_slots: usize = lay
            .strips
            .iter()
            .flat_map(|s| s.i_neighbor.iter())
            .filter(|&&j| j != lay.dummy_neighbor)
            .count();
        assert_eq!(real_neighbor_slots, 2 * nl.num_pairs());
        assert_eq!(lay.total_real_interactions() as usize, nl.num_pairs());
        // No neighbour scatter.
        assert!(lay.strips.iter().all(|s| s.n_scatter.is_empty()));
    }

    #[test]
    fn blocks_read_back_as_the_lists_groups() {
        // Strips that cut groups mid-way, `expanded` as blocks of one:
        // unpadded, the blocks of a (centre, shift) in order are its
        // group, and the index streams used twice are held once.
        let (s, nl) = setup(64);
        for (variant, l, strip) in [
            (Variant::Expanded, 1, 37),
            (Variant::Fixed, 8, 5),
            (Variant::Fixed, 3, 7),
        ] {
            let lay = build_layout(&s, &nl, variant, l, strip);
            let mut groups: Vec<(u32, u8, Vec<u32>)> = Vec::new();
            for strip in &lay.strips {
                assert_eq!(strip.i_neighbor.len(), strip.i_central.len() * l);
                assert_eq!(strip.i_central.as_ptr(), strip.c_scatter.as_ptr());
                assert_eq!(strip.i_neighbor.as_ptr(), strip.n_scatter.as_ptr());
                let blocks = strip.i_central.iter().zip(strip.i_shift.iter());
                for ((&c, &shift), block) in blocks.zip(strip.i_neighbor.chunks(l)) {
                    let real = block.iter().take_while(|&&j| j != lay.dummy_neighbor);
                    assert!(block[real.clone().count()..]
                        .iter()
                        .all(|&j| j == lay.dummy_neighbor));
                    match groups.last_mut() {
                        Some((gc, gs, members)) if (*gc, *gs as u32) == (c, shift) => {
                            assert_eq!(members.len() % l, 0, "only a last block is padded");
                            members.extend(real);
                        }
                        _ => groups.push((c, shift as u8, real.copied().collect())),
                    }
                }
            }
            let want: Vec<_> = nl.groups().map(|(c, s, n)| (c, s, n.to_vec())).collect();
            assert_eq!(groups, want, "{variant} l={l}");
        }
    }

    #[test]
    fn variable_flags_and_sentinels() {
        let (s, nl) = setup(64);
        let lay = build_layout(&s, &nl, Variant::Variable, 8, 300);
        for strip in &lay.strips {
            assert_eq!(strip.flags.len(), strip.iterations as usize);
            // Flag count = centre lists + sentinel = c_scatter entries.
            let flags: usize = strip.flags.iter().filter(|&&f| f != 0.0).count();
            assert_eq!(flags, strip.c_scatter.len() - 1 + 1);
            assert_eq!(strip.center_records.len() % 18, 0);
            assert_eq!(strip.center_records.len() / 18, flags);
            // First flag always fires.
            assert_eq!(strip.flags[0], 1.0);
        }
        // All real interactions covered (sentinels excluded).
        assert_eq!(lay.total_real_interactions() as usize, nl.num_pairs());
    }

    #[test]
    fn invert_shift_round_trips() {
        for i in 0..27u8 {
            assert_eq!(invert_shift(invert_shift(i)), i);
        }
        assert_eq!(invert_shift(13), 13); // central shift is its own inverse
    }

    #[test]
    fn canonical_positions_have_dummies() {
        let (s, _) = setup(27);
        let p = canonical_positions(&s);
        assert_eq!(p.len(), (27 + 2) * 9);
        assert_eq!(p[27 * 9], -DUMMY_FAR);
        assert_eq!(p[28 * 9], DUMMY_FAR);
    }

    #[test]
    fn shift_table_matches_pbc() {
        let pbc = Pbc::cubic(3.0);
        let t = shift_table(pbc, 3);
        assert_eq!(t.len(), 27 * 9);
        // Central shift record is all zeros.
        assert!(t[13 * 9..14 * 9].iter().all(|&x| x == 0.0));
        // Atomic table: same shifts, one replica per record.
        let ta = shift_table(pbc, 1);
        assert_eq!(ta.len(), 27 * 3);
        for idx in 0..27 {
            assert_eq!(ta[idx * 3..idx * 3 + 3], t[idx * 9..idx * 9 + 3]);
        }
    }

    #[test]
    fn atomic_layouts_use_3_word_records() {
        use md_sim::water::WaterModel;
        let s = WaterBox::builder()
            .molecules(64)
            .model(WaterModel::lj_atom())
            .density(21.0)
            .seed(78)
            .build();
        let params = NeighborListParams {
            cutoff: (0.45 * s.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&s, params);
        for v in Variant::ALL {
            let lay = build_layout(&s, &nl, v, 8, 100);
            assert_eq!(lay.width, 3);
            assert_eq!(lay.workload, Workload::LjFluid);
            assert_eq!(lay.positions.len(), (64 + 2) * 3);
            assert_eq!(lay.shift_table.len(), 27 * 3);
            assert_eq!(lay.total_real_interactions() as usize, nl.num_pairs());
            if v == Variant::Variable {
                for strip in &lay.strips {
                    // 6-word centre records: 3 position + 3 shift.
                    assert_eq!(strip.center_records.len() % 6, 0);
                }
            }
        }
        // Dummies follow the width-3 pattern.
        let p = canonical_positions(&s);
        assert_eq!(p[64 * 3], -2.0e12);
        assert_eq!(p[65 * 3], 2.0e12);
    }

    #[test]
    fn strips_respect_size_target() {
        let (s, nl) = setup(125);
        let lay = build_layout(&s, &nl, Variant::Expanded, 8, 64);
        for strip in &lay.strips {
            assert!(strip.iterations <= 64);
        }
        assert!(lay.strips.len() > 1);
    }
}

//! Differential cases for the batch plan's pre-resolved conditional pops
//! and latch registers, beside `tape_equivalence.rs`: kernels whose pop
//! predicates come from an every-iteration stream (the shape of the
//! `variable` StreamMD kernels), held at 1, 8 and 16 lanes — the batched
//! widths both as the host runs them (built for AVX2 where the host has
//! it) and as built portably — to the interpreter on outputs, records
//! consumed, final registers and error values — bit for bit, NaN and
//! −0.0 included.

use merrimac_kernel::builder::Val;
use merrimac_kernel::interp::{InterpError, InterpOutput, Interpreter, StreamData, StreamView};
use merrimac_kernel::ir::{Kernel, StreamMode};
use merrimac_kernel::unroll::unroll;
use merrimac_kernel::{BatchWidth, CompiledTape, KernelBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ---- comparison ----------------------------------------------------------

type Launch = Result<InterpOutput, InterpError>;

/// `Ok` results compared by bit pattern (NaN payloads and the sign of
/// zero count), errors by value.
fn assert_same(got: &Launch, want: &Launch, ctx: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.outputs.len(), w.outputs.len(), "{ctx}: output count");
            for (i, (g, w)) in g.outputs.iter().zip(&w.outputs).enumerate() {
                assert_eq!(g.record_len, w.record_len, "{ctx}: output {i} record_len");
                assert_eq!(bits(&g.data), bits(&w.data), "{ctx}: output {i}");
            }
            assert_eq!(g.records_consumed, w.records_consumed, "{ctx}: consumed");
            assert_eq!(g.iterations, w.iterations, "{ctx}: iterations");
            assert_eq!(bits(&g.final_regs), bits(&w.final_regs), "{ctx}: registers");
        }
        _ => assert_eq!(got, want, "{ctx}: error values"),
    }
}

/// The batch engine at `width` as the host runs it and as built
/// portably.
fn batched(tape: &CompiledTape, inputs: &[StreamData], n: usize, width: BatchWidth) -> [Launch; 2] {
    let views: Vec<StreamView> = inputs.iter().map(StreamData::view).collect();
    [
        tape.run_views(&views, &[], n, width),
        tape.run_portable(&views, &[], n, width),
    ]
}

/// The interpreter against the batch engine at 1, 8 and 16 lanes.
fn assert_engines_agree(k: &Kernel, inputs: &[StreamData], params: &[f64], iterations: usize) {
    let tape = CompiledTape::compile(k);
    assert_eq!(tape.audit_batch_plan(), vec![], "kernel '{}'", k.name);
    let want = Interpreter::new(k).run(inputs, params, iterations);
    let name = &k.name;
    assert_same(
        &tape.run(inputs, params, iterations),
        &want,
        &format!("{name} at 1 lane, {iterations} iterations"),
    );
    let views: Vec<StreamView> = inputs.iter().map(StreamData::view).collect();
    for width in [BatchWidth::W8, BatchWidth::W16] {
        assert_same(
            &tape.run_views(&views, params, iterations, width),
            &want,
            &format!("{name} at {width} lanes, {iterations} iterations"),
        );
        assert_same(
            &tape.run_portable(&views, params, iterations, width),
            &want,
            &format!("{name} at {width} lanes built portably, {iterations} iterations"),
        );
    }
}

fn stage_size(k: &Kernel, stage: &str) -> usize {
    let sizes = CompiledTape::compile(k).batch_stage_sizes();
    sizes.iter().find(|s| s.0 == stage).expect("a stage").1
}

/// Whether `k`'s batch plan is staged rather than serial.
fn staged(k: &Kernel) -> bool {
    CompiledTape::compile(k).batch_stage_sizes()[0].0 != "serial"
}

/// `case` on the `cases` seeds `proptest!` draws for `test`, each
/// returning the plan kind it drew (`true` for staged): a run must draw
/// both kinds.
fn draws_both_kinds(test: &str, cases: u32, case: fn(u64) -> bool) {
    let mut rng = proptest::TestRng::for_test(&format!("{}::{test}", module_path!()));
    let mut kinds = [0u32; 2];
    for _ in 0..cases {
        kinds[usize::from(case((0u64..1_000_000).sample(&mut rng)))] += 1;
    }
    let [serial, staged] = kinds;
    assert!(
        serial > 0 && staged > 0,
        "{test}: {serial} serial and {staged} staged plans"
    );
}

// ---- generated kernels ---------------------------------------------------

/// What the generator may make lane-coupled on purpose.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Every predicate and fallback comes from every-iteration streams,
    /// constants and params: every conditional stream resolves.
    Resolvable,
    /// One read of the first conditional stream takes a register read
    /// as its predicate or fallback: the plan must be serial.
    OneCoupledSlot,
}

/// A random kernel in the shape of the `variable` StreamMD kernels:
/// stream-sourced predicates pop conditional streams, the popped (or
/// plainly read) values are latched in `Sel(p, x, ReadReg(r))` registers
/// and summed in accumulators that a predicate resets, and an arithmetic
/// soup over all of it is written out, conditionally and not. Returns
/// the kernel and whether its plan must be staged: every register a
/// latch or a sum, every stream resolved.
fn latch_kernel(rng: &mut ChaCha8Rng, arm: Arm) -> (Kernel, bool) {
    let mut b = KernelBuilder::new("latches");
    let data_len = rng.gen_range(1u32..4);
    let flag_len = rng.gen_range(1u32..3);
    let s_data = b.input("data", data_len, StreamMode::EveryIteration);
    let s_flag = b.input("flags", flag_len, StreamMode::EveryIteration);
    let conds: Vec<(u32, u32)> = (0..rng.gen_range(1usize..3))
        .map(|i| {
            let len = rng.gen_range(1u32..4);
            (b.input(&format!("c{i}"), len, StreamMode::Conditional), len)
        })
        .collect();
    let o_all = b.output("all", 2);
    let o_some = b.output("some", 1);

    // Lane-independent values: what predicates and fallbacks draw from.
    let mut free: Vec<Val> = vec![b.constant(0.0), b.constant(rng.gen_range(-2.0..2.0))];
    if rng.gen_range(0u32..2) == 0 {
        free.push(b.param());
    }
    for f in 0..data_len {
        free.push(b.read(s_data, f));
    }
    let mut preds = Vec::new();
    for f in 0..flag_len {
        let flag = b.read(s_flag, f);
        let zero = free[0];
        let live = b.cmp_lt(zero, flag);
        preds.extend([live, b.not(live), flag]);
    }
    let pick = |rng: &mut ChaCha8Rng, from: &[Val]| from[rng.gen_range(0..from.len())];

    let coupled_reg = b.reg(rng.gen_range(-1.0..1.0));
    let coupled = b.read_reg(coupled_reg);
    let mut popped = Vec::new();
    for (i, &(stream, len)) in conds.iter().enumerate() {
        for j in 0..rng.gen_range(1usize..4) {
            let (mut pred, mut fallback) = (pick(rng, &preds), pick(rng, &free));
            if arm == Arm::OneCoupledSlot && (i, j) == (0, 0) {
                if rng.gen_range(0u32..2) == 0 {
                    pred = coupled;
                } else {
                    fallback = coupled;
                }
            }
            popped.push(b.cond_read(stream, rng.gen_range(0..len), pred, fallback));
        }
    }
    // A register that flips is neither latch nor sum; without the flip
    // it is held, and its read is a constant.
    let flips = arm == Arm::OneCoupledSlot || rng.gen_range(0u32..2) == 0;
    if flips {
        let flip = b.not(coupled);
        b.set_reg(coupled_reg, flip);
    }
    let mut staged = !flips;

    // Latches: a popped value or (no pop behind it) a plain stream value.
    // A fresh value that reads an earlier latch is no latch.
    let mut soup: Vec<Val> = free.iter().chain(&popped).copied().collect();
    let resolved = soup.len();
    for _ in 0..rng.gen_range(1usize..4) {
        let r = b.reg(rng.gen_range(-3.0..3.0));
        let prev = b.read_reg(r);
        let fresh = if rng.gen_range(0u32..3) == 0 {
            pick(rng, &free)
        } else {
            let (x, y) = (pick(rng, &popped), rng.gen_range(0..soup.len()));
            staged &= y < resolved;
            b.add(x, soup[y])
        };
        let pred = pick(rng, &preds);
        let held = b.sel(pred, fresh, prev);
        b.set_reg(r, held);
        soup.extend([prev, held]);
    }
    for _ in 0..rng.gen_range(3usize..10) {
        let (x, y, z) = (pick(rng, &soup), pick(rng, &soup), pick(rng, &soup));
        let v = match rng.gen_range(0u32..6) {
            0 => b.add(x, y),
            1 => b.mul(x, y),
            2 => b.madd(x, y, z),
            3 => b.sub(x, y),
            4 => b.sel(x, y, z),
            _ => b.div(x, y),
        };
        soup.push(v);
    }
    // Accumulators a predicate flushes and resets; one that adds an
    // earlier one's sum is no sum.
    let summable = soup.len();
    for _ in 0..rng.gen_range(1usize..3) {
        let r = b.reg(0.0);
        let acc = b.read_reg(r);
        let reset = pick(rng, &preds);
        b.write_if(o_some, reset, &[acc]);
        let zero = free[0];
        let kept = b.sel(reset, zero, acc);
        let term = rng.gen_range(0..soup.len());
        staged &= term < summable;
        let sum = b.add(soup[term], kept);
        b.set_reg(r, sum);
        soup.push(sum);
    }
    let (x, y) = (pick(rng, &soup), pick(rng, &soup));
    b.write(o_all, &[x, y]);
    (b.build(), staged)
}

/// A value that is sometimes one of the awkward ones: a predicate of
/// −0.0 is dead and one of NaN is live, and both must survive a latch
/// and a pop bit for bit. The NaN is the one this machine's arithmetic
/// produces, so every NaN a generated kernel sees has the same bits:
/// which payload an op on two *different* NaNs keeps is the compiler's
/// choice of operand order, outside any engine's contract (the directed
/// case below carries a payload through moves alone).
fn payload(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0u32..12) {
        0 | 1 => std::hint::black_box(0.0f64) / std::hint::black_box(0.0),
        2 => -0.0,
        3 => 0.0,
        _ => rng.gen_range(-4.0..4.0),
    }
}

/// Inputs for `iterations` iterations of `k`; conditional streams get
/// `share` of their worst case, so below 1.0 they may run dry.
fn inputs_for(
    k: &Kernel,
    rng: &mut ChaCha8Rng,
    iterations: usize,
    share: f64,
) -> (Vec<StreamData>, Vec<f64>) {
    let tape = CompiledTape::compile(k);
    let inputs = k
        .inputs
        .iter()
        .enumerate()
        .map(|(s, sig)| {
            let records = match sig.mode {
                StreamMode::EveryIteration => iterations,
                StreamMode::Conditional => {
                    (share * (iterations * tape.max_pops_per_iter(s)) as f64) as usize
                }
            };
            let len = sig.record_len as usize;
            StreamData::new(len, (0..records * len).map(|_| payload(rng)).collect())
        })
        .collect();
    let params = (0..k.num_params)
        .map(|_| rng.gen_range(-2.0..2.0))
        .collect();
    (inputs, params)
}

/// One generated kernel unrolled `factor` times, against the
/// interpreter; returns whether its plan is staged. An unrolled latch or
/// sum is a chain of updates, neither shape, so only `factor` 1 stages.
fn generated_case(seed: u64, arm: Arm, factor: u32) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (base, intended) = latch_kernel(&mut rng, arm);
    let k = unroll(&base, factor);
    let intended = intended && factor == 1;
    assert_eq!(staged(&k), intended, "seed {seed}: the plan kind");
    for share in [1.0, 0.6, 0.2] {
        for iterations in [rng.gen_range(1usize..8), rng.gen_range(8usize..40)] {
            let (inputs, params) = inputs_for(&k, &mut rng, iterations, share);
            assert_engines_agree(&k, &inputs, &params, iterations);
        }
    }
    intended
}

/// A random kernel of running sums in all four shapes — `Add(x, r)`,
/// `Add(r, x)`, `Add(x, Sel(p, k, r))`, `Add(Sel(p, k, r), x)` — with
/// `k` a non-zero constant or a stream value and `x` drawn from stream
/// values, popped values and arithmetic on them. Each register's read
/// is written out, the first one's as `variable` flushes its centre
/// force; now and then a register adds another's read or sum instead,
/// which is no sum and makes the plan serial. Returns the kernel and
/// whether its plan must be staged.
fn sum_kernel(rng: &mut ChaCha8Rng) -> (Kernel, bool) {
    let mut b = KernelBuilder::new("sums");
    let data_len = rng.gen_range(1u32..4);
    let s_data = b.input("data", data_len, StreamMode::EveryIteration);
    let s_flag = b.input("flags", 1, StreamMode::EveryIteration);
    let s_cond = b.input("c", 2, StreamMode::Conditional);
    let regs = rng.gen_range(1usize..5);
    let o_reads = b.output("reads", regs as u32);
    let o_sums = b.output("sums", 1);
    let o_flushed = b.output("flushed", 1);
    let zero = b.constant(0.0);
    let flag = b.read(s_flag, 0);
    let live = b.cmp_lt(zero, flag);
    let preds = [live, b.not(live), flag];
    let pick = |rng: &mut ChaCha8Rng, from: &[Val]| from[rng.gen_range(0..from.len())];
    let mut free: Vec<Val> = (0..data_len).map(|f| b.read(s_data, f)).collect();
    let popped = b.cond_read(s_cond, 0, live, free[0]);
    free.extend([popped, b.cond_read(s_cond, 1, live, zero)]);
    for _ in 0..rng.gen_range(0usize..4) {
        let (x, y) = (pick(rng, &free), pick(rng, &free));
        let v = match rng.gen_range(0u32..3) {
            0 => b.add(x, y),
            1 => b.mul(x, y),
            _ => b.sub(x, y),
        };
        free.push(v);
    }
    let (mut reads, mut sums, mut scanned) = (Vec::new(), Vec::new(), 0);
    for _ in 0..regs {
        let r = b.reg(rng.gen_range(-2.0..2.0));
        let read = b.read_reg(r);
        let coupled = !reads.is_empty() && rng.gen_range(0u32..4) == 0;
        let x = if coupled {
            pick(rng, &[reads.as_slice(), sums.as_slice()].concat())
        } else {
            scanned += 1;
            pick(rng, &free)
        };
        let base = if rng.gen_range(0u32..2) == 0 {
            read
        } else {
            let p = pick(rng, &preds);
            let k = match rng.gen_range(0u32..2) {
                0 => b.constant(rng.gen_range(0.5..3.0)),
                _ => pick(rng, &free),
            };
            b.sel(p, k, read)
        };
        let sum = match rng.gen_range(0u32..2) {
            0 => b.add(x, base),
            _ => b.add(base, x),
        };
        b.set_reg(r, sum);
        reads.push(read);
        sums.push(sum);
    }
    b.write(o_reads, &reads);
    let flush = pick(rng, &preds);
    b.write_if(o_flushed, flush, &reads[..1]);
    let last = pick(rng, &sums);
    b.write(o_sums, &[last]);
    (b.build(), scanned == regs)
}

/// [`payload`], and also ±∞, whose sum is the machine's NaN again. A
/// second NaN pattern would make the engines' agreement the compiler's
/// choice (see [`payload`]): IEEE addition is commutative but for which
/// of two NaN payloads it keeps.
fn sum_payload(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0u32..14) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        _ => payload(rng),
    }
}

fn sum_case(seed: u64) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (k, intended) = sum_kernel(&mut rng);
    assert_eq!(staged(&k), intended, "seed {seed}: the plan kind");
    for iterations in [rng.gen_range(1usize..8), rng.gen_range(8usize..40)] {
        let tape = CompiledTape::compile(&k);
        let inputs: Vec<StreamData> = k
            .inputs
            .iter()
            .enumerate()
            .map(|(s, sig)| {
                let records = iterations * tape.max_pops_per_iter(s);
                let len = sig.record_len as usize;
                let words = (0..records * len).map(|_| sum_payload(&mut rng));
                StreamData::new(len, words.collect())
            })
            .collect();
        assert_engines_agree(&k, &inputs, &[], iterations);
    }
    intended
}

/// Running sums of every shape, reset or not, against the interpreter:
/// NaN, ±∞ and −0.0 in the addends, so a dropped or misplaced reset
/// changes bits.
#[test]
fn running_sums_match_the_interpreter() {
    draws_both_kinds("running_sums_match_the_interpreter", 48, sum_case);
}

/// Stream-sourced predicates feeding pops, latches and accumulators.
#[test]
fn resolvable_pops_and_latches_match_the_interpreter() {
    draws_both_kinds(
        "resolvable_pops_and_latches_match_the_interpreter",
        48,
        |seed| generated_case(seed, Arm::Resolvable, 1),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One data-dependent slot makes the whole plan serial.
    #[test]
    fn a_coupled_slot_keeps_its_stream_sequential(seed in 0u64..1_000_000) {
        assert!(!generated_case(seed, Arm::OneCoupledSlot, 1));
    }

    /// Unrolled ×2 / ×3: several slots pop one stream in slot order.
    #[test]
    fn unrolled_copies_pop_in_slot_order(seed in 0u64..1_000_000, factor in 2u32..4) {
        generated_case(seed, Arm::Resolvable, factor);
        generated_case(seed, Arm::OneCoupledSlot, factor);
    }
}

// ---- directed cases ------------------------------------------------------

/// The `variable` shape in miniature: a flag pops a two-word centre
/// record, the centre is latched, the force on it accumulates until the
/// next flag flushes it.
fn centre_kernel() -> Kernel {
    let mut b = KernelBuilder::new("centres");
    let s_x = b.input("x", 1, StreamMode::EveryIteration);
    let s_flag = b.input("flag", 1, StreamMode::EveryIteration);
    let s_centre = b.input("centres", 2, StreamMode::Conditional);
    let o_flushed = b.output("flushed", 1);
    let o_pair = b.output("pair", 1);
    let zero = b.constant(0.0);
    let flag = b.read(s_flag, 0);
    let is_new = b.cmp_lt(zero, flag);
    let acc_reg = b.reg(0.0);
    let acc = b.read_reg(acc_reg);
    b.write_if(o_flushed, is_new, &[acc]);
    let centre_reg = b.reg(0.25);
    let prev = b.read_reg(centre_reg);
    let pos = b.cond_read(s_centre, 0, is_new, zero);
    let shift = b.cond_read(s_centre, 1, is_new, zero);
    let fresh = b.add(pos, shift);
    let centre = b.sel(is_new, fresh, prev);
    b.set_reg(centre_reg, centre);
    let x = b.read(s_x, 0);
    let d = b.sub(x, centre);
    let f = b.mul(d, d);
    let kept = b.sel(is_new, zero, acc);
    let sum = b.add(f, kept);
    b.set_reg(acc_reg, sum);
    b.write(o_pair, &[f]);
    b.build()
}

/// `n` iterations with a new centre every `every`-th and `centres`
/// centre records.
fn centre_inputs(n: usize, every: usize, centres: usize) -> Vec<StreamData> {
    let flag = |i: usize| if i.is_multiple_of(every) { 1.0 } else { 0.0 };
    vec![
        StreamData::new(1, (0..n).map(|i| 0.5 * i as f64).collect()),
        StreamData::new(1, (0..n).map(flag).collect()),
        StreamData::new(2, (0..2 * centres).map(|i| 1.0 + i as f64).collect()),
    ]
}

#[test]
fn the_variable_shape_leaves_seq_the_accumulator_alone() {
    let k = centre_kernel();
    // The pops resolve, the centre is latched and the accumulator's
    // reset and add are one sum scan: the plan is staged.
    assert_eq!(stage_size(&k, "latches"), 1);
    assert_eq!(stage_size(&k, "sums"), 1);
    for (n, every) in [(1, 1), (8, 1), (9, 2), (40, 5), (100, 7)] {
        assert_engines_agree(&k, &centre_inputs(n, every, n.div_ceil(every)), &[], n);
    }
    // Unrolled, each copy's flag is its own pop slot on the one stream,
    // and the registers are chains of updates: the plan is serial.
    for factor in [2usize, 3] {
        let u = unroll(&k, factor as u32);
        assert!(!staged(&u));
        let mut inputs = centre_inputs(24 * factor, 3, 8 * factor);
        for wide in &mut inputs[..2] {
            wide.record_len = factor;
        }
        assert_engines_agree(&u, &inputs, &[], 24);
        // One centre record short: the last copy to pop runs dry.
        inputs[2].data.truncate(2 * (8 * factor - 1));
        assert_engines_agree(&u, &inputs, &[], 24);
    }
}

/// [`centre_kernel`] unrolled `factor` times over `n` iterations, with
/// a new centre exactly where `pops` says — `(iteration, copy)` pairs —
/// and `records` centre records.
fn scan_inputs(
    factor: usize,
    n: usize,
    pops: &[(usize, usize)],
    records: usize,
) -> Vec<StreamData> {
    let mut inputs = centre_inputs(n * factor, 1, records);
    inputs[1].data.fill(0.0);
    for &(i, copy) in pops {
        inputs[1].data[i * factor + copy] = 1.0;
    }
    for wide in &mut inputs[..2] {
        wide.record_len = factor;
    }
    inputs
}

#[test]
fn the_pop_scan_gathers_the_lanes_that_pop_and_only_those() {
    for factor in [1usize, 2, 3] {
        let k = unroll(&centre_kernel(), factor as u32);
        let last = factor - 1;
        // No lane pops in a batch; only lane 0 at either width; only the
        // last lane at 8 lanes, then at 16; one lane in the remainder.
        for pops in [
            vec![],
            vec![(0, 0), (8, last), (16, 0), (32, last)],
            vec![(7, 0), (23, last), (39, 0)],
            vec![(15, last), (31, 0)],
            vec![(40, last)],
        ] {
            let inputs = scan_inputs(factor, 41, &pops, pops.len());
            assert_engines_agree(&k, &inputs, &[], 41);
            let out = CompiledTape::compile(&k).run_batched(&inputs, &[], 41, BatchWidth::W8);
            assert_eq!(out.expect("runs").records_consumed[2], pops.len());
        }
    }
}

#[test]
fn the_leading_scan_blames_a_dry_pop_at_the_first_and_last_lane() {
    for factor in [2usize, 3] {
        let k = unroll(&centre_kernel(), factor as u32);
        let last = factor - 1;
        // Live pops follow each dry one, in the same batch, so a scan
        // that ran on past the dry read would blame a later lane.
        for (pops, records, iteration) in [
            // Lane 0 of a batch at 8 lanes, its first slot dry.
            (vec![(0, 0), (8, 0), (8, last), (11, 0), (15, last)], 1, 8),
            // Lane 0 again, its first slot popped and its last dry.
            (vec![(8, 0), (8, last), (9, 0), (14, last)], 1, 8),
            // Lane 0 of the second batch at 16 lanes.
            (vec![(0, last), (16, 0), (17, 0), (31, last)], 1, 16),
            // The last lane at 8 lanes, then at 16.
            (vec![(7, 0), (7, last), (9, 0)], 1, 7),
            (vec![(3, 0), (15, 0), (15, last), (20, 0)], 2, 15),
        ] {
            let inputs = scan_inputs(factor, 32, &pops, records);
            assert_engines_agree(&k, &inputs, &[], 32);
            for width in [BatchWidth::W8, BatchWidth::W16] {
                assert_eq!(
                    CompiledTape::compile(&k).run_batched(&inputs, &[], 32, width),
                    Err(InterpError::StreamUnderrun {
                        stream: 2,
                        iteration
                    }),
                    "x{factor} at {width} lanes, pops {pops:?}"
                );
            }
        }
    }
}

/// A launch's last batch is masked: at every remainder of 16 its stream
/// reads, pop scan, latch and sum fills, writes and cursors stop at the
/// last live lane, which a dry pop there is blamed on.
#[test]
fn a_masked_last_batch_matches_the_interpreter_at_every_remainder() {
    let k = centre_kernel();
    let tape = CompiledTape::compile(&k);
    for n in 32..48 {
        assert_engines_agree(&k, &centre_inputs(n, 3, n.div_ceil(3)), &[], n);
        let inputs = scan_inputs(1, n, &[(0, 0), (n - 2, 0), (n - 1, 0)], 2);
        assert_engines_agree(&k, &inputs, &[], n);
        for width in [BatchWidth::W8, BatchWidth::W16] {
            for got in batched(&tape, &inputs, n, width) {
                let want = Err(InterpError::StreamUnderrun {
                    stream: 2,
                    iteration: n - 1,
                });
                assert_eq!(got, want, "{n} iterations at {width} lanes");
            }
        }
    }
}

#[test]
fn a_resolvable_stream_runs_dry_where_the_interpreter_says() {
    let k = centre_kernel();
    let blamed = |inputs: &[StreamData], n: usize| {
        assert_engines_agree(&k, inputs, &[], n);
        match CompiledTape::compile(&k).run_batched(inputs, &[], n, BatchWidth::W8) {
            Err(InterpError::StreamUnderrun { stream, iteration }) => (stream, iteration),
            other => panic!("expected an underrun, got {other:?}"),
        }
    };
    // Mid-batch: a centre every 2nd iteration, 5 records, so the pop of
    // iteration 10 — lane 2 of the second batch of 8 — finds none.
    assert_eq!(blamed(&centre_inputs(24, 2, 5), 24), (2, 10));
    // In the remainder: 19 iterations, the 10th centre is due at 18.
    assert_eq!(blamed(&centre_inputs(19, 2, 9), 19), (2, 18));
    // In the iteration an every-iteration stream runs dry in, that
    // stream is blamed: it is checked before any pop of the iteration.
    let mut inputs = centre_inputs(24, 2, 5);
    inputs[0].data.truncate(10);
    assert_eq!(blamed(&inputs, 24), (0, 10));
    // One iteration later, the conditional stream's pop came first.
    let mut inputs = centre_inputs(24, 2, 5);
    inputs[0].data.truncate(11);
    assert_eq!(blamed(&inputs, 24), (2, 10));
}

/// A resolvable stream beside one whose fallback is a register read:
/// the plan is serial, and the stream blamed is the one the interpreter
/// finds dry first, whichever it is and in whichever lane.
#[test]
fn blame_keeps_interpreter_order_across_the_scan_and_seq() {
    for scanned_first in [true, false] {
        let mut b = KernelBuilder::new("two_streams");
        let s_flag = b.input("flag", 1, StreamMode::EveryIteration);
        let s_scan = b.input("scanned", 1, StreamMode::Conditional);
        let s_seq = b.input("sequential", 1, StreamMode::Conditional);
        let o = b.output("sum", 1);
        let zero = b.constant(0.0);
        let flag = b.read(s_flag, 0);
        let live = b.cmp_lt(zero, flag);
        let r = b.reg(0.0);
        let prev = b.read_reg(r);
        let (x, y);
        if scanned_first {
            x = b.cond_read(s_scan, 0, live, zero);
            y = b.cond_read(s_seq, 0, live, prev);
        } else {
            y = b.cond_read(s_seq, 0, live, prev);
            x = b.cond_read(s_scan, 0, live, zero);
        }
        let sum = b.add(x, y);
        b.set_reg(r, sum);
        b.write(o, &[sum]);
        let k = b.build();
        assert!(!staged(&k));
        let stream = |n: usize| StreamData::new(1, (0..n).map(|i| 1.0 + i as f64).collect());
        let (scan, seq) = (1usize, 2usize);
        let first = if scanned_first { scan } else { seq };
        for (n_scan, n_seq, blamed) in [
            (10, 10, (first, 10)),
            (10, 9, (seq, 9)),
            (9, 10, (scan, 9)),
            (13, 3, (seq, 3)),
            (3, 13, (scan, 3)),
        ] {
            let inputs = [stream(24), stream(n_scan), stream(n_seq)];
            assert_engines_agree(&k, &inputs, &[], 24);
            let (stream, iteration) = blamed;
            assert_eq!(
                CompiledTape::compile(&k).run_batched(&inputs, &[], 24, BatchWidth::W8),
                Err(InterpError::StreamUnderrun { stream, iteration }),
                "scanned first: {scanned_first}, {n_scan} and {n_seq} records"
            );
        }
    }
}

#[test]
fn a_latch_needs_no_pop_behind_it() {
    // Sample-and-hold on an every-iteration stream: no conditional
    // stream at all, and the plan is staged.
    let mut b = KernelBuilder::new("hold");
    let s = b.input("xt", 2, StreamMode::EveryIteration);
    let o = b.output("held", 2);
    let x = b.read(s, 0);
    let take = b.read(s, 1);
    let r = b.reg(-1.5);
    let prev = b.read_reg(r);
    let held = b.sel(take, x, prev);
    b.set_reg(r, held);
    let twice = b.add(held, prev);
    b.write(o, &[held, twice]);
    let k = b.build();
    assert_eq!(stage_size(&k, "latches"), 1);
    assert!(staged(&k));
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for n in [0usize, 1, 8, 9, 16, 17, 50] {
        let data = (0..2 * n).map(|_| payload(&mut rng)).collect();
        assert_engines_agree(&k, &[StreamData::new(2, data)], &[], n);
    }
}

#[test]
fn a_register_no_update_changes_is_a_constant() {
    // One register is never updated and one stores its own read back,
    // holding a NaN payload and −0.0: the plan stages, and both reach
    // the outputs, a latch, a sum and the final registers bit for bit.
    let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
    let mut b = KernelBuilder::new("held");
    let s = b.input("xt", 2, StreamMode::EveryIteration);
    let o = b.output("out", 4);
    let x = b.read(s, 0);
    let take = b.read(s, 1);
    let never = b.reg(quiet);
    let nan = b.read_reg(never);
    let same = b.reg(-0.0);
    let zero = b.read_reg(same);
    b.set_reg(same, zero);
    let latch = b.reg(1.5);
    let prev = b.read_reg(latch);
    let held = b.sel(take, nan, prev);
    b.set_reg(latch, held);
    let acc = b.reg(-0.0);
    let total = b.read_reg(acc);
    let signed = b.mul(zero, x);
    let sum = b.add(signed, total);
    b.set_reg(acc, sum);
    b.write(o, &[nan, zero, held, sum]);
    let k = b.build();
    assert!(staged(&k));
    assert_eq!((stage_size(&k, "latches"), stage_size(&k, "sums")), (1, 1));
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for n in [0usize, 1, 8, 9, 16, 17, 50] {
        let data: Vec<f64> = (0..2 * n).map(|_| payload(&mut rng)).collect();
        let inputs = [StreamData::new(2, data)];
        assert_engines_agree(&k, &inputs, &[], n);
        let out = CompiledTape::compile(&k).run_batched(&inputs, &[], n, BatchWidth::W16);
        let regs = out.expect("runs").final_regs;
        assert_eq!(regs[0].to_bits(), quiet.to_bits(), "{n} iterations");
        assert_eq!(regs[1].to_bits(), (-0.0f64).to_bits(), "{n} iterations");
    }
}

#[test]
fn nan_and_negative_zero_pass_through_a_latch_bit_for_bit() {
    let k = centre_kernel();
    let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
    let mut inputs = centre_inputs(20, 4, 5);
    // Centre records whose sum is −0.0 and a NaN with a payload; a flag
    // of −0.0 (dead: 0 < −0.0 is false) and of NaN (dead: 0 < NaN is
    // false) where a centre was due.
    inputs[2].data[..6].copy_from_slice(&[-0.0, -0.0, quiet, 0.0, -0.0, -0.0]);
    inputs[1].data[12] = -0.0;
    inputs[1].data[16] = f64::NAN;
    assert_engines_agree(&k, &inputs, &[], 20);
    let out = CompiledTape::compile(&k)
        .run_batched(&inputs, &[], 20, BatchWidth::W8)
        .expect("runs");
    assert_eq!(out.records_consumed[2], 3);
    assert!(out.final_regs[1].is_sign_negative() && out.final_regs[1] == 0.0);
}

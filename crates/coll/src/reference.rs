//! Sequential scalar references for every collective.
//!
//! Floating-point addition is not associative, so a reduction's result
//! depends on the order contributions are combined. The references here
//! apply the *same* combine order as the corresponding schedule — ring
//! accumulation starting at each segment's origin rank, binomial-tree
//! merging by level — as plain scalar loops, so the simulated collectives
//! must match them **bit for bit**, not just within a tolerance. The
//! device kernel computes `data += arrived`, i.e. `acc' = local + acc`,
//! and every loop below does the same.

use crate::plan::{even_split, reduce_scatter_owner, Algorithm};

/// SplitMix64 step (golden-ratio increment, then [`gaat_sim::mix64`]) —
/// deterministic value generator for test payloads.
pub fn mix64(x: u64) -> u64 {
    gaat_sim::mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic input payload: element `i` of rank `r`'s contribution.
/// Random mantissa bits in `[1, 2)` make combine-order bugs visible as
/// bit differences.
pub fn input_value(rank: usize, i: usize) -> f64 {
    let h = mix64(((rank as u64) << 40) ^ i as u64);
    1.0 + (h & 0xf_ffff) as f64 / 1_048_576.0
}

/// The initial per-rank buffers for a uniform collective of `count`
/// elements per rank.
pub fn initial_inputs(ranks: usize, count: usize) -> Vec<Vec<f64>> {
    (0..ranks)
        .map(|r| (0..count).map(|i| input_value(r, i)).collect())
        .collect()
}

/// Reduce one segment in ring order: the accumulator starts as rank
/// `origin`'s values and each subsequent ring hop applies
/// `acc' = local + acc`.
// `local + acc` (not `acc += local`) spells out the combine order the
// device kernel uses; keep the shape even though f64 `+` commutes.
#[allow(clippy::assign_op_pattern)]
fn ring_seg_reduce(inputs: &[Vec<f64>], origin: usize, offset: usize, len: usize) -> Vec<f64> {
    let p = inputs.len();
    let mut acc = inputs[origin][offset..offset + len].to_vec();
    for k in 1..p {
        let r = (origin + k) % p;
        for (i, a) in acc.iter_mut().enumerate() {
            *a = inputs[r][offset + i] + *a;
        }
    }
    acc
}

/// Allreduce: the result every rank ends with.
///
/// `lanes` must be the plan's lane count ([`crate::plan::ring_lanes`] /
/// [`crate::plan::tree_lanes`]) — for the ring schedule it determines
/// the segment geometry and therefore each element's combine order.
pub fn allreduce(
    alg: Algorithm,
    ranks: usize,
    count: usize,
    lanes: usize,
    inputs: &[Vec<f64>],
) -> Vec<f64> {
    assert_eq!(inputs.len(), ranks);
    match alg {
        Algorithm::Ring => {
            if ranks == 1 {
                return inputs[0].clone();
            }
            let mut out = vec![0.0; count];
            for l in 0..lanes {
                let (lo, llen) = even_split(count, lanes, l);
                for j in 0..ranks {
                    let (o, len) = even_split(llen, ranks, j);
                    out[lo + o..lo + o + len].copy_from_slice(&ring_seg_reduce(
                        inputs,
                        j,
                        lo + o,
                        len,
                    ));
                }
            }
            out
        }
        Algorithm::Tree => {
            // Binomial merge by level; lane slicing is elementwise-
            // invariant so `lanes` does not affect the result.
            let mut acc: Vec<Vec<f64>> = inputs.to_vec();
            let mut d = 0;
            while (1usize << d) < ranks {
                let stride = 1usize << (d + 1);
                let mut r = 0;
                while r < ranks {
                    let child = r + (1 << d);
                    if child < ranks {
                        let (left, right) = acc.split_at_mut(child);
                        let (a, c) = (&mut left[r], &right[0]);
                        for i in 0..count {
                            a[i] += c[i];
                        }
                    }
                    r += stride;
                }
                d += 1;
            }
            acc.swap_remove(0)
        }
    }
}

/// Reduce-scatter: the `(absolute offset, values)` pairs rank `r` owns
/// afterwards, one per lane (segment `reduce_scatter_owner(r)` of each
/// lane). The rest of the data buffer holds partial sums and is
/// unspecified.
pub fn reduce_scatter(
    ranks: usize,
    count: usize,
    lanes: usize,
    inputs: &[Vec<f64>],
    r: usize,
) -> Vec<(usize, Vec<f64>)> {
    assert_eq!(inputs.len(), ranks);
    let j = reduce_scatter_owner(r, ranks);
    (0..lanes)
        .map(|l| {
            let (lo, llen) = even_split(count, lanes, l);
            let (o, len) = even_split(llen, ranks, j);
            if ranks == 1 {
                (lo + o, inputs[0][lo + o..lo + o + len].to_vec())
            } else {
                (lo + o, ring_seg_reduce(inputs, j, lo + o, len))
            }
        })
        .collect()
}

/// Allgather: the full buffer every rank ends with. Rank `j`
/// contributes segment `j` of every lane.
pub fn allgather(ranks: usize, count: usize, lanes: usize, inputs: &[Vec<f64>]) -> Vec<f64> {
    assert_eq!(inputs.len(), ranks);
    let mut out = vec![0.0; count];
    for l in 0..lanes {
        let (lo, llen) = even_split(count, lanes, l);
        #[allow(clippy::needless_range_loop)]
        for j in 0..ranks {
            let (o, len) = even_split(llen, ranks, j);
            out[lo + o..lo + o + len].copy_from_slice(&inputs[j][lo + o..lo + o + len]);
        }
    }
    out
}

/// Broadcast from rank 0: everybody ends with rank 0's buffer.
pub fn broadcast(inputs: &[Vec<f64>]) -> Vec<f64> {
    inputs[0].clone()
}

/// Uniform alltoall with `block` elements per destination: rank `r`'s
/// output, whose block `q` is block `r` of rank `q`'s input.
pub fn alltoall(ranks: usize, block: usize, inputs: &[Vec<f64>], r: usize) -> Vec<f64> {
    assert_eq!(inputs.len(), ranks);
    let mut out = Vec::with_capacity(ranks * block);
    for input in inputs {
        out.extend_from_slice(&input[r * block..(r + 1) * block]);
    }
    out
}

/// Variable alltoall: rank `r`'s output under `counts[s][d]` elements
/// from `s` to `d`, send layout ordered by destination, receive layout
/// ordered by source.
pub fn alltoallv(counts: &[Vec<usize>], inputs: &[Vec<f64>], r: usize) -> Vec<f64> {
    let ranks = counts.len();
    let mut out = Vec::new();
    for q in 0..ranks {
        let off: usize = counts[q][..r].iter().sum();
        out.extend_from_slice(&inputs[q][off..off + counts[q][r]]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_irregular() {
        assert_eq!(input_value(3, 17), input_value(3, 17));
        assert_ne!(input_value(3, 17), input_value(3, 18));
        assert_ne!(input_value(3, 17), input_value(4, 17));
        assert!((1.0..2.0).contains(&input_value(0, 0)));
    }

    #[test]
    fn ring_and_tree_agree_in_value_not_bits() {
        // Same mathematical sum; usually different bits — that's the
        // point of order-aware references.
        let inputs = initial_inputs(5, 16);
        let ring = allreduce(Algorithm::Ring, 5, 16, 1, &inputs);
        let tree = allreduce(Algorithm::Tree, 5, 16, 1, &inputs);
        for i in 0..16 {
            assert!((ring[i] - tree[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn allreduce_of_one_rank_is_identity() {
        let inputs = initial_inputs(1, 8);
        assert_eq!(allreduce(Algorithm::Ring, 1, 8, 1, &inputs), inputs[0]);
        assert_eq!(allreduce(Algorithm::Tree, 1, 8, 1, &inputs), inputs[0]);
    }

    #[test]
    fn reduce_scatter_matches_allreduce_segments() {
        let (ranks, count, lanes) = (4, 24, 2);
        let inputs = initial_inputs(ranks, count);
        let full = allreduce(Algorithm::Ring, ranks, count, lanes, &inputs);
        for r in 0..ranks {
            for (off, vals) in reduce_scatter(ranks, count, lanes, &inputs, r) {
                assert_eq!(&full[off..off + vals.len()], &vals[..]);
            }
        }
    }

    #[test]
    fn alltoall_permutes_blocks() {
        let inputs = initial_inputs(3, 6); // block = 2
        let out = alltoall(3, 2, &inputs, 1);
        assert_eq!(&out[0..2], &inputs[0][2..4]);
        assert_eq!(&out[2..4], &inputs[1][2..4]);
        assert_eq!(&out[4..6], &inputs[2][2..4]);
    }

    #[test]
    fn alltoallv_respects_counts() {
        let counts = vec![vec![1, 2], vec![3, 0]];
        let inputs = vec![vec![10.0, 20.0, 30.0], vec![1.0, 2.0, 3.0]];
        assert_eq!(alltoallv(&counts, &inputs, 0), vec![10.0, 1.0, 2.0, 3.0]);
        assert_eq!(alltoallv(&counts, &inputs, 1), vec![20.0, 30.0]);
    }
}

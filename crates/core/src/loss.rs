//! The margin-based negative-sampling loss (Eq. 17) as a reusable tape
//! fragment.
//!
//! Every model in the comparison — HaLk and the three baselines — optimizes
//! the same loss shape: `−log σ(γ − d(v‖q)) − (1/m) Σ log σ(d(v'‖q) − γ)`,
//! optionally with additive per-example penalties (HaLk's group term).
//! Centralizing it here guarantees the offline-time comparison of Fig. 6b
//! measures operator cost, not loss-plumbing differences.

use crate::exec::TrainShard;
use halk_nn::{Tape, Tensor, Var};

/// Builds one column's additive penalties (`B×1`) from its entity ids.
pub type Penalty<'a> = &'a dyn Fn(&[u32]) -> Tensor;

/// The loss of one training shard: the positive distance column, `m`
/// negative columns and, when `penalty` is given, each column's additive
/// penalty (HaLk's Eq. 17 group term), folded by [`margin_loss`]. Every
/// model's shard forward ends here, so the column loop exists once.
///
/// `distance` appends one column (`B×1`) to the tape for a list of entity
/// ids, one per shard example; `penalty` builds the matching penalty
/// column as a constant.
pub fn shard_loss(
    tape: &mut Tape,
    shard: &TrainShard<'_>,
    gamma: f32,
    mut distance: impl FnMut(&mut Tape, &[u32]) -> Var,
    penalty: Option<Penalty<'_>>,
) -> Var {
    let mut column = |tape: &mut Tape, ids: Vec<u32>| {
        let pen = penalty.map(|p| p(&ids));
        let d = distance(tape, &ids);
        (d, pen.map(|p| tape.input(p)))
    };
    let pos_ids = shard.examples.iter().map(|ex| ex.positive.0).collect();
    let (d_pos, pos_pen) = column(tape, pos_ids);
    let (d_negs, neg_pens): (Vec<Var>, Vec<Option<Var>>) = (0..shard.m)
        .map(|j| {
            let ids = shard.examples.iter().map(|ex| ex.negatives[j].0).collect();
            column(tape, ids)
        })
        .unzip();
    let neg_pens: Option<Vec<Var>> = neg_pens.into_iter().collect();
    margin_loss(tape, d_pos, pos_pen, &d_negs, neg_pens.as_deref(), gamma)
}

/// Builds the scalar loss from a positive distance column (`B×1`), the
/// negative distance columns (`m` of them, each `B×1`), a margin `γ`, and
/// optional additive penalty columns (pass `None` for models without one).
///
/// # Panics
/// If `d_negs` is empty.
pub fn margin_loss(
    tape: &mut Tape,
    d_pos: Var,
    pos_penalty: Option<Var>,
    d_negs: &[Var],
    neg_penalties: Option<&[Var]>,
    gamma: f32,
) -> Var {
    assert!(
        !d_negs.is_empty(),
        "margin loss needs at least one negative"
    );
    if let Some(ps) = neg_penalties {
        assert_eq!(ps.len(), d_negs.len());
    }

    // Positive: −log σ(γ − d − pen).
    let neg_d = tape.neg(d_pos);
    let margin = tape.add_scalar(neg_d, gamma);
    let x_pos = match pos_penalty {
        Some(p) => tape.sub(margin, p),
        None => margin,
    };
    let ls_pos = tape.log_sigmoid(x_pos);
    let mean_pos = tape.mean_all(ls_pos);
    let loss_pos = tape.neg(mean_pos);

    // Negatives: −(1/m) Σ log σ(d + pen − γ).
    let mut acc = None;
    for (j, &d) in d_negs.iter().enumerate() {
        let with_pen = match neg_penalties {
            Some(ps) => tape.add(d, ps[j]),
            None => d,
        };
        let x = tape.add_scalar(with_pen, -gamma);
        let ls = tape.log_sigmoid(x);
        acc = Some(match acc {
            Some(prev) => tape.add(prev, ls),
            None => ls,
        });
    }
    let sum = acc.expect("nonempty");
    let avg = tape.scale(sum, 1.0 / d_negs.len() as f32);
    let mean_neg = tape.mean_all(avg);
    let loss_neg = tape.neg(mean_neg);

    tape.add(loss_pos, loss_neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_small_loss() {
        let mut t = Tape::new();
        let d_pos = t.input(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let d_neg = t.input(Tensor::from_vec(2, 1, vec![20.0, 20.0]));
        let loss = margin_loss(&mut t, d_pos, None, &[d_neg], None, 5.0);
        assert!(t.value(loss).item() < 0.05);
    }

    #[test]
    fn inverted_separation_gives_large_loss() {
        let mut t = Tape::new();
        let d_pos = t.input(Tensor::from_vec(2, 1, vec![20.0, 20.0]));
        let d_neg = t.input(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let loss = margin_loss(&mut t, d_pos, None, &[d_neg], None, 5.0);
        assert!(t.value(loss).item() > 10.0);
    }

    #[test]
    fn penalty_increases_loss() {
        let mut t = Tape::new();
        let d_pos = t.input(Tensor::from_vec(1, 1, vec![2.0]));
        let d_neg = t.input(Tensor::from_vec(1, 1, vec![8.0]));
        let base = margin_loss(&mut t, d_pos, None, &[d_neg], None, 5.0);
        let base_val = t.value(base).item();
        let mut t2 = Tape::new();
        let d_pos = t2.input(Tensor::from_vec(1, 1, vec![2.0]));
        let d_neg = t2.input(Tensor::from_vec(1, 1, vec![8.0]));
        let pen = t2.input(Tensor::from_vec(1, 1, vec![3.0]));
        let with_pen = margin_loss(&mut t2, d_pos, Some(pen), &[d_neg], None, 5.0);
        assert!(t2.value(with_pen).item() > base_val);
    }

    #[test]
    fn negatives_are_averaged() {
        // Two identical negatives must give the same loss as one.
        let mut t = Tape::new();
        let d_pos = t.input(Tensor::from_vec(1, 1, vec![1.0]));
        let n1 = t.input(Tensor::from_vec(1, 1, vec![4.0]));
        let one = margin_loss(&mut t, d_pos, None, &[n1], None, 3.0);
        let one_val = t.value(one).item();
        let mut t2 = Tape::new();
        let d_pos = t2.input(Tensor::from_vec(1, 1, vec![1.0]));
        let n1 = t2.input(Tensor::from_vec(1, 1, vec![4.0]));
        let n2 = t2.input(Tensor::from_vec(1, 1, vec![4.0]));
        let two = margin_loss(&mut t2, d_pos, None, &[n1, n2], None, 3.0);
        assert!((t2.value(two).item() - one_val).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one negative")]
    fn requires_negatives() {
        let mut t = Tape::new();
        let d_pos = t.input(Tensor::scalar(1.0));
        let _ = margin_loss(&mut t, d_pos, None, &[], None, 3.0);
    }
}

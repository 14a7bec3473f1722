//! A forward-only tape computes exactly what a recording tape computes.
//! Dense layers read their weights from the store in place there, yet must
//! give the same bits at every batch size and across tape reuse, and the
//! tape must refuse a backward pass it kept no ops for.

use halk_nn::{Act, Linear, Mlp, ParamStore, Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Overwrites every parameter (biases included, which init leaves at zero)
/// with random values, so the bias add is exercised.
fn randomize(store: &mut ParamStore, rng: &mut StdRng) {
    for i in 0..store.len() {
        let v = store.value_mut(store.param_id(i));
        let fresh = random(v.rows, v.cols, rng);
        *v = fresh;
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|x| x.to_bits()).collect()
}

/// The two layers under test, on one store.
struct Layers {
    store: ParamStore,
    linear: Linear,
    mlp: Mlp,
    tanh_mlp: Mlp,
}

fn layers(seed: u64) -> Layers {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let linear = Linear::new(&mut store, 12, 5, &mut rng);
    let mlp = Mlp::new(&mut store, 12, 16, 5, 2, Act::Relu, &mut rng);
    let tanh_mlp = Mlp::new(&mut store, 5, 8, 3, 1, Act::Tanh, &mut rng);
    randomize(&mut store, &mut rng);
    Layers {
        store,
        linear,
        mlp,
        tanh_mlp,
    }
}

/// Runs `linear(x)`, `mlp(x)` and `tanh_mlp(mlp(x))` on `tape`, returning
/// the bits of all three outputs.
fn forward(l: &Layers, tape: &mut Tape, x: &Tensor) -> [Vec<u32>; 3] {
    let xv = tape.input(x.clone());
    let lin = l.linear.forward(tape, &l.store, xv);
    let m = l.mlp.forward(tape, &l.store, xv);
    let t = l.tanh_mlp.forward(tape, &l.store, m);
    [
        bits(tape.value(lin)),
        bits(tape.value(m)),
        bits(tape.value(t)),
    ]
}

#[test]
fn linear_and_mlp_match_a_recording_tape_bit_for_bit() {
    let l = layers(1);
    let mut rng = StdRng::seed_from_u64(2);
    for b in [1, 3, 16] {
        let x = random(b, 12, &mut rng);
        let recorded = forward(&l, &mut Tape::new(), &x);
        let mut fwd = Tape::forward_only();
        let in_place = forward(&l, &mut fwd, &x);
        assert_eq!(recorded, in_place, "B = {b}");
        assert_eq!(recorded[0].len(), b * 5, "B = {b}");
    }
}

#[test]
fn a_forward_only_tape_keeps_one_node_per_dense_layer() {
    let l = layers(3);
    let x = random(2, 12, &mut StdRng::seed_from_u64(4));
    let (mut rec, mut fwd) = (Tape::new(), Tape::forward_only());
    for tape in [&mut rec, &mut fwd] {
        let xv = tape.input(x.clone());
        l.linear.forward(tape, &l.store, xv);
    }
    // input + param W + param b + matmul + add_row, against input + affine.
    assert_eq!(rec.len(), 5);
    assert_eq!(fwd.len(), 2);
}

#[test]
#[should_panic(expected = "forward-only")]
fn backward_on_a_forward_only_tape_panics() {
    let mut l = layers(5);
    let mut tape = Tape::forward_only();
    let x = tape.input(random(3, 12, &mut StdRng::seed_from_u64(6)));
    let y = l.linear.forward(&mut tape, &l.store, x);
    let loss = tape.sum_all(y);
    tape.backward(loss, &mut l.store);
}

#[test]
fn a_reset_tape_reused_across_shapes_matches_a_fresh_one() {
    let l = layers(7);
    let mut rng = StdRng::seed_from_u64(8);
    // Alternating batch sizes hand every op recycled buffers of the wrong
    // length, left dirty by the previous pass.
    let inputs: Vec<Tensor> = [16, 1, 3, 16, 1, 3]
        .iter()
        .map(|&b| random(b, 12, &mut rng))
        .collect();
    let mut reused = Tape::forward_only();
    for x in &inputs {
        reused.reset();
        let again = forward(&l, &mut reused, x);
        let fresh = forward(&l, &mut Tape::forward_only(), x);
        assert_eq!(again, fresh, "B = {}", x.rows);
        assert_eq!(again, forward(&l, &mut Tape::new(), x), "B = {}", x.rows);
    }
    reused.reset();
    assert!(reused.is_empty() && reused.pooled_buffers() > 0);
}

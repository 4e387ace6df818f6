use super::*;

/// Central finite-difference gradient check: `build` constructs a
/// scalar-rooted graph from parameter leaves; compares analytic and
/// numeric gradients for every parameter scalar.
fn check_gradients(
    params: Vec<(&str, Tensor)>,
    build: impl Fn(&mut Tape, &[NodeId]) -> NodeId,
    tol: f32,
) {
    let mut store = ParamStore::new();
    let ids: Vec<ParamId> = params
        .iter()
        .map(|(n, t)| store.add(n, t.clone()))
        .collect();

    // Analytic gradients.
    let mut tape = Tape::new(&store);
    let leaves: Vec<NodeId> = ids.iter().map(|&i| tape.param(i)).collect();
    let root = build(&mut tape, &leaves);
    let grads = tape.backward(root);

    // Numeric gradients.
    let eps = 1e-3f32;
    for (pi, &pid) in ids.iter().enumerate() {
        let len = store.value(pid).len();
        for k in 0..len {
            let eval = |delta: f32| -> f32 {
                let mut s2 = store.clone();
                s2.value_mut(pid).data[k] += delta;
                let mut t2 = Tape::new(&s2);
                let l2: Vec<NodeId> = ids.iter().map(|&i| t2.param(i)).collect();
                let r2 = build(&mut t2, &l2);
                t2.scalar_value(r2)
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let analytic = grads.by_param[pid].as_ref().map_or(0.0, |g| g.data[k]);
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "param {pi} ({}) elem {k}: numeric {numeric} vs analytic {analytic}",
                params[pi].0,
            );
        }
    }
}

#[test]
fn grad_add_mul_chain() {
    check_gradients(
        vec![
            ("a", Tensor::vector(vec![1.0, -2.0, 0.5])),
            ("b", Tensor::vector(vec![0.3, 0.7, -1.1])),
        ],
        |t, l| {
            let s = t.add(l[0], l[1]);
            let p = t.mul(s, l[0]);
            t.sum(p)
        },
        1e-2,
    );
}

#[test]
fn grad_matmul_bias() {
    check_gradients(
        vec![
            (
                "x",
                Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.4, 0.3], &[2, 3]),
            ),
            (
                "w",
                Tensor::from_vec(vec![0.2, -0.5, 0.7, 0.1, 0.4, -0.3], &[3, 2]),
            ),
            ("b", Tensor::vector(vec![0.05, -0.02])),
        ],
        |t, l| {
            // A zero bias makes the affine op the plain product.
            let zero = t.constant(Tensor::zeros(&[2]));
            let y = t.affine(l[0], l[1], zero);
            let y = t.add_bias(y, l[2]);
            let y = t.tanh(y);
            t.sum(y)
        },
        1e-2,
    );
}

#[test]
fn grad_layer_norm() {
    check_gradients(
        vec![
            (
                "x",
                Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, -0.7, 1.5, 0.4], &[2, 4]),
            ),
            ("g", Tensor::vector(vec![1.0, 0.9, 1.1, 1.2])),
            ("b", Tensor::vector(vec![0.0, 0.1, -0.1, 0.05])),
        ],
        |t, l| {
            let y = t.layer_norm(l[0], l[1], l[2]);
            let sq = t.square(y);
            t.sum(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_cumsum_abs_mean() {
    // The 1-D EMD shape: mean(|cumsum(x - y)|).
    check_gradients(
        vec![
            ("x", Tensor::vector(vec![0.5, 1.5, -0.3, 0.9])),
            ("y", Tensor::vector(vec![0.1, 1.1, 0.4, 0.2])),
        ],
        |t, l| {
            let d = t.sub(l[0], l[1]);
            let c = t.cumsum(d);
            let a = t.abs(c);
            t.mean(a)
        },
        1e-2,
    );
}

#[test]
fn grad_max_select_slice() {
    check_gradients(
        vec![("x", Tensor::vector(vec![0.5, 2.5, -0.3, 0.9, 1.7]))],
        |t, l| {
            let m = t.max_reduce(l[0]); // -> 2.5 at idx 1
            let sel = t.select(l[0], &[0, 3]);
            let sl = t.slice1d(l[0], 2, 2);
            let s1 = t.sum(sel);
            let s2 = t.sum(sl);
            let a = t.add(m, s1);
            t.add(a, s2)
        },
        1e-2,
    );
}

#[test]
fn grad_window_rows() {
    // Three stacked windows of three rows: rows 1.. of each, and rows
    // 1.. of the matrix taken as one window.
    check_gradients(
        vec![(
            "x",
            Tensor::from_vec((0..18).map(|i| (i as f32) * 0.1 - 0.9).collect(), &[9, 2]),
        )],
        |t, l| {
            let tails = t.window_rows(l[0], 3, 1);
            assert_eq!(t.value(tails).shape, vec![6, 2]);
            let rows = t.window_rows(l[0], 1, 1);
            let y = t.tanh(tails);
            let sq = t.square(rows);
            let (s1, s2) = (t.sum(y), t.sum(sq));
            t.add(s1, s2)
        },
        1e-2,
    );
}

#[test]
fn grad_slice_concat_cols() {
    // Two heads over two windows, fewer query rows than context rows:
    // the op slices each head's columns and concatenates the heads'
    // outputs. Row 1 of each window once more: row 0 gets no gradient
    // from here.
    let m = |rows: usize, seed: usize| {
        let data = (0..rows * 4)
            .map(|i| ((i * 7 + seed) % 13) as f32 * 0.12 - 0.7)
            .collect();
        Tensor::from_vec(data, &[rows, 4])
    };
    check_gradients(
        vec![("q", m(4, 1)), ("k", m(6, 2)), ("v", m(6, 3))],
        |t, l| {
            let out = t.attention(l[0], l[1], l[2], 2, 2);
            assert_eq!(t.value(out).shape, vec![4, 4]);
            let y = t.tanh(out);
            let tail = t.window_rows(out, 2, 1);
            assert_eq!(t.value(tail).shape, vec![2, 4]);
            let sq = t.square(tail);
            let (s1, s2) = (t.sum(y), t.sum(sq));
            t.add(s1, s2)
        },
        2e-2,
    );
}

#[test]
fn grad_transpose_and_attention_shape() {
    // Mini attention: softmax(QK^T / sqrt(2)) V, one head, one window.
    check_gradients(
        vec![
            (
                "q",
                Tensor::from_vec(vec![0.1, 0.5, -0.3, 0.7, 0.2, -0.1], &[3, 2]),
            ),
            (
                "k",
                Tensor::from_vec(vec![0.4, -0.2, 0.3, 0.6, -0.5, 0.1], &[3, 2]),
            ),
            (
                "v",
                Tensor::from_vec(vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.8], &[3, 2]),
            ),
        ],
        |t, l| {
            let out = t.attention(l[0], l[1], l[2], 1, 1);
            assert_eq!(t.value(out).shape, vec![3, 2]);
            let sq = t.square(out);
            t.sum(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_matmul_scaled_nt() {
    // One head of width 4: the scores are 0.5·QK^T.
    let m = |seed: usize| {
        let data = (0..12)
            .map(|i| ((i * 5 + seed) % 11) as f32 * 0.15 - 0.75)
            .collect();
        Tensor::from_vec(data, &[3, 4])
    };
    check_gradients(
        vec![("q", m(0)), ("k", m(3)), ("v", m(7))],
        |t, l| {
            let out = t.attention(l[0], l[1], l[2], 1, 1);
            let sq = t.square(out);
            t.sum(sq)
        },
        2e-2,
    );
}

#[test]
fn grad_relu_hinge() {
    check_gradients(
        vec![("x", Tensor::vector(vec![0.5, -1.5, 2.0, 0.1]))],
        |t, l| {
            let shifted = t.scalar_add(l[0], -0.3);
            let h = t.relu(shifted);
            let sc = t.scalar_mul(h, 2.0);
            t.sum(sc)
        },
        1e-2,
    );
}

#[test]
fn grad_affine() {
    check_gradients(
        vec![
            (
                "x",
                Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.4, 0.3], &[2, 3]),
            ),
            (
                "w",
                Tensor::from_vec(vec![0.2, -0.5, 0.7, 0.1, 0.4, -0.3], &[3, 2]),
            ),
            ("b", Tensor::vector(vec![0.05, -0.02])),
        ],
        |t, l| {
            let y = t.affine(l[0], l[1], l[2]);
            let y = t.tanh(y);
            t.sum(y)
        },
        1e-2,
    );
}

#[test]
fn affine_matches_matmul_add_bias_bitwise() {
    let mut store = ParamStore::new();
    let x = store.add(
        "x",
        Tensor::from_vec((0..12).map(|i| i as f32 * 0.37 - 2.0).collect(), &[4, 3]),
    );
    let w = store.add(
        "w",
        Tensor::from_vec((0..6).map(|i| 0.11 * i as f32 - 0.3).collect(), &[3, 2]),
    );
    let b = store.add("b", Tensor::vector(vec![0.25, -0.75]));
    let mut tape = Tape::new(&store);
    let (lx, lw, lb) = (tape.param(x), tape.param(w), tape.param(b));
    let fused = tape.affine(lx, lw, lb);
    let staged = {
        // A zero bias makes the affine op the plain product.
        let zero = tape.constant(Tensor::zeros(&[2]));
        let mm = tape.affine(lx, lw, zero);
        tape.add_bias(mm, lb)
    };
    let (f, s) = (tape.value(fused).clone(), tape.value(staged).clone());
    assert_eq!(f.shape, s.shape);
    for (a, b) in f.data.iter().zip(&s.data) {
        assert_eq!(a.to_bits(), b.to_bits(), "affine {a} vs staged {b}");
    }
}

#[test]
fn tape_arena_recycles_buffers() {
    // Runs on this test's own thread, so the thread-local arena is
    // deterministic. Default mode (Blocked) pools; Reference
    // must not.
    TapeArena::clear();
    let mut store = ParamStore::new();
    let p = store.add("x", Tensor::vector(vec![1.0, 2.0, 3.0]));
    let w = store.add("w", Tensor::from_vec(vec![0.5; 12], &[3, 4]));
    // A forward + backward that mixes pooled buffers of several size
    // classes with buffers the pool never handed out (the `constant`
    // input, the scalars behind `sum` and the root gradient).
    let run = || {
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let y = tape.tanh(x);
        let c = tape.constant(Tensor::from_vec(vec![0.25; 15], &[5, 3]));
        let lw = tape.param(w);
        let zero = tape.constant(Tensor::zeros(&[4]));
        let h = tape.affine(c, lw, zero);
        // Every output row of attention over all-ones values is a
        // softmax row's sum: 1.
        let ones = tape.constant(Tensor::from_vec(vec![1.0; 20], &[5, 4]));
        let att = tape.attention(h, h, ones, 2, 1);
        let s1 = tape.sum(att);
        let s2 = tape.sum(y);
        let s = tape.add(s1, s2);
        let v = tape.scalar_value(s);
        let g = tape.backward(s);
        assert!(g.by_param[p].is_some() && g.by_param[w].is_some());
        v
    };
    let first = run();
    assert!(
        (first - (20.0 + 1f32.tanh() + 2f32.tanh() + 3f32.tanh())).abs() < 1e-4,
        "softmax rows sum to 1 each: {first}"
    );
    let warm = TapeArena::pooled();
    assert!(warm > 0, "dropped tape must repopulate the arena");
    // Identical tapes produce identical values from recycled storage,
    // and the pool holds exactly one tape's buffers however many
    // follow — foreign buffers are not hoarded.
    for _ in 0..6 {
        assert_eq!(run().to_bits(), first.to_bits());
        assert_eq!(TapeArena::pooled(), warm, "arena must not grow");
    }
    // Reference mode leaves the arena untouched in both directions.
    crate::kernel::with_mode(crate::kernel::KernelMode::Reference, || {
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let s = tape.sum(x);
        let _ = tape.backward(s);
    });
    assert_eq!(
        TapeArena::pooled(),
        warm,
        "Reference mode must not touch the arena"
    );
}

#[test]
fn shared_node_gradient_accumulates() {
    // y = x * x built via the same node twice: dy/dx = 2x.
    let mut store = ParamStore::new();
    let p = store.add("x", Tensor::vector(vec![3.0]));
    let mut tape = Tape::new(&store);
    let x = tape.param(p);
    let y = tape.mul(x, x);
    let root = tape.sum(y);
    let grads = tape.backward(root);
    assert_eq!(grads.by_param[p].as_ref().unwrap().data, vec![6.0]);
}

#[test]
fn constants_produce_no_param_grads() {
    let store = ParamStore::new();
    let mut tape = Tape::new(&store);
    let c = tape.constant(Tensor::vector(vec![1.0, 2.0]));
    let s = tape.sum(c);
    let grads = tape.backward(s);
    assert!(grads.by_param.is_empty());
    assert_eq!(tape.scalar_value(s), 3.0);
}

//! Seeded weight initializers (bit-reproducible across runs).

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Xavier/Glorot uniform: `U(−a, a)` with `a = √(6/(fan_in+fan_out))`.
pub fn xavier(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * a)
        .collect();
    Tensor::from_vec(data, &[fan_in, fan_out])
}

/// A seeded RNG for model construction.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_scale_and_shape() {
        let mut rng = seeded(1);
        let w = xavier(&mut rng, 16, 4);
        assert_eq!(w.shape, vec![16, 4]);
        let a = (6.0 / 20.0f32).sqrt();
        assert!(w.data.iter().all(|&x| x.abs() <= a));
        // Not all zeros / not all equal.
        assert!(w.data.iter().any(|&x| x != w.data[0]));
    }

    #[test]
    fn seeded_reproducibility() {
        let mut r1 = seeded(7);
        let mut r2 = seeded(7);
        assert_eq!(xavier(&mut r1, 4, 4).data, xavier(&mut r2, 4, 4).data);
        let mut r3 = seeded(8);
        assert_ne!(xavier(&mut r1, 4, 4).data, xavier(&mut r3, 4, 4).data);
    }
}

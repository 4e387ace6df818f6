//! Flow-size distributions.
//!
//! The paper's ground-truth traffic follows the *websearch* pattern: flow
//! sizes drawn from the heavy-tailed distribution measured in production
//! web-search datacenters (used by DCTCP/pFabric/ABM), with Poisson flow
//! arrivals. We reproduce it as a piecewise-linear inverse CDF over flow
//! size in packets.

use rand::{Rng, RngExt};

/// A piecewise-linear CDF over flow sizes (in packets), sampled by inverse
/// transform.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    /// `(size_in_packets, cumulative_probability)`, strictly increasing in
    /// both coordinates, ending at probability 1.0.
    points: Vec<(f64, f64)>,
    mean: f64,
}

impl FlowSizeDist {
    /// Build from CDF points; validates monotonicity.
    pub fn from_cdf(points: Vec<(f64, f64)>) -> Result<FlowSizeDist, String> {
        if points.len() < 2 {
            return Err("need at least two CDF points".into());
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 || w[1].1 < w[0].1 {
                return Err(format!("CDF not monotone at {:?} -> {:?}", w[0], w[1]));
            }
        }
        let last = points.last().unwrap();
        if (last.1 - 1.0).abs() > 1e-9 {
            return Err("CDF must end at probability 1.0".into());
        }
        let mean = Self::mean_of(&points);
        Ok(FlowSizeDist { points, mean })
    }

    /// The websearch workload CDF (flow sizes in packets of 1500 B),
    /// following the distribution used in the DCTCP/pFabric line of work.
    pub fn websearch() -> FlowSizeDist {
        // (packets, cumulative probability); 1 packet = 1.5 kB.
        FlowSizeDist::from_cdf(vec![
            (1.0, 0.00),
            (4.0, 0.15),
            (9.0, 0.20),
            (13.0, 0.30),
            (22.0, 0.40),
            (35.0, 0.53),
            (89.0, 0.60),
            (445.0, 0.70),
            (889.0, 0.80),
            (2222.0, 0.90),
            (4445.0, 0.97),
            (13334.0, 1.00),
        ])
        .expect("websearch CDF is valid")
    }

    /// Sample a flow size in packets (at least 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.random();
        self.quantile(u)
    }

    /// Inverse CDF at probability `u` (clamped to `[0, 1]`).
    pub fn quantile(&self, u: f64) -> u32 {
        let u = u.clamp(0.0, 1.0);
        for w in self.points.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if u <= p1 {
                let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 0.0 };
                let size = x0 + frac.clamp(0.0, 1.0) * (x1 - x0);
                return size.round().max(1.0) as u32;
            }
        }
        self.points.last().unwrap().0.round() as u32
    }

    /// Mean flow size in packets (by the trapezoid interpretation of the
    /// piecewise-linear CDF).
    pub fn mean_packets(&self) -> f64 {
        self.mean
    }

    fn mean_of(points: &[(f64, f64)]) -> f64 {
        // E[X] for piecewise-linear CDF: sum over segments of
        // (p1-p0) * (x0+x1)/2 (uniform within each segment).
        points
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * (w[0].0 + w[1].0) / 2.0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn websearch_quantiles_are_monotone() {
        let d = FlowSizeDist::websearch();
        let mut prev = 0;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at {i}");
            prev = q;
        }
        assert_eq!(d.quantile(1.0), 13334);
    }

    #[test]
    fn websearch_is_heavy_tailed() {
        let d = FlowSizeDist::websearch();
        // Median far below mean.
        let median = d.quantile(0.5) as f64;
        assert!(d.mean_packets() > 5.0 * median);
    }

    #[test]
    fn sample_mean_approaches_analytic_mean() {
        let d = FlowSizeDist::websearch();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let emp = s / n as f64;
        let rel = (emp - d.mean_packets()).abs() / d.mean_packets();
        assert!(
            rel < 0.05,
            "empirical {emp} vs analytic {}",
            d.mean_packets()
        );
    }

    #[test]
    fn rejects_bad_cdfs() {
        assert!(FlowSizeDist::from_cdf(vec![(1.0, 0.0)]).is_err());
        assert!(FlowSizeDist::from_cdf(vec![(2.0, 0.0), (1.0, 1.0)]).is_err());
        assert!(FlowSizeDist::from_cdf(vec![(1.0, 0.5), (2.0, 0.4)]).is_err());
        assert!(FlowSizeDist::from_cdf(vec![(1.0, 0.0), (2.0, 0.9)]).is_err());
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = FlowSizeDist::from_cdf(vec![(5.0, 0.0), (10.0, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((5..=10).contains(&s));
        }
    }
}

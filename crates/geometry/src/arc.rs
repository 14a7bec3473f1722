//! The arc segment — HaLk's embedding region for one dimension.
//!
//! An [`Arc`] is the pair `(A_c, A_l)` of §II-A: a semantic-center angle and
//! an arclength encoding the answer-set cardinality. Definitions 1–2 of the
//! paper derive a *start point* `A_S = A_c − A_l/(2ρ)` and an *end point*
//! `A_E = A_c + A_l/(2ρ)`; the coordinated `(start, end)` pair is the key to
//! HaLk's projection operator and to its cascading-error mitigation, so those
//! conversions live here in closed form.

use crate::angle::{abs_delta, chord, norm_angle, TAU};

/// One embedding dimension of a query region: an arc on the circle of radius
/// `ρ`, described by a center angle `center ∈ [0, 2π)` and an arclength
/// `len ∈ [0, 2πρ]`.
///
/// An entity (a set with a single element) is an arc with `len == 0`
/// (§II-A); the universal set is the full circle, `len == 2πρ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Semantic-center polar angle `A_c`, canonicalized to `[0, 2π)`.
    pub center: f32,
    /// Arclength `A_l ∈ [0, 2πρ]` (cardinality proxy).
    pub len: f32,
    /// Circle radius `ρ`.
    pub rho: f32,
}

impl Arc {
    /// Creates an arc, normalizing the center into `[0, 2π)` and clamping the
    /// arclength into the legal `[0, 2πρ]` range.
    pub fn new(center: f32, len: f32, rho: f32) -> Self {
        Self {
            center: norm_angle(center),
            len: len.clamp(0.0, TAU * rho),
            rho,
        }
    }

    /// Half-span of the arc in *angle* units, `A_l / (2ρ)`.
    #[inline]
    pub fn half_angle(&self) -> f32 {
        self.len / (2.0 * self.rho)
    }

    /// Start point `A_S = A_c − A_l/(2ρ)` (Definition 1), wrapped to `[0, 2π)`.
    #[inline]
    pub fn start(&self) -> f32 {
        norm_angle(self.center - self.half_angle())
    }

    /// End point `A_E = A_c + A_l/(2ρ)` (Definition 2), wrapped to `[0, 2π)`.
    #[inline]
    pub fn end(&self) -> f32 {
        norm_angle(self.center + self.half_angle())
    }

    /// Whether the angle `theta` lies on the arc (inclusive of endpoints).
    pub fn contains_angle(&self, theta: f32) -> bool {
        abs_delta(theta, self.center) <= self.half_angle() + 1e-6
    }

    /// Outside distance `d_o` of Eq. 16 from an entity point at `theta`: the
    /// smaller chord to the two endpoints,
    /// `2ρ·min{|sin((θ−A_S)/2)|, |sin((θ−A_E)/2)|}` — the paper's formula
    /// taken literally, *without* zeroing inside the arc.
    ///
    /// For a point arc this degenerates to the RotatE chord distance, which
    /// is what keeps entity embeddings organized during training; the
    /// ConE-style variant that zeroes `d_o` inside the arc
    /// ([`Arc::outside_dist_zeroed`]) lets arcs inflate to swallow positives
    /// without structuring the space and trains far worse at CPU scale
    /// (measured in EXPERIMENTS.md).
    pub fn outside_dist(&self, theta: f32) -> f32 {
        chord(theta, self.start(), self.rho).min(chord(theta, self.end(), self.rho))
    }

    /// The ConE-style outside distance: zero anywhere on the arc, otherwise
    /// the smaller endpoint chord (the `ZeroedInside` distance mode).
    pub fn outside_dist_zeroed(&self, theta: f32) -> f32 {
        if self.contains_angle(theta) {
            0.0
        } else {
            self.outside_dist(theta)
        }
    }

    /// Inside distance `d_i` of Eq. 16: the chord to the semantic center,
    /// capped by the chord of the half-arc, so that points inside the arc are
    /// only mildly pushed towards (but not forced onto) the center.
    pub fn inside_dist(&self, theta: f32) -> f32 {
        let to_center = chord(theta, self.center, self.rho);
        let cap = 2.0 * self.rho * (self.half_angle() * 0.5).sin().abs();
        to_center.min(cap)
    }

    /// Full distance `d = d_o + η·d_i` (Eq. 15) for one dimension.
    pub fn dist(&self, theta: f32, eta: f32) -> f32 {
        self.outside_dist(theta) + eta * self.inside_dist(theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    const R: f32 = 1.0;

    #[test]
    fn endpoints_match_definitions() {
        let a = Arc::new(1.0, 0.8, R);
        // A_S = c − l/2ρ, A_E = c + l/2ρ.
        assert!((a.start() - 0.6).abs() < 1e-6);
        assert!((a.end() - 1.4).abs() < 1e-6);
    }

    #[test]
    fn endpoints_wrap_across_seam() {
        let a = Arc::new(0.1, 1.0, R); // start at 0.1 - 0.5 < 0
        assert!((a.start() - (TAU - 0.4)).abs() < 1e-5);
        assert!((a.end() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn point_arc_contains_only_itself() {
        let p = Arc::new(2.0, 0.0, R);
        assert!(p.contains_angle(2.0));
        assert!(!p.contains_angle(2.1));
        assert_eq!(p.len, 0.0);
    }

    #[test]
    fn full_circle_contains_everything() {
        let f = Arc::new(0.0, TAU * R, R);
        for i in 0..20 {
            assert!(f.contains_angle(i as f32 * 0.3));
        }
    }

    #[test]
    fn outside_dist_zero_at_endpoints_only() {
        let a = Arc::new(1.0, 1.0, R);
        // Eq. 16 literal: vanishes at the endpoints, not on the interior.
        assert!(a.outside_dist(a.start()).abs() < 1e-6);
        assert!(a.outside_dist(a.end()).abs() < 1e-6);
        assert!(a.outside_dist(1.0) > 0.0); // center
        assert!(a.outside_dist(2.0) > 0.0); // outside
    }

    #[test]
    fn outside_dist_zeroed_vanishes_on_arc() {
        let a = Arc::new(1.0, 1.0, R);
        assert_eq!(a.outside_dist_zeroed(1.0), 0.0);
        assert_eq!(a.outside_dist_zeroed(1.49), 0.0);
        assert!(a.outside_dist_zeroed(2.0) > 0.0);
        // Outside the arc, the two variants agree.
        assert_eq!(a.outside_dist_zeroed(2.5), a.outside_dist(2.5));
    }

    #[test]
    fn outside_dist_monotone_in_separation() {
        let a = Arc::new(0.0, 0.5, R);
        let d1 = a.outside_dist(1.0);
        let d2 = a.outside_dist(2.0);
        let d3 = a.outside_dist(3.0);
        assert!(d1 < d2 && d2 < d3);
    }

    #[test]
    fn point_arc_outside_dist_is_rotate_chord() {
        let p = Arc::new(1.3, 0.0, R);
        for theta in [0.0f32, 1.0, 2.5, 5.0] {
            assert!((p.outside_dist(theta) - chord(theta, 1.3, R)).abs() < 1e-6);
        }
    }

    #[test]
    fn inside_dist_capped_by_half_arc_chord() {
        let a = Arc::new(0.0, 2.0, R);
        let cap = 2.0 * R * (a.half_angle() * 0.5).sin();
        // Far outside point: inside distance saturates at the cap.
        assert!((a.inside_dist(PI) - cap).abs() < 1e-5);
        // At the center it is zero.
        assert!(a.inside_dist(0.0).abs() < 1e-7);
    }

    #[test]
    fn dist_weights_inside_term() {
        let a = Arc::new(0.0, 1.0, R);
        let theta = a.start(); // endpoint: d_o = 0, only η·d_i remains
        assert!((a.dist(theta, 0.0) - 0.0).abs() < 1e-6);
        assert!(a.dist(theta, 0.5) > 0.0);
    }

    #[test]
    fn len_is_clamped() {
        let a = Arc::new(0.0, 100.0, R);
        assert!((a.len - TAU).abs() < 1e-5);
        let b = Arc::new(0.0, -3.0, R);
        assert_eq!(b.len, 0.0);
    }
}

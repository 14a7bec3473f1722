//! The arc segment — HaLk's embedding region for one dimension.
//!
//! An [`Arc`] is the pair `(A_c, A_l)` of §II-A: a semantic-center angle and
//! an arclength encoding the answer-set cardinality. Definitions 1–2 of the
//! paper derive a *start point* `A_S = A_c − A_l/(2ρ)` and an *end point*
//! `A_E = A_c + A_l/(2ρ)`; the coordinated `(start, end)` pair is the key to
//! HaLk's projection operator and to its cascading-error mitigation, so those
//! conversions live here in closed form.

use crate::angle::{abs_delta, arclen_to_angle, chord, norm_angle, signed_delta, TAU};
use serde::{Deserialize, Serialize};

/// One embedding dimension of a query region: an arc on the circle of radius
/// `ρ`, described by a center angle `center ∈ [0, 2π)` and an arclength
/// `len ∈ [0, 2πρ]`.
///
/// An entity (a set with a single element) is an arc with `len == 0`
/// (§II-A); the universal set is the full circle, `len == 2πρ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// The degenerate arc representing a single entity located at `angle`.
    pub fn point(angle: f32, rho: f32) -> Self {
        Self::new(angle, 0.0, rho)
    }

    /// The full circle — the embedding of the universal entity set, which the
    /// paper's negation operator needs and which box/beta methods cannot
    /// express (§I).
    pub fn full(rho: f32) -> Self {
        Self {
            center: 0.0,
            len: TAU * rho,
            rho,
        }
    }

    /// Half-span of the arc in *angle* units, `A_l / (2ρ)`.
    #[inline]
    pub fn half_angle(&self) -> f32 {
        self.len / (2.0 * self.rho)
    }

    /// Total subtended angle `A_α = A_l / ρ ∈ [0, 2π]`.
    #[inline]
    pub fn span_angle(&self) -> f32 {
        arclen_to_angle(self.len, self.rho)
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

    /// Reconstructs an arc from its start and end points, walking
    /// counter-clockwise from `start` to `end`. Inverse of
    /// [`Arc::start`]/[`Arc::end`] for non-degenerate arcs.
    pub fn from_endpoints(start: f32, end: f32, rho: f32) -> Self {
        let span = norm_angle(end - start); // ccw span in [0, 2π)
        let center = norm_angle(start + span * 0.5);
        Self::new(center, span * rho, rho)
    }

    /// Whether the angle `theta` lies on the arc (inclusive of endpoints).
    pub fn contains_angle(&self, theta: f32) -> bool {
        abs_delta(theta, self.center) <= self.half_angle() + 1e-6
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains_arc(&self, other: &Arc) -> bool {
        if self.len >= TAU * self.rho - 1e-6 {
            return true;
        }
        let d = abs_delta(other.center, self.center);
        d + other.half_angle() <= self.half_angle() + 1e-6
    }

    /// Angular overlap between two arcs, in angle units `[0, 2π]`.
    ///
    /// Computed on the circle, so arcs that straddle the 0/2π seam are
    /// handled correctly. For arcs with combined span ≥ 2π the overlap is the
    /// excess of the combined span over the full turn (they must overlap).
    pub fn overlap_angle(&self, other: &Arc) -> f32 {
        let ha = self.half_angle();
        let hb = other.half_angle();
        let d = abs_delta(self.center, other.center);
        // Overlap on the near side.
        let near = (ha + hb - d).clamp(0.0, 2.0 * ha.min(hb));
        // Arcs can also meet around the far side of the circle when their
        // spans are large: distance around the far side is 2π − d.
        let far = (ha + hb - (TAU - d)).clamp(0.0, 2.0 * ha.min(hb));
        (near + far).min(2.0 * ha.min(hb)).min(TAU)
    }

    /// The closed-form complement arc of Eq. 13: center rotated by π,
    /// arclength `2πρ − A_l`. Together the arc and its complement tile the
    /// full circle.
    pub fn complement(&self) -> Arc {
        let c = if self.center < std::f32::consts::PI {
            self.center + std::f32::consts::PI
        } else {
            self.center - std::f32::consts::PI
        };
        Arc::new(c, TAU * self.rho - self.len, self.rho)
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
    /// the smaller endpoint chord. Kept for comparison and for the matching
    /// engine's containment-oriented checks.
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

    /// Signed offset of `theta` from the arc center in `(-π, π]`; useful for
    /// diagnostics and for the matching engine's candidate ordering.
    pub fn center_offset(&self, theta: f32) -> f32 {
        signed_delta(theta, self.center)
    }

    /// Exact closed-form intersection of two arcs **when the overlap is a
    /// single contiguous arc** (the common case for the benchmark's query
    /// regions). Returns `None` for disjoint arcs; for the rare double-
    /// overlap case (combined span > 2π on both sides) the larger piece is
    /// returned — a conservative, still-sound region.
    pub fn intersect_exact(&self, other: &Arc) -> Option<Arc> {
        let ov = self.overlap_angle(other);
        if ov <= 1e-7 {
            return None;
        }
        // The overlap is centered where the two centers' angular midpoint
        // falls, shifted towards the tighter side; derive it from endpoint
        // clipping on the near side.
        let d = signed_delta(other.center, self.center);
        let lo = (-self.half_angle()).max(d - other.half_angle());
        let hi = self.half_angle().min(d + other.half_angle());
        if hi <= lo {
            // Overlap only across the far side; center it antipodally.
            let span = ov;
            let far_center = norm_angle(self.center + std::f32::consts::PI);
            return Some(Arc::new(far_center, span * self.rho, self.rho));
        }
        let center = norm_angle(self.center + (lo + hi) * 0.5);
        Some(Arc::new(center, (hi - lo) * self.rho, self.rho))
    }

    /// Exact closed-form difference `self − other`: up to **two** arcs.
    ///
    /// This is precisely what a single box/interval embedding cannot express
    /// (Fig. 5a of the paper — one interval must drop one side); on the
    /// circle the result is representable exactly, which is
    /// the geometric basis of HaLk's "closed-formed solutions for the
    /// difference operator" claim.
    pub fn difference_exact(&self, other: &Arc) -> (Option<Arc>, Option<Arc>) {
        let overlap = match self.intersect_exact(other) {
            None => return (Some(*self), None),
            Some(o) => o,
        };
        if overlap.len >= self.len - 1e-6 {
            return (None, None); // fully covered
        }
        // Remaining pieces: [self.start, overlap.start) and (overlap.end,
        // self.end], measured counter-clockwise.
        let left_span = norm_angle(overlap.start() - self.start());
        let right_span = norm_angle(self.end() - overlap.end());
        let mk = |start: f32, span: f32| -> Option<Arc> {
            if span <= 1e-6 || span > TAU {
                None
            } else {
                Some(Arc::from_endpoints(start, start + span, self.rho))
            }
        };
        // Guard against spans that wrap past the minuend (happens when the
        // overlap touches an endpoint).
        let total = self.span_angle();
        let left = if left_span <= total + 1e-5 {
            mk(self.start(), left_span.min(total))
        } else {
            None
        };
        let right = if right_span <= total + 1e-5 {
            mk(norm_angle(overlap.end()), right_span.min(total))
        } else {
            None
        };
        (left, right)
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
    fn from_endpoints_roundtrip() {
        let a = Arc::new(5.9, 1.2, R); // straddles the seam
        let b = Arc::from_endpoints(a.start(), a.end(), R);
        assert!(abs_delta(a.center, b.center) < 1e-5);
        assert!((a.len - b.len).abs() < 1e-5);
    }

    #[test]
    fn point_arc_contains_only_itself() {
        let p = Arc::point(2.0, R);
        assert!(p.contains_angle(2.0));
        assert!(!p.contains_angle(2.1));
        assert_eq!(p.len, 0.0);
    }

    #[test]
    fn full_circle_contains_everything() {
        let f = Arc::full(R);
        for i in 0..20 {
            assert!(f.contains_angle(i as f32 * 0.3));
        }
    }

    #[test]
    fn containment_respects_seam() {
        let big = Arc::new(0.0, 2.0, R); // [-1, 1] through the seam
        let small = Arc::new(TAU - 0.5, 0.5, R);
        assert!(big.contains_arc(&small));
        assert!(!small.contains_arc(&big));
    }

    #[test]
    fn complement_tiles_circle() {
        let a = Arc::new(1.3, 2.2, R);
        let c = a.complement();
        assert!((a.len + c.len - TAU * R).abs() < 1e-5);
        assert!((abs_delta(a.center, c.center) - PI).abs() < 1e-5);
        // Complement of the complement is the original.
        let cc = c.complement();
        assert!(abs_delta(cc.center, a.center) < 1e-5);
        assert!((cc.len - a.len).abs() < 1e-5);
    }

    #[test]
    fn complement_boundary_partition() {
        // A point just inside the arc is not in the complement and vice versa.
        let a = Arc::new(2.0, 1.0, R);
        let c = a.complement();
        assert!(a.contains_angle(2.0));
        assert!(!c.contains_angle(2.0));
        let outside = norm_angle(2.0 + PI);
        assert!(!a.contains_angle(outside));
        assert!(c.contains_angle(outside));
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        let a = Arc::new(0.5, 0.4, R);
        let b = Arc::new(3.0, 0.4, R);
        assert!(a.overlap_angle(&b).abs() < 1e-6);
    }

    #[test]
    fn overlap_nested_is_smaller_span() {
        let big = Arc::new(1.0, 2.0, R);
        let small = Arc::new(1.1, 0.4, R);
        assert!((big.overlap_angle(&small) - small.span_angle()).abs() < 1e-5);
    }

    #[test]
    fn overlap_partial() {
        // [0.0, 1.0] and [0.6, 1.6]: overlap 0.4 in angle.
        let a = Arc::from_endpoints(0.0, 1.0, R);
        let b = Arc::from_endpoints(0.6, 1.6, R);
        assert!((a.overlap_angle(&b) - 0.4).abs() < 1e-5);
    }

    #[test]
    fn overlap_across_seam() {
        let a = Arc::from_endpoints(TAU - 0.3, 0.3, R); // spans the seam
        let b = Arc::from_endpoints(0.1, 0.5, R);
        assert!((a.overlap_angle(&b) - 0.2).abs() < 1e-5);
    }

    #[test]
    fn overlap_symmetry() {
        let a = Arc::new(1.0, 1.7, R);
        let b = Arc::new(2.4, 2.9, R);
        assert!((a.overlap_angle(&b) - b.overlap_angle(&a)).abs() < 1e-6);
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
        let p = Arc::point(1.3, R);
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
    fn intersect_exact_nested_and_partial() {
        let big = Arc::from_endpoints(0.0, 2.0, R);
        let small = Arc::from_endpoints(0.5, 1.0, R);
        let i = big.intersect_exact(&small).unwrap();
        assert!(abs_delta(i.start(), 0.5) < 1e-5);
        assert!(abs_delta(i.end(), 1.0) < 1e-5);
        // Partial overlap [1.5, 2.0].
        let right = Arc::from_endpoints(1.5, 3.0, R);
        let p = big.intersect_exact(&right).unwrap();
        assert!(abs_delta(p.start(), 1.5) < 1e-4);
        assert!(abs_delta(p.end(), 2.0) < 1e-4);
        // Disjoint.
        assert!(big
            .intersect_exact(&Arc::from_endpoints(3.0, 4.0, R))
            .is_none());
    }

    #[test]
    fn intersect_exact_across_seam() {
        let a = Arc::from_endpoints(TAU - 0.5, 0.5, R);
        let b = Arc::from_endpoints(0.2, 1.0, R);
        let i = a.intersect_exact(&b).unwrap();
        assert!(abs_delta(i.start(), 0.2) < 1e-4);
        assert!(abs_delta(i.end(), 0.5) < 1e-4);
    }

    #[test]
    fn difference_exact_middle_cut_keeps_both_sides() {
        // The case the box difference must lose (Fig. 5a): removing the
        // middle yields two arcs — both representable on the circle.
        let a = Arc::from_endpoints(0.0, 3.0, R);
        let b = Arc::from_endpoints(1.0, 2.0, R);
        let (l, r) = a.difference_exact(&b);
        let l = l.expect("left piece");
        let r = r.expect("right piece");
        assert!(abs_delta(l.start(), 0.0) < 1e-4 && abs_delta(l.end(), 1.0) < 1e-4);
        assert!(abs_delta(r.start(), 2.0) < 1e-4 && abs_delta(r.end(), 3.0) < 1e-4);
        // Membership agrees with set semantics at probe points.
        for (theta, expect) in [(0.5, true), (1.5, false), (2.5, true), (3.5, false)] {
            let inside = l.contains_angle(theta) || r.contains_angle(theta);
            assert_eq!(inside, expect, "theta={theta}");
        }
    }

    #[test]
    fn difference_exact_disjoint_and_covered() {
        let a = Arc::from_endpoints(0.0, 1.0, R);
        let far = Arc::from_endpoints(3.0, 4.0, R);
        assert_eq!(a.difference_exact(&far), (Some(a), None));
        let cover = Arc::from_endpoints(TAU - 0.5, 2.0, R);
        assert_eq!(a.difference_exact(&cover), (None, None));
    }

    #[test]
    fn difference_exact_side_cut_single_piece() {
        let a = Arc::from_endpoints(0.0, 2.0, R);
        let b = Arc::from_endpoints(1.5, 3.0, R);
        let (l, r) = a.difference_exact(&b);
        let l = l.expect("left remains");
        assert!(abs_delta(l.start(), 0.0) < 1e-4 && abs_delta(l.end(), 1.5) < 1e-4);
        assert!(r.is_none() || r.unwrap().len < 1e-4);
    }

    #[test]
    fn len_is_clamped() {
        let a = Arc::new(0.0, 100.0, R);
        assert!((a.len - TAU).abs() < 1e-5);
        let b = Arc::new(0.0, -3.0, R);
        assert_eq!(b.len, 0.0);
    }
}

//! Property-based tests for the closed-form geometry the learned operators
//! must respect. These invariants are the paper's "closed-form solution"
//! claims (§I, §III) stated as machine-checked properties.

use halk_geometry::angle::{abs_delta, chord, norm_angle, signed_delta, TAU};
use halk_geometry::arc::Arc;
use halk_geometry::polar::{g_squash, semantic_average, to_polar, to_rect};
use proptest::prelude::*;

fn any_angle() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| x)
}

fn any_arc() -> impl Strategy<Value = Arc> {
    (any_angle(), 0.0f32..(TAU * 1.5)).prop_map(|(c, l)| Arc::new(c, l, 1.0))
}

proptest! {
    #[test]
    fn norm_angle_always_canonical(t in any_angle()) {
        let n = norm_angle(t);
        prop_assert!((0.0..TAU).contains(&n));
        // Same physical point: chord distance zero.
        prop_assert!(chord(n, t, 1.0) < 1e-3);
    }

    #[test]
    fn signed_delta_in_half_open_pi(a in any_angle(), b in any_angle()) {
        let d = signed_delta(a, b);
        prop_assert!(d > -std::f32::consts::PI - 1e-6 && d <= std::f32::consts::PI + 1e-6);
    }

    #[test]
    fn chord_triangle_inequality(a in any_angle(), b in any_angle(), c in any_angle()) {
        prop_assert!(chord(a, c, 1.0) <= chord(a, b, 1.0) + chord(b, c, 1.0) + 1e-4);
    }

    #[test]
    fn chord_bounded_by_diameter(a in any_angle(), b in any_angle(), rho in 0.1f32..5.0) {
        prop_assert!(chord(a, b, rho) <= 2.0 * rho + 1e-5);
    }

    #[test]
    fn arc_endpoints_reconstruct(arc in any_arc()) {
        // start/end ↔ (center, len) is a bijection for arcs shorter than 2π.
        prop_assume!(arc.len < TAU - 1e-3);
        let back = Arc::from_endpoints(arc.start(), arc.end(), 1.0);
        prop_assert!(abs_delta(back.center, arc.center) < 1e-3);
        prop_assert!((back.len - arc.len).abs() < 1e-3);
    }

    #[test]
    fn arc_center_always_on_arc(arc in any_arc()) {
        prop_assert!(arc.contains_angle(arc.center));
    }

    #[test]
    fn arc_complement_partition(arc in any_arc(), theta in any_angle()) {
        // Every point is in the arc or its complement (boundaries may be in
        // both because containment is closed).
        let comp = arc.complement();
        prop_assert!(arc.contains_angle(theta) || comp.contains_angle(theta));
    }

    #[test]
    fn arc_complement_lengths_tile(arc in any_arc()) {
        let comp = arc.complement();
        prop_assert!((arc.len + comp.len - TAU).abs() < 1e-3);
    }

    #[test]
    fn arc_overlap_is_symmetric_and_bounded(a in any_arc(), b in any_arc()) {
        let o1 = a.overlap_angle(&b);
        let o2 = b.overlap_angle(&a);
        prop_assert!((o1 - o2).abs() < 1e-3);
        prop_assert!(o1 <= a.span_angle().min(b.span_angle()) + 1e-3);
        prop_assert!(o1 >= -1e-6);
    }

    #[test]
    fn arc_containment_implies_full_overlap(a in any_arc(), b in any_arc()) {
        if a.contains_arc(&b) {
            prop_assert!(a.overlap_angle(&b) >= b.span_angle() - 1e-2);
        }
    }

    #[test]
    fn arc_outside_dist_zeroed_iff_inside(arc in any_arc(), theta in any_angle()) {
        let d = arc.outside_dist_zeroed(theta);
        if arc.contains_angle(theta) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn arc_outside_dist_is_min_endpoint_chord(arc in any_arc(), theta in any_angle()) {
        let expect = chord(theta, arc.start(), 1.0).min(chord(theta, arc.end(), 1.0));
        prop_assert!((arc.outside_dist(theta) - expect).abs() < 1e-5);
    }

    #[test]
    fn arc_dist_nonnegative(arc in any_arc(), theta in any_angle(), eta in 0.0f32..1.0) {
        prop_assert!(arc.dist(theta, eta) >= 0.0);
    }

    #[test]
    fn polar_rect_roundtrip(theta in any_angle(), rho in 0.1f32..4.0) {
        let (x, y) = to_rect(theta, rho);
        prop_assert!(abs_delta(to_polar(x, y), theta) < 1e-2);
    }

    #[test]
    fn g_squash_always_legal_angle(x in -1e3f32..1e3, lambda in 0.01f32..10.0) {
        let y = g_squash(x, lambda);
        prop_assert!((0.0..=TAU).contains(&y));
    }

    #[test]
    fn semantic_average_stays_on_circle(
        angles in prop::collection::vec(any_angle(), 1..6),
        seed in prop::collection::vec(0.01f32..1.0, 6),
    ) {
        let w: Vec<f32> = angles.iter().enumerate().map(|(i, _)| seed[i]).collect();
        let s: f32 = w.iter().sum();
        let w: Vec<f32> = w.iter().map(|x| x / s).collect();
        let avg = semantic_average(&angles, &w, 1.0);
        prop_assert!((0.0..TAU).contains(&avg));
    }

    // --- The paper's tightness claim (Supplementary), encoded geometrically:
    // the surviving region of HaLk's closed-form arc difference is never
    // larger than the surviving region of the lossy box difference when both
    // remove the same overlap mass.
    #[test]
    fn arc_difference_shrinks_no_less_than_overlap(a in any_arc(), b in any_arc()) {
        // A closed-form difference can at most keep span(a) − overlap(a, b).
        let keep = (a.span_angle() - a.overlap_angle(&b)).max(0.0);
        prop_assert!(keep <= a.span_angle() + 1e-5);
    }

    #[test]
    fn arc_intersect_exact_membership(a in any_arc(), b in any_arc(), theta in any_angle()) {
        // Restrict to the single-overlap regime the closed form targets.
        prop_assume!(a.span_angle() + b.span_angle() < TAU - 0.05);
        match a.intersect_exact(&b) {
            Some(i) => {
                // Everything in the intersection arc is in both inputs
                // (boundary epsilon tolerated via small containment slack).
                if i.contains_angle(theta) && i.center_offset(theta).abs() < i.half_angle() - 0.01 {
                    prop_assert!(a.contains_angle(theta), "θ in i but not a");
                    prop_assert!(b.contains_angle(theta), "θ in i but not b");
                }
            }
            None => {
                // Disjoint: no point is strictly inside both.
                let strictly_in = |arc: &Arc, t: f32| {
                    arc.center_offset(t).abs() < arc.half_angle() - 0.01
                };
                prop_assert!(!(strictly_in(&a, theta) && strictly_in(&b, theta)));
            }
        }
    }

    #[test]
    fn arc_difference_exact_membership(a in any_arc(), b in any_arc(), theta in any_angle()) {
        prop_assume!(a.span_angle() + b.span_angle() < TAU - 0.05);
        let (l, r) = a.difference_exact(&b);
        let in_diff = l.is_some_and(|p| p.contains_angle(theta))
            || r.is_some_and(|p| p.contains_angle(theta));
        let strictly = |arc: &Arc, t: f32| arc.center_offset(t).abs() < arc.half_angle() - 0.02;
        // Strictly inside the difference ⇒ inside a and not strictly in b.
        if in_diff
            && l.is_none_or(|p| strictly(&p, theta) || !p.contains_angle(theta))
            && r.is_none_or(|p| strictly(&p, theta) || !p.contains_angle(theta))
            && (l.is_some_and(|p| strictly(&p, theta)) || r.is_some_and(|p| strictly(&p, theta)))
        {
            prop_assert!(a.contains_angle(theta));
            prop_assert!(!strictly(&b, theta));
        }
        // Total length conservation: |a−b| + |a∩b| ≈ |a|.
        let diff_len = l.map_or(0.0, |p| p.len) + r.map_or(0.0, |p| p.len);
        let inter_len = a.intersect_exact(&b).map_or(0.0, |i| i.len);
        prop_assert!((diff_len + inter_len - a.len).abs() < 0.05,
            "lengths: diff {diff_len} + inter {inter_len} != {}", a.len);
    }
}

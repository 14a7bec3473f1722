//! Property-based tests for the arc primitives the model runs: the
//! `ZeroedInside` training mask, the scalar scoring path and the scorer's
//! test reference all call exactly these functions.

use halk_geometry::angle::{chord, g_squash, TAU};
use halk_geometry::arc::Arc;
use proptest::prelude::*;

fn any_angle() -> impl Strategy<Value = f32> {
    -100.0f32..100.0
}

fn any_arc() -> impl Strategy<Value = Arc> {
    (any_angle(), 0.0f32..(TAU * 1.5)).prop_map(|(c, l)| Arc::new(c, l, 1.0))
}

proptest! {
    #[test]
    fn chord_triangle_inequality(a in any_angle(), b in any_angle(), c in any_angle()) {
        prop_assert!(chord(a, c, 1.0) <= chord(a, b, 1.0) + chord(b, c, 1.0) + 1e-4);
    }

    #[test]
    fn chord_bounded_by_diameter(a in any_angle(), b in any_angle(), rho in 0.1f32..5.0) {
        prop_assert!(chord(a, b, rho) <= 2.0 * rho + 1e-5);
    }

    #[test]
    fn arc_center_always_on_arc(arc in any_arc()) {
        prop_assert!(arc.contains_angle(arc.center));
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
    fn g_squash_always_legal_angle(x in -1e3f32..1e3, lambda in 0.01f32..10.0) {
        let y = g_squash(x, lambda);
        prop_assert!((0.0..=TAU).contains(&y));
    }
}

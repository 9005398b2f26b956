//! Low-level geometric algorithms shared by predicates and operators.

use crate::coord::{Coord, EPSILON};

/// Result of intersecting two line segments.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentIntersection {
    /// The segments do not share any point.
    None,
    /// The segments share exactly one point.
    Point(Coord),
    /// The segments overlap along a (possibly degenerate) sub-segment.
    Overlap(Coord, Coord),
}

/// Returns `true` if coordinate `p` lies on the closed segment `a`-`b`
/// (within an absolute distance of [`EPSILON`]).
pub fn point_on_segment(p: &Coord, a: &Coord, b: &Coord) -> bool {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 < EPSILON * EPSILON {
        return p.approx_eq(a);
    }
    // The raw cross product scales with |ab| · |ap|, so an absolute-epsilon
    // orientation test misclassifies points that are a true 1e-10 away from
    // a long segment. Normalise by |ab| to compare a real distance.
    if ab.cross(&(*p - *a)).abs() / len2.sqrt() > EPSILON {
        return false;
    }
    p.x >= a.x.min(b.x) - EPSILON
        && p.x <= a.x.max(b.x) + EPSILON
        && p.y >= a.y.min(b.y) - EPSILON
        && p.y <= a.y.max(b.y) + EPSILON
}

/// Computes the intersection of the closed segments `p1`-`p2` and `q1`-`q2`.
pub fn segment_intersection(p1: &Coord, p2: &Coord, q1: &Coord, q2: &Coord) -> SegmentIntersection {
    let r = *p2 - *p1;
    let s = *q2 - *q1;
    let denom = r.cross(&s);
    let qp = *q1 - *p1;

    if denom.abs() < EPSILON {
        // Parallel. Collinear overlap?
        if qp.cross(&r).abs() > EPSILON {
            return SegmentIntersection::None;
        }
        // Collinear: project onto r (or s when r is degenerate).
        let r_len2 = r.dot(&r);
        if r_len2 < EPSILON * EPSILON {
            // p1 == p2 (degenerate segment).
            if point_on_segment(p1, q1, q2) {
                return SegmentIntersection::Point(*p1);
            }
            return SegmentIntersection::None;
        }
        let t0 = qp.dot(&r) / r_len2;
        let t1 = t0 + s.dot(&r) / r_len2;
        let (t_min, t_max) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let lo = t_min.max(0.0);
        let hi = t_max.min(1.0);
        if lo > hi + EPSILON {
            return SegmentIntersection::None;
        }
        let start = *p1 + r * lo;
        let end = *p1 + r * hi;
        if start.approx_eq(&end) {
            return SegmentIntersection::Point(start);
        }
        return SegmentIntersection::Overlap(start, end);
    }

    let t = qp.cross(&s) / denom;
    let u = qp.cross(&r) / denom;
    if (-EPSILON..=1.0 + EPSILON).contains(&t) && (-EPSILON..=1.0 + EPSILON).contains(&u) {
        SegmentIntersection::Point(*p1 + r * t.clamp(0.0, 1.0))
    } else {
        SegmentIntersection::None
    }
}

/// Returns `true` if the two closed segments share at least one point.
pub fn segments_intersect(p1: &Coord, p2: &Coord, q1: &Coord, q2: &Coord) -> bool {
    !matches!(
        segment_intersection(p1, p2, q1, q2),
        SegmentIntersection::None
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_on_segment_cases() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(10.0, 0.0);
        assert!(point_on_segment(&Coord::new(5.0, 0.0), &a, &b));
        assert!(point_on_segment(&a, &a, &b));
        assert!(point_on_segment(&b, &a, &b));
        assert!(!point_on_segment(&Coord::new(11.0, 0.0), &a, &b));
        assert!(!point_on_segment(&Coord::new(5.0, 0.1), &a, &b));
    }

    #[test]
    fn crossing_segments_intersect_at_point() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(2.0, 2.0),
            &Coord::new(0.0, 2.0),
            &Coord::new(2.0, 0.0),
        );
        assert_eq!(i, SegmentIntersection::Point(Coord::new(1.0, 1.0)));
    }

    #[test]
    fn touching_endpoints_intersect() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(1.0, 1.0),
            &Coord::new(1.0, 1.0),
            &Coord::new(2.0, 0.0),
        );
        assert_eq!(i, SegmentIntersection::Point(Coord::new(1.0, 1.0)));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(1.0, 0.0),
            &Coord::new(0.0, 1.0),
            &Coord::new(1.0, 1.0),
        );
        assert_eq!(i, SegmentIntersection::None);
    }

    #[test]
    fn collinear_overlapping_segments() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(4.0, 0.0),
            &Coord::new(2.0, 0.0),
            &Coord::new(6.0, 0.0),
        );
        assert_eq!(
            i,
            SegmentIntersection::Overlap(Coord::new(2.0, 0.0), Coord::new(4.0, 0.0))
        );
    }

    #[test]
    fn collinear_disjoint_segments() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(1.0, 0.0),
            &Coord::new(2.0, 0.0),
            &Coord::new(3.0, 0.0),
        );
        assert_eq!(i, SegmentIntersection::None);
    }

    #[test]
    fn collinear_touching_at_single_point() {
        let i = segment_intersection(
            &Coord::new(0.0, 0.0),
            &Coord::new(1.0, 0.0),
            &Coord::new(1.0, 0.0),
            &Coord::new(3.0, 0.0),
        );
        assert_eq!(i, SegmentIntersection::Point(Coord::new(1.0, 0.0)));
    }

    #[test]
    fn degenerate_segment_as_point() {
        let p = Coord::new(1.0, 0.0);
        let i = segment_intersection(&p, &p, &Coord::new(0.0, 0.0), &Coord::new(2.0, 0.0));
        assert_eq!(i, SegmentIntersection::Point(p));
        let off = Coord::new(1.0, 1.0);
        let j = segment_intersection(&off, &off, &Coord::new(0.0, 0.0), &Coord::new(2.0, 0.0));
        assert_eq!(j, SegmentIntersection::None);
    }
}

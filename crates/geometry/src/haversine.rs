//! Great-circle (haversine) distance for geodetic coordinates.

use crate::coord::Coord;

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle distance in kilometres between two coordinates interpreted
/// as `(longitude, latitude)` in degrees.
pub fn haversine_distance(a: &Coord, b: &Coord) -> f64 {
    let lat1 = a.y.to_radians();
    let lat2 = b.y.to_radians();
    let dlat = (b.y - a.y).to_radians();
    let dlon = (b.x - a.x).to_radians();

    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    // Rounding can push `h` a few ulps past 1 for near-antipodal points,
    // where `asin` of the root would be NaN.
    2.0 * EARTH_RADIUS_KM * h.clamp(0.0, 1.0).sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance() {
        let p = Coord::new(-0.48, 38.34); // Alicante
        assert_eq!(haversine_distance(&p, &p), 0.0);
    }

    #[test]
    fn alicante_to_lausanne() {
        // The paper was presented at EDBT 2010 in Lausanne; the authors are
        // in Alicante. Great-circle distance is roughly 1090-1110 km.
        let alicante = Coord::new(-0.4810, 38.3452);
        let lausanne = Coord::new(6.6323, 46.5197);
        let d = haversine_distance(&alicante, &lausanne);
        assert!(d > 1050.0 && d < 1150.0, "got {d}");
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(0.0, 1.0);
        let d = haversine_distance(&a, &b);
        assert!((d - 111.19).abs() < 0.5, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = Coord::new(10.0, 20.0);
        let b = Coord::new(-30.0, 45.0);
        assert!((haversine_distance(&a, &b) - haversine_distance(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn near_antipodal_points_are_half_a_circumference_apart() {
        // Unclamped, rounding puts `h` just above 1 for this pair and the
        // distance comes out NaN.
        let a = Coord::new(-44.34968596898315, 64.93526170619475);
        let b = Coord::new(135.65031403502758, -64.93526171186691);
        let d = haversine_distance(&a, &b);
        assert!(d.is_finite(), "got {d}");
        assert!(
            (d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0,
            "got {d}"
        );
    }
}

//! The map-tile grid.
//!
//! The paper assumes "each map tile covers 300x300 meters of actual earth
//! surface" and weighs ~5 KB (a 128×128-pixel tile, Table 2). The grid is
//! a flat plane in metres — adequate for a single state's worth of map,
//! which is exactly the scale Table 2 reasons about.

use serde::{Deserialize, Serialize};

/// A position on the map plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Position {
    /// Creates a position from metre coordinates.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is not finite.
    pub fn meters(x: f64, y: f64) -> Self {
        assert!(x.is_finite() && y.is_finite(), "coordinates must be finite");
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation toward `other` (`t` in `[0, 1]`).
    pub fn lerp(self, other: Position, t: f64) -> Position {
        Position {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

/// Identifies one tile in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TileId {
    /// Tile column (easting / tile size, floored).
    pub x: i32,
    /// Tile row (northing / tile size, floored).
    pub y: i32,
}

impl TileId {
    // api-ok: the §7 maps key format a caller packs requests with;
    // tests/service_equivalence.rs builds its map requests through it.
    /// Packs the tile coordinate into a service-layer `u64` key:
    /// `x` in the high 32 bits, `y` in the low 32 (two's complement).
    pub fn to_key(self) -> u64 {
        (u64::from(self.x as u32) << 32) | u64::from(self.y as u32)
    }

    /// Inverse of [`TileId::to_key`]; total — every `u64` names a tile.
    pub fn from_key(key: u64) -> TileId {
        TileId {
            x: (key >> 32) as u32 as i32,
            y: key as u32 as i32,
        }
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile({},{})", self.x, self.y)
    }
}

/// The tile grid geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileGrid {
    /// Side of one square tile, in metres.
    pub tile_side_m: f64,
    /// Bytes one stored tile occupies.
    pub tile_bytes: u64,
}

impl TileGrid {
    /// The paper's geometry: 300 m tiles of ~5 KB each (Table 2).
    pub fn paper_default() -> Self {
        TileGrid {
            tile_side_m: 300.0,
            tile_bytes: 5_000,
        }
    }

    /// The tile containing a position.
    pub fn tile_for(&self, p: Position) -> TileId {
        TileId {
            x: (p.x / self.tile_side_m).floor() as i32,
            y: (p.y / self.tile_side_m).floor() as i32,
        }
    }

    /// Centre position of a tile.
    pub fn tile_center(&self, t: TileId) -> Position {
        Position {
            x: (f64::from(t.x) + 0.5) * self.tile_side_m,
            y: (f64::from(t.y) + 0.5) * self.tile_side_m,
        }
    }

    /// The 3×3 block of tiles a phone screen shows around a position —
    /// the viewport a map render must have on hand.
    pub fn viewport(&self, center: Position) -> Vec<TileId> {
        let c = self.tile_for(center);
        let mut out = Vec::with_capacity(9);
        for dy in -1..=1 {
            for dx in -1..=1 {
                out.push(TileId {
                    x: c.x + dx,
                    y: c.y + dy,
                });
            }
        }
        out
    }

    /// Every tile whose centre lies within `radius_m` of `center`.
    pub fn tiles_in_radius(&self, center: Position, radius_m: f64) -> Vec<TileId> {
        assert!(
            radius_m >= 0.0 && radius_m.is_finite(),
            "radius must be finite and non-negative"
        );
        let span = (radius_m / self.tile_side_m).ceil() as i32 + 1;
        let c = self.tile_for(center);
        let mut out = Vec::new();
        for dy in -span..=span {
            for dx in -span..=span {
                let t = TileId {
                    x: c.x + dx,
                    y: c.y + dy,
                };
                if self.tile_center(t).distance_to(center) <= radius_m {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Bytes needed to store `n` tiles.
    pub fn bytes_for(&self, n: usize) -> u64 {
        self.tile_bytes * n as u64
    }
}

impl Default for TileGrid {
    fn default() -> Self {
        TileGrid::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_the_plane() {
        let g = TileGrid::paper_default();
        assert_eq!(
            g.tile_for(Position::meters(0.0, 0.0)),
            TileId { x: 0, y: 0 }
        );
        assert_eq!(
            g.tile_for(Position::meters(299.9, 299.9)),
            TileId { x: 0, y: 0 }
        );
        assert_eq!(
            g.tile_for(Position::meters(300.0, 0.0)),
            TileId { x: 1, y: 0 }
        );
        assert_eq!(
            g.tile_for(Position::meters(-0.1, -0.1)),
            TileId { x: -1, y: -1 }
        );
    }

    #[test]
    fn tile_center_round_trips() {
        let g = TileGrid::paper_default();
        for t in [TileId { x: 0, y: 0 }, TileId { x: -7, y: 12 }] {
            assert_eq!(g.tile_for(g.tile_center(t)), t);
        }
    }

    #[test]
    fn viewport_is_a_3x3_block() {
        let g = TileGrid::paper_default();
        let v = g.viewport(Position::meters(450.0, 450.0));
        assert_eq!(v.len(), 9);
        assert!(v.contains(&TileId { x: 0, y: 0 }));
        assert!(v.contains(&TileId { x: 2, y: 2 }));
    }

    #[test]
    fn radius_region_is_a_disc() {
        let g = TileGrid::paper_default();
        let center = Position::meters(0.0, 0.0);
        let tiles = g.tiles_in_radius(center, 1_000.0);
        for t in &tiles {
            assert!(g.tile_center(*t).distance_to(center) <= 1_000.0);
        }
        // Roughly pi * r^2 / tile_area tiles.
        let expected = std::f64::consts::PI * 1_000.0f64.powi(2) / (300.0 * 300.0);
        let ratio = tiles.len() as f64 / expected;
        assert!(
            (0.7..1.3).contains(&ratio),
            "tile count off: {}",
            tiles.len()
        );
        assert!(
            g.tiles_in_radius(center, 0.0).is_empty() || g.tiles_in_radius(center, 0.0).len() <= 1
        );
    }

    #[test]
    fn table2_state_coverage_arithmetic() {
        // 5.5M tiles at 300 m cover ~sqrt(5.5e6)*0.3 km ≈ 700 km square —
        // a whole US state, as the paper says.
        let g = TileGrid::paper_default();
        let per_side = (700_000.0 / g.tile_side_m).ceil() as u64;
        let tiles = per_side * per_side;
        assert!(
            (5_000_000..6_000_000).contains(&tiles),
            "700 km state needs {tiles} tiles, Table 2 says ~5.5M"
        );
        let bytes = g.bytes_for(tiles as usize);
        assert!(
            (25.0..30.0).contains(&(bytes as f64 / 1e9)),
            "~25.6 GB per Table 2"
        );
    }

    #[test]
    fn distance_and_lerp() {
        let a = Position::meters(0.0, 0.0);
        let b = Position::meters(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        let mid = a.lerp(b, 0.5);
        assert!((mid.x - 1.5).abs() < 1e-12 && (mid.y - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_positions_are_rejected() {
        let _ = Position::meters(f64::NAN, 0.0);
    }
}

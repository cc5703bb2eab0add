//! The `Track` type: a closed centerline with width, arc-length sampling,
//! fast point projection and surface classification.

use crate::geometry::{point_segment_dist_sq, Vec2};
use crate::polyline::{cumulative_arclength, curvatures, resample_closed, signed_area, tangents};
use crate::surface::Surface;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Spacing of the internal resampled centerline, meters. Fine enough that
/// linear interpolation between samples is below millimetre error on the
/// paper's ~1 m-radius bends.
const SAMPLE_DS: f64 = 0.05;

/// Width of a boundary tape line, meters (2-inch gaffer tape ≈ 5 cm).
pub const TAPE_WIDTH: f64 = 0.05;

/// Circular moving average with half-window `h`.
fn smooth_circular(xs: &[f64], h: usize) -> Vec<f64> {
    let n = xs.len();
    if n == 0 || h == 0 {
        return xs.to_vec();
    }
    let w = 2 * h + 1;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for k in 0..w {
                let j = (i + n + k - h) % n;
                acc += xs[j];
            }
            acc / w as f64
        })
        .collect()
}

/// Result of projecting a world point onto a track.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackProjection {
    /// Station: arc length along the centerline of the closest point, in
    /// `[0, length)`.
    pub s: f64,
    /// Signed lateral offset, positive to the *left* of the direction of
    /// travel, meters.
    pub lateral: f64,
    /// Centerline heading at the projection, radians.
    pub heading: f64,
    /// Signed centerline curvature at the projection, 1/m.
    pub curvature: f64,
    /// Whether the point is within the track edges.
    pub on_track: bool,
}

/// A closed driving track.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Track {
    name: String,
    /// Densely resampled centerline, counter-clockwise.
    center: Vec<Vec2>,
    /// Station of each centerline sample.
    station: Vec<f64>,
    /// Unit tangent at each sample.
    tangent: Vec<Vec2>,
    /// Signed curvature at each sample.
    curvature: Vec<f64>,
    /// Half-width at each sample (edge-to-centerline), meters.
    half_width: Vec<f64>,
    length: f64,
    // Uniform spatial grid over the bounding box mapping cells to candidate
    // centerline sample indices; accelerates `project` from O(n) to O(1).
    grid_origin: Vec2,
    grid_cell: f64,
    grid_cols: usize,
    grid_rows: usize,
    grid: Vec<Vec<u32>>,
    /// Lazily filled ground-class cache behind `surface_at`. Clones share
    /// it; it is never serialised (a deserialised track starts cold).
    #[serde(skip)]
    surface_cache: SurfaceCacheSlot,
}

impl Track {
    /// Build a track from a closed centerline waypoint loop and a uniform
    /// width. Waypoints are resampled at 5 cm; winding is normalised to
    /// counter-clockwise so "left" is consistent.
    pub fn from_centerline(name: &str, waypoints: &[Vec2], width: f64) -> Track {
        Self::from_centerline_var_width(name, waypoints, &vec![width; waypoints.len()])
    }

    /// Build a track with per-waypoint width (the paper's hand-taped oval
    /// has an *average* width of 27.59 in — real tape wobbles).
    pub fn from_centerline_var_width(name: &str, waypoints: &[Vec2], widths: &[f64]) -> Track {
        assert!(waypoints.len() >= 3, "need at least 3 waypoints");
        assert_eq!(waypoints.len(), widths.len(), "one width per waypoint");
        assert!(widths.iter().all(|&w| w > 0.0), "widths must be positive");

        let mut pts = waypoints.to_vec();
        let mut wds = widths.to_vec();
        if signed_area(&pts) < 0.0 {
            pts.reverse();
            wds.reverse();
        }

        let center = resample_closed(&pts, SAMPLE_DS);
        // Carry widths across the resample by nearest original waypoint.
        let half_width: Vec<f64> = center
            .iter()
            .map(|c| {
                let i = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.dist_sq(*c)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i);
                wds[i] / 2.0
            })
            .collect();

        let (station, length) = cumulative_arclength(&center);
        let tangent = tangents(&center);
        // Raw Menger curvature concentrates all turning at waypoint-polygon
        // vertices (spikes) and reads ~zero between them; a circular moving
        // average over ~0.5 m recovers the underlying arc curvature.
        let curvature = smooth_circular(&curvatures(&center), (0.25 / SAMPLE_DS) as usize);

        let mut track = Track {
            name: name.to_string(),
            center,
            station,
            tangent,
            curvature,
            half_width,
            length,
            grid_origin: Vec2::ZERO,
            grid_cell: 0.0,
            grid_cols: 0,
            grid_rows: 0,
            grid: Vec::new(),
            surface_cache: SurfaceCacheSlot::default(),
        };
        track.build_grid();
        track
    }

    fn build_grid(&mut self) {
        let max_hw = self
            .half_width
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(0.1);
        // Margin: track width + a border so off-track queries nearby still hit.
        let margin = max_hw + 1.0;
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.center {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let cell = 0.5_f64;
        let origin = Vec2::new(min_x - margin, min_y - margin);
        let cols = (((max_x - min_x) + 2.0 * margin) / cell).ceil() as usize + 1;
        let rows = (((max_y - min_y) + 2.0 * margin) / cell).ceil() as usize + 1;
        let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cols * rows];

        // Each sample registers itself in every cell within reach: reach =
        // its own cell plus cells whose nearest corner could be closer to
        // this sample than to any other. A conservative radius of
        // (max half-width + margin) per sample would bloat cells, so instead
        // register in the 3x3 neighbourhood and fall back to a widening
        // search on miss.
        for (i, p) in self.center.iter().enumerate() {
            let cx = ((p.x - origin.x) / cell) as isize;
            let cy = ((p.y - origin.y) / cell) as isize;
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let gx = cx + dx;
                    let gy = cy + dy;
                    if gx >= 0 && gy >= 0 && (gx as usize) < cols && (gy as usize) < rows {
                        grid[gy as usize * cols + gx as usize].push(i as u32);
                    }
                }
            }
        }

        self.grid_origin = origin;
        self.grid_cell = cell;
        self.grid_cols = cols;
        self.grid_rows = rows;
        self.grid = grid;
    }

    /// The track's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total centerline length, meters.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Number of internal centerline samples.
    pub fn sample_count(&self) -> usize {
        self.center.len()
    }

    /// Track width (edge to edge) at station `s`.
    pub fn width_at(&self, s: f64) -> f64 {
        let i = self.index_at(s);
        2.0 * self.half_width[i]
    }

    /// Mean width over the whole track.
    pub fn mean_width(&self) -> f64 {
        2.0 * self.half_width.iter().sum::<f64>() / self.half_width.len() as f64
    }

    /// Wrap a station into `[0, length)`.
    pub fn wrap_station(&self, s: f64) -> f64 {
        let mut s = s % self.length;
        if s < 0.0 {
            s += self.length;
        }
        s
    }

    fn index_at(&self, s: f64) -> usize {
        let s = self.wrap_station(s);
        // Uniform spacing makes this a direct lookup.
        let approx = (s / self.length * self.center.len() as f64) as usize;
        approx.min(self.center.len() - 1)
    }

    /// Centerline position at station `s`.
    pub fn point_at(&self, s: f64) -> Vec2 {
        self.center[self.index_at(s)]
    }

    /// Centerline heading (radians) at station `s`.
    pub fn heading_at(&self, s: f64) -> f64 {
        self.tangent[self.index_at(s)].angle()
    }

    /// Signed curvature at station `s`.
    pub fn curvature_at(&self, s: f64) -> f64 {
        self.curvature[self.index_at(s)]
    }

    /// Maximum |curvature| over the track — the tightest bend, which caps
    /// safe speed in the closed-loop latency model.
    pub fn max_abs_curvature(&self) -> f64 {
        self.curvature.iter().map(|k| k.abs()).fold(0.0, f64::max)
    }

    /// A point offset `lateral` meters to the left of the centerline at `s`.
    pub fn offset_point(&self, s: f64, lateral: f64) -> Vec2 {
        let i = self.index_at(s);
        self.center[i] + self.tangent[i].perp() * lateral
    }

    /// Left (inner-curve) edge point at station `s`.
    pub fn left_edge(&self, s: f64) -> Vec2 {
        let i = self.index_at(s);
        self.offset_point(s, self.half_width[i])
    }

    /// Right edge point at station `s`.
    pub fn right_edge(&self, s: f64) -> Vec2 {
        let i = self.index_at(s);
        self.offset_point(s, -self.half_width[i])
    }

    /// Visit candidate sample indices near `p` from the spatial grid,
    /// widening the search ring until non-empty, then scanning one extra
    /// ring so the true nearest isn't missed just across a cell edge.
    /// Allocation-free: `project` runs for every ground lookup the surface
    /// cache cannot answer.
    fn for_candidates(&self, p: Vec2, mut f: impl FnMut(u32)) {
        let cx = ((p.x - self.grid_origin.x) / self.grid_cell).floor() as isize;
        let cy = ((p.y - self.grid_origin.y) / self.grid_cell).floor() as isize;
        let max_ring = (self.grid_cols.max(self.grid_rows)) as isize;

        let scan_ring = |ring: isize, f: &mut dyn FnMut(u32)| -> bool {
            let mut any = false;
            for dy in -ring..=ring {
                for dx in -ring..=ring {
                    // Only the ring boundary (interior already scanned).
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    let gx = cx + dx;
                    let gy = cy + dy;
                    if gx >= 0
                        && gy >= 0
                        && (gx as usize) < self.grid_cols
                        && (gy as usize) < self.grid_rows
                    {
                        let cell = &self.grid[gy as usize * self.grid_cols + gx as usize];
                        for &ci in cell {
                            any = true;
                            f(ci);
                        }
                    }
                }
            }
            any
        };

        for ring in 0..=max_ring {
            if scan_ring(ring, &mut f) {
                scan_ring(ring + 1, &mut f);
                return;
            }
        }
        // Point far outside the gridded area: brute force.
        for ci in 0..self.center.len() as u32 {
            f(ci);
        }
    }

    /// Project `p` onto the track.
    pub fn project(&self, p: Vec2) -> TrackProjection {
        let n = self.center.len();
        let mut best = (f64::INFINITY, 0usize, 0.0f64); // (dist_sq, seg index, t)
        self.for_candidates(p, |ci| {
            let i = ci as usize;
            let a = self.center[i];
            let b = self.center[(i + 1) % n];
            let (d2, t) = point_segment_dist_sq(p, a, b);
            if d2 < best.0 {
                best = (d2, i, t);
            }
        });
        let (_, i, t) = best;
        let j = (i + 1) % n;
        let a = self.center[i];
        let b = self.center[j];
        let closest = a.lerp(b, t);
        let tangent = (self.tangent[i] * (1.0 - t) + self.tangent[j] * t).normalized();
        let lateral = tangent.cross(p - closest).signum() * p.dist(closest);
        // Interpolated, wrap-aware station.
        let seg_len = a.dist(b);
        let s = self.wrap_station(self.station[i] + t * seg_len);
        let hw = self.half_width[i] * (1.0 - t) + self.half_width[j] * t;
        let curvature = self.curvature[i] * (1.0 - t) + self.curvature[j] * t;
        TrackProjection {
            s,
            lateral,
            heading: tangent.angle(),
            curvature,
            on_track: lateral.abs() <= hw,
        }
    }

    /// Classify the ground at world point `p`: boundary tape line, drivable
    /// surface, or off-track. The tape is centred on each edge.
    ///
    /// Answers come from a lazily filled two-level cache where a cell's
    /// class is provably uniform, and from the exact projection elsewhere;
    /// both give the same answer for every point.
    pub fn surface_at(&self, p: Vec2) -> Surface {
        self.surface_cache
            .0
            .get_or_init(|| SurfaceCache::new(self))
            .surface_at(self, p)
    }

    /// `surface_at` from one exact projection.
    fn exact_surface_at(&self, p: Vec2) -> Surface {
        let proj = self.project(p);
        let i = self.index_at(proj.s);
        let hw = self.half_width[i];
        let d_edge = (proj.lateral.abs() - hw).abs();
        if d_edge <= TAPE_WIDTH / 2.0 {
            Surface::Line
        } else if proj.lateral.abs() < hw {
            Surface::Asphalt
        } else {
            Surface::Off
        }
    }

    /// Signed distance from `p` to the nearest track edge: negative inside
    /// the track, positive outside.
    pub fn edge_distance(&self, p: Vec2) -> f64 {
        let proj = self.project(p);
        let i = self.index_at(proj.s);
        proj.lateral.abs() - self.half_width[i]
    }

    /// Inner (tape) line length — perimeter of the left-edge loop. For the
    /// paper's oval this should reproduce ~330 in.
    pub fn inner_line_length(&self) -> f64 {
        self.edge_length(true)
    }

    /// Outer line length — perimeter of the right-edge loop (~509 in for the
    /// paper's oval).
    pub fn outer_line_length(&self) -> f64 {
        self.edge_length(false)
    }

    fn edge_length(&self, left: bool) -> f64 {
        let pts: Vec<Vec2> = (0..self.center.len())
            .map(|i| {
                let hw = self.half_width[i];
                let off = if left { hw } else { -hw };
                self.center[i] + self.tangent[i].perp() * off
            })
            .collect();
        crate::polyline::closed_length(&pts)
    }

    /// The start/finish pose: centerline point at s=0 with its heading.
    pub fn start_pose(&self) -> (Vec2, f64) {
        (self.center[0], self.tangent[0].angle())
    }

    /// Forward arc distance from station `from` to station `to` (wraps).
    pub fn forward_distance(&self, from: f64, to: f64) -> f64 {
        let d = self.wrap_station(to) - self.wrap_station(from);
        if d < 0.0 {
            d + self.length
        } else {
            d
        }
    }
}

/// Edge of a fine cache cell, meters.
const FINE_CELL: f64 = 0.01;
/// Fine cells along a coarse block's edge: blocks are 16 cm.
const BLOCK_CELLS: usize = 16;
/// Cell states: not yet classified, one of the three surfaces, or mixed
/// (the cell may straddle a band edge, so each point takes the exact path).
const UNKNOWN: u8 = 0;
const LINE: u8 = 1;
const ASPHALT: u8 = 2;
const OFF: u8 = 3;
const MIXED: u8 = 4;
/// Slack on every bound, far above the rounding of `project`.
const BOUND_EPS: f64 = 1e-9;

type FineCells = Box<[AtomicU8; BLOCK_CELLS * BLOCK_CELLS]>;

/// Shared, lazily built `SurfaceCache`: a fresh slot costs one allocation,
/// so building a `Track` does no classification work.
#[derive(Clone, Default)]
struct SurfaceCacheSlot(Arc<OnceLock<SurfaceCache>>);

/// Prints the same text whether or not the cache is warm, so a track's
/// `Debug` output never depends on which lookups ran before.
impl std::fmt::Debug for SurfaceCacheSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SurfaceCache")
    }
}

/// Two-level surface-class cache over the projection grid's bounding box:
/// 16 cm blocks, and 1 cm fine cells inside blocks that are not uniform.
/// A block or cell is classified on first touch from one `project` at its
/// centre; every state is a pure function of the track, so the order of
/// first touches never changes an answer.
struct SurfaceCache {
    origin: Vec2,
    /// Fine cells across / down the box (whole blocks).
    cols: usize,
    rows: usize,
    block_cols: usize,
    /// Smallest and largest half-width: `surface_at` compares against the
    /// half-width at the projected station, which lies between them.
    hw_min: f64,
    hw_max: f64,
    /// Distance to the centerline below which `project` is exact (see
    /// `SurfaceCache::new`).
    reach: f64,
    blocks: Box<[AtomicU8]>,
    /// Fine cells, allocated only for mixed blocks.
    cells: Box<[OnceLock<FineCells>]>,
}

impl SurfaceCache {
    fn new(track: &Track) -> SurfaceCache {
        let block = FINE_CELL * BLOCK_CELLS as f64;
        let block_cols = (track.grid_cols as f64 * track.grid_cell / block).ceil() as usize;
        let block_rows = (track.grid_rows as f64 * track.grid_cell / block).ceil() as usize;
        let n = track.center.len();
        let max_seg = (0..n)
            .map(|i| track.center[i].dist(track.center[(i + 1) % n]))
            .fold(0.0, f64::max);
        let hw = &track.half_width;
        SurfaceCache {
            origin: track.grid_origin,
            cols: block_cols * BLOCK_CELLS,
            rows: block_rows * BLOCK_CELLS,
            block_cols,
            hw_min: hw.iter().cloned().fold(f64::INFINITY, f64::min),
            hw_max: hw.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            // A point at distance d from the centerline has the start sample
            // of its nearest segment within d + max_seg; below two grid
            // cells that sample is registered in a cell `for_candidates`
            // scans, so `project` finds the true nearest segment.
            reach: 2.0 * track.grid_cell - max_seg,
            blocks: (0..block_cols * block_rows)
                .map(|_| AtomicU8::new(UNKNOWN))
                .collect(),
            cells: (0..block_cols * block_rows)
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    fn surface_at(&self, track: &Track, p: Vec2) -> Surface {
        let fx = ((p.x - self.origin.x) / FINE_CELL).floor();
        let fy = ((p.y - self.origin.y) / FINE_CELL).floor();
        if !(fx >= 0.0 && fy >= 0.0 && fx < self.cols as f64 && fy < self.rows as f64) {
            return track.exact_surface_at(p);
        }
        let (ix, iy) = (fx as usize, fy as usize);
        let (bx, by) = (ix / BLOCK_CELLS, iy / BLOCK_CELLS);
        let b = by * self.block_cols + bx;
        let block = state(&self.blocks[b], || {
            self.classify(track, bx * BLOCK_CELLS, by * BLOCK_CELLS, BLOCK_CELLS)
        });
        if block != MIXED {
            return decode(block);
        }
        let cells =
            self.cells[b].get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU8::new(UNKNOWN))));
        let cell = &cells[(iy % BLOCK_CELLS) * BLOCK_CELLS + ix % BLOCK_CELLS];
        match state(cell, || self.classify(track, ix, iy, 1)) {
            MIXED => track.exact_surface_at(p),
            s => decode(s),
        }
    }

    /// Classify the square of `n`×`n` fine cells whose corner is fine cell
    /// `(x, y)`. Distance to the centerline is 1-Lipschitz, so every point
    /// of the square lies within the square's half-diagonal of the centre's
    /// distance; the square is uniform when that whole interval falls
    /// inside one band for every half-width.
    fn classify(&self, track: &Track, x: usize, y: usize, n: usize) -> u8 {
        let half = n as f64 / 2.0;
        let centre = Vec2::new(
            self.origin.x + (x as f64 + half) * FINE_CELL,
            self.origin.y + (y as f64 + half) * FINE_CELL,
        );
        let r = half * FINE_CELL * std::f64::consts::SQRT_2 + BOUND_EPS;
        let lateral = track.project(centre).lateral.abs();
        let tape = TAPE_WIDTH / 2.0;
        // Beyond `reach` the projection may miss the nearest segment and
        // overstate the distance, so only the lower bound min(d, reach)
        // holds there.
        let lo = lateral.min(self.reach) - r;
        let hi = lateral + r;
        if lo > self.hw_max + tape {
            OFF
        } else if hi >= self.reach {
            MIXED
        } else if hi < self.hw_min - tape {
            ASPHALT
        } else if lo >= self.hw_max - tape && hi <= self.hw_min + tape {
            LINE
        } else {
            MIXED
        }
    }
}

/// The state in `slot`, classified on first touch. `Relaxed` suffices: a
/// state publishes no other data, and racing first touches store the same
/// value.
fn state(slot: &AtomicU8, classify: impl FnOnce() -> u8) -> u8 {
    match slot.load(Ordering::Relaxed) {
        UNKNOWN => {
            let s = classify();
            slot.store(s, Ordering::Relaxed);
            s
        }
        s => s,
    }
}

fn decode(state: u8) -> Surface {
    match state {
        LINE => Surface::Line,
        ASPHALT => Surface::Asphalt,
        _ => Surface::Off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{circle_track, paper_oval};

    #[test]
    fn circle_track_basic_queries() {
        let t = circle_track(5.0, 0.8);
        assert!((t.length() - 2.0 * std::f64::consts::PI * 5.0).abs() < 0.1);
        assert!((t.mean_width() - 0.8).abs() < 1e-9);

        // A point on the centerline projects with ~zero lateral.
        let p = t.point_at(3.0);
        let proj = t.project(p);
        assert!(proj.lateral.abs() < 1e-6);
        assert!(proj.on_track);
        assert!((proj.s - 3.0).abs() < 0.1);
    }

    #[test]
    fn lateral_sign_is_left_positive() {
        let t = circle_track(5.0, 0.8);
        let s = 1.0;
        let left = t.offset_point(s, 0.2);
        let right = t.offset_point(s, -0.2);
        assert!(t.project(left).lateral > 0.1);
        assert!(t.project(right).lateral < -0.1);
    }

    #[test]
    fn off_track_detection() {
        let t = circle_track(5.0, 0.8);
        let far = t.offset_point(2.0, 3.0);
        let proj = t.project(far);
        assert!(!proj.on_track);
        assert!(t.edge_distance(far) > 0.0);
        let near = t.offset_point(2.0, 0.1);
        assert!(t.project(near).on_track);
        assert!(t.edge_distance(near) < 0.0);
    }

    #[test]
    fn surface_classification_bands() {
        let t = circle_track(5.0, 0.8);
        assert_eq!(t.surface_at(t.point_at(0.0)), Surface::Asphalt);
        // Exactly on the left edge → tape.
        assert_eq!(t.surface_at(t.offset_point(0.0, 0.4)), Surface::Line);
        assert_eq!(t.surface_at(t.offset_point(0.0, 1.5)), Surface::Off);
    }

    #[test]
    fn stations_wrap() {
        let t = circle_track(2.0, 0.5);
        let len = t.length();
        assert!((t.wrap_station(len + 1.0) - 1.0).abs() < 1e-9);
        assert!((t.wrap_station(-1.0) - (len - 1.0)).abs() < 1e-9);
        assert!((t.forward_distance(len - 1.0, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn winding_normalised_ccw() {
        // Clockwise input gets flipped; curvature of a circle is then +1/r.
        let pts: Vec<Vec2> = (0..64)
            .map(|i| {
                let a = -2.0 * std::f64::consts::PI * i as f64 / 64.0;
                Vec2::new(3.0 * a.cos(), 3.0 * a.sin())
            })
            .collect();
        let t = Track::from_centerline("cw-circle", &pts, 0.5);
        assert!(t.curvature_at(1.0) > 0.0);
    }

    #[test]
    fn paper_oval_line_lengths_match_paper() {
        let t = paper_oval();
        let inner_in = t.inner_line_length() / crate::INCH;
        let outer_in = t.outer_line_length() / crate::INCH;
        // Paper: inner 330 in, outer 509 in, average width 27.59 in.
        assert!(
            (inner_in - 330.0).abs() < 8.0,
            "inner line {inner_in:.1} in, expected ~330"
        );
        assert!(
            (outer_in - 509.0).abs() < 10.0,
            "outer line {outer_in:.1} in, expected ~509"
        );
        let width_in = t.mean_width() / crate::INCH;
        assert!(
            (width_in - 27.59).abs() < 2.0,
            "width {width_in:.2} in, expected ~27.59"
        );
    }

    #[test]
    fn projection_station_roundtrip_on_oval() {
        let t = paper_oval();
        for k in 0..20 {
            let s = t.length() * k as f64 / 20.0;
            let p = t.offset_point(s, 0.1);
            let proj = t.project(p);
            let ds = t.forward_distance(s, proj.s).min(t.forward_distance(proj.s, s));
            assert!(ds < 0.15, "station error {ds} at s={s}");
            assert!((proj.lateral - 0.1).abs() < 0.05);
        }
    }

    #[test]
    fn heading_matches_tangent() {
        let t = circle_track(4.0, 0.6);
        let s = 0.0;
        let h = t.heading_at(s);
        let p0 = t.point_at(s);
        let p1 = t.point_at(s + 0.2);
        let emp = (p1 - p0).angle();
        assert!(crate::geometry::wrap_angle(h - emp).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least 3 waypoints")]
    fn rejects_degenerate_centerline() {
        let _ = Track::from_centerline("bad", &[Vec2::ZERO, Vec2::new(1.0, 0.0)], 0.5);
    }

    #[test]
    fn serde_roundtrip_preserves_queries() {
        // Tracks ship inside artifacts/object-store blobs; projection must
        // survive (the spatial grid serialises with the track; the surface
        // cache does not, so `back` answers from a fresh one).
        let t = circle_track(3.0, 0.7);
        let json = serde_json::to_string(&t).unwrap();
        let back: Track = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.length(), t.length());
        let p = t.offset_point(2.0, 0.1);
        let a = t.project(p);
        let b = back.project(p);
        // JSON float text roundtrips to within an ulp.
        assert!((a.s - b.s).abs() < 1e-9);
        assert!((a.lateral - b.lateral).abs() < 1e-9);
        assert_eq!(t.surface_at(p), back.surface_at(p));
    }
}

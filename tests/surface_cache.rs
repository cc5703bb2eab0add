//! `Track::surface_at` answers from a lazily filled cache; these tests hold
//! every answer equal to an oracle built only from the public exact path
//! (`project`, `width_at`, `TAPE_WIDTH`), whatever order points are first
//! touched in, across clones sharing one cache and across a serde round
//! trip that starts a fresh one.

use autolearn_track::track::TAPE_WIDTH;
use autolearn_track::{
    circle_track, paper_oval, random_track, waveshare_track, RandomTrackConfig, Surface, Track,
    Vec2,
};
use autolearn_util::rng::rng_from_seed;
use proptest::prelude::*;
use rand::Rng;

/// The three bands, from one exact projection.
fn oracle(t: &Track, p: Vec2) -> Surface {
    let proj = t.project(p);
    let hw = t.width_at(proj.s) / 2.0;
    if (proj.lateral.abs() - hw).abs() <= TAPE_WIDTH / 2.0 {
        Surface::Line
    } else if proj.lateral.abs() < hw {
        Surface::Asphalt
    } else {
        Surface::Off
    }
}

fn tracks() -> Vec<(String, Track)> {
    let mut out = vec![
        ("paper_oval".to_string(), paper_oval()),
        ("waveshare".to_string(), waveshare_track()),
        ("circle(3.0, 0.8)".to_string(), circle_track(3.0, 0.8)),
        ("circle(1.5, 0.5)".to_string(), circle_track(1.5, 0.5)),
        ("wobbly circle".to_string(), wobbly_circle()),
    ];
    for seed in 0..20 {
        out.push((
            format!("random_track({seed})"),
            random_track(seed, &RandomTrackConfig::default()),
        ));
    }
    out
}

/// A circle whose width swings between 0.5 m and 0.9 m, so a cached class
/// must hold for every half-width along the track, not just one.
fn wobbly_circle() -> Track {
    let n = 96;
    let (pts, widths): (Vec<Vec2>, Vec<f64>) = (0..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            (Vec2::new(3.0 * a.cos(), 3.0 * a.sin()), 0.7 + 0.2 * (3.0 * a).sin())
        })
        .unzip();
    Track::from_centerline_var_width("wobbly circle", &pts, &widths)
}

/// The projection grid spans the centerline's bounding box plus the
/// largest half-width and a metre; return that box grown by `beyond`.
fn grid_box(t: &Track, beyond: f64) -> (Vec2, Vec2) {
    let (mut lo, mut hi) = (Vec2::new(f64::MAX, f64::MAX), Vec2::new(f64::MIN, f64::MIN));
    let mut max_hw: f64 = 0.0;
    let mut s = 0.0;
    while s < t.length() {
        let c = t.point_at(s);
        lo = Vec2::new(lo.x.min(c.x), lo.y.min(c.y));
        hi = Vec2::new(hi.x.max(c.x), hi.y.max(c.y));
        max_hw = max_hw.max(t.width_at(s) / 2.0);
        s += 0.02;
    }
    let m = max_hw + 1.0 + beyond;
    (lo - Vec2::new(m, m), hi + Vec2::new(m, m))
}

/// Offsets along the centerline, dense across both tape bands, plus
/// uniform points across and beyond the grid's bounding box.
fn probe_points(t: &Track, seed: u64, n: usize) -> Vec<Vec2> {
    let mut rng = rng_from_seed(seed);
    let mut pts = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let s = rng.gen_range(0.0..t.length());
        let hw = t.width_at(s) / 2.0;
        let lateral = match rng.gen_range(0..3) {
            // Near an edge: the tape band and a few cells either side.
            0 => (hw + rng.gen_range(-0.06..0.06)) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
            _ => rng.gen_range(-(hw + 1.2)..(hw + 1.2)),
        };
        pts.push(t.offset_point(s, lateral));
    }
    let (lo, hi) = grid_box(t, 0.5);
    for _ in 0..n {
        pts.push(Vec2::new(
            rng.gen_range(lo.x..hi.x),
            rng.gen_range(lo.y..hi.y),
        ));
    }
    pts
}

fn answers(t: &Track, pts: &[Vec2]) -> Vec<Surface> {
    pts.iter().map(|&p| t.surface_at(p)).collect()
}

fn assert_matches_oracle(name: &str, t: &Track, pts: &[Vec2], got: &[Surface]) {
    for (&p, &g) in pts.iter().zip(got) {
        assert_eq!(g, oracle(t, p), "{name}: surface_at({p:?})");
    }
}

#[test]
fn cached_surface_matches_the_exact_path_on_every_track() {
    for (i, (name, t)) in tracks().iter().enumerate() {
        let pts = probe_points(t, 1000 + i as u64, 6000);
        assert_matches_oracle(name, t, &pts, &answers(t, &pts));
        // A second pass answers from the now-warm cache.
        assert_matches_oracle(name, t, &pts, &answers(t, &pts));
    }
}

#[test]
fn visit_order_clones_and_serde_round_trips_agree() {
    type Build = fn() -> Track;
    let builders: [(&str, Build); 3] = [
        ("paper_oval", paper_oval),
        ("circle(3.0, 0.8)", || circle_track(3.0, 0.8)),
        ("random_track(7)", || {
            random_track(7, &RandomTrackConfig::default())
        }),
    ];
    for (name, build) in builders {
        let t = build();
        let pts = probe_points(&t, 42, 4000);
        let forward = answers(&t, &pts);
        assert_matches_oracle(name, &t, &pts, &forward);

        // A fresh track touched in the reverse order.
        let fresh = build();
        let mut backward: Vec<Surface> = pts.iter().rev().map(|&p| fresh.surface_at(p)).collect();
        backward.reverse();
        assert_eq!(forward, backward, "{name}: visit order changed an answer");

        // A clone shares the warm cache.
        let clone = t.clone();
        assert_eq!(forward, answers(&clone, &pts), "{name}: clone disagrees");

        // A serde round trip starts from a fresh cache.
        let back: Track = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(
            forward,
            answers(&back, &pts),
            "{name}: serde round trip disagrees"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any procedural track, any roughness and width: cached == exact.
    #[test]
    fn random_tracks_match_the_exact_path(
        seed in 20u64..100_000,
        roughness in 0.0f64..0.35,
        width in 0.3f64..1.2,
        point_seed in 0u64..1_000_000,
    ) {
        let t = random_track(seed, &RandomTrackConfig { roughness, width, ..Default::default() });
        let pts = probe_points(&t, point_seed, 1500);
        for &p in &pts {
            prop_assert_eq!(t.surface_at(p), oracle(&t, p), "surface_at({:?})", p);
        }
    }
}

//! The 20 Hz sense → decide → act loop.
//!
//! Mirrors DonkeyCar's parts loop: render the camera, ask the pilot for
//! controls, apply them to the vehicle, and keep the bookkeeping the
//! paper's evaluation step asks students to measure — lap times, speed,
//! number of errors (off-track excursions and crashes).
//!
//! The loop can inject a perceive→act latency: controls computed from the
//! frame at time `t` take effect at `t + control_latency`. Setting that
//! latency to a network round-trip turns the same loop into the cloud- or
//! hybrid-inference car of the Zheng SC'23 poster experiment.

use crate::camera::{Camera, CameraConfig};
use crate::pilot::{Controls, Observation, Pilot};
use crate::vehicle::{CarConfig, Vehicle, VehicleState};
use autolearn_track::geometry::wrap_angle;
use autolearn_track::{Track, TrackProjection};
use autolearn_util::{Image, RunningStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Loop configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriveConfig {
    /// Control frequency (DonkeyCar default 20 Hz).
    pub hz: f64,
    /// Perceive→act delay, s. 0 = on-board inference.
    pub control_latency: f64,
    /// Meters beyond the track edge counted as a crash.
    pub crash_margin: f64,
    /// Put the car back on the centerline after a crash (a human would).
    pub reset_after_crash: bool,
    /// Keep camera frames in the session result (off for long evaluations).
    pub store_images: bool,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            hz: 20.0,
            control_latency: 0.0,
            crash_margin: 0.30,
            reset_after_crash: true,
            store_images: true,
        }
    }
}

/// One recorded tick.
#[derive(Debug, Clone)]
pub struct Frame {
    pub t: f64,
    /// Present when `store_images` is on.
    pub image: Option<Image>,
    /// Controls *commanded* this tick (what a tub would record).
    pub controls: Controls,
    pub state: VehicleState,
    pub proj: TrackProjection,
    pub off_track: bool,
    pub crashed: bool,
}

/// Per-lap metrics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LapStats {
    pub lap: usize,
    pub time_s: f64,
    pub mean_speed: f64,
    pub off_track_ticks: usize,
    pub crashes: usize,
}

/// Everything measured over a session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    pub frames: Vec<Frame>,
    pub laps: Vec<LapStats>,
    pub ticks: usize,
    pub duration_s: f64,
    pub distance_m: f64,
    pub crashes: usize,
    pub off_track_ticks: usize,
}

impl SessionResult {
    /// Fraction of ticks spent on-track: the evaluation module's headline
    /// "autonomy" number.
    pub fn autonomy(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        1.0 - self.off_track_ticks as f64 / self.ticks as f64
    }

    pub fn mean_speed(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.distance_m / self.duration_s
        } else {
            0.0
        }
    }

    pub fn completed_laps(&self) -> usize {
        self.laps.len()
    }

    pub fn mean_lap_time(&self) -> f64 {
        if self.laps.is_empty() {
            return 0.0;
        }
        self.laps.iter().map(|l| l.time_s).sum::<f64>() / self.laps.len() as f64
    }

    /// Coefficient of variation of lap times — the Fowler poster's
    /// consistency metric.
    pub fn lap_time_cv(&self) -> f64 {
        let mut s = RunningStats::new();
        s.extend(self.laps.iter().map(|l| l.time_s));
        s.cv()
    }

    /// Errors per lap (off-track excursions + crashes), the paper's
    /// "measuring qualities of interest (speed, number of errors)".
    pub fn errors_per_lap(&self) -> f64 {
        if self.laps.is_empty() {
            return (self.crashes + self.off_track_ticks) as f64;
        }
        self.laps
            .iter()
            .map(|l| l.crashes as f64 + (l.off_track_ticks > 0) as u8 as f64)
            .sum::<f64>()
            / self.laps.len() as f64
    }
}

/// Car body radius for obstacle collisions, m.
const CAR_RADIUS: f64 = 0.12;

/// A car on a track with a camera (and optionally obstacles).
pub struct Simulation {
    pub track: Track,
    pub vehicle: Vehicle,
    pub camera: Camera,
    pub config: DriveConfig,
    pub obstacles: Vec<crate::world::Obstacle>,
}

impl Simulation {
    pub fn new(
        track: Track,
        car: CarConfig,
        camera: CameraConfig,
        config: DriveConfig,
    ) -> Simulation {
        let (pos, heading) = track.start_pose();
        let vehicle = Vehicle::new(car, VehicleState::at(pos, heading));
        Simulation {
            track,
            vehicle,
            camera: Camera::new(camera),
            config,
            obstacles: Vec::new(),
        }
    }

    /// Place an obstacle on the track at station `s`, offset `lateral`.
    pub fn add_obstacle(&mut self, s: f64, lateral: f64, radius: f64) {
        let pos = self.track.offset_point(s, lateral);
        self.obstacles.push(crate::world::Obstacle::new(pos, radius));
    }

    /// Drive for `duration_s` seconds.
    pub fn run(&mut self, pilot: &mut dyn Pilot, duration_s: f64) -> SessionResult {
        self.run_until(pilot, duration_s, usize::MAX)
    }

    /// Drive until `laps` laps complete or `max_duration_s` elapses.
    pub fn run_laps(
        &mut self,
        pilot: &mut dyn Pilot,
        laps: usize,
        max_duration_s: f64,
    ) -> SessionResult {
        self.run_until(pilot, max_duration_s, laps)
    }

    fn run_until(
        &mut self,
        pilot: &mut dyn Pilot,
        max_duration_s: f64,
        max_laps: usize,
    ) -> SessionResult {
        let dt = 1.0 / self.config.hz;
        let total_ticks = (max_duration_s * self.config.hz).ceil() as usize;
        let track_len = self.track.length();

        let mut frames = Vec::new();
        let mut laps = Vec::new();
        let mut pending: VecDeque<(f64, Controls)> = VecDeque::new();
        let mut applied = Controls::COAST;
        let mut last_commanded = Controls::COAST;

        let mut crashes = 0usize;
        let mut off_track_ticks = 0usize;
        let mut distance = 0.0f64;

        // The car's projection, kept current: one `project` per position.
        let mut here = self.track.project(self.vehicle.state.pos);

        // Lap bookkeeping.
        let mut prev_s = here.s;
        let mut progress = 0.0f64;
        let mut lap_start_t = 0.0f64;
        let mut lap_speed = RunningStats::new();
        let mut lap_off = 0usize;
        let mut lap_crashes = 0usize;

        for tick in 0..total_ticks {
            let t = tick as f64 * dt;

            // Sense.
            let image =
                self.camera
                    .render_scene(&self.track, &self.obstacles, &self.vehicle.state);
            let proj = here;
            let heading_err = wrap_angle(proj.heading - self.vehicle.state.heading);
            let pilot_proj = TrackProjection {
                heading: heading_err,
                ..proj
            };
            let measured_speed = self.vehicle.measured_speed();

            // Decide.
            let commanded = pilot.control(&Observation {
                image: &image,
                measured_speed,
                last_controls: last_commanded,
                ground_truth: Some(pilot_proj),
                t,
            });
            last_commanded = commanded;
            pending.push_back((t + self.config.control_latency, commanded));
            while let Some(&(apply_t, c)) = pending.front() {
                if apply_t <= t + 1e-9 {
                    applied = c;
                    pending.pop_front();
                } else {
                    break;
                }
            }

            // Act.
            self.vehicle.step(applied.steering, applied.throttle, dt);
            distance += self.vehicle.state.speed * dt;
            lap_speed.push(self.vehicle.state.speed);

            // Classify the new position.
            let post = self.track.project(self.vehicle.state.pos);
            here = post;
            // `Track::edge_distance` without projecting again.
            let edge = post.lateral.abs() - self.track.width_at(post.s) / 2.0;
            let off = !post.on_track;
            let hit_obstacle = self
                .obstacles
                .iter()
                .any(|o| o.collides(self.vehicle.state.pos, CAR_RADIUS));
            let crashed = edge > self.config.crash_margin || hit_obstacle;
            if off {
                off_track_ticks += 1;
                lap_off += 1;
            }
            if crashed {
                crashes += 1;
                lap_crashes += 1;
                if self.config.reset_after_crash {
                    // After an obstacle strike a human places the car just
                    // past the obstacle; after a lane departure, where it
                    // left.
                    let s = if hit_obstacle {
                        self.track.wrap_station(post.s + 0.6)
                    } else {
                        post.s
                    };
                    let pos = self.track.point_at(s);
                    let heading = self.track.heading_at(s);
                    self.vehicle.reset_to(pos, heading);
                    here = self.track.project(self.vehicle.state.pos);
                    pilot.notify_reset();
                    pending.clear();
                    applied = Controls::COAST;
                }
            }

            // Lap accounting on wrapped progress.
            let s_now = here.s;
            let mut ds = s_now - prev_s;
            if ds > track_len / 2.0 {
                ds -= track_len;
            } else if ds < -track_len / 2.0 {
                ds += track_len;
            }
            // A crash reset teleports along the track; don't count it as
            // progress beyond the small snap distance.
            progress += ds;
            prev_s = s_now;
            if progress >= track_len {
                progress -= track_len;
                let lap_t = t + dt - lap_start_t;
                laps.push(LapStats {
                    lap: laps.len(),
                    time_s: lap_t,
                    mean_speed: lap_speed.mean(),
                    off_track_ticks: lap_off,
                    crashes: lap_crashes,
                });
                lap_start_t = t + dt;
                lap_speed = RunningStats::new();
                lap_off = 0;
                lap_crashes = 0;
            }

            frames.push(Frame {
                t,
                image: if self.config.store_images {
                    Some(image)
                } else {
                    None
                },
                controls: commanded,
                state: self.vehicle.state,
                proj: post,
                off_track: off,
                crashed,
            });

            if laps.len() >= max_laps {
                break;
            }
        }

        let ticks = frames.len();
        SessionResult {
            frames,
            laps,
            ticks,
            duration_s: ticks as f64 * dt,
            distance_m: distance,
            crashes,
            off_track_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pilot::{ConstantPilot, LinePilot, LinePilotConfig};
    use autolearn_track::{circle_track, paper_oval};

    fn quiet_pilot() -> LinePilot {
        LinePilot::new(LinePilotConfig {
            steering_jitter: 0.0,
            ..Default::default()
        })
    }

    fn sim(track: autolearn_track::Track) -> Simulation {
        Simulation::new(
            track,
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig::default(),
        )
    }

    #[test]
    fn line_pilot_stays_on_track() {
        let mut s = sim(circle_track(3.0, 0.8));
        let result = s.run(&mut quiet_pilot(), 30.0);
        assert_eq!(result.crashes, 0, "crashed {} times", result.crashes);
        assert!(result.autonomy() > 0.97, "autonomy {}", result.autonomy());
        assert!(result.distance_m > 10.0);
    }

    #[test]
    fn line_pilot_laps_the_paper_oval() {
        let mut s = sim(paper_oval());
        let result = s.run_laps(&mut quiet_pilot(), 2, 120.0);
        assert!(
            result.completed_laps() >= 2,
            "only {} laps in 120 s",
            result.completed_laps()
        );
        let lap = &result.laps[0];
        assert!(lap.time_s > 3.0 && lap.time_s < 60.0, "lap {}s", lap.time_s);
        assert!(lap.mean_speed > 0.3);
    }

    #[test]
    fn frames_are_recorded_at_hz() {
        let mut s = sim(circle_track(3.0, 0.8));
        let result = s.run(&mut quiet_pilot(), 2.0);
        assert_eq!(result.ticks, 40);
        assert!(result.frames[0].image.is_some());
        assert!((result.frames[1].t - 0.05).abs() < 1e-9);
    }

    #[test]
    fn store_images_off_drops_frames_images() {
        let mut s = Simulation::new(
            circle_track(3.0, 0.8),
            CarConfig::default(),
            CameraConfig::small(),
            DriveConfig {
                store_images: false,
                ..Default::default()
            },
        );
        let result = s.run(&mut quiet_pilot(), 1.0);
        assert!(result.frames.iter().all(|f| f.image.is_none()));
    }

    #[test]
    fn full_throttle_blind_pilot_crashes() {
        let mut s = sim(circle_track(2.0, 0.6));
        let mut pilot = ConstantPilot(Controls::new(0.0, 1.0));
        let result = s.run(&mut pilot, 20.0);
        assert!(result.crashes > 0, "straight-line pilot must leave a circle");
        assert!(result.autonomy() < 1.0);
    }

    #[test]
    fn crash_reset_puts_car_back() {
        let mut s = sim(circle_track(2.0, 0.6));
        let mut pilot = ConstantPilot(Controls::new(0.0, 1.0));
        let result = s.run(&mut pilot, 30.0);
        // After every crash the car returns on-track, so the last frame
        // should generally be near the track.
        assert!(result.crashes >= 2);
        let back_on_track = result
            .frames
            .windows(2)
            .filter(|w| w[0].crashed && w[1].proj.on_track)
            .count();
        assert!(back_on_track >= 1);
    }

    #[test]
    fn latency_degrades_driving() {
        let run_with_latency = |latency: f64| {
            let mut s = Simulation::new(
                circle_track(1.5, 0.5),
                CarConfig::default(),
                CameraConfig::small(),
                DriveConfig {
                    control_latency: latency,
                    ..Default::default()
                },
            );
            let mut pilot = LinePilot::new(LinePilotConfig {
                steering_jitter: 0.0,
                base_throttle: 0.75,
                min_throttle: 0.5,
                ..Default::default()
            });
            let r = s.run(&mut pilot, 30.0);
            (r.autonomy(), r.crashes)
        };
        let (auto_fast, _) = run_with_latency(0.0);
        let (auto_slow, crashes_slow) = run_with_latency(0.6);
        assert!(
            auto_slow < auto_fast || crashes_slow > 0,
            "0.6 s of latency must hurt: {auto_fast} vs {auto_slow}"
        );
    }

    #[test]
    fn lap_times_consistent_for_clean_pilot() {
        let mut s = sim(paper_oval());
        let result = s.run_laps(&mut quiet_pilot(), 4, 240.0);
        assert!(result.completed_laps() >= 3);
        assert!(
            result.lap_time_cv() < 0.2,
            "lap CV {} too high for a clean pilot",
            result.lap_time_cv()
        );
    }

    #[test]
    fn errors_per_lap_defined_without_laps() {
        let mut s = sim(circle_track(3.0, 0.8));
        let mut pilot = ConstantPilot(Controls::COAST);
        let r = s.run(&mut pilot, 2.0);
        assert_eq!(r.completed_laps(), 0);
        assert_eq!(r.mean_lap_time(), 0.0);
        assert_eq!(r.lap_time_cv(), 0.0);
        // No laps: errors_per_lap falls back to raw error count.
        assert!(r.errors_per_lap() >= 0.0);
    }

    #[test]
    fn lap_stats_fields_populated() {
        let mut s = sim(paper_oval());
        let r = s.run_laps(&mut quiet_pilot(), 2, 120.0);
        for (i, lap) in r.laps.iter().enumerate() {
            assert_eq!(lap.lap, i);
            assert!(lap.time_s > 0.0);
            assert!(lap.mean_speed > 0.0);
        }
        // Lap times sum to within a couple of ticks of total duration.
        let lap_total: f64 = r.laps.iter().map(|l| l.time_s).sum();
        assert!(lap_total <= r.duration_s + 0.1);
    }

    #[test]
    fn zero_duration_session_is_empty() {
        let mut s = sim(circle_track(3.0, 0.8));
        let r = s.run(&mut quiet_pilot(), 0.0);
        assert_eq!(r.ticks, 0);
        assert_eq!(r.autonomy(), 0.0);
        assert_eq!(r.mean_speed(), 0.0);
    }

    #[test]
    fn obstacle_stops_a_blind_pilot() {
        // The line pilot sees only the centerline, not obstacles: it drives
        // straight into one. (The obstacle-detection extension in the core
        // crate exists to fix exactly this.)
        let mut s = sim(circle_track(3.0, 0.8));
        let start_s = s.track.project(s.vehicle.state.pos).s;
        s.add_obstacle(s.track.wrap_station(start_s + 3.0), 0.0, 0.15);
        let result = s.run(&mut quiet_pilot(), 20.0);
        assert!(result.crashes > 0, "blind pilot must hit the obstacle");
    }

    #[test]
    fn obstacle_visible_in_camera() {
        let mut s = sim(circle_track(3.0, 0.8));
        let start_s = s.track.project(s.vehicle.state.pos).s;
        s.add_obstacle(s.track.wrap_station(start_s + 1.0), 0.0, 0.2);
        let img = s
            .camera
            .render_scene(&s.track, &s.obstacles, &s.vehicle.state);
        // Grayscale of [200,40,30] ≈ 86 — distinct from asphalt 70; count
        // pixels differing from an obstacle-free render.
        let clean = Camera::new(CameraConfig::small()).render(&s.track, &s.vehicle.state);
        let diff = img
            .data
            .iter()
            .zip(&clean.data)
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 5, "obstacle must show up in the frame ({diff} px)");
    }

    #[test]
    fn obstacle_reset_places_car_past_it() {
        let mut s = sim(circle_track(3.0, 0.8));
        let start_s = s.track.project(s.vehicle.state.pos).s;
        let obs_s = s.track.wrap_station(start_s + 3.0);
        s.add_obstacle(obs_s, 0.0, 0.15);
        let result = s.run(&mut quiet_pilot(), 30.0);
        // After the reset the car continues; with the obstacle sitting on
        // the line the pilot hits it roughly once per lap but keeps making
        // progress.
        assert!(result.distance_m > 5.0);
    }

    #[test]
    fn session_metrics_consistent() {
        let mut s = sim(circle_track(3.0, 0.8));
        let r = s.run(&mut quiet_pilot(), 10.0);
        assert!((r.duration_s - 10.0).abs() < 0.051);
        assert!(r.mean_speed() > 0.0);
        assert!(r.mean_speed() <= CarConfig::default().max_speed);
        assert_eq!(r.ticks, r.frames.len());
    }
}

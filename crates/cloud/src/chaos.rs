//! Fault-aware lease launches.
//!
//! [`launch_lease`] wraps [`ReservationSystem::on_demand`] with the cloud
//! half of the fault model: a seeded [`FaultPlan`] can make the launch fail
//! transiently (PXE timeout, image write error), report an
//! `InsufficientCapacity` window (the class ahead of you took every V100),
//! or let the lease start but schedule a preemption partway through the
//! work placed on it — the shared-testbed failure modes the paper's
//! students actually hit.

use crate::reservation::{LeaseId, ReservationError, ReservationSystem};
use autolearn_obs::{AttrValue, Obs};
use autolearn_util::fault::{FaultKind, FaultPlan, FaultSite};
use autolearn_util::{SimDuration, SimTime};

/// Simulated time for a successful on-demand lease launch: the lease API
/// round trip plus node power-on.
pub const LAUNCH_OVERHEAD_S: f64 = 25.0;

/// Simulated time wasted discovering that a node type has no free capacity
/// (the lease request is refused quickly).
pub const CAPACITY_PROBE_S: f64 = 5.0;

/// A lease that launched — possibly with a preemption already scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseLaunch {
    /// The admitted lease.
    pub lease: LeaseId,
    /// Simulated time the launch took.
    pub launch_time: SimDuration,
    /// If set, the lease will be revoked after this fraction of the work
    /// scheduled on it has completed.
    pub preempt_at_fraction: Option<f64>,
}

/// Why a lease launch failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The reservation calendar genuinely refused the request.
    Refused(ReservationError),
    /// Injected transient launch failure; retrying is reasonable.
    Transient { wasted: SimDuration },
    /// Injected capacity exhaustion: no free nodes of this type for
    /// `window`; fall back to another node type or wait it out.
    CapacityWindow {
        wasted: SimDuration,
        window: SimDuration,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Refused(e) => write!(f, "reservation refused: {e}"),
            LaunchError::Transient { wasted } => {
                write!(f, "transient launch failure ({wasted} wasted)")
            }
            LaunchError::CapacityWindow { window, .. } => {
                write!(f, "insufficient capacity for {window}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Launch an on-demand lease under fault injection. The fault draw is
/// labelled with `node_type` so the plan's log shows which hardware the
/// fault struck.
///
/// Telemetry: bumps `cloud.launch_attempts` (and `cloud.preemptions` when
/// the admitted lease carries a scheduled preemption), records freshly
/// injected faults as `fault` events, and emits `lease-admitted` /
/// `preemption-scheduled` / `launch-failed` events.
#[allow(clippy::too_many_arguments)]
pub fn launch_lease(
    rs: &mut ReservationSystem,
    project: &str,
    node_type: &str,
    nodes: u32,
    now: SimTime,
    duration: SimDuration,
    plan: &mut FaultPlan,
    obs: &mut Obs,
) -> Result<LeaseLaunch, LaunchError> {
    let faults_before = plan.injected().len();
    let result = match plan.draw(FaultSite::Cloud, node_type) {
        Some(FaultKind::LaunchFailure { wasted_s }) => Err(LaunchError::Transient {
            wasted: SimDuration::from_secs(wasted_s),
        }),
        Some(FaultKind::CapacityWindow { window_s }) => Err(LaunchError::CapacityWindow {
            wasted: SimDuration::from_secs(CAPACITY_PROBE_S),
            window: SimDuration::from_secs(window_s),
        }),
        drawn => {
            let preempt_at_fraction = match drawn {
                Some(FaultKind::Preemption { at_fraction }) => Some(at_fraction),
                _ => None,
            };
            rs.on_demand(project, node_type, nodes, now, duration)
                .map(|lease| LeaseLaunch {
                    lease,
                    launch_time: SimDuration::from_secs(LAUNCH_OVERHEAD_S),
                    preempt_at_fraction,
                })
                .map_err(LaunchError::Refused)
        }
    };
    obs.counter_add("cloud.launch_attempts", 1);
    obs.record_injected_faults(&plan.injected()[faults_before..]);
    match &result {
        Ok(launch) => {
            obs.event(
                "lease-admitted",
                vec![
                    ("node_type".to_string(), AttrValue::Str(node_type.to_string())),
                    (
                        "launch_s".to_string(),
                        AttrValue::F64(launch.launch_time.as_secs()),
                    ),
                ],
            );
            if let Some(at_fraction) = launch.preempt_at_fraction {
                obs.counter_add("cloud.preemptions", 1);
                obs.event(
                    "preemption-scheduled",
                    vec![
                        ("node_type".to_string(), AttrValue::Str(node_type.to_string())),
                        ("at_fraction".to_string(), AttrValue::F64(at_fraction)),
                    ],
                );
            }
        }
        Err(err) => {
            obs.event(
                "launch-failed",
                vec![
                    ("node_type".to_string(), AttrValue::Str(node_type.to_string())),
                    ("error".to_string(), AttrValue::Str(err.to_string())),
                ],
            );
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::Site;
    use autolearn_util::fault::FaultConfig;

    fn launch(plan: &mut FaultPlan) -> Result<LeaseLaunch, LaunchError> {
        let mut rs = ReservationSystem::new(Site::chameleon());
        launch_lease(
            &mut rs,
            "autolearn",
            "gpu_v100",
            1,
            SimTime::ZERO,
            SimDuration::from_hours(1.0),
            plan,
            &mut Obs::new(),
        )
    }

    #[test]
    fn calm_plan_launches_cleanly() {
        let l = launch(&mut FaultPlan::none()).unwrap();
        assert_eq!(l.launch_time.as_secs(), LAUNCH_OVERHEAD_S);
        assert_eq!(l.preempt_at_fraction, None);
    }

    #[test]
    fn genuine_refusals_pass_through_typed() {
        let mut rs = ReservationSystem::new(Site::chameleon());
        let err = launch_lease(
            &mut rs,
            "autolearn",
            "gpu_h100",
            1,
            SimTime::ZERO,
            SimDuration::from_hours(1.0),
            &mut FaultPlan::none(),
            &mut Obs::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::Refused(ReservationError::UnknownNodeType(_))
        ));
    }

    #[test]
    fn injected_faults_surface_as_typed_errors() {
        let mut seen_transient = false;
        let mut seen_capacity = false;
        let mut seen_preempt = false;
        for seed in 0..128 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            match launch(&mut plan) {
                Err(LaunchError::Transient { wasted }) => {
                    assert!(wasted.as_secs() > 0.0);
                    seen_transient = true;
                }
                Err(LaunchError::CapacityWindow { wasted, window }) => {
                    assert!(wasted.as_secs() > 0.0 && window.as_secs() > 0.0);
                    seen_capacity = true;
                }
                Ok(l) if l.preempt_at_fraction.is_some() => {
                    let f = l.preempt_at_fraction.unwrap();
                    assert!(f > 0.0 && f < 1.0);
                    seen_preempt = true;
                }
                _ => {}
            }
        }
        assert!(seen_transient && seen_capacity && seen_preempt);
    }

    #[test]
    fn launch_reports_events() {
        let mut seen_admit = false;
        let mut seen_fail = false;
        let mut seen_preempt = false;
        for seed in 0..128 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut rs = ReservationSystem::new(Site::chameleon());
            let mut obs = Obs::new();
            let launched = launch_lease(
                &mut rs,
                "autolearn",
                "gpu_v100",
                1,
                SimTime::ZERO,
                SimDuration::from_hours(1.0),
                &mut plan,
                &mut obs,
            );
            assert_eq!(obs.metrics().counter("cloud.launch_attempts"), 1);
            match launched {
                Ok(l) => {
                    assert_eq!(obs.trace().events_named("lease-admitted").count(), 1);
                    seen_admit = true;
                    if l.preempt_at_fraction.is_some() {
                        assert_eq!(obs.metrics().counter("cloud.preemptions"), 1);
                        assert_eq!(obs.trace().events_named("preemption-scheduled").count(), 1);
                        seen_preempt = true;
                    }
                }
                Err(_) => {
                    assert_eq!(obs.trace().events_named("launch-failed").count(), 1);
                    assert!(obs.metrics().counter("cloud.faults") >= 1);
                    seen_fail = true;
                }
            }
        }
        assert!(seen_admit && seen_fail && seen_preempt);
    }

    #[test]
    fn launch_outcome_deterministic_per_seed() {
        for seed in [4u64, 21, 77] {
            let mut a = FaultPlan::from_seed(seed, FaultConfig::chaos(0.8));
            let mut b = FaultPlan::from_seed(seed, FaultConfig::chaos(0.8));
            assert_eq!(launch(&mut a), launch(&mut b));
        }
    }
}

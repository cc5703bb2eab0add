//! Fault-aware, resumable transfers.
//!
//! [`ResumableTransfer`] is the rsync-shaped counterpart of
//! [`transfer_time`](crate::transfer::transfer_time): it consults a
//! [`FaultPlan`] on every attempt and tracks how much of the payload made it
//! across, so a retry after a mid-transfer fault only re-sends the delta
//! (plus a fresh handshake) — exactly what rsync does when a student's WiFi
//! drops halfway through a tub upload.

use crate::link::Path;
use crate::transfer::{overhead_time, serialisation_time, TransferSpec};
use autolearn_obs::{AttrValue, Obs};
use autolearn_util::fault::{FaultKind, FaultPlan, FaultSite};
use autolearn_util::SimDuration;

/// Why a transfer attempt died.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferFailure {
    /// The link dropped; it stays down for the carried duration.
    LinkFlap { downtime: SimDuration },
    /// The stream froze and the application timed out.
    Stall { stalled_for: SimDuration },
}

impl std::fmt::Display for TransferFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferFailure::LinkFlap { downtime } => {
                write!(f, "link flapped ({downtime} down)")
            }
            TransferFailure::Stall { stalled_for } => {
                write!(f, "transfer stalled ({stalled_for} timeout)")
            }
        }
    }
}

impl std::error::Error for TransferFailure {}

/// A bulk transfer that survives faults by resuming from where it died.
#[derive(Debug, Clone)]
pub struct ResumableTransfer {
    spec: TransferSpec,
    completed: f64,
}

impl ResumableTransfer {
    /// Start a transfer of `spec`; nothing has been sent yet.
    pub fn new(spec: TransferSpec) -> ResumableTransfer {
        ResumableTransfer {
            spec,
            completed: 0.0,
        }
    }

    /// Fraction of the payload that has crossed the path so far.
    pub fn completed_fraction(&self) -> f64 {
        self.completed
    }

    /// Whether the payload is fully across.
    pub fn is_complete(&self) -> bool {
        self.completed >= 1.0
    }

    /// Run one attempt over `path`, consulting `plan` at the fault site.
    ///
    /// On success, returns the simulated time the attempt took (handshake +
    /// latency/jitter + loss-adjusted serialisation of the *remaining*
    /// bytes; an injected degradation stretches it but does not fail it).
    /// On failure, returns the failure and the time charged before it —
    /// partial progress is kept, so the next attempt only re-sends the
    /// delta.
    ///
    /// Telemetry: bumps the `net.attempts` / `net.bytes_delivered` /
    /// `net.retransmit_attempts` counters, records any freshly injected
    /// faults as `fault` events, and emits a `transfer-failed` event when
    /// the attempt dies. Nothing on `obs` feeds back into the timing.
    pub fn attempt(
        &mut self,
        path: &Path,
        plan: &mut FaultPlan,
        op: &str,
        obs: &mut Obs,
    ) -> Result<SimDuration, (TransferFailure, SimDuration)> {
        let faults_before = plan.injected().len();
        let frac_before = self.completed;
        let remaining = (1.0 - self.completed).max(0.0);
        let overhead = overhead_time(path, &self.spec);
        let remaining_bytes = self.spec.bytes.scale_ceil(remaining);
        let ser = serialisation_time(path, remaining_bytes, self.spec.efficiency);
        let result = match plan.draw(FaultSite::Net, op) {
            Some(FaultKind::LinkFlap {
                at_fraction,
                downtime_s,
            }) => {
                self.completed += remaining * at_fraction;
                let downtime = SimDuration::from_secs(downtime_s);
                let charged = overhead + ser * at_fraction + downtime;
                Err((TransferFailure::LinkFlap { downtime }, charged))
            }
            Some(FaultKind::TransferStall { at_fraction, stall_s }) => {
                self.completed += remaining * at_fraction;
                let stalled_for = SimDuration::from_secs(stall_s);
                let charged = overhead + ser * at_fraction + stalled_for;
                Err((TransferFailure::Stall { stalled_for }, charged))
            }
            Some(FaultKind::LinkDegraded { bandwidth_factor }) => {
                // Slower, not fatal: the remaining bytes crawl across at a
                // fraction of the nominal bandwidth.
                self.completed = 1.0;
                let factor = bandwidth_factor.clamp(0.05, 1.0);
                Ok(overhead + ser / factor)
            }
            // Non-net kinds are never drawn for FaultSite::Net; treat any
            // future addition as a clean pass rather than a crash.
            Some(_) | None => {
                self.completed = 1.0;
                Ok(overhead + ser)
            }
        };
        obs.counter_add("net.attempts", 1);
        if frac_before > 0.0 {
            // A resume re-pays the handshake for bytes already counted once.
            obs.counter_add("net.retransmit_attempts", 1);
        }
        let delivered = self
            .spec
            .bytes
            .scale_ceil((self.completed - frac_before).max(0.0));
        obs.counter_add("net.bytes_delivered", delivered.get());
        obs.record_injected_faults(&plan.injected()[faults_before..]);
        if let Err((failure, charged)) = &result {
            obs.event(
                "transfer-failed",
                vec![
                    ("op".to_string(), AttrValue::Str(op.to_string())),
                    ("failure".to_string(), AttrValue::Str(failure.to_string())),
                    ("charged_s".to_string(), AttrValue::F64(charged.as_secs())),
                ],
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::transfer_time;
    use autolearn_util::fault::FaultConfig;
    use autolearn_util::units::Bytes;

    fn wifi() -> Path {
        Path::car_to_cloud()
    }

    #[test]
    fn fault_free_attempt_matches_transfer_time() {
        let spec = TransferSpec::rsync(Bytes::new(30_000_000));
        let mut t = ResumableTransfer::new(spec);
        let got = t
            .attempt(&wifi(), &mut FaultPlan::none(), "up", &mut Obs::new())
            .unwrap();
        assert_eq!(got, transfer_time(&wifi(), &spec));
        assert!(t.is_complete());
    }

    #[test]
    fn failed_attempt_keeps_partial_progress() {
        // Find a seed whose first net draw is a failing fault.
        for seed in 0..64 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut t = ResumableTransfer::new(TransferSpec::rsync(Bytes::new(30_000_000)));
            let first = t.attempt(&wifi(), &mut plan, "up", &mut Obs::new());
            if let Err((failure, charged)) = first {
                assert!(charged.as_secs() > 0.0, "{failure}: charged {charged}");
                assert!(t.completed_fraction() > 0.0 && t.completed_fraction() < 1.0);
                // The retry only re-sends the delta: strictly cheaper than a
                // cold full transfer would be, once the handshake is netted
                // out of both.
                let retry = t
                    .attempt(&wifi(), &mut FaultPlan::none(), "up", &mut Obs::new())
                    .expect("calm retry succeeds");
                let full = transfer_time(&wifi(), &TransferSpec::rsync(Bytes::new(30_000_000)));
                assert!(retry.as_secs() < full.as_secs(), "{retry} !< {full}");
                assert!(t.is_complete());
                return;
            }
        }
        panic!("no failing net fault found in 64 seeds");
    }

    #[test]
    fn degraded_attempt_succeeds_but_slower() {
        for seed in 0..64 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut probe = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let drawn = probe.draw(FaultSite::Net, "up");
            if let Some(FaultKind::LinkDegraded { .. }) = drawn {
                let spec = TransferSpec::rsync(Bytes::new(30_000_000));
                let mut t = ResumableTransfer::new(spec);
                let got = t
                    .attempt(&wifi(), &mut plan, "up", &mut Obs::new())
                    .unwrap();
                assert!(got.as_secs() > transfer_time(&wifi(), &spec).as_secs());
                assert!(t.is_complete());
                return;
            }
        }
        panic!("no degradation fault found in 64 seeds");
    }

    #[test]
    fn attempt_counts_faults() {
        for seed in 0..64 {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(1.0));
            let mut t = ResumableTransfer::new(TransferSpec::rsync(Bytes::new(30_000_000)));
            let mut obs = Obs::new();
            let out = t.attempt(&wifi(), &mut plan, "up", &mut obs);
            assert_eq!(obs.metrics().counter("net.attempts"), 1);
            if out.is_err() {
                assert_eq!(obs.metrics().counter("net.faults"), 1);
                assert_eq!(obs.trace().events_named("fault").count(), 1);
                assert_eq!(obs.trace().events_named("transfer-failed").count(), 1);
                // Partial progress was still delivered and counted.
                assert!(obs.metrics().counter("net.bytes_delivered") > 0);
                return;
            }
        }
        panic!("no failing net fault found in 64 seeds");
    }

    #[test]
    fn attempts_are_deterministic_per_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::from_seed(seed, FaultConfig::chaos(0.8));
            let mut t = ResumableTransfer::new(TransferSpec::rsync(Bytes::new(10_000_000)));
            let mut timeline = Vec::new();
            // no-unbounded-retry: bounded by the explicit attempt cap below.
            for _attempt in 0..8 {
                match t.attempt(&wifi(), &mut plan, "up", &mut Obs::new()) {
                    Ok(d) => {
                        timeline.push(d.as_secs());
                        break;
                    }
                    Err((_, d)) => timeline.push(d.as_secs()),
                }
            }
            (timeline, t.completed_fraction())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}

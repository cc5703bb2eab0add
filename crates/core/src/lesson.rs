//! A complete digital lesson: the Trovi artifact and the computation it
//! packages, executed together.
//!
//! §3.5: Chameleon's Jupyter integration lets the module "combine
//! experimental environment creation, experiment body, and analysis in one
//! set of notebooks", and §5 measures engagement by cell executions. This
//! module binds the two: running the lesson launches the artifact on the
//! hub, executes its notebook cells (which is what Trovi's metrics count),
//! and drives the actual pipeline those cells stand for.

use crate::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineReport};
use autolearn_obs::Obs;
use autolearn_track::Track;
use autolearn_trovi::{Artifact, TroviHub};
use autolearn_util::{FaultPlan, RetryPolicy, SimTime};
use serde::{Deserialize, Serialize};

/// What a lesson run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LessonReport {
    pub cells_executed: usize,
    pub eval_autonomy: f64,
    pub eval_laps: usize,
    /// The hub's rolled-up metrics for the artifact after this run.
    pub launch_clicks: usize,
    pub users_executed: usize,
}

/// Run the digital-pathway lesson for `user`: view + launch the AutoLearn
/// artifact on `hub`, execute every code cell of its latest version, and
/// run the pipeline the notebooks describe. Publishes the artifact first if
/// the hub doesn't carry it yet. A pipeline failure (rejected model,
/// refused reservation, exhausted retries) surfaces as a typed error
/// instead of a crashed lesson.
///
/// The sim-time cursor of `obs` starts at `at`, faults come from `plan`,
/// retries follow `policy`, and the whole seven-stage loop lands in `obs`
/// as one trace (export it afterwards with [`Obs::export_chrome_trace`]).
/// A calm lesson passes `FaultPlan::none()`, `RetryPolicy::default()` and
/// a fresh `Obs`.
#[allow(clippy::too_many_arguments)]
pub fn run_digital_lesson(
    hub: &mut TroviHub,
    user: &str,
    track: &Track,
    config: PipelineConfig,
    at: SimTime,
    plan: &mut FaultPlan,
    policy: &RetryPolicy,
    obs: &mut Obs,
) -> Result<(LessonReport, PipelineReport), PipelineError> {
    let slug = "autolearn-edge-to-cloud";
    obs.set_now(at);
    if hub.get(slug).is_none() {
        hub.publish(Artifact::autolearn_example());
    }

    hub.view(user, slug, at);
    hub.launch(user, slug, at);

    // Execute every code cell of every notebook in the latest version —
    // the student stepping through the lesson top to bottom.
    let cell_targets: Vec<(usize, usize)> = {
        let artifact = hub.get(slug).expect("just published");
        let latest = artifact.latest().expect("has versions");
        latest
            .notebooks
            .iter()
            .enumerate()
            .flat_map(|(ni, nb)| (0..nb.cells.len()).map(move |ci| (ni, ci)))
            .collect()
    };
    let mut cells_executed = 0;
    for (ni, ci) in cell_targets {
        if hub.execute_cell(user, slug, ni, ci, at) {
            cells_executed += 1;
        }
    }

    // The computation those cells stand for.
    let pipeline_report = Pipeline::new(track.clone(), config).run_observed(plan, policy, obs)?;

    let metrics = hub.events.metrics_for(slug);
    Ok((
        LessonReport {
            cells_executed,
            eval_autonomy: pipeline_report.eval_autonomy,
            eval_laps: pipeline_report.eval_laps,
            launch_clicks: metrics.launch_clicks,
            users_executed: metrics.users_executed,
        },
        pipeline_report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectionPath;
    use autolearn_track::circle_track;

    /// One calm lesson for `user` with a fresh observer.
    fn calm_lesson(
        hub: &mut TroviHub,
        user: &str,
        track: &Track,
    ) -> Result<(LessonReport, PipelineReport), PipelineError> {
        run_digital_lesson(
            hub,
            user,
            track,
            quick_config(),
            SimTime::ZERO,
            &mut FaultPlan::none(),
            &RetryPolicy::default(),
            &mut Obs::new(),
        )
    }

    fn quick_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::lesson_default(41);
        cfg.collection.duration_s = 40.0;
        cfg.collection.path = CollectionPath::Simulator;
        cfg.train.epochs = 4;
        cfg.eval_laps = 1;
        cfg.eval_max_duration_s = 30.0;
        cfg
    }

    #[test]
    fn lesson_executes_cells_and_pipeline() {
        let mut hub = TroviHub::new();
        let track = circle_track(3.0, 0.8);
        let (lesson, pipeline) =
            calm_lesson(&mut hub, "selflearner", &track).expect("lesson pipeline succeeds");

        // Every *code* cell executed (markdown cells don't count — that is
        // Trovi's definition).
        assert!(lesson.cells_executed >= 5, "{}", lesson.cells_executed);
        assert_eq!(lesson.launch_clicks, 1);
        assert_eq!(lesson.users_executed, 1);
        assert!(pipeline.records_collected > 0);
        assert_eq!(lesson.eval_laps, pipeline.eval_laps);
    }

    #[test]
    fn two_students_roll_up_in_hub_metrics() {
        let mut hub = TroviHub::new();
        let track = circle_track(3.0, 0.8);
        let (a, _) = calm_lesson(&mut hub, "alice", &track).expect("alice's lesson succeeds");
        let (b, _) = calm_lesson(&mut hub, "bob", &track).expect("bob's lesson succeeds");
        assert_eq!(a.users_executed, 1);
        assert_eq!(b.users_executed, 2);
        assert_eq!(b.launch_clicks, 2);
    }
}

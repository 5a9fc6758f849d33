//! The multi-campaign publication surface: APISENSE tasks mapped onto
//! orchestrated privacy-preserving campaigns.
//!
//! One task's daily releases need one PRIVAPI session, a
//! [`privapi::streaming::StreamingPublisher`]. A real APISENSE deployment
//! runs *many* tasks at once over the same community — each with its own
//! objective, privacy policy and recruited participant set. [`CampaignGateway`]
//! bridges the platform's existing campaign objects (a published
//! [`crate::honeycomb::SensingTask`] plus its [`crate::hive::Hive`]
//! deployment) onto a [`campaign::Orchestrator`], so N concurrent tasks
//! publish daily releases while sharing the original-side attack
//! extraction of the population stream.
//!
//! The mapping is faithful to the platform objects:
//!
//! * the campaign id is the platform [`TaskId`];
//! * the participant filter combines the task's **deployment** (the users
//!   whose devices the Hive offloaded the script to) with the task's
//!   declared **region**, when any;
//! * retiring a task's campaign mirrors ending its collection.

use crate::error::ApisenseError;
use crate::hive::{Hive, TaskId};
use campaign::{Campaign, CampaignError, CampaignId, CampaignRelease, DayReport, Orchestrator};
use mobility::{DatasetWindow, ParticipantFilter};
use privapi::pipeline::PrivApiConfig;
use std::collections::BTreeMap;

/// Orchestrates the publication side of every running task: one campaign
/// per task over the shared population window stream.
///
/// # Example
///
/// ```
/// use apisense::campaigns::CampaignGateway;
/// use apisense::hive::TaskId;
/// use campaign::Campaign;
/// use mobility::gen::{CityModel, PopulationConfig};
/// use mobility::WindowedDataset;
/// use privapi::pipeline::PrivApiConfig;
///
/// let data = CityModel::builder().seed(11).build().generate_population(
///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
/// );
/// let mut gateway = CampaignGateway::new();
/// gateway
///     .open(TaskId(1), Campaign::new(1, "noise-map", PrivApiConfig::default()))
///     .unwrap();
/// for window in &WindowedDataset::partition(&data) {
///     let report = gateway.publish_day(window).unwrap();
///     assert!(gateway.release_for(&report, TaskId(1)).is_some());
/// }
/// ```
#[derive(Debug, Default)]
pub struct CampaignGateway {
    orchestrator: Orchestrator,
    tasks: BTreeMap<TaskId, CampaignId>,
}

impl CampaignGateway {
    /// Creates a gateway with no running campaigns.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying orchestrator (registry, statuses, shared sessions).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// The campaign currently mapped to a task.
    pub fn campaign_id(&self, task: TaskId) -> Option<CampaignId> {
        self.tasks.get(&task).copied()
    }

    /// Opens a campaign for a task, with full control over the campaign's
    /// privacy policy, filter and lifetime.
    ///
    /// # Errors
    ///
    /// [`CampaignError::DuplicateId`] when the task (or another task
    /// mapped to the same campaign id) already runs an active campaign.
    pub fn open(
        &mut self,
        task: TaskId,
        campaign: Campaign,
    ) -> Result<CampaignId, CampaignError> {
        if let Some(existing) = self.tasks.get(&task) {
            if self.orchestrator.registry().is_active(*existing) {
                return Err(CampaignError::DuplicateId(*existing));
            }
        }
        let id = self.orchestrator.register(campaign)?;
        self.tasks.insert(task, id);
        Ok(id)
    }

    /// Opens a campaign for a task **as deployed**: the campaign id is the
    /// task id, the participant filter recruits exactly the users whose
    /// devices the Hive offloaded the task to, intersected with the task's
    /// declared region (when any).
    ///
    /// # Errors
    ///
    /// * [`ApisenseError::NotFound`] when the task was never published or
    ///   never deployed;
    /// * [`ApisenseError::InvalidParameter`] when the task already runs an
    ///   active campaign.
    pub fn open_deployment(
        &mut self,
        hive: &Hive,
        task: TaskId,
        config: PrivApiConfig,
    ) -> Result<CampaignId, ApisenseError> {
        let definition = hive
            .task(task)
            .ok_or(ApisenseError::NotFound("task", task.0))?;
        let participants = hive.participants(task)?;
        let mut filter = ParticipantFilter::users(participants);
        if let Some(region) = definition.region() {
            filter = filter.and(ParticipantFilter::region(*region));
        }
        let campaign = Campaign::new(task.0, definition.name(), config).with_filter(filter);
        self.open(task, campaign).map_err(|e| match e {
            CampaignError::DuplicateId(id) => ApisenseError::InvalidParameter {
                name: "campaign.id",
                value: format!("{id} is already active for {task}"),
            },
            other => ApisenseError::InvalidParameter {
                name: "campaign",
                value: other.to_string(),
            },
        })
    }

    /// Retires the campaign of a task (the task stops publishing; its id
    /// becomes reusable). The task-to-campaign mapping is dropped, so a
    /// later `close` of the same task reports [`CampaignError::Unknown`]
    /// instead of touching whichever campaign reuses the id by then.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Unknown`] when the task runs no active campaign.
    pub fn close(&mut self, task: TaskId) -> Result<(), CampaignError> {
        let id = self
            .tasks
            .get(&task)
            .copied()
            .ok_or(CampaignError::Unknown(CampaignId(task.0)))?;
        self.orchestrator.retire(id)?;
        self.tasks.remove(&task);
        Ok(())
    }

    /// Publishes one population day window through every running campaign
    /// — see [`campaign::Orchestrator::advance_day`].
    ///
    /// # Errors
    ///
    /// [`CampaignError::Stream`] for a duplicate or out-of-order day
    /// (nothing ingested anywhere).
    pub fn publish_day(&mut self, window: &DatasetWindow) -> Result<DayReport, CampaignError> {
        self.orchestrator.advance_day(window)
    }

    /// The release a task's campaign published in a day report, if any.
    pub fn release_for<'a>(
        &self,
        report: &'a DayReport,
        task: TaskId,
    ) -> Option<&'a CampaignRelease> {
        report.release_of(self.campaign_id(task)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceId, SensorKind};
    use crate::hive::DeviceDescriptor;
    use crate::honeycomb::ExperimentBuilder;
    use mobility::gen::{CityModel, PopulationConfig};
    use mobility::{UserId, WindowedDataset};
    use privapi::streaming::StreamingPublisher;

    fn population() -> mobility::Dataset {
        CityModel::builder()
            .seed(59)
            .build()
            .generate_population(&PopulationConfig {
                users: 4,
                days: 2,
                sampling_interval_s: 240,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    fn hive_with_devices(users: &[u64]) -> Hive {
        let mut hive = Hive::new();
        for &u in users {
            hive.register_device(DeviceDescriptor {
                device: DeviceId(u),
                user: UserId(u),
                sensors: SensorKind::ALL.into_iter().collect(),
                region_hint: None,
                battery_level: 1.0,
            });
        }
        hive
    }

    #[test]
    fn deployment_scoped_campaign_matches_standalone_subset_run() {
        // Publish + deploy a task to a two-user fleet, open its campaign
        // from the deployment, and check the releases equal a standalone
        // streaming run over exactly those users' data.
        let mut hive = hive_with_devices(&[0, 1]);
        let task_id = hive.publish_task(ExperimentBuilder::new("air-quality").build());
        hive.deploy(task_id).unwrap();
        assert_eq!(
            hive.participants(task_id).unwrap(),
            vec![UserId(0), UserId(1)]
        );

        let config = PrivApiConfig::default();
        let mut gateway = CampaignGateway::new();
        let campaign_id = gateway.open_deployment(&hive, task_id, config).unwrap();
        assert_eq!(gateway.campaign_id(task_id), Some(campaign_id));

        let windows = WindowedDataset::partition(&population());
        let filter = ParticipantFilter::users([UserId(0), UserId(1)]);
        let mut standalone =
            StreamingPublisher::from_privapi(privapi::pipeline::PrivApi::new(config));
        for window in &windows {
            let report = gateway.publish_day(window).unwrap();
            let release = gateway
                .release_for(&report, task_id)
                .expect("deployed users report daily in dense data");
            let expected = standalone
                .publish_window(&filter.filter_window(window).unwrap())
                .unwrap();
            assert_eq!(release.published.selection, expected.published.selection);
            assert_eq!(release.published.dataset, expected.published.dataset);
        }
    }

    #[test]
    fn closing_a_closed_task_never_retires_a_campaign_reusing_the_id() {
        // Regression: task 1's campaign id becomes reusable after close;
        // once task 2 adopts it, a stale second close of task 1 must
        // report Unknown instead of retiring task 2's active campaign
        // through the leftover task→id mapping.
        let config = PrivApiConfig::default();
        let mut gateway = CampaignGateway::new();
        gateway
            .open(TaskId(1), Campaign::new(7, "first", config))
            .unwrap();
        gateway.close(TaskId(1)).unwrap();
        let id = gateway
            .open(TaskId(2), Campaign::new(7, "second", config))
            .unwrap();
        assert!(gateway.close(TaskId(1)).is_err(), "stale close must fail");
        assert!(
            gateway.orchestrator().registry().is_active(id),
            "task 2's campaign must survive the stale close"
        );
        gateway.close(TaskId(2)).unwrap();
    }

    #[test]
    fn open_close_lifecycle_and_duplicate_rejection() {
        let mut hive = hive_with_devices(&[0]);
        let task_id = hive.publish_task(ExperimentBuilder::new("t").build());
        hive.deploy(task_id).unwrap();
        let mut gateway = CampaignGateway::new();
        gateway
            .open_deployment(&hive, task_id, PrivApiConfig::default())
            .unwrap();
        // A second open for the same task is an overlapping duplicate.
        let err = gateway
            .open_deployment(&hive, task_id, PrivApiConfig::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ApisenseError::InvalidParameter {
                name: "campaign.id",
                ..
            }
        ));
        gateway.close(task_id).unwrap();
        assert!(gateway.close(task_id).is_err(), "already retired");
        // A retired task can be re-opened.
        gateway
            .open_deployment(&hive, task_id, PrivApiConfig::default())
            .unwrap();
        // Unknown tasks are platform errors.
        assert_eq!(
            gateway
                .open_deployment(&hive, TaskId(99), PrivApiConfig::default())
                .unwrap_err(),
            ApisenseError::NotFound("task", 99)
        );
    }
}

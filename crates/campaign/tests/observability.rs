//! The orchestrator's `campaign.publish` span times the days a campaign
//! reads its window: a day it skips records no span, so the per-campaign
//! table of `obs_report` counts published and failed windows only.
//!
//! The obs recorder is process-global; this file is a test process of its
//! own, so nothing else records while the test has it enabled.

use campaign::{Campaign, CampaignOutcome, Orchestrator};
use mobility::gen::{CityModel, PopulationConfig};
use mobility::{ParticipantFilter, WindowedDataset};
use obs::AttrValue;
use privapi::pipeline::PrivApiConfig;

#[test]
fn campaign_publish_spans_cover_only_the_days_a_campaign_reads() {
    let data = CityModel::builder()
        .seed(7)
        .build()
        .generate_population(&PopulationConfig {
            users: 3,
            days: 4,
            ..PopulationConfig::default()
        });
    let windows = WindowedDataset::partition(&data);
    let days = windows.days();
    assert_eq!(days.len(), 4);
    let config = PrivApiConfig::default();
    let mut orchestrator = Orchestrator::new();
    // A shared campaign that is not started on day 0 and ended on day 3,
    // and a filtered one that is not started on day 0.
    let bounded = Campaign::new(1, "bounded", config)
        .with_start_day(days[1])
        .with_end_day(days[2]);
    let subset = Campaign::new(2, "subset", config)
        .with_filter(ParticipantFilter::users(data.users()[..2].to_vec()))
        .with_start_day(days[1]);
    orchestrator.register(bounded).unwrap();
    orchestrator.register(subset).unwrap();

    obs::reset();
    obs::enable();
    let mut read = [0usize; 3];
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        for (id, outcome) in &report.outcomes {
            if matches!(
                outcome,
                CampaignOutcome::Published(_) | CampaignOutcome::Failed(_)
            ) {
                read[id.0 as usize] += 1;
            }
        }
    }
    obs::disable();
    let (spans, _, _) = obs::trace::snapshot();
    assert_eq!((read[1], read[2]), (2, 3));
    for id in [1u64, 2] {
        let recorded = spans
            .iter()
            .filter(|s| s.name == "campaign.publish")
            .filter(|s| s.attrs.contains(&("campaign", AttrValue::U64(id))))
            .count();
        assert_eq!(recorded, read[id as usize], "campaign {id}");
    }
}

//! Utility metrics over anonymized datasets.
//!
//! "Because published data will be used by researchers or industrials, it
//! must guarantee both privacy and utility" (paper, §3). The paper names two
//! target analyses — *finding out crowded places* and *predicting traffic* —
//! plus the generic fidelity of positions. Each gets a metric:
//!
//! * [`spatial_distortion`] — point-wise displacement between the original
//!   and protected data, aligned by time so strategies that change the
//!   sampling (speed smoothing, downsampling) are compared fairly;
//! * [`crowded_places_utility`] — agreement of the top-*k* most-visited grid
//!   cells (precision@k and Jaccard);
//! * [`traffic_utility`] — error of an hourly per-cell visit forecast
//!   trained on protected data and evaluated against the real final day.

mod crowded;
mod distortion;
mod traffic;

#[cfg(test)]
pub(crate) use crowded::visitor_histogram;
pub use crowded::{crowded_places_utility, CrowdedBaseline, CrowdedPlacesReport};
pub use distortion::{spatial_distortion, DistortionReport};
pub use traffic::{traffic_utility, TrafficBaseline, TrafficReport};

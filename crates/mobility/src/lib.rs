//! Mobility-data substrate for the crowd-sensing platform.
//!
//! This crate models everything PRIVAPI and APISENSE need to know about
//! *mobility data* — "all timestamped locations where a user has been during
//! the experiment" (paper, §1):
//!
//! * [`LocationRecord`], [`Trajectory`], [`Dataset`] — the data model;
//! * [`staypoint`] — stay-point detection (where a user paused);
//! * [`poi`] — clustering stay points into *points of interest* and labelling
//!   them (home/work/leisure), the sensitive places the paper's privacy
//!   mechanisms protect;
//! * [`gen`] — a synthetic city and population generator standing in for the
//!   proprietary real-life dataset used in the paper (see `DESIGN.md` §2);
//! * [`io`] — JSON-lines / CSV import & export;
//! * [`window`] — day-window partitioning ([`WindowedDataset`]) that replays
//!   a dataset as a stream of daily deltas for streaming publication;
//! * [`filter`] — [`ParticipantFilter`] recruitment rules (user subsets,
//!   regions, daily hours) scoping a campaign's view of the shared
//!   population stream.
//!
//! # Example
//!
//! ```
//! use mobility::gen::{CityModel, PopulationConfig};
//!
//! let city = CityModel::builder().seed(1).build();
//! let dataset = city.generate_population(&PopulationConfig {
//!     users: 3,
//!     days: 1,
//!     ..PopulationConfig::default()
//! });
//! assert_eq!(dataset.user_count(), 3);
//! assert!(dataset.record_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod record;
mod time;

pub mod filter;
pub mod gen;
pub mod io;
pub mod poi;
pub mod staypoint;
pub mod window;

pub use error::MobilityError;
pub use filter::ParticipantFilter;
pub use record::{Dataset, LocationRecord, Segments, Trajectory, UserId};
pub use time::{Timestamp, DAY_SECONDS, HOUR_SECONDS, MINUTE_SECONDS};
pub use window::{DatasetWindow, WindowedDataset};

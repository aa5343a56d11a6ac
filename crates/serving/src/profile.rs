pub use ms_core::cost::LatencyProfile;

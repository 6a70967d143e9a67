//! Shared service-layer configuration.
//!
//! [`NodeOptions`](crate::service::NodeOptions),
//! [`DurableOptions`](crate::DurableOptions), and the fleet's
//! `FleetOptions` all need the same knobs — a telemetry handle, an
//! observability bind address, a flight-recorder directory, a retry
//! policy. [`ServiceOptions`] is the one struct they all embed, and the
//! only place those knobs are set.
//!
//! The consolidated struct is also where the adaptive control loop is
//! switched on: setting [`ServiceOptions::controller`] makes the serving
//! layer construct an [`AdaptiveController`](crate::AdaptiveController)
//! over the engine's reconfiguration channel and tick it once per
//! replayed epoch. Enable it on exactly one owner per engine (the
//! durable backup *or* its serving node, not both) — two controllers
//! sampling the same registry would fight over the plan.

use crate::control::ControllerConfig;
use crate::dispatch::RetryPolicy;
use aets_telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs shared by every service-layer composition (query node, durable
/// backup, fleet coordinator). Build with [`ServiceOptions::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Telemetry instance for the service's metrics and events. `None`
    /// falls back to the owner's historical source (the engine's handle
    /// for nodes and backups, disabled for fleets).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Bind address of the live observability endpoint (e.g.
    /// `"127.0.0.1:0"`); `None` serves no HTTP. The endpoint exposes
    /// `/metrics`, `/snapshot.json`, `/spans.json`, `/events.json`, and a
    /// `/healthz` that reports 503 while the owner is degraded, naming
    /// the quarantined groups (node, durable backup) or the down or hung
    /// shards (fleet).
    pub obs_addr: Option<String>,
    /// Directory for degraded-mode flight-recorder bundles: every
    /// anomaly event (quarantine, shard-down, failover, resync) dumps a
    /// bounded JSON bundle of recent spans + events + the metrics
    /// snapshot there. `None` disables the recorder.
    pub flight_dir: Option<PathBuf>,
    /// Bounded retry/backoff for retryable service operations (routed
    /// submissions, ingest resync). `None` uses the owner's default.
    pub retry: Option<RetryPolicy>,
    /// Adaptive control loop configuration. `Some` makes the owning
    /// service drive a live [`AdaptiveController`](crate::AdaptiveController)
    /// against its engine (a no-op for engines without a reconfiguration
    /// channel); `None` runs the static plan.
    pub controller: Option<ControllerConfig>,
}

impl ServiceOptions {
    /// Starts building a [`ServiceOptions`].
    pub fn builder() -> ServiceOptionsBuilder {
        ServiceOptionsBuilder::default()
    }
}

/// Builder for [`ServiceOptions`].
#[derive(Debug, Default)]
pub struct ServiceOptionsBuilder {
    inner: ServiceOptions,
}

impl ServiceOptionsBuilder {
    /// Telemetry instance for the service's metrics and events.
    pub fn telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.inner.telemetry = Some(tel);
        self
    }

    /// Bind address of the live observability endpoint.
    pub fn obs_addr(mut self, addr: impl Into<String>) -> Self {
        self.inner.obs_addr = Some(addr.into());
        self
    }

    /// Directory for degraded-mode flight-recorder bundles.
    pub fn flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.inner.flight_dir = Some(dir.into());
        self
    }

    /// Bounded retry/backoff for retryable service operations.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.inner.retry = Some(retry);
        self
    }

    /// Enables the adaptive control loop with `cfg`.
    pub fn controller(mut self, cfg: ControllerConfig) -> Self {
        self.inner.controller = Some(cfg);
        self
    }

    /// Finishes the options.
    pub fn build(self) -> ServiceOptions {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_field() {
        let tel = Arc::new(Telemetry::new());
        let opts = ServiceOptions::builder()
            .telemetry(tel.clone())
            .obs_addr("127.0.0.1:0")
            .flight_dir("/tmp/bundles")
            .retry(RetryPolicy { max_retries: 7, ..Default::default() })
            .controller(ControllerConfig::default())
            .build();
        assert!(Arc::ptr_eq(opts.telemetry.as_ref().unwrap(), &tel));
        assert_eq!(opts.obs_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.flight_dir.as_deref(), Some(std::path::Path::new("/tmp/bundles")));
        assert_eq!(opts.retry.unwrap().max_retries, 7);
        assert!(opts.controller.is_some());
    }

    #[test]
    fn default_is_all_unset() {
        let opts = ServiceOptions::default();
        assert!(opts.telemetry.is_none());
        assert!(opts.obs_addr.is_none());
        assert!(opts.flight_dir.is_none());
        assert!(opts.retry.is_none());
        assert!(opts.controller.is_none());
    }
}

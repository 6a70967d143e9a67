//! Shared service-layer configuration.
//!
//! [`NodeOptions`](crate::service::NodeOptions),
//! [`DurableOptions`](crate::DurableOptions), and the fleet's
//! `FleetOptions` all embed one [`ServiceOptions`], and every field has
//! one reader: the [`BackupNode`](crate::BackupNode) builder. A
//! [`DurableBackup`](crate::DurableBackup) hands its `service` to the
//! node it wraps; the fleet reads `telemetry` itself (it has no engine
//! to fall back on) and calls [`ServiceOptions::mount`] for the rest.
//! DESIGN.md §9 "One home per fact" has the owner × field table.
//!
//! One engine has at most one controller: the durable backup's node owns
//! it when `DurableOptions::service.controller` is set, and
//! [`DurableBackup::serve`](crate::DurableBackup::serve) refuses options
//! that ask for a second one.

use crate::control::ControllerConfig;
use aets_common::{Error, Result};
use aets_telemetry::{FlightRecorder, HealthFn, ObsServer, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs shared by every service-layer composition (query node, durable
/// backup, fleet coordinator). Build with [`ServiceOptions::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Telemetry instance for the service's metrics and events. `None`
    /// means the engine's own handle (a node, and through it a durable
    /// backup) or a disabled instance (a fleet, which has no engine).
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

    /// Arms the flight recorder on `telemetry` when
    /// [`ServiceOptions::flight_dir`] is set, then binds the live
    /// endpoint when [`ServiceOptions::obs_addr`] is, with `health`
    /// behind `/healthz`. The endpoint unbinds when the returned server
    /// drops.
    pub fn mount(&self, telemetry: &Arc<Telemetry>, health: HealthFn) -> Result<Option<ObsServer>> {
        if let Some(dir) = &self.flight_dir {
            let recorder = FlightRecorder::create(dir)
                .map_err(|e| Error::Io(format!("flight recorder at {}: {e}", dir.display())))?;
            telemetry.set_flight_recorder(Some(recorder));
        }
        self.obs_addr
            .as_deref()
            .map(|addr| {
                ObsServer::bind(addr, telemetry.clone(), health)
                    .map_err(|e| Error::Io(format!("bind obs endpoint {addr}: {e}")))
            })
            .transpose()
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
            .controller(ControllerConfig::default())
            .build();
        assert!(Arc::ptr_eq(opts.telemetry.as_ref().unwrap(), &tel));
        assert_eq!(opts.obs_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.flight_dir.as_deref(), Some(std::path::Path::new("/tmp/bundles")));
        assert!(opts.controller.is_some());
    }

    #[test]
    fn default_is_all_unset() {
        let opts = ServiceOptions::default();
        assert!(opts.telemetry.is_none());
        assert!(opts.obs_addr.is_none());
        assert!(opts.flight_dir.is_none());
        assert!(opts.controller.is_none());
    }
}

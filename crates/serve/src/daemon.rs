//! Wiring: campaign thread + snapshot state + HTTP server = the daemon.
//!
//! [`serve`] starts the HTTP surface immediately (serving the driver's
//! current cumulative state — which is wave 0's empty state for a fresh
//! campaign, or the restored fold for a resumed one) and runs the
//! remaining waves on a background thread. After each wave it publishes a
//! fresh snapshot, streams the wave's journal records to the tail hub,
//! and — when configured — writes a checkpoint. When the last wave
//! completes the campaign thread marks the state done and closes the tail
//! hub; the HTTP server keeps answering reads until the handle is shut
//! down, so late readers still see the final state.

use crate::driver::CampaignDriver;
use crate::http::HttpServer;
use crate::state::{ServeState, Snapshot};
use crate::ServeError;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use traffic_shadowing::robustness::cell_metrics;

/// A running daemon. Dropping the handle shuts the HTTP server down but
/// does **not** interrupt the campaign thread — call
/// [`ServeHandle::join_campaign`] or [`ServeHandle::shutdown`] for an
/// orderly finish.
pub struct ServeHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    server: HttpServer,
    campaign: Option<JoinHandle<CampaignDriver>>,
}

/// Start serving `driver` on `bind` (e.g. `"127.0.0.1:0"` for a loopback
/// ephemeral port).
pub fn serve(driver: CampaignDriver, bind: &str) -> Result<ServeHandle, ServeError> {
    let config = driver.config().clone();
    let state = Arc::new(ServeState::new(
        Snapshot::from_driver(&driver, None),
        config.tail_capacity,
    ));
    let server = HttpServer::bind(bind, Arc::clone(&state), config.http_workers).map_err(|e| {
        ServeError::Bind {
            addr: bind.to_string(),
            source: e,
        }
    })?;
    let addr = server.local_addr();

    let campaign = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            let mut driver = driver;
            while let Some(report) = driver.run_next_wave() {
                let cell = cell_metrics(&format!("wave-{}", report.wave), &report.outcome);
                let robustness_json = serde_json::to_string_pretty(&cell).ok();
                state.publish(Snapshot::from_driver(&driver, robustness_json));
                state.tail.publish_records(driver.wave_records(&report));
                if let Some(path) = driver.config().checkpoint_path.clone() {
                    if let Err(e) = driver.save_checkpoint(&path) {
                        state.record_checkpoint_error(e.to_string());
                    }
                }
            }
            state.mark_done();
            state.tail.close();
            driver
        })
    };

    Ok(ServeHandle {
        addr,
        state,
        server,
        campaign: Some(campaign),
    })
}

impl ServeHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Block until every wave has run; the HTTP server keeps serving the
    /// final state afterwards. Returns the finished driver (`None` on a
    /// second call, or if the campaign thread panicked).
    pub fn join_campaign(&mut self) -> Option<CampaignDriver> {
        self.campaign.take().and_then(|handle| handle.join().ok())
    }

    /// Orderly stop: finish the campaign, then stop the HTTP server.
    pub fn shutdown(mut self) -> Option<CampaignDriver> {
        let driver = self.join_campaign();
        self.server.shutdown();
        driver
    }
}

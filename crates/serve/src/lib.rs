//! # pgmoe-serve
//!
//! The serving front door for the Pre-gated MoE reproduction (ISCA 2024):
//! a dependency-free, hand-rolled streaming HTTP/1.1 server that puts the
//! repository's whole stack behind a socket.
//!
//! The paper's thesis is that pre-gating makes expert offloading *cheap
//! enough to serve from*; this crate is where "serve" stops being a
//! simulated arrival trace and becomes real sockets, real wall-clock
//! deadlines, and real backpressure:
//!
//! * **`POST /v1/generate`** runs the numeric pre-gated [`SwitchNet`]
//!   forward pass for every decode iteration and streams each token back
//!   as a chunked NDJSON line the moment the continuous-batching engine
//!   emits it. The model's *actual* routing decisions drive the simulated
//!   device's expert fetch/cache bookkeeping through
//!   [`pgmoe_runtime::LiveRouting`] — the streamed token and the accounted
//!   expert traffic come from the same forward pass.
//! * **SLO-aware admission** ([`slo`]) projects the time-to-first-token a
//!   fresh arrival would see and sheds it with `429` *before* the target
//!   is breached, at the IO layer, without engine involvement.
//! * **Bounded everything**: connection caps, header/body limits and a
//!   slowloris deadline ([`http::Limits`]), and a bounded admission queue
//!   (`503` when full) carry backpressure from the socket to the engine.
//! * **`GET /metrics`** exposes the registry ([`metrics`]) in Prometheus
//!   text format; **`GET /healthz`** answers while serving.
//!
//! There are no crates.io dependencies: JSON ([`json`]), HTTP ([`http`]),
//! and readiness polling ([`poll`]) are small hand-rolled modules.
//!
//! # Quickstart
//!
//! ```
//! use pgmoe_serve::{client, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let handle = Server::start(ServeConfig::demo())?;
//! let reply = client::generate(handle.addr(), &[1, 2, 3], 4, Duration::from_secs(30))?;
//! assert_eq!(reply.status, 200);
//! assert_eq!(reply.tokens.len(), 4);
//! assert!(reply.verified(), "stream matches the server's declared output");
//!
//! let (status, metrics) = client::get(handle.addr(), "/metrics", Duration::from_secs(5))?;
//! assert_eq!(status, 200);
//! assert!(metrics.contains("pgmoe_tokens_streamed_total"));
//!
//! let stats = handle.shutdown().expect("engine stats");
//! assert_eq!(stats.total_tokens, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`SwitchNet`]: pgmoe_model::net::SwitchNet

#![deny(missing_docs)]

pub mod client;
mod engine;
pub mod http;
pub mod json;
pub mod metrics;
pub mod poll;
mod server;
pub mod slo;

pub use engine::{context_window, EngineConfig};
pub use server::{ServeConfig, ServeError, Server, ServerHandle};
pub use slo::{SloConfig, SloGovernor, Verdict};

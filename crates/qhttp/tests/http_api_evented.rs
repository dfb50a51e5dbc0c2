//! The loopback suite on the narrowest evented shape: one event-loop
//! thread owns every connection and one dispatcher thread runs every
//! handler, so concurrent clients, keep-alive and coalesced duplicates
//! all interleave on a single readiness loop. The cases are the ones
//! `http_api.rs` runs on the default shape, from `shared/http_api_cases.rs`.

#[path = "shared/http_api_cases.rs"]
mod cases;

fn config() -> qhttp::evented::EventedConfig {
    qhttp::evented::EventedConfig {
        loop_threads: 1,
        dispatch_threads: 1,
        ..qhttp::evented::EventedConfig::default()
    }
}

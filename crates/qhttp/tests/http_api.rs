//! The loopback suite on the shape `popqc serve` runs by default
//! (`EventedConfig::default()`). Every case lives in
//! `shared/http_api_cases.rs`; `http_api_evented.rs` runs the identical
//! matrix on the narrowest shape.

#[path = "shared/http_api_cases.rs"]
mod cases;

fn config() -> qhttp::evented::EventedConfig {
    qhttp::evented::EventedConfig::default()
}

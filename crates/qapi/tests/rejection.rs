//! Decoder rejection tests: every top-level v1 document, taken from its
//! committed snapshot, is refused when its `api_version` is foreign or
//! missing, and when any one of its required top-level fields is deleted.
//! The request documents accept a missing `api_version`, and that is
//! pinned here too.

use qapi::{
    ApiError, BatchRequest, BatchResponse, CacheClearResponse, CacheReport, JobStatus,
    OptimizeRequest, OracleList, ServiceReport, StatsReport, TraceIndex, TraceReport, VersionInfo,
};
use serde_json::{json, Value};
use std::path::PathBuf;

fn snapshot(name: &str) -> Vec<(String, Value)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("snapshots")
        .join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    match serde_json::from_str(&text).expect("snapshot parses") {
        Value::Object(pairs) => pairs,
        other => panic!("{name}: not an object: {other:?}"),
    }
}

fn with_version(mut pairs: Vec<(String, Value)>, version: Option<&str>) -> Value {
    pairs.retain(|(k, _)| k != "api_version");
    if let Some(version) = version {
        pairs.insert(0, ("api_version".to_string(), json!(version)));
    }
    Value::Object(pairs)
}

fn without(pairs: &[(String, Value)], key: &str) -> Value {
    Value::Object(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
}

/// Asserts the document snapshot `name` decodes, and is refused with a
/// foreign or missing `api_version` and without any one top-level field
/// not named in `optional`.
fn check_document(name: &str, optional: &[&str], accepts: impl Fn(&Value) -> bool) {
    let pairs = snapshot(name);
    assert!(accepts(&Value::Object(pairs.clone())), "{name}: exemplar");
    assert!(
        !accepts(&with_version(pairs.clone(), Some("v2"))),
        "{name}: foreign api_version accepted"
    );
    assert!(
        !accepts(&with_version(pairs.clone(), None)),
        "{name}: missing api_version accepted"
    );
    let mut required = 0;
    for (key, _) in pairs.iter().filter(|(k, _)| k != "api_version") {
        let verdict = accepts(&without(&pairs, key));
        if optional.contains(&key.as_str()) {
            assert!(verdict, "{name}: optional `{key}` deleted and refused");
        } else {
            assert!(!verdict, "{name}: required `{key}` deleted and accepted");
            required += 1;
        }
    }
    assert!(required > 0, "{name}: no required field was exercised");
}

/// Asserts the request snapshot `name` decodes with or without
/// `api_version`, and is refused with a foreign one or without `required`.
fn check_request(name: &str, required: &str, accepts: impl Fn(&Value) -> bool) {
    let pairs = snapshot(name);
    assert!(accepts(&Value::Object(pairs.clone())), "{name}: exemplar");
    assert!(
        !accepts(&with_version(pairs.clone(), Some("v2"))),
        "{name}: foreign api_version accepted"
    );
    assert!(
        accepts(&with_version(pairs.clone(), None)),
        "{name}: a request may omit api_version"
    );
    assert!(
        !accepts(&without(&pairs, required)),
        "{name}: `{required}` deleted and accepted"
    );
}

#[test]
fn documents_reject_foreign_or_missing_versions_and_deleted_fields() {
    check_document("version", &[], |v| VersionInfo::from_json(v).is_ok());
    check_document("oracle_list", &[], |v| OracleList::from_json(v).is_ok());
    let optional = ["label", "result"];
    check_document("job_status", &optional, |v| JobStatus::from_json(v).is_ok());
    check_document("batch_response", &[], |v| {
        BatchResponse::from_json(v).is_ok()
    });
    check_document("cache_report", &[], |v| CacheReport::from_json(v).is_ok());
    check_document("cache_clear", &[], |v| {
        CacheClearResponse::from_json(v).is_ok()
    });
    let optional = ["jobs_tracked", "frontend"];
    check_document("stats_report", &optional, |v| {
        StatsReport::from_json(v).is_ok()
    });
    check_document("service_report", &[], |v| {
        ServiceReport::from_json(v).is_ok()
    });
    check_document("trace_index", &[], |v| TraceIndex::from_json(v).is_ok());
    check_document("trace_report", &[], |v| TraceReport::from_json(v).is_ok());
    for kind in ApiError::KINDS {
        check_document(&format!("error_{kind}"), &[], |v| {
            ApiError::from_json(v).is_ok()
        });
    }
}

#[test]
fn requests_reject_foreign_versions_and_a_missing_body_field() {
    check_request("optimize_request", "qasm", |v| {
        OptimizeRequest::from_json(v).is_ok()
    });
    check_request("batch_request", "circuits", |v| {
        BatchRequest::from_json(v).is_ok()
    });
}

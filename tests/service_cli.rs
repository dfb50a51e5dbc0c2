//! End-to-end tests of the `popqc` binary: the CLI subcommands, and the
//! `serve` / `cached` processes driven over loopback. The release build of
//! this target is CI's binary smoke, so the wall-clock bounds below are
//! enforced there; a debug build keeps a hang guard only.

mod support;

use popqc::prelude::Family;
use std::process::Command;
use std::time::{Duration, Instant};
use support::{
    assert_success, at, popqc, request, run, run_ok, run_within, sample, show, tier, Cleanup,
    Reply, Server, HANG_GUARD,
};

/// The 10 s wall-clock bound a smoke holds the release binary to; a debug
/// build is only guarded against hangs.
const WALL_BOUND: Duration = match cfg!(debug_assertions) {
    true => HANG_GUARD,
    false => Duration::from_secs(10),
};

fn vqe_qasm(qubits: u32, seed: u64) -> String {
    popqc::ir::qasm::to_qasm(&Family::Vqe.generate(qubits, seed))
}

/// `popqc gen` of one circuit into `tmp`'s `in/`.
fn gen(tmp: &Cleanup, family: &str, qubits: u32, seed: u64) {
    run_ok(tmp.popqc(&format!(
        "gen --family {family} --qubits {qubits} --seed {seed} --out in"
    )));
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn cli_round_trips_a_directory_with_warm_cache_second_pass() {
    let tmp = Cleanup::new("cli", &["in"]);

    // A small multi-family batch via `popqc gen`.
    for (family, qubits) in [("vqe", 8), ("grover", 6), ("statevec", 5), ("hhl", 6)] {
        gen(&tmp, family, qubits, 9);
    }
    let inputs: Vec<_> = std::fs::read_dir(tmp.path("in")).unwrap().collect();
    assert_eq!(inputs.len(), 4);

    // Batch-optimize the directory twice in one process, with verification.
    run_ok(tmp.popqc(
        "optimize in --out out --omega 80 --workers 2 --threads-per-job 1 --repeat 2 --verify \
         --report report.json",
    ));

    // Every output re-parses, is smaller, and is equivalent to its input.
    let mut checked = 0;
    for entry in std::fs::read_dir(tmp.path("in")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let original = popqc::ir::qasm::parse(&tmp.read(&format!("in/{name}"))).unwrap();
        let optimized = popqc::ir::qasm::parse(&tmp.read(&format!("out/{name}")))
            .unwrap_or_else(|e| panic!("optimized {name} does not re-parse: {e}"));
        assert!(optimized.validate().is_ok());
        assert!(
            optimized.len() <= original.len(),
            "{name}: output larger than input"
        );
        assert!(
            popqc::sim::circuits_equivalent(&original, &optimized, 2, 0xFACE),
            "{name}: semantics changed"
        );
        checked += 1;
    }
    assert_eq!(checked, 4);

    // The report's counters prove the warm-cache property.
    let report = tmp.json("report.json");
    let passes = at(&report, "passes").as_array().unwrap();
    assert_eq!(passes.len(), 2);
    let cold = &passes[0];
    let warm = &passes[1];
    assert_eq!(at(cold, "cache_hits").as_u64(), Some(0));
    assert!(at(cold, "oracle_calls_issued").as_u64().unwrap() > 0);
    assert_eq!(at(warm, "cache_hits").as_u64(), Some(4));
    assert_eq!(
        at(warm, "oracle_calls_issued").as_u64(),
        Some(0),
        "warm pass must issue zero oracle calls"
    );
    // Warm jobs are flagged individually too.
    for job in at(warm, "jobs").as_array().unwrap() {
        assert_eq!(at(job, "cache_hit").as_bool(), Some(true));
    }
    assert_eq!(at(&report, "service.cache_hits").as_u64(), Some(4));
    assert_eq!(at(&report, "service.submitted").as_u64(), Some(8));
    // The executor block surfaces the pool's counters end to end; there
    // is no grain setting, and the v1 field says so.
    assert_eq!(at(&report, "service.executor.grain").as_u64(), Some(0));
}

#[test]
fn cli_families_lists_every_family() {
    let out = run_ok(popqc("families"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout.lines().collect();
    // The paper's eight plus the skewed executor workload.
    assert_eq!(listed.len(), Family::ALL.len());
    assert!(listed.contains(&"vqe") && listed.contains(&"shor") && listed.contains(&"skewed"));
}

#[test]
fn cli_rejects_bad_input_cleanly() {
    let out = run(popqc("gen --family sqrt --qubits 4"));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at least"), "got: {}", stderr(&out));

    let out = run(popqc("optimize /nonexistent-popqc-path"));
    assert!(!out.status.success());
}

#[test]
fn cli_fails_cleanly_on_unparseable_qasm() {
    let tmp = Cleanup::new("badqasm", &[]);

    // One good file and several malformed ones — including the inverted
    // qreg brackets that used to panic the parser with a slice error —
    // must each produce exit code 1 and a diagnostic naming the file,
    // never a panic mid-batch.
    tmp.write(
        "good.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
    );
    for (name, contents) in [
        (
            "inverted-brackets.qasm",
            "OPENQASM 2.0;\nqreg q]0[;\nh q[0];\n",
        ),
        ("unknown-gate.qasm", "OPENQASM 2.0;\nqreg q[2];\nt q[0];\n"),
        ("not-qasm-at-all.qasm", "definitely not a circuit\n"),
    ] {
        tmp.write(name, contents);
        let out = run(tmp.popqc(&format!("optimize good.qasm {name} --omega 32")));
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, got {:?}",
            out.status
        );
        let stderr = stderr(&out);
        assert!(
            stderr.contains("popqc: error") && stderr.contains(name),
            "{name}: diagnostic must name the file, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: CLI must not panic, got: {stderr}"
        );
        std::fs::remove_file(tmp.path(name)).unwrap();
    }
}

#[test]
fn cli_serve_answers_health_and_optimize_over_loopback() {
    let server = Server::spawn(popqc("serve --workers 1 --threads-per-job 1 --omega 64"));
    server.ok("GET", "/healthz", "");

    // Each optimize is followed by a scrape: the identical repeat must
    // show a cache hit that issued no oracle call.
    let qasm = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n";
    let reply = server.optimize("", qasm);
    assert_eq!(at(&reply, "cache_hit").as_bool(), Some(false));
    let cold = server.scrape();
    let reply = server.optimize("", qasm);
    assert_eq!(at(&reply, "cache_hit").as_bool(), Some(true));
    let warm = server.scrape();

    // The series the README's inventory promises, on the release binary.
    for series in [
        "popqc_oracle_call_duration_seconds_bucket",
        "popqc_cache_hits_total",
        "popqc_cache_misses_total",
        "popqc_exec_steals_total",
        "popqc_http_requests_total",
        "popqc_http_request_duration_seconds_bucket",
        "popqc_net_connections_open",
        "popqc_net_shed_total",
        "popqc_rounds_to_fixpoint_count",
        "popqc_store_entries",
    ] {
        assert!(
            warm.lines().any(|l| l.starts_with(series)),
            "missing series {series} in:\n{warm}"
        );
    }
    let calls = r#"popqc_oracle_call_duration_seconds_count{oracle="rule_based"}"#;
    assert!(
        sample(&cold, calls) > 0.0,
        "the cold POST timed no oracle call"
    );
    assert_eq!(
        sample(&warm, calls),
        sample(&cold, calls),
        "the cache hit re-ran the oracle"
    );
    let hits = r#"popqc_cache_hits_total{oracle="rule_based"}"#;
    assert!(
        sample(&warm, hits) >= 1.0,
        "the hit counter did not advance"
    );
}

#[test]
fn cli_oracles_lists_the_builtin_registry_with_default() {
    let out = run_ok(popqc("oracles"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["rule_based", "rule_single_pass", "structural"] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
    assert!(!stdout.contains("search"), "search is not served: {stdout}");
    assert!(
        stdout.contains("rule_based (default)"),
        "default not marked: {stdout}"
    );
}

#[test]
fn cli_json_emits_v1_job_status_documents() {
    let tmp = Cleanup::new("json", &[]);
    tmp.write(
        "a.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n",
    );
    tmp.write(
        "b.qasm",
        "OPENQASM 2.0;\nqreg q[3];\nx q[2];\nx q[2];\nh q[1];\n",
    );
    let out =
        run_ok(tmp.popqc("optimize a.qasm b.qasm --omega 32 --oracle rule_based --json --quiet"));

    // One JobStatus document per job, parseable by the shared DTO layer,
    // ids in submission order like the HTTP frontend assigns them.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<qapi::JobStatus> = stdout
        .lines()
        .map(|line| {
            let v = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line is not JSON: {e}\n{line}"));
            qapi::JobStatus::from_json(&v)
                .unwrap_or_else(|e| panic!("line is not a v1 JobStatus: {e}\n{line}"))
        })
        .collect();
    assert_eq!(docs.len(), 2);
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(doc.job_id, i as u64 + 1);
        assert!(doc.done);
        let report = doc.result.as_ref().expect("completed job");
        assert_eq!(report.oracle, "rule_based");
        assert_eq!(report.omega, 32);
        assert!(report.qasm.is_some(), "job document carries the circuit");
    }
    assert_eq!(docs[0].label.as_deref(), Some("a.qasm"));
    assert_eq!(docs[1].label.as_deref(), Some("b.qasm"));
}

#[test]
fn cli_rejects_unknown_oracle_with_available_list() {
    let tmp = Cleanup::new("badoracle", &[]);
    tmp.write("a.qasm", "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n");

    let out = run(tmp.popqc("optimize a.qasm --oracle nope"));
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr(&out);
    assert!(
        stderr.contains("unknown oracle") && stderr.contains("rule_based"),
        "diagnostic must list available oracles: {stderr}"
    );
}

/// `serve` has one frontend, so the flag that picked between two is gone:
/// naming a frontend is a usage error (exit 2), not an ignored option.
#[test]
fn cli_serve_rejects_the_frontend_flag_as_usage_error() {
    for frontend in ["threads", "evented"] {
        // The zero connection cap makes a `serve` that still accepted the
        // flag exit 1 instead of serving, so this test fails rather than
        // hangs.
        let args = format!("serve --addr 127.0.0.1:0 --frontend {frontend} --max-conns 0");
        let out = run(popqc(&args));
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args}: expected exit 2, got {:?}",
            out.status
        );
        assert!(
            stderr(&out).contains("usage:"),
            "{args}: must print the usage text"
        );
    }
}

/// A register may be declared `u32::MAX` wires wide. The oracle runs a
/// segment at the width of the wires it touches, so six gates on such a
/// register need neither gigabytes (a 2 GB address-space limit) nor
/// seconds (10 s on the release binary).
#[test]
fn cli_optimizes_six_gates_on_a_u32_max_register_in_bounded_memory_and_time() {
    let tmp = Cleanup::new("wide", &["in"]);
    tmp.write(
        "in/wide.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4294967295];\nx q[4294967294];\n\
         rz(pi/4) q[7];\ncx q[7],q[4294967294];\nx q[3];\nrz(pi/4) q[7];\ncx q[1000],q[3];\n",
    );
    let mut limited = Command::new("sh");
    limited
        .current_dir(&tmp.0)
        .args(["-c", "ulimit -v 2000000; exec \"$0\" \"$@\""]);
    limited.args([support::BIN, "optimize", "in", "--out", "out"]);
    let out = run_within(limited, WALL_BOUND);
    assert_success(
        &out,
        "optimize on qreg q[4294967295] under ulimit -v 2000000",
    );
    assert!(tmp.path("out/wide.qasm").is_file(), "no output written");
}

/// Ω may be as large as the word. At Ω ≥ n the engine hands the whole
/// circuit to one oracle call, so that call must stay near-linear: 2^17
/// CNOTs on disjoint pairs come back within 10 s on the release binary.
#[test]
fn cli_large_omega_is_one_near_linear_oracle_call() {
    let tmp = Cleanup::new("omega", &["in"]);
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[262144];\n");
    for i in 0..131_072u32 {
        qasm += &format!("cx q[{}],q[{}];\n", 2 * i, 2 * i + 1);
    }
    tmp.write("in/pairs.qasm", &qasm);
    let out = run_within(
        tmp.popqc("optimize in --out out --omega 1000000000"),
        WALL_BOUND,
    );
    assert_success(&out, "optimize --omega 1000000000 on 2^17 CNOTs");
    assert!(tmp.path("out/pairs.qasm").is_file(), "no output written");
}

/// What only the binary wires up for tracing: `--trace-slow-ms 1` keeps an
/// unforced POST as `slow`, `?trace=1` echoes `x-popqc-trace-id`, and
/// `popqc trace <id>` / `popqc trace last` render kept traces over the
/// wire. The forced trace's span tree and its Chrome export are asserted
/// in `crates/qhttp/tests/trace_api.rs`.
#[test]
fn cli_serve_keeps_slow_and_forced_traces_and_trace_renders_them() {
    let server = Server::spawn(popqc("serve --workers 2 --omega 100 --trace-slow-ms 1"));
    server.ok("GET", "/healthz", "");

    // Unforced: kept only because it crosses the 1 ms slow threshold,
    // which an optimize of a 6.7 k-gate circuit always does.
    server.optimize("", &vqe_qasm(16, 7));
    // Forced, on a different circuit (a repeat would be a cache hit with
    // no engine span).
    let forced = server.ok("POST", "/v1/optimize?trace=1", &vqe_qasm(10, 8));
    let forced_id = forced.header("x-popqc-trace-id");
    let forced_id = forced_id.unwrap_or_else(|| panic!("no trace id in {:?}", forced.headers));

    // A trace lands once its response has flushed: wait for the forced one.
    let deadline = Instant::now() + HANG_GUARD;
    while server
        .send("GET", &format!("/v1/traces/{forced_id}"), "")
        .status
        != 200
    {
        assert!(
            Instant::now() < deadline,
            "trace {forced_id} was never kept"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let index = server.get_json("/v1/traces?limit=256");
    let kept = |why: &str| {
        let traces = at(&index, "traces").as_array().unwrap().iter();
        let ids = traces.filter(|t| at(t, "sampled_because").as_str() == Some(why));
        ids.map(|t| at(t, "trace_id").as_str().unwrap().to_string())
            .collect::<Vec<_>>()
    };
    assert!(
        kept("forced").iter().any(|id| id == forced_id),
        "{}",
        show(&index)
    );

    // Among the slow-kept traces (a GET can cross 1 ms too) is the
    // unforced POST, with a causal tree through the engine to the oracle.
    let is_the_post = |report: &qapi::TraceReport| {
        let attr = |k: &str| report.spans[0].attrs.iter().find(|(key, _)| key == k);
        let attr = |k| attr(k).and_then(|(_, v)| v.as_str());
        attr("method") == Some("POST") && attr("path") == Some("/v1/optimize")
    };
    let post = kept("slow")
        .iter()
        .map(|id| qapi::TraceReport::from_json(&server.get_json(&format!("/v1/traces/{id}"))))
        .map(|report| report.expect("trace report DTO"))
        .find(is_the_post)
        .unwrap_or_else(|| panic!("the unforced POST was not kept as slow: {}", show(&index)));
    let root = &post.spans[0];
    assert_eq!(
        (root.id, root.parent, root.name.as_str()),
        (1, 0, "request")
    );
    let names: Vec<&str> = post.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"engine") && names.contains(&"oracle_call"),
        "{names:?}"
    );
    let ids: Vec<u64> = post.spans.iter().map(|s| s.id).collect();
    assert!(
        post.spans[1..].iter().all(|s| ids.contains(&s.parent)),
        "{post:?}"
    );
    assert!(post.engine_nanos > 0 && post.oracle_nanos > 0, "{post:?}");

    // The CLI renders the same tree over the wire.
    let out = run_ok(popqc(&format!("trace {forced_id} --addr {}", server.addr)));
    let tree = String::from_utf8_lossy(&out.stdout);
    assert!(
        tree.contains("engine") && tree.contains("oracle_call"),
        "CLI tree misses the engine or oracle_call span:\n{tree}"
    );
    let out = run_ok(popqc(&format!("trace last --addr {}", server.addr)));
    assert!(
        String::from_utf8_lossy(&out.stdout).starts_with("trace "),
        "no trace printed"
    );
}

/// The evented frontend with one worker and an aggressive shed threshold,
/// under a two-wave burst of distinct-circuit POSTs (so nothing coalesces
/// or hits the cache): the burst comes back as a mix of 200s and shed 503s,
/// never another status and never a hang, every 503 carries `Retry-After`,
/// and once the burst drains the server answers 200 again.
#[test]
fn cli_serve_sheds_a_burst_cleanly_and_recovers() {
    let server = Server::spawn(popqc("serve --workers 1 --omega 100 --shed-queue-depth 4"));
    server.ok("GET", "/healthz", "");
    let shed_before = sample(&server.scrape(), "popqc_net_shed_total");
    let burst: Vec<String> = (0..16).map(|seed| vqe_qasm(12, seed)).collect();

    // Each wave is eight client threads released at once.
    let wave = |circuits: &[String]| {
        let start = std::sync::Arc::new(std::sync::Barrier::new(circuits.len()));
        let post = |qasm: &String| {
            let (addr, qasm, start) = (server.addr.clone(), qasm.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                request(&addr, "POST", "/v1/optimize", &qasm)
            })
        };
        circuits.iter().map(post).collect::<Vec<_>>()
    };
    // Wave one saturates the single worker and fills the job queue to the
    // shed threshold; wave two goes out once the queue is that deep (or
    // wave one has drained), and is then refused inline. Metrics reads
    // enqueue no work, so they are never shed.
    let mut pending = wave(&burst[..8]);
    let deadline = Instant::now() + HANG_GUARD;
    while sample(&server.scrape(), "popqc_queue_depth") < 4.0
        && !pending.iter().all(|h| h.is_finished())
    {
        assert!(
            Instant::now() < deadline,
            "wave one neither queued nor finished"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    pending.extend(wave(&burst[8..]));
    let replies: Vec<Reply> = pending
        .into_iter()
        .map(|h| h.join().expect("a burst request hung or died"))
        .collect();

    // Every request answered, only 200s and 503s, at least one of each,
    // and every shed 503 carried Retry-After.
    let codes: Vec<u16> = replies.iter().map(|r| r.status).collect();
    assert_eq!(codes.len(), 16);
    let tail = server.stderr_tail();
    assert!(
        codes.iter().all(|c| matches!(c, 200 | 503)),
        "{codes:?}\n{tail}"
    );
    assert!(codes.contains(&503), "nothing was shed: {codes:?}");
    assert!(codes.contains(&200), "nothing completed: {codes:?}");
    for reply in replies.iter().filter(|r| r.status == 503) {
        assert!(
            reply.header("retry-after").is_some(),
            "no Retry-After: {:?}",
            reply.headers
        );
    }

    // Recovery: with the queue drained, the same endpoint answers 200.
    server.optimize("", &burst[0]);

    // The shed counter advanced, and /v1/stats agrees.
    let shed_after = sample(&server.scrape(), "popqc_net_shed_total");
    assert!(
        shed_after > shed_before,
        "shed counter stuck at {shed_before}"
    );
    let stats = server.get_json("/v1/stats");
    assert_eq!(at(&stats, "frontend.frontend").as_str(), Some("evented"));
    assert!(at(&stats, "frontend.requests_shed").as_u64().unwrap() >= 1);
}

// ---------------------------------------------------------------------------
// Result-store persistence (`--cache-dir` / `--cache-addr` / `popqc cache`)
// ---------------------------------------------------------------------------

/// The store is composed from `--cache-capacity`, `--cache-dir` and
/// `--cache-addr` alone: naming a tier is a usage error (exit 2) on every
/// subcommand that builds a store, and both back flags at once is the one
/// refusal (exit 1, with a diagnostic).
#[test]
fn cli_cache_tier_is_a_usage_error_and_two_backs_are_refused() {
    let tmp = Cleanup::new("badtier", &[]);
    tmp.write("a.qasm", "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n");

    // `--max-conns 0` makes a server that still accepted the flag exit 1
    // instead of serving, so this test fails rather than hangs.
    for args in [
        "optimize a.qasm --cache-tier tiered",
        "serve --addr 127.0.0.1:0 --max-conns 0 --cache-tier tiered",
        "cached --cache-dir cache --max-conns 0 --cache-tier disk",
    ] {
        let out = run(tmp.popqc(args));
        assert_eq!(out.status.code(), Some(2), "{args}: got {:?}", out.status);
        assert!(
            stderr(&out).contains("usage:"),
            "{args}: must print the usage text"
        );
    }

    let out = run(tmp.popqc("optimize a.qasm --cache-dir cache --cache-addr 127.0.0.1:1"));
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("exactly one back tier"),
        "must refuse a disk and a remote back at once"
    );
}

/// `--log-level` refuses a bad value the way every flag value is refused:
/// an unknown level exits 1 and the diagnostic names both the bad value
/// and the valid set, on every subcommand that accepts the flag.
#[test]
fn cli_unknown_log_level_exits_1_with_diagnostic() {
    let tmp = Cleanup::new("badlog", &[]);
    tmp.write("a.qasm", "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n");

    for args in [
        "optimize a.qasm --log-level loud",
        "serve --addr 127.0.0.1:0 --log-level loud",
    ] {
        let out = run(tmp.popqc(args));
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args}: expected exit 1, got {:?}",
            out.status
        );
        let stderr = stderr(&out);
        assert!(
            stderr.contains("unknown log level `loud`")
                && stderr.contains("error, warn, info, debug"),
            "{args}: diagnostic must name the level and the valid set, got: {stderr}"
        );
    }

    // A bad per-target spec is refused the same way (the filter grammar
    // is validated as a whole, not just a bare level).
    let out = run(tmp.popqc("optimize a.qasm --log-level info,qexec=blaring"));
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown log level `blaring`"),
        "per-target specs must be validated too"
    );
}

/// Two separate `popqc optimize` processes share one `--cache-dir`: the
/// second answers every job from the disk tier, with zero oracle calls,
/// and writes the very circuits the first one wrote.
#[test]
fn cli_cache_dir_persists_across_two_processes() {
    let tmp = Cleanup::new("persist", &["in"]);
    for (family, qubits) in [("vqe", 8), ("grover", 6)] {
        gen(&tmp, family, qubits, 3);
    }
    // pi/3 and pi/1048576 merge into one rotation whose denominator is
    // above 2^20: a reader that snaps stored angles would hand back a
    // neighbouring angle with the same gate count.
    tmp.write(
        "in/merge.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n\
         rz(pi/3) q[0];\ncx q[0],q[1];\nrz(pi/1048576) q[0];\nh q[1];\n",
    );
    let optimize = |pass: &str| {
        run_ok(tmp.popqc(&format!(
            "optimize in --omega 64 --workers 2 --cache-dir cache --report {pass}.json \
             --out {pass} --quiet"
        )));
        tmp.json(&format!("{pass}.json"))
    };

    // Process one: cold. Process two: an entirely new process over the
    // same directory must be all hits with zero oracle calls.
    let cold = optimize("cold");
    let cold_pass = &at(&cold, "passes").as_array().unwrap()[0];
    assert_eq!(at(cold_pass, "cache_hits").as_u64(), Some(0));
    assert!(at(cold_pass, "oracle_calls_issued").as_u64().unwrap() > 0);

    let warm = optimize("warm");
    let warm_pass = &at(&warm, "passes").as_array().unwrap()[0];
    assert_eq!(at(warm_pass, "job_count").as_u64(), Some(3));
    assert_eq!(at(warm_pass, "cache_hits").as_u64(), Some(3));
    assert_eq!(
        at(warm_pass, "oracle_calls_issued").as_u64(),
        Some(0),
        "second process must answer entirely from the disk tier"
    );
    assert_eq!(at(&warm, "service.cache_backend").as_str(), Some("tiered"));
    assert_eq!(at(&warm, "service.oracle_calls_issued").as_u64(), Some(0));

    // The disk hits return the circuits the cold pass computed.
    let mut compared = 0;
    for entry in std::fs::read_dir(tmp.path("in")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let warm = tmp.read(&format!("warm/{name}"));
        assert_eq!(
            tmp.read(&format!("cold/{name}")),
            warm,
            "{name}: not the cold circuit"
        );
        compared += 1;
    }
    assert_eq!(compared, 3);
    let merged = tmp.read("warm/merge.qasm");
    assert!(
        merged.lines().any(|l| l == "rz(1048579*pi/3145728) q[0];"),
        "the merged angle did not survive the disk tier:\n{merged}"
    );
}

#[test]
fn cli_cache_warm_stats_clear_cycle() {
    let tmp = Cleanup::new("cachecmd", &["in"]);
    for (family, qubits) in [("vqe", 8), ("statevec", 5)] {
        gen(&tmp, family, qubits, 5);
    }
    let cache_report = |args: &str| {
        let out = run_ok(tmp.popqc(args));
        let doc = serde_json::from_str(&String::from_utf8_lossy(&out.stdout));
        qapi::CacheReport::from_json(&doc.expect("report JSON")).expect("CacheReport")
    };

    // warm: pre-populates the disk tier and prints a CacheReport.
    let report = cache_report("cache warm in --cache-dir cache --omega 64");
    assert_eq!(report.backend, "disk");
    assert_eq!(report.entries, 2);

    // A warmed directory serves an `optimize` run with zero oracle calls.
    run_ok(tmp.popqc("optimize in --omega 64 --cache-dir cache --report report.json --quiet"));
    let report_doc = tmp.json("report.json");
    let pass = &at(&report_doc, "passes").as_array().unwrap()[0];
    assert_eq!(at(pass, "oracle_calls_issued").as_u64(), Some(0));
    assert_eq!(at(pass, "cache_hits").as_u64(), Some(2));

    // stats: sees the persisted entries from a fresh process.
    let stats = cache_report("cache stats --cache-dir cache");
    assert_eq!(stats.entries, 2);
    assert!(stats.bytes > 0);

    // clear: removes them and reports the count.
    let out = run_ok(tmp.popqc("cache clear --cache-dir cache"));
    let cleared = qapi::CacheClearResponse::from_json(
        &serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("clear JSON"),
    )
    .expect("CacheClearResponse");
    assert!(cleared.cleared);
    assert_eq!(cleared.entries_removed, 2);

    let stats = cache_report("cache stats --cache-dir cache");
    assert_eq!(stats.entries, 0);

    // A missing directory is a diagnostic, not a panic.
    let out = run(tmp.popqc("cache stats --cache-dir nope"));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("does not exist"));
}

/// The PR's acceptance property, end to end over real processes: a
/// `popqc serve --cache-dir …` process is killed and
/// restarted, and the repeated POST answers from the disk tier with
/// `cache_hit == true` and zero new oracle calls.
#[test]
fn cli_serve_killed_and_restarted_answers_from_the_disk_tier() {
    let tmp = Cleanup::new("serverestart", &[]);
    let spawn_serve = || {
        Server::spawn(
            tmp.popqc("serve --workers 1 --threads-per-job 1 --omega 64 --cache-dir cache"),
        )
    };
    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[0];\ncx q[0],q[1];\nx q[2];\nx q[2];\n";

    // Process one: compute and persist, then die — killed on drop, an
    // abrupt death with no graceful shutdown path.
    let reply = spawn_serve().optimize("", qasm);
    assert_eq!(at(&reply, "cache_hit").as_bool(), Some(false));

    // Process two over the same directory: the identical POST is a hit
    // served from the disk tier, with zero oracle calls ever issued by
    // this process.
    let server = spawn_serve();
    let reply = server.optimize("", qasm);
    assert_eq!(
        at(&reply, "cache_hit").as_bool(),
        Some(true),
        "restarted server must answer from disk"
    );
    let stats = server.get_json("/v1/stats");
    assert_eq!(
        at(&stats, "oracle_calls_issued").as_u64(),
        Some(0),
        "restart must not recompute"
    );
    assert_eq!(at(&stats, "cache_backend").as_str(), Some("tiered"));
    // The per-tier report includes the disk tier.
    tier(at(&server.get_json("/v1/cache"), "tiers"), "disk");
}

/// The remote-tier acceptance property, end to end over real processes:
/// a `popqc cached` server plus two remote-only `popqc serve` replicas
/// (`--cache-addr` with `--cache-capacity 0`, so no memory front). A
/// circuit optimized on replica A is a `cache_hit: true` answer on replica
/// B with the same circuit and zero oracle calls ever issued by B; killing
/// the cache server degrades both replicas to local misses (still 200,
/// never an error).
#[test]
fn cli_replica_fleet_shares_one_cache_server_and_survives_its_death() {
    let tmp = Cleanup::new("fleet", &["cache"]);
    let mut cached = Server::spawn(tmp.popqc("cached --cache-dir cache"));
    let spawn_replica = || {
        let replica = Server::spawn(popqc(&format!(
            "serve --workers 1 --threads-per-job 1 --omega 64 --cache-addr {} --cache-capacity 0",
            cached.addr
        )));
        replica.ok("GET", "/healthz", "");
        replica
    };
    let (a, b) = (spawn_replica(), spawn_replica());

    // Replica A computes; the result writes through to the cache server.
    let qasm = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[0];\ncx q[0],q[1];\nx q[2];\nx q[2];\n";
    let cold = a.optimize("", qasm);
    assert_eq!(at(&cold, "cache_hit").as_bool(), Some(false));

    // Replica B — a different OS process — answers the identical POST
    // from the shared cache with A's circuit and no oracle call of its own.
    let warm = b.optimize("", qasm);
    assert_eq!(
        at(&warm, "cache_hit").as_bool(),
        Some(true),
        "B must hit the shared cache"
    );
    assert_eq!(at(&warm, "qasm"), at(&cold, "qasm"));
    let stats = b.get_json("/v1/stats");
    assert_eq!(
        at(&stats, "oracle_calls_issued").as_u64(),
        Some(0),
        "B must never call an oracle"
    );
    let remote = tier(at(&stats, "cache_tiers"), "remote");
    assert!(
        at(remote, "hits").as_u64().unwrap() >= 1,
        "{}",
        show(remote)
    );
    let scrape = b.scrape();
    assert!(
        scrape
            .lines()
            .any(|l| l.starts_with("popqc_remote_hits_total")),
        "replica B's scrape misses the remote-tier series:\n{scrape}"
    );

    // Kill the cache server mid-run: replicas must keep answering 200
    // (local misses that recompute), never surface the dead server.
    cached.kill();
    let fresh = "OPENQASM 2.0;\nqreg q[2];\nx q[1];\nx q[1];\nh q[0];\n";
    for replica in [&a, &b] {
        replica.optimize("", fresh);
    }
    // The degradation is visible, not silent: the remote tier's error
    // counter is non-zero in the stats report.
    let stats = b.get_json("/v1/stats");
    let remote = tier(at(&stats, "cache_tiers"), "remote");
    assert!(
        at(remote, "errors").as_u64().unwrap() >= 1,
        "uncounted: {}",
        show(remote)
    );
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ledger::layers::quiet_logs();
    // Everything the benchmark itself calls into a layer runs at width 1;
    // wider executors live in child processes only (see worker.rs).
    ledger::layers::with_width(1, || ledger::cli::main(&args))
}

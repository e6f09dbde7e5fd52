//! `nautix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line of host facts and run details, then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced (`--trace 0`) or the per-layer metrics (`--trace 1`).

use nautix_perfbench::run::{Args, Report};
use nautix_perfbench::{digest, run_workload};
use std::process::ExitCode;

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                s @ 1..=60 => seconds = Some(s),
                s => return Err(format!("--seconds {s}: expected 1 to 60")),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nautix-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulator reads `NAUTIX_*` overrides (queue, topology,
    // admission engine, layers, oracles) from the environment; any of
    // them would change what the pinned digests describe.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NAUTIX_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "nautix-perfbench: unset {overrides:?} first: the workloads are pinned without them"
        );
        return ExitCode::from(2);
    }
    let report = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nautix-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"worker_threads\": 1, \"profile\": {}, \"rustc\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"passes\": {}, \"ops\": {}, \
         \"digest\": \"{:#018x}\", \"pinned\": \"{:#018x}\"}}",
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        report.passes,
        report.ops_run,
        report.digest,
        digest::pinned(&args.workload).unwrap_or(0),
    );
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

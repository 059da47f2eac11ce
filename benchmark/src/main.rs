//! The repo benchmark: controller-epoch latency on four workloads,
//! attributed layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! prete-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! prete-benchmark run [--workload NAME] [--seed N] [--seconds S] [--repeat K] [--check-determinism]
//! prete-benchmark compare OLD.json NEW.json
//! prete-benchmark list
//! ```

mod check;
mod compare;
mod metrics;
mod runner;
mod span;
mod stats;
mod suite;
mod workloads;

use runner::RunArgs;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => pairs.push((name.into(), "1".into())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.into(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((Flags(pairs), positional))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: `{v}` is not a valid number"))
            })
            .transpose()
    }
}

/// One run in this process; prints the result line the driver reads.
fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds: f64 = flags.number("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let args = RunArgs {
        workload,
        seed: flags.number("seed")?.unwrap_or(42),
        seconds,
        passes: flags.number("passes")?,
        trace,
    };
    if args.passes == Some(0) {
        return Err("--passes must be at least 1".into());
    }
    let outcome = runner::run(&args);
    for failure in &outcome.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.to_json()).expect("a Value serializes")
    );
    Ok(ExitCode::SUCCESS)
}

/// `run`: all workloads (or one), each run in a child process.
fn suite(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = Flags::parse(args, &["check-determinism"])?;
    if let Some(extra) = positional.first() {
        return Err(format!("run: unexpected argument `{extra}`"));
    }
    let workloads = match flags.get("workload") {
        Some(name) => {
            vec![workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?]
        }
        None => workloads::WORKLOADS.iter().collect(),
    };
    let seed = flags.number("seed")?.unwrap_or(42);
    let ok = if flags.get("check-determinism").is_some() {
        suite::check_determinism(&workloads, seed)?
    } else {
        suite::run_suite(&suite::SuiteArgs {
            workloads,
            seed,
            seconds: flags.number("seconds")?.unwrap_or(DEFAULT_SECONDS),
            repeat: flags.number::<usize>("repeat")?.unwrap_or(1).max(1),
            out: flags.get("out").map(Into::into),
        })?
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            metrics::print_list();
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => suite(&args[1..]),
        Some("compare") => match &args[1..] {
            [old, new] => Ok(if compare::compare(old, new)? { ExitCode::SUCCESS } else { ExitCode::FAILURE }),
            _ => Err("usage: compare OLD.json NEW.json".into()),
        },
        Some(flag) if flag.starts_with("--") => {
            let (flags, _) = Flags::parse(args, &[])?;
            single_run(&flags)
        }
        _ => Err("usage: prete-benchmark (--workload NAME --seed N --seconds S --trace 0|1 | run … | compare OLD NEW | list)".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

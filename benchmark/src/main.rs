//! The gated benchmark of the NitroSketch reproduction.
//!
//! ```text
//! nitro-benchmark run <workload> [--seed N] [--seconds S | --passes N] [--smoke] [--dir D]
//! nitro-benchmark trace <workload | layers> [same options]
//! nitro-benchmark compare <candidate.json>... --against <base.json>...
//! nitro-benchmark --workload <name> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last form is the one `BENCHMARK.json`'s `command` is run with; it is
//! `run` (`--trace 0`) or `trace` (`--trace 1`) under another spelling.
//! Every form ends by printing one JSON line with `correct`, `attempted`,
//! `failed` and `metrics`, and exits non-zero when an output check failed.
//! See `README.md` beside this crate for the workloads and metrics.

mod compare;
mod json;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod sys;
mod workloads;

use run::Options;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  nitro-benchmark run <workload> [--seed N] [--seconds S | --passes N] [--smoke] [--dir DIR] [--out-dir DIR]
  nitro-benchmark trace <workload | layers> [same options]
  nitro-benchmark compare <candidate.json>... --against <base.json>...
  nitro-benchmark --workload <name> --seed N --seconds S --trace <0|1>
workloads:";

/// Directory result files and durable state go to, relative to where the
/// benchmark is started (the repository root).
const OUT_DIR: &str = "benchmark/out";

enum Command {
    Run(Options),
    Compare {
        candidate: Vec<PathBuf>,
        base: Vec<PathBuf>,
    },
}

fn value_of<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read {text:?}"))
}

fn parse(args: &[String], spec: &Spec) -> Result<Command, String> {
    let mut it = args.iter();
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        passes: None,
        smoke: false,
        trace: false,
        dir: None,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut against: Option<Vec<PathBuf>> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => opts.workload = value_of(arg, &mut it)?.to_string(),
            "--seed" => opts.seed = number(arg, value_of(arg, &mut it)?)?,
            "--seconds" => {
                opts.seconds = number(arg, value_of(arg, &mut it)?)?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds {} is out of range", opts.seconds));
                }
            }
            "--passes" => {
                let n: usize = number(arg, value_of(arg, &mut it)?)?;
                if n == 0 {
                    return Err("--passes must be at least 1".to_string());
                }
                opts.passes = Some(n);
            }
            "--trace" => {
                opts.trace = match value_of(arg, &mut it)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--dir" => opts.dir = Some(PathBuf::from(value_of(arg, &mut it)?)),
            "--out-dir" => opts.out_dir = PathBuf::from(value_of(arg, &mut it)?),
            "--against" => against = Some(Vec::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            value => match &mut against {
                Some(base) => base.push(PathBuf::from(value)),
                None => positional.push(value),
            },
        }
    }
    match positional.split_first() {
        Some((&"compare", files)) => {
            let base = against.unwrap_or_default();
            if files.is_empty() || base.is_empty() {
                return Err("compare needs result files on both sides of --against".to_string());
            }
            Ok(Command::Compare {
                candidate: files.iter().map(PathBuf::from).collect(),
                base,
            })
        }
        Some((&sub @ ("run" | "trace"), [name])) => {
            opts.workload = name.to_string();
            opts.trace = sub == "trace";
            Ok(Command::Run(opts))
        }
        None if !opts.workload.is_empty() => Ok(Command::Run(opts)),
        _ => Err("expected run, trace, compare or --workload".to_string()),
    }
}

fn main() -> ExitCode {
    let spec = Spec::committed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args, &spec) {
        Err(e) => {
            eprintln!("nitro-benchmark: {e}\n{USAGE}");
            for w in &spec.workloads {
                eprintln!("  {:<22} {}", w.name, w.why);
            }
            return ExitCode::from(2);
        }
        Ok(Command::Compare { candidate, base }) => {
            compare::compare(&candidate, &base, &spec).map(|worse| worse == 0)
        }
        Ok(Command::Run(opts)) if opts.trace => run::trace(&opts, &spec),
        Ok(Command::Run(opts)) => run::run(&opts, &spec),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nitro-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_form_and_the_subcommands_are_one_parser() {
        let spec = Spec::committed();
        let Ok(Command::Run(o)) = parse(
            &args("--workload aio_caida_p100 --seed 7 --seconds 3 --trace 1"),
            &spec,
        ) else {
            panic!()
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("aio_caida_p100", 7, 3.0, true)
        );
        let Ok(Command::Run(o)) = parse(&args("run fleet_saturated_p10 --smoke"), &spec) else {
            panic!()
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.smoke, o.trace),
            ("fleet_saturated_p10", 1, true, false)
        );
        assert_eq!(o.seconds, spec.run_seconds as f64);
        let Ok(Command::Run(o)) = parse(&args("trace layers --passes 2"), &spec) else {
            panic!()
        };
        assert_eq!(
            (o.workload.as_str(), o.trace, o.passes),
            ("layers", true, Some(2))
        );
        let Ok(Command::Compare { candidate, base }) =
            parse(&args("compare a.json b.json --against c.json"), &spec)
        else {
            panic!()
        };
        assert_eq!((candidate.len(), base.len()), (2, 1));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let spec = Spec::committed();
        for line in [
            "",
            "run",
            "run a b",
            "--seed 3",
            "run x --seed",
            "run x --seed many",
            "run x --trace 2",
            "run x --passes 0",
            "run x --seconds 0",
            "run x --frobnicate",
            "compare a.json",
            "compare --against b.json",
        ] {
            assert!(parse(&args(line), &spec).is_err(), "{line:?} was accepted");
        }
    }
}

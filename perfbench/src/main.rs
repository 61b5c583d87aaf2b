//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <rtc-table1|abr-contended|live-replay> --seed <n>
//!           --seconds <s> --trace <0|1> [--setups <n>]
//! ```
//!
//! Prints a summary line (with the untraced rounds' simulated, CPU and wall
//! seconds and the host's slowdown, which `run.py` merges over processes),
//! then one JSON object as the last line of stdout. Exits with 0 only when every check passed.

use std::process::ExitCode;

use domino_perfbench::{run, Options, Workload, DEFAULT_SEED, SETUP_REPS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <rtc-table1|abr-contended|live-replay> \
         [--seed N] [--seconds S] [--trace 0|1] [--setups N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_reps = SETUP_REPS;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            "--setups" => match value.parse() {
                Ok(n) if n > 0 => setup_reps = n,
                _ => return usage(&format!("bad setups {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let report = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        setup_reps,
    });
    println!(
        "# {} seed={seed} trace={} rounds={} digest={:016x} verdicts={} sim_s={:?} cpu_s={:?} wall_s={:?} slowdown={:?}",
        workload.name(),
        u8::from(trace),
        report.rounds,
        report.digest,
        report.verdicts,
        report.sim_secs,
        report.cpu_secs,
        report.wall_secs,
        report.slowdown,
    );
    println!("{}", report.to_json());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `palo-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints one line per figure, then the JSON result as the last line of
//! standard output. `--bless` rewrites the suite-cold expected file.

use palo_perfbench::{run, suite, RunCfg, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: palo-perfbench --workload suite-cold|sweep-analytic|serve-mixed \
         --seed N --seconds S --trace 0|1\n       palo-perfbench --bless"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bless") {
        match suite::bless() {
            Ok(n) => println!("wrote {n} rows to {}", suite::EXPECTED),
            Err(e) => {
                eprintln!("perfbench: bless failed: {e}");
                std::process::exit(1)
            }
        }
        return;
    }
    let mut workload = None;
    let mut cfg = RunCfg { seed: 0, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    match run(&workload, &cfg) {
        Ok(out) => {
            for m in out.notes.iter().chain(&out.metrics) {
                println!("{workload} {} = {} {}", m.name, m.value, m.unit);
            }
            for e in &out.errors {
                eprintln!("perfbench: failed: {e}");
            }
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1)
        }
    }
}

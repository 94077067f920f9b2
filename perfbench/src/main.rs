//! The repository benchmark: whole training steps and streaming
//! inference, timed end to end and attributed per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_dense|train_memsave|stream_infer> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it traces the second half of the run and prints the per-layer
//! metrics, writing the span file under `perfbench/out/`. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod alloc;
mod bench;
mod metrics;
mod spans;
mod stream;
mod train;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must lie in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eta-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = bench::workload(&args.workload) else {
        eprintln!(
            "eta-perfbench: unknown workload {} (train_dense, train_memsave, stream_infer)",
            args.workload
        );
        std::process::exit(2);
    };
    let outcome = bench::run(
        &args.workload,
        &workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for d in defs {
        if let Some(v) = outcome.values.get(d.name) {
            println!("{:<36} {:>16.6} {}", d.name, v, d.unit);
        }
    }
    match metrics::result_line(&outcome, defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("eta-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

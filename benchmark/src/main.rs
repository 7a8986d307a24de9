use std::process::ExitCode;
use tep_ledger::run::{bench, Options};

fn main() -> ExitCode {
    tep_ledger::alloc::pin_mmap_threshold();
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("tep-ledger: {message}");
            eprintln!(
                "usage: tep-ledger --workload <paper_thematic|exact_fanout|hot_thematic_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = bench(&options);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The paper's numbers, pinned: every artifact `LDP_QUICK=1 repro all`
//! prints, built in-process with the same configuration, must equal
//! `tests/golden/repro_quick.md` byte for byte. A change that moves a
//! number regenerates that file (README, "Reproducing the paper") and says
//! in CHANGES.md why the number moved.

use ldp_experiments::{artifacts, ExperimentConfig};

const GOLDEN: &str = include_str!("../golden/repro_quick.md");

#[test]
fn quick_repro_all_matches_the_golden_file() {
    // `ExperimentConfig::from_env` under `LDP_QUICK=1` with no other knob.
    let cfg = ExperimentConfig {
        trials: 5,
        seed: 0xC0FFEE,
        crowd_users: 60,
    };
    let mut out = String::new();
    for name in artifacts::resolve(&["all"]).expect("`all` resolves") {
        out += &artifacts::run(name, &cfg).expect("resolved name");
        out.push('\n'); // `repro` prints each artifact with `println!`
    }

    if out != GOLDEN {
        let (line, (got, want)) = out
            .split('\n')
            .chain(std::iter::repeat("<end of output>"))
            .zip(GOLDEN.split('\n').chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .expect("unequal strings differ in some line");
        panic!(
            "repro output differs from tests/golden/repro_quick.md at line {}:\n  \
             got:  {got}\n  want: {want}\n\
             regenerate the file if the change is meant to move numbers",
            line + 1
        );
    }
}

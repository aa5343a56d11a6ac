//! Prints [`ms_bench::probe::determinism_probe`]'s lines, the bits that
//! `tests/golden/determinism_probe.txt` pins, for a diff across builds.

fn main() {
    for line in ms_bench::probe::determinism_probe() {
        println!("{line}");
    }
}

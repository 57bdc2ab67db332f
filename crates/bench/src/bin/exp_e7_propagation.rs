//! e7_propagation: see the corresponding module in ficus-bench for the paper claim.
fn main() {
    print!("{}", ficus_bench::e7_propagation::run().render());
    print!("{}", ficus_bench::e7_propagation::run_note_drain().render());
}

//! e5_reconciliation: see the corresponding module in ficus-bench for the paper claim.
fn main() {
    print!("{}", ficus_bench::e5_reconciliation::run().render());
    print!(
        "{}",
        ficus_bench::e5_reconciliation::run_wire_cost().render()
    );
}

//! E14's allocation counts, measured under the counting allocator
//! `bench_summary` installs.

use bench::e14::{self, E14Config};

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

#[test]
fn e14_counts_allocations_per_execution() {
    let report = e14::run(&E14Config::smoke());
    let interp = report
        .interp_allocs_per_exec
        .expect("the allocator is installed");
    let vm = report
        .vm_allocs_per_exec
        .expect("the allocator is installed");
    // Per execution: the GPS fix's slots, the record's slots and the
    // returned Vec (the activity label is a shared string constant); plus,
    // once per device, the emit buffer its first reading grows (6 devices
    // over 24 executions).
    assert!(vm <= 3.25, "vm allocates {vm} times per execution");
    assert!(vm < interp, "vm {vm} vs interpreter {interp}");
    let json = report.to_json();
    assert!(
        json.contains(&format!("\"vm_allocs_per_exec\": {vm:.3}")),
        "{json}"
    );
}

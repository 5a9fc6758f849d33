//! The heap counter, alone in its own test binary so that no other test's
//! allocations move the shared counters.

use perfbench::heap;
use std::hint::black_box;

#[test]
fn bench_side_allocations_stay_out_of_the_peak() {
    const BIG: usize = 64 << 20;
    heap::reset_peak();
    let start = heap::peak_bytes();
    heap::outside_peak(|| drop(black_box(vec![1u8; BIG])));
    assert!(heap::peak_bytes() < start + BIG / 2);
    // What the bench side leaves allocated counts from then on.
    let kept = heap::outside_peak(|| black_box(vec![1u8; BIG]));
    assert!(heap::peak_bytes() >= start + BIG);
    drop(kept);
    // Program allocations raise the peak as usual.
    heap::reset_peak();
    let start = heap::peak_bytes();
    drop(black_box(vec![1u8; BIG]));
    assert!(heap::peak_bytes() >= start + BIG);
}

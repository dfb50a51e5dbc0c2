//! Frame-reuse stress: the regression harness for the use-after-return
//! class (a helper touching a submitter's stack frame after the submitter
//! has returned).
//!
//! Every tiny map is issued from a helper function whose frame holds what
//! the chunks borrow; as soon as it returns, a second function of the
//! same depth overwrites that stack region with a canary pattern and
//! checks it. A helper that read the dead frame late would compute from
//! canary bytes (wrong result); one that wrote to it late would dent the
//! canary. Maps are issued from two external threads at once and, on the
//! main thread, from inside a parallel map, so ops of different
//! submitters overlap on the same two pool workers.

use std::hint::black_box;

const CALLS_PER_STREAM: u64 = 25_000;
const CANARY: u64 = 0xC0DE_CAFE_F00D_D00D;
const FRAME_WORDS: usize = 96;
/// 8 KiB: deep enough to cover `tiny_map`'s frame and every executor
/// frame the call ran below it. (At this depth the harness catches the
/// old stack-resident latch in about one run in five.)
const CANARY_WORDS: usize = 1024;

/// One tiny map whose chunks borrow this frame's `salt`.
#[inline(never)]
fn tiny_map(k: u64) -> u64 {
    let salt = black_box([k; FRAME_WORDS]);
    qexec::par_map_vec(vec![0usize, 31, 62, 93], |i| salt[i] ^ i as u64)
        .into_iter()
        .fold(0, u64::wrapping_add)
}

/// Overwrites the stack region `tiny_map` just vacated and reports
/// whether the pattern survived a moment of other threads running.
#[inline(never)]
fn canary_intact() -> bool {
    let mut frame = [CANARY; CANARY_WORDS];
    black_box(&mut frame);
    std::thread::yield_now();
    black_box(&frame).iter().all(|&w| w == CANARY)
}

/// `CALLS_PER_STREAM` tiny maps; returns how many results or canaries
/// were wrong.
fn stream(id: u64) -> u64 {
    let mut bad = 0;
    for j in 0..CALLS_PER_STREAM {
        let k = id << 32 | j;
        let expect = (0usize..4).fold(0u64, |acc, q| acc.wrapping_add(k ^ (q * 31) as u64));
        bad += u64::from(tiny_map(k) != expect);
        bad += u64::from(!canary_intact());
    }
    bad
}

#[test]
fn frames_are_never_touched_after_the_map_returns() {
    let t0 = std::time::Instant::now();
    let bad: u64 = std::thread::scope(|s| {
        let external: Vec<_> = (0..2u64)
            .map(|id| s.spawn(move || qexec::with_width(2, || stream(id))))
            .collect();
        // Nested: each item of an outer width-2 map is itself a stream of
        // tiny maps, issued from the main thread and from a pool worker.
        let nested: u64 = qexec::with_width(2, || qexec::par_map_vec((2..8u64).collect(), stream))
            .into_iter()
            .sum();
        nested
            + external
                .into_iter()
                .map(|h| h.join().expect("stream thread"))
                .sum::<u64>()
    });
    assert_eq!(bad, 0, "wrong results or dented canaries");
    let calls = 8 * CALLS_PER_STREAM;
    assert!(calls >= 200_000);
    eprintln!(
        "{calls} tiny maps in {:.2}s, executor: {:?}",
        t0.elapsed().as_secs_f64(),
        qexec::snapshot()
    );
}

//! `kali-benchmark selftest`: is pinning doing its job on this box?
//!
//! Unpinned, the scheduler co-locates kali's two message-coupled workers
//! on one CPU for minutes at a time and `t_2w` is bimodal by 2x; host
//! drift within a run is under 10 %. So six `jacobi_dense` rounds whose
//! `t_2w` quartiles stay within 25 % of the median mean the pin held.

use crate::harness::{Mode, Workload};
use crate::pin;
use crate::stats::summarize;
use crate::workloads::jacobi_dense::JacobiDense;

pub fn pinning() -> Result<bool, String> {
    let w = JacobiDense::full(1);
    let (mut t2, mut scaling) = (Vec::new(), Vec::new());
    for _ in 0..6 {
        let two = w.run(2, Mode::Plain).seconds;
        let one = w.run(1, Mode::Plain).seconds;
        t2.push(two);
        scaling.push(one / two);
    }
    let s = summarize(&t2);
    let sc = summarize(&scaling);
    let worst = ((s.median - s.q1) / s.median).max((s.q3 - s.median) / s.median);
    println!(
        "t_2w median {:.4} s, quartiles {:.4}..{:.4} ({:.1} % from the median); \
         scaling_2w median {:.3}; pinned: {}",
        s.median,
        s.q1,
        s.q3,
        worst * 100.0,
        sc.median,
        pin::pinned()
    );
    Ok(pin::pinned() && worst <= 0.25)
}

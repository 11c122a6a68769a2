//! Post-run reports: per-processor and aggregate timing/traffic.

use crate::backend::BackendKind;
use crate::proc::{MarkEvent, ProcStats};

/// What one processor did during a run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    pub rank: usize,
    /// Final virtual clock (seconds).
    pub clock: f64,
    pub stats: ProcStats,
    /// Labelled instants recorded via [`crate::Proc::mark`].
    pub marks: Vec<MarkEvent>,
}

/// Aggregate report for a whole run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which execution backend produced this report. On
    /// [`BackendKind::Threads`] every virtual-time field (`elapsed`,
    /// busy/idle, `inspector_seconds`, `overlap_hidden_seconds`) is
    /// identically zero and [`RunReport::wall_seconds`] is the timing
    /// signal; traffic and protocol counters are meaningful on both.
    pub backend: BackendKind,
    /// Measured wall-clock duration of the whole run (thread spawn to
    /// last join), on either backend.
    pub wall_seconds: f64,
    pub procs: Vec<ProcReport>,
    /// Virtual makespan: the maximum final clock over all processors.
    pub elapsed: f64,
    pub total_msgs: u64,
    pub total_words: u64,
    pub total_flops: f64,
    /// Inspector passes executed across all processors (runtime resolution).
    pub total_inspector_runs: u64,
    /// Doall invocations served from a cached communication schedule.
    pub total_schedule_replays: u64,
    /// Virtual seconds attributed to inspection, summed over processors.
    pub inspector_seconds: f64,
    /// Data words delivered by executor exchange phases, summed.
    pub total_exchange_words: u64,
    /// Virtual seconds of message transit hidden behind computation by
    /// split-phase receives, summed over processors.
    pub overlap_hidden_seconds: f64,
    /// Replays confirmed by a piggybacked (optimistic) consensus vote,
    /// summed over processors.
    pub total_optimistic_hits: u64,
    /// Optimistic replay attempts that rolled back to a full inspection,
    /// summed over processors.
    pub total_rollbacks: u64,
    /// Schedule-cache evictions (per-site-cap and global-budget victims),
    /// summed over processors.
    pub total_schedule_evictions: u64,
    /// Subset of [`RunReport::total_exchange_words`] delivered by
    /// irregular gather schedules (sparse x-vector fetches), summed over
    /// processors.
    pub total_gather_words: u64,
}

impl RunReport {
    pub(crate) fn new(backend: BackendKind, wall_seconds: f64, procs: Vec<ProcReport>) -> Self {
        let elapsed = procs.iter().map(|p| p.clock).fold(0.0, f64::max);
        let total_msgs = procs.iter().map(|p| p.stats.msgs_sent).sum();
        let total_words = procs.iter().map(|p| p.stats.words_sent).sum();
        let total_flops = procs.iter().map(|p| p.stats.flops).sum();
        let total_inspector_runs = procs.iter().map(|p| p.stats.inspector_runs).sum();
        let total_schedule_replays = procs.iter().map(|p| p.stats.schedule_replays).sum();
        let inspector_seconds = procs.iter().map(|p| p.stats.inspector_seconds).sum();
        let total_exchange_words = procs.iter().map(|p| p.stats.exchange_words).sum();
        let overlap_hidden_seconds = procs.iter().map(|p| p.stats.overlap_hidden).sum();
        let total_optimistic_hits = procs.iter().map(|p| p.stats.optimistic_hits).sum();
        let total_rollbacks = procs.iter().map(|p| p.stats.rollbacks).sum();
        let total_schedule_evictions = procs.iter().map(|p| p.stats.schedule_evictions).sum();
        let total_gather_words = procs.iter().map(|p| p.stats.gather_words).sum();
        RunReport {
            backend,
            wall_seconds,
            procs,
            elapsed,
            total_msgs,
            total_words,
            total_flops,
            total_inspector_runs,
            total_schedule_replays,
            inspector_seconds,
            total_exchange_words,
            overlap_hidden_seconds,
            total_optimistic_hits,
            total_rollbacks,
            total_schedule_evictions,
            total_gather_words,
        }
    }

    /// Number of processors that took part.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Mean fraction of the makespan each processor spent busy
    /// (compute + message overheads). 1.0 = perfectly load balanced.
    pub fn utilization(&self) -> f64 {
        if self.elapsed <= 0.0 {
            return 1.0;
        }
        let busy: f64 = self.procs.iter().map(|p| p.stats.busy).sum();
        busy / (self.elapsed * self.procs.len() as f64)
    }

    /// Fraction of the makespan processor `rank` spent busy.
    pub fn proc_utilization(&self, rank: usize) -> f64 {
        if self.elapsed <= 0.0 {
            return 1.0;
        }
        self.procs[rank].stats.busy / self.elapsed
    }

    /// Marks from all processors merged and sorted by virtual time.
    pub fn merged_marks(&self) -> Vec<(usize, f64, &str)> {
        let mut out: Vec<(usize, f64, &str)> = self
            .procs
            .iter()
            .flat_map(|p| p.marks.iter().map(move |m| (p.rank, m.at, &*m.label)))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.backend.virtual_time() {
            writeln!(
                f,
                "backend {} | virtual time {:.6e} s (wall {:.3e} s) on {} procs | {} msgs, {} words, \
                 {:.3e} flops | utilization {:.1}%",
                self.backend,
                self.elapsed,
                self.wall_seconds,
                self.procs.len(),
                self.total_msgs,
                self.total_words,
                self.total_flops,
                100.0 * self.utilization()
            )?;
        } else {
            writeln!(
                f,
                "backend {} | wall time {:.6e} s on {} procs | {} msgs, {} words, {:.3e} flops",
                self.backend,
                self.wall_seconds,
                self.procs.len(),
                self.total_msgs,
                self.total_words,
                self.total_flops,
            )?;
        }
        if self.total_inspector_runs > 0 || self.total_schedule_replays > 0 {
            writeln!(
                f,
                "runtime resolution: {} inspector runs, {} schedule replays, \
                 {:.3e} s inspecting, {} exchange words",
                self.total_inspector_runs,
                self.total_schedule_replays,
                self.inspector_seconds,
                self.total_exchange_words
            )?;
        }
        if self.overlap_hidden_seconds > 0.0 {
            writeln!(
                f,
                "split-phase overlap: {:.3e} s of transit hidden behind computation",
                self.overlap_hidden_seconds
            )?;
        }
        if self.total_optimistic_hits > 0 || self.total_rollbacks > 0 {
            writeln!(
                f,
                "optimistic replay: {} piggybacked-vote hits, {} rollbacks",
                self.total_optimistic_hits, self.total_rollbacks
            )?;
        }
        if self.total_schedule_evictions > 0 {
            writeln!(
                f,
                "cache pressure: {} schedule entries evicted",
                self.total_schedule_evictions
            )?;
        }
        if self.total_gather_words > 0 {
            writeln!(
                f,
                "sparse gather: {} of the exchange words were irregular x-vector fetches",
                self.total_gather_words
            )?;
        }
        writeln!(
            f,
            "{:>5} {:>13} {:>13} {:>13} {:>9} {:>11}",
            "proc", "clock", "busy", "idle", "msgs", "words"
        )?;
        for p in &self.procs {
            writeln!(
                f,
                "{:>5} {:>13.6e} {:>13.6e} {:>13.6e} {:>9} {:>11}",
                p.rank, p.clock, p.stats.busy, p.stats.idle, p.stats.msgs_sent, p.stats.words_sent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_proc(rank: usize, clock: f64, busy: f64) -> ProcReport {
        ProcReport {
            rank,
            clock,
            stats: ProcStats {
                busy,
                ..Default::default()
            },
            marks: vec![],
        }
    }

    #[test]
    fn elapsed_is_max_clock() {
        let r = RunReport::new(
            BackendKind::Sim,
            0.0,
            vec![mk_proc(0, 2.0, 1.0), mk_proc(1, 5.0, 5.0)],
        );
        assert_eq!(r.elapsed, 5.0);
        assert_eq!(r.nprocs(), 2);
    }

    #[test]
    fn utilization_averages_busy_fractions() {
        let r = RunReport::new(
            BackendKind::Sim,
            0.0,
            vec![mk_proc(0, 4.0, 2.0), mk_proc(1, 4.0, 4.0)],
        );
        assert!((r.utilization() - 0.75).abs() < 1e-12);
        assert!((r.proc_utilization(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_table() {
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![mk_proc(0, 1.0, 0.5)]);
        let s = format!("{r}");
        assert!(s.contains("backend sim"));
        assert!(s.contains("virtual time"));
        assert!(s.contains("proc"));
    }

    #[test]
    fn threads_display_leads_with_wall_time() {
        let r = RunReport::new(BackendKind::Threads, 0.25, vec![mk_proc(0, 0.0, 0.0)]);
        assert_eq!(r.wall_seconds, 0.25);
        let s = format!("{r}");
        assert!(s.contains("backend threads"));
        assert!(s.contains("wall time"));
        assert!(!s.contains("virtual time"));
    }

    #[test]
    fn runtime_resolution_counters_aggregate_and_render() {
        let mut a = mk_proc(0, 2.0, 1.0);
        a.stats.inspector_runs = 2;
        a.stats.schedule_replays = 5;
        a.stats.inspector_seconds = 0.25;
        a.stats.exchange_words = 40;
        let mut b = mk_proc(1, 2.0, 1.0);
        b.stats.inspector_runs = 1;
        b.stats.schedule_replays = 6;
        b.stats.inspector_seconds = 0.5;
        b.stats.exchange_words = 2;
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![a, b]);
        assert_eq!(r.total_inspector_runs, 3);
        assert_eq!(r.total_schedule_replays, 11);
        assert!((r.inspector_seconds - 0.75).abs() < 1e-12);
        assert_eq!(r.total_exchange_words, 42);
        let s = format!("{r}");
        assert!(s.contains("3 inspector runs"));
        assert!(s.contains("11 schedule replays"));
    }

    #[test]
    fn optimistic_counters_aggregate_and_render() {
        let mut a = mk_proc(0, 2.0, 1.0);
        a.stats.optimistic_hits = 4;
        a.stats.rollbacks = 1;
        let mut b = mk_proc(1, 2.0, 1.0);
        b.stats.optimistic_hits = 4;
        b.stats.rollbacks = 1;
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![a, b]);
        assert_eq!(r.total_optimistic_hits, 8);
        assert_eq!(r.total_rollbacks, 2);
        let s = format!("{r}");
        assert!(s.contains("8 piggybacked-vote hits"));
        assert!(s.contains("2 rollbacks"));
    }

    #[test]
    fn eviction_counter_aggregates_and_renders() {
        let mut a = mk_proc(0, 1.0, 1.0);
        a.stats.schedule_evictions = 3;
        let mut b = mk_proc(1, 1.0, 1.0);
        b.stats.schedule_evictions = 2;
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![a, b]);
        assert_eq!(r.total_schedule_evictions, 5);
        let s = format!("{r}");
        assert!(s.contains("5 schedule entries evicted"));
    }

    #[test]
    fn gather_word_counter_aggregates_and_renders() {
        let mut a = mk_proc(0, 1.0, 1.0);
        a.stats.exchange_words = 10;
        a.stats.gather_words = 6;
        let mut b = mk_proc(1, 1.0, 1.0);
        b.stats.exchange_words = 9;
        b.stats.gather_words = 5;
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![a, b]);
        assert_eq!(r.total_gather_words, 11);
        let s = format!("{r}");
        assert!(s.contains("11 of the exchange words were irregular x-vector fetches"));
    }

    #[test]
    fn merged_marks_sorted_by_time() {
        let mut a = mk_proc(0, 3.0, 1.0);
        a.marks.push(MarkEvent {
            at: 2.0,
            label: "late".into(),
        });
        let mut b = mk_proc(1, 3.0, 1.0);
        b.marks.push(MarkEvent {
            at: 1.0,
            label: "early".into(),
        });
        let r = RunReport::new(BackendKind::Sim, 0.0, vec![a, b]);
        let marks = r.merged_marks();
        assert_eq!(marks[0].2, "early");
        assert_eq!(marks[1].2, "late");
    }
}

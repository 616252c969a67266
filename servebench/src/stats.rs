//! Order statistics and span arithmetic behind every reported figure.
//!
//! Kept free of I/O so the arithmetic the benchmark's verdicts rest on
//! (which percentile to report, a span's self time, the ledger
//! remainder) is unit-tested on its own.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (nearest rank, so an even count takes the
/// lower middle value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Candidate percentiles in basis points of one percent (5000 = p50),
/// lowest first.
const LADDER_BP: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `bp` (basis points).
fn beyond(n: usize, bp: u64) -> usize {
    let rank = (n as u64 * bp).div_ceil(10_000) as usize;
    n - rank.min(n)
}

/// The highest percentile of the ladder (p50 … p99.99) that leaves at
/// least `min_beyond` of `n` samples above it, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    LADDER_BP
        .iter()
        .rev()
        .find(|&&bp| beyond(n, bp) >= min_beyond)
        .map(|&bp| bp as f64 / 100.0)
}

/// A latency tail as the report states it: the percentile chosen by
/// [`tail_percentile`] with ten samples beyond it, its value, and the
/// sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reported (e.g. 99.9).
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub count: usize,
}

/// The reportable tail of an ascending slice.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    tail_percentile(sorted.len(), 10).map(|pct| Tail {
        pct,
        value: quantile(sorted, pct / 100.0),
        count: sorted.len(),
    })
}

/// Index of the slice holding time `t`, where slice `j` spans
/// `[edges[j], edges[j + 1])`; `None` outside the edges.
pub fn slice_of(edges: &[u64], t: u64) -> Option<usize> {
    let j = edges.partition_point(|&e| e <= t);
    (j >= 1 && j < edges.len()).then(|| j - 1)
}

/// Which way a figure improves.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// Share of a run's slices that may be worse than its reported figure.
pub const DISTURBED_SHARE: f64 = 0.1;

/// A run's figure at the host's undisturbed speed, from one value per
/// time slice: the 10th percentile of the slices when lower is better,
/// the 90th when higher is. A vCPU that another guest slows for some
/// seconds of the run then moves the figure only if it was slow for
/// nine tenths of the run, where a median over the whole run jumps
/// between the fast and the slow mode once half of it was slow.
pub fn undisturbed(per_slice: &[f64], better: Better) -> f64 {
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(
        &v,
        match better {
            Better::Lower => DISTURBED_SHARE,
            Better::Higher => 1.0 - DISTURBED_SHARE,
        },
    )
}

/// One closed span: a named interval on an execution track, tagged
/// with the trace (batch) it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Interned span name.
    pub name: u16,
    /// Batch the span belongs to.
    pub trace_id: u64,
    /// Execution track (one per load-generator thread).
    pub track: u32,
    /// Start, ns.
    pub t0: u64,
    /// End, ns (`>= t0`).
    pub t1: u64,
}

/// Parent of every span: the innermost other span on the same track and
/// trace whose interval contains it (ties on start go to the longer
/// span, so a child that starts with its parent still nests under it).
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.track, s.trace_id, s.t0, std::cmp::Reverse(s.t1))
    });
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            let contains =
                t.track == s.track && t.trace_id == s.trace_id && t.t0 <= s.t0 && s.t1 <= t.t1;
            if contains {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let parent = parents(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = &mut children[i];
            kids.sort_by_key(|&c| spans[c].t0);
            let mut covered = 0u64;
            let mut until = s.t0;
            for &c in kids.iter() {
                let (c0, c1) = (spans[c].t0.max(until), spans[c].t1.min(s.t1));
                if c1 > c0 {
                    covered += c1 - c0;
                    until = c1;
                }
            }
            (s.t1 - s.t0) - covered
        })
        .collect()
}

/// The ledger remainder: end-to-end median minus the per-batch medians
/// of the layers on the batch path. What is left is the time no layer
/// accounts for (socket transfer, wake-ups, thread hand-offs). A
/// negative remainder means the replays over-count and is an error.
pub fn ledger_remainder(e2e_p50_us: f64, layer_p50_us: &[f64]) -> Result<f64, String> {
    let sum: f64 = layer_p50_us.iter().sum();
    let rest = e2e_p50_us - sum;
    if rest < 0.0 {
        Err(format!(
            "layers on the batch path sum to {sum:.1} us, above the end-to-end median \
             {e2e_p50_us:.1} us: the replay over-counts"
        ))
    } else {
        Ok(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples: rank 990 leaves exactly 10 above.
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(999, 10), Some(90.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        assert_eq!(tail_percentile(100_000, 10), Some(99.99));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
    }

    #[test]
    fn tail_reports_value_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.count, 1000);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn slices_are_half_open_between_edges() {
        let edges = [100, 200, 300];
        assert_eq!(slice_of(&edges, 99), None);
        assert_eq!(slice_of(&edges, 100), Some(0));
        assert_eq!(slice_of(&edges, 199), Some(0));
        assert_eq!(slice_of(&edges, 200), Some(1));
        assert_eq!(slice_of(&edges, 300), None);
        assert_eq!(slice_of(&[100], 100), None);
        assert_eq!(slice_of(&[], 0), None);
    }

    #[test]
    fn undisturbed_figure_ignores_slow_slices_until_nine_tenths() {
        // 20 slices, a fast mode near 100 and a slow mode near 170.
        let run = |slow: usize| -> Vec<f64> {
            (0..20)
                .map(|i| if i < slow { 170.0 + i as f64 } else { 100.0 + i as f64 / 10.0 })
                .collect()
        };
        for slow in [0, 6, 10, 14, 18] {
            let lat = undisturbed(&run(slow), Better::Lower);
            assert!((100.0..102.0).contains(&lat), "{slow} slow slices: {lat}");
        }
        assert!(undisturbed(&run(19), Better::Lower) >= 170.0);
        let rate: Vec<f64> = run(10).iter().map(|l| 1e4 / l).collect();
        let best = undisturbed(&rate, Better::Higher);
        assert!((98.0..100.0).contains(&best), "{best}");
        assert_eq!(undisturbed(&[], Better::Lower), 0.0);
    }

    fn span(name: u16, trace_id: u64, t0: u64, t1: u64) -> Span {
        Span {
            name,
            trace_id,
            track: 0,
            t0,
            t1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            span(0, 1, 0, 100), // root
            span(1, 1, 0, 30),  // child sharing the root's start
            span(2, 1, 40, 90), // child
            span(3, 1, 50, 60), // grandchild: charged to its parent only
        ];
        assert_eq!(parents(&spans), vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let spans = [
            span(0, 1, 0, 100),
            span(1, 1, 10, 50),
            span(2, 1, 10, 40), // inside the first child: a grandchild
            span(3, 1, 45, 70), // overlaps the first child's tail
        ];
        let selfs = self_times(&spans);
        // Root covered by [10,50) and the clipped [50,70): 60 of 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 10);
    }

    #[test]
    fn spans_of_other_traces_or_tracks_never_nest() {
        let mut other_track = span(1, 1, 10, 20);
        other_track.track = 1;
        let spans = [span(0, 1, 0, 100), span(1, 2, 10, 20), other_track];
        assert_eq!(parents(&spans), vec![None, None, None]);
        assert_eq!(self_times(&spans), vec![100, 10, 10]);
    }

    #[test]
    fn ledger_remainder_must_not_go_negative() {
        assert_eq!(ledger_remainder(100.0, &[20.0, 30.0]), Ok(50.0));
        assert_eq!(ledger_remainder(50.0, &[20.0, 30.0]), Ok(0.0));
        assert!(ledger_remainder(49.0, &[20.0, 30.0]).is_err());
    }
}

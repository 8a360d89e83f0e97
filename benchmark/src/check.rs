//! Correctness checks. One *op* is one checked result; a failed check is
//! counted and described, never a panic and never a silent pass.

/// Tally of checked results for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// What failed (first [`Ops::MAX_NOTES`] only) and any check that ran
    /// in a degraded form.
    pub notes: Vec<String>,
}

impl Ops {
    const MAX_NOTES: usize = 20;

    /// Count one op; on failure keep `what()` for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Record a remark that is not a failure (a degraded check).
    pub fn note(&mut self, remark: String) {
        if !self.notes.contains(&remark) && self.notes.len() < Self::MAX_NOTES {
            self.notes.push(remark);
        }
    }

    /// Add another tally, marking its notes as `source`'s.
    pub fn absorb(&mut self, source: &str, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(format!("[{source}] {n}"));
            }
        }
    }
}

/// Order-independent fingerprint of a key multiset: length, wrapping sum
/// and xor. A permutation keeps all three; a changed key moves the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Multiset {
    len: usize,
    sum: i64,
    xor: i64,
}

impl Multiset {
    pub fn of(keys: &[i64]) -> Self {
        let (sum, xor) = keys
            .iter()
            .fold((0i64, 0i64), |(s, x), &k| (s.wrapping_add(k), x ^ k));
        Multiset {
            len: keys.len(),
            sum,
            xor,
        }
    }
}

/// One op: `out` is non-decreasing and holds exactly the input's keys.
pub fn check_sorted(ops: &mut Ops, what: &str, out: &[i64], input: Multiset) {
    let ordered = out.windows(2).all(|w| w[0] <= w[1]);
    let same_keys = Multiset::of(out) == input;
    ops.check(ordered && same_keys, || {
        format!("{what}: ordered={ordered} same_key_multiset={same_keys}")
    });
}

/// Position-sensitive checksum of a pipeline output: moving, swapping or
/// flipping any element changes it.
pub fn checksum(out: &[i64]) -> u64 {
    checksum_from(0, out, 0)
}

/// Continue a checksum over `part`, whose first element sits at global
/// position `offset` — so a reference built slice by slice folds to the
/// same value as one pass over the whole output.
pub fn checksum_from(acc: u64, part: &[i64], offset: usize) -> u64 {
    part.iter().enumerate().fold(acc, |a, (i, &x)| {
        let pos = (offset + i) as u64;
        a.wrapping_add((x as u64 ^ pos).wrapping_mul(2 * pos + 1))
    })
}

/// One op: a pipeline output's checksum equals the reference's.
pub fn check_checksum(ops: &mut Ops, what: &str, out: &[i64], reference: u64) {
    let got = checksum(out);
    ops.check(got == reference, || {
        format!("{what}: checksum {got:#018x} != reference {reference:#018x}")
    });
}

/// One op: a regenerated CSV cell, formatted as the study binary formats
/// it, equals the committed cell.
pub fn check_cell(ops: &mut Ops, what: &str, regenerated: &str, committed: &str) {
    ops.check(regenerated == committed, || {
        format!("{what}: regenerated `{regenerated}` != committed `{committed}`")
    });
}

/// One op: a decision digest equals the one it must repeat.
pub fn check_digest(ops: &mut Ops, what: &str, got: u64, want: u64) {
    ops.check(got == want, || {
        format!("{what}: digest {got:#018x} != {want:#018x}")
    });
}

/// One op: two simulated times agree within `1e-9` relative.
pub fn check_close(ops: &mut Ops, what: &str, got: f64, want: f64) {
    let ok = (got - want).abs() <= 1e-9 * want.abs().max(1.0);
    ops.check(ok, || format!("{what}: {got} != {want} (1e-9 relative)"));
}

/// Parse a committed results CSV (no quoted cells in the three files the
/// benchmark reads) into rows of cells, header first.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    //! Negative controls: each checker must report a planted defect as
    //! exactly one failed op (and a clean input as none).
    use super::*;

    fn keys() -> Vec<i64> {
        (0..1000).map(|i| (i * 7919) % 1009 - 500).collect()
    }

    #[test]
    fn sorted_output_with_one_key_swapped_is_one_failed_op() {
        let input = keys();
        let fp = Multiset::of(&input);
        let mut sorted = input.clone();
        sorted.sort_unstable();

        let mut ops = Ops::default();
        check_sorted(&mut ops, "clean", &sorted, fp);
        assert_eq!((ops.attempted, ops.failed), (1, 0));

        // Swapping two keys keeps the multiset and breaks the order.
        let mut swapped = sorted.clone();
        swapped.swap(10, 900);
        let mut ops = Ops::default();
        check_sorted(&mut ops, "swapped", &swapped, fp);
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert!(ops.notes[0].contains("ordered=false"), "{:?}", ops.notes);

        // Replacing a key keeps the order and breaks the multiset.
        let mut replaced = sorted;
        replaced[0] -= 1;
        let mut ops = Ops::default();
        check_sorted(&mut ops, "replaced", &replaced, fp);
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert!(ops.notes[0].contains("same_key_multiset=false"));
    }

    #[test]
    fn pipeline_output_with_one_element_flipped_is_one_failed_op() {
        let out = keys();
        let reference = checksum(&out);
        let mut ops = Ops::default();
        check_checksum(&mut ops, "clean", &out, reference);
        assert_eq!((ops.attempted, ops.failed), (1, 0));

        let mut flipped = out.clone();
        flipped[123] ^= 1;
        check_checksum(&mut ops, "flipped", &flipped, reference);
        assert_eq!((ops.attempted, ops.failed), (2, 1));

        // The checksum is position-sensitive: a swap of unequal elements shows.
        let mut swapped = out;
        swapped.swap(1, 2);
        check_checksum(&mut ops, "swapped", &swapped, reference);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }

    #[test]
    fn checksum_folds_slice_by_slice() {
        let out = keys();
        let (a, b) = out.split_at(333);
        let folded = checksum_from(checksum_from(0, a, 0), b, 333);
        assert_eq!(folded, checksum(&out));
    }

    #[test]
    fn csv_cell_off_by_one_digit_is_one_failed_op() {
        let mut ops = Ops::default();
        check_cell(&mut ops, "table1 row 3", "8.63", "8.63");
        check_cell(&mut ops, "table1 row 4", "8.64", "8.63");
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert!(ops.notes[0].contains("table1 row 4"));
    }

    #[test]
    fn wrong_digest_is_one_failed_op() {
        let mut ops = Ops::default();
        check_digest(
            &mut ops,
            "cell",
            0x90f7_9961_2b3b_a7b0,
            0x90f7_9961_2b3b_a7b0,
        );
        check_digest(
            &mut ops,
            "cell",
            0x90f7_9961_2b3b_a7b1,
            0x90f7_9961_2b3b_a7b0,
        );
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }

    #[test]
    fn makespans_compare_at_one_part_in_a_billion() {
        let mut ops = Ops::default();
        check_close(&mut ops, "m", 100.0 + 5e-8, 100.0);
        check_close(&mut ops, "m", 100.0 + 5e-7, 100.0);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }

    #[test]
    fn notes_are_capped_and_deduplicated() {
        let mut ops = Ops::default();
        for i in 0..100 {
            ops.check(false, || format!("failure {i}"));
        }
        ops.note("degraded".into());
        assert_eq!(ops.failed, 100);
        assert_eq!(ops.notes.len(), Ops::MAX_NOTES);
        let mut ops = Ops::default();
        ops.note("degraded".into());
        ops.note("degraded".into());
        assert_eq!(ops.notes.len(), 1);
    }

    #[test]
    fn csv_parses_header_and_rows() {
        let rows = parse_csv("a,b\n1,2\n\n3,4\n");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], ["3", "4"]);
    }
}

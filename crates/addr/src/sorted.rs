//! Merge kernels over sorted slices — crate-private plumbing behind
//! [`AddrSet`](crate::AddrSet).
//!
//! The hitlist service's round hot path used to shuffle its responsive
//! sets through `HashSet` clones and rebuilds — one hash per address per
//! protocol per round. These kernels replace that bookkeeping with linear
//! merges over sorted, deduplicated slices: every operation is a single
//! pass, and the results are canonically ordered (which also makes
//! snapshots and published artifacts byte-stable for free). `AddrSet`
//! applies them to the low halves of two runs whose /64 keys meet.
//!
//! All kernels require their inputs sorted ascending and free of
//! duplicates; [`normalize`] produces that form. The `*_into` kernels
//! append their result, itself sorted and deduplicated, to `out`: a set's
//! runs merge one after another into its one column of lows.

/// Sorts `v` ascending and removes duplicates — the canonical form every
/// other kernel in this module expects.
pub fn normalize<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

/// Whether sorted slice `s` contains `item` (binary search).
pub fn contains<T: Ord>(s: &[T], item: &T) -> bool {
    s.binary_search(item).is_ok()
}

/// Appends `a ∪ b` to `out`.
pub fn union_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Appends `a \ b` to `out`.
pub fn diff_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
}

/// Counts `|a \ b|` without materializing the difference.
pub fn diff_count<T: Ord>(a: &[T], b: &[T]) -> usize {
    let mut j = 0;
    let mut count = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            count += 1;
        }
    }
    count
}

/// Appends `a ∩ b` to `out`.
pub fn intersect_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;
    use std::collections::HashSet;

    fn addrs(v: &[u128]) -> Vec<Addr> {
        v.iter().map(|x| Addr(*x)).collect()
    }

    /// What a kernel appends to an empty buffer.
    fn fresh<T>(kernel: impl FnOnce(&mut Vec<T>)) -> Vec<T> {
        let mut out = Vec::new();
        kernel(&mut out);
        out
    }

    #[test]
    fn union_diff_intersect_basic() {
        let a = addrs(&[1, 3, 5, 7]);
        let b = addrs(&[2, 3, 6, 7, 9]);
        assert_eq!(fresh(|out| union_into(&a, &b, out)), addrs(&[1, 2, 3, 5, 6, 7, 9]));
        assert_eq!(fresh(|out| diff_into(&a, &b, out)), addrs(&[1, 5]));
        assert_eq!(diff_count(&a, &b), 2);
        assert_eq!(fresh(|out| diff_into(&b, &a, out)), addrs(&[2, 6, 9]));
        assert_eq!(diff_count(&b, &a), 3);
        assert_eq!(fresh(|out| intersect_into(&a, &b, out)), addrs(&[3, 7]));
    }

    #[test]
    fn empty_and_disjoint_edges() {
        let a = addrs(&[1, 2]);
        let empty: Vec<Addr> = Vec::new();
        assert_eq!(fresh(|out| union_into(&a, &empty, out)), a);
        assert_eq!(fresh(|out| union_into(&empty, &a, out)), a);
        assert_eq!(fresh(|out| diff_into(&a, &empty, out)), a);
        assert!(fresh(|out| diff_into(&empty, &a, out)).is_empty());
        assert_eq!(diff_count(&empty, &a), 0);
        assert!(fresh(|out| intersect_into(&a, &addrs(&[3, 4]), out)).is_empty());
    }

    #[test]
    fn union_in_place_reuses_scratch() {
        // The kernels append: runs merge one after another into one
        // buffer sized once, which keeps its allocation throughout.
        let mut out: Vec<u64> = Vec::with_capacity(8);
        let buffer = out.as_ptr();
        union_into(&[5, 9], &[1, 5], &mut out);
        diff_into(&[1, 2, 3], &[2], &mut out);
        intersect_into(&[4, 6, 8], &[6, 8, 10], &mut out);
        assert_eq!(out, [1, 5, 9, 1, 3, 6, 8]);
        assert_eq!(out.as_ptr(), buffer, "no reallocation within the reserved size");
    }

    #[test]
    fn normalize_and_contains() {
        let mut v = addrs(&[9, 1, 9, 4, 1]);
        normalize(&mut v);
        assert_eq!(v, addrs(&[1, 4, 9]));
        assert!(contains(&v, &Addr(4)));
        assert!(!contains(&v, &Addr(5)));
        assert!(!contains::<Addr>(&[], &Addr(5)));
    }

    #[test]
    fn kernels_agree_with_hashsets() {
        // Pseudo-random cross-check against the HashSet reference on a few
        // hundred deterministic draws.
        let mut a: Vec<u128> =
            (0..400).map(|i: u128| i.wrapping_mul(2_654_435_761) % 512).collect();
        let mut b: Vec<u128> = (0..300).map(|i: u128| i.wrapping_mul(40_503) % 512).collect();
        normalize(&mut a);
        normalize(&mut b);
        let sa: HashSet<u128> = a.iter().copied().collect();
        let sb: HashSet<u128> = b.iter().copied().collect();

        let mut want: Vec<u128> = sa.union(&sb).copied().collect();
        want.sort_unstable();
        assert_eq!(fresh(|out| union_into(&a, &b, out)), want);

        let mut want: Vec<u128> = sa.difference(&sb).copied().collect();
        want.sort_unstable();
        assert_eq!(fresh(|out| diff_into(&a, &b, out)), want);
        assert_eq!(diff_count(&a, &b), want.len());

        let mut want: Vec<u128> = sa.intersection(&sb).copied().collect();
        want.sort_unstable();
        assert_eq!(fresh(|out| intersect_into(&a, &b, out)), want);
    }
}

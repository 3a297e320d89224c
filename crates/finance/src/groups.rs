//! Company groups and shareholder partnerships — the analysis-oriented
//! intensional components of Section 2.1: *«company groups, virtual
//! concepts denoting a center of interest, shared among many firms, or
//! partnerships between shareholders sharing the assets of some firm»*.

use kgm_common::{FxHashMap, FxHashSet};
use kgm_pgstore::NodeId;

/// Company groups: the partition induced by the (symmetrized) control
/// relation — every company reachable through control edges from a common
/// head belongs to one group. Input: non-reflexive control pairs.
pub fn company_groups(controls: &FxHashSet<(u64, u64)>) -> Vec<Vec<u64>> {
    // Union-find over the payload ids.
    let mut ids: Vec<u64> = controls.iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort_unstable();
    ids.dedup();
    let index: FxHashMap<u64, usize> = ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(a, b) in controls {
        let (ra, rb) = (find(&mut parent, index[&a]), find(&mut parent, index[&b]));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut groups: FxHashMap<usize, Vec<u64>> = FxHashMap::default();
    for (i, &v) in ids.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(v);
    }
    let mut out: Vec<Vec<u64>> = groups
        .into_values()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    out.sort();
    out
}

/// Partnerships: pairs of shareholders that jointly hold shares of at least
/// `min_common` common companies. Input: `(holder, company)` holdings.
pub fn partnerships(
    holdings: &[(NodeId, NodeId)],
    min_common: usize,
) -> FxHashSet<(NodeId, NodeId)> {
    let mut holders_of: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for &(h, c) in holdings {
        holders_of.entry(c).or_default().push(h);
    }
    let mut common: FxHashMap<(NodeId, NodeId), usize> = FxHashMap::default();
    for holders in holders_of.values_mut() {
        holders.sort_unstable();
        holders.dedup();
        for i in 0..holders.len() {
            for j in (i + 1)..holders.len() {
                *common.entry((holders[i], holders[j])).or_insert(0) += 1;
            }
        }
    }
    common
        .into_iter()
        .filter(|(_, n)| *n >= min_common)
        .map(|(pair, _)| pair)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_the_control_relation() {
        let mut controls = FxHashSet::default();
        controls.insert((1u64, 2u64));
        controls.insert((1, 3));
        controls.insert((7, 8));
        let groups = company_groups(&controls);
        assert_eq!(groups, vec![vec![1, 2, 3], vec![7, 8]]);
    }

    #[test]
    fn empty_control_relation_yields_no_groups() {
        assert!(company_groups(&FxHashSet::default()).is_empty());
    }

    #[test]
    fn partnerships_require_min_common_companies() {
        let h = |i: u32| NodeId(i);
        let holdings = vec![
            (h(1), h(10)),
            (h(2), h(10)),
            (h(1), h(11)),
            (h(2), h(11)),
            (h(3), h(11)),
        ];
        let p1 = partnerships(&holdings, 2);
        assert_eq!(p1.len(), 1);
        assert!(p1.contains(&(h(1), h(2))));
        let p2 = partnerships(&holdings, 1);
        assert_eq!(p2.len(), 3, "(1,2), (1,3), (2,3)");
    }

    #[test]
    fn duplicate_holdings_count_once() {
        let h = |i: u32| NodeId(i);
        let holdings = vec![(h(1), h(10)), (h(1), h(10)), (h(2), h(10))];
        let p = partnerships(&holdings, 1);
        assert_eq!(p.len(), 1);
    }
}

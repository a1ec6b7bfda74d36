//! Group-aware VM placement strategies.

use crate::NodeId;

/// Group-aware VM placement strategies (admission-control plumbing).
///
/// A strategy orders the *candidate* sockets and logical nodes a hypervisor
/// considers when claiming unmediated backing for a new or growing VM. It
/// never changes what is claimable — only the preference order — so every
/// strategy preserves the one-VM-per-group exclusivity invariant; what
/// differs is how quickly the group pool fragments under churn and which
/// requests get rejected once it does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Lowest-id socket and node first (kernel zonelist order). The
    /// default, and byte-for-byte the historical hypervisor behavior.
    #[default]
    FirstFit,
    /// Within each socket, prefer the candidate node with the *least* free
    /// capacity that still contributes: leftover and degraded (partially
    /// offlined) groups are consumed first, preserving pristine full-size
    /// groups for large requests.
    BestFit,
    /// Prefer the socket already hosting the most claimed nodes, so one
    /// socket packs densely before the next is touched and cross-socket
    /// headroom stays contiguous for future wide VMs.
    SocketAffine,
}

impl PlacementStrategy {
    /// Every strategy, in stable order (used for per-policy accounting).
    pub const ALL: [PlacementStrategy; 3] = [
        PlacementStrategy::FirstFit,
        PlacementStrategy::BestFit,
        PlacementStrategy::SocketAffine,
    ];

    /// Stable index into per-policy accounting arrays (matches [`Self::ALL`]).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            PlacementStrategy::FirstFit => 0,
            PlacementStrategy::BestFit => 1,
            PlacementStrategy::SocketAffine => 2,
        }
    }

    /// Snake-case name used in telemetry metric labels and reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            PlacementStrategy::FirstFit => "first_fit",
            PlacementStrategy::BestFit => "best_fit",
            PlacementStrategy::SocketAffine => "socket_affine",
        }
    }

    /// Reorders candidate `(node, free_frames)` pairs, given in zonelist
    /// (id) order, into this strategy's per-socket preference order.
    ///
    /// Sorts are stable, so candidates of equal capacity keep zonelist
    /// order and `FirstFit`/`SocketAffine` leave the slice untouched.
    pub fn order_nodes(self, candidates: &mut [(NodeId, u64)]) {
        if self == PlacementStrategy::BestFit {
            candidates.sort_by_key(|&(_, free)| free);
        }
    }

    /// Reorders candidate `(socket, claimed_nodes)` pairs, given in socket-id
    /// order, into this strategy's socket preference order.
    ///
    /// Only `SocketAffine` reorders (descending claim count, stable on
    /// ties); the other strategies scan sockets in id order.
    pub fn order_sockets(self, candidates: &mut [(u16, u32)]) {
        if self == PlacementStrategy::SocketAffine {
            candidates.sort_by_key(|&(_, claimed)| core::cmp::Reverse(claimed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_preserves_zonelist_order() {
        let mut nodes = vec![(NodeId(3), 10), (NodeId(1), 2), (NodeId(2), 7)];
        let orig = nodes.clone();
        PlacementStrategy::FirstFit.order_nodes(&mut nodes);
        assert_eq!(nodes, orig);
        let mut sockets = vec![(0u16, 5u32), (1, 9)];
        PlacementStrategy::FirstFit.order_sockets(&mut sockets);
        assert_eq!(sockets, vec![(0, 5), (1, 9)]);
    }

    #[test]
    fn best_fit_orders_smallest_free_first_stably() {
        let mut nodes = vec![(NodeId(3), 10), (NodeId(1), 2), (NodeId(2), 2)];
        PlacementStrategy::BestFit.order_nodes(&mut nodes);
        assert_eq!(nodes, vec![(NodeId(1), 2), (NodeId(2), 2), (NodeId(3), 10)]);
    }

    #[test]
    fn socket_affine_prefers_most_claimed_socket() {
        let mut sockets = vec![(0u16, 1u32), (1, 4), (2, 4), (3, 0)];
        PlacementStrategy::SocketAffine.order_sockets(&mut sockets);
        assert_eq!(sockets, vec![(1, 4), (2, 4), (0, 1), (3, 0)]);
        // Node order within a socket is untouched.
        let mut nodes = vec![(NodeId(9), 1), (NodeId(4), 99)];
        PlacementStrategy::SocketAffine.order_nodes(&mut nodes);
        assert_eq!(nodes, vec![(NodeId(9), 1), (NodeId(4), 99)]);
    }

    #[test]
    fn strategy_index_matches_all_order() {
        for (i, s) in PlacementStrategy::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(PlacementStrategy::default(), PlacementStrategy::FirstFit);
        assert_eq!(PlacementStrategy::BestFit.name(), "best_fit");
    }
}
